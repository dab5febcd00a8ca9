"""Straightforward forms of the training numerics, shared by the surrogate
and trainer tests as the reference that the package's faster forms must
equal bit for bit.

Every sigmoid and softplus here computes its own exponential, the sigmoid
by masked indexing; softmax and log-softmax each shift and exponentiate the
scores on their own; every max and argmax over the class axis is numpy's;
Adam rebinds its moments and params to new arrays; the score model slices
its weights out of the parameter stack on every pass. The loss bodies are
those of ``deferlab.surrogates`` and ``deferlab.train`` written with these
helpers. Nothing here calls the package's numerics, only its constants.
"""

import numpy as np

from deferlab.surrogates import LN2, MOE_HUMAN_FLOOR
from deferlab.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def softmax(g):
    z = g - g.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(g):
    z = g - g.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class Adam:
    def __init__(self, shape, config):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.cfg = config

    def step(self, params, grad):
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
        mh = self.m / (1 - ADAM_BETA1**self.t)
        vh = self.v / (1 - ADAM_BETA2**self.t)
        return params - self.cfg.learning_rate * mh / (np.sqrt(vh) + ADAM_EPS)


def _t(a):
    return a.swapaxes(1, 2)


def unpack(model, stack):
    """Weights (K, fan_out, fan_in) and biases (K, 1, fan_out) of each row
    of a (K, p) parameter stack."""
    d, out, h = model.input_dim, model.output_dim, model.hidden_units
    k = stack.shape[0]
    if model.hidden_units == 0:
        return stack[:, : d * out].reshape(k, out, d), stack[:, None, d * out :]
    n1 = d * h
    n2 = n1 + h
    return (stack[:, :n1].reshape(k, h, d), stack[:, None, n1:n2],
            stack[:, n2 : n2 + h * out].reshape(k, out, h), stack[:, None, n2 + h * out :])


def stack_forward(model, stack, x):
    """Scores (K, n, output_dim) of each row of a (K, p) parameter stack."""
    if model.hidden_units == 0:
        w, b = unpack(model, stack)
        return x @ _t(w) + b
    w1, b1, w2, b2 = unpack(model, stack)
    hidden = np.maximum(0.0, x @ _t(w1) + b1)
    return hidden @ _t(w2) + b2


def stack_backward(model, stack, x, dscores):
    """Gradients (K, p) of sum(dscores[k] * scores[k]) in each row of a
    (K, p) parameter stack."""
    k = stack.shape[0]
    if model.hidden_units == 0:
        dw = _t(dscores) @ x
        db = dscores.sum(axis=1)
        return np.concatenate([dw.reshape(k, -1), db], axis=1)
    w1, b1, w2, _ = unpack(model, stack)
    z1 = x @ _t(w1) + b1
    a1 = np.maximum(0.0, z1)
    dw2 = _t(dscores) @ a1
    db2 = dscores.sum(axis=1)
    da1 = dscores @ w2
    dz1 = da1 * (z1 > 0)
    dw1 = _t(dz1) @ x
    db1 = dz1.sum(axis=1)
    return np.concatenate([dw1.reshape(k, -1), db1, dw2.reshape(k, -1), db2], axis=1)


def forward(model, x):
    """A model's scores (n, output_dim) at a (n, d) feature matrix."""
    return stack_forward(model, model.params[None], x)[0]


def rs(g, y, hc):
    n = g.shape[0]
    rows = np.arange(n)
    zmax = g.max(axis=1, keepdims=True)
    e = np.exp(g - zmax)
    total = e.sum(axis=1)
    num = np.maximum(e[rows, y] + hc * e[:, -1], 1e-300)
    vals = (-2.0 / LN2) * (np.log(num) - np.log(total))
    grads = (2.0 / LN2) * (e / total[:, None])
    coef = (-2.0 / LN2) / num
    grads[rows, y] += coef * e[rows, y]
    grads[:, -1] += np.where(hc, coef * e[:, -1], 0.0)
    return vals, grads


def rs_alpha(g, y, hc, a):
    n = g.shape[0]
    rows = np.arange(n)
    rs_vals, rs_grads = rs(g, y, hc)
    gy = g[:, :-1]
    p = softmax(gy)
    logp = log_softmax(gy)
    ce_vals = -logp[rows, y] / LN2
    ce_grads = np.zeros_like(g)
    ce_grads[:, :-1] = p / LN2
    ce_grads[rows, y] -= 1.0 / LN2
    ag = a[..., None]
    return a * rs_vals + (1 - a) * ce_vals, ag * rs_grads + (1 - ag) * ce_grads


def rs2(g, y, hc):
    n = g.shape[0]
    rows = np.arange(n)
    gy = g[:, :-1]
    p = softmax(gy)
    py = p[rows, y]
    gb = g[:, -1]
    s_pos = sigmoid(gb)
    s_neg = sigmoid(-gb)
    arg = np.maximum(py * s_neg + hc * s_pos, 1e-300)
    vals = -np.log(arg)
    grads = np.zeros_like(g)
    coef = s_neg * py / arg
    grads[:, :-1] = coef[:, None] * p
    grads[rows, y] -= coef
    grads[:, -1] = -(s_pos * s_neg * (hc - py)) / arg
    return vals, grads


def ce_alpha(g, y, hc, a):
    rows = np.arange(g.shape[0])
    logq = log_softmax(g)
    q = np.exp(logq)
    w = np.where(hc, a, 1.0)
    k = hc.astype(float)
    vals = -w * logq[rows, y] - k * logq[:, -1]
    grads = (w + k)[:, None] * q
    grads[rows, y] -= w
    grads[:, -1] -= k
    return vals, grads


def ova(g, y, hc):
    n, cp1 = g.shape
    rows = np.arange(n)
    gy = g[rows, y]
    gb = g[:, -1]
    other = softplus(g[:, :-1])
    other[rows, y] = 0.0
    vals = softplus(-gy) + other.sum(axis=1)
    vals = vals + np.where(hc, softplus(-gb), softplus(gb))
    grads = np.zeros_like(g)
    grads[:, :-1] = sigmoid(g[:, :-1])
    grads[rows, y] = -sigmoid(-gy)
    grads[:, -1] = np.where(hc, -sigmoid(-gb), sigmoid(gb))
    return vals, grads


def moe(g, y, hc):
    n = g.shape[0]
    rows = np.arange(n)
    gy = g[:, :-1]
    p = softmax(gy)
    logp = log_softmax(gy)[rows, y]
    gb = g[:, -1]
    s_pos = sigmoid(gb)
    s_neg = sigmoid(-gb)
    human_ll = np.log(np.where(hc, 1.0, MOE_HUMAN_FLOOR))
    vals = -(s_neg * logp + s_pos * human_ll)
    grads = np.zeros_like(g)
    grads[:, :-1] = s_neg[:, None] * p
    grads[rows, y] -= s_neg
    grads[:, -1] = s_pos * s_neg * (logp - human_ll)
    return vals, grads


def ce_batch(scores, y):
    logq = log_softmax(scores)
    rows = np.arange(len(y))
    vals = -logq[rows, y]
    grads = np.exp(logq)
    grads[rows, y] -= 1.0
    return vals, grads


def logistic_batch(logits, targets01):
    z = logits[:, 0]
    t = targets01.astype(float)
    vals = softplus(z) - t * z
    grads = (sigmoid(z) - t)[:, None]
    return vals, grads


def same_bits(a, b):
    """Whether two float arrays hold the same values bit for bit; NaNs
    match NaNs in the same places, whatever their sign bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return a[keep].tobytes() == b[keep].tobytes()
