"""Surrogate losses for deferral and their analytic gradients.

Every loss consumes a score vector ``g`` of length C+1, laid out as the C
class scores followed by the deferral score, plus the true class id and a
flag for whether the recorded human prediction was correct. The induced
decisions are ``label = argmax of the class scores`` and ``defer iff the
deferral score reaches the class max``.

Log bases are fixed deliberately: the realizable-surrogate family uses base
2, the baseline losses use the natural log. The base only rescales values
and gradients, but the frozen test values depend on it.

Batch variants (suffix ``_batch``) operate on an (n, C+1) score matrix and
return per-sample values plus per-sample score gradients; the scalar API
wraps them. All softmax-style computations subtract the row max before
exponentiation and stay finite for scores up to about +-700.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossEval",
    "loss_rs",
    "loss_rs_alpha",
    "loss_rs2",
    "loss_ce_alpha",
    "loss_ova",
    "loss_moe",
    "loss_rs_batch",
    "loss_rs_alpha_batch",
    "loss_rs2_batch",
    "loss_ce_alpha_batch",
    "loss_ova_batch",
    "loss_moe_batch",
    "LOSSES",
]

LN2 = float(np.log(2.0))
MOE_HUMAN_FLOOR = 1e-6  # keeps log I{h=y} finite when the human is wrong


@dataclass(frozen=True)
class LossEval:
    """A loss value together with its gradient in the C+1 scores."""

    value: float
    grad: np.ndarray


def _check_batch(scores, y, human_correct):
    g = np.asarray(scores, dtype=float)
    if g.ndim != 2 or g.shape[1] < 3:
        raise ValueError("scores must be (n, C+1) with C >= 2")
    if not np.all(np.isfinite(g)):
        raise ValueError("scores must be finite")
    y = np.asarray(y, dtype=np.int64)
    hc = np.asarray(human_correct, dtype=bool)
    n, cp1 = g.shape
    if y.shape != (n,) or hc.shape != (n,):
        raise ValueError("y and human_correct must have one entry per row")
    if y.min() < 0 or y.max() >= cp1 - 1:
        raise ValueError("class ids must lie in [0, C)")
    return g, y, hc


def _softmax_log_softmax(g):
    """Softmax and log-softmax of each row, sharing one shifted exponential."""
    z = g - g.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return e / total, z - np.log(total)


def _softmax(g):
    return _softmax_log_softmax(g)[0]


def _log_softmax(g):
    return _softmax_log_softmax(g)[1]


# The logistic helpers take ``ez = exp(-|z|)`` from a caller that already
# has it, so sigmoid(z), sigmoid(-z) and softplus(+-z) share one
# exponential. exp only ever sees -|z|, which equals -z exactly when
# z >= 0, so nothing overflows and no branch is needed.


def _sigmoid(z, ez=None):
    if ez is None:
        ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _softplus(z, ez=None):
    # log(1 + e^z)
    if ez is None:
        ez = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(ez)


def _check_alpha(alpha, n):
    """alpha as a float array: a scalar, or one value per score row."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim > 1 or (a.ndim == 1 and a.shape != (n,)):
        raise ValueError("alpha must be a scalar or have one entry per row")
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    return a


# Each public ``loss_*_batch`` validates its inputs with _check_batch (and
# _check_alpha) and then runs an unchecked body: ``g`` a finite float
# (n, C+1) array, ``y`` int64 class ids in [0, C), ``hc`` bool, and ``a`` a
# float array holding a scalar or one alpha per row. The trainer calls the
# bodies through LOSSES; its inputs are checked once per fit.


def loss_rs_batch(scores, y, human_correct):
    """Realizable surrogate: -2*log2((e^g_y + I{h=y} e^g_bot) / sum over all)."""
    return _rs(*_check_batch(scores, y, human_correct))


def _rs(g, y, hc):
    n = g.shape[0]
    rows = np.arange(n)
    zmax = g.max(axis=1, keepdims=True)
    e = np.exp(g - zmax)
    total = e.sum(axis=1)
    # the numerator can underflow to 0 for extreme score spreads; floor it so
    # values and gradients stay finite (callers treat huge losses as huge)
    num = np.maximum(e[rows, y] + hc * e[:, -1], 1e-300)
    vals = (-2.0 / LN2) * (np.log(num) - np.log(total))
    grads = (2.0 / LN2) * (e / total[:, None])
    coef = (-2.0 / LN2) / num
    grads[rows, y] += coef * e[rows, y]
    grads[:, -1] += np.where(hc, coef * e[:, -1], 0.0)
    return vals, grads


def loss_rs_alpha_batch(scores, y, human_correct, alpha):
    """Convex mix of the realizable surrogate with plain class log-loss (base 2).

    ``alpha`` is a scalar or one weight per row, each in [0, 1].
    """
    g, y, hc = _check_batch(scores, y, human_correct)
    return _rs_alpha(g, y, hc, _check_alpha(alpha, g.shape[0]))


def _rs_alpha(g, y, hc, a):
    n = g.shape[0]
    rows = np.arange(n)
    rs_vals, rs_grads = _rs(g, y, hc)
    p, logp = _softmax_log_softmax(g[:, :-1])
    ce_vals = -logp[rows, y] / LN2
    ce_grads = np.zeros_like(g)
    ce_grads[:, :-1] = p / LN2
    ce_grads[rows, y] -= 1.0 / LN2
    ag = a[..., None]
    return a * rs_vals + (1 - a) * ce_vals, ag * rs_grads + (1 - ag) * ce_grads


def loss_rs2_batch(scores, y, human_correct):
    """Halfspace-rejector variant: -log(softmax_Y(g)_y * sig(-g_bot) + I{h=y} sig(g_bot))."""
    return _rs2(*_check_batch(scores, y, human_correct))


def _rs2(g, y, hc):
    n = g.shape[0]
    rows = np.arange(n)
    p = _softmax(g[:, :-1])
    py = p[rows, y]
    gb = g[:, -1]
    eb = np.exp(-np.abs(gb))
    s_pos = _sigmoid(gb, eb)
    s_neg = _sigmoid(-gb, eb)
    arg = np.maximum(py * s_neg + hc * s_pos, 1e-300)
    vals = -np.log(arg)
    grads = np.zeros_like(g)
    # d p_y / d g_j = p_y (delta_jy - p_j) on the class coordinates
    coef = s_neg * py / arg
    grads[:, :-1] = coef[:, None] * p
    grads[rows, y] -= coef
    grads[:, -1] = -(s_pos * s_neg * (hc - py)) / arg
    return vals, grads


def loss_ce_alpha_batch(scores, y, human_correct, alpha):
    """Cross-entropy deferral surrogate with target weight alpha on human-correct points.

    ``alpha`` is a scalar or one weight per row, each in [0, 1].
    """
    g, y, hc = _check_batch(scores, y, human_correct)
    return _ce_alpha(g, y, hc, _check_alpha(alpha, g.shape[0]))


def _ce_alpha(g, y, hc, a):
    rows = np.arange(g.shape[0])
    logq = _log_softmax(g)
    q = np.exp(logq)
    w = np.where(hc, a, 1.0)
    k = hc.astype(float)
    vals = -w * logq[rows, y] - k * logq[:, -1]
    grads = (w + k)[:, None] * q
    grads[rows, y] -= w
    grads[:, -1] -= k
    return vals, grads


def loss_ova_batch(scores, y, human_correct):
    """One-vs-all deferral surrogate built from logistic links."""
    return _ova(*_check_batch(scores, y, human_correct))


def _ova(g, y, hc):
    rows = np.arange(g.shape[0])
    gc = g[:, :-1]
    gy = g[rows, y]
    ec = np.exp(-np.abs(gc))
    ey = ec[rows, y]
    # the deferral term is phi(g_bot) where the human is right, else
    # phi(-g_bot): one sign-flipped score sb covers both
    gb = g[:, -1]
    sb = np.where(hc, -gb, gb)
    eb = np.exp(-np.abs(gb))
    # phi(g_y) + sum_{y' != y} phi(-g_{y'}) + deferral term, phi(z) = log(1+e^-z)
    other = _softplus(gc, ec)
    other[rows, y] = 0.0
    vals = _softplus(-gy, ey) + other.sum(axis=1)
    vals = vals + _softplus(sb, eb)
    grads = np.empty_like(g)
    grads[:, :-1] = _sigmoid(gc, ec)
    grads[rows, y] = -_sigmoid(-gy, ey)
    s_b = _sigmoid(sb, eb)
    grads[:, -1] = np.where(hc, -s_b, s_b)
    return vals, grads


def loss_moe_batch(scores, y, human_correct):
    """Mixture-of-experts surrogate with a sigmoid gate on the deferral score."""
    return _moe(*_check_batch(scores, y, human_correct))


def _moe(g, y, hc):
    rows = np.arange(g.shape[0])
    p, logp = _softmax_log_softmax(g[:, :-1])
    logp = logp[rows, y]
    gb = g[:, -1]
    eb = np.exp(-np.abs(gb))
    s_pos = _sigmoid(gb, eb)
    s_neg = _sigmoid(-gb, eb)
    human_ll = np.log(np.where(hc, 1.0, MOE_HUMAN_FLOOR))
    vals = -(s_neg * logp + s_pos * human_ll)
    grads = np.zeros_like(g)
    grads[:, :-1] = s_neg[:, None] * p
    grads[rows, y] -= s_neg
    grads[:, -1] = s_pos * s_neg * (logp - human_ll)
    return vals, grads


def _scalar(batch_fn, scores, y, human_correct, *args):
    g = np.asarray(scores, dtype=float)
    if g.ndim != 1:
        raise ValueError("scores must be a vector of length C+1")
    vals, grads = batch_fn(g[None, :], [int(y)], [bool(human_correct)], *args)
    return LossEval(value=float(vals[0]), grad=grads[0])


def loss_rs(scores, y, human_correct) -> LossEval:
    """RealizableSurrogate loss at one sample."""
    return _scalar(loss_rs_batch, scores, y, human_correct)


def loss_rs_alpha(scores, y, human_correct, alpha) -> LossEval:
    """alpha-blend of the realizable surrogate and class-only log loss."""
    return _scalar(loss_rs_alpha_batch, scores, y, human_correct, alpha)


def loss_rs2(scores, y, human_correct) -> LossEval:
    """Realizable surrogate variant whose rejector is a single halfspace score."""
    return _scalar(loss_rs2_batch, scores, y, human_correct)


def loss_ce_alpha(scores, y, human_correct, alpha) -> LossEval:
    """CrossEntropySurrogate baseline."""
    return _scalar(loss_ce_alpha_batch, scores, y, human_correct, alpha)


def loss_ova(scores, y, human_correct) -> LossEval:
    """One-vs-all baseline."""
    return _scalar(loss_ova_batch, scores, y, human_correct)


def loss_moe(scores, y, human_correct) -> LossEval:
    """Mixture-of-experts baseline."""
    return _scalar(loss_moe_batch, scores, y, human_correct)


def _rs_dispatch(g, y, hc, alpha):
    if alpha is None or (np.ndim(alpha) == 0 and alpha == 1.0):
        return _rs(g, y, hc)
    return _rs_alpha(g, y, hc, np.asarray(alpha, dtype=float))


def _ce_dispatch(g, y, hc, alpha):
    return _ce_alpha(g, y, hc, np.asarray(1.0 if alpha is None else alpha, dtype=float))


# id -> unchecked batch body taking (scores, y, human_correct, alpha or None),
# inputs as the bodies above expect them; the alpha losses take a scalar
# alpha or one alpha per score row
LOSSES = {
    "rs": _rs_dispatch,
    "rs2": lambda g, y, hc, alpha: _rs2(g, y, hc),
    "ce": _ce_dispatch,
    "ova": lambda g, y, hc, alpha: _ova(g, y, hc),
    "moe": lambda g, y, hc, alpha: _moe(g, y, hc),
}
