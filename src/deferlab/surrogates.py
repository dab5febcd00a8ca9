"""Surrogate losses for deferral and their analytic gradients.

Every loss consumes, per sample, a score vector ``g`` of length C+1, laid
out as the C class scores followed by the deferral score, plus the true
class id and a flag for whether the recorded human prediction was correct.
The induced decisions are ``label = argmax of the class scores`` and
``defer iff the deferral score reaches the class max``.

Log bases are fixed deliberately: the realizable-surrogate family uses base
2, the baseline losses use the natural log. The base only rescales values
and gradients, but the frozen test values depend on it.

``surrogate_loss`` is the one checked entry point: it takes an (n, C+1)
score matrix, one row per sample, and returns per-sample values plus
per-sample score gradients. All softmax-style computations subtract the
row max before exponentiation and stay finite for scores up to about +-700.
"""

from __future__ import annotations

import numpy as np

__all__ = ["surrogate_loss", "LOSSES"]

LN2 = float(np.log(2.0))
MOE_HUMAN_FLOOR = 1e-6  # keeps log I{h=y} finite when the human is wrong


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
    if n and (y.min() < 0 or y.max() >= cp1 - 1):
        raise ValueError("class ids must lie in [0, C)")
    return g, y, hc


# The class-axis max and argmax loop over the columns. Over an axis of a
# few columns numpy's max costs several times more, and so does its argmax
# on a strided slice such as the class scores of a C+1-head model. Each
# helper equals its numpy reduction bit for bit.


def _column_max(a):
    """The max over the last axis by a loop of np.maximum: NaN wins, and a
    max of zeros may have either sign."""
    w = a.shape[-1]
    out = np.maximum(a[..., 0], a[..., 1]) if w > 1 else a[..., 0].copy()
    for j in range(2, w):
        np.maximum(out, a[..., j], out=out)
    return out


def _class_max(a):
    """``a.max(axis=-1)``."""
    out = _column_max(a)
    # equal values have equal bits but for +0 and -0, whose order numpy's
    # reduction decides for itself from 9 columns on
    if np.count_nonzero(out) < out.size:
        return a.max(axis=-1)
    return out


def _class_argmax(a):
    """``a.argmax(axis=-1)``: the first column of each row's max."""
    m = _column_max(a)
    if np.isnan(m).any():  # numpy's argmax is the first NaN
        return a.argmax(axis=-1)
    # the index counts the leading columns below the max
    below = a[..., 0] < m
    idx = below.astype(np.intp)
    for j in range(1, a.shape[-1] - 1):
        below &= a[..., j] < m
        idx += below
    return idx


def _softmax_log_softmax(g):
    """Softmax and log-softmax of each row, sharing one shifted exponential."""
    z = g - _class_max(g)[:, None]
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


def _sigmoid_pair(z):
    """sigmoid(z) and sigmoid(-z), sharing one exponential and its two
    quotients."""
    ez = np.exp(-np.abs(z))
    d = 1.0 + ez
    r, q = 1.0 / d, ez / d
    return np.where(z >= 0, r, q), np.where(z <= 0, r, q)


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


def surrogate_loss(method, scores, y, human_correct, alpha=None):
    """Per-row values and score gradients of a method's surrogate loss.

    ``method`` is a ``LOSSES`` id, which is also its ``train_method`` id.
    ``scores`` is an (n, C+1) matrix, one row per sample, ``y`` holds n
    class ids in [0, C) and ``human_correct`` n flags. rs and ce need
    ``alpha``, a scalar or one weight per row, each in [0, 1]; rs at alpha
    1 is the pure realizable surrogate. rs2, ova and moe take no alpha.
    Returns the (n,) values and the (n, C+1) gradients.
    """
    if method not in LOSSES:
        raise ValueError(f"unknown method id {method!r}")
    g, y, hc = _check_batch(scores, y, human_correct)
    if method in ("rs", "ce"):
        if alpha is None:
            raise ValueError(f"method={method} needs an alpha in [0, 1]")
        alpha = _check_alpha(alpha, g.shape[0])
    elif alpha is not None:
        raise ValueError(f"alpha does not apply to method={method}")
    return LOSSES[method](g, y, hc, alpha)


# The loss bodies are unchecked: ``g`` a finite float (n, C+1) array, ``y``
# int64 class ids in [0, C), ``hc`` bool, and ``a`` a float array holding a
# scalar or one alpha per row. surrogate_loss checks its inputs before it
# calls them; the trainer calls them through LOSSES and checks its inputs
# once per fit.


def _rs(g, y, hc):
    """Realizable surrogate: -2*log2((e^g_y + I{h=y} e^g_bot) / sum over all)."""
    n = g.shape[0]
    rows = np.arange(n)
    e = np.exp(g - _class_max(g)[:, None])
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


def _rs_alpha(g, y, hc, a):
    """Convex mix of the realizable surrogate with plain class log-loss
    (base 2), weight ``a`` on the surrogate."""
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


def _rs2(g, y, hc):
    """Halfspace-rejector variant: -log(softmax_Y(g)_y * sig(-g_bot) + I{h=y} sig(g_bot))."""
    n = g.shape[0]
    rows = np.arange(n)
    p = _softmax(g[:, :-1])
    py = p[rows, y]
    s_pos, s_neg = _sigmoid_pair(g[:, -1])
    arg = np.maximum(py * s_neg + hc * s_pos, 1e-300)
    vals = -np.log(arg)
    grads = np.zeros_like(g)
    # d p_y / d g_j = p_y (delta_jy - p_j) on the class coordinates
    coef = s_neg * py / arg
    grads[:, :-1] = coef[:, None] * p
    grads[rows, y] -= coef
    grads[:, -1] = -(s_pos * s_neg * (hc - py)) / arg
    return vals, grads


def _ce_alpha(g, y, hc, a):
    """Cross-entropy deferral surrogate with target weight ``a`` on the true
    class of human-correct points."""
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


def _ova(g, y, hc):
    """One-vs-all deferral surrogate built from logistic links."""
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


def _moe(g, y, hc):
    """Mixture-of-experts surrogate with a sigmoid gate on the deferral score."""
    rows = np.arange(g.shape[0])
    p, logp = _softmax_log_softmax(g[:, :-1])
    logp = logp[rows, y]
    s_pos, s_neg = _sigmoid_pair(g[:, -1])
    human_ll = np.log(np.where(hc, 1.0, MOE_HUMAN_FLOOR))
    vals = -(s_neg * logp + s_pos * human_ll)
    grads = np.zeros_like(g)
    grads[:, :-1] = s_neg[:, None] * p
    grads[rows, y] -= s_neg
    grads[:, -1] = s_pos * s_neg * (logp - human_ll)
    return vals, grads


# id -> unchecked batch body taking (scores, y, human_correct, alpha), inputs
# as the bodies above expect them; the alpha losses take a float array
# holding a scalar alpha or one alpha per score row, the others ignore alpha
LOSSES = {
    "rs": _rs_alpha,
    "rs2": lambda g, y, hc, alpha: _rs2(g, y, hc),
    "ce": _ce_alpha,
    "ova": lambda g, y, hc, alpha: _ova(g, y, hc),
    "moe": lambda g, y, hc, alpha: _moe(g, y, hc),
}
