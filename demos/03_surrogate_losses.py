"""The surrogate loss family and its analytic gradients.

Each loss consumes C class scores plus one deferral score. The realizable
surrogate rewards either predicting the label or deferring when the human
is right; the baselines encode different tradeoffs. All gradients are
analytic and match finite differences.

Every loss goes through one door, ``surrogate_loss(method, scores, y,
human_correct, alpha)``, keyed by the ``train_method`` ids. It takes a
score matrix with one row per sample; rs and ce take an alpha, and rs at
alpha 1 is the pure realizable surrogate.
"""

import numpy as np

from deferlab import surrogate_loss


def loss(method, scores, y, human_correct, alpha=None):
    """The value and score gradient at one sample, passed as a one-row batch."""
    vals, grads = surrogate_loss(method, [scores], [y], [human_correct], alpha)
    return vals[0], grads[0]


g = np.array([0.0, 0.0, 0.0])  # two class scores and a deferral score, all zero

print("all-zero scores, y=1:")
print(f"  realizable surrogate, human right: {loss('rs', g, 1, True, 1.0)[0]:.5f}")
print(f"  realizable surrogate, human wrong: {loss('rs', g, 1, False, 1.0)[0]:.5f}")
print(f"  alpha=0.5 blend, human right:      {loss('rs', g, 1, True, 0.5)[0]:.5f}")
print(f"  halfspace-rejector variant:        {loss('rs2', g, 0, True)[0]:.5f}")
print(f"  cross-entropy surrogate (a=1):     {loss('ce', g, 0, True, 1.0)[0]:.5f}")
print(f"  one-vs-all:                        {loss('ova', g, 0, False)[0]:.5f}")
print(f"  mixture-of-experts gate:           {loss('moe', g, 0, True)[0]:.5f}")

# When the human is right, the realizable surrogate lets the learner choose
# freely between fitting the label and deferring: crank the deferral score
# and the loss vanishes without the classifier ever fitting y.
print("\nhuman right, deferral score grows:")
for gb in (0.0, 2.0, 5.0, 10.0):
    v = loss("rs", [0.0, 0.0, gb], 1, True, 1.0)[0]
    print(f"  g_defer={gb:5.1f}: loss={v:.6f}")

# The cross-entropy surrogate keeps charging for the unfit label: this is
# the mechanism behind its failure on realizable instances.
print("\nsame sweep for the cross-entropy surrogate (alpha=1):")
for gb in (0.0, 2.0, 5.0, 10.0):
    v = loss("ce", [0.0, 0.0, gb], 1, True, 1.0)[0]
    print(f"  g_defer={gb:5.1f}: loss={v:.6f}")

# The realizable surrogate upper-bounds the 0-1 system loss pointwise: one
# call rates 2000 random draws.
rng = np.random.default_rng(0)
draws = [(rng.normal(scale=4.0, size=4), int(rng.integers(0, 3)), bool(rng.integers(0, 2)))
         for _ in range(2000)]
scores, y, hc = (np.array(column) for column in zip(*draws))
vals, _ = surrogate_loss("rs", scores, y, hc, 1.0)
defer = scores[:, 3] >= scores[:, :3].max(axis=1)
zero_one = np.where(defer, ~hc, np.argmax(scores[:, :3], axis=1) != y)
assert np.all(zero_one <= vals + 1e-12)
print("\n0-1 system loss <= surrogate value held on 2000 random draws")

# Gradients are analytic; spot-check one coordinate by central differences.
g = rng.normal(size=4)
step = 1e-5
up, dn = g.copy(), g.copy()
up[0] += step
dn[0] -= step
fd = (loss("rs", up, 1, True, 1.0)[0] - loss("rs", dn, 1, True, 1.0)[0]) / (2 * step)
analytic = loss("rs", g, 1, True, 1.0)[1][0]
print(f"gradient check: analytic={analytic:+.8f}  central-diff={fd:+.8f}")
