import hashlib
import math
import warnings

import numpy as np
import pytest

from deferlab import surrogates
from deferlab.surrogates import (
    LOSSES,
    _ce_alpha,
    _class_argmax,
    _class_max,
    _log_softmax,
    _moe,
    _ova,
    _rs,
    _rs2,
    _rs_alpha,
    _sigmoid,
    _softmax,
    _softmax_log_softmax,
    _softplus,
    surrogate_loss,
)
from deferlab.train import _ce_batch, _logistic_batch

import reference_numerics as ref

LOG2 = math.log(2.0)

# Some parametrized ids name the per-loss functions that surrogate_loss
# replaced (loss_rs_batch, loss_rs_alpha, ...), so each case keeps its id.


def one_row(method, scores, y, human_correct, alpha=None):
    """The value and score gradient at one sample, passed as a one-row batch."""
    vals, grads = surrogate_loss(method, [scores], [y], [human_correct], alpha)
    return float(vals[0]), grads[0]


def value(method, scores, y, human_correct, alpha=None):
    return one_row(method, scores, y, human_correct, alpha)[0]


class TestClosedForms:
    def test_rs_human_correct(self):
        out = value("rs", [0.0, 0.0, 0.0], 1, True, 1.0)
        assert out == pytest.approx(-2 * math.log2(2 / 3), abs=1e-5)
        assert out == pytest.approx(1.16993, abs=1e-5)

    def test_rs_human_wrong(self):
        out = value("rs", [0.0, 0.0, 0.0], 1, False, 1.0)
        assert out == pytest.approx(-2 * math.log2(1 / 3), abs=1e-5)
        assert out == pytest.approx(3.16993, abs=1e-5)

    def test_rs_confident_correct_class(self):
        assert value("rs", [0.0, 20.0, 0.0], 1, False, 1.0) < 1e-4

    def test_rs_alpha_identities(self):
        g = np.array([0.3, -0.2, 0.5])
        # alpha=1 is the realizable surrogate alone
        a1 = one_row("rs", g, 0, True, 1.0)
        pure = ref.rs(g[None, :], np.array([0]), np.array([True]))
        assert a1[0] == pytest.approx(pure[0][0])
        np.testing.assert_allclose(a1[1], pure[1][0])
        # alpha=0 is plain class cross-entropy over Y only, base 2
        p = math.exp(0.3) / (math.exp(0.3) + math.exp(-0.2))
        assert value("rs", g, 0, True, 0.0) == pytest.approx(-math.log2(p))

    def test_rs_alpha_midpoint(self):
        out = value("rs", [0.0, 0.0, 0.0], 1, True, 0.5)
        assert out == pytest.approx(0.5 * 1.16993 + 0.5 * 1.0, abs=1e-5)

    def test_rs_alpha_range_check(self):
        with pytest.raises(ValueError):
            value("rs", [0.0, 0.0, 0.0], 1, True, 1.5)

    def test_rs2_closed_form(self):
        out = value("rs2", [0.0, 0.0, 0.0], 0, True)
        assert out == pytest.approx(-math.log(0.75), abs=1e-5)
        assert out == pytest.approx(0.28768, abs=1e-5)

    def test_rs2_limits(self):
        # g_bot -> -inf reduces to class cross-entropy
        out = value("rs2", [0.4, -0.1, -40.0], 0, False)
        p = math.exp(0.4) / (math.exp(0.4) + math.exp(-0.1))
        assert out == pytest.approx(-math.log(p), abs=1e-6)
        # g_bot -> +inf with correct human drives the loss to zero
        assert value("rs2", [0.4, -0.1, 40.0], 0, True) == pytest.approx(0.0, abs=1e-6)

    def test_ce_human_wrong_reduces(self):
        g = np.array([0.2, -0.3, 0.7])
        out = value("ce", g, 0, False, 0.3)
        e = np.exp(g - g.max())
        q0 = e[0] / e.sum()
        assert out == pytest.approx(-math.log(q0))

    def test_ce_alpha_zero(self):
        out = value("ce", [0.0, 0.0, 0.0], 0, True, 0.0)
        assert out == pytest.approx(-math.log(1 / 3), abs=1e-5)
        assert out == pytest.approx(1.09861, abs=1e-5)

    def test_ce_alpha_one(self):
        out = value("ce", [0.0, 0.0, 0.0], 0, True, 1.0)
        assert out == pytest.approx(-2 * math.log(1 / 3), abs=1e-5)
        assert out == pytest.approx(2.19722, abs=1e-5)

    def test_ova_zero_scores(self):
        wrong = value("ova", [0.0, 0.0, 0.0], 0, False)
        assert wrong == pytest.approx(3 * LOG2, abs=1e-5)
        right = value("ova", [0.0, 0.0, 0.0], 0, True)
        assert right == pytest.approx(3 * LOG2, abs=1e-5)

    def test_ova_limit(self):
        assert value("ova", [40.0, -40.0, -40.0], 0, False) == pytest.approx(0.0, abs=1e-6)

    def test_moe_closed_form(self):
        out = value("moe", [0.0, 0.0, 0.0], 0, True)
        assert out == pytest.approx(0.5 * LOG2, abs=1e-5)
        assert out == pytest.approx(0.34657, abs=1e-5)

    def test_moe_limits(self):
        # gate closed: class cross-entropy
        out = value("moe", [0.3, -0.3, -40.0], 0, False)
        p = math.exp(0.3) / (math.exp(0.3) + math.exp(-0.3))
        assert out == pytest.approx(-math.log(p), abs=1e-6)
        # gate open with correct human: zero
        assert value("moe", [0.3, -0.3, 40.0], 0, True) == pytest.approx(0.0, abs=1e-6)


ALL_BATCH = [
    ("rs", lambda g, y, hc: surrogate_loss("rs", g, y, hc, 1.0)),
    ("rs_alpha", lambda g, y, hc: surrogate_loss("rs", g, y, hc, 0.35)),
    ("rs2", lambda g, y, hc: surrogate_loss("rs2", g, y, hc)),
    ("ce_alpha", lambda g, y, hc: surrogate_loss("ce", g, y, hc, 0.6)),
    ("ova", lambda g, y, hc: surrogate_loss("ova", g, y, hc)),
    ("moe", lambda g, y, hc: surrogate_loss("moe", g, y, hc)),
]


def central_diff(fn, g, step=1e-5):
    out = np.zeros_like(g)
    for j in range(g.size):
        up = g.copy()
        dn = g.copy()
        up[j] += step
        dn[j] -= step
        out[j] = (fn(up) - fn(dn)) / (2 * step)
    return out


@pytest.mark.parametrize("name,batch_fn", ALL_BATCH)
def test_gradients_match_finite_differences(name, batch_fn):
    rng = np.random.default_rng(42)
    for _ in range(200):
        c = int(rng.integers(2, 6))
        g = rng.normal(scale=3.0, size=c + 1)
        y = int(rng.integers(0, c))
        hc = bool(rng.integers(0, 2))
        _, grads = batch_fn(g[None, :], [y], [hc])

        def value(gv):
            v, _ = batch_fn(gv[None, :], [y], [hc])
            return float(v[0])

        fd = central_diff(value, g)
        np.testing.assert_allclose(grads[0], fd, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("name,batch_fn", ALL_BATCH)
def test_nonnegative_and_finite(name, batch_fn):
    rng = np.random.default_rng(9)
    g = rng.normal(scale=5.0, size=(500, 4))
    y = rng.integers(0, 3, 500)
    hc = rng.integers(0, 2, 500).astype(bool)
    vals, grads = batch_fn(g, y, hc)
    assert np.all(vals >= -1e-12)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(grads))


def induced_01_loss(g, y, hc):
    """Pointwise system loss of the decisions induced by a score vector."""
    c = g.shape[0] - 1
    label = int(np.argmax(g[:c]))
    defer = g[c] >= np.max(g[:c])
    if defer:
        return 0.0 if hc else 1.0
    return 0.0 if label == y else 1.0


class TestUpperBound:
    def test_rs_upper_bounds_01(self):
        rng = np.random.default_rng(1234)
        n = 20000
        for _ in range(5):
            c = int(rng.integers(2, 5))
            g = rng.normal(scale=4.0, size=(n, c + 1))
            y = rng.integers(0, c, n)
            hc = rng.integers(0, 2, n).astype(bool)
            vals, _ = surrogate_loss("rs", g, y, hc, 1.0)
            zero_one = np.array([induced_01_loss(g[i], y[i], hc[i]) for i in range(n)])
            assert np.all(zero_one <= vals + 1e-12)


class TestCoordinateConvexity:
    """Per-coordinate convexity of the realizable surrogate.

    The loss is convex along every coordinate when the human is wrong, and
    along coordinates other than the true class and the deferral score when
    the human is right. Along the g_y (or g_bot) coordinate with a correct
    human it is provably non-convex; that counterexample is pinned below.
    """

    def test_rs_midpoint_inequality_where_it_holds(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(600):
            c = int(rng.integers(2, 5))
            g = rng.normal(scale=2.0, size=c + 1)
            y = int(rng.integers(0, c))
            hc = bool(rng.integers(0, 2))
            j = int(rng.integers(0, c + 1))
            if hc and j in (y, c):
                continue
            checked += 1
            a, b = sorted(rng.normal(scale=3.0, size=2))
            ga, gb, gm = g.copy(), g.copy(), g.copy()
            ga[j], gb[j], gm[j] = a, b, 0.5 * (a + b)
            va = value("rs", ga, y, hc, 1.0)
            vb = value("rs", gb, y, hc, 1.0)
            vm = value("rs", gm, y, hc, 1.0)
            assert vm <= 0.5 * (va + vb) + 1e-9
        assert checked > 300

    def test_rs_known_nonconvex_segment(self):
        # human correct, another class dominates: midpoint lies above the chord
        va = value("rs", [-1.0, 5.0, 0.0], 0, True, 1.0)
        vb = value("rs", [1.0, 5.0, 0.0], 0, True, 1.0)
        vm = value("rs", [0.0, 5.0, 0.0], 0, True, 1.0)
        assert vm > 0.5 * (va + vb) + 0.1


class TestTheorem3Construction:
    """Four-region distribution where the cross-entropy surrogate prefers a
    solution with strictly positive system error over a zero-error one."""

    @staticmethod
    def region_scores(c, assignment):
        # scores of the four regions under indices (i0, i1, i2, i_bot)
        i0, i1, i2, ib = assignment
        out = np.zeros((4, 4))
        for region in range(4):
            out[region, 0] = c if i0 == region else 0.0
            out[region, 1] = c if i1 == region else 0.0
            out[region, 2] = c if i2 == region else 0.0
            out[region, 3] = c if ib == region else 0.0
        return out

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_ce_prefers_deviating_solution(self, c):
        masses = np.array([1 / 4 + 0.125, 1 / 4, 1 / 4 - 0.125, 1 / 4])
        labels = np.array([0, 1, 0, 2])
        human_correct = np.array([True, False, False, False])
        star = self.region_scores(c, (2, 1, 3, 0))  # zero system error
        hat = self.region_scores(c, (0, 1, 3, 0))  # deviates on class-0 score
        v_star, _ = surrogate_loss("ce", star, labels, human_correct, 1.0)
        v_hat, _ = surrogate_loss("ce", hat, labels, human_correct, 1.0)
        assert float(masses @ v_hat) < float(masses @ v_star)
        # and the deviating solution has strictly higher 0-1 system loss
        err_star = sum(
            masses[r] * induced_01_loss(star[r], labels[r], human_correct[r]) for r in range(4)
        )
        err_hat = sum(
            masses[r] * induced_01_loss(hat[r], labels[r], human_correct[r]) for r in range(4)
        )
        assert err_star == 0.0
        assert err_hat > 0.0


def _random_batch(rng, n, c, scale=3.0):
    return (rng.normal(size=(n, c + 1)) * scale, rng.integers(0, c, n),
            rng.random(n) < 0.5)


class TestValidation:
    def test_rejects_nonfinite_scores(self):
        with pytest.raises(ValueError):
            value("rs", [np.inf, 0.0, 0.0], 0, True, 1.0)

    def test_rejects_bad_class(self):
        with pytest.raises(ValueError):
            value("rs", [0.0, 0.0, 0.0], 2, True, 1.0)

    # id -> (method, alpha)
    PUBLIC = {"loss_rs_batch": ("rs", 1.0), "loss_rs2_batch": ("rs2", None),
              "loss_ova_batch": ("ova", None), "loss_moe_batch": ("moe", None),
              "<lambda>0": ("rs", 0.5), "<lambda>1": ("ce", 0.5)}

    @pytest.mark.parametrize("method,alpha", list(PUBLIC.values()), ids=list(PUBLIC))
    @pytest.mark.parametrize("bad", ["nan", "inf", "vector", "one_column", "two_columns",
                                     "short_y", "short_hc", "negative_y", "y_is_C"])
    def test_public_batch_functions_reject(self, method, alpha, bad):
        g, y, hc = _random_batch(np.random.default_rng(1), 6, 3)
        if bad in ("nan", "inf"):
            g[2, 1] = np.nan if bad == "nan" else -np.inf
        elif bad == "vector":
            g = g[0]
        elif bad == "one_column":
            g = g[:, :1]
        elif bad == "two_columns":
            g = g[:, :2]
        elif bad == "short_y":
            y = y[:-1]
        elif bad == "short_hc":
            hc = hc[:-1]
        elif bad == "negative_y":
            y[3] = -1
        else:
            y[3] = 3
        with pytest.raises(ValueError):
            surrogate_loss(method, g, y, hc, alpha)

    @pytest.mark.parametrize("method", ["rs", "ce"],
                             ids=["loss_rs_alpha_batch", "loss_ce_alpha_batch"])
    @pytest.mark.parametrize("alpha", [-0.1, 1.1, np.nan, [0.5, 1.5, 0.5], [[0.5] * 3]])
    def test_public_alpha_functions_reject(self, method, alpha):
        g, y, hc = _random_batch(np.random.default_rng(2), 3, 2)
        with pytest.raises(ValueError, match="alpha"):
            surrogate_loss(method, g, y, hc, np.asarray(alpha))

    @pytest.mark.parametrize("method,alpha", [
        ("rs", 1.0), ("rs2", None), ("ova", None), ("moe", None), ("rs", 0.5), ("ce", 0.5),
    ], ids=["loss_rs-args0", "loss_rs2-args1", "loss_ova-args2", "loss_moe-args3",
            "loss_rs_alpha-args4", "loss_ce_alpha-args5"])
    def test_public_scalar_functions_reject(self, method, alpha):
        # a single sample is a one-row batch; a bare score vector is no batch
        for scores, y in (([0.0, np.nan, 0.0], 0), ([[0.0, 0.0, 0.0]], 0),
                          ([0.0, 0.0], 0), ([0.0, 0.0, 0.0], 2), ([0.0, 0.0, 0.0], -1)):
            with pytest.raises(ValueError):
                one_row(method, scores, y, True, alpha)
        with pytest.raises(ValueError, match=r"\(n, C\+1\)"):
            surrogate_loss(method, [0.0, 0.0, 0.0], [0], [True], alpha)
        if alpha is not None:
            with pytest.raises(ValueError, match="alpha"):
                one_row(method, [0.0, 0.0, 0.0], 0, True, 1.5)


# (name, method) of the alpha losses; the ids name their old functions
ALPHA_LOSSES = [pytest.param("rs_alpha", "rs", id="rs_alpha-loss_rs_alpha_batch"),
                pytest.param("ce_alpha", "ce", id="ce_alpha-loss_ce_alpha_batch")]


class TestPerRowAlpha:
    """The alpha losses take one alpha per row, as a stacked alpha grid does."""

    def _batch(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 4)) * 3, rng.integers(0, 3, n), rng.random(n) < 0.5

    @pytest.mark.parametrize("name,method", ALPHA_LOSSES)
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_scalar_equals_constant_array(self, name, method, alpha):
        g, y, hc = self._batch()
        v_s, g_s = surrogate_loss(method, g, y, hc, alpha)
        v_a, g_a = surrogate_loss(method, g, y, hc, np.full(len(y), alpha))
        np.testing.assert_array_equal(v_s, v_a)
        np.testing.assert_array_equal(g_s, g_a)

    @pytest.mark.parametrize("name,method", ALPHA_LOSSES)
    def test_each_row_uses_its_own_alpha(self, name, method):
        g, y, hc = self._batch(n=9, seed=1)
        alphas = np.repeat([0.0, 0.4, 1.0], 3)
        vals, grads = surrogate_loss(method, g, y, hc, alphas)
        for a in (0.0, 0.4, 1.0):
            rows = alphas == a
            v_s, g_s = surrogate_loss(method, g[rows], y[rows], hc[rows], a)
            np.testing.assert_array_equal(vals[rows], v_s)
            np.testing.assert_array_equal(grads[rows], g_s)

    @pytest.mark.parametrize("name,method", ALPHA_LOSSES)
    @pytest.mark.parametrize("alpha", [[0.2, 1.5, 0.3, 0.3], [0.2, -0.1, 0.3, 0.3],
                                       [0.2, np.nan, 0.3, 0.3]])
    def test_out_of_range_array_raises(self, name, method, alpha):
        g, y, hc = self._batch(n=4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            surrogate_loss(method, g, y, hc, np.array(alpha))

    @pytest.mark.parametrize("name,method", ALPHA_LOSSES)
    def test_wrong_length_array_raises(self, name, method):
        g, y, hc = self._batch(n=4)
        with pytest.raises(ValueError, match="one entry per row"):
            surrogate_loss(method, g, y, hc, np.full(3, 0.5))


# softplus and the logistic head's loss as they were before both shared one
# branch-free softplus, kept as the reference for bit-for-bit equality


def _oracle_softplus(z):
    return np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(z)))


def _oracle_logistic_batch(logits, targets01):
    z = logits[:, 0]
    t = targets01.astype(float)
    vals = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z))) - t * z
    grads = (ref.sigmoid(z) - t)[:, None]
    return vals, grads


def _softplus_grid():
    edges = [1000.0, 709.8, 710.0, 1e308, 5e-324, 0.0, 36.0, 37.0, 1e-17]
    rng = np.random.default_rng(3)
    return np.concatenate([edges, np.negative(edges), np.linspace(-60.0, 60.0, 24001),
                           rng.normal(scale=30.0, size=20000)])


class TestBranchFreeSoftplus:
    def test_equal_to_the_branching_softplus_without_warnings(self):
        z = _softplus_grid()
        with np.errstate(over="ignore"):
            old = _oracle_softplus(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = _softplus(z)
        assert new.tobytes() == old.tobytes()
        # the branching form does overflow on the grid's large values
        with pytest.warns(RuntimeWarning):
            _oracle_softplus(np.array([1000.0]))

    def test_logistic_batch_equal_without_warnings(self):
        z = _softplus_grid()
        targets = np.random.default_rng(4).integers(0, 2, z.size)
        with np.errstate(over="ignore"):
            old = _oracle_logistic_batch(z[:, None], targets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = _logistic_batch(z[:, None], targets)
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()
        with pytest.warns(RuntimeWarning):
            _oracle_logistic_batch(np.array([[-1000.0]]), np.array([0]))


# a method without an alpha is passed None; rs and ce always get an alpha
_LOSS_CASES = [(alpha, classes, key) for key in sorted(LOSSES) for classes in (2, 3)
               for alpha in (None, 0.0, 0.3, 1.0, "rows")
               if alpha is not None or key not in ("rs", "ce")]


class TestUncheckedBodies:
    """LOSSES holds the unchecked bodies the trainer calls; each equals
    surrogate_loss, the checked door, bit for bit."""

    @pytest.mark.parametrize("alpha,classes,key", _LOSS_CASES)
    def test_losses_entry_equals_public_function(self, key, classes, alpha):
        rng = np.random.default_rng(classes * 7 + len(key))
        for n in (1, 17, 64):
            g, y, hc = _random_batch(rng, n, classes)
            a = rng.random(n) if alpha == "rows" else alpha
            if alpha == "rows":
                a[: n // 3] = rng.choice([0.0, 1.0], n // 3)
            elif alpha is not None:
                a = np.asarray(a)  # the trainer passes its alphas as an array
            got = LOSSES[key](g, y, hc, a)
            # the bodies without an alpha ignore theirs; the door refuses one
            want = surrogate_loss(key, g, y, hc, a if key in ("rs", "ce") else None)
            for u, v in zip(got, want, strict=True):
                assert u.tobytes() == v.tobytes()

class TestSurrogateLoss:
    """The one checked door: keyed by the train_method ids, alpha required
    for rs and ce and refused elsewhere, the body looked up at call time."""

    def test_keys_are_the_surrogate_method_ids(self):
        assert sorted(LOSSES) == ["ce", "moe", "ova", "rs", "rs2"]
        assert surrogates.__all__ == ["surrogate_loss", "LOSSES"]

    @pytest.mark.parametrize("method", ["rs", "ce"])
    def test_alpha_required(self, method):
        g, y, hc = _random_batch(np.random.default_rng(5), 4, 2)
        with pytest.raises(ValueError, match=f"method={method} needs an alpha"):
            surrogate_loss(method, g, y, hc)

    @pytest.mark.parametrize("method", ["rs2", "ova", "moe"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, np.full(4, 0.5)])
    def test_alpha_refused(self, method, alpha):
        g, y, hc = _random_batch(np.random.default_rng(6), 4, 2)
        with pytest.raises(ValueError, match=f"alpha does not apply to method={method}"):
            surrogate_loss(method, g, y, hc, alpha)

    @pytest.mark.parametrize("method", ["rs", "rs2", "ce", "ova", "moe"])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_empty_batch(self, method, classes):
        alpha = 0.5 if method in ("rs", "ce") else None
        vals, grads = surrogate_loss(method, np.zeros((0, classes + 1)), [], [], alpha)
        assert (vals.shape, grads.shape) == ((0,), (0, classes + 1))
        if alpha is None:
            with pytest.raises(ValueError, match=f"alpha does not apply to method={method}"):
                surrogate_loss(method, np.zeros((0, classes + 1)), [], [], 0.5)
        else:
            assert surrogate_loss(method, np.zeros((0, classes + 1)), [], [],
                                  np.zeros(0))[1].shape == (0, classes + 1)
            with pytest.raises(ValueError, match=f"method={method} needs an alpha"):
                surrogate_loss(method, np.zeros((0, classes + 1)), [], [])
            with pytest.raises(ValueError, match="alpha must lie in"):
                surrogate_loss(method, np.zeros((0, classes + 1)), [], [], 1.5)

    @pytest.mark.parametrize("method", ["hinge", "confidence", "rs_alpha", None])
    def test_unknown_method(self, method):
        g, y, hc = _random_batch(np.random.default_rng(7), 4, 2)
        with pytest.raises(ValueError, match="unknown method id"):
            surrogate_loss(method, g, y, hc, 0.5)

    def test_looks_up_losses_at_call_time(self, monkeypatch):
        # a tracer wraps the LOSSES entries in place, and the door must see it
        g, y, hc = _random_batch(np.random.default_rng(8), 5, 3)
        real, seen = LOSSES["ova"], []

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setitem(LOSSES, "ova", spy)
        vals, _ = surrogate_loss("ova", g, y, hc)
        assert len(seen) == 1 and seen[0][3] is None
        assert vals.tobytes() == _ova(g, y, hc)[0].tobytes()


def _parity_batches():
    """60 seeded batches: C 2-5, n 1-64, score scales 0-50, a scalar alpha
    and one alpha per row, a quarter of them exactly 0 or 1."""
    rng = np.random.default_rng(2023)
    for _ in range(60):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 65))
        g = rng.normal(size=(n, c + 1)) * rng.uniform(0.0, 50.0)
        rows = np.where(rng.random(n) < 0.25, rng.integers(0, 2, n), rng.random(n))
        yield g, rng.integers(0, c, n), rng.random(n) < 0.5, float(rng.random()), rows


# sha256 of the values and gradients each per-loss function gave on
# _parity_batches before surrogate_loss replaced them: the batch functions
# over every batch (the alpha ones at the scalar, then the per-row alpha),
# the one-sample functions at each batch's first row and scalar alpha.
# Pure rs is rs at alpha 1 now, equal under == but not in the sign of a zero
# value, so TestParity checks it against reference_numerics instead.
_OLD_DIGESTS = {
    "loss_rs_alpha_batch": ("rs", "rows",
                            "396abea2fa9ec2952fa0b4a3a72ed12365746295061ccc2ef18d7d5c670f97f7"),
    "loss_rs2_batch": ("rs2", "rows",
                       "20d3db472a2e0740ee814447691bbd64fb329775b19a32b8f140596464a4a73e"),
    "loss_ce_alpha_batch": ("ce", "rows",
                            "4cc6a8c4c11e94e885f182b44663a3b96a4fca88c173bd863ba384fbd278892c"),
    "loss_ova_batch": ("ova", "rows",
                       "7ee8f2a8f0f9f20abd0f28fd1a6fe0453aff06c801eca81352c260636a92cb1b"),
    "loss_moe_batch": ("moe", "rows",
                       "836557d70f9287680df5c78227b54b6e5da781ebb8b43eecea5b9a36f0b91690"),
    "loss_rs_alpha": ("rs", "one",
                      "97285607201eefb1534101eba255b42dadeaff1cbc10b59f15bf6c15ec08b9f8"),
    "loss_rs2": ("rs2", "one", "6ab4d2ff741523b51ddf31d5a55ef16d54809891ae34dd1bb6fe95c5aa4e367d"),
    "loss_ce_alpha": ("ce", "one",
                      "9d90c7ca4d8e69cbc0bb12eadc700b790edbd48a6be0b3749c951528fedcc8a7"),
    "loss_ova": ("ova", "one", "049e54621a0390edc3050c8c742accee70cfeeeba97f51f80658dd7d44a4e871"),
    "loss_moe": ("moe", "one", "d5cce18d228d8dfd1a3febace83fd1aabbcc471daecda7ed14f86bdbc5092aeb"),
}


class TestParity:
    """surrogate_loss gives what the per-loss functions it replaced gave."""

    @pytest.mark.parametrize("old", sorted(_OLD_DIGESTS))
    def test_equals_the_old_function(self, old):
        method, shape, digest = _OLD_DIGESTS[old]
        has_alpha = method in ("rs", "ce")
        h = hashlib.sha256()
        for g, y, hc, a, rows in _parity_batches():
            if shape == "one":
                g, y, hc, alphas = g[:1], y[:1], hc[:1], [a]
            else:
                alphas = [a, rows]
            for alpha in alphas if has_alpha else [None]:
                for arr in surrogate_loss(method, g, y, hc, alpha):
                    h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_pure_rs_is_rs_at_alpha_one(self):
        for g, y, hc, _, _ in _parity_batches():
            for got, want in zip(surrogate_loss("rs", g, y, hc, 1.0), ref.rs(g, y, hc),
                                 strict=True):
                np.testing.assert_array_equal(got, want)


# 0.0, -0.0, the smallest and the overflowing magnitudes of exp, and NaN
EDGES = [0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 745.0, -745.0, 800.0, -800.0, np.nan]


def _edge_rows(columns):
    """Every combination of EDGES as rows of a score matrix with
    ``columns`` columns, then 500 rows of ordinary scores."""
    grid = np.meshgrid(*[np.array(EDGES)] * columns, indexing="ij")
    ordinary = np.random.default_rng(columns).normal(scale=10.0, size=(500, columns))
    return np.concatenate([np.stack([a.ravel() for a in grid], axis=1), ordinary])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEdgeValues:
    """The rewritten helpers and loss bodies equal their straightforward
    forms bit for bit at edge values, NaN included."""

    def test_sigmoid_and_softplus(self):
        z = _edge_rows(1)[:, 0]
        ez = np.exp(-np.abs(z))
        assert ref.same_bits(_sigmoid(z), ref.sigmoid(z))
        assert ref.same_bits(_sigmoid(z, ez), ref.sigmoid(z))
        assert ref.same_bits(_sigmoid(-z, ez), ref.sigmoid(-z))
        assert ref.same_bits(_softplus(z), ref.softplus(z))
        assert ref.same_bits(_softplus(z, ez), ref.softplus(z))
        assert ref.same_bits(_softplus(-z, ez), ref.softplus(-z))
        assert _sigmoid(np.array([-0.0])).tobytes() == np.array([0.5]).tobytes()

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_softmax_and_log_softmax(self, columns):
        g = _edge_rows(columns)
        p, logp = _softmax_log_softmax(g)
        assert ref.same_bits(p, ref.softmax(g)) and ref.same_bits(_softmax(g), ref.softmax(g))
        assert ref.same_bits(logp, ref.log_softmax(g))
        assert ref.same_bits(_log_softmax(g), ref.log_softmax(g))

    @pytest.mark.parametrize("body,reference", [
        (_rs, ref.rs), (_ova, ref.ova), (_moe, ref.moe), (_rs2, ref.rs2),
        pytest.param(lambda g, y, hc: _ce_alpha(g, y, hc, np.asarray(0.3)),
                     lambda g, y, hc: ref.ce_alpha(g, y, hc, np.asarray(0.3)),
                     id="_ce_alpha-ce_alpha"),
        (lambda g, y, hc: _rs_alpha(g, y, hc, np.full(len(y), 0.25)),
         lambda g, y, hc: ref.rs_alpha(g, y, hc, np.full(len(y), 0.25))),
    ])
    @pytest.mark.parametrize("columns", [3, 4])
    def test_loss_bodies(self, body, reference, columns):
        g = _edge_rows(columns)
        n = len(g)
        for y in (np.zeros(n, dtype=np.int64), np.full(n, columns - 2, dtype=np.int64)):
            for hc in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
                for u, v in zip(body(g, y, hc), reference(g, y, hc), strict=True):
                    assert ref.same_bits(u, v)

    def test_trainer_heads(self):
        z = _edge_rows(1)[:, 0]
        for t in (np.zeros(z.size, dtype=bool), np.ones(z.size, dtype=bool)):
            for u, v in zip(_logistic_batch(z[:, None], t), ref.logistic_batch(z[:, None], t)):
                assert ref.same_bits(u, v)
        g = _edge_rows(3)
        y = np.arange(len(g)) % 3
        for u, v in zip(_ce_batch(g, y), ref.ce_batch(g, y), strict=True):
            assert ref.same_bits(u, v)


# values whose maxima tie (0.0 with -0.0 included), the infinities, and
# ordinary scores: each drawn row has ties at some width
TIE_VALUES = np.array([0.0, -0.0, 1.5, -1.5, 40.0, -40.0, np.inf, -np.inf])


def _tie_rows(rng, shape):
    return rng.choice(TIE_VALUES, size=shape)


class TestClassAxisReductions:
    """The column-loop max and argmax equal numpy's reductions bit for bit.
    A NaN follows numpy's rule: the max is NaN and the argmax the first NaN
    (their bytes go through same_bits, which takes any NaN for any NaN)."""

    @pytest.mark.parametrize("width", range(1, 12))
    def test_equal_to_numpy(self, width):
        rng = np.random.default_rng(width)
        for shape in ((200, width), (3, 70, width)):
            for a in (_tie_rows(rng, shape), rng.normal(size=shape),
                      np.round(rng.normal(size=shape))):
                # contiguous, and the strided class slice of a wider array
                wide = np.concatenate([a, rng.normal(size=shape[:-1] + (1,))], axis=-1)
                for v in (a, wide[..., :width]):
                    assert _class_max(v).tobytes() == v.max(axis=-1).tobytes()
                    got = _class_argmax(v)
                    assert got.dtype == v.argmax(axis=-1).dtype
                    assert got.tobytes() == v.argmax(axis=-1).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 3, 9, 11])
    def test_nan_rule(self, width):
        rng = np.random.default_rng(20 + width)
        a = _tie_rows(rng, (300, width))
        a[rng.random(a.shape) < 0.2] = np.nan
        assert ref.same_bits(_class_max(a), a.max(axis=-1))
        assert _class_argmax(a).tobytes() == a.argmax(axis=-1).tobytes()

    def test_first_of_ties_wins(self):
        a = np.array([[1.0, 3.0, 3.0], [-0.0, 0.0, -1.0], [-np.inf, -np.inf, -np.inf],
                      [np.inf, 2.0, np.inf], [np.nan, 1.0, np.nan], [0.0, np.nan, np.nan]])
        assert _class_argmax(a).tolist() == [1, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("width", [2, 8, 9, 10])
    def test_zero_max_signs(self, width):
        # every pattern of +0 and -0: from 9 columns numpy's reduction picks
        # the sign of a zero max by its own order, so such arrays go to numpy
        signs = (np.arange(2**width)[:, None] >> np.arange(width)) & 1
        a = np.where(signs == 1, -0.0, 0.0)
        assert _class_max(a).tobytes() == a.max(axis=-1).tobytes()
        assert _class_argmax(a).tobytes() == a.argmax(axis=-1).tobytes()

    @pytest.mark.parametrize("columns", [3, 9, 11])
    def test_loss_bodies_on_tied_wide_scores(self, columns):
        rng = np.random.default_rng(columns)
        g = np.where(rng.random((400, columns)) < 0.5, _tie_rows(rng, (400, columns)),
                     rng.normal(scale=5.0, size=(400, columns)))
        g[~np.isfinite(g)] = 700.0
        y = rng.integers(0, columns - 1, 400)
        hc = rng.random(400) < 0.5
        a = rng.random(400)
        pairs = [(_rs(g, y, hc), ref.rs(g, y, hc)),
                 (_rs_alpha(g, y, hc, a), ref.rs_alpha(g, y, hc, a)),
                 (_ce_alpha(g, y, hc, a), ref.ce_alpha(g, y, hc, a)),
                 (_rs2(g, y, hc), ref.rs2(g, y, hc)), (_moe(g, y, hc), ref.moe(g, y, hc)),
                 (_ce_batch(g, y), ref.ce_batch(g, y)),
                 (_softmax_log_softmax(g), (ref.softmax(g), ref.log_softmax(g)))]
        for got, want in pairs:
            for u, v in zip(got, want, strict=True):
                assert u.tobytes() == v.tobytes()
