import math
import warnings

import numpy as np
import pytest

from deferlab.surrogates import (
    loss_ce_alpha,
    loss_ce_alpha_batch,
    loss_moe,
    loss_moe_batch,
    loss_ova,
    loss_ova_batch,
    loss_rs,
    loss_rs2,
    loss_rs2_batch,
    loss_rs_alpha,
    loss_rs_alpha_batch,
    loss_rs_batch,
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
)
from deferlab.train import _ce_batch, _logistic_batch

import reference_numerics as ref

LOG2 = math.log(2.0)


class TestClosedForms:
    def test_rs_human_correct(self):
        out = loss_rs([0.0, 0.0, 0.0], 1, True)
        assert out.value == pytest.approx(-2 * math.log2(2 / 3), abs=1e-5)
        assert out.value == pytest.approx(1.16993, abs=1e-5)

    def test_rs_human_wrong(self):
        out = loss_rs([0.0, 0.0, 0.0], 1, False)
        assert out.value == pytest.approx(-2 * math.log2(1 / 3), abs=1e-5)
        assert out.value == pytest.approx(3.16993, abs=1e-5)

    def test_rs_confident_correct_class(self):
        out = loss_rs([0.0, 20.0, 0.0], 1, False)
        assert out.value < 1e-4

    def test_rs_alpha_identities(self):
        g = np.array([0.3, -0.2, 0.5])
        a1 = loss_rs_alpha(g, 0, True, 1.0)
        assert a1.value == pytest.approx(loss_rs(g, 0, True).value)
        np.testing.assert_allclose(a1.grad, loss_rs(g, 0, True).grad)
        a0 = loss_rs_alpha(g, 0, True, 0.0)
        # alpha=0 is plain class cross-entropy over Y only, base 2
        p = math.exp(0.3) / (math.exp(0.3) + math.exp(-0.2))
        assert a0.value == pytest.approx(-math.log2(p))

    def test_rs_alpha_midpoint(self):
        out = loss_rs_alpha([0.0, 0.0, 0.0], 1, True, 0.5)
        assert out.value == pytest.approx(0.5 * 1.16993 + 0.5 * 1.0, abs=1e-5)

    def test_rs_alpha_range_check(self):
        with pytest.raises(ValueError):
            loss_rs_alpha([0.0, 0.0, 0.0], 1, True, 1.5)

    def test_rs2_closed_form(self):
        out = loss_rs2([0.0, 0.0, 0.0], 0, True)
        assert out.value == pytest.approx(-math.log(0.75), abs=1e-5)
        assert out.value == pytest.approx(0.28768, abs=1e-5)

    def test_rs2_limits(self):
        # g_bot -> -inf reduces to class cross-entropy
        out = loss_rs2([0.4, -0.1, -40.0], 0, False)
        p = math.exp(0.4) / (math.exp(0.4) + math.exp(-0.1))
        assert out.value == pytest.approx(-math.log(p), abs=1e-6)
        # g_bot -> +inf with correct human drives the loss to zero
        assert loss_rs2([0.4, -0.1, 40.0], 0, True).value == pytest.approx(0.0, abs=1e-6)

    def test_ce_human_wrong_reduces(self):
        g = np.array([0.2, -0.3, 0.7])
        out = loss_ce_alpha(g, 0, False, 0.3)
        e = np.exp(g - g.max())
        q0 = e[0] / e.sum()
        assert out.value == pytest.approx(-math.log(q0))

    def test_ce_alpha_zero(self):
        out = loss_ce_alpha([0.0, 0.0, 0.0], 0, True, 0.0)
        assert out.value == pytest.approx(-math.log(1 / 3), abs=1e-5)
        assert out.value == pytest.approx(1.09861, abs=1e-5)

    def test_ce_alpha_one(self):
        out = loss_ce_alpha([0.0, 0.0, 0.0], 0, True, 1.0)
        assert out.value == pytest.approx(-2 * math.log(1 / 3), abs=1e-5)
        assert out.value == pytest.approx(2.19722, abs=1e-5)

    def test_ova_zero_scores(self):
        wrong = loss_ova([0.0, 0.0, 0.0], 0, False)
        assert wrong.value == pytest.approx(3 * LOG2, abs=1e-5)
        right = loss_ova([0.0, 0.0, 0.0], 0, True)
        assert right.value == pytest.approx(3 * LOG2, abs=1e-5)

    def test_ova_limit(self):
        out = loss_ova([40.0, -40.0, -40.0], 0, False)
        assert out.value == pytest.approx(0.0, abs=1e-6)

    def test_moe_closed_form(self):
        out = loss_moe([0.0, 0.0, 0.0], 0, True)
        assert out.value == pytest.approx(0.5 * LOG2, abs=1e-5)
        assert out.value == pytest.approx(0.34657, abs=1e-5)

    def test_moe_limits(self):
        # gate closed: class cross-entropy
        out = loss_moe([0.3, -0.3, -40.0], 0, False)
        p = math.exp(0.3) / (math.exp(0.3) + math.exp(-0.3))
        assert out.value == pytest.approx(-math.log(p), abs=1e-6)
        # gate open with correct human: zero
        assert loss_moe([0.3, -0.3, 40.0], 0, True).value == pytest.approx(0.0, abs=1e-6)


ALL_BATCH = [
    ("rs", lambda g, y, hc: loss_rs_batch(g, y, hc)),
    ("rs_alpha", lambda g, y, hc: loss_rs_alpha_batch(g, y, hc, 0.35)),
    ("rs2", lambda g, y, hc: loss_rs2_batch(g, y, hc)),
    ("ce_alpha", lambda g, y, hc: loss_ce_alpha_batch(g, y, hc, 0.6)),
    ("ova", lambda g, y, hc: loss_ova_batch(g, y, hc)),
    ("moe", lambda g, y, hc: loss_moe_batch(g, y, hc)),
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
            vals, _ = loss_rs_batch(g, y, hc)
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
            va = loss_rs(ga, y, hc).value
            vb = loss_rs(gb, y, hc).value
            vm = loss_rs(gm, y, hc).value
            assert vm <= 0.5 * (va + vb) + 1e-9
        assert checked > 300

    def test_rs_known_nonconvex_segment(self):
        # human correct, another class dominates: midpoint lies above the chord
        va = loss_rs(np.array([-1.0, 5.0, 0.0]), 0, True).value
        vb = loss_rs(np.array([1.0, 5.0, 0.0]), 0, True).value
        vm = loss_rs(np.array([0.0, 5.0, 0.0]), 0, True).value
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
        v_star, _ = loss_ce_alpha_batch(star, labels, human_correct, 1.0)
        v_hat, _ = loss_ce_alpha_batch(hat, labels, human_correct, 1.0)
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
            loss_rs([np.inf, 0.0, 0.0], 0, True)

    def test_rejects_bad_class(self):
        with pytest.raises(ValueError):
            loss_rs([0.0, 0.0, 0.0], 2, True)

    PUBLIC = [loss_rs_batch, loss_rs2_batch, loss_ova_batch, loss_moe_batch,
              lambda g, y, hc: loss_rs_alpha_batch(g, y, hc, 0.5),
              lambda g, y, hc: loss_ce_alpha_batch(g, y, hc, 0.5)]

    @pytest.mark.parametrize("fn", PUBLIC)
    @pytest.mark.parametrize("bad", ["nan", "inf", "vector", "one_column", "two_columns",
                                     "short_y", "short_hc", "negative_y", "y_is_C"])
    def test_public_batch_functions_reject(self, fn, bad):
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
            fn(g, y, hc)

    @pytest.mark.parametrize("fn", [loss_rs_alpha_batch, loss_ce_alpha_batch])
    @pytest.mark.parametrize("alpha", [-0.1, 1.1, np.nan, [0.5, 1.5, 0.5], [[0.5] * 3]])
    def test_public_alpha_functions_reject(self, fn, alpha):
        g, y, hc = _random_batch(np.random.default_rng(2), 3, 2)
        with pytest.raises(ValueError, match="alpha"):
            fn(g, y, hc, np.asarray(alpha))

    @pytest.mark.parametrize("fn,args", [
        (loss_rs, ()), (loss_rs2, ()), (loss_ova, ()), (loss_moe, ()),
        (loss_rs_alpha, (0.5,)), (loss_ce_alpha, (0.5,)),
    ])
    def test_public_scalar_functions_reject(self, fn, args):
        for scores, y in (([0.0, np.nan, 0.0], 0), ([[0.0, 0.0, 0.0]], 0),
                          ([0.0, 0.0], 0), ([0.0, 0.0, 0.0], 2), ([0.0, 0.0, 0.0], -1)):
            with pytest.raises(ValueError):
                fn(scores, y, True, *args)
        if args:
            with pytest.raises(ValueError, match="alpha"):
                fn([0.0, 0.0, 0.0], 0, True, 1.5)


ALPHA_LOSSES = [("rs_alpha", loss_rs_alpha_batch), ("ce_alpha", loss_ce_alpha_batch)]


class TestPerRowAlpha:
    """The alpha losses take one alpha per row, as a stacked alpha grid does."""

    def _batch(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 4)) * 3, rng.integers(0, 3, n), rng.random(n) < 0.5

    @pytest.mark.parametrize("name,batch_fn", ALPHA_LOSSES)
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_scalar_equals_constant_array(self, name, batch_fn, alpha):
        g, y, hc = self._batch()
        v_s, g_s = batch_fn(g, y, hc, alpha)
        v_a, g_a = batch_fn(g, y, hc, np.full(len(y), alpha))
        np.testing.assert_array_equal(v_s, v_a)
        np.testing.assert_array_equal(g_s, g_a)

    @pytest.mark.parametrize("name,batch_fn", ALPHA_LOSSES)
    def test_each_row_uses_its_own_alpha(self, name, batch_fn):
        g, y, hc = self._batch(n=9, seed=1)
        alphas = np.repeat([0.0, 0.4, 1.0], 3)
        vals, grads = batch_fn(g, y, hc, alphas)
        for a in (0.0, 0.4, 1.0):
            rows = alphas == a
            v_s, g_s = batch_fn(g[rows], y[rows], hc[rows], a)
            np.testing.assert_array_equal(vals[rows], v_s)
            np.testing.assert_array_equal(grads[rows], g_s)

    @pytest.mark.parametrize("name,batch_fn", ALPHA_LOSSES)
    @pytest.mark.parametrize("alpha", [[0.2, 1.5, 0.3, 0.3], [0.2, -0.1, 0.3, 0.3],
                                       [0.2, np.nan, 0.3, 0.3]])
    def test_out_of_range_array_raises(self, name, batch_fn, alpha):
        g, y, hc = self._batch(n=4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            batch_fn(g, y, hc, np.array(alpha))

    @pytest.mark.parametrize("name,batch_fn", ALPHA_LOSSES)
    def test_wrong_length_array_raises(self, name, batch_fn):
        g, y, hc = self._batch(n=4)
        with pytest.raises(ValueError, match="one entry per row"):
            batch_fn(g, y, hc, np.full(3, 0.5))


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


def _public_equivalent(key, alpha):
    """The checked public batch function that LOSSES[key] stands for at
    this alpha."""
    if key == "rs":
        return lambda g, y, hc: loss_rs_alpha_batch(g, y, hc, alpha)
    if key == "ce":
        return lambda g, y, hc: loss_ce_alpha_batch(g, y, hc, alpha)
    return {"rs2": loss_rs2_batch, "ova": loss_ova_batch, "moe": loss_moe_batch}[key]


# a method without an alpha is passed None; rs and ce always get an alpha
_LOSS_CASES = [(alpha, classes, key) for key in sorted(LOSSES) for classes in (2, 3)
               for alpha in (None, 0.0, 0.3, 1.0, "rows")
               if alpha is not None or key not in ("rs", "ce")]


class TestUncheckedBodies:
    """LOSSES holds the unchecked bodies the trainer calls; each equals its
    checked public function bit for bit."""

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
            want = _public_equivalent(key, a)(g, y, hc)
            for u, v in zip(got, want, strict=True):
                assert u.tobytes() == v.tobytes()

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
