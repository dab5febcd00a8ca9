import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab import surrogates
from deferlab.core import DeferDataset
from deferlab.datagen import (GroupedExpertConfig, SyntheticConfig, generate_grouped_expert,
                              generate_synthetic)
from deferlab.surrogates import surrogate_loss
from deferlab.train import (
    METHODS,
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    TrainingDiverged,
    _Adam,
    _fit_surrogates,
    _line_search_threshold,
    _threshold_candidates,
    fit_tau,
    system_accuracy,
    train_method,
)

import reference_numerics as ref


def planted_splits(seed=0, n_train=300, n_val=100, n_test=300, **kw):
    total = n_train + n_val + n_test
    cfg = SyntheticConfig(d=5, n=total, distribution="gaussian_mixture", std_scale=0.3,
                          margin=0.2, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=seed, **kw)
    inst = generate_synthetic(cfg)
    ds = inst.dataset
    return (ds.subset(np.arange(n_train)),
            ds.subset(np.arange(n_train, n_train + n_val)),
            ds.subset(np.arange(total - n_test, total)))


class TestScoreModel:
    def test_linear_forward_shape(self):
        rng = np.random.default_rng(0)
        m = ScoreModel.initialize(4, 3, 0, rng)
        x = rng.normal(size=(7, 4))
        out = m.forward(x)
        assert out.shape == (7, 3)
        # a single feature vector gives one score vector
        np.testing.assert_allclose(m.forward(x[2]), out[2], rtol=1e-12)

    def test_hidden_forward_shape(self):
        rng = np.random.default_rng(0)
        m = ScoreModel.initialize(4, 3, 16, rng)
        x = rng.normal(size=(7, 4))
        out = m.forward(x)
        assert out.shape == (7, 3)
        # a single feature vector gives one score vector
        np.testing.assert_allclose(m.forward(x[2]), out[2], rtol=1e-12)

    def test_deterministic_init(self):
        a = ScoreModel.initialize(4, 3, 0, np.random.default_rng(5))
        b = ScoreModel.initialize(4, 3, 0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.params, b.params)

    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("one_hidden", 8)])
    def test_backward_matches_fd(self, arch, hidden):
        rng = np.random.default_rng(1)
        m = ScoreModel.initialize(3, 4, hidden, rng)
        assert len(m.fans) == {"linear": 1, "one_hidden": 2}[arch]
        x = rng.normal(size=(6, 3))
        dscores = rng.normal(size=(6, 4))
        grad = m._stack_backward(m._unpack(m.params[None]), x, dscores[None])[0]
        fd = np.zeros_like(grad)
        eps = 1e-6
        for j in range(m.params.size):
            up = replace(m, params=m.params.copy()); up.params[j] += eps
            dn = replace(m, params=m.params.copy()); dn.params[j] -= eps
            fd[j] = (np.sum(dscores * up.forward(x)) - np.sum(dscores * dn.forward(x))) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_bad_arch(self):
        # the layers follow the hidden units, which cannot be negative
        with pytest.raises(ValueError, match="hidden_units=-1"):
            ScoreModel.initialize(3, 4, -1, np.random.default_rng(0))
        assert ScoreModel(3, 4).fans == ((3, 4),)
        assert ScoreModel(3, 4, 1).fans == ((3, 1), (1, 4))
        with pytest.raises(ValueError, match="hidden_units=1 has 12 parameters, got 11"):
            ScoreModel(3, 4, 1, np.zeros(11))

    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("one_hidden", 3)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_unpacked_layers_follow_the_stack(self, arch, hidden, rows):
        # _fit unpacks once and lets Adam update the stack in place
        rng = np.random.default_rng(4)
        m = ScoreModel.initialize(3, 4, hidden, rng)
        stack = np.repeat(m.params[None], rows, axis=0)
        layers = m._unpack(stack)
        assert len(layers) == {"linear": 1, "one_hidden": 2}[arch]
        # one (weights, biases) pair per layer, in the stack's order
        assert [(w.shape, b.shape) for w, b in layers] == \
            [((rows, fan_out, fan_in), (rows, 1, fan_out)) for fan_in, fan_out in m.fans]
        flat = np.concatenate([a.reshape(rows, -1) for layer in layers for a in layer], axis=1)
        assert flat.tobytes() == stack.tobytes()
        x = rng.normal(size=(5, 3))
        stack -= rng.normal(size=stack.shape)
        assert all(np.shares_memory(a, stack) for layer in layers for a in layer)
        for r in range(rows):
            want = replace(m, params=stack[r].copy()).forward(x)
            assert m._stack_forward(layers, x)[r].tobytes() == want.tobytes()
            assert want.tobytes() == ref.forward(replace(m, params=stack[r].copy()), x).tobytes()

    def test_passes_keep_their_bits(self):
        # SHA-256 over initialize's draws and the stacked forward and
        # backward passes of 400 seeded shapes: d 1-11, 1-5 outputs, hidden
        # 0/1/3/8, 1-4 stacked rows and 1-39 points. The digest was recorded
        # with the linear and one-hidden-layer passes written out branch by
        # branch, before one layer loop served both.
        h = hashlib.sha256()
        rng = np.random.default_rng(24)
        for i in range(400):
            d, out, rows, n = (int(v) for v in rng.integers((1, 1, 1, 1), (12, 6, 5, 40)))
            hidden = int(rng.choice([0, 1, 3, 8]))
            model = ScoreModel.initialize(d, out, hidden, np.random.default_rng(i))
            stack = model.params + rng.normal(size=(rows, model.params.size))
            x = rng.normal(size=(n, d))
            layers = model._unpack(stack)
            for a in (model.params, model._stack_forward(layers, x),
                      model._stack_backward(layers, x, rng.normal(size=(rows, n, out)))):
                h.update(a.tobytes())
        assert h.hexdigest() == "c29d50dc03bf0cdedc26e832b7922768cc92a80d68211b49a8391d4ba2189b58"


class TestAdamStep:
    def test_one_step_matches_finite_difference_gradient(self):
        # analytic-gradient Adam step equals the step taken with a
        # finite-difference gradient, within 1e-6 per parameter
        rng = np.random.default_rng(2)
        model = ScoreModel.initialize(4, 3, 0, rng)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, 10)
        hc = rng.integers(0, 2, 10).astype(bool)

        def mean_loss(params):
            vals, _ = surrogate_loss("rs", replace(model, params=params).forward(x), y, hc, 1.0)
            return float(np.mean(vals))

        scores = model.forward(x)
        _, grads = surrogate_loss("rs", scores, y, hc, 1.0)
        analytic = model._stack_backward(model._unpack(model.params[None]), x,
                                         (grads / len(x))[None])[0]
        fd = np.zeros_like(analytic)
        eps = 1e-6
        for j in range(model.params.size):
            up = model.params.copy(); up[j] += eps
            dn = model.params.copy(); dn[j] -= eps
            fd[j] = (mean_loss(up) - mean_loss(dn)) / (2 * eps)
        cfg = TrainConfig()
        step_a, step_f = model.params.copy(), model.params.copy()
        _Adam(analytic.size, cfg).step(step_a, analytic)
        _Adam(fd.size, cfg).step(step_f, fd)
        np.testing.assert_allclose(step_a, step_f, atol=1e-6)

    def test_steps_equal_reference(self):
        # the in-place update rounds every value as the plain one does
        rng = np.random.default_rng(3)
        cfg = TrainConfig(learning_rate=0.37)
        params = rng.normal(size=(3, 7))
        new, old = _Adam(params.shape, cfg), ref.Adam(params.shape, cfg)
        p_new, p_old = params, params.copy()
        for scale in (1.0, 1e-12, 1e5, 1e-300, 3.0):
            grad = rng.normal(size=params.shape) * scale
            assert new.step(p_new, grad) is None
            p_old = old.step(p_old, grad)
            assert p_new.tobytes() == p_old.tobytes()
            assert new.m.tobytes() == old.m.tobytes() and new.v.tobytes() == old.v.tobytes()
        assert p_new is params  # step updates the params in place


class TestTrainSurrogate:
    def test_determinism(self):
        train, val, _ = planted_splits()
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=20, seed=3)
        a = train_method("rs", train, val, cfg)
        b = train_method("rs", train, val, cfg)
        np.testing.assert_array_equal(a.model.params, b.model.params)
        assert a.best_epoch == b.best_epoch

    def test_best_epoch_at_least_final(self):
        train, val, _ = planted_splits(seed=4)
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=40, seed=4)
        system = train_method("rs", train, val, cfg)
        defer, labels = system.decide(val.features)
        assert system.best_val_accuracy == pytest.approx(
            system_accuracy(defer, labels, val)
        )

    def test_realizable_reaches_low_error(self):
        train, val, test = planted_splits(seed=1, n_train=500)
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=200, batch_size=64, seed=1)
        system = train_method("rs", train, val, cfg)
        defer, labels = system.decide(test.features)
        assert 1 - system_accuracy(defer, labels, test) <= 0.05

    def test_constant_label_dataset(self):
        x = np.random.default_rng(0).normal(size=(40, 3))
        ds = DeferDataset(x, np.zeros(40, dtype=int), np.ones(40, dtype=int), 2)
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=30, seed=0)
        system = train_method("rs", ds, ds, cfg)
        defer, labels = system.decide(ds.features)
        assert system_accuracy(defer, labels, ds) == 1.0

    def test_scaling_invariance_of_decisions(self):
        train, val, _ = planted_splits(seed=5)
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=15, seed=5)
        system = train_method("rs", train, val, cfg)
        scaled = replace(system.model, params=system.model.params * 7.5)
        scaled_system = TrainedSystem(model=scaled, num_classes=2, tau=0.0, method="rs")
        d1, l1 = system.decide(val.features)
        d2, l2 = scaled_system.decide(val.features)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(l1, l2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        train, val, _ = planted_splits(seed=6)
        cfg = TrainConfig(alpha_grid=(1.0,), epochs=5, learning_rate=1e307, seed=6)
        with pytest.raises(TrainingDiverged):
            train_method("rs", train, val, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("loss,alpha,message", [
        ("rs", 0.5, "non-finite scores at epoch 6"),
        ("ce", 0.5, "non-finite loss array([inf]) at epoch 1"),
    ])
    def test_divergence_message_and_epoch(self, loss, alpha, message):
        train, val, _ = planted_splits(seed=6)
        cfg = TrainConfig(alpha_grid=(alpha,), epochs=8, batch_size=25,
                          learning_rate=3e305, seed=6)
        with pytest.raises(TrainingDiverged) as caught:
            train_method(loss, train, val, cfg)
        assert str(caught.value) == message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("breakage,alphas,message", [
        ("nan_values", [1.0], "non-finite loss array([nan]) at epoch 2"),
        # every value finite, but the row's mean overflows
        ("huge_values", [1.0], "non-finite loss array([inf]) at epoch 2"),
        ("nan_values", [0.0, 0.5, 1.0],
         "non-finite loss array([0.73735033,        nan, 1.56073966]) at epoch 2"),
        ("inf_gradients", [1.0], "non-finite parameters at epoch 2"),
    ])
    def test_each_trigger_raises_at_its_step(self, monkeypatch, breakage, alphas, message):
        train, val, _ = planted_splits(seed=12, n_train=100, n_val=40)
        cfg = TrainConfig(epochs=3, batch_size=25, seed=12, alpha_grid=tuple(alphas))
        real = surrogates.LOSSES["rs"]
        broken = alphas[len(alphas) // 2]  # the only row, or the middle one
        calls = []

        def breaks_on_the_sixth_call(g, y, hc, alpha):
            vals, grads = real(g, y, hc, alpha)
            calls.append(1)
            if len(calls) == 6:  # the second batch of epoch 2
                bad = np.asarray(alpha) == broken
                if breakage == "nan_values":
                    vals = np.where(bad, np.nan, vals)
                elif breakage == "huge_values":
                    vals = np.where(bad, 1e308, vals)
                else:
                    grads = np.where(bad[:, None], np.inf, grads)
            return vals, grads

        monkeypatch.setitem(surrogates.LOSSES, "rs", breaks_on_the_sixth_call)
        with pytest.raises(TrainingDiverged) as caught:
            train_method("rs", train, val, cfg)
        assert str(caught.value) == message
        assert len(calls) == 6

    def test_unknown_loss(self):
        train, val, _ = planted_splits(seed=7)
        with pytest.raises(ValueError, match="unknown method id 'hinge'"):
            train_method("hinge", train, val, TrainConfig())


class TestTrainConfig:
    def test_negative_batch_size_rejected(self):
        # range(0, n, -5) is empty: such a fit would take no step at all
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=-5)
        # 0 is the one way to ask for full batches
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=None)
        assert TrainConfig(batch_size=0).batch_size == 0

    def test_nan_and_infinite_values_rejected(self):
        # a NaN or infinite rate used to train and then raise TrainingDiverged
        nan, inf = float("nan"), float("inf")
        for value in (nan, inf, -inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=value)
        for name in ("epochs", "seed", "hidden_units"):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: nan})
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha_grid=(0.5, nan))

    def test_non_integer_counts_and_seed_rejected(self):
        # each used to pass here and then fail inside training with a TypeError
        for name, value in (("epochs", 2.5), ("epochs", 3.0), ("seed", 1.5), ("seed", "1"),
                            ("hidden_units", 1.5), ("batch_size", 2.5)):
            with pytest.raises(ValueError, match=f"{name}="):
                TrainConfig(**{name: value})
        cfg = TrainConfig(epochs=np.int64(2), seed=np.int64(1), hidden_units=np.int64(1))
        assert cfg.epochs == 2 and cfg.seed == 1 and cfg.hidden_units == 1


class TestClassAxisDecisions:
    @pytest.mark.parametrize("hidden_units", [0, 4])
    def test_ten_class_labels_and_rejection_scores(self, hidden_units):
        # the column-loop max and argmax give numpy's reductions on 10-class
        # grouped data, for joint and two-stage systems alike
        ds = generate_grouped_expert(GroupedExpertConfig(d=4, n=400, C=10, K=3, seed=2, U=3.0))
        train, val = ds.subset(np.arange(300)), ds.subset(np.arange(300, 400))
        cfg = TrainConfig(epochs=3, batch_size=32, hidden_units=hidden_units, seed=5)
        x = val.features
        for method in ("rs", "rs2", "confidence", "selective", "triage"):
            system = train_method(method, train, val, cfg)
            scores = ref.forward(system.model, x)
            labels = system.classifier_labels(x)
            assert labels.dtype == np.int64
            assert labels.tobytes() == np.argmax(scores[:, :10], axis=1).tobytes()
            if system.score_kind == "gap":
                want = scores[:, -1] - scores[:, :10].max(axis=1)
            elif system.score_kind == "defer_head":
                want = scores[:, -1]
            else:
                want = _oracle_rejection_scores(system, x)
            assert system.rejection_scores(x).tobytes() == want.tobytes()


class TestSearchAlpha:
    def test_singleton_grid_matches_plain(self):
        train, val, _ = planted_splits(seed=8)
        cfg = TrainConfig(epochs=15, seed=8, alpha_grid=(0.5,))
        a = train_method("rs", train, val, cfg)
        b = _fit_surrogates(train, val, cfg, "rs", [0.5])[0]
        np.testing.assert_array_equal(a.model.params, b.model.params)

    def test_realizable_prefers_high_alpha(self):
        train, val, _ = planted_splits(seed=2, n_train=500)
        cfg = TrainConfig(epochs=150, batch_size=64, seed=2, alpha_grid=(0.0, 1.0))
        best = train_method("rs", train, val, cfg)
        assert best.alpha == 1.0

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            TrainConfig(alpha_grid=())

    def test_out_of_range_grid(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha_grid=(0.5, 1.5))


def _sequential_search(method, train, val, config):
    """The alpha search as separate runs, one one-alpha train_method call per
    alpha: best validation accuracy, ties to the smaller alpha, and the
    lowest train error over the grid."""
    systems = [train_method(method, train, val, replace(config, alpha_grid=(a,)))
               for a in sorted(config.alpha_grid)]
    best = systems[0]
    for system in systems[1:]:
        if system.best_val_accuracy > best.best_val_accuracy:
            best = system
    return systems, best, min(s.min_train_error for s in systems)


def _assert_same_system(a, b):
    np.testing.assert_array_equal(a.model.params, b.model.params)
    assert a.alpha == b.alpha
    assert a.best_epoch == b.best_epoch
    assert a.best_val_accuracy == b.best_val_accuracy
    assert a.min_train_error == b.min_train_error


class TestStackedGrid:
    """An alpha grid trains as one stacked pass that equals the lone runs bit for bit."""

    GRIDS = {"rs": (0.0, 0.25, 0.5, 0.75, 1.0), "ce": (0.0, 0.1, 0.5, 1.0)}

    @pytest.mark.parametrize("loss", ["rs", "ce"])
    @pytest.mark.parametrize("hidden_units", [0, 4])
    @pytest.mark.parametrize("batch_size", [0, 32])
    def test_grid_equals_sequential_runs(self, loss, hidden_units, batch_size):
        train, val, _ = planted_splits(seed=40 + hidden_units + batch_size, n_train=150, n_val=60)
        cfg = TrainConfig(epochs=6, batch_size=batch_size, seed=17,
                          hidden_units=hidden_units, alpha_grid=self.GRIDS[loss])
        systems, best, lowest = _sequential_search(loss, train, val, cfg)
        for stacked, lone in zip(_fit_surrogates(train, val, cfg, loss, sorted(cfg.alpha_grid)),
                                 systems):
            _assert_same_system(stacked, lone)
        _assert_same_system(train_method(loss, train, val, cfg),
                            replace(best, min_train_error=lowest))

    @pytest.mark.parametrize("loss", ["rs", "ce"])
    def test_multiclass_grid_equals_sequential_runs(self, loss):
        ds = generate_grouped_expert(GroupedExpertConfig(d=4, n=240, C=3, K=1, seed=3, U=3.0))
        train, val = ds.subset(np.arange(160)), ds.subset(np.arange(160, 240))
        cfg = TrainConfig(epochs=5, batch_size=48, seed=5, alpha_grid=self.GRIDS[loss])
        _, best, lowest = _sequential_search(loss, train, val, cfg)
        _assert_same_system(train_method(loss, train, val, cfg),
                            replace(best, min_train_error=lowest))

    def test_ties_keep_the_earlier_epoch(self):
        # a negligible step leaves every row's validation accuracy unchanged
        train, val, _ = planted_splits(seed=13, n_train=100, n_val=40)
        cfg = TrainConfig(epochs=4, learning_rate=1e-12, seed=13)
        systems = _fit_surrogates(train, val, cfg, "rs", [0.0, 0.5, 1.0])
        assert [s.best_epoch for s in systems] == [1, 1, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ["values", "gradients"])
    def test_one_diverging_row_raises(self, monkeypatch, where):
        train, val, _ = planted_splits(seed=12, n_train=100, n_val=40)
        cfg = TrainConfig(epochs=3, batch_size=25, seed=12, alpha_grid=(0.0, 0.5, 1.0))
        real = surrogates.LOSSES["rs"]

        def breaks_at_half(g, y, hc, alpha):
            vals, grads = real(g, y, hc, alpha)
            bad = np.asarray(alpha) == 0.5
            if where == "values":
                vals = np.where(bad, np.nan, vals)
            else:
                grads = np.where(bad[..., None], np.inf, grads)
            return vals, grads

        monkeypatch.setitem(surrogates.LOSSES, "rs", breaks_at_half)
        # the other rows train on their own; the grid still fails as a whole
        for alpha in (0.0, 1.0):
            train_method("rs", train, val, replace(cfg, alpha_grid=(alpha,)))
        with pytest.raises(TrainingDiverged):
            train_method("rs", train, val, cfg)


def _quadratic_threshold(scores, human_correct, clf_correct):
    """The threshold search as a scan: the accuracy of every candidate in
    turn, maximizing (accuracy, -|tau|, -tau)."""
    best = None
    best_tau = 0.0
    for tau in _threshold_candidates(np.asarray(scores, dtype=float)):
        acc = float(np.mean(np.where(scores >= tau, human_correct, clf_correct)))
        key = (acc, -abs(tau), -tau)
        if best is None or key > best:
            best = key
            best_tau = float(tau)
    return best_tau


@st.composite
def _threshold_cases(draw):
    """Small score arrays drawn from a few values, their negations and their
    floating-point neighbours, so duplicates, all-equal arrays, symmetric
    pairs and adjacent floats all occur; masks may be all true or all false."""
    n = draw(st.integers(1, 10))
    base = draw(st.lists(st.floats(-4, 4, allow_nan=False, width=64), min_size=1, max_size=3))
    pool = sorted({v for b in base for v in (b, -b, np.nextafter(b, np.inf),
                                             np.nextafter(b, -np.inf))})
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    mask = st.one_of(st.just([True] * n), st.just([False] * n),
                     st.lists(st.booleans(), min_size=n, max_size=n))
    return scores, np.array(draw(mask), dtype=bool), np.array(draw(mask), dtype=bool)


class TestFitTau:
    @given(_threshold_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_quadratic_scan(self, case):
        scores, hc, clf_ok = case
        assert _line_search_threshold(scores, hc, clf_ok) == _quadratic_threshold(scores, hc, clf_ok)

    def test_midpoint_rounding_onto_a_score(self):
        # the midpoint of two adjacent floats is one of them
        a = 1.0
        b = np.nextafter(a, np.inf)
        scores = np.array([a, b, b])
        hc = np.array([False, True, True])
        clf_ok = np.array([True, False, False])
        assert _line_search_threshold(scores, hc, clf_ok) == _quadratic_threshold(scores, hc, clf_ok)

    def _system_with_scores(self, scores, clf_ok):
        # wrap fixed arrays in a fake system via the line-search primitive
        return scores, clf_ok

    def test_perfect_human_defers_all(self):
        # all-deferring threshold (-inf) attains max accuracy
        scores = np.array([-2.0, -1.0, 0.5])
        hc = np.array([True, True, True])
        clf_ok = np.array([False, False, False])
        tau = _line_search_threshold(scores, hc, clf_ok)
        assert tau == -np.inf

    def test_hopeless_human_never_defers(self):
        scores = np.array([-1.0, 0.0, 2.0])
        hc = np.array([False, False, False])
        clf_ok = np.array([True, True, True])
        tau = _line_search_threshold(scores, hc, clf_ok)
        assert tau == np.inf

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = 5
            scores = np.round(rng.normal(size=n), 2)
            hc = rng.integers(0, 2, n).astype(bool)
            clf_ok = rng.integers(0, 2, n).astype(bool)
            tau = _line_search_threshold(scores, hc, clf_ok)
            acc = np.mean(np.where(scores >= tau, hc, clf_ok))
            # exhaustive scan over every candidate in the gap structure
            cands = np.concatenate([[-np.inf], np.sort(np.unique(scores)) - 1e-9,
                                    np.sort(np.unique(scores)) + 1e-9, [np.inf]])
            best = max(float(np.mean(np.where(scores >= t, hc, clf_ok))) for t in cands)
            assert acc == pytest.approx(best)

    def test_fit_tau_on_system(self):
        train, val, _ = planted_splits(seed=10)
        cfg = TrainConfig(alpha_grid=(0.5,), epochs=20, seed=10)
        system = train_method("rs", train, val, cfg)
        tau = fit_tau(system, val)
        tuned = system.with_tau(tau)
        d0, l0 = system.decide(val.features)
        d1, l1 = tuned.decide(val.features)
        assert system_accuracy(d1, l1, val) >= system_accuracy(d0, l0, val)


class TestCompareConfidence:
    def test_never_defers_when_human_model_is_zero(self):
        train, val, _ = planted_splits(seed=11)
        system = train_method("confidence", train, val, TrainConfig(epochs=10, seed=11))
        # force the human-correctness model to predict huge negative logits
        system.aux_model.params = np.zeros_like(system.aux_model.params)
        system.aux_model.params[-1] = -50.0
        defer, _ = system.decide(val.features)
        assert not defer.any()

    def test_always_defers_when_human_model_is_one(self):
        train, val, _ = planted_splits(seed=12)
        system = train_method("confidence", train, val, TrainConfig(epochs=10, seed=12))
        system.aux_model.params = np.zeros_like(system.aux_model.params)
        system.aux_model.params[-1] = 50.0
        # sigmoid(50) = 1 > any softmax max below 1, so everything defers
        defer, _ = system.decide(val.features)
        assert defer.all()

    def test_accuracy_within_oracle_band(self):
        train, val, test = planted_splits(seed=13, n_train=500)
        cfg = TrainConfig(epochs=150, batch_size=64, seed=13)
        system = train_method("confidence", train, val, cfg)
        defer, labels = system.decide(test.features)
        acc = system_accuracy(defer, labels, test)
        clf_alone = float(np.mean(system.classifier_labels(test.features) == test.labels))
        oracle = float(np.mean(np.where(system.classifier_labels(test.features) == test.labels,
                                        True, test.human_correct)))
        assert clf_alone - 0.02 <= acc <= oracle + 1e-9


class TestSelectivePrediction:
    def test_threshold_learned_on_validation(self):
        train, val, test = planted_splits(seed=14, n_train=400)
        cfg = TrainConfig(epochs=100, batch_size=64, seed=14)
        system = train_method("selective", train, val, cfg)
        assert system.score_kind == "selective"
        defer, labels = system.decide(val.features)
        acc = system_accuracy(defer, labels, val)
        # the learned threshold should do at least as well as never deferring
        clf_alone = float(np.mean(system.classifier_labels(val.features) == val.labels))
        assert acc >= clf_alone - 1e-9


class TestDifferentiableTriage:
    def test_hopeless_human_trains_everywhere(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] > 0).astype(int)
        ds = DeferDataset(x, y, 1 - y, 2)  # human always wrong
        cfg = TrainConfig(epochs=60, seed=15)
        system = train_method("triage", ds, ds, cfg)
        defer, labels = system.decide(ds.features)
        # with a hopeless human the filter keeps everything and the
        # rejector learns to never defer
        assert defer.mean() < 0.2
        assert np.mean(labels == y) > 0.9

    def test_rejector_agrees_with_loss_comparison(self):
        # easy well-separated geometry so the self-reinforcing stage-1
        # filter converges; the method is known to collapse on hard inits
        total = 500
        cfg_data = SyntheticConfig(d=5, n=total, distribution="gaussian_mixture",
                                   std_scale=0.05, margin=0.2, p_m=0.0, p_h0=0.3,
                                   p_h1=0.0, seed=21)
        ds = generate_synthetic(cfg_data).dataset
        train = ds.subset(np.arange(400))
        val = ds.subset(np.arange(400, 500))
        cfg = TrainConfig(epochs=100, batch_size=64, seed=16)
        system = train_method("triage", train, val, cfg)
        pred = system.classifier_labels(train.features)
        clf01 = pred != train.labels
        hum01 = ~train.human_correct
        target_defer = hum01 < clf01
        defer, _ = system.decide(train.features)
        agreement = float(np.mean(defer == target_defer))
        assert agreement >= 0.9


class TestTrainMethodDispatch:
    @pytest.mark.parametrize("method", ["rs", "rs2", "ce", "ova", "moe",
                                        "confidence", "selective", "triage"])
    def test_every_method_runs(self, method):
        train, val, test = planted_splits(seed=17)
        cfg = TrainConfig(epochs=8, seed=17, alpha_grid=(0.5, 1.0))
        system = train_method(method, train, val, cfg)
        defer, labels = system.decide(test.features)
        assert 0.0 <= system_accuracy(defer, labels, test) <= 1.0

    def test_unknown_method(self):
        train, val, _ = planted_splits(seed=18)
        with pytest.raises(ValueError):
            train_method("oracle", train, val, TrainConfig())

    def test_system_kind_comes_from_the_method(self):
        model = ScoreModel.initialize(2, 3, 0, np.random.default_rng(0))
        assert TrainedSystem(model=model, num_classes=2, method="moe").score_kind == "defer_head"
        with pytest.raises(ValueError, match="unknown method id 'bogus'"):
            TrainedSystem(model=model, num_classes=2, method="bogus")
        with pytest.raises(TypeError):
            TrainedSystem(model=model, num_classes=2, method="rs", score_kind="gap")


def _model(d=2, out=3, hidden=0):
    return ScoreModel.initialize(d, out, hidden, np.random.default_rng(0))


class TestTrainedSystemShapes:
    """A system's models must have the shapes its method reads: C+1 outputs
    for a joint method, C for a two-stage one, and an auxiliary model, with
    the model's d and hidden units and one output, exactly for confidence
    and triage."""

    @pytest.mark.parametrize("method", ["rs", "rs2", "ce", "ova", "moe"])
    def test_joint_methods_need_a_deferral_head(self, method):
        # with 2 outputs, rs would read class 1's score as its deferral head
        with pytest.raises(ValueError, match=f"method={method} with C=2 needs a model "
                                             "with 3 outputs, got 2"):
            TrainedSystem(_model(out=2), 2, method=method)
        assert TrainedSystem(_model(out=3), 2, method=method).model.output_dim == 3

    @pytest.mark.parametrize("method", ["confidence", "selective", "triage"])
    def test_two_stage_methods_take_class_scores_only(self, method):
        aux = _model(out=1) if method != "selective" else None
        with pytest.raises(ValueError, match="needs a model with 2 outputs, got 3"):
            TrainedSystem(_model(out=3), 2, aux_model=aux, method=method)
        assert TrainedSystem(_model(out=2), 2, aux_model=aux, method=method).num_classes == 2

    @pytest.mark.parametrize("method", ["confidence", "triage"])
    def test_missing_auxiliary_model(self, method):
        # it would build, then fail on None.forward at its first decision
        with pytest.raises(ValueError, match=f"method={method} needs an auxiliary model"):
            TrainedSystem(_model(out=2), 2, method=method)

    @pytest.mark.parametrize("method,out", [("rs", 3), ("moe", 3), ("selective", 2)])
    def test_extra_auxiliary_model(self, method, out):
        with pytest.raises(ValueError, match=f"method={method} takes no auxiliary model"):
            TrainedSystem(_model(out=out), 2, aux_model=_model(out=1), method=method)

    @pytest.mark.parametrize("aux", [_model(d=3, out=1), _model(out=1, hidden=2),
                                     _model(out=2)], ids=["d", "hidden_units", "outputs"])
    def test_auxiliary_model_shaped_like_the_model(self, aux):
        with pytest.raises(ValueError, match="the auxiliary model needs d=2, hidden_units=0 "
                                             "and 1 output"):
            TrainedSystem(_model(out=2), 2, aux_model=aux, method="triage")
        with pytest.raises(ValueError, match="the auxiliary model needs"):
            replace(TrainedSystem(_model(out=2), 2, aux_model=_model(out=1),
                                  method="confidence"), aux_model=aux)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_params_must_be_finite(self, value):
        params = _model().params.copy()
        params[4] = value
        with pytest.raises(ValueError, match="params contain NaN or Inf"):
            ScoreModel(2, 3, 0, params)
        with pytest.raises(ValueError, match="params contain NaN or Inf"):
            replace(_model(), params=params)

    def test_tau_may_be_infinite_but_not_nan(self):
        # fit_tau returns -inf (defer everything) and +inf (never defer)
        system = TrainedSystem(_model(), 2, method="rs")
        for tau in (-np.inf, np.inf):
            deferred, _ = system.with_tau(tau).decide(np.zeros((3, 2)))
            assert deferred.tolist() == [tau < 0] * 3
        with pytest.raises(ValueError, match="tau is NaN"):
            TrainedSystem(_model(), 2, tau=np.nan, method="rs")
        with pytest.raises(ValueError, match="tau is NaN"):
            system.with_tau(float("nan"))

    def test_dim_is_the_models_input_dim(self):
        assert TrainedSystem(_model(d=5), 2, method="rs").dim == 5


# The trainers as they were before every model went through one fit path,
# kept as the reference the trainers must equal bit for bit. They share no
# training numerics with the code they check: the score model's passes,
# Adam, the losses and the deferral rules' sigmoid and softmax come from
# reference_numerics, and every max and argmax is numpy's.


# loss id -> the reference loss body, taking (scores, y, human_correct,
# alpha or None) as the trainer's stacked loss does
_ORACLE_LOSSES = {
    "rs": lambda g, y, hc, a: ref.rs(g, y, hc) if a is None else ref.rs_alpha(g, y, hc, a),
    "rs2": lambda g, y, hc, a: ref.rs2(g, y, hc),
    "ce": lambda g, y, hc, a: ref.ce_alpha(g, y, hc, np.asarray(1.0 if a is None else a)),
    "ova": lambda g, y, hc, a: ref.ova(g, y, hc),
    "moe": lambda g, y, hc, a: ref.moe(g, y, hc),
}


def _oracle_run_training(model: ScoreModel, dataset: DeferDataset, config: TrainConfig,
                         loss_fn, val_metric, rng, rows=1, train_metric=None):
    """Generic epoch loop: minibatch Adam plus best-epoch snapshotting, run on
    a stack of ``rows`` copies of ``model``'s parameters.

    The rows share the initial weights, the minibatch order and the Adam
    settings; only the loss tells them apart, so each row follows exactly
    the path a one-row run with its loss would. ``loss_fn(scores, idx) ->
    (values, score_grads)`` evaluates the training loss on a batch given
    row indices, with the rows' scores stacked row after row into one
    (rows * len(idx), output_dim) array. ``val_metric(stack) -> (rows,)``
    scores each row of a parameter stack after each epoch (higher is
    better), and each row keeps its best epoch's snapshot (ties go to the
    earlier epoch). ``train_metric`` is an optional per-epoch diagnostic of
    the same shape whose maximum is also returned. Any row that stops being
    finite raises TrainingDiverged at once.

    Returns the best snapshots as a (rows, p) stack, then each row's best
    metric, best epoch and best train metric.
    """
    n = dataset.n
    x = dataset.features
    params = np.repeat(model.params[None], rows, axis=0)
    adam = ref.Adam(params.shape, config)
    batch = n if config.batch_size in (0, None) else min(config.batch_size, n)
    best_metric = np.full(rows, -np.inf)
    best_train_metric = np.full(rows, -np.inf)
    best_params = params.copy()
    best_epoch = np.zeros(rows, dtype=np.int64)
    for epoch in range(1, config.epochs + 1):
        order = np.arange(n) if batch == n else rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb = x[idx]
            scores = ref.stack_forward(model, params, xb)
            if not np.all(np.isfinite(scores)):
                raise TrainingDiverged(f"non-finite scores at epoch {epoch}")
            vals, grads = loss_fn(scores.reshape(-1, scores.shape[2]), idx)
            mean_loss = vals.reshape(rows, -1).mean(axis=1)
            if not np.all(np.isfinite(mean_loss)):
                raise TrainingDiverged(
                    f"non-finite loss {mean_loss!r} at epoch {epoch}"
                )
            pgrad = ref.stack_backward(model, params, xb, grads.reshape(scores.shape) / len(idx))
            params = adam.step(params, pgrad)
            if not np.all(np.isfinite(params)):
                raise TrainingDiverged(f"non-finite parameters at epoch {epoch}")
        metric = val_metric(params)
        better = metric > best_metric
        best_metric[better] = metric[better]
        best_params[better] = params[better]
        best_epoch[better] = epoch
        if train_metric is not None:
            best_train_metric = np.maximum(best_train_metric, train_metric(params))
    return best_params, best_metric, best_epoch, best_train_metric


def _oracle_train_surrogates(dataset: DeferDataset, val_dataset: DeferDataset,
                             config: TrainConfig, method, alphas) -> list:
    """Train one joint C+1-head model per alpha as a single stacked pass.

    Every model starts from ``config.seed``'s initial weights and sees the
    same minibatch order, so each equals a lone run with its alpha. The loss
    gets one alpha per score row (None when ``alphas`` is ``[None]``).
    """
    if method not in _ORACLE_LOSSES:
        raise ValueError(f"unknown loss id {method!r}")
    if dataset.d != val_dataset.d or dataset.num_classes != val_dataset.num_classes:
        raise ValueError("train and validation datasets must share d and C")
    c = dataset.num_classes
    k = len(alphas)
    rng = np.random.default_rng(config.seed)
    model = ScoreModel.initialize(dataset.d, c + 1, config.hidden_units, rng)
    batch_loss = _ORACLE_LOSSES[method]
    y = dataset.labels
    hc = dataset.human_correct
    row_alpha = None if alphas[0] is None else np.asarray(alphas, dtype=float)
    score_kind = "defer_head" if method in ("rs2", "moe") else "gap"

    def loss_fn(scores, idx):
        stacked = np.concatenate([idx] * k)
        alpha = None if row_alpha is None else np.repeat(row_alpha, len(idx))
        return batch_loss(scores, y[stacked], hc[stacked], alpha)

    def _system_acc(stack, ds):
        scores = ref.stack_forward(model, stack, ds.features)
        labels = np.argmax(scores[:, :, :c], axis=2)
        if score_kind == "gap":
            defer = scores[:, :, -1] - scores[:, :, :c].max(axis=2) >= 0.0
        else:
            defer = scores[:, :, -1] >= 0.0
        return np.mean(np.where(defer, ds.human_correct, labels == ds.labels), axis=1)

    params, best_acc, best_epoch, best_train = _oracle_run_training(
        model, dataset, config, loss_fn, lambda st: _system_acc(st, val_dataset), rng,
        rows=k, train_metric=lambda st: _system_acc(st, dataset),
    )
    return [
        TrainedSystem(
            model=replace(model, params=params[i].copy()), num_classes=c, tau=0.0,
            method=method, alpha=alpha,
            best_val_accuracy=float(best_acc[i]), best_epoch=int(best_epoch[i]),
            min_train_error=1.0 - float(best_train[i]),
        )
        for i, alpha in enumerate(alphas)
    ]

def _oracle_class_accuracy(model, val_dataset):
    """Validation metric: class accuracy of each row of a parameter stack."""

    def metric(stack):
        pred = np.argmax(ref.stack_forward(model, stack, val_dataset.features), axis=2)
        return np.mean(pred == val_dataset.labels, axis=1)

    return metric


def _oracle_train_classifier(dataset, val_dataset, config):
    """Cross-entropy classifier head; tracks validation class accuracy."""
    rng = np.random.default_rng(config.seed)
    model = ScoreModel.initialize(dataset.d, dataset.num_classes, config.hidden_units, rng)
    y = dataset.labels

    def loss_fn(scores, idx):
        return ref.ce_batch(scores, y[idx])

    model.params = _oracle_run_training(model, dataset, config, loss_fn,
                                        _oracle_class_accuracy(model, val_dataset), rng)[0][0]
    return model


def _oracle_train_binary_head(dataset, targets01, val_dataset, val_targets01, config, seed_shift=1):
    """Single-logit head with logistic loss; tracks validation accuracy."""
    rng = np.random.default_rng(config.seed + seed_shift)
    model = ScoreModel.initialize(dataset.d, 1, config.hidden_units, rng)

    def loss_fn(scores, idx):
        return ref.logistic_batch(scores, targets01[idx])

    def val_metric(stack):
        pred = ref.stack_forward(model, stack, val_dataset.features)[:, :, 0] >= 0
        return np.mean(pred == val_targets01, axis=1)

    model.params = _oracle_run_training(model, dataset, config, loss_fn, val_metric, rng)[0][0]
    return model


def _oracle_rejection_scores(system, x):
    """A two-stage system's rejection scores through the reference sigmoid
    and softmax."""
    clf_max = ref.softmax(ref.forward(system.model, x)).max(axis=1)
    if system.score_kind == "confidence":
        return ref.sigmoid(ref.forward(system.aux_model, x)[:, 0]) - clf_max
    if system.score_kind == "selective":
        return -clf_max
    return ref.forward(system.aux_model, x)[:, 0]


def _oracle_val_accuracy(system, val_dataset):
    x = val_dataset.features
    defer = _oracle_rejection_scores(system, x) >= system.tau
    labels = np.argmax(ref.forward(system.model, x), axis=1)
    return replace(system, best_val_accuracy=system_accuracy(defer, labels, val_dataset))


def _oracle_train_compare_confidence(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data plus a human-correctness model; defer when the
    predicted human-correctness probability beats the classifier's max
    softmax probability."""
    clf = _oracle_train_classifier(dataset, val_dataset, config)
    hum = _oracle_train_binary_head(
        dataset, dataset.human_correct, val_dataset, val_dataset.human_correct, config
    )
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=hum, method="confidence")
    return _oracle_val_accuracy(system, val_dataset)


def _oracle_train_selective_prediction(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data; defer when its confidence falls below a
    threshold line-searched on the validation set."""
    clf = _oracle_train_classifier(dataset, val_dataset, config)
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           method="selective")
    x = val_dataset.features
    clf_ok = np.argmax(ref.forward(clf, x), axis=1) == val_dataset.labels
    tau = _line_search_threshold(_oracle_rejection_scores(system, x),
                                 val_dataset.human_correct, clf_ok)
    return _oracle_val_accuracy(system.with_tau(tau), val_dataset)


def _oracle_train_differentiable_triage(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Two-stage triage: each epoch updates the classifier only on points
    where its current 0-1 loss is no worse than the human's, then fits a
    rejector to predict which of the two errs less per point (ties keep the
    classifier)."""
    rng = np.random.default_rng(config.seed)
    model = ScoreModel.initialize(dataset.d, dataset.num_classes, config.hidden_units, rng)
    y = dataset.labels
    hum01 = (~dataset.human_correct).astype(float)

    def loss_fn(scores, idx):
        vals, grads = ref.ce_batch(scores, y[idx])
        clf01 = (np.argmax(scores, axis=1) != y[idx]).astype(float)
        keep = (clf01 <= hum01[idx]).astype(float)
        return vals * keep, grads * keep[:, None]

    model.params = _oracle_run_training(model, dataset, config, loss_fn,
                                        _oracle_class_accuracy(model, val_dataset), rng)[0][0]

    pred = np.argmax(ref.forward(model, dataset.features), axis=1)
    clf01 = (pred != y).astype(float)
    defer_target = hum01 < clf01  # ties mean do not defer
    val_pred = np.argmax(ref.forward(model, val_dataset.features), axis=1)
    val_target = (~val_dataset.human_correct).astype(float) < (val_pred != val_dataset.labels)
    rejector = _oracle_train_binary_head(dataset, defer_target, val_dataset, val_target, config)
    system = TrainedSystem(model=model, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=rejector, method="triage")
    return _oracle_val_accuracy(system, val_dataset)


_ORACLE_BASELINES = {
    "confidence": _oracle_train_compare_confidence,
    "selective": _oracle_train_selective_prediction,
    "triage": _oracle_train_differentiable_triage,
}


def _assert_same_bytes(a, b):
    for ma, mb in ((a.model, b.model), (a.aux_model, b.aux_model)):
        assert (ma is None) == (mb is None)
        if ma is not None:
            assert (ma.input_dim, ma.output_dim, ma.hidden_units) == \
                (mb.input_dim, mb.output_dim, mb.hidden_units)
            assert ma.params.tobytes() == mb.params.tobytes()
    fields = ("method", "score_kind", "tau", "alpha", "best_epoch", "best_val_accuracy",
              "min_train_error")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


class TestOneFitPath:
    """Every method trains bit for bit the system of the reference trainers."""

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("hidden_units", [0, 4])
    @pytest.mark.parametrize("batch_size", [0, 32])
    def test_every_method_equals_reference(self, classes, hidden_units, batch_size):
        if classes == 2:
            train, val, _ = planted_splits(seed=50, n_train=120, n_val=50)
        else:
            ds = generate_grouped_expert(GroupedExpertConfig(d=4, n=170, C=3, K=1, seed=6, U=3.0))
            train, val = ds.subset(np.arange(120)), ds.subset(np.arange(120, 170))
        cfg = TrainConfig(epochs=4, batch_size=batch_size, hidden_units=hidden_units, seed=21)
        surrogates_run = {"rs": [0.0, 0.5, 1.0], "ce": [0.0, 0.1, 1.0],
                          "rs2": [None], "ova": [None], "moe": [None]}
        assert set(surrogates_run) | set(_ORACLE_BASELINES) == set(METHODS)
        for loss, alphas in surrogates_run.items():
            new = _fit_surrogates(train, val, cfg, loss, alphas)
            old = _oracle_train_surrogates(train, val, cfg, loss, alphas)
            for a, b in zip(new, old, strict=True):
                _assert_same_bytes(a, b)
                # the deferral rule the reference applied to its stacks
                scores = ref.forward(a.model, val.features)
                rule = scores[:, -1] - scores[:, :classes].max(axis=1) \
                    if a.score_kind == "gap" else scores[:, -1]
                assert a.rejection_scores(val.features).tobytes() == rule.tobytes()
        for method, oracle in _ORACLE_BASELINES.items():
            _assert_same_bytes(train_method(method, train, val, cfg), oracle(train, val, cfg))
