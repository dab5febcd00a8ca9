from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab import surrogates
from deferlab.core import DeferDataset
from deferlab.datagen import SyntheticConfig, generate_grouped_expert, generate_synthetic
from deferlab.surrogates import loss_rs_batch
from deferlab.train import (
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    TrainingDiverged,
    _Adam,
    _line_search_threshold,
    _threshold_candidates,
    _train_surrogates,
    fit_tau,
    search_alpha,
    system_accuracy,
    train_compare_confidence,
    train_differentiable_triage,
    train_method,
    train_selective_prediction,
    train_surrogate,
)


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
        m = ScoreModel.initialize("linear", 4, 3, 0, rng)
        x = rng.normal(size=(7, 4))
        out = m.forward(x)
        assert out.shape == (7, 3)
        # a single feature vector gives one score vector
        np.testing.assert_allclose(m.forward(x[2]), out[2], rtol=1e-12)

    def test_hidden_forward_shape(self):
        rng = np.random.default_rng(0)
        m = ScoreModel.initialize("one_hidden", 4, 3, 16, rng)
        x = rng.normal(size=(7, 4))
        out = m.forward(x)
        assert out.shape == (7, 3)
        # a single feature vector gives one score vector
        np.testing.assert_allclose(m.forward(x[2]), out[2], rtol=1e-12)

    def test_deterministic_init(self):
        a = ScoreModel.initialize("linear", 4, 3, 0, np.random.default_rng(5))
        b = ScoreModel.initialize("linear", 4, 3, 0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.params, b.params)

    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("one_hidden", 8)])
    def test_backward_matches_fd(self, arch, hidden):
        rng = np.random.default_rng(1)
        m = ScoreModel.initialize(arch, 3, 4, hidden, rng)
        x = rng.normal(size=(6, 3))
        dscores = rng.normal(size=(6, 4))
        grad = m.backward(x, dscores)
        fd = np.zeros_like(grad)
        eps = 1e-6
        for j in range(m.params.size):
            up = m.copy(); up.params[j] += eps
            dn = m.copy(); dn.params[j] -= eps
            fd[j] = (np.sum(dscores * up.forward(x)) - np.sum(dscores * dn.forward(x))) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_bad_arch(self):
        with pytest.raises(ValueError):
            ScoreModel.initialize("transformer", 3, 4, 0, np.random.default_rng(0))


class TestAdamStep:
    def test_one_step_matches_finite_difference_gradient(self):
        # analytic-gradient Adam step equals the step taken with a
        # finite-difference gradient, within 1e-6 per parameter
        rng = np.random.default_rng(2)
        model = ScoreModel.initialize("linear", 4, 3, 0, rng)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, 10)
        hc = rng.integers(0, 2, 10).astype(bool)

        def mean_loss(params):
            m2 = model.copy()
            m2.params = params
            vals, _ = loss_rs_batch(m2.forward(x), y, hc)
            return float(np.mean(vals))

        scores = model.forward(x)
        _, grads = loss_rs_batch(scores, y, hc)
        analytic = model.backward(x, grads / len(x))
        fd = np.zeros_like(analytic)
        eps = 1e-6
        for j in range(model.params.size):
            up = model.params.copy(); up[j] += eps
            dn = model.params.copy(); dn[j] -= eps
            fd[j] = (mean_loss(up) - mean_loss(dn)) / (2 * eps)
        cfg = TrainConfig()
        step_a = _Adam(analytic.size, cfg).step(model.params, analytic)
        step_f = _Adam(fd.size, cfg).step(model.params, fd)
        np.testing.assert_allclose(step_a, step_f, atol=1e-6)


class TestTrainSurrogate:
    def test_determinism(self):
        train, val, _ = planted_splits()
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=20, seed=3)
        a = train_surrogate(train, val, cfg)
        b = train_surrogate(train, val, cfg)
        np.testing.assert_array_equal(a.model.params, b.model.params)
        assert a.best_epoch == b.best_epoch

    def test_best_epoch_at_least_final(self):
        train, val, _ = planted_splits(seed=4)
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=40, seed=4)
        system = train_surrogate(train, val, cfg)
        defer, labels = system.decide(val.features)
        assert system.best_val_accuracy == pytest.approx(
            system_accuracy(defer, labels, val)
        )

    def test_realizable_reaches_low_error(self):
        train, val, test = planted_splits(seed=1, n_train=500)
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=200, batch_size=64, seed=1)
        system = train_surrogate(train, val, cfg)
        defer, labels = system.decide(test.features)
        assert 1 - system_accuracy(defer, labels, test) <= 0.05

    def test_constant_label_dataset(self):
        x = np.random.default_rng(0).normal(size=(40, 3))
        ds = DeferDataset(x, np.zeros(40, dtype=int), np.ones(40, dtype=int), 2)
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=30, seed=0)
        system = train_surrogate(ds, ds, cfg)
        defer, labels = system.decide(ds.features)
        assert system_accuracy(defer, labels, ds) == 1.0

    def test_scaling_invariance_of_decisions(self):
        train, val, _ = planted_splits(seed=5)
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=15, seed=5)
        system = train_surrogate(train, val, cfg)
        scaled = system.model.copy()
        scaled.params = scaled.params * 7.5
        scaled_system = TrainedSystem(model=scaled, num_classes=2, tau=0.0,
                                      method="rs", score_kind="gap")
        d1, l1 = system.decide(val.features)
        d2, l2 = scaled_system.decide(val.features)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(l1, l2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        train, val, _ = planted_splits(seed=6)
        cfg = TrainConfig(loss="rs", alpha=1.0, epochs=5, learning_rate=1e307, seed=6)
        with pytest.raises(TrainingDiverged):
            train_surrogate(train, val, cfg)

    def test_unknown_loss(self):
        train, val, _ = planted_splits(seed=7)
        with pytest.raises(ValueError):
            train_surrogate(train, val, TrainConfig(loss="hinge"))


class TestSearchAlpha:
    def test_singleton_grid_matches_plain(self):
        train, val, _ = planted_splits(seed=8)
        cfg = TrainConfig(loss="rs", epochs=15, seed=8, alpha_grid=(0.5,))
        a = search_alpha(train, val, cfg)
        b = train_surrogate(train, val, TrainConfig(loss="rs", alpha=0.5, epochs=15, seed=8))
        np.testing.assert_array_equal(a.model.params, b.model.params)

    def test_realizable_prefers_high_alpha(self):
        train, val, _ = planted_splits(seed=2, n_train=500)
        cfg = TrainConfig(loss="rs", epochs=150, batch_size=64, seed=2, alpha_grid=(0.0, 1.0))
        best = search_alpha(train, val, cfg)
        assert best.alpha == 1.0

    def test_empty_grid(self):
        train, val, _ = planted_splits(seed=9)
        with pytest.raises(ValueError):
            search_alpha(train, val, TrainConfig(alpha_grid=()))
        with pytest.raises(ValueError, match="no default alpha grid"):
            search_alpha(train, val, TrainConfig(loss="ova"))

    def test_out_of_range_grid(self):
        train, val, _ = planted_splits(seed=9)
        with pytest.raises(ValueError, match="alpha"):
            search_alpha(train, val, TrainConfig(loss="ova", alpha_grid=(0.5, 1.5)))


def _sequential_search(train, val, config):
    """The alpha search as separate runs, one train_surrogate call per alpha:
    best validation accuracy, ties to the smaller alpha, and the lowest
    train error over the grid."""
    systems = [train_surrogate(train, val, replace(config, alpha=a))
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
        cfg = TrainConfig(loss=loss, epochs=6, batch_size=batch_size, seed=17,
                          hidden_units=hidden_units, alpha_grid=self.GRIDS[loss])
        systems, best, lowest = _sequential_search(train, val, cfg)
        for stacked, lone in zip(_train_surrogates(train, val, cfg, sorted(cfg.alpha_grid)),
                                 systems):
            _assert_same_system(stacked, lone)
        _assert_same_system(search_alpha(train, val, cfg),
                            replace(best, min_train_error=lowest))

    @pytest.mark.parametrize("loss", ["rs", "ce"])
    def test_multiclass_grid_equals_sequential_runs(self, loss):
        ds = generate_grouped_expert(d=4, n=240, C=3, K=1, seed=3, U=3.0)
        train, val = ds.subset(np.arange(160)), ds.subset(np.arange(160, 240))
        cfg = TrainConfig(loss=loss, epochs=5, batch_size=48, seed=5,
                          alpha_grid=self.GRIDS[loss])
        _, best, lowest = _sequential_search(train, val, cfg)
        _assert_same_system(search_alpha(train, val, cfg),
                            replace(best, min_train_error=lowest))

    def test_ties_keep_the_earlier_epoch(self):
        # a negligible step leaves every row's validation accuracy unchanged
        train, val, _ = planted_splits(seed=13, n_train=100, n_val=40)
        cfg = TrainConfig(loss="rs", epochs=4, learning_rate=1e-12, seed=13)
        systems = _train_surrogates(train, val, cfg, [0.0, 0.5, 1.0])
        assert [s.best_epoch for s in systems] == [1, 1, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ["values", "gradients"])
    def test_one_diverging_row_raises(self, monkeypatch, where):
        train, val, _ = planted_splits(seed=12, n_train=100, n_val=40)
        cfg = TrainConfig(loss="rs", epochs=3, batch_size=25, seed=12,
                          alpha_grid=(0.0, 0.5, 1.0))
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
            train_surrogate(train, val, replace(cfg, alpha=alpha))
        with pytest.raises(TrainingDiverged):
            search_alpha(train, val, cfg)


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
        cfg = TrainConfig(loss="rs", alpha=0.5, epochs=20, seed=10)
        system = train_surrogate(train, val, cfg)
        tau = fit_tau(system, val)
        tuned = system.with_tau(tau)
        d0, l0 = system.decide(val.features)
        d1, l1 = tuned.decide(val.features)
        assert system_accuracy(d1, l1, val) >= system_accuracy(d0, l0, val)


class TestCompareConfidence:
    def test_never_defers_when_human_model_is_zero(self):
        train, val, _ = planted_splits(seed=11)
        system = train_compare_confidence(train, val, TrainConfig(epochs=10, seed=11))
        # force the human-correctness model to predict huge negative logits
        system.aux_model.params = np.zeros_like(system.aux_model.params)
        system.aux_model.params[-1] = -50.0
        defer, _ = system.decide(val.features)
        assert not defer.any()

    def test_always_defers_when_human_model_is_one(self):
        train, val, _ = planted_splits(seed=12)
        system = train_compare_confidence(train, val, TrainConfig(epochs=10, seed=12))
        system.aux_model.params = np.zeros_like(system.aux_model.params)
        system.aux_model.params[-1] = 50.0
        # sigmoid(50) = 1 > any softmax max below 1, so everything defers
        defer, _ = system.decide(val.features)
        assert defer.all()

    def test_accuracy_within_oracle_band(self):
        train, val, test = planted_splits(seed=13, n_train=500)
        cfg = TrainConfig(epochs=150, batch_size=64, seed=13)
        system = train_compare_confidence(train, val, cfg)
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
        system = train_selective_prediction(train, val, cfg)
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
        system = train_differentiable_triage(ds, ds, cfg)
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
        system = train_differentiable_triage(train, val, cfg)
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
