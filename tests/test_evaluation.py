import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab.evaluation as evaluation_module
from deferlab.core import DeferDataset, HalfspacePair
from deferlab.datagen import GroupedExpertConfig, SyntheticConfig
from deferlab.evaluation import (
    coverage_curve,
    evaluate,
    generalization_bound,
    run_benchmark,
    split_sizes,
    write_curve_csv,
    write_results_csv,
    write_curves_svg,
)
from deferlab.train import ScoreModel, TrainConfig, TrainedSystem, system_accuracy


def fixed_dataset():
    # 10-point hand-checkable table, d=1; rejector defers iff x >= 0
    x = np.array([[v] for v in (-4.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0)])
    y = np.array([0, 0, 1, 1, 0, 1, 0, 1, 0, 1])
    h = np.array([0, 1, 1, 0, 1, 1, 0, 1, 1, 1])
    return DeferDataset(x, y, h, 2)


def defer_iff_positive_pair():
    # classifier predicts 1 iff x > 1.5 ; defers iff x >= 0
    return HalfspacePair([1.0, -1.5], [1.0, 0.0])


class TestEvaluate:
    def test_defer_all(self):
        ds = fixed_dataset()
        pair = HalfspacePair([1.0, -1.5], [0.0, 1.0])  # rejector bias positive
        rep = evaluate(pair, ds)
        assert rep.coverage == 0.0
        assert rep.system_accuracy == pytest.approx(np.mean(ds.human_correct))
        assert rep.classifier_accuracy_nondeferred is None
        assert rep.human_accuracy_deferred == pytest.approx(np.mean(ds.human_correct))

    def test_defer_none(self):
        ds = fixed_dataset()
        pair = HalfspacePair([1.0, -1.5], [0.0, -1.0])
        rep = evaluate(pair, ds)
        assert rep.coverage == 1.0
        assert rep.human_accuracy_deferred is None
        labels = (ds.features[:, 0] > 1.5).astype(int)
        assert rep.system_accuracy == pytest.approx(np.mean(labels == ds.labels))

    def test_mixed_hand_count(self):
        ds = fixed_dataset()
        pair = defer_iff_positive_pair()
        rep = evaluate(pair, ds)
        # kept: first five (x < 0), classifier says 0 there -> y: 0,0,1,1,0 -> 3 right
        # deferred: last five, h = 1,0,1,1,1 vs y = 1,0,1,0,1 -> 4 right
        assert rep.coverage == pytest.approx(0.5)
        assert rep.classifier_accuracy_nondeferred == pytest.approx(3 / 5)
        assert rep.human_accuracy_deferred == pytest.approx(4 / 5)
        assert rep.system_accuracy == pytest.approx(7 / 10)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            ds = DeferDataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n),
                              rng.integers(0, 2, n), 2)
            pair = HalfspacePair(rng.normal(size=3), rng.normal(size=3))
            rep = evaluate(pair, ds)
            if rep.classifier_accuracy_nondeferred is None or rep.human_accuracy_deferred is None:
                continue
            assert rep.system_accuracy == pytest.approx(
                rep.coverage * rep.classifier_accuracy_nondeferred
                + (1 - rep.coverage) * rep.human_accuracy_deferred
            )
            assert float(rep.coverage * rep.n_points) == pytest.approx(
                round(rep.coverage * rep.n_points)
            )

    def test_scores_pass_once(self, monkeypatch):
        # the rejection scores are thresholded at tau, not computed again by
        # decide: one forward pass for them and one for the class labels
        ds = fixed_dataset()
        system = TrainedSystem(ScoreModel.initialize(1, 3, 0, np.random.default_rng(0)), 2,
                               tau=0.1, method="rs")
        deferred, labels = system.decide(ds.features)
        calls = []
        forward = ScoreModel.forward
        monkeypatch.setattr(ScoreModel, "forward",
                            lambda model, x: calls.append(x) or forward(model, x))
        rep = evaluate(system, ds)
        assert rep.coverage == np.mean(~deferred)
        assert rep.system_accuracy == system_accuracy(deferred, labels, ds)
        assert len(calls) == 2
        coverage_curve(system, ds)
        assert len(calls) == 4

    def test_pairs_keep_their_bits(self):
        # SHA-256 over evaluate's report and coverage_curve's arrays on 500
        # seeded pairs: d 1-11, 1-59 points, a binary (one-row) or 2-5 class
        # classifier, half of them on small integers so that scores tie, and
        # grid sizes 0, 5 and 50. The digest was recorded when both functions
        # still took a pair through its own branch.
        h = hashlib.sha256()
        rng = np.random.default_rng(26)

        def draw(shape):
            if rng.integers(2):
                return rng.integers(-2, 3, size=shape).astype(float)
            return rng.normal(size=shape)

        for _ in range(500):
            d, n, c = (int(v) for v in rng.integers((1, 1, 1), (12, 60, 6)))
            pair = HalfspacePair(draw(d + 1) if c == 1 else draw((c, d + 1)), draw(d + 1))
            x, c = draw((n, d)), max(c, 2)
            ds = DeferDataset(x, rng.integers(0, c, n), rng.integers(0, c, n), c)
            h.update(repr(evaluate(pair, ds)).encode())
            curve = coverage_curve(pair, ds, grid_size=int(rng.choice([0, 5, 50])))
            for a in (curve.thresholds, curve.coverages, curve.accuracies):
                h.update(a.tobytes())
        assert h.hexdigest() == "b44f2b7eaa0bc4b6fb66e225504d0b14a1dcc1abac5c33692b18fbe02e5e13ce"


class TestCoverageCurve:
    def test_constant_score_two_regimes(self):
        ds = fixed_dataset()
        pair = HalfspacePair([1.0, -1.5], [0.0, 2.0])  # score constant 2.0
        curve = coverage_curve(pair, ds)
        assert len(curve) == 2
        assert curve.coverages[0] == 0.0 and curve.coverages[-1] == 1.0

    def test_endpoints_equal_single_arm_accuracy(self):
        ds = fixed_dataset()
        pair = defer_iff_positive_pair()
        curve = coverage_curve(pair, ds)
        human_alone = float(np.mean(ds.human_correct))
        labels = (ds.features[:, 0] > 1.5).astype(int)
        clf_alone = float(np.mean(labels == ds.labels))
        assert curve.coverages[0] == 0.0
        assert curve.accuracies[0] == pytest.approx(human_alone)
        assert curve.coverages[-1] == 1.0
        assert curve.accuracies[-1] == pytest.approx(clf_alone)

    def test_monotone_coverage_strictly_increasing_thresholds(self):
        ds = fixed_dataset()
        pair = defer_iff_positive_pair()
        curve = coverage_curve(pair, ds)
        assert np.all(np.diff(curve.thresholds) > 0)
        assert np.all(np.diff(curve.coverages) >= 0)

    def test_passes_through_operating_point(self):
        ds = fixed_dataset()
        pair = defer_iff_positive_pair()
        rep = evaluate(pair, ds)
        curve = coverage_curve(pair, ds)
        match = np.flatnonzero(np.isclose(curve.coverages, rep.coverage))
        assert match.size > 0
        assert any(np.isclose(curve.accuracies[k], rep.system_accuracy) for k in match)

    def test_subsampling_keeps_endpoints(self):
        rng = np.random.default_rng(1)
        ds = DeferDataset(rng.normal(size=(500, 2)), rng.integers(0, 2, 500),
                          rng.integers(0, 2, 500), 2)
        pair = HalfspacePair(rng.normal(size=3), rng.normal(size=3))
        curve = coverage_curve(pair, ds, grid_size=20)
        assert len(curve) <= 20
        assert curve.thresholds[0] == -np.inf and curve.thresholds[-1] == np.inf
        assert curve.coverages[0] == 0.0 and curve.coverages[-1] == 1.0

    @pytest.mark.parametrize("grid_size", [1, -1, -3])
    def test_grid_sizes_below_the_endpoints_are_rejected(self, grid_size):
        # 0 keeps every midpoint, 2 keeps the endpoints alone; 1 or a
        # negative size names no curve
        ds, pair = fixed_dataset(), defer_iff_positive_pair()
        with pytest.raises(ValueError, match="grid_size"):
            coverage_curve(pair, ds, grid_size=grid_size)


class _FixedScores:
    """A deferral system with given rejection scores and classifier labels."""

    tau = 0.0

    def __init__(self, scores, labels):
        self.scores = np.asarray(scores, dtype=float)
        self.labels = np.asarray(labels)

    def classifier_labels(self, features):
        return self.labels

    def rejection_scores(self, features):
        return self.scores


def _curve_by_scan(scores, labels, dataset, grid_size):
    """The coverage curve as a scan: one pass over the data per threshold."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0 if distinct.size > 1 else np.empty(0)
    if grid_size and mids.size > max(0, grid_size - 2):
        pick = np.linspace(0, mids.size - 1, max(0, grid_size - 2)).round().astype(int)
        mids = mids[np.unique(pick)]
    thresholds = np.concatenate([[-np.inf], mids, [np.inf]])
    hum_ok = dataset.human_correct
    clf_ok = labels == dataset.labels
    coverages = np.empty(thresholds.size)
    accuracies = np.empty(thresholds.size)
    for k, tau in enumerate(thresholds):
        defer = scores >= tau
        coverages[k] = float(np.mean(~defer))
        accuracies[k] = float(np.mean(np.where(defer, hum_ok, clf_ok)))
    return thresholds, coverages, accuracies


@st.composite
def _curve_cases(draw):
    """Scores drawn from a few values, their negations and their floating-point
    neighbours, so ties, all-equal scores and adjacent floats all occur."""
    n = draw(st.integers(1, 12))
    base = draw(st.lists(st.floats(-4, 4, allow_nan=False, width=64), min_size=1, max_size=3))
    pool = sorted({v for b in base for v in (b, -b, np.nextafter(b, np.inf),
                                             np.nextafter(b, -np.inf))})
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    y, h, labels = (np.array(draw(bits)) for _ in range(3))
    grid_size = draw(st.sampled_from([0, 2, 50, n + 3]))
    return scores, y, h, labels, grid_size


class TestCoverageCurveEqualsScan:
    def _check(self, scores, y, h, labels, grid_size):
        ds = DeferDataset(np.zeros((len(y), 1)), y, h, 2)
        curve = coverage_curve(_FixedScores(scores, labels), ds, grid_size=grid_size)
        thresholds, coverages, accuracies = _curve_by_scan(scores, labels, ds, grid_size)
        np.testing.assert_array_equal(curve.thresholds, thresholds)
        np.testing.assert_array_equal(curve.coverages, coverages)
        np.testing.assert_array_equal(curve.accuracies, accuracies)

    @given(_curve_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_scan(self, case):
        self._check(*case)

    def test_every_midpoint_on_5000_points(self):
        rng = np.random.default_rng(8)
        n = 5000
        scores = np.round(rng.normal(size=n), 3)  # ties among the scores
        y, h, labels = (rng.integers(0, 2, n) for _ in range(3))
        for grid_size in (0, 2, 50, n + 1):
            self._check(scores, y, h, labels, grid_size)


class TestGeneralizationBound:
    def test_hand_arithmetic(self):
        v = generalization_bound(0.0, 1.0, 1.0, 2, 100, 0.5, 0.1)
        expect = (2 * 2 * math.sqrt(2 * math.log(2)) + 10 * math.sqrt(math.log(20))) / math.sqrt(50)
        assert v == pytest.approx(expect, abs=1e-12)
        assert v == pytest.approx(3.1138, abs=1e-3)

    def test_d1_kills_first_term(self):
        v = generalization_bound(0.1, 3.0, 3.0, 1, 400, 0.25, 0.2)
        expect = 0.1 + 10 * math.sqrt(math.log(10)) / math.sqrt(100)
        assert v == pytest.approx(expect)

    def test_monotone_in_n(self):
        a = generalization_bound(0.0, 1.0, 1.0, 5, 100, 0.5, 0.1)
        b = generalization_bound(0.0, 1.0, 1.0, 5, 200, 0.5, 0.1)
        assert b < a

    def test_bound_at_least_train_loss(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tl = float(rng.uniform(0, 1))
            v = generalization_bound(tl, rng.uniform(0.1, 3), rng.uniform(0.1, 3),
                                     int(rng.integers(1, 50)), int(rng.integers(1, 10000)),
                                     float(rng.uniform(0.01, 1)), float(rng.uniform(0.01, 0.49)))
            assert v >= tl

    def test_validation(self):
        with pytest.raises(ValueError):
            generalization_bound(0.0, 1, 1, 2, 100, 0.0, 0.1)
        with pytest.raises(ValueError):
            generalization_bound(0.0, 1, 1, 2, 100, 0.5, 0.7)

    @pytest.mark.parametrize("position,name", [(0, "train_loss"), (1, "k_m"), (2, "k_r"),
                                               (5, "human_error_rate"), (6, "delta")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinite_inputs_rejected(self, position, name, value):
        args = [0.0, 1.0, 1.0, 2, 100, 0.5, 0.1]
        args[position] = value
        with pytest.raises(ValueError, match=name):
            generalization_bound(*args)


class TestRunBenchmark:
    def _instance(self):
        return SyntheticConfig(d=4, n=300, distribution="gaussian_mixture", std_scale=0.2,
                               margin=0.2, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=0)

    def _config(self):
        return TrainConfig(epochs=10, batch_size=64, seed=0, alpha_grid=(1.0,))

    def test_single_trial_no_stderr(self):
        result = run_benchmark(self._instance(), ["rs"], trials=1, seed=5,
                               train_config=self._config())
        assert len(result.records) == 1
        mean, stderr = result.aggregates["rs"]
        assert stderr is None
        assert 0.0 <= mean <= 1.0

    def test_deterministic(self):
        a = run_benchmark(self._instance(), ["rs", "selective"], trials=2, seed=7,
                          train_config=self._config())
        b = run_benchmark(self._instance(), ["rs", "selective"], trials=2, seed=7,
                          train_config=self._config())
        for ra, rb in zip(a.records, b.records):
            assert ra.report == rb.report

    def test_milp_method_works(self):
        result = run_benchmark(self._instance(), ["milp"], trials=1, seed=2,
                               train_config=self._config())
        assert result.aggregates["milp"][0] > 0.5

    def test_grouped_instance(self):
        inst = GroupedExpertConfig(d=3, n=300, C=4, K=2, U=5.0, blob_std=1.0, seed=0)
        result = run_benchmark(inst, ["selective"], trials=1, seed=3,
                               train_config=self._config())
        assert 0.0 <= result.aggregates["selective"][0] <= 1.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_benchmark(self._instance(), ["svm"], trials=1, seed=0)

    @pytest.mark.parametrize("methods", [["selective", "selective"], ["rs", "milp", "rs"]])
    def test_repeated_method_named_before_any_work(self, methods, monkeypatch):
        # the copies used to train again and pool as if independent trials,
        # shrinking the standard error
        monkeypatch.setattr(evaluation_module, "generate_instance", None)  # never reached
        with pytest.raises(ValueError, match=f"method id '{methods[0]}' is given more than once"):
            run_benchmark(self._instance(), methods, trials=3, seed=0)

    @pytest.mark.parametrize("split", [
        (0.5, 0.1, 0.1),  # fractions short of 1: the test part was the rest
        (0.7, 0.3),  # two entries
        (0.9, 0.2, 0.1),  # fractions above 1: train and validation overlapped the end
        (1.1, -0.2, 0.1),  # a negative entry
        (0.7, float("nan"), 0.2),
        (0.7, float("inf"), 0.2),
        (200, 40, 40),  # counts short of n
        (200, 40, 80),  # counts above n
        (0.9, 0.1, 0.0),  # an empty test part
        (0.998, 0.001, 0.001),  # validation rounds to nothing
        (300, 0, 0),
    ])
    def test_invalid_split_named_before_any_work(self, split, monkeypatch):
        monkeypatch.setattr(evaluation_module, "generate_instance", None)  # never reached
        with pytest.raises(ValueError, match=r"^split "):
            run_benchmark(self._instance(), ["rs"], trials=1, seed=0, split=split,
                          train_config=self._config())

    def test_valid_splits_keep_the_partition(self):
        def old_sizes(split, n):
            if all(isinstance(v, float) and v <= 1.0 for v in split):
                n_train, n_val = int(round(split[0] * n)), int(round(split[1] * n))
            else:
                n_train, n_val = int(split[0]), int(split[1])
            return n_train, n_val, n - n_train - n_val

        for split in [(0.7, 0.1, 0.2), (0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3)]:
            for n in (10, 29, 300, 1001):
                assert split_sizes(split, n) == old_sizes(split, n), (split, n)
        # counts, as ints or as the floats the config file gives
        assert split_sizes((200, 40, 60), 300) == (200, 40, 60)
        assert split_sizes((200.0, 40.0, 60.0), 300) == (200, 40, 60)
        result = run_benchmark(self._instance(), ["rs"], trials=1, seed=5, split=(150, 50, 100),
                               train_config=self._config())
        assert result.records[0].report.n_points == 100


class TestAlphaSensitivity:
    def test_deferred_accuracy_increases_with_alpha(self):
        # with a human who is perfect on the deferred region, raising alpha
        # moves deferral toward that region and lifts deferred-arm accuracy
        from deferlab.datagen import generate_synthetic
        from deferlab.train import TrainConfig, train_method

        total = 2200
        inst = generate_synthetic(SyntheticConfig(
            d=10, n=total, std_scale=1.0, margin=0.3, p_m=0.0, p_h0=0.3,
            p_h1=0.0, seed=3,
        ))
        ds = inst.dataset
        train = ds.subset(np.arange(1000))
        val = ds.subset(np.arange(1000, 1200))
        test = ds.subset(np.arange(1200, total))
        deferred_acc = {}
        for alpha in (0.0, 0.5, 1.0):
            cfg = TrainConfig(alpha_grid=(alpha,), epochs=150, batch_size=64,
                              learning_rate=0.1, seed=3)
            system = train_method("rs", train, val, cfg)
            rep = evaluate(system, test)
            deferred_acc[alpha] = rep.human_accuracy_deferred
        usable = {a: v for a, v in deferred_acc.items() if v is not None}
        assert 1.0 in usable
        for a, v in usable.items():
            if a < 1.0:
                assert usable[1.0] >= v - 0.02, (
                    f"deferred accuracy at alpha=1 ({usable[1.0]:.3f}) should not "
                    f"trail alpha={a} ({v:.3f})"
                )
        assert usable[1.0] >= 0.9


class TestWriters:
    def test_results_and_curve_csv(self, tmp_path):
        result = run_benchmark(
            SyntheticConfig(d=3, n=200, std_scale=0.2, margin=0.2, seed=0),
            ["rs"], trials=2, seed=1,
            train_config=TrainConfig(epochs=5, seed=0, alpha_grid=(1.0,)),
        )
        rpath = tmp_path / "results.csv"
        write_results_csv(result, rpath)
        lines = rpath.read_text().strip().splitlines()
        assert lines[0] == "method,trial,coverage,system_acc,clf_acc_nondef,hum_acc_def"
        assert len(lines) == 3
        cpath = tmp_path / "curve.csv"
        write_curve_csv(result.records[0].curve, cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "threshold,coverage,system_acc"
        assert lines[1].startswith("-inf,")

    def test_svg_plot(self, tmp_path):
        result = run_benchmark(
            SyntheticConfig(d=3, n=200, std_scale=0.2, margin=0.2, seed=0),
            ["rs", "selective"], trials=1, seed=1,
            train_config=TrainConfig(epochs=5, seed=0, alpha_grid=(1.0,)),
        )
        spath = tmp_path / "plot.svg"
        write_curves_svg(result, spath)
        text = spath.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert text.count("<circle") == 2
