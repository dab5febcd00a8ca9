import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab.core import (
    DeferDataset,
    HalfspacePair,
    augment,
    load_dataset_csv,
    save_dataset_csv,
    system_correct,
    system_loss_01,
)


def small_dataset():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    return DeferDataset(x, [0, 1, 0], [0, 0, 0], 2)


class TestDeferDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeferDataset(np.zeros((0, 2)), [], [], 2)
        with pytest.raises(ValueError):
            DeferDataset([[np.nan]], [0], [0], 2)
        with pytest.raises(ValueError):
            DeferDataset([[1.0]], [2], [0], 2)
        with pytest.raises(ValueError):
            DeferDataset([[1.0]], [0], [0], 1)
        with pytest.raises(ValueError):
            DeferDataset([[1.0], [1.0]], [0], [0, 1], 2)

    @pytest.mark.parametrize("field,args,value", [
        ("labels", ([0.7, 1.9], [0, 1], 2), "0.7"),
        ("human_preds", ([0, 1], [0.0, 1.5], 2), "1.5"),
        ("labels", ([0, np.nan], [0, 1], 2), "nan"),
        ("human_preds", ([0, 1], [np.inf, 0], 2), "inf"),
        ("num_classes", ([0, 1], [0, 1], 2.7), "2.7"),
    ])
    def test_non_integral_class_data_rejected(self, field, args, value):
        # each used to be cut to an int: labels [0.7, 1.9] loaded as [0, 1]
        with pytest.raises(ValueError, match=f"{field} must be integral, got {value}"):
            DeferDataset(np.zeros((2, 2)), *args)

    def test_integral_floats_load(self):
        ds = DeferDataset(np.zeros((2, 2)), [1.0, 0.0], np.array([0.0, 2.0]), 3.0)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
        assert ds.human_preds.tolist() == [0, 2]
        assert ds.num_classes == 3 and type(ds.num_classes) is int

    def test_immutable(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_subset(self):
        ds = small_dataset()
        sub = ds.subset([2, 0])
        assert sub.n == 2
        assert sub.labels.tolist() == [0, 0]


class TestSystemLoss:
    def test_all_deferred_perfect_human(self):
        x = np.ones((4, 2))
        ds = DeferDataset(x, [0, 1, 1, 0], [0, 1, 1, 0], 2)
        assert system_loss_01(ds, [True] * 4, [0, 0, 0, 0]) == 0.0

    def test_direct_count(self):
        # n=4: defer on 2 points where human wrong, classifier correct elsewhere
        ds = DeferDataset(np.ones((4, 1)), [0, 0, 1, 1], [1, 1, 1, 1], 2)
        deferred = [True, True, False, False]
        assert system_loss_01(ds, deferred, [0, 0, 1, 1]) == 0.5

    def test_hand_counted_three_points(self):
        # labels (0,1,0), human (0,0,0), classifier (1,1,0), defer mask (1,0,0)
        ds = DeferDataset(np.ones((3, 1)), [0, 1, 0], [0, 0, 0], 2)
        assert system_loss_01(ds, [True, False, False], [1, 1, 0]) == 0.0

    def test_length_mismatch(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            system_loss_01(ds, [True], [0])

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_loss_on_grid(self, n, seed):
        rng = np.random.default_rng(seed)
        ds = DeferDataset(
            rng.normal(size=(n, 2)), rng.integers(0, 2, n), rng.integers(0, 2, n), 2
        )
        deferred = rng.integers(0, 2, n).astype(bool)
        labels = rng.integers(0, 2, n)
        loss = system_loss_01(ds, deferred, labels)
        # exactly a count of erring points divided by n
        assert abs(loss * n - round(loss * n)) < 1e-12
        expect = sum(
            (ds.human_preds[i] != ds.labels[i]) if deferred[i] else (labels[i] != ds.labels[i])
            for i in range(n)
        )
        assert loss == expect / n

    def test_system_correct_broadcasts_over_stacked_decisions(self):
        # two stacked rows of decisions, as the trainer rates a parameter stack
        ds = DeferDataset(np.ones((3, 1)), [0, 1, 0], [0, 0, 0], 2)
        deferred = np.array([[True, False, False], [False, True, True]])
        labels = np.array([[1, 1, 0], [0, 0, 1]])
        correct = system_correct(ds, deferred, labels)
        assert correct.tolist() == [[True, True, True], [True, False, True]]
        for row in range(2):
            assert system_loss_01(ds, deferred[row], labels[row]) == \
                pytest.approx(1.0 - correct[row].mean())


class TestPredictHalfspace:
    """What a pair decides on a batch of raw feature rows."""

    def test_zero_rejector_defers_everywhere(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        xs = np.array([[0.0, 0.0], [5.0, -3.0], [-1.0, 2.0]])
        deferred, _ = pair.decide(xs)
        assert deferred.tolist() == [True, True, True]
        assert pair.rejection_scores(xs).tolist() == [0.0, 0.0, 0.0]

    def test_binary_sign(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, -1.0])
        assert pair.tau == 0.0 and pair.num_classes == 2
        deferred, labels = pair.decide(np.array([[-2.0, 5.0], [2.0, 5.0], [0.0, 1.0]]))
        assert labels.tolist() == [0, 1, 0]  # an activation of 0 is not positive
        assert labels.dtype == np.int64
        assert not deferred.any()

    def test_multiclass_tie_breaks_low(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        pair = HalfspacePair(m, [0.0, 0.0, -1.0])
        assert pair.num_classes == 3
        labels = pair.classifier_labels(np.array([[3.0, 3.0], [1.0, 2.0], [-1.0, -1.0]]))
        assert labels.tolist() == [0, 1, 2]
        assert pair.classifier_labels(np.array([[0.0, 0.0]])).tolist() == [0]

    def test_dimension_mismatch(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        for method in (pair.decide, pair.rejection_scores, pair.classifier_labels):
            for bad in ([[1.0, 2.0, 3.0]], [1.0, 2.0], [[[1.0, 2.0]]]):
                with pytest.raises(ValueError, match=r"expected \(n, 2\) features"):
                    method(np.array(bad))

    @given(
        st.floats(0.001, 1000.0),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, u, m, r, x):
        pair = HalfspacePair(m, r)
        scaled = HalfspacePair(np.asarray(m) * u, np.asarray(r) * u)
        xs = np.array([x])
        for a, b in zip(pair.decide(xs), scaled.decide(xs)):
            np.testing.assert_array_equal(a, b)

    def test_pure_function(self):
        pair = HalfspacePair([[0.3, -0.7, 0.1], [0.5, 0.5, -0.2]], [0.5, 0.5, -0.2])
        xs = np.array([[1.5, -2.5], [0.0, 1.0]])
        before = xs.copy()
        for a, b in zip(pair.decide(xs), pair.decide(xs)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(xs, before)


class TestBatchHelpers:
    def test_decisions_keep_their_bits(self):
        # SHA-256 over decide and rejection_scores on 3000 seeded pairs: d
        # 1-11, 1-59 points, a binary (one-row) or 2-5 class classifier, half
        # of them on small integers so that activations tie and hit 0. The
        # digest was recorded through the pair-only helper these methods
        # replaced.
        h = hashlib.sha256()
        rng = np.random.default_rng(25)

        def draw(shape):
            if rng.integers(2):
                return rng.integers(-2, 3, size=shape).astype(float)
            return rng.normal(size=shape)

        for _ in range(3000):
            d, n, c = (int(v) for v in rng.integers((1, 1, 1), (12, 60, 6)))
            pair = HalfspacePair(draw(d + 1) if c == 1 else draw((c, d + 1)), draw(d + 1))
            x = draw((n, d))
            for a in (*pair.decide(x), pair.rejection_scores(x)):
                h.update(a.tobytes())
        assert h.hexdigest() == "fadac7aa8a603fd058ea5cab6e1572090aaf2cfb1944f0345c12aa27d3536ad3"

    def test_halfspace_system_loss(self):
        # rejector defers iff x0 >= 0; classifier always predicts 0
        pair = HalfspacePair([0.0, -1.0], [1.0, 0.0])
        ds = DeferDataset([[1.0], [-1.0]], [1, 1], [1, 0], 2)
        # point 0 deferred, human right; point 1 kept, classifier says 0, wrong
        assert system_loss_01(ds, *pair.decide(ds.features)) == 0.5


class TestAugment:
    def test_vector_and_matrix(self):
        assert augment([1.0, 2.0]).tolist() == [1.0, 2.0, 1.0]
        out = augment(np.zeros((2, 2)))
        assert out.shape == (2, 3)
        assert out[:, 2].tolist() == [1.0, 1.0]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = DeferDataset(rng.normal(size=(7, 3)), rng.integers(0, 3, 7), rng.integers(0, 3, 7), 3)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.human_preds, ds.human_preds)
        assert back.num_classes == 3

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y,h\nnan,0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset_csv(path)

    def test_rejects_inf(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y,h\ninf,0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset_csv(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y,h\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset_csv(path)
