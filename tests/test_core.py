import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab.core import (
    DeferDataset,
    HalfspacePair,
    augment,
    halfspace_system_loss,
    load_dataset_csv,
    pair_decisions,
    predict_halfspace,
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
    def test_zero_rejector_defers_everywhere(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        for x in ([0.0, 0.0], [5.0, -3.0], [-1.0, 2.0]):
            assert predict_halfspace(pair, x).deferred

    def test_binary_sign(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, -1.0])
        p = predict_halfspace(pair, [-2.0, 5.0])
        assert p.classifier_label == 0
        assert not p.deferred
        assert p.final_label == 0

    def test_multiclass_tie_breaks_low(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        pair = HalfspacePair(m, [0.0, 0.0, -1.0])
        p = predict_halfspace(pair, [3.0, 3.0])
        assert p.classifier_label == 0

    def test_final_label_uses_human_when_deferred(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        p = predict_halfspace(pair, [2.0, 0.0], human_pred=1)
        assert p.deferred and p.final_label == 1
        assert predict_halfspace(pair, [2.0, 0.0]).final_label is None

    def test_dimension_mismatch(self):
        pair = HalfspacePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            predict_halfspace(pair, [1.0, 2.0, 3.0])

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
        a = predict_halfspace(pair, x)
        b = predict_halfspace(scaled, x)
        assert a.deferred == b.deferred
        assert a.classifier_label == b.classifier_label

    def test_pure_function(self):
        pair = HalfspacePair([0.3, -0.7, 0.1], [0.5, 0.5, -0.2])
        x = [1.5, -2.5]
        assert predict_halfspace(pair, x) == predict_halfspace(pair, x)


class TestBatchHelpers:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        pair = HalfspacePair(rng.normal(size=(3, 4)), rng.normal(size=4))
        xs = rng.normal(size=(20, 3))
        deferred, labels, scores = pair_decisions(pair, xs)
        for i in range(20):
            p = predict_halfspace(pair, xs[i])
            assert p.deferred == deferred[i]
            assert p.classifier_label == labels[i]
            assert p.rejection_score == pytest.approx(scores[i])

    def test_halfspace_system_loss(self):
        # rejector defers iff x0 >= 0; classifier always predicts 0
        pair = HalfspacePair([0.0, -1.0], [1.0, 0.0])
        ds = DeferDataset([[1.0], [-1.0]], [1, 1], [1, 0], 2)
        # point 0 deferred, human right; point 1 kept, classifier says 0, wrong
        assert halfspace_system_loss(pair, ds) == 0.5


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
