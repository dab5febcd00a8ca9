import numpy as np
import pytest

from deferlab.core import halfspace_system_loss, pair_decisions
from deferlab.datagen import (
    GroupedExpertConfig,
    SyntheticConfig,
    generate_grouped_expert,
    generate_instance,
    generate_synthetic,
    save_instance_metadata,
)


class TestConfigValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            SyntheticConfig(d=2, n=10, p_m=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(d=0, n=10)
        with pytest.raises(ValueError):
            SyntheticConfig(d=2, n=10, U=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(d=2, n=10, distribution="cauchy")

    @pytest.mark.parametrize("name", ["U", "std_scale", "margin", "p_m", "p_h0", "p_h1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nan_and_infinite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticConfig(d=2, n=10, **{name: value})

    @pytest.mark.parametrize("name", ["U", "blob_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_grouped_nan_and_infinite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            GroupedExpertConfig(d=2, n=10, C=4, K=2, **{name: value})

    def test_grouped_k_range(self):
        with pytest.raises(ValueError):
            GroupedExpertConfig(d=2, n=10, C=4, K=5)
        with pytest.raises(ValueError):
            generate_grouped_expert(d=2, n=10, C=4, K=5)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = SyntheticConfig(d=5, n=200, distribution="gaussian_mixture", seed=99)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)
        np.testing.assert_array_equal(a.dataset.human_preds, b.dataset.human_preds)
        np.testing.assert_array_equal(
            a.planted_pair.classifier_weights, b.planted_pair.classifier_weights
        )

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(d=5, n=200, seed=1))
        b = generate_synthetic(SyntheticConfig(d=5, n=200, seed=2))
        assert not np.array_equal(a.dataset.features, b.dataset.features)

    def test_grouped_deterministic(self):
        a = generate_grouped_expert(d=3, n=100, C=5, K=2, seed=4)
        b = generate_grouped_expert(d=3, n=100, C=5, K=2, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.human_preds, b.human_preds)


class TestRealizability:
    @pytest.mark.parametrize("dist", ["uniform", "gaussian_mixture"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_planted_pair_zero_loss(self, dist, seed):
        cfg = SyntheticConfig(
            d=30, n=500, distribution=dist, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=seed
        )
        inst = generate_synthetic(cfg)
        assert halfspace_system_loss(inst.planted_pair, inst.dataset) == 0.0

    def test_forced_human_errors(self):
        cfg = SyntheticConfig(d=3, n=400, p_m=0.0, p_h0=1.0, p_h1=1.0, seed=7)
        inst = generate_synthetic(cfg)
        assert np.mean(inst.dataset.human_correct) == 0.0


class TestMarginals:
    def test_planted_loss_matches_noise_mixture(self):
        # empirical planted loss converges to (p_m/2) P(r*=0) + p_h1 P(r*=1):
        # uniform labels on the kept side disagree with m* half the time
        cfg = SyntheticConfig(
            d=10, n=10000, p_m=0.1, p_h0=0.4, p_h1=0.1, seed=11, distribution="gaussian_mixture"
        )
        inst = generate_synthetic(cfg)
        deferred, _, _ = pair_decisions(inst.planted_pair, inst.dataset.features)
        frac_defer = float(np.mean(deferred))
        expected = 0.05 * (1 - frac_defer) + 0.1 * frac_defer
        loss = halfspace_system_loss(inst.planted_pair, inst.dataset)
        assert loss == pytest.approx(expected, abs=0.02)

    def test_human_error_rates_by_region(self):
        cfg = SyntheticConfig(d=5, n=20000, p_m=0.0, p_h0=0.4, p_h1=0.1, seed=3)
        inst = generate_synthetic(cfg)
        deferred, _, _ = pair_decisions(inst.planted_pair, inst.dataset.features)
        hw = ~inst.dataset.human_correct
        err_kept = float(np.mean(hw[~deferred]))
        err_defer = float(np.mean(hw[deferred]))
        # 3-sigma binomial bands
        n0, n1 = int(np.sum(~deferred)), int(np.sum(deferred))
        assert abs(err_kept - 0.4) < 3 * np.sqrt(0.4 * 0.6 / n0)
        assert abs(err_defer - 0.1) < 3 * np.sqrt(0.1 * 0.9 / n1)

    def test_region_mass_floor(self):
        for seed in range(10):
            inst = generate_synthetic(SyntheticConfig(d=4, n=2000, seed=seed))
            deferred, _, _ = pair_decisions(inst.planted_pair, inst.dataset.features)
            frac = float(np.mean(deferred))
            assert 0.05 <= frac <= 0.95


class TestGroupedExpert:
    def test_perfect_expert(self):
        ds = generate_grouped_expert(d=4, n=500, C=10, K=10, seed=0)
        assert float(np.mean(ds.human_correct)) == 1.0

    def test_uniform_guess(self):
        ds = generate_grouped_expert(d=4, n=20000, C=10, K=0, seed=1)
        acc = float(np.mean(ds.human_correct))
        assert abs(acc - 0.1) < 3 * np.sqrt(0.1 * 0.9 / 20000)

    def test_half_expert(self):
        ds = generate_grouped_expert(d=4, n=20000, C=10, K=5, seed=2)
        acc = float(np.mean(ds.human_correct))
        assert abs(acc - 0.55) < 3 * np.sqrt(0.55 * 0.45 / 20000)

    def test_balanced_classes(self):
        ds = generate_grouped_expert(d=3, n=1000, C=10, K=5, seed=3)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.min() == counts.max() == 100


class TestMetadataSidecar:
    def test_key_value_format(self, tmp_path):
        cfg = SyntheticConfig(d=2, n=10, seed=5)
        inst = generate_synthetic(cfg)
        path = tmp_path / "meta.txt"
        save_instance_metadata(path, cfg, inst.planted_pair)
        text = path.read_text()
        assert "seed=5" in text
        assert "p_h0=0.3" in text
        assert "planted_rejector=" in text
        kv = dict(line.split("=", 1) for line in text.strip().splitlines())
        r = np.array([float(v) for v in kv["planted_rejector"].split(",")])
        np.testing.assert_allclose(r, inst.planted_pair.rejector_weights)

    def test_either_kind_from_one_function(self, tmp_path):
        # the dataset and sidecar of each kind, byte for byte
        syn = SyntheticConfig(d=2, n=10, seed=5)
        ds, pair = generate_instance(syn)
        planted = generate_synthetic(syn)
        np.testing.assert_array_equal(ds.features, planted.dataset.features)
        np.testing.assert_array_equal(pair.rejector_weights, planted.planted_pair.rejector_weights)
        save_instance_metadata(tmp_path / "syn.txt", syn)
        assert (tmp_path / "syn.txt").read_text() == (
            "seed=5\nd=2\nn=10\ndistribution=gaussian_mixture\nU=10.0\nK=10\n"
            "std_scale=1.0\nmargin=0.0\np_m=0.0\np_h0=0.3\np_h1=0.0\n")
        grouped = GroupedExpertConfig(d=3, n=40, C=4, K=2, U=3.5, blob_std=2.0, seed=9)
        ds, pair = generate_instance(grouped)
        assert pair is None
        np.testing.assert_array_equal(
            ds.features, generate_grouped_expert(3, 40, 4, 2, 9, U=3.5, blob_std=2.0).features)
        save_instance_metadata(tmp_path / "grouped.txt", grouped)
        assert (tmp_path / "grouped.txt").read_text() == (
            "kind=grouped\nseed=9\nd=3\nn=40\nC=4\nexpert_k=2\nU=3.5\nblob_std=2.0\n")
        with pytest.raises(ValueError):
            generate_instance(object())
