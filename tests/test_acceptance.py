"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
status. The heavy reproductions (criteria 1 and 2) train every method on
freshly generated instances and take a few minutes combined.
"""

import time

import numpy as np
import pytest

from deferlab.core import DeferDataset, halfspace_system_loss, pair_decisions
from deferlab.datagen import SyntheticConfig, generate_grouped_expert, generate_synthetic
from deferlab.evaluation import generalization_bound
from deferlab.milp import (
    MilpConfig,
    add_coverage_constraint,
    add_fairness_constraint,
    build_binary_milp,
    solve_milp,
)
from deferlab.surrogates import surrogate_loss
from deferlab.train import TrainConfig, train_method, system_accuracy
from oracles import brute_force_deferral_optimum

# the synthetic benchmark geometry: diffuse mixture with carved margin
# corridors around the planted boundaries (margin assumption on the sample)
REALIZABLE = dict(d=30, distribution="gaussian_mixture", U=10.0, K=10,
                  std_scale=1.0, margin=0.3, p_m=0.0, p_h0=0.3, p_h1=0.0)
NONREALIZABLE = dict(d=10, distribution="gaussian_mixture", U=10.0, K=20,
                     std_scale=1.3, margin=0.0, p_m=0.1, p_h0=0.4, p_h1=0.1)
TRAINING = dict(epochs=300, batch_size=64, learning_rate=0.1)


def _splits(data_kwargs, seed, n_train=1000, n_val=200, n_test=5000):
    total = n_train + n_val + n_test
    inst = generate_synthetic(SyntheticConfig(n=total, seed=seed, **data_kwargs))
    ds = inst.dataset
    return (ds.subset(np.arange(n_train)),
            ds.subset(np.arange(n_train, n_train + n_val)),
            ds.subset(np.arange(n_train + n_val, total)))


def _test_error(system, test):
    deferred, labels = system.decide(test.features)
    return 1.0 - system_accuracy(deferred, labels, test)


class TestCriterion1RealizableReproduction:
    def test_milp_and_rs_reach_zero_baselines_fail(self):
        trials = 10
        methods = ("ce", "ova", "confidence", "selective", "triage", "moe")
        milp_test, rs_test = [], []
        baseline_test = {m: [] for m in methods}
        t0 = time.time()
        for trial in range(trials):
            train, val, test = _splits(REALIZABLE, seed=trial, n_val=1000)
            cfg = TrainConfig(seed=trial, **TRAINING)

            sol = solve_milp(build_binary_milp(train, MilpConfig()),
                             MilpConfig(time_limit_s=120.0))
            assert sol.train_loss == 0.0, f"trial {trial}: MILP train loss {sol.train_loss}"
            milp_test.append(halfspace_system_loss(sol.pair, test))

            rs = train_method("rs", train, val, cfg)
            assert rs.min_train_error == 0.0, (
                f"trial {trial}: RS never reached train error 0 ({rs.min_train_error})"
            )
            rs_test.append(_test_error(rs, test))

            for m in methods:
                baseline_test[m].append(_test_error(train_method(m, train, val, cfg), test))

        milp_mean = float(np.mean(milp_test))
        rs_mean = float(np.mean(rs_test))
        assert milp_mean <= 0.02, f"MILP mean test error {milp_mean:.4f} > 2%"
        assert rs_mean <= 0.02, f"RS mean test error {rs_mean:.4f} > 2%"
        gaps = {}
        for m in methods:
            gaps[m] = float(np.mean(baseline_test[m])) - rs_mean
            assert gaps[m] >= 0.05, (
                f"baseline {m} mean test error only {gaps[m]:.4f} above RS"
            )
        print(f"\nPASS criterion 1: realizable reproduction over {trials} trials "
              f"({time.time() - t0:.0f}s). MILP/RS train error 0 on every trial; "
              f"mean test MILP={milp_mean:.4f}, RS={rs_mean:.4f}; baseline gaps "
              + ", ".join(f"{m}=+{gaps[m]:.3f}" for m in methods))


class TestCriterion2NonRealizableRegime:
    def test_error_bands_and_ordering(self):
        trials = 5
        rows = []
        t0 = time.time()
        for trial in range(trials):
            train, val, test = _splits(NONREALIZABLE, seed=trial)
            cfg = TrainConfig(seed=trial, **TRAINING)
            out = {}
            sol = solve_milp(build_binary_milp(train, MilpConfig()),
                             MilpConfig(time_limit_s=30.0))
            out["milp"] = halfspace_system_loss(sol.pair, test)
            for m in ("rs", "ce", "ova"):
                out[m] = _test_error(train_method(m, train, val, cfg), test)
            rows.append(out)
        milp_mean = float(np.mean([r["milp"] for r in rows]))
        rs_mean = float(np.mean([r["rs"] for r in rows]))
        assert 0.09 <= milp_mean <= 0.14, f"MILP mean test {milp_mean:.4f} outside [9%, 14%]"
        assert 0.14 <= rs_mean <= 0.21, f"RS mean test {rs_mean:.4f} outside [14%, 21%]"
        ordered = sum(1 for r in rows if r["milp"] < r["rs"] < min(r["ce"], r["ova"]))
        assert ordered >= 4, f"MILP < RS < best baseline held in only {ordered}/5 trials"
        print(f"\nPASS criterion 2: non-realizable regime ({time.time() - t0:.0f}s). "
              f"MILP={milp_mean:.4f} in [.09,.14], RS={rs_mean:.4f} in [.14,.21], "
              f"ordering {ordered}/5")


class TestCriterion3MilpExactness:
    def test_fifty_small_instances_match_enumeration(self):
        rng = np.random.default_rng(20240404)
        t0 = time.time()
        realizable_count = 0
        for trial in range(50):
            n = int(rng.integers(4, 13))
            x = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            y = rng.integers(0, 2, n)
            h = np.where(rng.random(n) < rng.uniform(0.2, 0.9), y, 1 - y)
            ds = DeferDataset(x, y, h, 2)
            oracle = brute_force_deferral_optimum(ds)
            realizable_count += oracle == 0.0
            sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
            assert sol.status == "proven_optimal", f"trial {trial}: {sol.status}"
            assert sol.objective == pytest.approx(oracle, abs=1e-9), (
                f"trial {trial}: milp {sol.objective} vs enumeration {oracle}"
            )
        elapsed = time.time() - t0
        assert elapsed <= 300.0, f"exactness suite took {elapsed:.0f}s > 5 min"
        print(f"\nPASS criterion 3: 50/50 instances match brute force exactly "
              f"({realizable_count} realizable) in {elapsed:.0f}s")


class TestCriterion4Theorem2Bound:
    def test_pointwise_upper_bound_on_100k_draws(self):
        rng = np.random.default_rng(99)
        total = 0
        for c in (2, 3, 5, 10):
            n = 25000
            g = rng.normal(scale=4.0, size=(n, c + 1))
            y = rng.integers(0, c, n)
            hc = rng.integers(0, 2, n).astype(bool)
            vals, _ = surrogate_loss("rs", g, y, hc, 1.0)
            labels = np.argmax(g[:, :c], axis=1)
            defer = g[:, -1] >= g[:, :c].max(axis=1)
            zero_one = np.where(defer, ~hc, labels != y).astype(float)
            assert np.all(zero_one <= vals + 1e-12)
            total += n
        print(f"\nPASS criterion 4: 0-1 system loss <= realizable-surrogate value on "
              f"all {total} draws")


class TestCriterion5GradientSuite:
    LOSSES = [
        ("rs", lambda g, y, hc: surrogate_loss("rs", g, y, hc, 1.0)),
        ("rs_alpha", lambda g, y, hc: surrogate_loss("rs", g, y, hc, 0.4)),
        ("rs2", lambda g, y, hc: surrogate_loss("rs2", g, y, hc)),
        ("ce_alpha", lambda g, y, hc: surrogate_loss("ce", g, y, hc, 0.7)),
        ("ova", lambda g, y, hc: surrogate_loss("ova", g, y, hc)),
        ("moe", lambda g, y, hc: surrogate_loss("moe", g, y, hc)),
    ]

    def test_all_six_losses_match_central_differences(self):
        step = 1e-5
        rng = np.random.default_rng(41)
        for name, fn in self.LOSSES:
            worst = 0.0
            for _ in range(1000):
                c = int(rng.integers(2, 6))
                g = rng.normal(scale=3.0, size=c + 1)
                y = int(rng.integers(0, c))
                hc = bool(rng.integers(0, 2))
                _, grads = fn(g[None, :], [y], [hc])
                for j in range(c + 1):
                    up, dn = g.copy(), g.copy()
                    up[j] += step
                    dn[j] -= step
                    fd = (fn(up[None, :], [y], [hc])[0][0]
                          - fn(dn[None, :], [y], [hc])[0][0]) / (2 * step)
                    rel = abs(grads[0, j] - fd) / max(1.0, abs(fd))
                    worst = max(worst, rel)
                    assert rel <= 1e-4, f"{name}: coord {j} rel err {rel:.2e}"
            print(f"\nPASS criterion 5 [{name}]: 1000 draws, worst relative error {worst:.2e}")


class TestCriterion6Theorem3Check:
    @staticmethod
    def _region_scores(c, assignment):
        out = np.zeros((4, 4))
        for head, region in enumerate(assignment):
            out[region, head] = c
        return out

    def test_ce_prefers_positive_error_solution(self):
        masses = np.array([1 / 4 + 0.125, 1 / 4, 1 / 4 - 0.125, 1 / 4])
        labels = np.array([0, 1, 0, 2])
        human_correct = np.array([True, False, False, False])
        for c in (0.5, 1.0, 2.0):
            f_star = self._region_scores(c, (2, 1, 3, 0))  # zero system error
            f_hat = self._region_scores(c, (0, 1, 3, 0))  # deviates on the class-0 head
            v_star, _ = surrogate_loss("ce", f_star, labels, human_correct, 1.0)
            v_hat, _ = surrogate_loss("ce", f_hat, labels, human_correct, 1.0)
            assert masses @ v_hat < masses @ v_star, f"c={c}"

            def system_err(scores):
                lab = np.argmax(scores[:, :3], axis=1)
                defer = scores[:, 3] >= scores[:, :3].max(axis=1)
                wrong = np.where(defer, ~human_correct, lab != labels)
                return float(masses @ wrong)

            assert system_err(f_star) == 0.0
            assert system_err(f_hat) > 0.0
        print("\nPASS criterion 6: deviating solution has lower expected deferral "
              "cross-entropy but strictly positive 0-1 loss at c in {0.5, 1, 2}")


class TestCriterion7ConstraintCompliance:
    def _instance(self):
        # 30 points, two interleaved groups with equal human error counts,
        # so constrained optima exist and are reachable quickly
        rng = np.random.default_rng(303)
        x = rng.normal(size=(30, 2)) * 1.5
        y = rng.integers(0, 2, 30)
        groups = np.arange(30) % 2
        h = y.copy()
        for g in (0, 1):
            wrong = rng.choice(np.flatnonzero(groups == g), size=4, replace=False)
            h[wrong] = 1 - h[wrong]
        return DeferDataset(x, y, h, 2), groups

    def test_coverage_budgets(self):
        ds, _ = self._instance()
        base = build_binary_milp(ds, MilpConfig())
        t0 = time.time()
        for beta in (0.0, 0.25, 0.5, 1.0):
            sol = solve_milp(add_coverage_constraint(base, beta),
                             MilpConfig(time_limit_s=15.0))
            assert sol.pair is not None
            deferred, _, _ = pair_decisions(sol.pair, ds.features)
            assert deferred.mean() <= beta + 1e-9, f"beta={beta}"
        print(f"\nPASS criterion 7a: coverage satisfied at beta in "
              f"{{0, 0.25, 0.5, 1}} ({time.time() - t0:.0f}s)")

    def test_fairness_equalizes_group_means(self):
        ds, groups = self._instance()
        prob = add_fairness_constraint(build_binary_milp(ds, MilpConfig()), groups)
        t0 = time.time()
        sol = solve_milp(prob, MilpConfig(time_limit_s=30.0))
        assert sol.pair is not None
        deferred, labels, _ = pair_decisions(sol.pair, ds.features)
        xt = prob.xt
        m_norm = np.array(sol.pair.classifier_weights)
        m_norm[:-1] *= prob.norm_scale
        t = ((2 * ds.labels - 1) * (xt @ m_norm) < prob.gamma).astype(float)
        r = deferred.astype(float)
        cost = np.maximum(0.0, t - r) + r * prob.err
        diff = abs(cost[groups == 0].mean() - cost[groups == 1].mean())
        assert diff <= 1e-6 + 1e-12, f"group means differ by {diff}"
        print(f"\nPASS criterion 7b: fairness group means equal within 1e-6 "
              f"(diff {diff:.2e}, {time.time() - t0:.0f}s)")


class TestCriterion8BoundCalculator:
    def test_hand_arithmetic(self):
        v = generalization_bound(0.0, 1.0, 1.0, 2, 100, 0.5, 0.1)
        assert v == pytest.approx(3.1138, abs=1e-3)

    def test_bound_dominates_train_loss(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tl = float(rng.uniform(0, 1))
            v = generalization_bound(
                tl, rng.uniform(0.05, 4), rng.uniform(0.05, 4), int(rng.integers(1, 64)),
                int(rng.integers(1, 100000)), float(rng.uniform(0.001, 1)),
                float(rng.uniform(0.001, 0.499)),
            )
            assert v >= tl
        print("\nPASS criterion 8: bound matches hand arithmetic to 1e-3 and "
              "dominates the train loss on 200 random inputs")


class TestCriterion9GroupedExpertSweep:
    def test_rs_beats_compare_confidence(self):
        wins = 0
        details = []
        t0 = time.time()
        for k in (2, 4, 6, 8):
            ds = generate_grouped_expert(d=10, n=3400, C=10, K=k, seed=100 + k,
                                         U=5.0, blob_std=2.0)
            train = ds.subset(np.arange(2000))
            val = ds.subset(np.arange(2000, 2400))
            test = ds.subset(np.arange(2400, 3400))
            cfg = TrainConfig(epochs=150, batch_size=128, learning_rate=0.05,
                              seed=k, alpha_grid=(0.0, 0.5, 1.0))
            accs = {}
            for m in ("rs", "confidence"):
                system = train_method(m, train, val, cfg)
                deferred, labels = system.decide(test.features)
                accs[m] = system_accuracy(deferred, labels, test)
            wins += accs["rs"] >= accs["confidence"]
            details.append(f"K={k}: rs={accs['rs']:.3f} cc={accs['confidence']:.3f}")
        assert wins >= 3, f"RS beat CompareConfidence in only {wins}/4 settings"
        print(f"\nPASS criterion 9: grouped-expert sweep, RS >= CompareConfidence in "
              f"{wins}/4 settings ({time.time() - t0:.0f}s). " + "; ".join(details))
