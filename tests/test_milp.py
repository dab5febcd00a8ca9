import copy
import hashlib
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab.lp as lp_module
import deferlab.milp as milp
from deferlab.core import DeferDataset, pair_decisions, system_loss_01
from deferlab.datagen import SyntheticConfig, generate_synthetic
from deferlab.lp import LinearProgram, solve_lp
from deferlab.milp import (
    MilpConfig,
    add_coverage_constraint,
    add_fairness_constraint,
    build_binary_milp,
    build_milp,
    solve_milp,
)
from oracles import brute_force_deferral_optimum


def random_binary_dataset(rng, n, d=2, human_acc=0.6):
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n)
    h = np.where(rng.random(n) < human_acc, y, 1 - y)
    return DeferDataset(x, y, h, 2)


class TestConfig:
    def test_defaults_mirror_reference_constants(self):
        cfg = MilpConfig()
        assert cfg.gamma == 1e-5
        assert cfg.box == 1.0
        ds = random_binary_dataset(np.random.default_rng(0), 4)
        problem = build_binary_milp(ds, cfg)
        assert problem.k_m == problem.k_r == 1.0 + 1e-5
        problem = build_binary_milp(ds, MilpConfig(gamma=0.01, box=2.0))
        assert problem.k_m == problem.k_r == 2.0 + 0.01

    def test_fields(self):
        # fairness rows come from add_fairness_constraint, not from the config
        assert [f.name for f in fields(MilpConfig)] == [
            "gamma", "box", "lambda_reg", "coverage_beta", "time_limit_s", "abs_gap",
            "node_limit"]

    def test_validation(self):
        with pytest.raises(ValueError):
            MilpConfig(gamma=0.0)
        with pytest.raises(ValueError):
            MilpConfig(coverage_beta=1.5)
        with pytest.raises(ValueError):
            MilpConfig(lambda_reg=-0.1)
        # a negative gap switches pruning off, so the tree runs on past a
        # proof; limits below 0 mean nothing
        for name in ("abs_gap", "time_limit_s", "node_limit"):
            with pytest.raises(ValueError, match=name):
                MilpConfig(**{name: -1})
            assert getattr(MilpConfig(**{name: 0}), name) == 0
        # NaN fails every check: a NaN time limit never expires and a NaN gap
        # switches pruning off; the formulation constants and the gap must be
        # finite, while an infinite time or node limit is no limit
        nan, inf = float("nan"), float("inf")
        for name in ("gamma", "box", "lambda_reg", "abs_gap", "coverage_beta",
                     "time_limit_s", "node_limit"):
            with pytest.raises(ValueError, match=name):
                MilpConfig(**{name: nan})
        for name in ("gamma", "box", "lambda_reg", "abs_gap"):
            for value in (inf, -inf):
                with pytest.raises(ValueError, match=name):
                    MilpConfig(**{name: value})
        for name in ("time_limit_s", "node_limit"):
            assert getattr(MilpConfig(**{name: inf}), name) == inf


class TestBuildBinary:
    def test_counts_n1_d1(self):
        ds = DeferDataset([[2.0]], [1], [0], 2)
        prob = build_binary_milp(ds, MilpConfig())
        lp = prob.lp_relaxation
        assert len(prob.binary_var_ids) == 2  # t_1, r_1
        lay = prob._layout()
        assert lp.num_vars == lay["total"]
        assert len(range(lp.num_vars)[lay["phi"]]) == 1
        # two length-2 vectors, M then R, at the front of the layout
        assert (lay["M"], lay["R"]) == (slice(0, 2), slice(2, 4))
        assert lp.num_rows == 4  # the four per-point constraint rows

    def test_regularization_adds_aux(self):
        ds = DeferDataset(np.ones((3, 4)), [0, 1, 0], [0, 0, 1], 2)
        plain = build_binary_milp(ds, MilpConfig())
        reg = build_binary_milp(ds, MilpConfig(lambda_reg=0.01))
        d1 = ds.d + 1
        assert reg.lp_relaxation.num_vars - plain.lp_relaxation.num_vars == 2 * d1
        aux = reg._layout()["aux"]
        assert (aux.start, aux.stop) == (plain.lp_relaxation.num_vars, reg.lp_relaxation.num_vars)
        assert "aux" not in plain._layout()

    def test_rejects_multiclass_data(self):
        ds = DeferDataset(np.ones((3, 1)), [0, 1, 2], [0, 1, 2], 3)
        with pytest.raises(ValueError):
            build_binary_milp(ds, MilpConfig())

    def test_objective_coefficients(self):
        rng = np.random.default_rng(0)
        ds = random_binary_dataset(rng, 5)
        prob = build_binary_milp(ds, MilpConfig())
        lp = prob.lp_relaxation
        lay = prob._layout()
        np.testing.assert_allclose(lp.c[lay["phi"]], 1.0 / 5)
        np.testing.assert_allclose(lp.c[lay["r"]], prob.err / 5)
        binary_lo = lp.lo[prob.binary_var_ids]
        binary_hi = lp.hi[prob.binary_var_ids]
        assert np.all(binary_lo == 0.0) and np.all(binary_hi == 1.0)

    def test_zero_variance_dataset_still_valid(self):
        ds = DeferDataset(np.zeros((4, 2)), [0, 1, 0, 1], [0, 1, 1, 0], 2)
        prob = build_binary_milp(ds, MilpConfig())
        sol = solve_milp(prob, MilpConfig())
        assert sol.status == "proven_optimal"


class TestSolveBasics:
    def test_perfect_human_defers_everything(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, 8)
        ds = DeferDataset(x, y, y, 2)
        sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        assert sol.status == "proven_optimal"
        assert sol.objective == 0.0
        assert sol.train_loss == 0.0

    def test_realizable_planted_instance(self):
        inst = generate_synthetic(
            SyntheticConfig(d=2, n=20, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=1)
        )
        sol = solve_milp(build_binary_milp(inst.dataset, MilpConfig()), MilpConfig())
        assert sol.status == "proven_optimal"
        assert sol.objective == 0.0

    def test_node_limit_zero_proves_a_zero_incumbent(self):
        # the root's bound 0 meets an incumbent of objective 0, so stopping
        # before the first node leaves nothing unproven
        inst = generate_synthetic(
            SyntheticConfig(d=2, n=20, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=1)
        )
        sol = solve_milp(build_binary_milp(inst.dataset, MilpConfig()), MilpConfig(node_limit=0))
        assert (sol.status, sol.objective, sol.nodes_explored, sol.best_bound) == (
            "proven_optimal", 0.0, 0, 0.0)

    def test_xor_instance(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1, 0, 0, 1])
        ds = DeferDataset(x, y, 1 - y, 2)
        sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        assert sol.status == "proven_optimal"
        assert sol.objective == pytest.approx(0.25)

    def test_objective_times_n_is_integer(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            ds = random_binary_dataset(rng, int(rng.integers(5, 11)))
            sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
            assert sol.status == "proven_optimal"
            v = sol.objective * ds.n
            assert abs(v - round(v)) < 1e-6

    def test_round_trip_objective_minus_reg(self):
        rng = np.random.default_rng(3)
        ds = random_binary_dataset(rng, 10)
        sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        assert sol.train_loss == pytest.approx(sol.objective - sol.regularization)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        ds = random_binary_dataset(rng, 9)
        a = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        b = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        assert a.objective == b.objective
        assert a.nodes_explored == b.nodes_explored
        np.testing.assert_array_equal(a.pair.rejector_weights, b.pair.rejector_weights)

    def test_monotone_bound_and_incumbent_histories(self):
        rng = np.random.default_rng(11)
        ds = random_binary_dataset(rng, 10, human_acc=0.5)
        sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        bh = np.array(sol.bound_history)
        ih = np.array(sol.incumbent_history)
        assert np.all(np.diff(bh) >= -1e-12)
        assert np.all(np.diff(ih) <= 1e-12)

    def test_proven_optimal_gap(self):
        rng = np.random.default_rng(13)
        ds = random_binary_dataset(rng, 8, human_acc=0.4)
        cfg = MilpConfig()
        sol = solve_milp(build_binary_milp(ds, cfg), cfg)
        assert sol.status == "proven_optimal"
        assert abs(sol.objective - sol.best_bound) <= 0.4 / ds.n + 1e-12


class TestNumericalFailures:
    def test_numerical_lps_never_prove_optimality(self, monkeypatch):
        # alternating labels on a line with the human always wrong: no
        # halfspace pair reaches zero loss
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        y = np.array([0, 1, 0, 1])
        ds = DeferDataset(x, y, 1 - y, 2)
        problem = build_binary_milp(ds, MilpConfig())
        sound = solve_milp(problem, MilpConfig())
        assert sound.status == "proven_optimal" and sound.objective > 0.0

        def singular(B):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(lp_module, "_invert", singular)
        assert solve_lp(problem.lp_relaxation).status == "numerical"
        sol = solve_milp(problem, MilpConfig())
        assert sol.status != "proven_optimal"
        assert sol.objective >= sound.objective - 1e-12


class TestIntegralSolutionSemantics:
    def test_constraint_roles_at_integral_solution(self):
        # solve the LP with binaries pinned at the optimum's decisions and
        # verify t, r, phi behave as the big-M rows intend
        rng = np.random.default_rng(21)
        ds = random_binary_dataset(rng, 8, human_acc=0.5)
        prob = build_binary_milp(ds, MilpConfig())
        sol = solve_milp(prob, MilpConfig())
        deferred, labels, _ = pair_decisions(sol.pair, ds.features)
        xt = prob.xt
        m_norm = np.array(sol.pair.classifier_weights, dtype=float)
        m_norm[:-1] *= prob.norm_scale
        r_norm = np.array(sol.pair.rejector_weights, dtype=float)
        r_norm[:-1] *= prob.norm_scale
        racts = xt @ r_norm
        assert np.all((racts >= 0) == deferred)
        # rejector margin semantics: decisions sit outside the gamma band
        assert np.all(np.abs(racts) >= prob.gamma - 1e-12)
        t = ((2 * ds.labels - 1) * (xt @ m_norm) < prob.gamma).astype(float)
        r = deferred.astype(float)
        phi = np.maximum(0.0, t - r)
        obj = float(np.sum(phi + r * prob.err)) / prob.n
        assert obj == pytest.approx(sol.objective)


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 13))
        human_acc = float(rng.uniform(0.2, 0.8))
        ds = random_binary_dataset(rng, n, human_acc=human_acc)
        oracle = brute_force_deferral_optimum(ds)
        sol = solve_milp(build_binary_milp(ds, MilpConfig()), MilpConfig())
        assert sol.status == "proven_optimal"
        assert sol.objective == pytest.approx(oracle, abs=1e-9)


class TestMulticlass:
    def test_c2_matches_binary(self):
        # the binary classifier row y_i M.x_i is the 2-class Kesler row
        # (e_y - e_j) kron x_i with the M_0 columns dropped (M_0 = 0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 2))
        x[:4, 0] = [0.0, -0.0, -0.0, 0.0]
        ds = DeferDataset(x, [0, 0, 1, 1] + [0, 1] * 3, np.zeros(10, dtype=int), 2)
        problem = build_binary_milp(ds, MilpConfig())
        kesler = np.zeros((problem.n, 2, problem.d1))
        for i, y in enumerate(ds.labels):
            kesler[i, y] = problem.xt[i]
            kesler[i, 1 - y] = -problem.xt[i]
        m_1 = kesler[:, 1]
        # each point's rows: phi, classifier, then the two rejector rows
        clf = problem.lp_relaxation.A[1::4, problem._layout()["M"]]
        assert clf.tobytes() == m_1.tobytes()
        assert np.array_equal(np.signbit(clf), np.signbit(m_1))
        assert np.signbit(m_1[:4, 0]).tolist() == [True, False, True, False]

    def test_three_classes_small(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(loc=c * 4.0, size=(4, 2)) for c in range(3)])
        y = np.repeat([0, 1, 2], 4)
        h = np.where(rng.random(12) < 0.5, y, (y + 1) % 3)
        ds = DeferDataset(x, y, h, 3)
        sol = solve_milp(build_milp(ds, MilpConfig()), MilpConfig())
        assert sol.status == "proven_optimal"
        # blobs are separated by 4 sigma, so a zero-loss triple exists
        assert sol.objective == pytest.approx(0.0)

    def test_t_constraint_arithmetic(self):
        # one row K_m t_i + (M_y - M_j).x_i >= gamma per other class j: with
        # a scored candidate's weights, t_i = 1 satisfies every row and t_i =
        # 0 satisfies them exactly where all of the point's margins clear gamma
        C, n = 4, 6
        rng = np.random.default_rng(3)
        ds = DeferDataset(rng.normal(size=(n, 2)), np.arange(n) % C, np.zeros(n, dtype=int), C)
        problem = build_milp(ds, MilpConfig())
        lp = problem.lp_relaxation
        lay = problem._layout()
        assert "c" not in lay and len(problem.binary_var_ids) == 2 * n
        assert lp.num_rows == n * (C + 2) == problem.num_rows_estimate
        clf = np.flatnonzero((lp.A[:, lay["t"]] == problem.k_m).any(axis=1))
        assert len(clf) == n * (C - 1)
        assert np.all(lp.b[clf] == problem.gamma)
        assert all(lp.senses[k] == ">=" for k in clf)
        cand = milp._score_candidate(problem, rng.normal(size=(C, 3)), np.array([0.0, 0.0, -1.0]))
        x = np.zeros(problem.lp_relaxation.num_vars)
        x[lay["M"]] = cand.m_norm.ravel()
        scores = problem.xt @ cand.m_norm.T
        margins = scores[np.arange(n), ds.labels][:, None] - scores
        margins[np.arange(n), ds.labels] = np.inf
        right = margins.min(axis=1) >= problem.gamma
        assert 0 < right.sum() < n
        for t in (np.ones(n), np.zeros(n)):
            x[lay["t"]] = t
            holds = (lp.A[clf] @ x >= lp.b[clf] - 1e-12).reshape(n, C - 1).all(axis=1)
            assert np.array_equal(holds, right | (t == 1))
        assert cand.train_cost == pytest.approx(1.0 - right.mean())

    def test_hard_draws_proven_within_a_node_limit(self):
        # with a binary per point and other class, 2000 nodes did not prove
        # 4-class draws 2, 5 and 8, and the 9-point 3-class draw of optimum 0
        # took 1082; a node limit keeps the check machine-independent
        four = _oracle_instances(7, 4, 9, (8, 10, 12))
        three = _oracle_instances(5, 3, 11, (8, 9, 10))[10]
        sols = [solve_milp(build_milp(ds, MilpConfig()), MilpConfig(node_limit=2000))
                for ds in four + [three]]
        assert [sol.status for sol in sols] == ["proven_optimal"] * 10
        assert sols[8].objective == pytest.approx(1 / 12, abs=1e-12)
        assert sols[9].objective == 0.0


class TestCoverage:
    def setup_method(self):
        rng = np.random.default_rng(55)
        self.ds = random_binary_dataset(rng, 12, human_acc=0.85)
        self.base = build_binary_milp(self.ds, MilpConfig())
        self.sol0 = solve_milp(self.base, MilpConfig())

    def test_beta_one_vacuous(self):
        sol = solve_milp(add_coverage_constraint(self.base, 1.0), MilpConfig())
        assert sol.objective == pytest.approx(self.sol0.objective)

    def test_beta_zero_forces_classifier(self):
        sol = solve_milp(add_coverage_constraint(self.base, 0.0), MilpConfig())
        deferred, _, _ = pair_decisions(sol.pair, self.ds.features)
        assert deferred.sum() == 0
        assert sol.objective >= self.sol0.objective - 1e-12

    def test_beta_half(self):
        # XOR labels with a perfect human: the unconstrained optimum defers
        # everything; beta = 0.5 forces half the points onto the classifier
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(scale=0.2, size=(3, 2)) + c
                       for c in ([1, 1], [1, -1], [-1, 1], [-1, -1])])
        y = np.array([1] * 3 + [0] * 3 + [0] * 3 + [1] * 3)
        ds = DeferDataset(x, y, y, 2)
        base = build_binary_milp(ds, MilpConfig())
        sol0 = solve_milp(base, MilpConfig())
        deferred0, _, _ = pair_decisions(sol0.pair, ds.features)
        assert sol0.objective == 0.0 and deferred0.mean() > 0.5
        sol = solve_milp(add_coverage_constraint(base, 0.5), MilpConfig())
        deferred, _, _ = pair_decisions(sol.pair, ds.features)
        assert deferred.mean() <= 0.5 + 1e-9
        assert sol.objective >= sol0.objective - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            add_coverage_constraint(self.base, 1.2)


class TestFairness:
    def test_three_groups_equalized(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 2))
        y = rng.integers(0, 2, 15)
        h = np.where(rng.random(15) < 0.7, y, 1 - y)
        ds = DeferDataset(x, y, h, 2)
        groups = np.array([0, 1, 2] * 5)
        prob = add_fairness_constraint(build_binary_milp(ds, MilpConfig()), groups)
        sol = solve_milp(prob, MilpConfig(time_limit_s=300))
        assert sol.status == "proven_optimal"
        # recompute per-group cost means from the solution's decisions
        deferred, labels, _ = pair_decisions(sol.pair, ds.features)
        xt = prob.xt
        m_norm = np.array(sol.pair.classifier_weights)
        m_norm[:-1] *= prob.norm_scale
        t = ((2 * ds.labels - 1) * (xt @ m_norm) < prob.gamma).astype(float)
        r = deferred.astype(float)
        cost = np.maximum(0.0, t - r) + r * prob.err
        base_cost = sol.objective  # lambda = 0
        means = [cost[groups == g].mean() for g in range(3)]
        for g in range(3):
            comp = cost[groups != g].mean()
            assert abs(means[g] - comp) <= FAIR_TOL

    def test_constrained_at_least_unconstrained(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, 10)
        # human perfect on group 0 only
        groups = np.array([0, 1] * 5)
        h = np.where(groups == 0, y, 1 - y)
        ds = DeferDataset(x, y, h, 2)
        base = build_binary_milp(ds, MilpConfig())
        sol0 = solve_milp(base, MilpConfig())
        solf = solve_milp(add_fairness_constraint(base, groups), MilpConfig(time_limit_s=300))
        assert solf.objective >= sol0.objective - 1e-12

    def test_validation(self):
        rng = np.random.default_rng(7)
        ds = random_binary_dataset(rng, 6)
        base = build_binary_milp(ds, MilpConfig())
        with pytest.raises(ValueError):
            add_fairness_constraint(base, np.zeros(6))
        with pytest.raises(ValueError):
            add_fairness_constraint(base, np.arange(5))


FAIR_TOL = 1e-6 + 1e-9


def _extract_pair(problem, x):
    """The pair solve_milp reports for an LP vector x."""
    return milp._unnormalize_pair(problem, *milp._split_weights(problem, x))


class TestExtractPair:
    def test_identity_rescale(self):
        ds = DeferDataset([[1.0], [2.0]], [0, 1], [0, 1], 2)
        prob = build_binary_milp(ds, MilpConfig())
        x = np.zeros(prob.lp_relaxation.num_vars)
        lay = prob._layout()
        x[lay["M"]] = [1.0, 0.5]
        x[lay["R"]] = [0.2, -0.1]
        x[lay["r"]] = 1.0
        pair = _extract_pair(prob, x)
        # norm_scale is 2 here (largest L1 row norm)
        assert prob.norm_scale == 2.0
        np.testing.assert_allclose(pair.classifier_weights, [0.5, 0.5])
        np.testing.assert_allclose(pair.rejector_weights, [0.1, -0.1])

    def test_rescale_algebra(self):
        # norm_scale 10: non-bias weight 1 becomes 0.1, bias unchanged
        ds = DeferDataset([[10.0], [1.0]], [0, 1], [0, 1], 2)
        prob = build_binary_milp(ds, MilpConfig())
        assert prob.norm_scale == 10.0
        x = np.zeros(prob.lp_relaxation.num_vars)
        lay = prob._layout()
        x[lay["M"]] = [1.0, 0.5]
        pair = _extract_pair(prob, x)
        np.testing.assert_allclose(pair.classifier_weights, [0.1, 0.5])
        # three classes: one weight row per class, each rescaled the same way
        ds = DeferDataset([[10.0], [1.0], [-2.0]], [0, 1, 2], [0, 1, 2], 3)
        prob = build_milp(ds, MilpConfig())
        x = np.zeros(prob.lp_relaxation.num_vars)
        lay = prob._layout()
        x[lay["M"]] = [1.0, 0.5, 2.0, -0.25, -3.0, 0.75]
        x[lay["R"]] = [4.0, -1.0]
        pair = _extract_pair(prob, x)
        np.testing.assert_allclose(pair.classifier_weights, [[0.1, 0.5], [0.2, -0.25], [-0.3, 0.75]])
        np.testing.assert_allclose(pair.rejector_weights, [0.4, -1.0])

    def test_extraction_matches_normalized_decisions(self):
        # decisions computed from extracted weights on raw features equal
        # decisions from normalized weights on normalized features
        rng = np.random.default_rng(2)
        ds = random_binary_dataset(rng, 9)
        prob = build_binary_milp(ds, MilpConfig())
        lp = prob.lp_relaxation
        sol = solve_lp(lp)
        assert sol.status == "optimal"

    def test_lambda_reg_objective_accounting(self):
        rng = np.random.default_rng(4)
        ds = random_binary_dataset(rng, 8)
        cfg = MilpConfig(lambda_reg=0.01)
        sol = solve_milp(build_binary_milp(ds, cfg), cfg)
        assert sol.regularization > 0.0
        assert sol.objective == pytest.approx(sol.train_loss + sol.regularization)


class TestAddingConstraintsNeverHelps:
    def test_objective_monotone_under_constraints(self):
        rng = np.random.default_rng(17)
        ds = random_binary_dataset(rng, 10, human_acc=0.7)
        base = build_binary_milp(ds, MilpConfig())
        sol0 = solve_milp(base, MilpConfig())
        for beta in (0.75, 0.5, 0.25):
            sol = solve_milp(add_coverage_constraint(base, beta), MilpConfig())
            assert sol.objective >= sol0.objective - 1e-12


class TestTimeLimit:
    def test_time_limit_returns_incumbent(self):
        rng = np.random.default_rng(19)
        ds = random_binary_dataset(rng, 40, human_acc=0.55)
        cfg = MilpConfig(time_limit_s=0.2)
        sol = solve_milp(build_binary_milp(ds, cfg), cfg)
        assert sol.status in ("time_limit_incumbent", "proven_optimal")
        assert sol.pair is not None
        assert sol.train_loss <= 1.0


# The primal heuristics as they were before fits and candidates were
# deduplicated within a solve, kept verbatim as the reference the memoized
# heuristics must reproduce bit for bit.


def _oracle_pocket_perceptron(xt, targets, w0, epochs, rng):
    w = w0.copy()
    n = len(targets)
    best_w = w.copy()
    best_wrong = int(np.sum(targets * (xt @ w) <= 0))
    if best_wrong == 0:
        return w
    for _ in range(epochs):
        order = rng.permutation(n)
        updated = False
        for i in order:
            if targets[i] * (xt[i] @ w) <= 0:
                w = w + targets[i] * xt[i]
                updated = True
        wrong = int(np.sum(targets * (xt @ w) <= 0))
        if wrong < best_wrong:
            best_wrong, best_w = wrong, w.copy()
            if wrong == 0:
                return best_w
        if not updated:
            return w
    return best_w


def _oracle_irls_iterates(xt, targets, iters=25, ridge=1e-8):
    """Every (Newton step, iterate) of the IRLS loop as it ran before it
    stopped at small steps: all 25 steps, unless a step above 1e8 ends it."""
    out = []
    w = np.zeros(xt.shape[1])
    for _ in range(iters):
        z = targets * (xt @ w)
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500.0, 500.0)))
        wt = p * (1.0 - p) + 1e-12
        grad = xt.T @ (targets * p)
        hess = (xt * wt[:, None]).T @ xt + ridge * np.eye(xt.shape[1])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        w = w + step
        out.append((step, w))
        if np.max(np.abs(step)) > 1e8:
            break
    return out


def _oracle_irls_logistic(xt, targets):
    """The first iterate whose step is at most 1e-13 of its largest weight,
    else the last."""
    iterates = _oracle_irls_iterates(xt, targets)
    for step, w in iterates:
        if np.max(np.abs(step)) <= 1e-13 * np.max(np.abs(w)):
            return w
    return iterates[-1][1] if iterates else np.zeros(xt.shape[1])


def _oracle_fit_separator(xt, targets, rng, epochs=60):
    w = _oracle_irls_logistic(xt, targets)
    if int(np.sum(targets * (xt @ w) <= 0)) == 0:
        return w
    scale = np.max(np.abs(w))
    if scale > 0:
        w = w / scale
    return _oracle_pocket_perceptron(xt, targets, w, epochs, rng)


@st.composite
def _separator_cases(draw):
    """Small +-1 problems whose rows come from a pool of at most four, so
    duplicate rows occur; targets may all share one class. The start weights
    may put the first row's activation at a cancellation, where only the
    same dot product as the reference rounds to the same sign."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    # tenths have inexact products, so different summation orders round apart
    coord = st.one_of(st.floats(-5, 5, allow_nan=False, width=64),
                      st.integers(-50, 50).map(lambda k: k / 10))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    xt = np.hstack([np.array(rows), np.ones((n, 1))])
    sign = st.sampled_from([-1.0, 1.0])
    targets = draw(st.one_of(st.just([1.0] * n), st.just([-1.0] * n),
                             st.lists(sign, min_size=n, max_size=n)))
    w0 = np.array(draw(st.lists(coord, min_size=d + 1, max_size=d + 1)))
    if draw(st.booleans()):
        w0[-1] = -(xt[0, :-1] @ w0[:-1])
    return xt, np.array(targets), w0, draw(st.integers(0, 2**32 - 1))


def _heuristic_stream(problem):
    rng = np.random.default_rng(0x5EED5EED)
    out = [(m.tobytes(), r.tobytes()) for m, r in milp._heuristic_candidates(problem, rng)]
    return out, rng.bit_generator.state


def _best_of_every_candidate(problem):
    """The incumbent and incumbent history of scoring the whole heuristic
    stream (and each coverage-shifted variant) with no tree."""
    rng = np.random.default_rng(0x5EED5EED)
    best, history = None, []
    for m, r in milp._heuristic_candidates(problem, rng):
        variants = [r]
        if problem.coverage_beta is not None:
            variants += milp._coverage_shifted(problem, r)
        for rv in variants:
            cand = milp._score_candidate(problem, m, rv)
            if cand is not None and (best is None or cand.objective < best.objective - 1e-12):
                best = cand
                history.append(cand.objective)
    return best, history


def _assert_pair_of(sol, problem, incumbent):
    expected = milp._unnormalize_pair(problem, incumbent.m_norm, incumbent.r_norm)
    np.testing.assert_array_equal(sol.pair.classifier_weights, expected.classifier_weights)
    np.testing.assert_array_equal(sol.pair.rejector_weights, expected.rejector_weights)


def _patch_oracle(monkeypatch, fits=None):
    """Replace ``_fit_separator`` by the reference fit, which runs the full
    pocket and ignores the certificate ``inseparable``."""

    def fit(xt, targets, rng, w, inseparable, epochs=60):
        if fits is not None:
            fits.append((xt.tobytes(), targets.tobytes()))
        return _oracle_fit_separator(xt, targets, rng, epochs)

    monkeypatch.setattr(milp, "_fit_separator", fit)


def _heuristic_problems():
    """Plain, coverage and fairness problems at n=6, criterion-3-style draws
    at n=4..12, and one 400-point non-realizable instance."""
    rng = np.random.default_rng(606)
    plain = build_binary_milp(random_binary_dataset(rng, 6), MilpConfig())
    out = [plain, add_coverage_constraint(plain, 0.25),
           add_fairness_constraint(plain, np.array([0, 1] * 3))]
    for _ in range(8):
        n = int(rng.integers(4, 13))
        x = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        y = rng.integers(0, 2, n)
        h = np.where(rng.random(n) < rng.uniform(0.2, 0.9), y, 1 - y)
        out.append(build_binary_milp(DeferDataset(x, y, h, 2), MilpConfig()))
    big = generate_synthetic(SyntheticConfig(
        d=10, n=400, distribution="gaussian_mixture", U=10.0, K=20, std_scale=1.3,
        margin=0.0, p_m=0.1, p_h0=0.4, p_h1=0.1, seed=3)).dataset
    out.append(build_binary_milp(big, MilpConfig()))
    return out


def _multiclass_heuristic_problems():
    """3-class draws at n=8..10."""
    return [build_milp(ds, MilpConfig()) for ds in _oracle_instances(809, 3, 6, (8, 9, 10))]


# sha256 of each binary proposal stream of _heuristic_problems() (every M and
# R in order, then the rng's final state), recorded once IRLS stopped at its
# first small Newton step: weight bytes moved in the last bits, while every
# stream kept its length, its proposals' decisions and its final rng state
_BINARY_STREAM_DIGESTS = [
    "520e0e83b3b56ff4ee948890aaaa82d9592c2bd94bb5d150e4d5fb66ef32deb3",
    "520e0e83b3b56ff4ee948890aaaa82d9592c2bd94bb5d150e4d5fb66ef32deb3",
    "520e0e83b3b56ff4ee948890aaaa82d9592c2bd94bb5d150e4d5fb66ef32deb3",
    "2dc63b1820d992eef5957d8dcf3ab97bc06a60043e787503921d175fa6fe5769",
    "3ba2f36ba30c86428473076aa540ef547dd90238d1b973bb06b5eba21c7184bb",
    "2d714052516adf392e473bfee6bfdb1f3c90cebee9ee1c8cecf08fa9b64e221a",
    "d4129a3e6494e1b64c788105defb8532586a3924f8842b88634e6172469eaefe",
    "e9e167dadabb8a7dd602fc7ffc320b4f849f1db482c9ef3a866ad717a9632386",
    "6c7ace09ac47293ce0ec973d0a2a39defd6a035888ac7448d07107bfa305d76d",
    "31feb7aa32bfcee55b75d714c8f8e1915cd90eb2ab6467a70ef2b51761f51550",
    "900022d4c255949e059b0615a8e3aa71b8a369ca8d4060b2df886acea60580d7",
    "34fb9744ad3a66c0c29b9c41b62a6dd1e696688ba2fbaa6bab4dba66050b175c",
]


class TestHeuristicsEqualReference:
    @given(_separator_cases())
    @settings(max_examples=150, deadline=None)
    def test_fits_and_rng_equal_reference(self, case):
        xt, targets, w0, seed = case
        assert milp._irls_logistic(xt, targets).tobytes() == \
            _oracle_irls_logistic(xt, targets).tobytes()

        def inseparable():
            return lp_module.origin_in_hull(targets[:, None] * xt)

        def certified_pocket(x, t, w, epochs, rng):
            return milp._pocket_perceptron(x, t, w, epochs, rng, inseparable)

        def fit_with_irls(x, t, rng):
            return milp._fit_separator(x, t, rng, milp._irls_logistic(x, t), inseparable)

        runs = []
        for pocket, fit in ((certified_pocket, fit_with_irls),
                            (_oracle_pocket_perceptron, _oracle_fit_separator)):
            rng = np.random.default_rng(seed)
            runs.append((pocket(xt, targets, w0, 60, rng).tobytes(),
                         fit(xt, targets, rng).tobytes(), rng.bit_generator.state))
        assert runs[0] == runs[1]

    def test_irls_stops_at_the_first_small_step(self):
        # the fit is the full loop's iterate at its first small step, byte for
        # byte; the full loop's last iterate is within 1e-12 of it and decides
        # every row alike
        rng = np.random.default_rng(2113)
        moved = 0
        for k in range(400):
            n, d = int(rng.integers(2, 14)), int(rng.integers(1, 4))
            xt = np.hstack([rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0), np.ones((n, 1))])
            if k % 2:  # separable
                targets = np.where(xt @ rng.normal(size=d + 1) >= 0, 1.0, -1.0)
            else:
                targets = rng.choice([-1.0, 1.0], n)
            new = milp._irls_logistic(xt, targets)
            assert new.tobytes() == _oracle_irls_logistic(xt, targets).tobytes()
            full = _oracle_irls_iterates(xt, targets)[-1][1]
            if new.tobytes() != full.tobytes():
                moved += 1
                assert np.max(np.abs(full - new)) <= 1e-12 * np.max(np.abs(new))
                assert np.array_equal(np.sign(targets * (xt @ full)),
                                      np.sign(targets * (xt @ new)))
        assert moved > 100

    def test_binary_streams_equal_pinned_digests(self):
        digests = []
        for problem in _heuristic_problems():
            stream, state = _heuristic_stream(problem)
            blob = b"".join(m + r for m, r in stream) + repr(state).encode()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests == _BINARY_STREAM_DIGESTS

    def test_candidate_stream_and_one_irls_fit_per_subset(self, monkeypatch):
        repeated_fits = 0
        for problem in _heuristic_problems() + _multiclass_heuristic_problems():
            irls_keys = []
            irls = milp._irls_logistic

            def counting_irls(xt, targets):
                irls_keys.append((xt.tobytes(), targets.tobytes()))
                return irls(xt, targets)

            with monkeypatch.context() as mp:
                mp.setattr(milp, "_irls_logistic", counting_irls)
                new = _heuristic_stream(problem)
            fits = []
            with monkeypatch.context() as mp:
                _patch_oracle(mp, fits)
                old = _heuristic_stream(problem)
            assert new == old
            assert len(irls_keys) == len(set(irls_keys))
            assert set(irls_keys) == set(fits)
            repeated_fits += len(fits) - len(irls_keys)
        assert repeated_fits > 0  # the memo had repeats to skip

    def test_heuristic_incumbents_equal_scoring_every_candidate(self):
        # node_limit=0 stops right after the heuristics, so the incumbent and
        # its history come from the deduplicated scoring loop alone
        for problem in _heuristic_problems()[:3]:
            sol = solve_milp(problem, MilpConfig(node_limit=0))
            best, history = _best_of_every_candidate(problem)
            assert sol.incumbent_history == history
            assert sol.objective == best.objective
            _assert_pair_of(sol, problem, best)

    def test_solve_equal_with_reference_heuristics(self, monkeypatch):
        for problem in _heuristic_problems()[:3]:
            new = solve_milp(problem)
            with monkeypatch.context() as mp:
                _patch_oracle(mp)
                old = solve_milp(problem)
            assert (new.objective, new.status, new.nodes_explored, new.incumbent_history) == \
                (old.objective, old.status, old.nodes_explored, old.incumbent_history)
            np.testing.assert_array_equal(new.pair.classifier_weights, old.pair.classifier_weights)
            np.testing.assert_array_equal(new.pair.rejector_weights, old.pair.rejector_weights)


def _separable_and_not(n):
    """n rows with +-1 targets that a halfspace separates, then the same
    rows plus a copy of the first with the other target."""
    rng = np.random.default_rng(n)
    xt = np.hstack([rng.normal(size=(n, 2)), np.ones((n, 1))])
    targets = np.where(xt @ np.array([1.0, -0.5, 0.1]) > 0, 1.0, -1.0)
    return [(xt, targets),
            (np.vstack([xt, xt[:1]]), np.append(targets, -targets[0]))]


def _pocket_runs(xt, targets, w0, inseparable):
    """(weight bytes, generator state) after 60 epochs of the pocket with the
    certificate ``inseparable`` and of the reference pocket, each drawing
    from ``default_rng(7)``."""
    runs = []
    for pocket in (lambda rng: milp._pocket_perceptron(xt, targets, w0, 60, rng, inseparable),
                   lambda rng: _oracle_pocket_perceptron(xt, targets, w0, 60, rng)):
        rng = np.random.default_rng(7)
        runs.append((pocket(rng).tobytes(), rng.bit_generator.state))
    return runs


class TestPocketPerceptronOrders:
    """``_pocket_perceptron`` draws every epoch's order in one ``permuted``
    call, rewinds on an early stop and returns without rewinding at a
    certified floor of one wrong row; all must match per-epoch
    ``permutation`` draws, orders and generator state alike."""

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 17, 480])
    def test_batched_orders_equal_per_epoch_draws(self, n):
        epochs = 60
        for used in (1, 2, 7, epochs):
            per_epoch = np.random.default_rng(n)
            orders = [per_epoch.permutation(n) for _ in range(used)]
            batched = np.random.default_rng(n)
            start = batched.bit_generator.state
            drawn = batched.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
            np.testing.assert_array_equal(drawn[:used], np.array(orders))
            if used < epochs:  # an early stop: rewind and redraw the orders used
                batched.bit_generator.state = start
                batched.permuted(np.tile(np.arange(n), (used, 1)), axis=1)
            assert batched.bit_generator.state == per_epoch.bit_generator.state

    @pytest.mark.parametrize("n", [6, 17, 480])
    def test_early_stop_and_full_runs_equal_reference(self, n):
        ran_every_epoch = []
        for xt, targets in _separable_and_not(n):
            every_epoch = np.random.default_rng(7)
            for _ in range(60):
                every_epoch.permutation(len(targets))
            runs = _pocket_runs(xt, targets, np.array([0.0, 1.0, 0.0]),
                                lambda: lp_module.origin_in_hull(targets[:, None] * xt))
            assert runs[0] == runs[1]
            ran_every_epoch.append(runs[0][1] == every_epoch.bit_generator.state)
        # the separable rows stop early; the others leave the generator where
        # every epoch's draw does, with or without a certified early return
        assert ran_every_epoch == [False, True]

    @pytest.mark.parametrize("n", [6, 17, 480])
    def test_certified_floor_returns_the_reference_pocket(self, n):
        separable, inseparable = _separable_and_not(n)
        cases = [  # rows, targets, start weights, where the floor of 1 is reached
            (*inseparable, np.array([1.0, -0.5, 0.1]), "start"),
            (*inseparable, np.array([0.5, -0.5, 0.1]), "mid-run"),
            (*separable, np.array([0.0, 1.0, 0.0]), None),
        ]
        for xt, targets, w0, floor in cases:
            signed = targets[:, None] * xt
            asked = []

            def certificate():
                asked.append(lp_module.origin_in_hull(signed))
                return asked[-1]

            runs = _pocket_runs(xt, targets, w0, certificate)
            assert runs[0] == runs[1]
            start_wrong = np.count_nonzero(signed @ w0 <= 0)
            if floor is None:
                assert True not in asked
            else:
                assert asked == [True]  # returned at the first certified floor
                assert (start_wrong == 1) == (floor == "start")


# The LP builder as it was before it filled blocks, kept row by row (with its
# per-point class lookup inlined) as the reference the block builder must
# reproduce bit for bit, signs of zeros included. Its binary branch is the
# original; its multiclass rows are written from explicit M_y and M_j slices.


def _oracle_other_classes(self, i):
    y = int(self.dataset.labels[i])
    return np.array([j for j in range(self.num_classes) if j != y])


def _oracle_side_rows(self, lay, row, senses, rhs):
    """The regularization, coverage and fairness rows, shared by both
    reference builders."""
    n = self.n
    if self.lambda_reg > 0:
        w_ids = list(range(lay["M"].start, lay["M"].stop)) + list(
            range(lay["R"].start, lay["R"].stop)
        )
        for k, wid in enumerate(w_ids):
            for sign in (1.0, -1.0):
                a = row()  # aux_k >= +-w
                a[lay["aux"].start + k] = 1.0
                a[wid] = -sign
                senses.append(">=")
                rhs.append(0.0)

    if self.coverage_beta is not None:
        a = row()
        a[lay["r"]] = 1.0
        senses.append("<=")
        rhs.append(self.coverage_beta * n)

    if self.fairness_groups is not None:
        groups = np.asarray(self.fairness_groups)
        for gid in np.unique(groups):
            inside = groups == gid
            w_in, w_out = 1.0 / inside.sum(), 1.0 / (~inside).sum()
            coef = np.where(inside, w_in, -w_out)
            for sense, bound in (("<=", milp.FAIRNESS_SLACK), (">=", -milp.FAIRNESS_SLACK)):
                a = row()
                a[lay["phi"]] = coef
                a[lay["r"]] = coef * self.err
                senses.append(sense)
                rhs.append(bound)


def _oracle_lp(self, lay, binaries, rows, senses, rhs):
    nv, n = lay["total"], self.n
    c = np.zeros(nv)
    c[lay["phi"]] = 1.0 / n
    c[lay["r"]] = self.err / n
    lo = np.full(nv, -np.inf)
    hi = np.full(nv, np.inf)
    lo[lay["M"]], hi[lay["M"]] = -self.box, self.box
    lo[lay["R"]], hi[lay["R"]] = -self.box, self.box
    lo[lay["phi"]], hi[lay["phi"]] = 0.0, np.inf
    for name in binaries:
        lo[lay[name]], hi[lay[name]] = 0.0, 1.0
    if "aux" in lay:
        c[lay["aux"]] = self.lambda_reg
        lo[lay["aux"]], hi[lay["aux"]] = 0.0, self.box
    return LinearProgram(c=c, A=np.array(rows), senses=senses, b=np.array(rhs), lo=lo, hi=hi)


def _oracle_build_lp(self):
    lay = self._layout()
    nv, n, d1 = lay["total"], self.n, self.d1
    rows, senses, rhs = [], [], []

    def row():
        rows.append(np.zeros(nv))
        return rows[-1]

    km, kr, g = self.k_m, self.k_r, self.gamma
    ypm = (2 * self.dataset.labels - 1).astype(float)
    for i in range(n):
        a = row()  # phi_i - t_i + r_i >= 0
        a[lay["phi"].start + i] = 1.0
        a[lay["t"].start + i] = -1.0
        a[lay["r"].start + i] = 1.0
        senses.append(">=")
        rhs.append(0.0)
        if self.num_classes == 2:
            a = row()  # K_m t_i + y_i M.x_i >= gamma
            a[lay["t"].start + i] = km
            a[lay["M"]] = ypm[i] * self.xt[i]
            senses.append(">=")
            rhs.append(g)
        else:
            y = int(self.dataset.labels[i])
            for j in _oracle_other_classes(self, i):
                a = row()  # K_m t_i + (M_y - M_j).x_i >= gamma
                a[lay["t"].start + i] = km
                a[lay["M"].start + y * d1 : lay["M"].start + (y + 1) * d1] = self.xt[i]
                a[lay["M"].start + j * d1 : lay["M"].start + (j + 1) * d1] = -self.xt[i]
                senses.append(">=")
                rhs.append(g)
        a = row()  # R.x_i - (K_r + g) r_i <= -g
        a[lay["R"]] = self.xt[i]
        a[lay["r"].start + i] = -(kr + g)
        senses.append("<=")
        rhs.append(-g)
        a = row()  # R.x_i - (K_r + g) r_i >= -K_r
        a[lay["R"]] = self.xt[i]
        a[lay["r"].start + i] = -(kr + g)
        senses.append(">=")
        rhs.append(-kr)

    _oracle_side_rows(self, lay, row, senses, rhs)
    return _oracle_lp(self, lay, ("t", "r"), rows, senses, rhs)


def _cij_reference_lp(self):
    """The multiclass formulation with one binary c_ij per point and other
    class, as the package built it before its classifier rows became margin
    rows: (M_y - M_j).x_i - (2K_m + g) c_ij <= -g and >= -2K_m, and
    t_i + sum_j c_ij / (C-1) >= 1. Its own layout puts c between t and r.
    Returns the LP and its binary variable ids."""
    n, d1, cm1 = self.n, self.d1, self.num_classes - 1
    nw = self.num_classes * d1
    lay = {"M": slice(0, nw), "R": slice(nw, nw + d1)}
    base = nw + d1
    for name, size in (("phi", n), ("t", n), ("c", n * cm1), ("r", n)):
        lay[name] = slice(base, base + size)
        base += size
    if self.lambda_reg > 0:
        lay["aux"] = slice(base, base + nw + d1)
        base += nw + d1
    lay["total"] = nv = base
    rows, senses, rhs = [], [], []

    def row():
        rows.append(np.zeros(nv))
        return rows[-1]

    km, kr, g = self.k_m, self.k_r, self.gamma
    for i in range(n):
        a = row()  # phi_i - t_i + r_i >= 0
        a[lay["phi"].start + i] = 1.0
        a[lay["t"].start + i] = -1.0
        a[lay["r"].start + i] = 1.0
        senses.append(">=")
        rhs.append(0.0)
        a = row()  # t_i + sum_j c_ij / (C-1) >= 1
        a[lay["t"].start + i] = 1.0
        a[lay["c"].start + i * cm1 : lay["c"].start + (i + 1) * cm1] = 1.0 / cm1
        senses.append(">=")
        rhs.append(1.0)
        y = int(self.dataset.labels[i])
        for pos, j in enumerate(_oracle_other_classes(self, i)):
            cid = lay["c"].start + i * cm1 + pos
            diff = np.zeros(nv)
            diff[lay["M"].start + y * d1 : lay["M"].start + (y + 1) * d1] = self.xt[i]
            diff[lay["M"].start + j * d1 : lay["M"].start + (j + 1) * d1] = -self.xt[i]
            diff[cid] = -(2 * km + g)
            for sense, bound in (("<=", -g), (">=", -2 * km)):
                rows.append(diff.copy())
                senses.append(sense)
                rhs.append(bound)
        for sense, bound in (("<=", -g), (">=", -kr)):
            a = row()  # R.x_i - (K_r + g) r_i <= -g, >= -K_r
            a[lay["R"]] = self.xt[i]
            a[lay["r"].start + i] = -(kr + g)
            senses.append(sense)
            rhs.append(bound)

    _oracle_side_rows(self, lay, row, senses, rhs)
    binaries = ("t", "c", "r")
    lp = _oracle_lp(self, lay, binaries, rows, senses, rhs)
    return lp, np.concatenate([np.arange(lay[b].start, lay[b].stop) for b in binaries])


@st.composite
def _milp_problems(draw):
    """2-4-class problems at n=1..30 with signed zeros among the features,
    with or without regularization, a coverage row and 2-3 fairness
    groups."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    C = draw(st.integers(2, 4))
    coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5, 5, allow_nan=False, width=64))
    x = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n))
    h = draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n))
    cfg = MilpConfig(lambda_reg=draw(st.sampled_from([0.0, 0.01, 0.5])))
    problem = build_milp(DeferDataset(x, y, h, C), cfg)
    if draw(st.booleans()):
        problem = add_coverage_constraint(problem, draw(st.floats(0.0, 1.0)))
    n_groups = draw(st.integers(2, 3))
    if draw(st.booleans()) and n >= n_groups:
        groups = draw(st.permutations(np.arange(n) % n_groups))
        problem = add_fairness_constraint(problem, np.array(groups))
    return problem


class TestBlockBuiltLp:
    @given(_milp_problems())
    @settings(max_examples=200, deadline=None)
    def test_equals_row_by_row_builder(self, problem):
        new, old = problem._build_lp(), _oracle_build_lp(problem)
        for name in ("c", "A", "b", "lo", "hi"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert np.array_equal(np.signbit(new.A), np.signbit(old.A))
        assert new.senses == old.senses


def _six_point_instances(seed, count):
    """6 points in 2-D, 3 per class, a human wrong on 4; instances whose
    optimum is 0 are redrawn."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x = rng.normal(size=(6, 2)) * rng.uniform(0.5, 3.0)
        y = rng.permutation(np.arange(6) % 2)
        h = y.copy()
        wrong = rng.choice(6, 4, replace=False)
        h[wrong] = 1 - h[wrong]
        ds = DeferDataset(x, y, h, 2)
        if brute_force_deferral_optimum(ds) > 0.0:
            out.append(ds)
    return out


# solve_milp outputs recorded once node bounds were rounded up to the 1/n
# grid (the three-class solve once its heuristics alternated on Kesler rows,
# the fourteen-point tree once the root LP started from the slack basis, the
# plain solve once the tree took one proposal per node):
# (objective, status, nodes_explored, best_bound, bound_history,
# incumbent_history)
_PINNED_SOLVES = {
    "plain": (0.16666666666666666, "proven_optimal", 1, 0.16666666666666666,
              [0.0, 0.16666666666666666],
              [0.6666666666666666, 0.3333333333333333, 0.16666666666666666]),
    "covered": (0.16666666666666666, "proven_optimal", 1, 0.16666666666666666,
                [0.0, 0.16666666666666666], [0.16666666666666666]),
    "three_class": (0.16666666666666666, "proven_optimal", 1, 0.16666666666666666,
                    [0.0, 0.16666666666666666], [1.0, 0.16666666666666666]),
    "fourteen_points": (0.14285714285714285, "proven_optimal", 85, 0.14285714285714285,
                        [0.0, 0.07142857142857142, 0.14285714285714285],
                        [0.7142857142857143, 0.21428571428571427, 0.14285714285714285]),
}


def _check_pinned(name, sol):
    got = (sol.objective, sol.status, sol.nodes_explored, sol.best_bound,
           list(sol.bound_history), list(sol.incumbent_history))
    assert got == _PINNED_SOLVES[name]


def _pinned_three_class_problem():
    rng = np.random.default_rng(45)
    x = rng.normal(size=(6, 2)) * 1.5
    y = np.arange(6) % 3
    h = np.where(rng.random(6) < 0.4, y, (y + 1) % 3)
    return build_milp(DeferDataset(x, y, h, 3), MilpConfig())


class TestPinnedSolves:
    def test_exact_engine_plain_and_covered(self):
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        _check_pinned("plain", solve_milp(plain))
        _check_pinned("covered", solve_milp(add_coverage_constraint(plain, 0.25)))

    def test_exact_engine_three_classes(self):
        _check_pinned("three_class", solve_milp(_pinned_three_class_problem()))

    def test_exact_engine_tree_search(self):
        ds = random_binary_dataset(np.random.default_rng(1), 14, human_acc=0.4)
        _check_pinned("fourteen_points", solve_milp(build_binary_milp(ds, MilpConfig())))


class TestRootLp:
    def test_root_is_solved_from_the_slack_basis(self, monkeypatch):
        # the slack basis is dual feasible for every relaxation the builders
        # make, so no root runs the zero-cost phase before the dual simplex
        ds = _six_point_instances(11, 3)[2]
        plain = build_binary_milp(ds, MilpConfig())
        three = _pinned_three_class_problem()
        problems = [plain, three, add_coverage_constraint(plain, 0.25),
                    add_fairness_constraint(plain, np.arange(6) % 2),
                    build_binary_milp(ds, MilpConfig(lambda_reg=0.01)),
                    build_milp(three.dataset, MilpConfig(lambda_reg=0.01)),
                    build_binary_milp(_criterion7_instance(), MilpConfig())]
        optima = [solve_lp(p.lp_relaxation).objective_value for p in problems]

        dual_feasible = lp_module._Simplex._dual_feasible

        def no_zero_cost_phase(self, cost):
            if not dual_feasible(self, cost):
                raise AssertionError("the root LP ran the zero-cost phase")
            return True

        solved = []
        real = milp.solve_lp

        def recording(*args, **kwargs):
            assert kwargs["basis"] is None  # the slack basis
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(lp_module._Simplex, "_dual_feasible", no_zero_cost_phase)
        monkeypatch.setattr(milp, "solve_lp", recording)
        for problem, optimum in zip(problems, optima):
            solved.clear()
            sol = solve_milp(problem, MilpConfig(node_limit=1))
            assert len(solved) == 1 and solved[0].status == "optimal"
            assert solved[0].objective_value == pytest.approx(optimum, abs=1e-9)
            assert sol.lp_iterations == solved[0].iterations > 0


class TestLargeProblemsAreNotSearched:
    """Above EXACT_ROWS_MAX rows a problem without side rows ends as its
    node_limit=0 solve, whatever its class count; side-constrained ones are
    searched at every size."""

    def test_equal_to_the_node_limit_zero_solve(self, monkeypatch):
        realizable = generate_synthetic(
            SyntheticConfig(d=2, n=20, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=1)).dataset
        datasets = (_six_point_instances(7, 4) + [realizable]
                    + [_pinned_three_class_problem().dataset])
        limited = [solve_milp(build_milp(ds, MilpConfig()), MilpConfig(node_limit=0))
                   for ds in datasets]

        def no_lp(*args, **kwargs):
            raise AssertionError("an unsearched problem solved an LP")

        monkeypatch.setattr(milp, "EXACT_ROWS_MAX", 0)
        monkeypatch.setattr(milp, "solve_lp", no_lp)
        statuses = set()
        for ds, ref in zip(datasets, limited):
            problem = build_milp(ds, MilpConfig())
            sol = solve_milp(problem)
            assert problem._lp is None  # the full LP is never built
            assert (sol.objective, sol.status, sol.nodes_explored, sol.best_bound) == (
                ref.objective, ref.status, 0, 0.0)
            assert sol.incumbent_history == ref.incumbent_history
            for a, b in ((sol.pair.classifier_weights, ref.pair.classifier_weights),
                         (sol.pair.rejector_weights, ref.pair.rejector_weights)):
                assert a.tobytes() == b.tobytes()
            expected = "proven_optimal" if sol.objective == 0.0 else "time_limit_incumbent"
            assert sol.status == expected
            statuses.add(sol.status)
        assert statuses == {"proven_optimal", "time_limit_incumbent"}
        assert sol.pair.classifier_weights.shape == (3, 3)  # the 3-class problem

    def test_side_constrained_still_searched(self, monkeypatch):
        monkeypatch.setattr(milp, "EXACT_ROWS_MAX", 0)
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        _check_pinned("covered", solve_milp(add_coverage_constraint(plain, 0.25)))


class TestObjectiveGrid:
    @pytest.mark.parametrize("n", [1, 6, 7, 30, 1000])
    def test_bound_rounding_tolerance(self, n):
        for k in range(min(n, 40) + 1):
            assert milp._grid_bound(k / n, n) == k / n
            # simplex noise around a grid point stays on it
            assert milp._grid_bound(k / n + 0.5 * milp.GRID_TOL / n, n) == k / n
            assert milp._grid_bound(k / n + 1e-9 / n, n) == k / n
            assert milp._grid_bound(k / n - 1e-15, n) == k / n
            # a gamma-scale excess proves the next point
            assert milp._grid_bound(k / n + 1e-5 / n, n) == (k + 1) / n

    def test_one_lp_solve_per_node(self, monkeypatch):
        calls = []  # the simplex iterations of each LP solve
        real = milp.solve_lp

        def counting(*args, **kwargs):
            sol = real(*args, **kwargs)
            calls.append(sol.iterations)
            return sol

        monkeypatch.setattr(milp, "solve_lp", counting)
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        deep_ds = random_binary_dataset(np.random.default_rng(1), 14, human_acc=0.4)
        deep = build_binary_milp(deep_ds, MilpConfig())
        realizable = generate_synthetic(
            SyntheticConfig(d=2, n=20, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=1)).dataset
        rng = np.random.default_rng(45)
        y = np.arange(6) % 3
        three = DeferDataset(rng.normal(size=(6, 2)), y, (y + 1) % 3, 3)
        # a 9-point 3-class draw whose proof still needs the tree
        tree_three = _oracle_instances(809, 3, 11, (8, 9, 10))[10]
        runs = [(plain, None), (add_coverage_constraint(plain, 0.25), None), (deep, None),
                (deep, MilpConfig(node_limit=3)), (deep, MilpConfig(node_limit=0)),
                (build_binary_milp(realizable, MilpConfig()), None),
                (build_milp(three, MilpConfig()), None),
                (build_milp(tree_three, MilpConfig()), None)]
        for problem, cfg in runs:
            calls.clear()
            sol = solve_milp(problem, cfg)
            assert len(calls) == sol.nodes_explored
            assert sum(calls) == sol.lp_iterations
        assert sol.nodes_explored > 1

    def test_certificates_are_not_node_lps(self, monkeypatch):
        # the pocket's hull LPs go through lp.solve_lp, not milp.solve_lp, so
        # neither the node hook nor lp_iterations counts them
        node_iterations, hull_lps, verdicts = [], [], []
        real_node, real_lp, real_hull = milp.solve_lp, lp_module.solve_lp, milp.origin_in_hull

        def node_lp(*args, **kwargs):
            sol = real_node(*args, **kwargs)
            node_iterations.append(sol.iterations)
            return sol

        def any_lp(*args, **kwargs):
            hull_lps.append(1)
            return real_lp(*args, **kwargs)

        def certificate(rows):
            verdicts.append(real_hull(rows))
            return verdicts[-1]

        monkeypatch.setattr(milp, "solve_lp", node_lp)
        monkeypatch.setattr(lp_module, "solve_lp", any_lp)
        monkeypatch.setattr(milp, "origin_in_hull", certificate)
        certified = 0
        for ds in _six_point_instances(11, 3):
            plain = build_binary_milp(ds, MilpConfig())
            for problem in (plain, add_coverage_constraint(plain, 0.25)):
                for seen in (node_iterations, hull_lps, verdicts):
                    seen.clear()
                sol = solve_milp(problem)
                assert len(node_iterations) == sol.nodes_explored
                assert sum(node_iterations) == sol.lp_iterations
                assert len(hull_lps) == len(verdicts)
                certified += sum(verdicts)
        assert certified > 0

    def test_early_stopped_proposals_are_a_prefix_and_the_optimum_is_proven(self, monkeypatch):
        stopped = 0
        problems = []
        for ds in _six_point_instances(11, 6):
            plain = build_binary_milp(ds, MilpConfig())
            problems += [plain, add_coverage_constraint(plain, 0.25)]
        multiclass = []
        for problem in problems + _multiclass_heuristic_problems():
            sol, taken, full, _ = _solve_recording(monkeypatch, problem)
            assert taken == full[: len(taken)]
            assert sol.proposals == len(taken)
            if len(taken) < len(full):
                stopped += 1
                assert sol.status == "proven_optimal"
                # the tree may prove a pair the whole stream never proposes
                deferred, labels, _ = pair_decisions(sol.pair, problem.dataset.features)
                assert system_loss_01(problem.dataset, deferred, labels) == \
                    pytest.approx(sol.objective, abs=1e-12)
                if problem.coverage_beta is not None:
                    assert deferred.mean() <= problem.coverage_beta
                if problem.num_classes == 2:
                    assert sol.objective == pytest.approx(brute_force_deferral_optimum(
                        problem.dataset, problem.coverage_beta), abs=1e-12)
                else:
                    multiclass.append((problem, sol.objective))
        assert stopped > 0 and multiclass
        highs_optimum = _highs()
        for problem, objective in multiclass:
            assert objective == pytest.approx(highs_optimum(problem), abs=1e-9)


def _solve_recording(monkeypatch, problem, config=None):
    """Solve ``problem`` with the proposals it takes recorded, replayed ones
    included. Returns the solution, the proposals the solve took and the
    problem's whole stream, each as (M bytes, R bytes), and whether the
    solve reached the stream's end."""
    full = [(m.tobytes(), r.tobytes())
            for m, r in milp._heuristic_candidates(problem, np.random.default_rng(0x5EED5EED))]
    real = milp._ProposalStream.get
    taken, ended = [], []

    def recording(stream, i):
        proposal = real(stream, i)
        if proposal is None:
            ended.append(True)
        else:
            taken.append((proposal[0].tobytes(), proposal[1].tobytes()))
        return proposal

    with monkeypatch.context() as mp:
        mp.setattr(milp._ProposalStream, "get", recording)
        sol = solve_milp(problem, config)
    return sol, taken, full, bool(ended)


def _exact_small_instances(seed):
    """The ``exact-small`` benchmark workload's 40 instances of a seed:
    6 points in 2-D, 3 per class, a human wrong on 4, optimum above 0."""
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    out = []
    while len(out) < 40:
        x = rng.normal(size=(6, 2)) * rng.uniform(0.5, 3.0)
        y = rng.permutation(np.arange(6) % 2)
        h = y.copy()
        wrong = rng.choice(6, 4, replace=False)
        h[wrong] = 1 - h[wrong]
        ds = DeferDataset(x, y, h, 2)
        if brute_force_deferral_optimum(ds) > 0.0:
            out.append(ds)
    return out


def _counting_newton(monkeypatch):
    """Count ``np.linalg.solve`` calls, which within a solve are IRLS's."""
    real, calls = np.linalg.solve, []

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.fixture(scope="module")
def exact_small_solves():
    """The 160 ``exact-small`` solves of seeds 1 and 9, in the benchmark's
    order (each instance plain, then under a coverage budget of 0.25), and
    the Newton solves that each seed's IRLS fits took."""
    solves, newton = [], {}
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_newton(mp)
        for seed in (1, 9):
            calls.clear()
            for ds in _exact_small_instances(seed):
                plain = build_binary_milp(ds, MilpConfig())
                for problem in (plain, add_coverage_constraint(plain, 0.25)):
                    solves.append((problem, solve_milp(problem)))
            newton[seed] = len(calls)
    return solves, newton


class TestExactSmallSolves:
    """The README solver check: a change to the solver keeps every
    ``exact-small`` optimum, status and training-set decision."""

    def test_objectives_statuses_and_totals(self, exact_small_solves):
        solves, _ = exact_small_solves
        h = hashlib.sha256()
        for _, sol in solves:
            h.update(repr((sol.objective, sol.status)).encode())
        assert h.hexdigest() == "e5a65b31e806abdde7a19c06eccfa8a4a6d3caaab976a039f740c6963b6f25ad"
        totals = [sum(getattr(sol, name) for _, sol in solves)
                  for name in ("nodes_explored", "lp_iterations", "proposals")]
        assert totals == [446, 3651, 570]

    def test_training_set_decisions(self, exact_small_solves):
        # pair bytes may move in the last bits (IRLS's stop); decisions may not
        solves, _ = exact_small_solves
        h = hashlib.sha256()
        for problem, sol in solves:
            deferred, labels, _ = pair_decisions(sol.pair, problem.dataset.features)
            h.update(deferred.tobytes() + labels.tobytes())
        assert h.hexdigest() == "d82dde20b28e427926d4ebc19874807d7ba31a4aa006885045016987935a5caf"

    def test_newton_solves(self, exact_small_solves):
        # 3980 and 4628 while every IRLS fit ran its 25 steps, 2019 and 2062
        # while each covered solve regenerated its plain source's proposals
        newton = exact_small_solves[1]
        assert newton == {1: 1055, 9: 1038}
        assert sum(newton.values()) == 2093  # the README solver check's total


class TestProposalSchedule:
    """The tree takes one heuristic proposal per node it works on, and the
    rest of the stream unless it proves the incumbent."""

    def test_limited_solves_take_the_whole_stream(self, monkeypatch):
        plain = build_binary_milp(_criterion7_instance(), MilpConfig())
        sol, taken, full, ended = _solve_recording(monkeypatch, plain, MilpConfig(node_limit=30))
        assert (sol.status, sol.nodes_explored) == ("time_limit_incumbent", 30)
        assert taken == full and ended
        assert sol.proposals == len(full)
        # the solve checks its deadline between proposals: it takes the
        # stream up to its end or up to the deadline, whichever comes first
        sol, taken, _, ended = _solve_recording(monkeypatch, plain, MilpConfig(time_limit_s=0.3))
        assert sol.status == "time_limit_incumbent"
        assert taken == full[: len(taken)] and (ended or sol.wall_time_s > 0.3)
        assert sol.proposals == len(taken)

    def test_unsearched_solves_take_the_whole_stream(self, monkeypatch):
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        sol, taken, full, ended = _solve_recording(monkeypatch, plain)
        assert sol.status == "proven_optimal" and sol.proposals < len(full)
        for config in (MilpConfig(node_limit=0), MilpConfig(node_limit=0, time_limit_s=60)):
            sol, taken, full, ended = _solve_recording(monkeypatch, plain, config)
            assert sol.nodes_explored == 0
            assert taken == full and ended
            assert sol.proposals == len(full)
        monkeypatch.setattr(milp, "EXACT_ROWS_MAX", 0)
        sol, taken, full, ended = _solve_recording(monkeypatch, plain)
        assert sol.nodes_explored == 0 and sol.proposals == len(full)

    def test_bound_histories_strictly_increase(self, exact_small_solves):
        solutions = [sol for _, sol in exact_small_solves[0]]
        assert len(solutions) == 160
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        deep = random_binary_dataset(np.random.default_rng(1), 14, human_acc=0.4)
        for problem in (plain, add_coverage_constraint(plain, 0.25), _pinned_three_class_problem(),
                        build_binary_milp(deep, MilpConfig()),
                        # off the grid its bound also rises by float noise
                        add_fairness_constraint(build_binary_milp(deep, MilpConfig()),
                                                np.arange(14) % 2)):
            solutions.append(solve_milp(problem))
        for sol in solutions:
            assert sol.status == "proven_optimal"
            history = sol.bound_history
            assert history[0] == 0.0 and history[-1] == sol.best_bound
            assert all(b - a > 1e-12 for a, b in zip(history, history[1:])), history


def _assert_same_solve(a, b):
    """Every field of two solutions but their times, pair bytes included."""
    times = ("wall_time_s", "heuristic_s", "pair")
    for name in milp.MilpSolution.__dataclass_fields__:
        if name not in times:
            assert getattr(a, name) == getattr(b, name), name
    assert (a.pair is None) == (b.pair is None)
    if a.pair is not None:
        for name in ("classifier_weights", "rejector_weights"):
            assert getattr(a.pair, name).tobytes() == getattr(b.pair, name).tobytes()


class TestFamilyStream:
    """A problem and the coverage and fairness variants derived from it share
    one proposal stream; each variant's solve equals a fresh build's."""

    @staticmethod
    def _fresh(problem):
        cfg = MilpConfig(gamma=problem.gamma, box=problem.box, lambda_reg=problem.lambda_reg,
                         coverage_beta=problem.coverage_beta)
        fresh = build_milp(problem.dataset, cfg)
        if problem.fairness_groups is None:
            return fresh
        return add_fairness_constraint(fresh, problem.fairness_groups)

    def _assert_variants_equal_fresh_builds(self, variants, config=None):
        for problem in variants:
            _assert_same_solve(solve_milp(problem, config), solve_milp(self._fresh(problem), config))

    def test_coverage_and_fairness_variants(self):
        for ds in _six_point_instances(11, 3) + [random_binary_dataset(
                np.random.default_rng(1), 14, human_acc=0.4)]:
            plain = build_binary_milp(ds, MilpConfig())
            groups = np.arange(ds.n) % 2
            covered = add_coverage_constraint(plain, 0.5)
            family = [plain, add_coverage_constraint(plain, 0.25), covered,
                      add_fairness_constraint(plain, groups),
                      add_fairness_constraint(covered, groups)]
            assert all(p._proposals is plain._proposals for p in family)
            self._assert_variants_equal_fresh_builds(family)

    def test_three_class_variants(self):
        for problem in [_pinned_three_class_problem()] + _multiclass_heuristic_problems()[:3]:
            groups = np.arange(problem.n) % 2
            self._assert_variants_equal_fresh_builds(
                [problem, add_coverage_constraint(problem, 0.5),
                 add_fairness_constraint(problem, groups)])

    def test_source_never_solved(self):
        plain = build_binary_milp(_six_point_instances(11, 3)[2], MilpConfig())
        covered = add_coverage_constraint(plain, 0.25)
        self._assert_variants_equal_fresh_builds(
            [covered, add_fairness_constraint(covered, np.arange(6) % 2)])
        assert plain._proposals.owner is covered

    @pytest.mark.parametrize("config", [MilpConfig(node_limit=1), MilpConfig(time_limit_s=0)])
    def test_limited_source_extended_by_a_variant(self, config):
        plain = build_binary_milp(_criterion7_instance(), MilpConfig())
        solve_milp(plain, config)
        drawn = len(plain._proposals.drawn)
        covered = add_coverage_constraint(plain, 0.5)
        self._assert_variants_equal_fresh_builds([covered], MilpConfig(node_limit=40))
        assert len(plain._proposals.drawn) >= drawn
        if config.time_limit_s == 0:  # the source took only the first two proposals
            assert drawn == 2 < len(plain._proposals.drawn)

    def test_separate_builds_and_replaced_data_do_not_share(self, monkeypatch):
        ds = _six_point_instances(11, 3)[2]
        plain = build_binary_milp(ds, MilpConfig())
        twin = build_binary_milp(ds, MilpConfig())
        moved = replace(plain, xt=plain.xt[::-1].copy())
        assert plain.lp_relaxation is not None and moved._lp is None
        assert plain._proposals is not twin._proposals
        assert moved._proposals is not plain._proposals
        calls = _counting_newton(monkeypatch)
        first = solve_milp(plain)
        counts = [len(calls)]
        _assert_same_solve(solve_milp(twin), first)
        counts.append(len(calls) - counts[0])
        assert counts[0] > 0 and counts[1] == counts[0]  # the twin regenerates its stream
        solve_milp(moved)
        fresh = [(m.tobytes(), r.tobytes()) for m, r in milp._heuristic_candidates(
            moved, np.random.default_rng(0x5EED5EED))]
        assert fresh != [(m.tobytes(), r.tobytes()) for m, r in plain._proposals.drawn]
        taken = [(m.tobytes(), r.tobytes()) for m, r in moved._proposals.drawn]
        assert taken == fresh[: len(taken)]
        # a solved problem still copies and pickles; each copy has its own stream
        for clone in (copy.deepcopy(plain), pickle.loads(pickle.dumps(plain))):
            assert clone._proposals is not plain._proposals and clone._proposals.owner is None
            _assert_same_solve(solve_milp(clone), first)

    def test_exception_in_generation_leaves_no_truncated_stream(self, monkeypatch):
        plain = build_binary_milp(_criterion7_instance(), MilpConfig())
        covered = add_coverage_constraint(plain, 0.5)
        real, calls = milp._irls_logistic, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("interrupted")
            return real(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(milp, "_irls_logistic", failing)
            with pytest.raises(RuntimeError):
                solve_milp(plain, MilpConfig(node_limit=0))
        assert plain._proposals.owner is None
        config = MilpConfig(node_limit=0)  # takes the whole stream
        self._assert_variants_equal_fresh_builds([covered, plain], config)

    def test_a_second_pass_regenerates_as_much_as_the_first(self, monkeypatch):
        problems = []
        for ds in _six_point_instances(11, 4):
            plain = build_binary_milp(ds, MilpConfig())
            covered = add_coverage_constraint(plain, 0.25)
            problems += [plain, covered, add_fairness_constraint(covered, np.arange(6) % 2)]
        calls = _counting_newton(monkeypatch)
        passes = []
        for _ in range(2):
            calls.clear()
            solutions = [solve_milp(p) for p in problems]
            passes.append(len(calls))
        calls.clear()
        for problem, sol in zip(problems, solutions):
            _assert_same_solve(sol, solve_milp(self._fresh(problem)))
        assert passes[0] == passes[1] < len(calls)


def _highs():
    pytest.importorskip("scipy.optimize")
    from oracles import highs_optimum

    return highs_optimum


def _oracle_instances(seed, classes, count, sizes, highs_optimum=None):
    """2-D datasets of ``classes`` classes drawn from ``default_rng(seed)``,
    n cycling through ``sizes``; given ``highs_optimum``, only those whose
    optimum by HiGHS is above 0 (the heuristics alone prove an optimum of
    0). The binary sweep draws from seed 808 and the 3-class one from 809."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        x = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        y = rng.integers(0, classes, n)
        h = np.where(rng.random(n) < rng.uniform(0.3, 0.8), y, (y + 1) % classes)
        ds = DeferDataset(x, y, h, classes)
        if highs_optimum is None or highs_optimum(build_milp(ds, MilpConfig())) > 0.0:
            out.append(ds)
    return out


def _criterion7_instance():
    """The acceptance suite's 30-point coverage and fairness instance."""
    rng = np.random.default_rng(303)
    x = rng.normal(size=(30, 2)) * 1.5
    y = rng.integers(0, 2, 30)
    groups = np.arange(30) % 2
    h = y.copy()
    for g in (0, 1):
        wrong = rng.choice(np.flatnonzero(groups == g), size=4, replace=False)
        h[wrong] = 1 - h[wrong]
    return DeferDataset(x, y, h, 2)


class TestHighsOracle:
    """scipy's HiGHS solves the same formulation as an independent oracle."""

    def _assert_proven(self, problem, highs_optimum):
        sol = solve_milp(problem)
        assert sol.status == "proven_optimal"
        assert sol.objective == pytest.approx(highs_optimum(problem), abs=1e-9)
        assert max(sol.bound_history) <= sol.objective

    @pytest.mark.parametrize("beta", [None, 0.25])
    def test_binary_optima(self, beta):
        highs_optimum = _highs()
        for ds in _oracle_instances(808, 2, 4, (8, 12, 16, 20), highs_optimum):
            problem = build_binary_milp(ds, MilpConfig())
            if beta is not None:
                problem = add_coverage_constraint(problem, beta)
            self._assert_proven(problem, highs_optimum)

    def test_three_class_optima(self):
        highs_optimum = _highs()
        for ds in _oracle_instances(809, 3, 3, (8, 9, 10), highs_optimum):
            self._assert_proven(build_milp(ds, MilpConfig()), highs_optimum)

    def test_three_class_zero_optima_node_counts(self):
        # the tree takes one proposal per node, so the heuristics find the
        # optimum 0 a few nodes in
        highs_optimum = _highs()
        nodes = []
        for ds in _oracle_instances(809, 3, 12, (8, 9, 10)):
            problem = build_milp(ds, MilpConfig())
            if highs_optimum(problem) == 0.0:
                sol = solve_milp(problem)
                assert (sol.objective, sol.status) == (0.0, "proven_optimal")
                nodes.append(sol.nodes_explored)
        assert nodes == [2, 5, 2, 3, 1, 4, 8, 2, 12, 2]

    def test_multiclass_optima_equal_the_cij_formulation(self):
        # the margin-row MILP and the reference with a binary c_ij per point
        # and other class have the same optima at lambda_reg = 0
        pytest.importorskip("scipy.optimize")
        from oracles import highs_lp_optimum

        sweeps = [(809, 3, 12, (8, 9, 10)), (5, 3, 12, (8, 9, 10)),
                  (7, 4, 5, (8, 10, 12)), (13, 5, 4, (10, 12))]
        above_zero = 0
        for args in sweeps:
            for ds in _oracle_instances(*args):
                problem = build_milp(ds, MilpConfig())
                sol = solve_milp(problem)
                assert sol.status == "proven_optimal"
                optimum = highs_lp_optimum(*_cij_reference_lp(problem))
                assert sol.objective == pytest.approx(optimum, abs=1e-9)
                above_zero += optimum > 0
        assert above_zero >= 10

    @pytest.mark.parametrize("beta", [None, 0.25])
    def test_node_limited_bounds_stay_below_the_optimum(self, beta):
        highs_optimum = _highs()
        problem = build_binary_milp(_criterion7_instance(), MilpConfig())
        if beta is not None:
            problem = add_coverage_constraint(problem, beta)
        sol = solve_milp(problem, MilpConfig(node_limit=150))
        assert sol.status == "time_limit_incumbent"
        optimum = highs_optimum(problem)
        assert 0.0 < sol.best_bound <= optimum <= sol.objective
        assert max(sol.bound_history) <= optimum

    def test_regularized_optima(self):
        # off the 1/n grid the default gap is OFF_GRID_GAP (1e-6), and HiGHS
        # stops within its own absolute gap of 1e-6
        highs_optimum = _highs()
        ds = _six_point_instances(11, 3)[2]
        cfg = MilpConfig(lambda_reg=0.01)
        problems = [build_binary_milp(ds, cfg),
                    add_coverage_constraint(build_binary_milp(ds, cfg), 0.25),
                    build_milp(_pinned_three_class_problem().dataset, cfg)]
        problems += [build_binary_milp(d, cfg)
                     for d in _oracle_instances(808, 2, 4, (8, 12, 16, 20))]
        for problem in problems:
            sol = solve_milp(problem)
            optimum = highs_optimum(problem)
            assert sol.status == "proven_optimal"
            assert sol.objective == pytest.approx(optimum, abs=2e-6)
            assert sol.objective - sol.best_bound <= milp.OFF_GRID_GAP
            assert max(sol.bound_history) <= optimum + 1e-6

    def test_no_rounding_with_regularization_or_fairness(self, monkeypatch):
        highs_optimum = _highs()
        rounded = []
        real = milp._grid_bound
        monkeypatch.setattr(milp, "_grid_bound", lambda lb, n: rounded.append(lb) or real(lb, n))
        ds = _six_point_instances(11, 3)[2]
        plain = build_binary_milp(ds, MilpConfig())
        solve_milp(plain)
        assert rounded
        for problem in (build_binary_milp(ds, MilpConfig(lambda_reg=0.01)),
                        add_fairness_constraint(plain, np.arange(6) % 2)):
            rounded.clear()
            sol = solve_milp(problem)
            assert not rounded
            assert sol.best_bound <= highs_optimum(problem) + 1e-9
