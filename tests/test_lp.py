import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab.lp as lp_module
from deferlab.core import DeferDataset
from deferlab.lp import LinearProgram, LpSolution, solve_lp
from deferlab.milp import INT_TOL, MilpConfig, add_coverage_constraint, build_binary_milp


def brute_force_vertex_min(lp, tol=1e-9):
    """Oracle: enumerate vertices as intersections of v active constraints.

    Works on bounded-feasible LPs with few variables. Every basic feasible
    solution lies at the intersection of v linearly independent active
    constraints drawn from rows and variable bounds.
    """
    m, v = lp.A.shape
    cands = []
    for i in range(m):
        cands.append((lp.A[i], lp.b[i]))
    for j in range(v):
        e = np.zeros(v)
        e[j] = 1.0
        if np.isfinite(lp.lo[j]):
            cands.append((e, lp.lo[j]))
        if np.isfinite(lp.hi[j]):
            cands.append((e.copy(), lp.hi[j]))
    best = np.inf
    for combo in itertools.combinations(range(len(cands)), v):
        M = np.array([cands[k][0] for k in combo])
        rhs = np.array([cands[k][1] for k in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        ax = lp.A @ x
        ok = True
        for i, s in enumerate(lp.senses):
            if s == "<=" and ax[i] > lp.b[i] + tol:
                ok = False
            elif s == ">=" and ax[i] < lp.b[i] - tol:
                ok = False
            elif s == "=" and abs(ax[i] - lp.b[i]) > tol:
                ok = False
        if ok and np.all(x >= lp.lo - tol) and np.all(x <= lp.hi + tol):
            best = min(best, float(lp.c @ x))
    return best


class TestExamples:
    def test_one_variable(self):
        # maximize x s.t. x <= 1, x >= 0, posed as min -x
        lp = LinearProgram(c=[-1.0], A=[[1.0]], senses=["<="], b=[1.0], lo=[0.0], hi=[np.inf])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective_value == pytest.approx(-1.0)

    def test_symmetric_line(self):
        lp = LinearProgram(
            c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="], b=[2.0], lo=[0.0, 0.0], hi=[np.inf, np.inf]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0)

    def test_textbook_lp(self):
        # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x, y >= 0
        lp = LinearProgram(
            c=[-3.0, -5.0],
            A=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            senses=["<=", "<=", "<="],
            b=[4.0, 12.0, 18.0],
            lo=[0.0, 0.0],
            hi=[np.inf, np.inf],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.x[1] == pytest.approx(6.0)
        assert sol.objective_value == pytest.approx(-36.0)
        assert sol.objective_value == pytest.approx(brute_force_vertex_min(lp), abs=1e-7)


class TestStatuses:
    def test_infeasible(self):
        lp = LinearProgram(
            c=[0.0], A=[[1.0], [1.0]], senses=[">=", "<="], b=[2.0, 1.0], lo=[0.0], hi=[np.inf]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(
            c=[-1.0], A=[[1.0]], senses=[">="], b=[0.0], lo=[0.0], hi=[np.inf]
        )
        assert solve_lp(lp).status == "unbounded"

    def test_iteration_limit(self):
        lp = LinearProgram(
            c=[-3.0, -5.0],
            A=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            senses=["<=", "<=", "<="],
            b=[4.0, 12.0, 18.0],
            lo=[0.0, 0.0],
            hi=[np.inf, np.inf],
        )
        assert solve_lp(lp, max_iter=1).status == "iteration_limit"

    def test_equality_rows(self):
        lp = LinearProgram(
            c=[1.0, 2.0],
            A=[[1.0, 1.0]],
            senses=["="],
            b=[3.0],
            lo=[0.0, 0.0],
            hi=[2.0, 2.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0)  # x=(2,1)

    def test_fixed_variable(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A=[[1.0, 1.0]],
            senses=[">="],
            b=[1.0],
            lo=[0.5, 0.0],
            hi=[0.5, np.inf],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.5)
        assert sol.objective_value == pytest.approx(1.0)


class TestAgainstVertexEnumeration:
    def _random_bounded_lp(self, rng, v, m):
        A = rng.normal(size=(m, v))
        x0 = rng.uniform(-1, 1, size=v)  # keep feasibility certain
        b = A @ x0 + rng.uniform(0.0, 2.0, size=m)
        senses = ["<="] * m
        c = rng.normal(size=v)
        lo = np.full(v, -3.0)
        hi = np.full(v, 3.0)
        return LinearProgram(c=c, A=A, senses=senses, b=b, lo=lo, hi=hi)

    def test_random_small_lps(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            v = int(rng.integers(2, 7))
            m = int(rng.integers(1, 9))
            lp = self._random_bounded_lp(rng, v, m)
            sol = solve_lp(lp)
            assert sol.status == "optimal", f"trial {trial}"
            oracle = brute_force_vertex_min(lp)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7), f"trial {trial}"

    def test_random_mixed_senses(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            v = int(rng.integers(2, 5))
            m = int(rng.integers(2, 7))
            A = rng.normal(size=(m, v))
            x0 = rng.uniform(-0.5, 0.5, size=v)
            slack = rng.uniform(0.1, 1.0, size=m)
            senses = [("<=", ">=")[int(rng.integers(0, 2))] for _ in range(m)]
            b = np.array(
                [A[i] @ x0 + (slack[i] if senses[i] == "<=" else -slack[i]) for i in range(m)]
            )
            lp = LinearProgram(
                c=rng.normal(size=v), A=A, senses=senses, b=b, lo=np.full(v, -2.0), hi=np.full(v, 2.0)
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal", f"trial {trial}"
            oracle = brute_force_vertex_min(lp)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7), f"trial {trial}"


class TestInvariants:
    def test_feasibility_of_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = int(rng.integers(2, 6))
            m = int(rng.integers(1, 8))
            A = rng.normal(size=(m, v))
            b = A @ rng.uniform(-1, 1, size=v) + rng.uniform(0, 1, size=m)
            lp = LinearProgram(
                c=rng.normal(size=v),
                A=A,
                senses=["<="] * m,
                b=b,
                lo=np.full(v, -4.0),
                hi=np.full(v, 4.0),
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert np.all(lp.A @ sol.x <= lp.b + 1e-9)
            assert np.all(sol.x >= lp.lo - 1e-9)
            assert np.all(sol.x <= lp.hi + 1e-9)

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 4))
        b = A @ rng.uniform(-1, 1, 4) + rng.uniform(0, 1, 6)
        lp = LinearProgram(
            c=rng.normal(size=4), A=A, senses=["<="] * 6, b=b, lo=np.full(4, -2.0), hi=np.full(4, 2.0)
        )
        a = solve_lp(lp)
        b2 = solve_lp(lp)
        assert a.objective_value == b2.objective_value
        np.testing.assert_array_equal(a.x, b2.x)
        assert a.iterations == b2.iterations


def _capped_random_lp(seed, v, m):
    """A random LP over the box [-2, 2]^v with mixed row senses.

    It is feasible at an interior point x0, and its first row caps x_0 at
    x0_0 + gap < 2, so fixing x_0 above the cap makes it infeasible.
    """
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, v))
    A[0] = 0.0
    A[0, 0] = 1.0
    x0 = rng.uniform(-1.0, 1.0, size=v)
    senses = ["<="] + [("<=", ">=", "=")[k] for k in rng.integers(0, 3, size=m - 1)]
    side = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])
    b = A @ x0 + side * rng.uniform(0.1, 1.0, size=m)
    return LinearProgram(
        c=rng.normal(size=v), A=A, senses=senses, b=b, lo=np.full(v, -2.0), hi=np.full(v, 2.0)
    )


def _assert_feasible(lp, sol, lo, hi, tol=1e-9):
    ax = lp.A @ sol.x
    for i, s in enumerate(lp.senses):
        if s == "<=":
            assert ax[i] <= lp.b[i] + tol
        elif s == ">=":
            assert ax[i] >= lp.b[i] - tol
        else:
            assert abs(ax[i] - lp.b[i]) <= tol
    assert np.all(sol.x >= lo - tol) and np.all(sol.x <= hi + tol)


def _assert_same_solve(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


class TestWarmStart:
    @given(
        seed=st.integers(0, 2**32 - 1),
        v=st.integers(1, 6),
        m=st.integers(1, 8),
        pick=st.integers(0, 5),
        mode=st.sampled_from(["lo", "hi", "infeasible"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixing_one_variable(self, seed, v, m, pick, mode):
        lp = _capped_random_lp(seed, v, m)
        parent = solve_lp(lp)
        assert parent.status == "optimal"
        lo, hi = lp.lo.copy(), lp.hi.copy()
        j = pick % v
        if mode == "lo":
            value = lp.lo[j]
        elif mode == "hi":
            value = lp.hi[j]
        else:
            j, value = 0, 0.5 * (lp.b[0] + lp.hi[0])  # interior, above the cap row
        lo[j] = hi[j] = value

        warm = solve_lp(lp, basis=parent.basis, lo=lo, hi=hi)
        cold = solve_lp(lp, lo=lo, hi=hi)
        _assert_same_solve(warm, cold)
        if mode == "infeasible":
            assert warm.status == "infeasible"
        if warm.status == "optimal":
            _assert_feasible(lp, warm, lo, hi)
        if v <= 3 and m <= 4:
            child = LinearProgram(c=lp.c, A=lp.A, senses=lp.senses, b=lp.b, lo=lo, hi=hi)
            oracle = brute_force_vertex_min(child)
            if warm.status == "optimal":
                assert warm.objective_value == pytest.approx(oracle, abs=1e-7)
            else:
                assert oracle == np.inf

    def test_returned_basis_resolves_without_pivots(self):
        lp = _capped_random_lp(3, 4, 5)
        sol = solve_lp(lp)
        again = solve_lp(lp, basis=sol.basis)
        assert again.status == "optimal"
        assert again.iterations == 0
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-12)

    def test_dual_infeasible_basis_falls_back_to_cold(self):
        lp = _capped_random_lp(3, 4, 5)
        sol = solve_lp(lp)
        basis = sol.basis
        nonbasic = np.ones(lp.num_vars + lp.num_rows, dtype=bool)
        nonbasic[basis.basic] = False
        # every nonbasic column at its other bound: not dual feasible
        flipped = lp_module.Basis(basis.basic, basis.at_upper ^ nonbasic)
        again = solve_lp(lp, basis=flipped)
        assert again.status == "optimal"
        assert again.iterations == sol.iterations  # the cold path from scratch
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-12)

    def test_unfactorable_basis_falls_back_to_cold(self, monkeypatch):
        lp = _capped_random_lp(3, 4, 5)
        sol = solve_lp(lp)
        calls = []
        invert = lp_module._invert

        def fail_first(B):
            calls.append(B.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return invert(B)

        monkeypatch.setattr(lp_module, "_invert", fail_first)
        again = solve_lp(lp, basis=sol.basis)
        assert len(calls) > 1
        assert again.status == "optimal"
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-12)

    def test_malformed_warm_start_raises(self):
        lp = _capped_random_lp(3, 4, 5)
        basis = solve_lp(lp).basis
        with pytest.raises(ValueError):
            solve_lp(lp, basis=lp_module.Basis(basis.basic[:-1], basis.at_upper))
        with pytest.raises(ValueError):
            solve_lp(lp, basis=basis, lo=lp.hi, hi=lp.lo)

    @pytest.mark.parametrize("beta", [None, 0.25])
    def test_branch_path_of_a_deferral_milp(self, beta):
        # a 6-point instance: 3 points per class, the human wrong on 4
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        h = y.copy()
        h[[0, 1, 2, 5]] = 1 - h[[0, 1, 2, 5]]
        problem = build_binary_milp(DeferDataset(x, y, h, 2), MilpConfig())
        if beta is not None:
            problem = add_coverage_constraint(problem, beta)
        lp = problem.lp_relaxation
        binaries = problem.binary_var_ids
        lo, hi = lp.lo.copy(), lp.hi.copy()
        parent = solve_lp(lp)
        depth = 0
        warm_iters = cold_iters = 0
        while True:
            frac = parent.x[binaries]
            dist = np.abs(frac - np.round(frac))
            if not np.any(dist > INT_TOL):
                break
            vid = int(binaries[np.argmin(np.where(dist > INT_TOL, np.abs(frac - 0.5), np.inf))])
            follow = None
            for value in (0.0, 1.0):
                clo, chi = lo.copy(), hi.copy()
                clo[vid] = chi[vid] = value
                warm = solve_lp(lp, basis=parent.basis, lo=clo, hi=chi)
                cold = solve_lp(lp, lo=clo, hi=chi)
                _assert_same_solve(warm, cold)
                warm_iters += warm.iterations
                cold_iters += cold.iterations
                if warm.status == "optimal":
                    _assert_feasible(lp, warm, clo, chi)
                    if follow is None:
                        follow = (warm, clo, chi)
            if follow is None:
                break
            parent, lo, hi = follow
            depth += 1
        assert depth >= 3
        # the parent's basis is a few dual pivots from the child's optimum
        assert warm_iters * 8 <= cold_iters


class TestNumericalStatus:
    def test_singular_factorization_is_numerical(self, monkeypatch):
        def singular(B):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(lp_module, "_invert", singular)
        lp = _capped_random_lp(5, 3, 4)
        assert solve_lp(lp).status == "numerical"



def _highs_separable(rows):
    """Whether some w has rows @ w >= 1, by scipy's HiGHS: the primal form of
    the question ``origin_in_hull`` answers in its dual (hull) form."""
    from scipy.optimize import linprog

    n, d = rows.shape
    res = linprog(np.zeros(d), A_ub=-rows, b_ub=-np.ones(n), bounds=[(None, None)] * d,
                  method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


class TestOriginInHull:
    """``origin_in_hull(rows)`` is true exactly when no halfspace has every
    row strictly on its positive side; scipy's HiGHS is the oracle."""

    def _signed_sets(self):
        rng = np.random.default_rng(41)
        for k in range(60):
            n, d = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            xt = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
            if k % 2:  # labelled by a halfspace: separable
                targets = np.where(xt @ rng.normal(size=d + 1) > 0, 1.0, -1.0)
            else:
                targets = rng.choice([-1.0, 1.0], n)
            yield targets[:, None] * xt

    def test_random_sets_agree_with_highs(self, monkeypatch):
        pytest.importorskip("scipy.optimize")

        def no_cold(self, cost):
            raise AssertionError("the hull LP took the two-phase path")

        monkeypatch.setattr(lp_module._Simplex, "cold", no_cold)
        verdicts = []
        for rows in self._signed_sets():
            verdict = lp_module.origin_in_hull(rows)
            assert verdict == (not _highs_separable(rows)), rows
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)  # both states occur

    def test_degenerate_sets(self):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(43)
        row = np.append(rng.normal(size=3), 1.0)
        few = rng.normal(size=(2, 4))  # n < d+1
        cases = [
            (few, False),
            (np.vstack([few, -few[:1]]), True),
            (np.vstack([row, -row]), True),  # a row twice, with opposite targets
            (np.vstack([rng.normal(size=(4, 4)), np.zeros(4)]), True),  # a zero row
            (np.zeros((1, 4)), True),
            (row[None, :], False),
        ]
        for rows, inside in cases:
            assert lp_module.origin_in_hull(rows) == inside
            assert _highs_separable(rows) != inside
