import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab.lp as lp_module
from deferlab.core import DeferDataset
from deferlab.lp import LinearProgram, LpSolution, solve_lp
from deferlab.milp import (INT_TOL, MilpConfig, add_coverage_constraint, add_fairness_constraint,
                           build_binary_milp, build_milp)


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
        # maximize x s.t. x <= 1, 0 <= x <= 2, posed as min -x
        lp = LinearProgram(c=[-1.0], A=[[1.0]], senses=["<="], b=[1.0], lo=[0.0], hi=[2.0])
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
        sol = solve_lp(_textbook_lp())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.x[1] == pytest.approx(6.0)
        assert sol.objective_value == pytest.approx(-36.0)
        assert sol.objective_value == pytest.approx(brute_force_vertex_min(_textbook_lp()),
                                                    abs=1e-7)


def _textbook_lp():
    # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, 0 <= x <= 5, 0 <= y <= 7
    return LinearProgram(
        c=[-3.0, -5.0],
        A=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        senses=["<=", "<=", "<="],
        b=[4.0, 12.0, 18.0],
        lo=[0.0, 0.0],
        hi=[5.0, 7.0],
    )


class TestStatuses:
    def test_infeasible(self):
        lp = LinearProgram(
            c=[0.0], A=[[1.0], [1.0]], senses=[">=", "<="], b=[2.0, 1.0], lo=[0.0], hi=[np.inf]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # the cost favours column 1's infinite upper bound: an unbounded LP,
        # which solve_lp does not take
        lp = LinearProgram(
            c=[1.0, -1.0], A=[[1.0, 1.0]], senses=[">="], b=[0.0], lo=[0.0, 0.0], hi=[1.0, np.inf]
        )
        with pytest.raises(ValueError, match="column 1 has cost -1"):
            solve_lp(lp)

    def test_iteration_limit(self):
        assert solve_lp(_textbook_lp(), max_iter=1).status == "iteration_limit"

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


class TestInputs:
    @pytest.mark.parametrize("field", ["c", "A", "b", "lo", "hi"])
    def test_nan_in_the_lp_is_rejected(self, field):
        data = dict(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0], lo=[0.0, 0.0],
                    hi=[1.0, 1.0])
        data[field] = np.array(data[field])
        data[field].flat[0] = np.nan
        with pytest.raises(ValueError):
            LinearProgram(**data)

    @pytest.mark.parametrize("field", ["c", "A", "b"])
    def test_infinity_in_the_data_is_rejected(self, field):
        data = dict(c=[1.0], A=[[1.0]], senses=[">="], b=[1.0], lo=[0.0], hi=[1.0])
        data[field] = np.full(np.shape(data[field]), np.inf)
        with pytest.raises(ValueError):
            LinearProgram(**data)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_nan_bound_override_is_rejected(self, side):
        lp = LinearProgram(c=[1.0], A=[[1.0]], senses=[">="], b=[0.5], lo=[0.0], hi=[1.0])
        with pytest.raises(ValueError):
            solve_lp(lp, **{side: [np.nan]})

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_empty_infinite_box_is_rejected(self, bound):
        # lo = hi = +inf (or -inf) passes lo <= hi but holds no point
        data = dict(c=[1.0], A=[[1.0]], senses=["<="], b=[5.0], lo=[bound], hi=[bound])
        with pytest.raises(ValueError, match="lo < \\+inf and hi > -inf"):
            LinearProgram(**data)
        lp = LinearProgram(**{**data, "lo": [0.0], "hi": [1.0]})
        with pytest.raises(ValueError, match="lo < \\+inf and hi > -inf"):
            solve_lp(lp, lo=[bound], hi=[bound])


class TestWithoutRows:
    def _box(self, c, lo, hi):
        v = len(c)
        return LinearProgram(c=c, A=np.zeros((0, v)), senses=[], b=np.zeros(0), lo=lo, hi=hi)

    def test_every_column_at_a_finite_bound_in_its_box(self):
        inf = np.inf
        lp = self._box(c=[0.0, 0.0, 2.0, -1.0, 1.0, -1.0],
                       lo=[-inf, 1.0, -3.0, -inf, -1.0, -2.0],
                       hi=[-1.0, 2.0, 3.0, 4.0, inf, 5.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.x, [-1.0, 1.0, -3.0, 4.0, -1.0, 5.0])
        assert sol.objective_value == -6.0 - 4.0 - 1.0 - 5.0
        assert sol.iterations == 0

    @pytest.mark.parametrize("c, lo, hi", [([-1.0], [0.0], [np.inf]),
                                           ([1.0], [-np.inf], [0.0]),
                                           ([0.5], [-np.inf], [np.inf])])
    def test_an_open_side_the_cost_favours_is_unbounded(self, c, lo, hi):
        # solve_lp does not take such an LP; the error names the column
        lp = self._box([1.0, 0.0] + c, [0.0, -np.inf] + lo, [1.0, np.inf] + hi)
        with pytest.raises(ValueError, match=f"column 2 has cost {c[0]:g}, which favours"):
            solve_lp(lp)

    def test_a_free_column_is_rejected_by_name(self):
        inf = np.inf
        lp = self._box([0.0, 1.0, 0.0], [0.0, 0.0, -inf], [inf, 1.0, inf])
        with pytest.raises(ValueError, match="column 2 is free"):
            solve_lp(lp)
        with pytest.raises(ValueError, match="column 0 is free"):
            solve_lp(lp, lo=[-inf, 0.0, 0.0], hi=[inf, 1.0, 1.0])
        # an open side the cost favours is named first, even past a free column
        open_side = self._box([0.0, 1.0, -1.0], [-inf, 0.0, 0.0], [inf, 1.0, inf])
        with pytest.raises(ValueError, match="column 2 has cost -1, which favours"):
            solve_lp(open_side)


def _assert_in_the_class(lp):
    """Each column of ``lp`` has a finite bound and its cost favours one."""
    assert np.all(np.isfinite(lp.lo) | np.isfinite(lp.hi))
    assert np.all(np.isfinite(lp.lo[lp.c > 0]))
    assert np.all(np.isfinite(lp.hi[lp.c < 0]))


class TestBuiltLpsAreInTheClass:
    """Every LP the package builds is of the class ``solve_lp`` accepts."""

    @pytest.mark.parametrize("kind", ["binary", "three_class", "lambda_reg", "coverage",
                                      "fairness"])
    def test_milp_relaxations(self, kind):
        classes = 3 if kind == "three_class" else 2
        rng = np.random.default_rng(29)
        y = np.arange(8) % classes
        h = np.where(rng.random(8) < 0.5, y, (y + 1) % classes)
        config = MilpConfig(lambda_reg=0.1 if kind == "lambda_reg" else 0.0)
        problem = build_milp(DeferDataset(rng.normal(size=(8, 2)), y, h, classes), config)
        if kind == "coverage":
            problem = add_coverage_constraint(problem, 0.25)
        elif kind == "fairness":
            problem = add_fairness_constraint(problem, np.arange(8) % 2)
        lp = problem.lp_relaxation
        _assert_in_the_class(lp)
        assert solve_lp(lp).status == "optimal"

    def test_hull_lp(self, monkeypatch):
        built, real = [], lp_module.solve_lp
        monkeypatch.setattr(lp_module, "solve_lp", lambda lp: built.append(lp) or real(lp))
        lp_module.origin_in_hull(np.random.default_rng(31).normal(size=(5, 3)))
        (lp,) = built
        _assert_in_the_class(lp)


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


def _assert_same_solve(warm, fresh):
    assert warm.status == fresh.status
    if fresh.status == "optimal":
        assert warm.objective_value == pytest.approx(fresh.objective_value, abs=1e-9)


def _forbid_dual_infeasible_bases(monkeypatch):
    """Make every solve fail that checks a basis which is not dual feasible:
    a warm start it would replace by the slack basis, or a final inverse it
    would call numerical."""
    real = lp_module._Simplex._dual_feasible

    def dual_feasible(self, cost):
        if not real(self, cost):
            raise AssertionError("the solve met a basis that is not dual feasible")
        return True

    monkeypatch.setattr(lp_module._Simplex, "_dual_feasible", dual_feasible)


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
        _assert_same_solve(warm, solve_lp(lp, lo=lo, hi=hi))
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

    def test_dual_infeasible_basis_reaches_the_same_optimum(self, monkeypatch):
        # a warm start that is not dual feasible is replaced by the slack
        # basis: the solve is the no-basis solve, step for step
        lp = _capped_random_lp(3, 4, 5)
        sol = solve_lp(lp)
        basis = sol.basis
        nonbasic = np.ones(sum(lp.A.shape), dtype=bool)
        nonbasic[basis.basic] = False
        # every nonbasic column at its other bound: not dual feasible
        flipped = lp_module.Basis(basis.basic, basis.at_upper ^ nonbasic)
        with monkeypatch.context() as patch:
            _forbid_dual_infeasible_bases(patch)
            with pytest.raises(AssertionError, match="not dual feasible"):
                solve_lp(lp, basis=flipped)
        again = solve_lp(lp, basis=flipped)
        assert again.status == "optimal"
        assert again.iterations == sol.iterations > 0
        assert again.objective_value == sol.objective_value
        np.testing.assert_array_equal(again.x, sol.x)
        np.testing.assert_array_equal(again.basis.basic, sol.basis.basic)

    def test_unfactorable_basis_falls_back_to_the_slack_basis(self, monkeypatch):
        lp = _capped_random_lp(3, 4, 5)
        sol = solve_lp(lp)
        calls = []
        invert = lp_module._invert

        def fail_first(B):
            calls.append(B.copy())
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return invert(B)

        monkeypatch.setattr(lp_module, "_invert", fail_first)
        again = solve_lp(lp, basis=sol.basis)
        np.testing.assert_array_equal(calls[1], np.eye(lp.A.shape[0]))
        assert again.status == "optimal"
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-12)
        assert again.iterations == sol.iterations  # the no-basis solve, step for step

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
        warm_iters = fresh_iters = 0
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
                fresh = solve_lp(lp, lo=clo, hi=chi)  # from the slack basis, as the root
                _assert_same_solve(warm, fresh)
                warm_iters += warm.iterations
                fresh_iters += fresh.iterations
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
        # (23 vs 83 iterations without the coverage row, 36 vs 118 with it)
        assert warm_iters * 3 <= fresh_iters


def _general_lp(rng):
    """A random LP with boxed and half-bounded columns, all three row senses,
    now and then a duplicated row, and now and then a row that may cut off
    the point the rest are built around: optimal and infeasible both occur.
    Each cost favours a finite bound, as ``solve_lp`` requires: a
    half-bounded column's cost points at its bound."""
    v, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    kind = rng.integers(0, 3, size=v)  # boxed, lower bound only, upper bound only
    lo = np.where(kind <= 1, -rng.uniform(0, 2, v), -np.inf)
    hi = np.where((kind == 0) | (kind == 2), rng.uniform(0, 2, v), np.inf)
    x0 = np.clip(rng.normal(size=v), lo, hi)
    A = rng.normal(size=(m, v))
    senses = [("<=", ">=", "=")[k] for k in rng.integers(0, 3, size=m)]
    side = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])
    b = A @ x0 + side * rng.uniform(0, 1, size=m)
    if m > 1 and rng.random() < 0.3:
        A[-1], b[-1], senses[-1] = A[0], b[0], senses[0]
    if rng.random() < 0.3:
        b[rng.integers(0, m)] = 3.0 * rng.normal()
    c = rng.normal(size=v)
    c = np.select([kind == 1, kind == 2], [np.abs(c), -np.abs(c)], c)
    return LinearProgram(c=c, A=A, senses=senses, b=b, lo=lo, hi=hi)


def _highs(lp):
    from scipy.optimize import linprog

    sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in lp.senses])
    ub, eq = sign != 0, sign == 0
    kw = {}
    if ub.any():
        kw.update(A_ub=sign[ub, None] * lp.A[ub], b_ub=sign[ub] * lp.b[ub])
    if eq.any():
        kw.update(A_eq=lp.A[eq], b_eq=lp.b[eq])
    bounds = [(l if np.isfinite(l) else None, h if np.isfinite(h) else None)
              for l, h in zip(lp.lo, lp.hi)]
    return linprog(lp.c, bounds=bounds, method="highs", **kw)


class TestAgainstHighs:
    def test_random_general_lps(self):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(12345)
        statuses = {0: "optimal", 2: "infeasible"}
        seen = set()
        for draw in range(1000):
            lp = _general_lp(rng)
            res = _highs(lp)
            sol = solve_lp(lp)
            assert sol.status == statuses[res.status], draw
            if sol.status == "optimal":
                assert sol.objective_value == pytest.approx(res.fun, rel=1e-7, abs=1e-7), draw
                _assert_feasible(lp, sol, lp.lo, lp.hi)
            seen.add(sol.status)
        assert seen == set(statuses.values())


class TestPinnedSolves:
    def test_general_lps_equal_pinned_digest(self):
        # sha256 over 3000 draws of each solve's status, iterations and
        # objective, and each optimum's x and basis bytes (2685 optimal, 315
        # infeasible), recorded while the solver still took free columns
        rng = np.random.default_rng(12345)
        h = hashlib.sha256()
        for _ in range(3000):
            sol = solve_lp(_general_lp(rng))
            h.update(repr((sol.status, sol.iterations, sol.objective_value)).encode())
            if sol.status == "optimal":
                h.update(sol.x.tobytes() + sol.basis.basic.tobytes()
                         + sol.basis.at_upper.tobytes())
        assert h.hexdigest() == "bbed8b753b188471d093bd20a6ef563dfa709b7edf507cab3366a249b2330d4d"


def _farkas_row(sx, r, tol=lp_module.PIVOT_TOL):
    """Whether row r of the simplex's inverse proves [A | I] z = b infeasible
    over the column boxes: the basic value that row defines cannot reach its
    bounds from any point of the nonbasic columns' boxes."""
    alpha = sx.binv[r] @ sx.T
    alpha[np.abs(alpha) <= tol] = 0.0
    nonbasic = np.ones(alpha.size, dtype=bool)
    nonbasic[sx.basis] = False
    a, lo, hi = alpha[nonbasic], sx.lo[nonbasic], sx.hi[nonbasic]
    with np.errstate(invalid="ignore"):
        low = np.where(a > 0, a * lo, np.where(a < 0, a * hi, 0.0))
        high = np.where(a > 0, a * hi, np.where(a < 0, a * lo, 0.0))
    base = sx.binv[r] @ sx.b
    p = sx.basis[r]
    # x_p = base - a . x_N ranges over [base - sum(high), base - sum(low)]
    return base - high.sum() > sx.hi[p] or base - low.sum() < sx.lo[p]


class TestInfeasibleVerdicts:
    def test_each_comes_from_the_dual_row_test_on_a_fresh_inverse(self, monkeypatch):
        verdicts = []
        real = lp_module._Simplex._dual

        def dual(self, cost):
            status = real(self, cost)
            if status == "infeasible":
                proven = any(_farkas_row(self, r) for r in range(self.m))
                verdicts.append((self.since_refactor, proven))
            return status

        monkeypatch.setattr(lp_module._Simplex, "_dual", dual)
        rng = np.random.default_rng(99)
        solves = [(lp, None, None, None) for lp in (_general_lp(rng) for _ in range(400))]
        for seed in range(40):  # warm starts whose child LP is infeasible
            lp = _capped_random_lp(seed, 3, 4)
            lo, hi = lp.lo.copy(), lp.hi.copy()
            lo[0] = hi[0] = 0.5 * (lp.b[0] + lp.hi[0])
            solves.append((lp, solve_lp(lp).basis, lo, hi))
        infeasible = 0
        for lp, basis, lo, hi in solves:
            before = len(verdicts)
            status = solve_lp(lp, basis=basis, lo=lo, hi=hi).status
            infeasible += status == "infeasible"
            assert verdicts[before:] == ([(0, True)] if status == "infeasible" else [])
        assert infeasible >= 60


class TestNumericalStatus:
    def test_singular_factorization_is_numerical(self, monkeypatch):
        def singular(B):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(lp_module, "_invert", singular)
        lp = _capped_random_lp(5, 3, 4)
        assert solve_lp(lp).status == "numerical"

    def test_final_inverse_that_is_not_dual_feasible_is_numerical(self):
        lp = _capped_random_lp(3, 4, 5)
        cost = np.concatenate([lp.c, np.zeros(5)])
        sx = lp_module._Simplex(lp, lp.lo, lp.hi, max_iter=1000)
        assert sx.solve(None, cost) == "optimal"
        done = sx.iterations
        # the optimum's basic values stay within their bounds, so the dual
        # simplex takes no pivot, but under the reversed cost the fresh
        # inverse's reduced costs are not dual feasible
        assert not sx._dual_feasible(-cost)
        assert sx.optimize(-cost) == "numerical"
        assert sx.iterations == done


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
        _forbid_dual_infeasible_bases(monkeypatch)
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
