"""Bounded-variable linear programming by the dual simplex, with warm starts.

Minimization convention throughout. Rows carry a sense in {"<=", ">=", "="}
and every variable has a box whose bounds may be infinite, lo < +inf and
hi > -inf. Each row gets a slack column whose box encodes the sense, so the
solver works on the equality form [A | I] z = b.

``solve_lp`` accepts an LP only when each column has a finite bound and its
cost favours one: a positive cost needs a finite lo, a negative cost a
finite hi. Every LP the package builds is of this kind; any other is a
ValueError. Such an LP is bounded, every nonbasic column sits at one of its
bounds, and the slack basis, which puts every structural column at the
finite bound its cost favours, is dual feasible, since its reduced costs are
the costs. Every solve runs the bounded dual simplex (Koberstein, *The dual
simplex method, techniques for a fast and stable implementation*, PhD
thesis, Paderborn 2005) until the basic values are within their bounds. It
starts from the basis given, typically the optimal basis of a
branch-and-bound parent (an LP with the same c, A, senses and b but other
variable bounds), or from the slack basis when none is given or the given
one cannot be factored or is not dual feasible.

The solver keeps a dense explicit basis inverse. It updates the inverse
with a product-form (rank-1) update after each pivot and recomputes it from
scratch every ``REFACTOR_EVERY`` pivots, before taking a pivot element
smaller than ``TINY_PIVOT``, and before reporting a solution. The
relaxations solved here are dense and small, so dense linear algebra and
determinism are worth more than sparsity.

Statuses: ``optimal`` (with the final basis), ``infeasible``,
``iteration_limit``, and ``numerical`` for a basis that cannot be factored
or a final inverse whose reduced costs are not dual feasible, where the
LP's true status is unknown. Every ``infeasible`` comes from the dual
simplex's row test on a freshly computed inverse: a basic value outside its
bounds that no nonbasic column can move toward them, so that row of the
inverse is a Farkas certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Basis", "LinearProgram", "LpSolution", "origin_in_hull", "solve_lp"]

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
# reduced-cost slack allowed when a basis is checked for dual feasibility
DUAL_TOL = 1e-9
# a pivot element below this is taken only on a freshly computed inverse
TINY_PIVOT = 1e-7
# product-form updates between two inverses computed from scratch
REFACTOR_EVERY = 32
SENSES = ("<=", ">=", "=")


@dataclass
class LinearProgram:
    """min c.x  s.t.  A x (<=|>=|=) b,  lo <= x <= hi."""

    c: np.ndarray
    A: np.ndarray
    senses: list
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be 2-D")
        m, v = self.A.shape
        if self.c.shape != (v,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if len(self.senses) != m or any(s not in SENSES for s in self.senses):
            raise ValueError("senses must be one of <=, >=, = per row")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A))
                and np.all(np.isfinite(self.b))):
            raise ValueError("c, A and b must be finite")
        _check_box(self.lo, self.hi, v)


def _check_box(lo: np.ndarray, hi: np.ndarray, v: int) -> None:
    """Raise unless lo and hi give each of v variables a nonempty box."""
    if lo.shape != (v,) or hi.shape != (v,):
        raise ValueError("bounds must have one entry per variable")
    if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
        raise ValueError("need lo <= hi, lo < +inf and hi > -inf for every variable")


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural columns, then one slack per row.

    ``basic`` holds the m basic column ids in row order. ``at_upper`` has one
    flag per column; it marks the nonbasic columns that sit at their upper
    bound, the others sit at their lower bound.
    """

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | iteration_limit | numerical
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    iterations: int = 0
    basis: Optional[Basis] = None  # the optimal basis, for a warm start


def _invert(B: np.ndarray) -> np.ndarray:
    """Dense inverse of a basis matrix; raises LinAlgError when singular."""
    return np.linalg.inv(B)


class _Simplex:
    """Bounded dual simplex on the equality form [A | I] z = b."""

    def __init__(self, lp: LinearProgram, lo: np.ndarray, hi: np.ndarray, max_iter: int):
        m, v = lp.A.shape
        self.m, self.nv = m, v
        self.max_iter = max_iter
        self.iterations = 0
        self.degenerate = 0
        self.bland = False
        # Bland's rule kicks in after a stall to guarantee termination
        self.stall_threshold = 3 * (m + v)

        senses = np.asarray(lp.senses)
        self.T = np.hstack([lp.A, np.eye(m)])
        self.lo = np.concatenate([lo, np.where(senses == ">=", -np.inf, 0.0)])
        self.hi = np.concatenate([hi, np.where(senses == "<=", np.inf, 0.0)])
        self.movable = self.lo < self.hi  # fixed columns never enter the basis
        self.b = lp.b
        self.basis = np.empty(0, dtype=np.intp)
        self.binv = np.empty((0, 0))
        self.since_refactor = 0

    # ---- basis bookkeeping ---------------------------------------------------
    def _place_nonbasic(self, upper: np.ndarray) -> None:
        """Put every column at a finite bound: the upper one where ``upper``
        asks for it or the lower one is infinite, else the lower one. The
        flags then leave out the basic columns: ``at_hi`` marks the nonbasic
        columns at their upper bound, ``enter`` the movable nonbasic ones."""
        up = np.isfinite(self.hi) & (upper | ~np.isfinite(self.lo))
        self.x = np.where(up, self.hi, self.lo)
        self.at_hi, self.enter = up, self.movable.copy()
        self.at_hi[self.basis] = self.enter[self.basis] = False

    def _basic_values(self) -> None:
        x_n = self.x.copy()
        x_n[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self.T @ x_n)

    def _refactor(self) -> None:
        self.binv = _invert(self.T[:, self.basis])
        self.since_refactor = 0
        self._basic_values()

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - (cost[self.basis] @ self.binv) @ self.T

    def _infeasibility(self) -> np.ndarray:
        xb = self.x[self.basis]
        return np.maximum(self.lo_b - xb, xb - self.hi_b)

    def _pivot(self, r: int, q: int, w: np.ndarray) -> None:
        """Column q enters the basis in row r, given w = B^-1 a_q; the values
        and the leaving column's flags are already updated."""
        row = self.binv[r] / w[r]
        self.binv -= w[:, None] * row
        self.binv[r] = row
        self.basis[r] = q
        self.lo_b[r], self.hi_b[r] = self.lo[q], self.hi[q]
        self.at_hi[q] = self.enter[q] = False
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self._refactor()

    def _count_pivot(self, step: float) -> None:
        self.iterations += 1
        if step <= 1e-12:
            self.degenerate += 1
            if self.degenerate >= self.stall_threshold:
                self.bland = True

    # ---- dual simplex --------------------------------------------------------
    def _dual(self, cost: np.ndarray) -> str:
        """Bounded dual simplex from a dual feasible basis, until the basic
        values are within their bounds. Returns ``optimal`` once they are."""
        if self.m == 0:
            return "optimal"  # no basic values
        d = self._reduced_costs(cost)
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            infeas = self._infeasibility()
            if self.bland:
                rows = np.flatnonzero(infeas > FEAS_TOL)
                if rows.size == 0:
                    return "optimal"
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(np.argmax(infeas))
                if infeas[r] <= FEAS_TOL:
                    return "optimal"
            p = self.basis[r]
            below = self.x[p] < self.lo[p]

            # row r of B^-1 [A | I]; the entering column must push x_p
            # toward the violated bound, rising from its lower bound or
            # falling from its upper one
            alpha = self.binv[r] @ self.T
            toward = alpha if below else -alpha
            at_hi = self.at_hi
            idx = np.flatnonzero(self.enter & (np.where(at_hi, -toward, toward) < -PIVOT_TOL))
            if idx.size == 0:
                if self.since_refactor:
                    self._refactor()
                    d = self._reduced_costs(cost)
                    continue
                return "infeasible"  # row r is a Farkas certificate

            # dual ratio test: the reduced cost that first reaches zero
            d_idx, mag_idx = d[idx], np.abs(alpha[idx])
            ratio = np.maximum(np.where(at_hi[idx], -d_idx, d_idx), 0.0) / mag_idx
            best = ratio.min()
            tied = ratio <= best + 1e-12
            ties = idx[tied]
            if not self.bland:
                mag_tied = mag_idx[tied]
                ties = ties[mag_tied == mag_tied.max()]
            q = int(ties[0])

            w = self.binv @ self.T[:, q]
            if abs(w[r]) < TINY_PIVOT and self.since_refactor:
                self._refactor()
                d = self._reduced_costs(cost)
                continue

            self._count_pivot(best)
            target = self.lo[p] if below else self.hi[p]
            delta = (self.x[p] - target) / w[r]
            self.x[self.basis] -= w * delta
            self.x[q] += delta
            self.x[p] = target
            self.at_hi[p], self.enter[p] = not below, self.movable[p]
            d -= (d[q] / alpha[q]) * alpha
            self._pivot(r, q, w)
            if self.since_refactor == 0:
                d = self._reduced_costs(cost)

    # ---- solve ---------------------------------------------------------------
    def optimize(self, cost: np.ndarray) -> str:
        """Dual simplex from a dual feasible basis, repeated until a fresh
        inverse confirms that the basic values are within their bounds;
        ``optimal`` when that inverse's reduced costs are dual feasible too,
        else ``numerical``."""
        while True:
            status = self._dual(cost)
            if status != "optimal":
                return status
            if self.since_refactor == 0:
                return "optimal" if self._dual_feasible(cost) else "numerical"
            self._refactor()

    def _install(self, basic: np.ndarray, at_upper: np.ndarray) -> None:
        self.basis = basic.copy()
        # the basic columns' bounds row by row, kept beside the basis by _pivot
        self.lo_b, self.hi_b = self.lo[basic], self.hi[basic]
        self._place_nonbasic(at_upper)
        self._refactor()

    def _dual_feasible(self, cost: np.ndarray) -> bool:
        d = self._reduced_costs(cost)
        return not np.any(self.enter & (np.where(self.at_hi, -d, d) < -DUAL_TOL))

    def solve(self, basis: Optional[Basis], cost: np.ndarray) -> str:
        """Solve from ``basis``, or from the slack basis when it is None,
        cannot be factored or is not dual feasible. Raises LinAlgError when
        the slack basis cannot be factored either."""
        warm = False
        if basis is not None:
            basic = np.asarray(basis.basic, dtype=np.intp)
            at_upper = np.asarray(basis.at_upper, dtype=bool)
            ncols = self.nv + self.m
            if basic.shape != (self.m,) or at_upper.shape != (ncols,):
                raise ValueError("basis does not match the LP's dimensions")
            if np.unique(basic).size != self.m or np.any(basic < 0) or np.any(basic >= ncols):
                raise ValueError("basis must name m distinct column ids")
            try:
                self._install(basic, at_upper)
                warm = self._dual_feasible(cost)
            except np.linalg.LinAlgError:
                pass
        if not warm:
            self._install(np.arange(self.nv, self.nv + self.m), cost < 0)
        return self.optimize(cost)

    def result(self, status: str, c: np.ndarray) -> LpSolution:
        if status != "optimal":
            return LpSolution(status, None, None, self.iterations)
        x = self.x[: self.nv].copy()
        basis = Basis(self.basis.copy(), self.at_hi)
        return LpSolution("optimal", x, float(c @ x), self.iterations, basis)


def solve_lp(
    lp: LinearProgram,
    max_iter: Optional[int] = None,
    basis: Optional[Basis] = None,
    lo: Optional[np.ndarray] = None,
    hi: Optional[np.ndarray] = None,
) -> LpSolution:
    """Solve a bounded-variable LP by the bounded dual simplex.

    ``lo`` and ``hi`` replace the LP's variable bounds when given. Raises
    ValueError naming the first column whose cost favours an infinite bound,
    or else the first column with no finite bound (see the module
    docstring). ``basis`` is an optional warm start, typically the ``basis``
    of an earlier solution of an LP with the same c, A, senses and b;
    without one, or when it cannot be factored or is not dual feasible, the
    solve starts from the slack basis. The solver is deterministic:
    re-solving the same LP from the same start gives the same answer in the
    same number of iterations.
    """
    lo = lp.lo if lo is None else np.asarray(lo, dtype=float)
    hi = lp.hi if hi is None else np.asarray(hi, dtype=float)
    m, v = lp.A.shape
    _check_box(lo, hi, v)
    open_side = ((lp.c > 0) & (lo == -np.inf)) | ((lp.c < 0) & (hi == np.inf))
    if open_side.any():
        j = int(np.argmax(open_side))
        raise ValueError(f"column {j} has cost {lp.c[j]:g}, which favours an infinite "
                         "bound; solve_lp needs every cost to favour a finite bound")
    free = (lo == -np.inf) & (hi == np.inf)
    if free.any():
        j = int(np.argmax(free))
        raise ValueError(f"column {j} is free; solve_lp needs a finite bound on every column")
    if max_iter is None:
        max_iter = 50 * (m + v)
    sx = _Simplex(lp, lo, hi, max_iter)
    try:
        status = sx.solve(basis, np.concatenate([lp.c, np.zeros(m)]))
    except np.linalg.LinAlgError:
        status = "numerical"
    return sx.result(status, lp.c)


def origin_in_hull(rows) -> bool:
    """Whether the origin lies in the convex hull of ``rows``: by Gordan's
    theorem, exactly when no w has ``rows @ w > 0`` in every row.

    Solves the hull LP ``rows.T @ y = 0``, ``sum(y) = 1``, ``y >= 0`` (d+1
    equality rows, one column per row of ``rows``, zero cost). With zero
    costs the slack basis is dual feasible, so the solve is the dual simplex
    from it alone. True only when the LP ends ``optimal``: an infeasible or
    unresolved LP gives False.
    """
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    lp = LinearProgram(c=np.zeros(n), A=np.vstack([rows.T, np.ones(n)]), senses=["="] * (d + 1),
                       b=np.append(np.zeros(d), 1.0), lo=np.zeros(n), hi=np.full(n, np.inf))
    return solve_lp(lp).status == "optimal"
