"""Exact 0-1 deferral optimization via a big-M mixed-integer linear program.

The formulation, per training point i with label y_i among C classes and
human-error indicator e_i, over box-bounded weights M, R and variables
phi_i >= 0 (continuous), t_i, r_i (binary):

    minimize   sum_i (phi_i + r_i e_i) / n   [+ lambda * l1(M, R)]
    subject to phi_i >= t_i - r_i
               K_m t_i >= gamma - (M_{y_i} - M_j) . x_i   for each class j != y_i
               R . x_i <= K_r r_i + gamma (r_i - 1)
               R . x_i >= K_r (r_i - 1) + gamma r_i

The classifier rows are the point's Kesler margin rows ``(e_y - e_j) kron
x_i`` (Duda, Hart & Stork, *Pattern Classification*, 2nd ed., 5.12) over
one weight row M_c per class. At C = 2 the row M_0 is fixed at 0 and M is
the vector M_1, so a point's one margin row is ``s_i x_i`` with
s_i = 2 y_i - 1. A point has C + 2 rows and the MILP 2n binaries for every
class count.

Features are scaled by the largest training L1 norm and bias-augmented, so
activations stay comparable to the weight box. gamma must be strictly
positive: at gamma = 0 the all-zero rejector satisfies both rejector rows
for either value of r_i and the constraint is void.

The solver is a deterministic best-bound branch-and-bound whose node
relaxations are the full LP relaxation, solved with :mod:`deferlab.lp` by
the dual simplex: the root from the slack basis, each child node from its
parent's optimal basis. Primal heuristics supply incumbents, a proposal
per node; their alternating fits run on the margin rows. A problem
without coverage or fairness rows whose LP would exceed ``EXACT_ROWS_MAX``
rows is not searched: its solve returns the heuristics' incumbent with the
trivial bound 0, as with ``node_limit=0``. Side-constrained problems are
searched at every size, since fairness rows need the tree to find a
feasible point.

Heuristic proposals and the weights of node LP points are re-scored
through the true 0-1 loss and re-checked against margins, the weight box,
and any coverage or fairness rows before adoption. An integral LP vertex is
adopted at its LP cost: its weights sit on the gamma margins, where
re-scoring rejects it or charges it more. ``MilpSolution.train_loss`` is
always recomputed from the returned pair, so ``objective`` can exceed it.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .core import DeferDataset, HalfspacePair, augment, system_loss_01
from .lp import LinearProgram, origin_in_hull, solve_lp

__all__ = [
    "MilpConfig",
    "MilpProblem",
    "MilpSolution",
    "build_binary_milp",
    "build_milp",
    "add_coverage_constraint",
    "add_fairness_constraint",
    "solve_milp",
]

INT_TOL = 1e-6
# With lambda_reg = 0 and no fairness rows every objective value is k/n for
# an integer k, so a node bound lb proves ceil(n*lb - GRID_TOL)/n. GRID_TOL
# is in points (units of 1/n) and must stay above the simplex's noise, or a
# bound that sits on the grid would round a whole point up. The simplex stops
# with reduced costs within DUAL_TOL = 1e-9 and rows within FEAS_TOL = 1e-9,
# so a column of cost 1/n moves n*lb by about 1e-9 points. Over 2104 node
# bounds of 4- to 12-point binary and 3-class problems, those on the grid
# were within 4e-15 points of it and the others 5e-6 points (gamma-scale)
# or more above it, which still round up. A value too large only rounds
# fewer bounds up: snapping to the grid point below lb leaves a valid bound.
GRID_TOL = 1e-6
# the default gap off that grid, with lambda_reg > 0 or fairness rows
OFF_GRID_GAP = 1e-6
FAIRNESS_SLACK = 1e-6
# problems without side rows whose LP has more rows are not searched
EXACT_ROWS_MAX = 450
# an IRLS fit ends after a Newton step this small next to the largest weight,
# or after IRLS_STEPS steps; IRLS_RIDGE damps its Hessian
IRLS_STEP_TOL = 1e-13
IRLS_STEPS = 25
IRLS_RIDGE = 1e-8
# pocket-perceptron epochs of a fit that IRLS leaves unseparated
POCKET_EPOCHS = 60
# heuristic starts, and the classifier/rejector fit rounds of each
HEURISTIC_RESTARTS = 3
HEURISTIC_ROUNDS = 8


@dataclass(frozen=True)
class MilpConfig:
    """Formulation constants and solver knobs.

    Defaults mirror the reference constants: weight box 1 and margin 1e-5;
    both big-M values are box + gamma. With lambda_reg = 0 and no fairness
    rows objective values live on the grid {0, 1, ...}/n: ``abs_gap`` then
    defaults to 0.4/n at solve time, which certifies exact optimality, and
    the solver rounds every node bound up to that grid (see ``GRID_TOL``);
    an explicit ``abs_gap`` is compared with the rounded bounds. Off the
    grid ``abs_gap`` defaults to ``OFF_GRID_GAP`` (1e-6).
    """

    gamma: float = 1e-5
    box: float = 1.0
    lambda_reg: float = 0.0
    coverage_beta: Optional[float] = None
    time_limit_s: Optional[float] = None
    abs_gap: Optional[float] = None
    node_limit: Optional[int] = None

    def __post_init__(self):
        # every test is written so that NaN fails it: the CLI passes these
        # unchecked, a NaN time limit never expires and a NaN gap, like a
        # negative one, switches pruning off
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be strictly positive and finite")
        if not 0 < self.box < math.inf:
            raise ValueError("box must be positive and finite")
        if self.coverage_beta is not None and not 0.0 <= self.coverage_beta <= 1.0:
            raise ValueError("coverage_beta must lie in [0, 1]")
        if not 0 <= self.lambda_reg < math.inf:
            raise ValueError("lambda_reg must be nonnegative and finite")
        if self.abs_gap is not None and not 0 <= self.abs_gap < math.inf:
            raise ValueError("abs_gap must be nonnegative and finite")
        # an infinite limit is no limit
        for name in ("time_limit_s", "node_limit"):
            if getattr(self, name) is not None and not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


class _ProposalStream:
    """The primal heuristics' proposals for one family of problems: one from
    ``build_milp`` and every variant ``add_coverage_constraint`` and
    ``add_fairness_constraint`` derive from it, chains included. They share
    ``xt``, ``err`` and the margin rows, all that ``_heuristic_candidates``
    reads, so the stream keeps every proposal drawn so far for any member's
    solve to replay, and draws more on demand. A solve of ``owner``, the
    problem whose solve started the stream, restarts it, so a re-solve pays
    for its heuristics again. An exception inside generation drops the
    stream, so no solve sees it truncated.
    """

    def __init__(self):
        self.owner = None
        self.drawn: list = []  # (M, R) weight proposals, never modified
        self._source = None

    def __reduce__(self):  # a copied or pickled problem starts a stream of its own
        return _ProposalStream, ()

    def start(self, problem: "MilpProblem") -> "_ProposalStream":
        """Ready the stream for a solve of ``problem``, a family member."""
        if self.owner is None or self.owner is problem:
            self.owner = problem
            self.drawn = []
            self._source = _heuristic_candidates(problem, np.random.default_rng(0x5EED5EED))
        return self

    def get(self, i: int):
        """Proposal ``i``, drawn when it is the first new one; None past the
        stream's end."""
        if i == len(self.drawn):
            try:
                proposal = next(self._source, None)
            except BaseException:
                self.owner = None
                raise
            if proposal is None:
                return None
            self.drawn.append(proposal)
        return self.drawn[i]


@dataclass
class MilpProblem:
    """A built deferral MILP: data in normalized space plus the var layout.
    ``dataclasses.replace`` copies neither the LP nor the proposal stream."""

    dataset: DeferDataset
    xt: np.ndarray  # (n, d+1) features / norm_scale with bias appended
    err: np.ndarray  # (n,) human error indicators
    norm_scale: float
    gamma: float
    box: float
    lambda_reg: float
    coverage_beta: Optional[float] = None
    fairness_groups: Optional[np.ndarray] = None
    _lp: Optional[LinearProgram] = field(default=None, init=False, repr=False, compare=False)
    _proposals: _ProposalStream = field(default_factory=_ProposalStream, init=False,
                                        repr=False, compare=False)

    @property
    def k_m(self) -> float:
        return self.box + self.gamma

    k_r = k_m  # both big-M values are box + gamma

    # ---- variable layout -------------------------------------------------
    @property
    def n(self) -> int:
        return self.xt.shape[0]

    @property
    def d1(self) -> int:
        return self.xt.shape[1]

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes

    @property
    def m_shape(self) -> tuple:
        """The classifier weights' shape: one row per class, or M_1 alone at
        C = 2, where M_0 is fixed at 0."""
        return (self.d1,) if self.num_classes == 2 else (self.num_classes, self.d1)

    def _layout(self):
        """Slices of the flat LP variable vector, in declaration order."""
        d1, n = self.d1, self.n
        nw = math.prod(self.m_shape)
        out = {"M": slice(0, nw), "R": slice(nw, nw + d1)}
        base = nw + d1
        for name in ("phi", "t", "r"):
            out[name] = slice(base, base + n)
            base += n
        if self.lambda_reg > 0:
            out["aux"] = slice(base, base + nw + d1)
            base += nw + d1
        out["total"] = base
        return out

    @property
    def binary_var_ids(self) -> np.ndarray:
        lay = self._layout()
        return np.concatenate([np.arange(lay[name].start, lay[name].stop) for name in ("t", "r")])

    @cached_property
    def margin_rows(self) -> np.ndarray:
        """Each point's C-1 margin rows, in point order: ``row . M.ravel() > 0``
        for every row of a point when M classifies it right.

        Kesler's row ``(e_y - e_j) kron x_i`` per class j != y_i, ascending.
        At C = 2 the M_0 columns are dropped, so a point's row is ``x_i`` or
        ``-x_i`` as y_i is 1 or 0: the row ``y_i x_i`` for y_i in {-1, +1}.
        """
        (n, d1), cm1 = self.xt.shape, self.num_classes - 1
        pts = np.arange(n)[:, None]
        pos = np.arange(cm1)
        y = np.asarray(self.dataset.labels, dtype=int)[:, None]
        rows = np.zeros((n, cm1, self.num_classes, d1))
        rows[pts, pos, y] = self.xt[:, None, :]
        rows[pts, pos, pos + (pos >= y)] = -self.xt[:, None, :]
        if self.num_classes == 2:
            rows = rows[:, :, 1:]  # M_0 = 0
        return rows.reshape(n * cm1, -1)

    # ---- LP relaxation ----------------------------------------------------
    @property
    def lp_relaxation(self) -> LinearProgram:
        if self._lp is None:
            self._lp = self._build_lp()
        return self._lp

    def _build_lp(self) -> LinearProgram:
        lay = self._layout()
        nv, n = lay["total"], self.n
        km, kr, g = self.k_m, self.k_r, self.gamma
        pts = np.arange(n)
        phi, t, r = (lay[name].start + pts for name in ("phi", "t", "r"))
        cm1 = self.num_classes - 1
        # per point: the phi row, one classifier row per margin row, then
        # the two rejector rows
        block = np.zeros((n, cm1 + 3, nv))
        block[pts, 0, phi] = 1.0  # phi_i - t_i + r_i >= 0
        block[pts, 0, t] = -1.0
        block[pts, 0, r] = 1.0
        # K_m t_i + row . M >= gamma for each margin row
        block[pts[:, None], 1 + np.arange(cm1), t[:, None]] = km
        block[:, 1:-2, lay["M"]] = self.margin_rows.reshape(n, cm1, -1)
        block[:, -2:, lay["R"]] = self.xt[:, None, :]  # R.x_i - (K_r + g) r_i <= -g, >= -K_r
        block[pts, -2, r] = -(kr + g)
        block[pts, -1, r] = -(kr + g)
        blocks = [block.reshape(-1, nv)]
        senses = ([">="] * (cm1 + 1) + ["<=", ">="]) * n
        rhs = [np.tile([0.0] + [g] * cm1 + [-g, -kr], n)]

        if self.lambda_reg > 0:
            # aux_k >= w_k and aux_k >= -w_k over the weights M then R
            nw = lay["R"].stop
            w = np.arange(nw)
            reg = np.zeros((nw, 2, nv))
            reg[w, :, lay["aux"].start + w] = 1.0
            reg[w, 0, w] = -1.0
            reg[w, 1, w] = 1.0
            blocks.append(reg.reshape(2 * nw, nv))
            senses += [">="] * (2 * nw)
            rhs.append(np.zeros(2 * nw))

        if self.coverage_beta is not None:
            cover = np.zeros((1, nv))
            cover[0, lay["r"]] = 1.0
            blocks.append(cover)
            senses.append("<=")
            rhs.append([self.coverage_beta * n])

        if self.fairness_groups is not None:
            groups = np.asarray(self.fairness_groups)
            inside = np.unique(groups)[:, None] == groups[None, :]
            w_in, w_out = 1.0 / inside.sum(axis=1), 1.0 / (~inside).sum(axis=1)
            coef = np.where(inside, w_in[:, None], -w_out[:, None])
            fair = np.zeros((len(coef), 2, nv))
            fair[:, :, lay["phi"]] = coef[:, None, :]
            fair[:, :, lay["r"]] = (coef * self.err)[:, None, :]
            blocks.append(fair.reshape(2 * len(coef), nv))
            senses += ["<=", ">="] * len(coef)
            rhs.append(np.tile([FAIRNESS_SLACK, -FAIRNESS_SLACK], len(coef)))

        c = np.zeros(nv)
        c[lay["phi"]] = 1.0 / n
        c[lay["r"]] = self.err / n
        lo = np.full(nv, -np.inf)
        hi = np.full(nv, np.inf)
        lo[lay["M"]], hi[lay["M"]] = -self.box, self.box
        lo[lay["R"]], hi[lay["R"]] = -self.box, self.box
        lo[lay["phi"]], hi[lay["phi"]] = 0.0, np.inf
        for name in ("t", "r"):
            lo[lay[name]], hi[lay[name]] = 0.0, 1.0
        if "aux" in lay:
            c[lay["aux"]] = self.lambda_reg
            lo[lay["aux"]], hi[lay["aux"]] = 0.0, self.box
        return LinearProgram(c=c, A=np.concatenate(blocks), senses=senses,
                             b=np.concatenate(rhs), lo=lo, hi=hi)

    @property
    def has_side_constraints(self) -> bool:
        return self.coverage_beta is not None or self.fairness_groups is not None

    @property
    def num_rows_estimate(self) -> int:
        extra = 2 * (math.prod(self.m_shape) + self.d1) if self.lambda_reg > 0 else 0
        return (2 + self.num_classes) * self.n + extra


@dataclass
class MilpSolution:
    """Outcome of solve_milp. ``train_loss`` is always recomputed through the
    true 0-1 system loss of the extracted pair on the unnormalized data."""

    pair: Optional[HalfspacePair]
    objective: float
    train_loss: float
    status: str  # proven_optimal | time_limit_incumbent | infeasible
    nodes_explored: int
    wall_time_s: float
    best_bound: float
    regularization: float = 0.0
    bound_history: list = field(default_factory=list)
    incumbent_history: list = field(default_factory=list)
    lp_iterations: int = 0  # simplex iterations over the solve's node LPs
    # drawing and scoring heuristic proposals, certificates included; a
    # proposal replayed from the problem's family stream costs only its scoring
    heuristic_s: float = 0.0
    proposals: int = 0  # heuristic proposals taken from the stream, repeats included


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _normalize(dataset: DeferDataset):
    x = dataset.features
    norms = np.abs(x).sum(axis=1)
    scale = float(norms.max())
    if scale <= 0.0:
        scale = 1.0  # zero-variance data stays valid
    return augment(x / scale), scale


def build_binary_milp(dataset: DeferDataset, config: MilpConfig) -> MilpProblem:
    """``build_milp`` for a dataset that must have 2 classes."""
    if dataset.num_classes != 2:
        raise ValueError("binary builder requires num_classes == 2; use build_milp")
    return build_milp(dataset, config)


def build_milp(dataset: DeferDataset, config: MilpConfig) -> MilpProblem:
    """Assemble the big-M formulation for a dataset of any class count."""
    xt, scale = _normalize(dataset)
    problem = MilpProblem(
        dataset=dataset,
        xt=xt,
        err=(dataset.human_preds != dataset.labels).astype(float),
        norm_scale=scale,
        gamma=config.gamma,
        box=config.box,
        lambda_reg=config.lambda_reg,
    )
    if config.coverage_beta is not None:
        problem = add_coverage_constraint(problem, config.coverage_beta)
    return problem


def add_coverage_constraint(problem: MilpProblem, beta: float) -> MilpProblem:
    """Cap the deferral rate: sum_i r_i / n <= beta."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return _variant(problem, coverage_beta=float(beta))


def add_fairness_constraint(problem: MilpProblem, groups) -> MilpProblem:
    """Equalize mean per-point system cost across demographic groups.

    For each group the mean of phi_i + r_i I{h_i != y_i} must match the mean
    over its complement, as an equality with +-1e-6 slack.
    """
    groups = np.asarray(groups)
    if groups.shape != (problem.n,):
        raise ValueError("groups must assign one id per training point")
    if np.unique(groups).size < 2:
        raise ValueError("need at least 2 groups")
    return _variant(problem, fairness_groups=groups)


def _variant(problem: MilpProblem, **side) -> MilpProblem:
    """``problem`` under other side constraints, sharing its proposal stream."""
    out = replace(problem, **side)
    out._proposals = problem._proposals
    return out


# ---------------------------------------------------------------------------
# pair extraction and incumbent scoring
# ---------------------------------------------------------------------------


def _unnormalize_pair(problem: MilpProblem, m_norm: np.ndarray, r_norm: np.ndarray) -> HalfspacePair:
    m = np.array(m_norm, dtype=float, copy=True)
    r = np.array(r_norm, dtype=float, copy=True)
    m[..., :-1] /= problem.norm_scale
    r[:-1] /= problem.norm_scale
    return HalfspacePair(m, r)


def _split_weights(problem: MilpProblem, x: np.ndarray):
    """(M, R) as views of a vector that starts with them in layout order,
    M in ``problem.m_shape``."""
    lay = problem._layout()
    return x[lay["M"]].reshape(problem.m_shape), x[lay["R"]]


class _Incumbent:
    __slots__ = ("objective", "m_norm", "r_norm", "reg")

    def __init__(self, objective, m_norm, r_norm, reg):
        self.objective = objective
        self.m_norm = m_norm
        self.r_norm = r_norm
        self.reg = reg


def _incumbent_from_lp_point(problem: MilpProblem, x: np.ndarray) -> _Incumbent:
    """Adopt an integral LP vertex as an incumbent, costs taken from its own
    variable values (phi may legitimately sit above max(0, t - r) when a
    fairness row pads it)."""
    lay = problem._layout()
    phi = x[lay["phi"]]
    r = np.round(x[lay["r"]])
    train_cost = float(np.sum(phi + r * problem.err)) / problem.n
    reg = 0.0
    if problem.lambda_reg > 0:
        reg = problem.lambda_reg * float(np.sum(x[lay["aux"]]))
    return _Incumbent(train_cost + reg, *_split_weights(problem, x), reg)


def _score_candidate(problem: MilpProblem, m_norm, r_norm) -> Optional[_Incumbent]:
    """Re-score a weight candidate as a feasible integral MILP solution.

    Scales weights into the box, derives (t, r, phi) honestly from margins,
    and rejects candidates that violate margins or any side constraint.
    Returns None when the candidate cannot be certified feasible.
    """
    m = np.asarray(m_norm, dtype=float)
    r = np.asarray(r_norm, dtype=float)
    xt, g = problem.xt, problem.gamma
    rows = problem.margin_rows

    max_m = np.max(np.abs(m), initial=0.0)
    acts = rows @ m.ravel()
    max_act = np.max(np.abs(acts), initial=0.0)
    # t_i = 1 keeps every margin row feasible as long as row . M >= gamma - K_m
    s_m = min(
        problem.box / max_m if max_m > 0 else np.inf,
        (problem.k_m - g) / max_act if max_act > 0 else np.inf,
    )
    if not np.isfinite(s_m):
        s_m = 1.0
    m = m * s_m
    acts = acts * s_m

    max_r = np.max(np.abs(r), initial=0.0)
    racts = xt @ r
    max_ract = np.max(np.abs(racts), initial=0.0)
    s_r = min(
        problem.box / max_r if max_r > 0 else np.inf,
        problem.k_r / max_ract if max_ract > 0 else np.inf,
    )
    if not np.isfinite(s_r):
        s_r = 1.0
    r = r * s_r
    racts = racts * s_r
    if np.any(np.abs(racts) < g):
        return None  # rejector puts a point inside the margin band

    r_dec = (racts >= 0).astype(float)
    # a point is classified wrong when any of its margin rows is below gamma
    t_dec = (acts < g).reshape(problem.n, -1).any(axis=1).astype(float)
    phi = np.maximum(0.0, t_dec - r_dec)
    train_cost = float(np.sum(phi + r_dec * problem.err)) / problem.n

    if problem.coverage_beta is not None and r_dec.mean() > problem.coverage_beta + 1e-9:
        return None
    if problem.fairness_groups is not None:
        cost = phi + r_dec * problem.err
        groups = problem.fairness_groups
        for gid in np.unique(groups):
            inside = groups == gid
            if abs(cost[inside].mean() - cost[~inside].mean()) > FAIRNESS_SLACK + 1e-12:
                return None

    reg = 0.0
    if problem.lambda_reg > 0:
        reg = problem.lambda_reg * (np.abs(m).sum() + np.abs(r).sum())
    return _Incumbent(train_cost + reg, m, r, float(reg))


# ---------------------------------------------------------------------------
# primal heuristics
# ---------------------------------------------------------------------------


def _pocket_perceptron(xt, targets, w0, epochs, rng, inseparable):
    """Pocket perceptron on +-1 targets, full per-sample epochs (Gallant,
    *Perceptron-based learning algorithms*, IEEE TNN 1990).

    Converges to an exact separator on separable data given enough epochs;
    otherwise returns the lowest-error weights seen. Rows are signed by their
    targets: row i is wrong when ``signed[i] . w <= 0``, which decides as
    ``targets[i] * (xt[i] . w) <= 0`` does for every value (negation is
    exact), and its update adds ``signed[i]`` to ``w`` in place. Each row's
    test is one BLAS dot product: a matrix-vector product or a Python sum
    rounds differently and would change which updates happen.

    One ``rng.permuted`` call draws every epoch's order, the same orders and
    final generator state as one ``rng.permutation(n)`` per epoch; an early
    stop rewinds the generator and redraws only the orders it used.

    ``inseparable`` is a zero-argument callable that is true when no
    halfspace separates the signed rows. Once the pocket holds one wrong row
    and it is true, no later epoch can lower that count, so the pocket is
    returned at once: a full run would return the same weights and leave the
    generator where the ``permuted`` call left it. It is asked right after
    that call and after each epoch that lowers the count to 1.
    """
    signed = targets[:, None] * xt
    w = w0.copy()
    best_w = w.copy()
    best_wrong = np.count_nonzero(signed @ w <= 0)
    if best_wrong == 0:
        return w
    n = len(targets)
    rows = list(signed)
    start = rng.bit_generator.state
    orders = rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1).tolist()
    if best_wrong == 1 and inseparable():
        return best_w
    for used, order in enumerate(orders, 1):
        updated = False
        for i in order:
            if rows[i].dot(w) <= 0:
                w += rows[i]
                updated = True
        if updated:
            wrong = np.count_nonzero(signed @ w <= 0)
            if wrong < best_wrong:
                best_wrong, best_w = wrong, w.copy()
                if best_wrong == 1 and inseparable():
                    return best_w
        if not updated or best_wrong == 0:
            rng.bit_generator.state = start
            rng.permuted(np.tile(np.arange(n), (used, 1)), axis=1)
            return w
    return best_w


def _irls_logistic(xt, targets):
    """Newton (IRLS) steps on logistic loss for +-1 targets.

    The dimension is small, so exact Hessian solves are cheap; on separable
    data the margins grow every step and training separation is usually
    perfect after a handful of iterations. A pure function of its inputs.

    The loop ends after a Newton step whose largest entry is at most
    ``IRLS_STEP_TOL`` times the largest weight, and returns the iterate that
    step made: Newton has converged, and the rest of the ``IRLS_STEPS``
    steps would only move the last bits. A step that leaves the bytes of ``w`` unchanged is
    such a step. Decisions hold because the fit is read through signs alone:
    whether it separates the rows, and otherwise the pocket's start, scaled
    by its largest entry. A relative change of 1e-12 flips a row only when
    that row's margin lies within it of 0; the ``exact-small`` solves of
    seeds 1, 5 and 9 kept every objective, tree, proposal count and
    decision. A step above 1e8 also ends the loop: the rows are separable
    and the weights diverge.
    """
    w = np.zeros(xt.shape[1])
    damp = IRLS_RIDGE * np.eye(xt.shape[1])
    for _ in range(IRLS_STEPS):
        z = targets * (xt @ w)
        p = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(z, -500.0), 500.0)))
        wt = p * (1.0 - p) + 1e-12
        grad = xt.T @ (targets * p)
        hess = (xt * wt[:, None]).T @ xt + damp
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        w = w + step
        largest = np.abs(step).max()
        if largest <= IRLS_STEP_TOL * np.abs(w).max() or largest > 1e8:
            break
    return w


def _fit_separator(xt, targets, rng, w, inseparable):
    """IRLS warm start, pocket-perceptron cleanup; exact on separable data.

    ``w`` is the IRLS fit of (xt, targets); it is neither modified nor
    returned. ``inseparable`` is the pocket's certificate callable (see
    ``_pocket_perceptron``); it is not called when IRLS separates the rows.
    """
    if np.count_nonzero(targets * (xt @ w) <= 0) == 0:
        return w.copy()
    scale = np.max(np.abs(w))
    if scale > 0:
        w = w / scale
    return _pocket_perceptron(xt, targets, w, POCKET_EPOCHS, rng, inseparable)


def _heuristic_candidates(problem: MilpProblem, rng):
    """Alternating classifier/rejector fits; yields (M, R) weight proposals.

    A zero-loss pair must keep and correctly classify every point the human
    misses, and defer every kept point the classifier misses when the human
    is right. The alternation fixes one side, derives the other side's
    must-sets, and fits an exact separator on them. The classifier step
    separates the kept points' margin rows (``MilpProblem.margin_rows``) with
    targets +1; a point is classified wrong when any of its rows is.

    The alternation often returns to a row subset and target vector it has
    already fitted. IRLS is pure, so each distinct (subset, targets) pair is
    fitted once per call; the pocket perceptron draws from ``rng`` and runs
    on every fit that IRLS leaves unseparated, as it would without the memo.
    Next to each IRLS fit the memo keeps whether the pair is inseparable
    (``origin_in_hull`` of the target-signed rows). That certificate is
    solved lazily, the first time a pocket on the pair reaches one wrong row,
    so subsets whose pockets never get there never pay for it. The
    classifier's and the rejector's rows differ, and so do their memo keys:
    the classifier's targets are all +1, the rejector's are -1 on the
    human-wrong points.
    """
    xt, err = problem.xt, problem.err
    n, d1 = xt.shape
    rows = problem.margin_rows
    ones = np.ones(len(rows))
    per_point = problem.num_classes - 1
    m_shape = problem.m_shape
    bias_only = np.zeros(d1)
    bias_only[-1] = 1.0
    irls_fits = {}  # (row mask, target bytes) -> IRLS weights; lives for this call
    verdicts = {}  # the same keys -> whether no halfspace separates the pair

    def fit(x, mask, targets):
        sub = x[mask]
        key = (mask.tobytes(), targets.tobytes())
        if key not in irls_fits:
            irls_fits[key] = _irls_logistic(sub, targets)

        def inseparable():
            if key not in verdicts:
                verdicts[key] = origin_in_hull(targets[:, None] * sub)
            return verdicts[key]

        return _fit_separator(sub, targets, rng, irls_fits[key], inseparable)

    def fit_classifier(points):
        mask = np.repeat(points, per_point)
        return fit(rows, mask, ones[mask]).reshape(m_shape)

    m_all = fit_classifier(np.ones(n, dtype=bool))
    yield m_all, bias_only.copy()  # defer everything
    yield m_all, -bias_only  # defer nothing

    hw = err > 0.5
    if not hw.any() or not (~hw).any():
        return

    # human-wrong points can never be deferred for free; anchor the classifier there
    m_hw = fit_classifier(hw)

    for start in range(HEURISTIC_RESTARTS):
        if start == 0:
            m = m_hw.copy()
        elif start == 1:
            m = m_all.copy()
        else:
            m = m_hw + 0.3 * rng.standard_normal(m_shape)
        r = None
        for _ in range(HEURISTIC_ROUNDS):
            clf_wrong = (rows @ m.ravel() <= 0).reshape(n, per_point).any(axis=1)
            must_defer = clf_wrong & ~hw
            if not must_defer.any():
                yield m.copy(), -bias_only
                break
            alive = must_defer | hw
            t = np.where(must_defer, 1.0, -1.0)
            r = fit(xt, alive, t[alive])
            yield m.copy(), r.copy()
            kept = xt @ r < 0
            if not kept.any():
                break
            m = fit_classifier(kept)
            yield m.copy(), r.copy()


def _coverage_shifted(problem: MilpProblem, r):
    """``r`` with its bias shifted to defer at most floor(beta*n) points; None
    when the budget covers every point or ties leave no gap to shift into."""
    budget = int(np.floor(problem.coverage_beta * problem.n + 1e-9))
    if budget >= problem.n:
        return None
    ordered = np.sort(problem.xt @ r)[::-1]
    if budget == 0:
        delta = ordered[0] + max(1.0, abs(ordered[0]))
    else:
        hi, lo = ordered[budget - 1], ordered[budget]
        if hi - lo <= 1e-12:
            return None
        delta = 0.5 * (hi + lo)
    shifted = r.copy()
    shifted[-1] -= delta
    return shifted


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def _grid_bound(lb: float, n: int) -> float:
    """The multiple of 1/n that a bound lb proves when every objective value
    is one: ceil(n*lb - GRID_TOL)/n."""
    return math.ceil(n * lb - GRID_TOL) / n


def solve_milp(problem: MilpProblem, config: Optional[MilpConfig] = None) -> MilpSolution:
    """Best-bound branch-and-bound over the problem's binary variables.

    Branches on the binary with fractional part closest to 0.5 (ties toward
    the lowest variable id). Incumbents are seeded by re-scoring the weights
    of node relaxations through the true 0-1 loss, by adopting integral LP
    vertices at their LP cost, and by the proposals of the alternating-fit
    primal heuristics, each distinct proposal of which is scored once. With
    lambda_reg = 0 an incumbent of objective 0 is proven optimal outright
    since every objective term is nonnegative. A node or time limit that
    stops the search once the least open bound meets the incumbent within
    the gap leaves it proven optimal too.

    The heuristics' proposals are a stream the loop pulls from: a popped
    node its bound does not prune first takes the next proposal (more while
    there is no incumbent), then its LP unless the new incumbent prunes it
    and it is not the root. A ``proven_optimal`` solve drops the rest of the
    stream; any other ending takes the rest before its status is decided.
    The stream is the problem's family's (``_ProposalStream``): a solve
    replays the proposals an earlier solve of a variant drew. The solve
    checks its deadline between proposals; past it only the stream's first
    two are taken.

    With lambda_reg = 0 and no fairness rows every objective value is a
    multiple of 1/n, and every node bound is rounded up to that grid
    (``_grid_bound``) before it is used: to prune, as the children's bound,
    and in ``best_bound`` and ``bound_history``, which records each rise.
    A rise of at most 1e-12 over the last recorded value replaces that value.

    A problem without coverage or fairness rows whose LP would have more
    than ``EXACT_ROWS_MAX`` rows is not searched, whatever its class count,
    and its LP is never built: the heuristics run in full and the solve
    ends as with ``node_limit=0``, with the bound 0: ``proven_optimal`` when
    the incumbent is within the gap of 0 (at the default gap, when it is 0)
    and ``time_limit_incumbent`` otherwise. Side-constrained problems are
    searched at every size.

    The formulation comes from the problem alone: ``gamma``, ``box``,
    ``lambda_reg`` and ``coverage_beta`` are the ones it was built with,
    and ``config`` gives only the limits and the gap. A ``config`` whose
    ``coverage_beta`` is set and differs from the problem's raises
    ValueError; its ``gamma``, ``box`` and ``lambda_reg`` are not checked,
    because their defaults cannot be told apart from unset ones.
    """
    if config is None:
        config = MilpConfig()
    if config.coverage_beta is not None and config.coverage_beta != problem.coverage_beta:
        raise ValueError(f"config coverage_beta={config.coverage_beta} differs from the "
                         f"problem's coverage_beta={problem.coverage_beta}: build the "
                         f"problem with this config or add_coverage_constraint")
    start = time.monotonic()
    deadline = start + config.time_limit_s if config.time_limit_s is not None else None
    n = problem.n
    on_grid = problem.lambda_reg == 0 and problem.fairness_groups is None
    abs_gap = config.abs_gap
    if abs_gap is None:
        abs_gap = 0.4 / n if on_grid else OFF_GRID_GAP

    def out_of_time():
        return deadline is not None and time.monotonic() > deadline

    incumbent: Optional[_Incumbent] = None
    bound_history = [0.0]  # the root's bound: every objective term is nonnegative
    incumbent_history: list = []

    def consider(cand: Optional[_Incumbent]):
        nonlocal incumbent
        if cand is None:
            return
        if incumbent is None or cand.objective < incumbent.objective - 1e-12:
            incumbent = cand
            incumbent_history.append(cand.objective)

    def inc_obj():
        return incumbent.objective if incumbent is not None else np.inf

    def grid(lb):
        return _grid_bound(lb, n) if on_grid else lb

    def prunes(bound):
        """The tree's prune test, on a bound already rounded to the grid."""
        return bound >= inc_obj() - abs_gap + 1e-12

    searched = problem.has_side_constraints or problem.num_rows_estimate <= EXACT_ROWS_MAX
    node_limit = config.node_limit if searched else 0
    lp = problem.lp_relaxation if node_limit is None or node_limit > 0 else None
    nodes = lp_iterations = 0

    stream = problem._proposals.start(problem)
    # scoring is pure, so a repeated proposal (and its shifted variants) can
    # never beat the incumbent its first copy already competed against
    scored = set()
    proposals, heuristic_s = 0, 0.0

    def take(rest=False):
        """Score the stream's next proposal, and more while there is no
        incumbent; with ``rest``, every proposal left. Past the deadline
        only the stream's first two proposals, which defer everything and
        nothing, are still taken."""
        nonlocal proposals, heuristic_s
        began = time.monotonic()
        while proposals < 2 or not out_of_time():
            proposal = stream.get(proposals)
            if proposal is None:
                break
            proposals += 1
            m_cand, r_cand = proposal
            key = (m_cand.tobytes(), r_cand.tobytes())
            if key not in scored:
                scored.add(key)
                consider(_score_candidate(problem, m_cand, r_cand))
                if problem.coverage_beta is not None:
                    # shift the rejector bias so the deferral budget holds exactly
                    shifted = _coverage_shifted(problem, r_cand)
                    if shifted is not None:
                        consider(_score_candidate(problem, m_cand, shifted))
            if not rest and incumbent is not None:
                break
        heuristic_s += time.monotonic() - began

    def raise_bound(value):
        nonlocal global_bound
        if value > global_bound:
            global_bound = value
            if value - bound_history[-1] <= 1e-12:
                bound_history[-1] = value
            else:
                bound_history.append(value)

    binary_ids = problem.binary_var_ids
    # a node is a heap entry (bound, seq, lo, hi, basis): the box its LP is
    # solved over and its parent's optimal basis (None, the slack basis, at
    # the root). seq keeps ties in push order and the arrays out of
    # comparisons. An unsearched problem never pops its root.
    heap = [(0.0, 0, *((lp.lo, lp.hi) if lp is not None else (None, None)), None)]
    seq = 1
    global_bound = 0.0
    closed_bound = np.inf  # the least bound of a node the prune test closed
    dropped_unresolved = False

    while heap:
        if out_of_time() or (node_limit is not None and nodes >= node_limit):
            break
        node_bound, _, lo, hi, basis = heapq.heappop(heap)
        raise_bound(min(node_bound, closed_bound, inc_obj()))  # no open or closed node is lower
        if not prunes(node_bound):
            take()  # one proposal per node the tree is about to work on
        if nodes and prunes(node_bound):  # the root is always relaxed, for its bound
            closed_bound = min(closed_bound, node_bound)
            break  # best-first: every open node is at least this bound
        nodes += 1
        # a child's LP differs from its parent's only in the binary it fixed,
        # so the dual simplex re-solves it from the parent's optimal basis
        sol = solve_lp(lp, basis=basis, lo=lo, hi=hi)
        lp_iterations += sol.iterations
        if sol.status == "infeasible":
            continue
        # an unresolved LP (iteration limit or numerical failure) has no x:
        # the node keeps its bound, and its children the parent's basis
        x = sol.x
        if x is not None:
            node_bound, basis = max(node_bound, sol.objective_value), sol.basis
        node_lb = grid(node_bound)
        if x is not None and not prunes(node_lb):
            consider(_score_candidate(problem, *_split_weights(problem, x)))
        if prunes(node_lb):
            closed_bound = min(closed_bound, node_lb)
            continue

        free = lo[binary_ids] < hi[binary_ids]
        if x is not None:
            frac = x[binary_ids]
            fractional = (np.abs(frac - np.round(frac)) > INT_TOL) & free
            if not fractional.any():
                # integral LP vertex: this node is solved exactly
                consider(_incumbent_from_lp_point(problem, x))
                continue
            # most fractional: fractional part closest to 0.5, ties to lowest id
            vid = binary_ids[np.argmin(np.where(fractional, np.abs(frac - 0.5), np.inf))]
        elif free.any():
            # unresolved relaxation: never close the node silently, branch
            # on the lowest free binary instead
            vid = binary_ids[np.argmax(free)]
        else:
            dropped_unresolved = True
            continue
        for val in (0.0, 1.0):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[vid] = child_hi[vid] = val
            heapq.heappush(heap, (node_lb, seq, child_lo, child_hi, basis))
            seq += 1

    # the least bound of a node left open by a limit or closed by the prune
    # test, which keeps closing it as the incumbent falls
    least = min(closed_bound, heap[0][0]) if heap else closed_bound
    # the rest of the stream can only matter to a solve the tree did not prove
    if incumbent is None or dropped_unresolved or not prunes(least):
        take(rest=True)
    wall = time.monotonic() - start
    if not prunes(least):  # a limit left the least open bound outside the gap
        status = "time_limit_incumbent"
    elif incumbent is None:
        status = "infeasible"
    elif dropped_unresolved:
        status = "time_limit_incumbent"  # a node was abandoned unresolved
    else:
        status = "proven_optimal"
        raise_bound(min(incumbent.objective, least))  # within abs_gap of the incumbent

    pair, train_loss = None, np.inf
    if incumbent is not None:
        pair = _unnormalize_pair(problem, incumbent.m_norm, incumbent.r_norm)
        train_loss = system_loss_01(problem.dataset, *pair.decide(problem.dataset.features))
    return MilpSolution(
        pair=pair,
        objective=inc_obj(),
        train_loss=train_loss,
        status=status,
        nodes_explored=nodes,
        wall_time_s=wall,
        best_bound=min(global_bound, inc_obj()),
        regularization=incumbent.reg if incumbent is not None else 0.0,
        lp_iterations=lp_iterations,
        heuristic_s=heuristic_s,
        proposals=proposals,
        bound_history=bound_history,
        incumbent_history=incumbent_history,
    )
