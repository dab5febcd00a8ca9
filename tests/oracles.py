"""Brute-force oracles shared by the milp tests and the acceptance suite."""

import itertools

import numpy as np


def halfspace_dichotomies(x):
    """Candidate halfspace weights covering every dichotomy of 2-D points.

    Both orientations of every line through a point pair, offset by a tiny
    epsilon to assign the touched points to either side, plus the two
    trivial all-one-side halfspaces. Exhaustive for points in general
    position.
    """
    n = x.shape[0]
    cands = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    eps = 1e-7 * max(1.0, float(np.abs(x).max()))
    for i, j in itertools.combinations(range(n), 2):
        d = x[j] - x[i]
        if np.allclose(d, 0.0):
            continue
        nrm = np.array([-d[1], d[0]])
        c = float(nrm @ x[i])
        for s in (1.0, -1.0):
            for off in (eps, -eps):
                cands.append(np.array([s * nrm[0], s * nrm[1], -s * c + off]))
    return cands


def brute_force_deferral_optimum(dataset, beta=None):
    """Minimum 0-1 system loss over all halfspace classifier/rejector pairs
    realizable on a 2-D dataset (enumeration oracle), optionally with at most
    ``beta`` of the points deferred."""
    xt = np.hstack([dataset.features, np.ones((dataset.n, 1))])
    cands = halfspace_dichotomies(dataset.features)
    hum_err = (dataset.human_preds != dataset.labels).astype(float)
    clf_errs = [((xt @ w > 0).astype(int) != dataset.labels).astype(float) for w in cands]
    defer_masks = [xt @ w >= 0 for w in cands]
    if beta is not None:
        defer_masks = [dm for dm in defer_masks if dm.sum() <= beta * dataset.n + 1e-9]
    best = np.inf
    for ce in clf_errs:
        for dm in defer_masks:
            v = float(np.where(dm, hum_err, ce).mean())
            if v < best:
                best = v
    return best


def highs_optimum(problem):
    """Optimum of a built deferral MILP by scipy's HiGHS: the problem's own
    LP relaxation with its binary variables made integral (an oracle
    independent of the package's simplex and branch-and-bound). Callers
    ``pytest.importorskip("scipy.optimize")`` first."""
    return highs_lp_optimum(problem.lp_relaxation, problem.binary_var_ids)


def highs_lp_optimum(lp, binary_ids):
    """Optimum by HiGHS of ``lp`` with the variables ``binary_ids`` made
    integral."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    senses = np.asarray(lp.senses)
    lower = np.where(senses == "<=", -np.inf, lp.b)
    upper = np.where(senses == ">=", np.inf, lp.b)
    integrality = np.zeros(len(lp.c))
    integrality[binary_ids] = 1
    res = milp(lp.c, constraints=LinearConstraint(lp.A, lower, upper),
               bounds=Bounds(lp.lo, lp.hi), integrality=integrality,
               options={"mip_rel_gap": 0.0, "time_limit": 60.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun)
