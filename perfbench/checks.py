"""Correctness checks computed apart from the program.

Each ``check_*`` function returns None when an output passes and a one-line
message when it does not. The reference values come from this file's own
numpy code (brute-force enumeration, exhaustive threshold scans, direct 0-1
counts), never from a stored copy of an earlier run, and the program's
outputs are only compared with them.
"""

import itertools

import numpy as np

EXACT_TOL = 1e-9
RATE_TOL = 1e-12


def _augment(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def halfspace_candidates(x):
    """Weights covering every dichotomy of 2-D points in general position.

    Both orientations of the line through each point pair, shifted by a tiny
    offset to put the two touched points on either side, plus the two
    all-one-side halfspaces.
    """
    cands = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    eps = 1e-7 * max(1.0, float(np.abs(x).max()))
    for i, j in itertools.combinations(range(x.shape[0]), 2):
        d = x[j] - x[i]
        nrm = np.array([-d[1], d[0]])
        c = float(nrm @ x[i])
        for s in (1.0, -1.0):
            for off in (eps, -eps):
                cands.append([s * nrm[0], s * nrm[1], -s * c + off])
    return np.array(cands)


def brute_force_optimum(x, y, h, beta=None):
    """Least 0-1 system loss over halfspace classifier/rejector pairs on 2-D
    points, optionally with at most ``beta`` of the points deferred."""
    n = x.shape[0]
    acts = _augment(x) @ halfspace_candidates(x).T  # (n, candidates)
    clf_err = ((acts > 0).astype(int) != y[:, None]).astype(float)
    defer = (acts >= 0).astype(float)
    hum_err = (h != y).astype(float)
    # errors[a, b]: classifier a keeps what rejector b does not defer
    errors = clf_err.T @ (1.0 - defer) + (hum_err @ defer)[None, :]
    if beta is not None:
        errors[:, defer.sum(axis=0) > beta * n + 1e-9] = np.inf
    return float(errors.min()) / n


def pair_decisions(pair, x):
    """(deferred, labels) of a binary halfspace pair: defer iff R.x >= 0,
    predict 1 iff M.x > 0, on bias-augmented features."""
    xt = _augment(np.asarray(x, dtype=float))
    deferred = xt @ np.asarray(pair.rejector_weights) >= 0.0
    return deferred, (xt @ np.asarray(pair.classifier_weights) > 0.0).astype(int)


def pair_errors(pair, x, y, h):
    """(0-1 error count, deferred count) of a binary halfspace pair."""
    deferred, labels = pair_decisions(pair, x)
    wrong = np.where(deferred, h != y, labels != y)
    return int(wrong.sum()), int(deferred.sum())


def check_solution(sol, x, y, h, beta=None, statuses=("proven_optimal",)):
    """Properties every returned MILP solution must have."""
    if sol.status not in statuses:
        return f"status {sol.status!r}, expected one of {statuses}"
    if sol.pair is None:
        return "no pair returned"
    n = len(y)
    wrong, deferred = pair_errors(sol.pair, x, y, h)
    if wrong / n != sol.train_loss:
        return f"train_loss {sol.train_loss!r} but the pair errs on {wrong}/{n} points"
    if not 0.0 <= sol.best_bound <= sol.objective:
        return f"need 0 <= best_bound <= objective, got {sol.best_bound!r} and {sol.objective!r}"
    if sol.train_loss > sol.objective + EXACT_TOL:
        return f"train_loss {sol.train_loss!r} above objective {sol.objective!r}"
    if beta is None:
        human = float(np.count_nonzero(h != y)) / n
        if sol.train_loss > human:
            return f"train_loss {sol.train_loss!r} worse than deferring everything ({human!r})"
    elif deferred > beta * n + 1e-9:
        return f"defers {deferred}/{n} points, above the budget {beta}"
    return None


def check_exact(sol, x, y, h, optimum, beta=None):
    """A proven optimum equal to brute-force enumeration."""
    msg = check_solution(sol, x, y, h, beta)
    if msg is None and abs(sol.objective - optimum) > EXACT_TOL:
        msg = f"objective {sol.objective!r} but enumeration gives {optimum!r}"
    return msg


def best_threshold_correct(scores, hum_ok, clf_ok):
    """Most points any rejection threshold gets right (defer iff score >= tau).

    Every threshold defers the points above some cut in score order, so the
    scan visits each cut between distinct scores plus the two ends.
    """
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    kept_right = np.concatenate([[0], np.cumsum(clf_ok[order])])
    deferred_right = np.concatenate([np.cumsum(hum_ok[order][::-1])[::-1], [0]])
    cuts = np.concatenate([[True], s[1:] > s[:-1], [True]])
    return int((kept_right + deferred_right)[cuts].max())


def correct_at(tau, scores, hum_ok, clf_ok):
    return int(np.where(scores >= tau, hum_ok, clf_ok).sum())


def check_threshold(tau, scores, hum_ok, clf_ok):
    """The threshold reaches the best accuracy of an exhaustive scan."""
    got = correct_at(tau, scores, hum_ok, clf_ok)
    best = best_threshold_correct(scores, hum_ok, clf_ok)
    if got != best:
        return f"threshold {float(tau)!r} gets {got} points right, a scan finds {best}"
    return None


def check_report(report, deferred, labels, y, hum_ok):
    """An evaluation report matches accuracy recomputed from the decisions."""
    acc = float(np.mean(np.where(deferred, hum_ok, labels == y)))
    cov = float(np.mean(~deferred))
    if abs(report.system_accuracy - acc) > RATE_TOL or abs(report.coverage - cov) > RATE_TOL:
        return (f"report says accuracy {report.system_accuracy!r}, coverage {report.coverage!r}; "
                f"decisions give {acc!r}, {cov!r}")
    return None


def check_curve_ends(curve, hum_ok, clf_ok):
    """Coverage 0 at human accuracy first, coverage 1 at classifier accuracy last."""
    ends = tuple(float(v) for v in (curve.coverages[0], curve.accuracies[0],
                                    curve.coverages[-1], curve.accuracies[-1]))
    want = (0.0, float(np.mean(hum_ok)), 1.0, float(np.mean(clf_ok)))
    if any(abs(a - b) > RATE_TOL for a, b in zip(ends, want)):
        return f"curve ends {ends}, expected {want}"
    return None
