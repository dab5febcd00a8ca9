"""Self-test of the benchmark's checks: each passes a right answer and
fails a deliberately wrong one.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every check behaves, 1 otherwise.
"""

import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from deferlab import core, datagen, evaluation, milp, train  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(name, right, wrong):
    """``right`` must pass (None) and ``wrong`` must fail (a message)."""
    ok = right is None and wrong is not None
    print(f"{'ok ' if ok else 'BAD'} {name}: right -> {right}; wrong -> {wrong}")
    if not ok:
        FAILURES.append(name)


def exact_checks():
    exact = workloads.WORKLOADS["exact-small"]
    x, y, h, plain_opt, covered_opt = exact.draw(seed=0)[0]
    n = len(y)
    problem = milp.build_binary_milp(core.DeferDataset(x, y, h, 2), milp.MilpConfig())
    sol = milp.solve_milp(problem)
    cov = milp.solve_milp(milp.add_coverage_constraint(problem, exact.BETA))
    right = checks.check_exact(sol, x, y, h, plain_opt)

    def wrong(**changes):
        return checks.check_exact(replace(sol, **changes), x, y, h, plain_opt)

    expect("perturbed objective", right, wrong(objective=sol.objective + 1.0 / n))
    expect("misreported train_loss", right, wrong(train_loss=sol.train_loss + 1.0 / n))
    expect("bound above objective", right, wrong(best_bound=sol.objective + 0.1))
    expect("negative bound", right, wrong(best_bound=-0.1))
    expect("unproven status", right, wrong(status="time_limit_incumbent"))

    # with a human who is always right, keeping every point and predicting
    # class 0 (3 errors) is worse than deferring everything (0 errors)
    keep_all = core.HalfspacePair(np.zeros(3), np.array([0.0, 0.0, -1.0]))
    loss = 3.0 / n
    expect("worse than deferring everything",
           checks.check_solution(sol, x, y, h),
           checks.check_solution(replace(sol, pair=keep_all, train_loss=loss, objective=loss),
                                 x, y, y.copy()))

    # defer everything under a budget of a quarter of the points
    defer_all = core.HalfspacePair(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    loss = float(np.mean(h != y))
    expect("coverage budget exceeded",
           checks.check_exact(cov, x, y, h, covered_opt, exact.BETA),
           checks.check_solution(replace(cov, pair=defer_all, train_loss=loss, objective=loss),
                                 x, y, h, exact.BETA))


def training_checks():
    ds = datagen.generate_synthetic(datagen.SyntheticConfig(d=3, n=400, seed=5)).dataset
    tr, te = ds.subset(np.arange(200)), ds.subset(np.arange(200, 400))
    system = train.train_method("selective", tr, tr, train.TrainConfig(epochs=3))
    tau = train.fit_tau(system, te)
    scores = system.rejection_scores(te.features)
    labels = system.classifier_labels(te.features)
    hum_ok, clf_ok = te.human_correct, labels == te.labels
    best = checks.correct_at(tau, scores, hum_ok, clf_ok)
    worse = next(t for t in np.concatenate([[-np.inf, np.inf], np.sort(scores)])
                 if checks.correct_at(t, scores, hum_ok, clf_ok) < best)
    expect("shifted threshold", checks.check_threshold(tau, scores, hum_ok, clf_ok),
           checks.check_threshold(worse, scores, hum_ok, clf_ok))

    fitted = system.with_tau(tau)
    report = evaluation.evaluate(fitted, te)
    deferred = scores >= tau
    right = checks.check_report(report, deferred, labels, te.labels, hum_ok)
    expect("wrong accuracy", right, checks.check_report(
        replace(report, system_accuracy=report.system_accuracy + 1.0 / te.n),
        deferred, labels, te.labels, hum_ok))
    expect("wrong coverage", right, checks.check_report(
        replace(report, coverage=report.coverage + 1.0 / te.n), deferred, labels, te.labels, hum_ok))

    curve = evaluation.coverage_curve(fitted, te)
    right = checks.check_curve_ends(curve, hum_ok, clf_ok)
    expect("curve ends swapped", right, checks.check_curve_ends(
        replace(curve, coverages=curve.coverages[::-1], accuracies=curve.accuracies[::-1]),
        hum_ok, clf_ok))
    shifted = curve.accuracies.copy()
    shifted[0] += 1.0 / te.n
    expect("curve end accuracy shifted", right,
           checks.check_curve_ends(replace(curve, accuracies=shifted), hum_ok, clf_ok))


def trial_checks():
    """The realizable trial's own checks, on a small realizable instance."""
    trial = workloads.WORKLOADS["trial-realizable"]
    cfg = datagen.SyntheticConfig(d=3, n=450, margin=0.3, p_m=0.0, p_h1=0.0, seed=3)
    ds = datagen.generate_synthetic(cfg).dataset
    state = {"train": ds.subset(np.arange(100)), "val": ds.subset(np.arange(100, 250)),
             "test": ds.subset(np.arange(250, 450)), "config": train.TrainConfig(epochs=3)}
    state["problem"] = milp.build_binary_milp(state["train"], milp.MilpConfig())
    out = trial.run(state)
    right = [m for m in trial.check(state, out) if m is not None]
    right = "; ".join(right) or None

    def wrong(key, value):
        changed = dict(out)
        changed[key] = value
        return "; ".join(m for m in trial.check(state, changed) if m is not None) or None

    sol = out["milp"][0]
    expect("realizable objective not 0", right,
           wrong("milp", (replace(sol, objective=1.0 / state["train"].n), None)))
    expect("operation raised", right, wrong("ce", (None, "RuntimeError: injected")))


def main():
    exact_checks()
    training_checks()
    trial_checks()
    print(f"{len(FAILURES)} check(s) misbehaved" + (f": {', '.join(FAILURES)}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
