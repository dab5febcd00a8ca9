"""The benchmark's workloads.

Each workload is a single closed-loop caller with four steps:

* ``draw(seed)`` makes the inputs from the seed (the benchmark's own work,
  not timed);
* ``setup(drawn)`` turns them into program objects: data generation and
  problem building, timed as set-up;
* ``run(state)`` is one round of the workload's operations, timed as a
  whole; it returns one entry per operation;
* ``check(state, out)`` returns, per operation, None or a failure message.

No checked output depends on a wall-clock limit: the solver runs with no
limit or with a node budget, so every round gives the same outputs.
"""

import numpy as np

from deferlab import core, datagen, evaluation, milp, train

import checks

# inputs of a seed are drawn from SeedSequence([TAG, seed]); the tag keeps
# the workloads' streams apart
_TAGS = {"exact-small": 11, "cutplane-nonrealizable": 12, "trial-realizable": 13}

# the acceptance suite's synthetic settings
NONREALIZABLE = dict(d=10, distribution="gaussian_mixture", U=10.0, K=20,
                     std_scale=1.3, margin=0.0, p_m=0.1, p_h0=0.4, p_h1=0.1)
REALIZABLE = dict(d=30, distribution="gaussian_mixture", U=10.0, K=10,
                  std_scale=1.0, margin=0.3, p_m=0.0, p_h0=0.3, p_h1=0.0)
TRAINING = dict(epochs=300, batch_size=64, learning_rate=0.1)


def _rng(name, seed):
    return np.random.default_rng(np.random.SeedSequence([_TAGS[name], seed]))


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its failure message."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _labels(ds):
    return np.asarray(ds.labels), np.asarray(ds.human_preds)


class ExactSmall:
    """Small 2-D instances proven optimal by the full-LP branch-and-bound.

    Points are drawn as in the acceptance suite's exactness criterion, but
    with a fixed make-up: 6 points, 3 per class, and a human wrong on 4 of
    them. With a random make-up the proof time of one instance varies a
    hundredfold and the round's time with it; a fixed make-up keeps the
    number of nodes per instance within a factor of two. Instances whose
    optimum is 0 are redrawn: the primal heuristic proves those before any
    LP is solved. Each instance is solved plain and with a coverage budget,
    whose dense side row goes through the same engine.
    """

    name = "exact-small"
    POINTS = 6
    HUMAN_ERRORS = 4
    INSTANCES = 40
    BETA = 0.25

    def draw(self, seed):
        rng = _rng(self.name, seed)
        n = self.POINTS
        out = []
        while len(out) < self.INSTANCES:
            x = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            y = rng.permutation(np.arange(n) % 2)
            h = y.copy()
            wrong = rng.choice(n, self.HUMAN_ERRORS, replace=False)
            h[wrong] = 1 - h[wrong]
            plain = checks.brute_force_optimum(x, y, h)
            if plain > 0.0:
                out.append((x, y, h, plain, checks.brute_force_optimum(x, y, h, self.BETA)))
        return out

    def setup(self, drawn):
        problems = []
        for x, y, h, _, _ in drawn:
            plain = milp.build_binary_milp(core.DeferDataset(x, y, h, 2), milp.MilpConfig())
            covered = milp.add_coverage_constraint(plain, self.BETA)
            for p in (plain, covered):
                p.lp_relaxation  # the LP is built here, not in the first solve
                problems.append(p)
        return {"drawn": drawn, "problems": problems}

    def run(self, state):
        return {"solutions": [_attempt(milp.solve_milp, p) for p in state["problems"]]}

    def check(self, state, out):
        msgs = []
        for k, (sol, err) in enumerate(out["solutions"]):
            x, y, h, plain, covered = state["drawn"][k // 2]
            if err is None:
                if k % 2 == 0:
                    err = checks.check_exact(sol, x, y, h, plain)
                else:
                    err = checks.check_exact(sol, x, y, h, covered, self.BETA)
            msgs.append(err)
        return msgs


class CutplaneNonrealizable:
    """Non-realizable instances solved by the cut-plane engine under a node budget.

    The acceptance suite's non-realizable settings at 400 training points,
    past the size where the solver switches from the full LP to the
    cutting-plane bound. Two nodes are the least budget at which the root's
    bound reaches the reported best bound.
    """

    name = "cutplane-nonrealizable"
    POINTS = 400
    INSTANCES = 8
    NODE_LIMIT = 2

    def draw(self, seed):
        seeds = _rng(self.name, seed).integers(0, 2**31, self.INSTANCES)
        return [datagen.SyntheticConfig(n=self.POINTS, seed=int(s), **NONREALIZABLE)
                for s in seeds]

    def setup(self, drawn):
        data = [datagen.generate_synthetic(cfg).dataset for cfg in drawn]
        return {"data": data,
                "problems": [milp.build_binary_milp(ds, milp.MilpConfig()) for ds in data]}

    def run(self, state):
        cfg = milp.MilpConfig(node_limit=self.NODE_LIMIT)
        return {"solutions": [_attempt(milp.solve_milp, p, cfg) for p in state["problems"]]}

    def check(self, state, out):
        # a node-limited stop reports time_limit_incumbent today
        statuses = ("proven_optimal", "time_limit_incumbent")
        msgs = []
        for ds, (sol, err) in zip(state["data"], out["solutions"]):
            if err is None:
                err = checks.check_solution(sol, ds.features, *_labels(ds), statuses=statuses)
            msgs.append(err)
        return msgs


class TrialRealizable:
    """One trial of the realizable protocol, run as acceptance criterion 1 runs it.

    d=30 with 1000 training, 1000 validation and 5000 test points: the MILP
    (which proves 0 at the root from its heuristics; a one-node budget only
    guards against a hang), the eight trained methods, then
    ``fit_tau``, ``evaluate`` and ``coverage_curve`` of each on the test split.
    """

    name = "trial-realizable"
    SPLIT = (1000, 1000, 5000)
    NODE_LIMIT = 1

    def draw(self, seed):
        data_seed, train_seed = _rng(self.name, seed).integers(0, 2**31, 2)
        cfg = datagen.SyntheticConfig(n=sum(self.SPLIT), seed=int(data_seed), **REALIZABLE)
        return cfg, train.TrainConfig(seed=int(train_seed), **TRAINING)

    def setup(self, drawn):
        cfg, train_cfg = drawn
        ds = datagen.generate_synthetic(cfg).dataset
        a, b = self.SPLIT[0], self.SPLIT[0] + self.SPLIT[1]
        tr, va, te = ds.subset(np.arange(a)), ds.subset(np.arange(a, b)), ds.subset(np.arange(b, ds.n))
        problem = milp.build_binary_milp(tr, milp.MilpConfig())
        return {"train": tr, "val": va, "test": te, "problem": problem, "config": train_cfg}

    def run(self, state):
        tr, va, te = state["train"], state["val"], state["test"]
        out = {"milp": _attempt(milp.solve_milp, state["problem"],
                                milp.MilpConfig(node_limit=self.NODE_LIMIT))}
        pair = out["milp"][0].pair if out["milp"][1] is None else None
        out["milp_eval"] = _attempt(evaluation.evaluate, pair, te)
        for method in train.METHODS:
            out[method] = _attempt(train.train_method, method, tr, va, state["config"])
        for method in train.METHODS:
            system = out[method][0]
            tau = out[f"{method}.tau"] = _attempt(train.fit_tau, system, te)
            fitted = system.with_tau(tau[0]) if tau[1] is None else None
            out[f"{method}.eval"] = _attempt(evaluation.evaluate, fitted, te)
            out[f"{method}.curve"] = _attempt(evaluation.coverage_curve, fitted, te)
        return out

    def check(self, state, out):
        tr, te = state["train"], state["test"]
        y, h = _labels(te)
        hum_ok = y == h
        sol, err = out["milp"]
        if err is None:
            err = checks.check_solution(sol, tr.features, *_labels(tr))
        if err is None and sol.objective != 0.0:
            err = f"realizable instance, objective {sol.objective!r}"
        msgs = [err]
        report, err = out["milp_eval"]
        if err is None:
            deferred, labels = checks.pair_decisions(sol.pair, te.features)
            err = checks.check_report(report, deferred, labels, y, hum_ok)
        msgs.append(err)
        msgs += [out[method][1] for method in train.METHODS]
        for method in train.METHODS:
            tau, err = out[f"{method}.tau"]
            err = out[method][1] or err
            if err is not None:
                msgs += [err, err, err]
                continue
            system = out[method][0]
            scores = system.rejection_scores(te.features)
            labels = system.classifier_labels(te.features)
            clf_ok = labels == y
            msgs.append(checks.check_threshold(tau, scores, hum_ok, clf_ok))
            report, err = out[f"{method}.eval"]
            msgs.append(err or checks.check_report(report, scores >= tau, labels, y, hum_ok))
            curve, err = out[f"{method}.curve"]
            msgs.append(err or checks.check_curve_ends(curve, hum_ok, clf_ok))
        return msgs


WORKLOADS = {w.name: w for w in (ExactSmall(), CutplaneNonrealizable(), TrialRealizable())}
