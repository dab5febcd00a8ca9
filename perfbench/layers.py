"""Per-layer counters for the traced run.

The tracer wraps the package's public functions where their callers look
them up (``deferlab.milp.solve_lp``, the entries of
``deferlab.surrogates.LOSSES``, ``deferlab.train.fit_tau``, ...), so the
program itself is not edited. Each wrapped call is a span; a span's self
time is its duration minus the time of the wrapped calls it made. Counters
are kept in memory and summed per round.
"""

import contextlib
import time
from collections import defaultdict

from deferlab import datagen, evaluation, milp, surrogates, train

# metric name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "lp.calls": ("count", "lower"),
    "lp.iterations": ("count", "lower"),
    "lp.s": ("s", "lower"),
    "lp.iters_per_s": ("1/s", "higher"),
    "lp.iters_per_call": ("count", "lower"),
    "lp.unresolved": ("count", "lower"),
    "milp.calls": ("count", "lower"),
    "milp.nodes": ("count", "lower"),
    "milp.nodes_per_s": ("1/s", "higher"),
    "milp.s": ("s", "lower"),
    "milp.self_s": ("s", "lower"),
    "milp.bound": ("loss", "higher"),
    "milp.incumbents": ("count", "lower"),
    "milp.gap": ("loss", "lower"),
    "milp.incumbent_loss": ("loss", "lower"),
    "surrogates.calls": ("count", "lower"),
    "surrogates.rows": ("count", "lower"),
    "surrogates.s": ("s", "lower"),
    "surrogates.rows_per_s": ("1/s", "higher"),
    "train.models": ("count", "lower"),
    "train.s": ("s", "lower"),
    "train.self_s": ("s", "lower"),
    "train.rs_s": ("s", "lower"),
    "train.fit_tau_calls": ("count", "lower"),
    "train.fit_tau_s": ("s", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.curve_s": ("s", "lower"),
    "datagen.s": ("s", "lower"),
    "traced.wall_s": ("s", "lower"),
}


def _lp_counts(sol, args, spent):
    return {"iterations": sol.iterations,
            "unresolved": sol.status in ("iteration_limit", "unbounded")}


def _milp_counts(sol, args, spent):
    return {"nodes": sol.nodes_explored, "bound": sol.best_bound,
            "incumbents": len(sol.incumbent_history),
            "gap": sol.objective - sol.best_bound, "incumbent_loss": sol.train_loss}


def _loss_counts(out, args, spent):
    return {"rows": len(args[0])}


def _train_counts(out, args, spent):
    return {f"{args[0]}_s": spent}


def _no_counts(out, args, spent):
    return {}


class Tracer:
    """Sums calls, seconds, self seconds and counters per layer."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._open = []  # child seconds of each open span, innermost last

    def take(self):
        """Return the totals since the last take and start afresh."""
        out, self.totals = self.totals, defaultdict(float)
        return out

    def _wrap(self, layer, fn, counts):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += spent
                self.totals[layer + ".calls"] += 1
                self.totals[layer + ".s"] += spent
                self.totals[layer + ".self_s"] += spent - children
            for key, value in counts(out, args, spent).items():
                self.totals[f"{layer}.{key}"] += value
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        targets = [
            (milp.__dict__, "solve_lp", "lp", _lp_counts),
            (milp.__dict__, "solve_milp", "milp", _milp_counts),
            (train.__dict__, "train_method", "train", _train_counts),
            (train.__dict__, "fit_tau", "fit_tau", _no_counts),
            (evaluation.__dict__, "evaluate", "evaluate", _no_counts),
            (evaluation.__dict__, "coverage_curve", "curve", _no_counts),
            (datagen.__dict__, "generate_synthetic", "datagen", _no_counts),
        ] + [(surrogates.LOSSES, key, "surrogates", _loss_counts) for key in surrogates.LOSSES]
        saved = [(space, key, space[key]) for space, key, _, _ in targets]
        for space, key, layer, counts in targets:
            space[key] = self._wrap(layer, space[key], counts)
        try:
            yield self
        finally:
            for space, key, fn in saved:
                space[key] = fn


def layer_metrics(t, wall_s):
    """The PER_LAYER metrics of one round's totals ``t``."""

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    return {
        "lp.calls": t["lp.calls"],
        "lp.iterations": t["lp.iterations"],
        "lp.s": t["lp.s"],
        "lp.iters_per_s": ratio(t["lp.iterations"], t["lp.s"]),
        "lp.iters_per_call": ratio(t["lp.iterations"], t["lp.calls"]),
        "lp.unresolved": t["lp.unresolved"],
        "milp.calls": t["milp.calls"],
        "milp.nodes": t["milp.nodes"],
        "milp.nodes_per_s": ratio(t["milp.nodes"], t["milp.s"]),
        "milp.s": t["milp.s"],
        "milp.self_s": t["milp.self_s"],
        "milp.bound": t["milp.bound"],
        "milp.incumbents": t["milp.incumbents"],
        "milp.gap": t["milp.gap"],
        "milp.incumbent_loss": t["milp.incumbent_loss"],
        "surrogates.calls": t["surrogates.calls"],
        "surrogates.rows": t["surrogates.rows"],
        "surrogates.s": t["surrogates.s"],
        "surrogates.rows_per_s": ratio(t["surrogates.rows"], t["surrogates.s"]),
        "train.models": t["train.calls"],
        "train.s": t["train.s"],
        "train.self_s": t["train.self_s"],
        "train.rs_s": t["train.rs_s"],
        "train.fit_tau_calls": t["fit_tau.calls"],
        "train.fit_tau_s": t["fit_tau.s"],
        "evaluation.evaluate_s": t["evaluate.s"],
        "evaluation.curve_s": t["curve.s"],
        "datagen.s": t["datagen.s"],
        "traced.wall_s": wall_s,
    }
