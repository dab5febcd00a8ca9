"""Metrics, accuracy-coverage curves, generalization bound, and benchmarks.

``evaluate`` accepts either a trained score system or a raw halfspace pair.
Coverage curves sweep the rejection threshold over midpoints of the sorted
distinct rejection scores, with sentinel endpoints forcing coverage 0
(defer everything) and 1 (never defer). Curves are swept on the evaluation
set itself; the system's own threshold marks the operating point.

``run_benchmark`` reproduces the synthetic experiment protocol: per trial a
fresh instance is generated from a trial-specific seed, split into
train/validation/test, every requested method is trained and evaluated,
and per-method aggregates carry the mean and the (n-1)-denominator
standard error across trials.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .core import DeferDataset, HalfspacePair, pair_decisions
from .datagen import generate_instance
from .milp import MilpConfig, build_milp, solve_milp
from .train import (
    METHODS,
    TrainConfig,
    TrainedSystem,
    _threshold_candidates,
    _threshold_counts,
    train_method,
)

__all__ = [
    "EvalReport",
    "CoverageCurve",
    "BenchmarkResult",
    "TrialRecord",
    "evaluate",
    "coverage_curve",
    "generalization_bound",
    "run_benchmark",
    "split_sizes",
    "check_methods",
    "write_results_csv",
    "write_curve_csv",
    "write_curves_svg",
    "BENCHMARK_METHODS",
]

BENCHMARK_METHODS = METHODS + ("milp",)
# thresholds on the coverage curve of each benchmark record
BENCH_CURVE_GRID = 40


@dataclass(frozen=True)
class EvalReport:
    """Empirical rates of a deferral system on one dataset.

    Per-arm accuracies are None (absent) when the arm is empty, never 0.
    """

    system_accuracy: float
    coverage: float
    classifier_accuracy_nondeferred: Optional[float]
    human_accuracy_deferred: Optional[float]
    n_points: int


@dataclass(frozen=True)
class CoverageCurve:
    """Accuracy-coverage sweep: (threshold, coverage, accuracy) triples."""

    thresholds: np.ndarray
    coverages: np.ndarray
    accuracies: np.ndarray

    def __len__(self):
        return len(self.thresholds)


def _decisions(system: Union[TrainedSystem, HalfspacePair], dataset: DeferDataset):
    """(deferred, classifier labels, rejection scores) of a trained system or a pair."""
    if isinstance(system, HalfspacePair):
        return pair_decisions(system, dataset.features)
    deferred, labels = system.decide(dataset.features)
    return deferred, labels, system.rejection_scores(dataset.features)


def evaluate(system: Union[TrainedSystem, HalfspacePair], dataset: DeferDataset) -> EvalReport:
    """Exact empirical system accuracy, coverage, and per-arm accuracies."""
    deferred, labels, _ = _decisions(system, dataset)
    kept = ~deferred
    correct = np.where(deferred, dataset.human_correct, labels == dataset.labels)
    clf_acc = float(np.mean(labels[kept] == dataset.labels[kept])) if kept.any() else None
    hum_acc = float(np.mean(dataset.human_correct[deferred])) if deferred.any() else None
    return EvalReport(
        system_accuracy=float(np.mean(correct)),
        coverage=float(np.mean(kept)),
        classifier_accuracy_nondeferred=clf_acc,
        human_accuracy_deferred=hum_acc,
        n_points=dataset.n,
    )


def coverage_curve(system: Union[TrainedSystem, HalfspacePair], dataset: DeferDataset,
                   grid_size: int = 50) -> CoverageCurve:
    """Sweep the rejection threshold; returns strictly increasing thresholds.

    Interior thresholds are midpoints of the sorted distinct rejection
    scores, subsampled to ``grid_size`` if larger; the -inf and +inf
    endpoints always remain, forcing coverage 0 and 1.
    """
    _, labels, scores = _decisions(system, dataset)
    candidates = _threshold_candidates(scores)
    mids = candidates[1:-1]
    if grid_size and mids.size > max(0, grid_size - 2):
        pick = np.linspace(0, mids.size - 1, max(0, grid_size - 2)).round().astype(int)
        mids = mids[np.unique(pick)]
    thresholds = np.concatenate([candidates[:1], mids, candidates[-1:]])
    kept, correct = _threshold_counts(scores, dataset.human_correct,
                                      labels == dataset.labels, thresholds)
    return CoverageCurve(thresholds=thresholds, coverages=kept / dataset.n,
                         accuracies=correct / dataset.n)


def generalization_bound(train_loss: float, k_m: float, k_r: float, d: int, n: int,
                         human_error_rate: float, delta: float) -> float:
    """Population-risk bound for the empirical 0-1 minimizer.

    train_loss + [(K_m + K_r) d sqrt(2 ln d) + 10 sqrt(ln(2/delta))] /
    sqrt(n P(h != y)), natural logarithms.
    """
    # every test is written so that NaN fails it
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    if not 0.0 <= train_loss <= 1.0:
        raise ValueError("train_loss must lie in [0, 1]")
    for name, k in (("k_m", k_m), ("k_r", k_r)):
        if not 0.0 <= k < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")
    if not 0.0 < human_error_rate <= 1.0:
        raise ValueError("human_error_rate must lie in (0, 1]: the bound is undefined "
                         "when the human never errs")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    num = (k_m + k_r) * d * math.sqrt(2.0 * math.log(d)) + 10.0 * math.sqrt(math.log(2.0 / delta))
    return train_loss + num / math.sqrt(n * human_error_rate)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    method: str
    trial: int
    report: EvalReport
    curve: CoverageCurve


@dataclass(frozen=True)
class BenchmarkResult:
    """All trial rows plus per-method (mean, standard error) aggregates."""

    records: list
    aggregates: dict  # method -> (mean system accuracy, stderr or None)


def _trial_seed(seed: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _fit_milp(train: DeferDataset, milp_config: MilpConfig):
    solution = solve_milp(build_milp(train, milp_config), milp_config)
    if solution.pair is None:
        raise RuntimeError(f"milp found no feasible pair (status {solution.status})")
    return solution.pair


def split_sizes(split, n: int) -> tuple:
    """The train, validation and test sizes of a split of n points.

    ``split`` holds three nonnegative entries: fractions that sum to 1
    (within 1e-9), whose train and validation parts are rounded and whose
    test part is the remainder, or counts that sum to n. Every part must
    hold at least one point. Anything else raises a ValueError that names
    the split.
    """
    parts = tuple(split)
    if len(parts) != 3 or not all(0 <= v < math.inf for v in parts):
        raise ValueError(f"split {split!r}: need three nonnegative finite entries")
    if abs(sum(parts) - 1.0) <= 1e-9:
        n_train, n_val = int(round(parts[0] * n)), int(round(parts[1] * n))
    elif all(float(v).is_integer() for v in parts) and sum(parts) == n:
        n_train, n_val = int(parts[0]), int(parts[1])
    else:
        raise ValueError(f"split {split!r}: need fractions that sum to 1 "
                         f"or counts that sum to n={n}")
    sizes = (n_train, n_val, n - n_train - n_val)
    if min(sizes) < 1:
        raise ValueError(f"split {split!r} of n={n} points leaves a part empty: {sizes}")
    return sizes


def check_methods(methods) -> list:
    """The benchmark's method ids as a list. An id that is not in
    ``BENCHMARK_METHODS``, or that repeats, raises a ValueError that names
    it: a repeated method would train again and pool its copies as if they
    were independent trials."""
    methods = list(methods)
    for i, m in enumerate(methods):
        if m not in BENCHMARK_METHODS:
            raise ValueError(f"unknown method id {m!r}")
        if m in methods[:i]:
            raise ValueError(f"method id {m!r} is given more than once")
    return methods


def run_benchmark(instance, methods, trials: int, seed: int = 0, *,
                  split=(0.7, 0.1, 0.2), train_config: Optional[TrainConfig] = None,
                  milp_config: Optional[MilpConfig] = None) -> BenchmarkResult:
    """Train and evaluate each method over repeated trials.

    Per trial the instance is regenerated from a seed derived from
    ``(seed, trial)`` and split train/validation/test by the given
    fractions or absolute counts (70-10-20 by default; see ``split_sizes``).
    Aggregates report mean test system accuracy with its standard error
    (absent for a single trial). Fixed seeds make the whole table
    reproducible.
    """
    methods = check_methods(methods)
    if trials < 1:
        raise ValueError("need at least one trial")
    n_train, n_val, _ = split_sizes(split, instance.n)
    train_config = train_config or TrainConfig()
    milp_config = milp_config or MilpConfig()

    records = []
    for trial in range(trials):
        tseed = _trial_seed(seed, trial)
        dataset = generate_instance(replace(instance, seed=tseed))[0]
        order = np.random.default_rng(tseed).permutation(dataset.n)
        train = dataset.subset(order[:n_train])
        val = dataset.subset(order[n_train : n_train + n_val])
        test = dataset.subset(order[n_train + n_val :])
        for method in methods:
            if method == "milp":
                system = _fit_milp(train, milp_config)
            else:
                system = train_method(method, train, val,
                                      replace(train_config, seed=tseed % (2**32)))
            records.append(TrialRecord(
                method=method, trial=trial,
                report=evaluate(system, test),
                curve=coverage_curve(system, test, grid_size=BENCH_CURVE_GRID),
            ))

    aggregates = {}
    for method in methods:
        accs = [r.report.system_accuracy for r in records if r.method == method]
        mean = float(np.mean(accs))
        stderr = float(np.std(accs, ddof=1) / math.sqrt(len(accs))) if len(accs) > 1 else None
        aggregates[method] = (mean, stderr)
    return BenchmarkResult(records=records, aggregates=aggregates)


# ---------------------------------------------------------------------------
# plain-text outputs
# ---------------------------------------------------------------------------


def _fmt(value):
    return "" if value is None else repr(float(value))


def write_results_csv(result: BenchmarkResult, path) -> None:
    """Rows of ``method,trial,coverage,system_acc,clf_acc_nondef,hum_acc_def``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "trial", "coverage", "system_acc",
                         "clf_acc_nondef", "hum_acc_def"])
        for r in result.records:
            writer.writerow([
                r.method, r.trial, _fmt(r.report.coverage), _fmt(r.report.system_accuracy),
                _fmt(r.report.classifier_accuracy_nondeferred),
                _fmt(r.report.human_accuracy_deferred),
            ])


def write_curve_csv(curve: CoverageCurve, path) -> None:
    """Rows of ``threshold,coverage,system_acc``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "coverage", "system_acc"])
        for t, c, a in zip(curve.thresholds, curve.coverages, curve.accuracies):
            writer.writerow([repr(float(t)), repr(float(c)), repr(float(a))])


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#17becf")


def write_curves_svg(result: BenchmarkResult, path, width=640, height=480) -> None:
    """Static accuracy-vs-coverage plot: axes, one polyline per method, and
    an operating-point marker per method (first trial of each)."""
    pad = 60
    plot_w, plot_h = width - 2 * pad, height - 2 * pad

    def sx(cov):
        return pad + cov * plot_w

    def sy(acc):
        return height - pad - acc * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle" font-size="14">coverage</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.0f})">system accuracy</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{sx(frac):.1f}" y="{height - pad + 18}" text-anchor="middle" '
                     f'font-size="11">{frac:g}</text>')
        parts.append(f'<text x="{pad - 8}" y="{sy(frac) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{frac:g}</text>')

    methods = list(dict.fromkeys(r.method for r in result.records))
    for k, method in enumerate(methods):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        first = next(r for r in result.records if r.method == method)
        pts = " ".join(
            f"{sx(c):.1f},{sy(a):.1f}"
            for c, a in sorted(zip(first.curve.coverages, first.curve.accuracies))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{sx(first.report.coverage):.1f}" '
                     f'cy="{sy(first.report.system_accuracy):.1f}" r="5" fill="{color}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * k + 10}" font-size="12" '
                     f'fill="{color}">{method}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
