"""Command-line front door: gen, milp, train, eval, bench, bound.

Runs are driven by flags, optionally layered over a plain-text config file
(key=value lines under [data], [method], [solver], [train], [eval]
sections; unknown sections or keys are rejected). Each config-driven
setting is declared once, as a row of the settings table below: section,
key, flag, cast, default and the config field it fills. The data rows come
in one table per kind, since `U` defaults to 10.0 for synthetic data and
5.0 for grouped data, and `--K` sets `K` or `expert_k`. The table gives the
accepted keys, the flags of gen, milp, train and bench, the resolution
(flag, then config key, then default) and the resolved config that `bench`
writes next to its results. That file holds `kind` and every other key of
the run, so `bench --config <dir>/resolved_config.cfg` replays the run. A
data flag or key that only the other kind reads is a usage error.

Every output file is written atomically (temp file in the same directory,
then rename). Exit codes: 0 on success, 1 on usage or parse errors, 2 when
a solver or training run fails. The seed comes from --seed, else the
[data] seed key, else the DEFERLAB_SEED environment variable, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .core import DeferDataset, HalfspacePair, load_dataset_csv, save_dataset_csv
from .datagen import (
    GroupedExpertConfig,
    SyntheticConfig,
    generate_instance,
    save_instance_metadata,
)
from .evaluation import (
    check_methods,
    coverage_curve,
    evaluate,
    generalization_bound,
    run_benchmark,
    split_sizes,
    write_curve_csv,
    write_curves_svg,
    write_results_csv,
)
from .milp import MilpConfig, build_milp, solve_milp
from .train import (
    ALPHA_GRIDS,
    METHODS,
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    TrainingDiverged,
    fit_tau,
    model_outputs,
    train_method,
)

__all__ = ["main"]

# the share of --data that `train` holds out for validation without --val-data
VAL_FRACTION = 0.1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # flags are spelled in full, so a gone --alpha is not read as --alpha-grid
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# settings table
# ---------------------------------------------------------------------------


def _env_seed() -> int:
    env = os.environ.get("DEFERLAB_SEED")
    return int(env) if env else 0


def _floats(text) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _names(text) -> tuple:
    return tuple(text.split(","))


class Setting(NamedTuple):
    """One config-driven setting: ``[section] key=...``, the flag
    ``--dest`` (``-`` for ``_``; no flag when ``dest`` is None), the cast of
    flag and key text, the value used when neither is given (called when
    callable), and the config field the value fills."""

    section: str
    key: str
    dest: Optional[str]
    cast: Callable
    default: Any
    field: str
    choices: Optional[tuple] = None


# flag > [data] seed > DEFERLAB_SEED > 0
_SEED = Setting("data", "seed", "seed", int, _env_seed, "seed")

# each group is (the class its fields build, rows); the data rows depend on the kind
DATA_SETTINGS = {
    "synthetic": (SyntheticConfig, (
        Setting("data", "d", "d", int, 10, "d"),
        Setting("data", "n", "n", int, 1000, "n"),
        Setting("data", "distribution", "distribution", str, "gaussian_mixture",
                "distribution", ("uniform", "gaussian_mixture")),
        Setting("data", "U", "U", float, 10.0, "U"),
        Setting("data", "K", "K", int, 10, "K"),
        Setting("data", "std_scale", "std_scale", float, 1.0, "std_scale"),
        Setting("data", "margin", "margin", float, 0.0, "margin"),
        Setting("data", "p_m", "pm", float, 0.0, "p_m"),
        Setting("data", "p_h0", "ph0", float, 0.3, "p_h0"),
        Setting("data", "p_h1", "ph1", float, 0.0, "p_h1"),
        _SEED,
    )),
    "grouped": (GroupedExpertConfig, (
        Setting("data", "d", "d", int, 10, "d"),
        Setting("data", "n", "n", int, 1000, "n"),
        Setting("data", "C", "C", int, 10, "C"),
        Setting("data", "expert_k", "K", int, 5, "K"),
        Setting("data", "U", "U", float, 5.0, "U"),
        Setting("data", "blob_std", "blob_std", float, 2.0, "blob_std"),
        _SEED,
    )),
}
KIND = Setting("data", "kind", "preset", str, "synthetic", "kind", tuple(DATA_SETTINGS))
SOLVER_SETTINGS = (MilpConfig, (
    Setting("solver", "gamma", "gamma", float, 1e-5, "gamma"),
    Setting("solver", "box", "box", float, 1.0, "box"),
    Setting("solver", "lambda_reg", "lambda_reg", float, 0.0, "lambda_reg"),
    Setting("solver", "beta", "beta", float, None, "coverage_beta"),
    Setting("solver", "time_limit", "time_limit", float, None, "time_limit_s"),
    Setting("solver", "gap", "gap", float, None, "abs_gap"),
))
TRAIN_SETTINGS = (TrainConfig, (
    _SEED,
    Setting("method", "alpha_grid", "alpha_grid", _floats, None, "alpha_grid"),
    Setting("train", "epochs", "epochs", int, 300, "epochs"),
    Setting("train", "batch_size", "batch_size", int, 64, "batch_size"),
    Setting("train", "lr", "lr", float, 0.1, "learning_rate"),
    Setting("train", "hidden_units", "hidden", int, 0, "hidden_units"),
))
BENCH_SETTINGS = (dict, (
    Setting("method", "methods", "methods", _names, ("rs",), "methods"),
    Setting("eval", "trials", "trials", int, 5, "trials"),
    Setting("eval", "split", None, _floats, (0.7, 0.1, 0.2), "split"),
))

_DATA_ROWS = (KIND,) + tuple(row for _, rows in DATA_SETTINGS.values() for row in rows)
_ALL_ROWS = _DATA_ROWS + SOLVER_SETTINGS[1] + TRAIN_SETTINGS[1] + BENCH_SETTINGS[1]
CONFIG_SCHEMA = {section: {row.key for row in _ALL_ROWS if row.section == section}
                 for section in ("data", "method", "solver", "train", "eval")}


def _value(row: Setting, args, cfg):
    """The row's flag if given, else its config key, else its default."""
    raw = getattr(args, row.dest, None) if row.dest else None
    if raw is None:
        raw = cfg[row.section].get(row.key)
    if raw is None:
        return row.default() if callable(row.default) else row.default
    value = row.cast(raw)
    if row.choices and value not in row.choices:
        raise UsageError(f"[{row.section}] {row.key}={value}: use one of {', '.join(row.choices)}")
    return value


def _build(group, values):
    cls, rows = group
    return cls(**{row.field: values[row] for row in rows})


def _config(args, cfg, group):
    return _build(group, {row: _value(row, args, cfg) for row in group[1]})


def _kind(args, cfg) -> str:
    """The run's data kind. A data flag or key that only the other kind
    reads is a usage error, not silently ignored."""
    kind = _value(KIND, args, cfg)
    own = (KIND,) + DATA_SETTINGS[kind][1]
    dests, keys = {row.dest for row in own}, {row.key for row in own}
    for row in _DATA_ROWS:
        if row.dest not in dests and getattr(args, row.dest, None) is not None:
            raise UsageError(f"--{row.dest.replace('_', '-')} does not apply to kind={kind}")
        if row.key not in keys and row.key in cfg["data"]:
            raise UsageError(f"[data] {row.key} does not apply to kind={kind}")
    return kind


def _bench_groups(kind):
    return BENCH_SETTINGS, DATA_SETTINGS[kind], SOLVER_SETTINGS, TRAIN_SETTINGS


def _bench_values(args, cfg) -> dict:
    """Every setting of a bench run, ``{row: value}``, the kind first."""
    kind = _kind(args, cfg)
    return {KIND: kind, **{row: _value(row, args, cfg)
                           for _, rows in _bench_groups(kind) for row in rows}}


def _config_text(values) -> str:
    """The settings as a config file that reads back to the same values."""
    blocks = []
    for section in CONFIG_SCHEMA:
        lines = [f"[{section}]"]
        for row, value in values.items():
            if row.section == section and value is not None:
                text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                lines.append(f"{row.key}={text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _add_setting_flags(p, rows):
    """One flag per distinct dest, typed when the row casts to int or float."""
    for row in {row.dest: row for row in rows if row.dest}.values():
        p.add_argument("--" + row.dest.replace("_", "-"),
                       type=row.cast if row.cast in (int, float) else None, choices=row.choices)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def parse_config_file(path) -> dict:
    """Parse a sectioned key=value config; unknown keys are errors."""
    out = {name: {} for name in CONFIG_SCHEMA}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in CONFIG_SCHEMA:
                    raise UsageError(f"{path}: line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            if section is None:
                raise UsageError(f"{path}: line {lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_SCHEMA[section]:
                raise UsageError(f"{path}: line {lineno}: unknown key {key!r} in [{section}]")
            out[section][key] = value
    return out


def _load_config(args) -> dict:
    """The parsed ``--config`` file, or every section empty without one."""
    return parse_config_file(args.config) if args.config else {k: {} for k in CONFIG_SCHEMA}


def _atomic_write(path, writer):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-deferlab-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_text(path, text: str) -> None:
    """Write a string atomically as UTF-8."""

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    _atomic_write(path, write)


# ---------------------------------------------------------------------------
# model file formats
# ---------------------------------------------------------------------------


def save_halfspace_pair(pair: HalfspacePair, path) -> None:
    """Line 1: ``halfspace_pair,<C>,<d>``; then the classifier row(s); last
    line is the rejector row. Values are comma-joined reprs."""
    rows = list(np.atleast_2d(pair.classifier_weights)) + [pair.rejector_weights]
    lines = [f"halfspace_pair,{pair.num_classes},{pair.dim}"]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def save_score_system(system: TrainedSystem, path) -> None:
    """Header ``score_model,<method>,<C>,<d>,<hidden_units>,<tau>``, then
    one comma-joined flat weight line per model: the model's, and the
    auxiliary model's for the methods that have one. The method, C, d and
    hidden units fix both models' shapes."""
    m = system.model
    lines = [f"score_model,{system.method},{system.num_classes},{m.input_dim},"
             f"{m.hidden_units},{system.tau!r}"]
    lines += [",".join(repr(float(v)) for v in model.params)
              for model in (m, system.aux_model) if model is not None]
    _write_text(path, "\n".join(lines) + "\n")


def _weights(line) -> np.ndarray:
    return np.array([float(v) for v in line.split(",")])


def _parse_model(lines):
    if not lines:
        raise ValueError("empty model file")
    head = lines[0].split(",")
    fields = {"halfspace_pair": 3, "score_model": 6}
    if head[0] not in fields:
        raise ValueError(f"unknown model file kind {head[0]!r}")
    if len(head) != fields[head[0]]:
        raise ValueError(f"a {head[0]} header has {fields[head[0]]} fields, got {len(head)}")
    if head[0] == "halfspace_pair":
        num_classes, d = int(head[1]), int(head[2])
        if num_classes < 2 or d < 1:
            raise ValueError(f"a halfspace_pair header needs C >= 2 and d >= 1, "
                             f"got C={num_classes}, d={d}")
        rows = [_weights(line) for line in lines[1:]]
        # a 2-class classifier is one sign-test row or two argmax rows
        expected = (2, 3) if num_classes == 2 else (num_classes + 1,)
        if len(rows) not in expected:
            raise ValueError(f"expected {' or '.join(map(str, expected))} weight rows, "
                             f"got {len(rows)}")
        if any(row.size != d + 1 for row in rows):
            raise ValueError(f"every weight row needs d + 1 = {d + 1} values")
        classifier = rows[0] if len(rows) == 2 else np.vstack(rows[:-1])
        return HalfspacePair(classifier, rows[-1])
    method = head[1]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    c, d, hidden, tau = int(head[2]), int(head[3]), int(head[4]), float(head[5])
    if len(lines) not in (2, 3):
        raise ValueError(f"a score_model file has 2 or 3 lines, got {len(lines)}")
    model = ScoreModel(d, model_outputs(method, c), hidden, _weights(lines[1]))
    # TrainedSystem rejects an auxiliary model the method does not have, or a missing one
    aux = ScoreModel(d, 1, hidden, _weights(lines[2])) if len(lines) == 3 else None
    return TrainedSystem(model=model, num_classes=c, tau=tau, aux_model=aux, method=method)


def load_model_file(path):
    """Load either model file kind; returns a TrainedSystem or HalfspacePair.
    A malformed file is a UsageError that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    try:
        return _parse_model(lines)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args):
    cfg = _load_config(args)
    data_cfg = _config(args, cfg, DATA_SETTINGS[_kind(args, cfg)])
    dataset, pair = generate_instance(data_cfg)
    _atomic_write(args.out, lambda tmp: save_dataset_csv(dataset, tmp))
    meta_path = args.meta or (str(args.out) + ".meta")
    _atomic_write(meta_path, lambda tmp: save_instance_metadata(tmp, data_cfg, pair))
    print(f"wrote {args.out} and {meta_path}")
    return 0


def cmd_milp(args):
    cfg = _load_config(args)
    dataset = load_dataset_csv(args.data)
    milp_cfg = _config(args, cfg, SOLVER_SETTINGS)
    solution = solve_milp(build_milp(dataset, milp_cfg), milp_cfg)
    if solution.pair is None:
        print(f"milp failed: status={solution.status}", file=sys.stderr)
        return 2
    record = {
        "status": solution.status,
        "objective": solution.objective,
        "train_loss": solution.train_loss,
        "best_bound": solution.best_bound,
        "regularization": solution.regularization,
        "nodes_explored": solution.nodes_explored,
        "lp_iterations": solution.lp_iterations,
        "heuristic_s": solution.heuristic_s,
        "proposals": solution.proposals,
        "wall_time_s": solution.wall_time_s,
        "classifier_weights": np.atleast_2d(solution.pair.classifier_weights).tolist(),
        "rejector_weights": solution.pair.rejector_weights.tolist(),
        "config": {row.key: getattr(milp_cfg, row.field) for row in SOLVER_SETTINGS[1]},
    }
    _write_text(args.out_record, json.dumps(record, indent=2) + "\n")
    _atomic_write(args.out_weights, lambda tmp: save_halfspace_pair(solution.pair, tmp))
    print(f"status={solution.status} objective={solution.objective:.6f} "
          f"train_loss={solution.train_loss:.6f} bound={solution.best_bound:.6f} "
          f"gap={solution.objective - solution.best_bound:.6f} nodes={solution.nodes_explored} "
          f"lp_iterations={solution.lp_iterations} heuristic_s={solution.heuristic_s:.3f} "
          f"proposals={solution.proposals}")
    return 0


def cmd_train(args):
    cfg = _load_config(args)
    dataset = load_dataset_csv(args.data)
    train_cfg = _config(args, cfg, TRAIN_SETTINGS)
    # train_method would ignore it without a word
    if args.method not in ALPHA_GRIDS and train_cfg.alpha_grid is not None:
        raise UsageError(f"alpha_grid does not apply to method={args.method}")
    if args.val_data:
        val = load_dataset_csv(args.val_data)
        c, top = dataset.num_classes, int(max(val.labels.max(), val.human_preds.max()))
        if val.d != dataset.d or top >= c:
            raise UsageError(f"{args.val_data}: the training data has d={dataset.d} and C={c} "
                             f"classes, {args.val_data} has d={val.d} and class labels up to {top}")
        # the file's own class count is one more than its largest label
        val = DeferDataset(val.features, val.labels, val.human_preds, c)
        train = dataset
    else:
        n_val = max(1, int(round(VAL_FRACTION * dataset.n)))
        order = np.random.default_rng(train_cfg.seed).permutation(dataset.n)
        val = dataset.subset(order[:n_val])
        train = dataset.subset(order[n_val:])
    system = train_method(args.method, train, val, train_cfg)
    if args.fit_tau:
        system = system.with_tau(fit_tau(system, val))
    _atomic_write(args.out, lambda tmp: save_score_system(system, tmp))
    acc = system.best_val_accuracy
    print(f"method={args.method} val_system_accuracy={acc if acc is None else f'{acc:.4f}'} "
          f"tau={system.tau!r}")
    return 0


def cmd_eval(args):
    dataset = load_dataset_csv(args.data)
    system = load_model_file(args.model)
    d, c = system.dim, system.num_classes
    if d != dataset.d:
        raise UsageError(f"{args.model}: the model takes d={d}, {args.data} has d={dataset.d}")
    top = int(dataset.labels.max())
    if top >= c:
        raise UsageError(f"{args.model}: the model predicts C={c} classes, "
                         f"{args.data} has class labels up to {top}")
    report = evaluate(system, dataset)
    # before any output, so that a grid it refuses prints no report
    curve = coverage_curve(system, dataset, grid_size=args.curve_grid) if args.curve_out else None
    print(f"system_accuracy={report.system_accuracy!r}")
    print(f"coverage={report.coverage!r}")
    print(f"classifier_accuracy_nondeferred="
          f"{'' if report.classifier_accuracy_nondeferred is None else repr(report.classifier_accuracy_nondeferred)}")
    print(f"human_accuracy_deferred="
          f"{'' if report.human_accuracy_deferred is None else repr(report.human_accuracy_deferred)}")
    print(f"n_points={report.n_points}")
    if curve is not None:
        _atomic_write(args.curve_out, lambda tmp: write_curve_csv(curve, tmp))
    return 0


def cmd_bench(args):
    values = _bench_values(args, _load_config(args))
    run, data_cfg, milp_cfg, train_cfg = (_build(g, values) for g in _bench_groups(values[KIND]))
    try:
        methods = check_methods(run["methods"])
    except ValueError as exc:
        raise UsageError(f"[method] methods: {exc}") from None
    try:
        split_sizes(run["split"], data_cfg.n)
    except ValueError as exc:
        raise UsageError(f"[eval] split: {exc}") from None

    os.makedirs(args.out_dir, exist_ok=True)
    result = run_benchmark(data_cfg, methods, run["trials"], seed=values[_SEED],
                           split=run["split"], train_config=train_cfg, milp_config=milp_cfg)
    _atomic_write(os.path.join(args.out_dir, "results.csv"),
                  lambda tmp: write_results_csv(result, tmp))
    for method in methods:
        first = next(r for r in result.records if r.method == method)
        _atomic_write(os.path.join(args.out_dir, f"curve_{method}.csv"),
                      lambda tmp, c=first.curve: write_curve_csv(c, tmp))
    if not args.no_plot:
        _atomic_write(os.path.join(args.out_dir, "plot.svg"),
                      lambda tmp: write_curves_svg(result, tmp))
    _write_text(os.path.join(args.out_dir, "resolved_config.cfg"), _config_text(values))
    for method, (mean, stderr) in result.aggregates.items():
        err = "" if stderr is None else f" +- {stderr:.4f}"
        print(f"{method}: system_accuracy {mean:.4f}{err}")
    return 0


def cmd_bound(args):
    for flag in ("train_loss", "km", "kr", "perr", "delta"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite")
    value = generalization_bound(args.train_loss, args.km, args.kr, args.d, args.n,
                                 args.perr, args.delta)
    print(f"{value:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="deferlab",
                     description="learn classifier/rejector pairs for human-AI deferral")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV plus metadata sidecar")
    p.add_argument("--config")
    _add_setting_flags(p, _DATA_ROWS)
    p.add_argument("--out", required=True)
    p.add_argument("--meta")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("milp", help="solve the exact deferral MILP on a dataset CSV")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    _add_setting_flags(p, SOLVER_SETTINGS[1])
    p.add_argument("--out-record", dest="out_record", required=True)
    p.add_argument("--out-weights", dest="out_weights", required=True)
    p.set_defaults(func=cmd_milp)

    p = sub.add_parser("train", help="train a surrogate or baseline method")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--val-data", dest="val_data")
    p.add_argument("--method", required=True, choices=METHODS)
    _add_setting_flags(p, TRAIN_SETTINGS[1])
    p.add_argument("--fit-tau", dest="fit_tau", action="store_true",
                   help="line-search the rejection threshold on validation after training")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--curve-out", dest="curve_out")
    p.add_argument("--curve-grid", dest="curve_grid", type=int, default=50)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--config")
    _add_setting_flags(p, _ALL_ROWS)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--no-plot", dest="no_plot", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bound", help="evaluate the generalization bound")
    p.add_argument("--train-loss", dest="train_loss", type=float, default=0.0)
    p.add_argument("--km", type=float, required=True)
    p.add_argument("--kr", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--perr", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
