"""Command-line front door: gen, milp, train, eval, bench, bound.

Runs are driven by flags, optionally layered over a plain-text config file
(key=value lines under [data], [method], [solver], [train], [eval]
sections; unknown sections or keys are rejected). Flags always override
config values. Every output file is written atomically (temp file in the
same directory, then rename), and `bench` drops a fully resolved config
next to its results so any run can be reproduced from its own artifacts.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a solver or
training run fails. The DEFERLAB_SEED environment variable supplies the
seed when neither flag nor config gives one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .core import HalfspacePair, load_dataset_csv, save_dataset_csv
from .datagen import (
    GroupedExpertConfig,
    SyntheticConfig,
    generate_grouped_expert,
    generate_synthetic,
    save_instance_metadata,
)
from .evaluation import (
    coverage_curve,
    evaluate,
    generalization_bound,
    run_benchmark,
    write_curve_csv,
    write_curves_svg,
    write_results_csv,
)
from .milp import MilpConfig, build_binary_milp, build_multiclass_milp, solve_milp
from .train import (
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    TrainingDiverged,
    fit_tau,
    train_method,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = {
    "data": {"kind", "d", "n", "distribution", "U", "K", "std_scale", "margin",
             "p_m", "p_h0", "p_h1", "seed", "C", "expert_k", "blob_std"},
    "method": {"methods", "alpha", "alpha_grid"},
    "solver": {"gamma", "box", "lambda_reg", "beta", "time_limit", "gap"},
    "train": {"epochs", "batch_size", "lr", "seed", "hidden_units"},
    "eval": {"trials", "split", "curve_grid"},
}


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


def _resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if cfg["data"].get("seed") is not None:
        return int(cfg["data"]["seed"])
    env = os.environ.get("DEFERLAB_SEED")
    return int(env) if env else 0


def _data_config(args, cfg):
    d = cfg["data"]
    get = lambda key, flag, cast, default: (
        cast(flag) if flag is not None else (cast(d[key]) if key in d else default)
    )
    kind = get("kind", getattr(args, "preset", None), str, "synthetic")
    seed = _resolve_seed(args, cfg)
    if kind == "grouped":
        return GroupedExpertConfig(
            d=get("d", getattr(args, "d", None), int, 10),
            n=get("n", getattr(args, "n", None), int, 1000),
            C=get("C", getattr(args, "C", None), int, 10),
            K=get("expert_k", getattr(args, "K", None), int, 5),
            U=get("U", getattr(args, "U", None), float, 5.0),
            blob_std=get("blob_std", getattr(args, "blob_std", None), float, 2.0),
            seed=seed,
        )
    if kind != "synthetic":
        raise UsageError(f"unknown data kind {kind!r} (use synthetic or grouped)")
    return SyntheticConfig(
        d=get("d", getattr(args, "d", None), int, 10),
        n=get("n", getattr(args, "n", None), int, 1000),
        distribution=get("distribution", getattr(args, "distribution", None), str,
                         "gaussian_mixture"),
        U=get("U", getattr(args, "U", None), float, 10.0),
        K=get("K", getattr(args, "K", None), int, 10),
        std_scale=get("std_scale", getattr(args, "std_scale", None), float, 1.0),
        margin=get("margin", getattr(args, "margin", None), float, 0.0),
        p_m=get("p_m", getattr(args, "pm", None), float, 0.0),
        p_h0=get("p_h0", getattr(args, "ph0", None), float, 0.3),
        p_h1=get("p_h1", getattr(args, "ph1", None), float, 0.0),
        seed=seed,
    )


def _solver_config(args, cfg) -> MilpConfig:
    s = cfg["solver"]
    get = lambda key, flag, cast, default: (
        cast(flag) if flag is not None else (cast(s[key]) if key in s else default)
    )
    return MilpConfig(
        gamma=get("gamma", getattr(args, "gamma", None), float, 1e-5),
        box=get("box", getattr(args, "box", None), float, 1.0),
        lambda_reg=get("lambda_reg", getattr(args, "lambda_reg", None), float, 0.0),
        coverage_beta=get("beta", getattr(args, "beta", None), float, None)
        if (getattr(args, "beta", None) is not None or "beta" in s) else None,
        time_limit_s=get("time_limit", getattr(args, "time_limit", None), float, None)
        if (getattr(args, "time_limit", None) is not None or "time_limit" in s) else None,
        abs_gap=get("gap", getattr(args, "gap", None), float, None)
        if (getattr(args, "gap", None) is not None or "gap" in s) else None,
    )


def _train_config(args, cfg) -> TrainConfig:
    t = cfg["train"]
    m = cfg["method"]
    get = lambda sec, key, flag, cast, default: (
        cast(flag) if flag is not None else (cast(sec[key]) if key in sec else default)
    )
    alpha_grid = getattr(args, "alpha_grid", None) or m.get("alpha_grid")
    if isinstance(alpha_grid, str):
        alpha_grid = tuple(float(v) for v in alpha_grid.split(","))
    return TrainConfig(
        epochs=get(t, "epochs", getattr(args, "epochs", None), int, 300),
        batch_size=get(t, "batch_size", getattr(args, "batch_size", None), int, 64),
        learning_rate=get(t, "lr", getattr(args, "lr", None), float, 0.1),
        seed=_resolve_seed(args, cfg),
        alpha=get(m, "alpha", getattr(args, "alpha", None), float, None)
        if (getattr(args, "alpha", None) is not None or "alpha" in m) else None,
        alpha_grid=alpha_grid or TrainConfig().alpha_grid,
        hidden_units=get(t, "hidden_units", getattr(args, "hidden", None), int, 0),
    )


# ---------------------------------------------------------------------------
# model file formats
# ---------------------------------------------------------------------------


def save_halfspace_pair(pair: HalfspacePair, path, num_classes=2) -> None:
    """Line 1: ``halfspace_pair,<C>,<d>``; then the classifier row(s); last
    line is the rejector row. Values are comma-joined reprs."""
    rows = np.atleast_2d(pair.classifier_weights)

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"halfspace_pair,{num_classes},{pair.dim}\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
            fh.write(",".join(repr(float(v)) for v in pair.rejector_weights) + "\n")

    _atomic_write(path, write)


def save_score_system(system: TrainedSystem, path) -> None:
    """Architecture header line plus one comma-joined flat weight line per
    model. Header: ``score_model,<arch>,<d>,<out>,<hidden>,<tau>,<kind>,<C>,
    <method>``; an auxiliary model adds an ``aux,...`` header and weights."""

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            m = system.model
            fh.write(
                f"score_model,{m.arch},{m.input_dim},{m.output_dim},{m.hidden_units},"
                f"{system.tau!r},{system.score_kind},{system.num_classes},{system.method}\n"
            )
            fh.write(",".join(repr(float(v)) for v in m.params) + "\n")
            if system.aux_model is not None:
                a = system.aux_model
                fh.write(f"aux,{a.arch},{a.input_dim},{a.output_dim},{a.hidden_units}\n")
                fh.write(",".join(repr(float(v)) for v in a.params) + "\n")

    _atomic_write(path, write)


def load_model_file(path):
    """Load either model file kind; returns a TrainedSystem or HalfspacePair."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise UsageError(f"{path}: empty model file")
    head = lines[0].split(",")
    if head[0] == "halfspace_pair":
        num_classes, d = int(head[1]), int(head[2])
        rows = [np.array([float(v) for v in line.split(",")]) for line in lines[1:]]
        expected = (num_classes if num_classes > 2 else 1) + 1
        if len(rows) != expected:
            raise UsageError(f"{path}: expected {expected} weight rows, got {len(rows)}")
        classifier = rows[0] if len(rows) == 2 else np.vstack(rows[:-1])
        return HalfspacePair(classifier, rows[-1])
    if head[0] == "score_model":
        arch, d, out, hidden = head[1], int(head[2]), int(head[3]), int(head[4])
        tau, kind, c, method = float(head[5]), head[6], int(head[7]), head[8]
        params = np.array([float(v) for v in lines[1].split(",")])
        model = ScoreModel(arch, d, out, hidden, params)
        aux = None
        if len(lines) > 2:
            ah = lines[2].split(",")
            if ah[0] != "aux":
                raise UsageError(f"{path}: malformed aux header")
            aux = ScoreModel(ah[1], int(ah[2]), int(ah[3]), int(ah[4]),
                             np.array([float(v) for v in lines[3].split(",")]))
        return TrainedSystem(model=model, num_classes=c, tau=tau, aux_model=aux,
                             method=method, score_kind=kind)
    raise UsageError(f"{path}: unknown model file kind {head[0]!r}")


def _resolved_config_text(data_cfg, milp_cfg, train_cfg, methods, trials, split, seed):
    lines = ["[data]"]
    for key, value in sorted(vars(data_cfg).items() if not hasattr(data_cfg, "__dataclass_fields__")
                             else ((f, getattr(data_cfg, f)) for f in data_cfg.__dataclass_fields__)):
        lines.append(f"{key}={value}")
    lines += ["", "[method]", f"methods={','.join(methods)}"]
    if train_cfg.alpha is not None:
        lines.append(f"alpha={train_cfg.alpha}")
    lines.append(f"alpha_grid={','.join(str(a) for a in train_cfg.alpha_grid)}")
    lines += ["", "[solver]", f"gamma={milp_cfg.gamma}", f"box={milp_cfg.box}",
              f"lambda_reg={milp_cfg.lambda_reg}"]
    if milp_cfg.coverage_beta is not None:
        lines.append(f"beta={milp_cfg.coverage_beta}")
    if milp_cfg.time_limit_s is not None:
        lines.append(f"time_limit={milp_cfg.time_limit_s}")
    if milp_cfg.abs_gap is not None:
        lines.append(f"gap={milp_cfg.abs_gap}")
    lines += ["", "[train]", f"epochs={train_cfg.epochs}", f"batch_size={train_cfg.batch_size}",
              f"lr={train_cfg.learning_rate}", f"seed={seed}",
              f"hidden_units={train_cfg.hidden_units}",
              "", "[eval]", f"trials={trials}", f"split={','.join(str(v) for v in split)}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args):
    cfg = parse_config_file(args.config) if args.config else {k: {} for k in CONFIG_SCHEMA}
    data_cfg = _data_config(args, cfg)
    if isinstance(data_cfg, GroupedExpertConfig):
        dataset = generate_grouped_expert(d=data_cfg.d, n=data_cfg.n, C=data_cfg.C,
                                          K=data_cfg.K, seed=data_cfg.seed,
                                          U=data_cfg.U, blob_std=data_cfg.blob_std)
        pair = None
        meta_cfg = None
    else:
        instance = generate_synthetic(data_cfg)
        dataset, pair, meta_cfg = instance.dataset, instance.planted_pair, data_cfg
    _atomic_write(args.out, lambda tmp: save_dataset_csv(dataset, tmp))
    meta_path = args.meta or (str(args.out) + ".meta")
    if meta_cfg is not None:
        _atomic_write(meta_path, lambda tmp: save_instance_metadata(tmp, meta_cfg, pair))
    else:
        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f"kind=grouped\nseed={data_cfg.seed}\nd={data_cfg.d}\n"
                         f"n={data_cfg.n}\nC={data_cfg.C}\nexpert_k={data_cfg.K}\n"
                         f"U={data_cfg.U!r}\nblob_std={data_cfg.blob_std!r}\n")
        _atomic_write(meta_path, write)
    print(f"wrote {args.out} and {meta_path}")
    return 0


def cmd_milp(args):
    cfg = parse_config_file(args.config) if args.config else {k: {} for k in CONFIG_SCHEMA}
    dataset = load_dataset_csv(args.data)
    milp_cfg = _solver_config(args, cfg)
    builder = build_binary_milp if dataset.num_classes == 2 else build_multiclass_milp
    solution = solve_milp(builder(dataset, milp_cfg), milp_cfg)
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
        "wall_time_s": solution.wall_time_s,
        "classifier_weights": np.atleast_2d(solution.pair.classifier_weights).tolist(),
        "rejector_weights": solution.pair.rejector_weights.tolist(),
        "config": {"gamma": milp_cfg.gamma, "box": milp_cfg.box,
                   "lambda_reg": milp_cfg.lambda_reg, "beta": milp_cfg.coverage_beta,
                   "time_limit": milp_cfg.time_limit_s, "gap": milp_cfg.abs_gap},
    }
    _atomic_write(args.out_record, lambda tmp: open(tmp, "w").write(json.dumps(record, indent=2) + "\n"))
    _atomic_write(args.out_weights,
                  lambda tmp: save_halfspace_pair(solution.pair, tmp, dataset.num_classes))
    print(f"status={solution.status} objective={solution.objective:.6f} "
          f"train_loss={solution.train_loss:.6f} nodes={solution.nodes_explored}")
    return 0


def cmd_train(args):
    cfg = parse_config_file(args.config) if args.config else {k: {} for k in CONFIG_SCHEMA}
    dataset = load_dataset_csv(args.data)
    train_cfg = _train_config(args, cfg)
    if args.val_data:
        val = load_dataset_csv(args.val_data)
        train = dataset
    else:
        n_val = max(1, int(round(train_cfg.val_fraction * dataset.n)))
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
    report = evaluate(system, dataset)
    print(f"system_accuracy={report.system_accuracy!r}")
    print(f"coverage={report.coverage!r}")
    print(f"classifier_accuracy_nondeferred="
          f"{'' if report.classifier_accuracy_nondeferred is None else repr(report.classifier_accuracy_nondeferred)}")
    print(f"human_accuracy_deferred="
          f"{'' if report.human_accuracy_deferred is None else repr(report.human_accuracy_deferred)}")
    print(f"n_points={report.n_points}")
    if args.curve_out:
        curve = coverage_curve(system, dataset, grid_size=args.curve_grid)
        _atomic_write(args.curve_out, lambda tmp: write_curve_csv(curve, tmp))
    return 0


def cmd_bench(args):
    cfg = parse_config_file(args.config) if args.config else {k: {} for k in CONFIG_SCHEMA}
    data_cfg = _data_config(args, cfg)
    milp_cfg = _solver_config(args, cfg)
    train_cfg = _train_config(args, cfg)
    methods = (args.methods or cfg["method"].get("methods", "rs")).split(",")
    trials = args.trials if args.trials is not None else int(cfg["eval"].get("trials", 5))
    split_text = cfg["eval"].get("split", "0.7,0.1,0.2")
    split = tuple(float(v) for v in split_text.split(","))
    seed = _resolve_seed(args, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    result = run_benchmark(data_cfg, methods, trials, seed=seed, split=split,
                           train_config=train_cfg, milp_config=milp_cfg)
    _atomic_write(os.path.join(args.out_dir, "results.csv"),
                  lambda tmp: write_results_csv(result, tmp))
    for method in methods:
        first = next(r for r in result.records if r.method == method)
        _atomic_write(os.path.join(args.out_dir, f"curve_{method}.csv"),
                      lambda tmp, c=first.curve: write_curve_csv(c, tmp))
    if not args.no_plot:
        _atomic_write(os.path.join(args.out_dir, "plot.svg"),
                      lambda tmp: write_curves_svg(result, tmp))
    resolved = _resolved_config_text(data_cfg, milp_cfg, train_cfg, methods, trials, split, seed)
    _atomic_write(os.path.join(args.out_dir, "resolved_config.cfg"),
                  lambda tmp: open(tmp, "w").write(resolved))
    for method, (mean, stderr) in result.aggregates.items():
        err = "" if stderr is None else f" +- {stderr:.4f}"
        print(f"{method}: system_accuracy {mean:.4f}{err}")
    return 0


def cmd_bound(args):
    value = generalization_bound(args.train_loss, args.km, args.kr, args.d, args.n,
                                 args.perr, args.delta)
    print(f"{value:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_data_flags(p):
    p.add_argument("--preset", choices=["synthetic", "grouped"])
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--distribution", choices=["uniform", "gaussian_mixture"])
    p.add_argument("--U", type=float)
    p.add_argument("--K", type=int)
    p.add_argument("--C", type=int)
    p.add_argument("--std-scale", dest="std_scale", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--blob-std", dest="blob_std", type=float)
    p.add_argument("--pm", type=float)
    p.add_argument("--ph0", type=float)
    p.add_argument("--ph1", type=float)


def _add_solver_flags(p):
    p.add_argument("--gamma", type=float)
    p.add_argument("--box", type=float)
    p.add_argument("--lambda-reg", dest="lambda_reg", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--time-limit", dest="time_limit", type=float)
    p.add_argument("--gap", type=float)


def _add_train_flags(p):
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-grid", dest="alpha_grid")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="deferlab",
                     description="learn classifier/rejector pairs for human-AI deferral")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV plus metadata sidecar")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--meta")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("milp", help="solve the exact deferral MILP on a dataset CSV")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    _add_solver_flags(p)
    p.add_argument("--out-record", dest="out_record", required=True)
    p.add_argument("--out-weights", dest="out_weights", required=True)
    p.set_defaults(func=cmd_milp)

    p = sub.add_parser("train", help="train a surrogate or baseline method")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--val-data", dest="val_data")
    p.add_argument("--method", required=True,
                   choices=["rs", "rs2", "ce", "ova", "moe", "triage", "confidence", "selective"])
    p.add_argument("--seed", type=int)
    _add_train_flags(p)
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
    p.add_argument("--methods")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_data_flags(p)
    _add_solver_flags(p)
    _add_train_flags(p)
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
