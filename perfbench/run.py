"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload sets up several times (the
median is ``setup_s``), then runs whole rounds of its operations until
another round would pass ``--seconds``; at least one round runs. Outputs
are checked after each round, outside the timed region. With ``--trace 0``
the result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run with every layer wrapped. The last line of standard output
is the result as one JSON object; a copy goes to ``perfbench/results/``.
"""

import os

# pin BLAS and OpenMP threads before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, deferlab; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Seconds to import numpy and the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def git_sha(root):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = "unknown"
    return {"git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    if not os.path.isdir(os.path.join(ROOT, "src", "deferlab")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'deferlab')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.trace else None

    drawn = wl.draw(args.seed)
    import_times, setup_times, setup_datagen = [], [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            state = wl.setup(drawn)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_datagen.append(tracer.take()["datagen.s"])

    rounds, walls, first_failures, attempted, failed = [], [], [], 0, 0
    run_start = time.perf_counter()
    while True:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run(state)
            wall = time.perf_counter() - t0
        row = {"wall_s": wall}
        if tracer:
            row = layers.layer_metrics(tracer.take(), wall)
            row["datagen.s"] = statistics.median(setup_datagen)
        rounds.append(row)
        walls.append(wall)
        msgs = wl.check(state, out)
        attempted += len(msgs)
        bad = [(k, m) for k, m in enumerate(msgs) if m is not None]
        failed += len(bad)
        first_failures += bad[: max(0, 5 - len(first_failures))]
        elapsed = time.perf_counter() - run_start
        if elapsed + statistics.median(walls) > args.seconds:
            break

    values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    if tracer:
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        units = END_TO_END_UNITS
        values["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"setup repeats {SETUP_REPEATS} import_s {statistics.median(import_times):.4f}")
    for k, m in metrics.items():
        print(f"metric {k} {m['value']:.6g} {m['unit']}")
    for k, msg in first_failures:
        print(f"failed operation {k}: {msg}")
    print(f"operations attempted {attempted} failed {failed}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "import_s": import_times, "setup_only_s": setup_times,
                   "rounds": rounds, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
