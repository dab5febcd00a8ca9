"""Run workloads on several seeds and report each metric's median and spread.

    python3 perfbench/steady.py --workloads exact-small,trial-realizable \\
        --seeds 1-10 --seconds 40 --trace 0,1

Each run is a separate ``run.py`` process, one after another. The spread is
the distance between the first and third quartile of a metric's values
(``statistics.quantiles(values, n=4)``) as a share of their median. When
both trace settings run, the tracing overhead is the median traced
``traced.wall_s`` minus the median untraced ``wall_s``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        medians = {}
        for trace in (int(t) for t in args.trace.split(",")):
            results = []
            for seed in seed_list(args.seeds):
                results.append(run_once(workload, seed, args.seconds, trace))
                print(f"{workload} seed {seed} trace {trace}: "
                      + " ".join(f"{k}={m['value']:.5g}" for k, m in results[-1]["metrics"].items()
                                 if k in ("setup_s", "wall_s", "traced.wall_s", "milp.gap")),
                      flush=True)
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"== {workload} trace {trace}: failed shares {sorted(shares)}, "
                  f"all correct {all(r['correct'] for r in results)}")
            for key in results[0]["metrics"]:
                values = [r["metrics"][key]["value"] for r in results]
                medians[key] = statistics.median(values)
                print(f"   {key:24s} median {medians[key]:<12.6g} spread {spread(values):.4f} "
                      f"min {min(values):<12.6g} max {max(values):.6g}")
                summary.setdefault(workload, {})[key] = {
                    "median": medians[key], "spread": spread(values), "values": values}
        if "wall_s" in medians and "traced.wall_s" in medians:
            overhead = medians["traced.wall_s"] - medians["wall_s"]
            print(f"== {workload} tracing overhead {overhead:.4f} s "
                  f"({overhead / medians['wall_s']:.2%} of wall_s)")
            summary[workload]["trace_overhead_s"] = overhead
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
