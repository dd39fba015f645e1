"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--workloads W ...] [--seeds 1 2 ...] [--record]

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for each metric the median of the per-run values and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
With --record, the per-run values, their summaries and one traced run per
workload (first seed) are appended as a point to bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> list:
    """The last two stdout lines of run.py: information and result."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()[-2:]]


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            info, result = bench_run(workload, seed, args.seconds, 0)
            wall = time.monotonic() - start
            if not result["correct"]:
                print(f"{workload} seed {seed}: {info['reasons']}", file=sys.stderr)
            runs.append({"seed": seed, "correct": result["correct"], "wall_s": wall,
                         **{k: v["value"] for k, v in result["metrics"].items()}})
        summary = {name: summarize([r[name] for r in runs]) for name in bounds}
        report[workload] = {"runs": runs, "summary": summary, "env": info["env"]}
        for name, st in summary.items():
            flag = "" if st["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:18s} {name:12s} median {st['median']:12.5g}  spread "
                  f"{st['spread']:.4f}  bound {bounds[name]}{flag}", flush=True)
    if args.record:
        record(report, args)
    return 0


def record(report: dict, args):
    point = {"run_seconds": args.seconds, "seeds": args.seeds,
             "env": next(iter(report.values()))["env"], "workloads": {}}
    for workload, rep in report.items():
        _, traced = bench_run(workload, args.seeds[0], args.seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": rep["summary"], "runs": rep["runs"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "correct": all(r["correct"] for r in rep["runs"]) and traced["correct"]}
    path = os.path.join(BENCH, "trajectory.json")
    points = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            points = json.load(fh)
    points.append(point)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
