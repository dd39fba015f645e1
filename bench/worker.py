"""One benchmark process: set-up, timed phase and checks of one workload.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts it with the checkout's src on PYTHONPATH.  It prints one JSON
object as its last stdout line.  "ready" is time.monotonic() when set-up
(import, fixtures, warm-up) ended; with --setup-only it stops there.

--seconds sets the number of cycles (workloads.cycle_count).  Every
operation is timed alone and checked afterwards, outside the timed region.
A traced run (--trace 1) runs its cycles twice, first untraced and then with
the tracer installed; the span counts repeat exactly for a seed, and the
second pass's slowdown is the tracing overhead.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh interpreters timed for cli.interp_s and cli.import_s: what every
#: `python -m eflab.cli` call pays before it starts work.
PROBES = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import eflab; "
                 "print(time.perf_counter() - t)")


def run_ops(work, op_list):
    """[(op, seconds, result, error)] with only work.run inside the timer."""
    out = []
    for op in op_list:
        start = time.perf_counter()
        try:
            result, error = work.run(op), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        out.append((op, time.perf_counter() - start, result, error))
    return out


def check_records(work, records):
    """(failed count, first reasons); a check that raises is a failure too."""
    fixture_bad = work.check_fixtures()
    reasons = [f"fixture {i}: {r}" for i, r in enumerate(fixture_bad) if r]
    failed = 0
    for op, _, result, error in records:
        reason = error
        fix = work.fixture_of(op)
        if reason is None and fix is not None and fixture_bad[fix]:
            reason = f"fixture {fix} failed its check"
        if reason is None:
            try:
                reason = work.check(op, result)
            except Exception:
                reason = traceback.format_exc(limit=2).strip().splitlines()[-1]
        if reason is not None:
            failed += 1
            reasons.append(f"{op!r:.160}: {reason}")
    return failed, reasons[:10]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import scipy
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def latency_metrics(records, elapsed, failed) -> dict:
    lat_ms = np.array([r[1] for r in records]) * 1e3
    n = len(records)
    return {"ops_per_s": (n / elapsed, "ops/s"),
            "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
            "ok_frac": (1.0 - failed / n, "ratio")}


def probe_seconds(argv, parse_stdout: bool) -> float:
    vals = []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        vals.append(float(proc.stdout) if parse_stdout else time.perf_counter() - start)
    return statistics.median(vals)


def traced_run(work, args, op_list, tracing):
    start = time.perf_counter()
    run_ops(work, op_list)
    untraced = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    records = run_ops(work, op_list)
    traced = time.perf_counter() - start
    tracer.uninstall()
    failed, reasons = check_records(work, records)
    stats = tracing.layer_stats(tracer.spans)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    extras = {
        "cli.interp_s": probe_seconds([sys.executable, "-c", "pass"], False),
        "cli.import_s": probe_seconds([sys.executable, "-c", _IMPORT_PROBE], True),
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.span_share": stats[""]["total_s"] / traced,
    }
    metrics = tracing.per_layer_metrics(stats, extras)
    info = {"ops": len(op_list), "untraced_s": untraced, "traced_s": traced}
    return metrics, len(records), failed, reasons, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import eflab
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(eflab.__file__).startswith(src):
        raise SystemExit(f"eflab resolves to {eflab.__file__}, outside {src}")
    import ops
    import tracing

    work = ops.CLASSES[args.workload](args.workload, args.seed)
    work.setup()
    run_ops(work, wl.warmup(args.workload, args.seed))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    n_cycles = wl.cycle_count(args.workload, args.seconds)
    op_list = [op for cycle in wl.first_cycles(args.workload, args.seed, n_cycles)
               for op in cycle]
    if args.trace:
        metrics, attempted, failed, reasons, info = traced_run(work, args, op_list, tracing)
    else:
        start = time.perf_counter()
        records = run_ops(work, op_list)
        elapsed = time.perf_counter() - start
        rss = peak_rss_mb()
        failed, reasons = check_records(work, records)
        attempted = len(records)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in latency_metrics(records, elapsed, failed).items()}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
        info = {"ops": attempted, "cycles": n_cycles, "elapsed_s": elapsed,
                "env": environment()}
    print(json.dumps({"ready": ready, "attempted": attempted, "failed": failed,
                      "reasons": reasons, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
