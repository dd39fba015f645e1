"""eflab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an eflab checkout; W is one of zero-tables,
local-terms, conductor-spectra (see workloads.py and BENCHMARK.json).  The
program under test is the checkout's own src/eflab, put on PYTHONPATH for the
worker process (eflab is never imported from anywhere else), with BLAS and
OpenMP limited to one thread.

With --trace 0 the set-up (interpreter, import, fixtures, warm-up) runs in
SETUP_RUNS fresh processes, the last of which goes on to the timed phase;
setup_s is their median.  With --trace 1 a single worker reports the
per-layer metrics.  Stdout ends with an information line (seed, sample
count, environment) and then one JSON object: correct, attempted, failed,
metrics.  Traced runs leave their spans in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_RUNS = 3
#: Wall-clock budget for the whole run, workers included.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(argv, env, timeout: float) -> dict:
    """Start one worker in its own session; kill the session on timeout or
    when this process is interrupted or terminated."""
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {argv[2:]}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {argv[2:]}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eflab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_worker stops the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "eflab", "__init__.py")):
        print(f"error: no eflab sources under {src}", file=sys.stderr)
        return 2
    start = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # One client on one vCPU: BLAS helper threads would spin on the other
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = 1 if args.trace else SETUP_RUNS
    try:
        setups = []
        for i in range(runs):
            cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if i < runs - 1:
                cmd.append("--setup-only")
            result = run_worker(cmd, env, DEADLINE_S - (time.monotonic() - start))
            setups.append(result["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "setup_runs_s": setups, "samples": result["attempted"],
                      "reasons": result["reasons"], **result["info"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
