"""Benchmark of the tarst package: three closed-loop workloads.

Run from the root of a checkout that holds ``src/tarst``:

    python3 perfbench/run.py --workload denoise_large --seed 1 --seconds 30 --trace 0

Workloads: denoise_large, sweep_small, cli_roundtrip (see README.md for
why each exists and which layer it stresses). Every workload runs in a
child process with BLAS pinned to one thread; this parent process never
loads numpy, so the pin applies to the children only.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
several fresh processes), op latency percentiles, ops per second, TARST
accuracy on the golden cases and peak RSS. ``--trace 1`` measures the
per-layer metrics in a traced child instead. Either way the golden output
check runs, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
fuller report with machine facts, sample counts and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("denoise_large", "sweep_small", "cli_roundtrip")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides the workload's own
BUDGET_S = 170.0  # whole run, below the 180 s a run may take


def run_child(args, deadline: float) -> dict:
    """Run worker.py with pinned BLAS; return the JSON of its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env={**os.environ, **PIN}, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not (Path.cwd() / "src" / "tarst" / "__init__.py").is_file():
        print("run.py: no src/tarst here; run from the root of a tarst checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload]
    try:
        setup = [] if args.trace else [
            run_child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = run_child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    metrics, extra = res["metrics"], res["report"]
    if not args.trace:
        setup.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        extra["setup_s.samples"] = setup
    extra["fail_frac"] = {"value": res["failed"] / res["attempted"], "unit": "frac"}
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": res["machine"], "failures": res["failures"],
        "metrics": metrics, "extra": extra}}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
