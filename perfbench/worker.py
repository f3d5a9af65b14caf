"""Child process of the benchmark: runs one workload in a closed loop.

run.py starts this script with BLAS pinned to one thread in its
environment and the checkout root as working directory; the program is
imported from ``src/`` there. One client, one op at a time: the next op's
input is made only after the previous op and its check are done.

Set-up is timed from just before ``import tarst`` to the end of one
warm-up call of the workload's entry function on a tiny input. With
``--setup-only`` the process stops there. Otherwise it runs the timed
phase, replays the golden cases and prints one JSON object as the last
line of stdout. With ``--trace 1`` half of the ops and the golden replay
run under the tracer, the other half plain (the tracing-overhead base),
and the result carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# numpy is imported after set-up timing starts: it is part of importing tarst
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program(root: Path):
    """Import tarst from ``root/src``, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tarst

    if Path(tarst.__file__).resolve().parent != src / "tarst":
        raise SystemExit(f"imported tarst from {tarst.__file__}, not from {src}")
    return tarst


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Phase:
    """Op times, the reference time after each op, which ops ran traced,
    and failures of one timed phase."""

    def __init__(self):
        self.times = []
        self.ref_times = []
        self.traced = []
        self.failures = []

    def ops_per_s(self, traced: bool = False) -> float:
        t = [dt for dt, tr in zip(self.times, self.traced) if tr == traced]
        return len(t) / sum(t)


def timed_phase(wl, seconds: float, tracer=None) -> Phase:
    """Run ops back to back until ``seconds`` have passed.

    Only the op itself is timed; making its input and checking its output
    happen between ops. Right after each op the workload's reference runs
    and is timed too. An op that raises or fails its check is a failure.
    With a tracer, ops alternate in pairs between plain and traced (the
    tracer is installed around the traced op, its input and its check), so
    the tracing overhead compares ops over the same mix of inputs.
    """
    phase = Phase()
    min_ops = 1 if tracer is None else 4
    deadline = time.perf_counter() + seconds
    while len(phase.times) < min_ops or time.perf_counter() < deadline:
        i = len(phase.times)
        traced = tracer is not None and (i // 2) % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            inp = wl.make_input(i)
            t0 = time.perf_counter()
            try:
                with tracer.span() if traced else contextlib.nullcontext():
                    out = wl.op(inp)
            except Exception as e:  # a failing op is counted, the loop goes on
                errors = [f"raised {e!r}"]
            else:
                errors = None
            phase.times.append(time.perf_counter() - t0)
            phase.traced.append(traced)
            t0 = time.perf_counter()
            wl.reference()
            phase.ref_times.append(time.perf_counter() - t0)
            if errors is None:
                errors = wl.check(inp, out)
        if errors:
            phase.failures.append(f"op {i}: " + "; ".join(errors))
    return phase


def e2e_metrics(phase: Phase) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced phase, plus report-only figures.

    The bounded latency metric is the median over ops of op time over the
    time of the reference run right after it: on a shared machine the op
    times move with the neighbours' load (see README.md), and the ratio
    cancels that out.
    """
    import numpy as np

    ms = np.asarray(phase.times) * 1e3
    ref_ms = np.asarray(phase.ref_times) * 1e3
    p50, p80, p90 = (float(np.percentile(ms, q)) for q in (50, 80, 90))
    metrics = {"op_rel.p50": (float(np.median(ms / ref_ms)), "ratio")}
    report = {
        "op_ms.p50": (p50, "ms"),
        "op_ms.p80": (p80, "ms"),
        "op_ms.p90": (p90, "ms"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "ref_ms.p50": (float(np.median(ref_ms)), "ms"),
        "ops": len(ms),
        "ops_beyond_p80": int(np.count_nonzero(ms > p80)),
        "ops_beyond_p90": int(np.count_nonzero(ms > p90)),
        "op_ms.samples": [round(float(v), 3) for v in ms],
    }
    return metrics, report


def layer_metrics(tr, svht, phase: Phase) -> dict:
    """Per-layer metrics from everything traced: the traced ops (with their
    inputs and checks) and the golden replay.

    Counts and self times cover all of it, so every layer is seen in every
    workload; ``op_share`` and ``kept_frac`` use only the spans inside
    timed ops.
    """
    st = tr.summary()
    op_s = st["op"]["op_s"]

    def stat(name, key):
        return st[name][key]

    def per_s(name):
        return tr.extras.get((name, "bytes"), 0.0) / 1e6 / stat(name, "total_s")

    m = {
        "linalg.svd.calls": (stat("linalg.svd", "calls"), "count"),
        "linalg.svd.self_s": (stat("linalg.svd", "self_s"), "s"),
        "linalg.svd.bytes_in": (tr.extras[("linalg.svd", "bytes_in")], "B"),
        "linalg.svd.gflop_computed": (tr.extras[("linalg.svd", "flops")] / 1e9, "GFLOP"),
        "linalg.svd.op_share": (stat("linalg.svd", "op_s") / op_s, "frac"),
        "tensor_ops.unfold.self_s": (stat("tensor_ops.unfold", "self_s"), "s"),
        "tensor_ops.multi_mode_product.calls": (stat("tensor_ops.multi_mode_product", "calls"), "count"),
        "tensor_ops.multi_mode_product.self_s": (stat("tensor_ops.multi_mode_product", "self_s"), "s"),
        "svht.threshold_for_unfolding.self_s": (stat("svht.threshold_for_unfolding", "self_s"), "s"),
        "svht.hard_threshold.self_s": (stat("svht.hard_threshold", "self_s"), "s"),
        "svht.mp_median.misses": (svht.mp_median.cache_info().misses, "count"),
        "decomp.tarst.self_s": (stat("decomp.tarst", "self_s"), "s"),
        "decomp.tarst.kept_frac": (tr.extras[("decomp.tarst", "kept")]
                                   / tr.extras[("decomp.tarst", "spectrum")], "frac"),
        "decomp.hosvd.self_s": (stat("decomp.hosvd", "self_s"), "s"),
        "decomp.hooi.self_s": (stat("decomp.hooi", "self_s"), "s"),
        "decomp.hooi.svd_per_call": (st["hooi_svd_calls"] / stat("decomp.hooi", "calls"), "count"),
        "decomp.hooi.op_share": (stat("decomp.hooi", "op_s") / op_s, "frac"),
        "decomp.reconstruct.self_s": (stat("decomp.reconstruct", "self_s"), "s"),
        "metrics.rrse.self_s": (stat("metrics.rrse", "self_s"), "s"),
        "bench.gen_lowrank_tensor.self_s": (stat("bench.gen_lowrank_tensor", "self_s"), "s"),
        "bench.add_gaussian_noise.self_s": (stat("bench.add_gaussian_noise", "self_s"), "s"),
        "bench.inject_outliers.self_s": (stat("bench.inject_outliers", "self_s"), "s"),
        "tensor_io.read_tensor.self_s": (stat("tensor_io.read_tensor", "self_s"), "s"),
        "tensor_io.write_tensor.self_s": (stat("tensor_io.write_tensor", "self_s"), "s"),
        "tensor_io.read_tensor.mb_per_s": (per_s("tensor_io.read_tensor"), "MB/s"),
        "tensor_io.write_tensor.mb_per_s": (per_s("tensor_io.write_tensor"), "MB/s"),
        "tensor_io.read_tensor.op_share": (stat("tensor_io.read_tensor", "op_s") / op_s, "frac"),
        "tensor_io.write_tensor.op_share": (stat("tensor_io.write_tensor", "op_s") / op_s, "frac"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
        "trace.ops_per_s.ratio": (phase.ops_per_s(True) / phase.ops_per_s(False), "ratio"),
    }
    return m


def named(figures: dict) -> dict:
    """{name: (value, unit)} -> {name: {"value", "unit"}}; other entries unchanged."""
    return {k: {"value": v[0], "unit": v[1]} if isinstance(v, tuple) else v
            for k, v in figures.items()}


def run(args, root: Path, work: Path) -> dict:
    t0 = time.perf_counter()
    tarst = import_program(root)
    import golden  # these import tarst, so only after import_program
    import tracer
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    wl_cls.warmup(work)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s}

    wl = wl_cls(args.seed, work)
    result = {"setup_s": setup_s, "machine": machine_facts()}
    if args.trace:
        tr = tracer.Tracer()
        phase = timed_phase(wl, args.seconds, tr)
        with tr.installed():
            observed, mismatches = golden.run_check(work)
        metrics = layer_metrics(tr, tarst.svht, phase)
        report = {"ops_per_s.untraced": (phase.ops_per_s(False), "1/s"),
                  "ops_per_s.traced": (phase.ops_per_s(True), "1/s"),
                  "ops": len(phase.times), "spans": len(tr.start)}
    else:
        phase = timed_phase(wl, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        observed, mismatches = golden.run_check(work)
        metrics, report = e2e_metrics(phase)
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        rrse = [v for o in observed[args.workload] if o is not None
                for v in wl_cls.tarst_rrse(o)]
        metrics["rrse_mean"] = (sum(rrse) / len(rrse) if rrse else math.nan, "ratio")

    failures = list(phase.failures)
    failures += [f"golden {name} case {k}: " + "; ".join(errs)
                 for name, per_case in mismatches.items()
                 for k, errs in enumerate(per_case) if errs]
    attempted = len(phase.times) + sum(len(c) for c in mismatches.values())
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  metrics=named(metrics), report=named(report))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload (child of run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
