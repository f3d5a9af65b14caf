"""Paired benchmark comparison of two checkouts.

Usage: python tools/ab.py PARENT_DIR CHANGE_DIR --workload W --pairs 10 --seconds S

Runs each checkout's own ``perfbench/run.py --trace 0`` from that checkout's
root, ``--pairs`` times on the seeds 7001, 7002, ...; both runs of a pair
get the same seed, and the side that goes first alternates from pair to
pair (the parent first in pair 1). Then it prints one markdown row per
end-to-end metric of ``BENCHMARK.json`` (at the root of the repository
holding this file): each side's median and quartiles, the change of the
medians, and in how many pairs each side was better by the metric's
``better`` direction, ties apart. A progress line per run goes to stderr.
It exits 1 at the first run that fails or whose result is not ``correct``,
naming it. It reads the runs' JSON only and imports nothing of the package.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 7001


def summarize(parent, change, better) -> dict:
    """Each side's (first quartile, median, third quartile), by
    ``statistics.quantiles``' inclusive method; the change of the medians
    (absolute, and relative to the parent's, None when that is 0); and the
    pairs in which each side was better, ``better`` being ``"lower"`` or
    ``"higher"``."""
    p, c = (tuple(statistics.quantiles(xs, n=4, method="inclusive")) for xs in (parent, change))
    sign = 1 if better == "lower" else -1
    gains = [sign * (a - b) for a, b in zip(parent, change)]  # > 0: the change is better
    return {"parent": p, "change": c, "delta": c[1] - p[1],
            "rel": (c[1] - p[1]) / p[1] if p[1] else None,
            "change_wins": sum(g > 0 for g in gains), "parent_wins": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains)}


def _cell(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def row(name, s) -> str:
    """One markdown table row of :func:`summarize`'s result ``s``."""
    rel = "" if s["rel"] is None else f" ({s['rel']:+.1%})"
    return (f"| {name} | {_cell(s['parent'])} | {_cell(s['change'])} | {s['delta']:+.4g}{rel} "
            f"| {s['parent_wins']} / {s['change_wins']} / {s['ties']} |")


def run(checkout, workload, seed, seconds) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``;
    raises RuntimeError unless the run exits 0 with a correct result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} ops failed")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                result = run(getattr(args, side), args.workload, seed, args.seconds)
            except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as e:
                print(f"ab.py: {side} run, seed {seed}: {e}", file=sys.stderr)
                return 1
            values[side].append(result["metrics"])
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: " + ", ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics),
                file=sys.stderr)
    print(f"{args.workload}, {args.pairs} pairs, {args.seconds:g} s runs: median [quartiles]; "
          "better in pairs as parent / change / ties")
    print("| metric | parent | change | Δ median | better |")
    print("|---|---|---|---|---|")
    for m in metrics:
        name = m["name"]
        print(row(name, summarize([r[name]["value"] for r in values["parent"]],
                                  [r[name]["value"] for r in values["change"]], m["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
