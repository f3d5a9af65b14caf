"""Golden output check: fixed cases of every workload against stored values.

``golden.json`` holds what the program returned on each case when the
benchmark was defined. Every benchmark run replays all cases of all three
workloads (so a traced run covers every layer) and compares:

* denoise_large: ranks exactly; thresholds and rrse within 1e-10 relative.
* sweep_small: methods, grid cells, seeds and TARST/HOSVD/HOOI ranks
  exactly; rrse within 1e-10 relative for TARST, HOSVD and Baseline and
  1e-6 relative for the iterative HOOI.
* cli_roundtrip: exit code and ranks exactly; the printed taus within
  their 6 significant digits; output rrse and norm within 1e-10 relative;
  every 4099th output entry within 1e-10 of the largest sampled entry.

Regenerate only when the program's results are meant to change:
``PYTHONPATH=src python3 perfbench/golden.py --write``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def observe_all(work):
    """{workload: [observed result per golden case]} for the current program."""
    return {name: [wl.observe(case, work) for case in wl.GOLDEN_CASES]
            for name, wl in WORKLOADS.items()}


def _cases():
    return {name: [dict(c) for c in wl.GOLDEN_CASES] for name, wl in WORKLOADS.items()}


def load():
    """Stored results, after checking they belong to the cases defined now."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["cases"] != _cases():
        raise ValueError(f"{GOLDEN_PATH.name} was written for other cases; regenerate it")
    return stored["workloads"]


def run_check(work):
    """Replay every golden case; returns (observed, mismatches), both
    {workload: [per case]}. A case that raises is a mismatch (observed None)."""
    expected = load()
    observed, mismatches = {}, {}
    for name, wl in WORKLOADS.items():
        for case, exp in zip(wl.GOLDEN_CASES, expected[name]):
            try:
                obs = wl.observe(case, work)
            except Exception as e:  # counted as a failure; the run goes on
                obs, errors = None, [f"raised {e!r}"]
            else:
                errors = wl.compare(exp, obs)
            observed.setdefault(name, []).append(obs)
            mismatches.setdefault(name, []).append(errors)
    return observed, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite golden.json with the current program's results")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        if args.write:
            observed = observe_all(Path(tmp))
            with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
                json.dump({"cases": _cases(), "workloads": observed}, fh, indent=1)
                fh.write("\n")
            return 0
        _, mismatches = run_check(Path(tmp))
    bad = {n: per_case for n, per_case in mismatches.items() if any(per_case)}
    print(json.dumps(bad or "golden check passed", indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
