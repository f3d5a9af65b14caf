"""Tests of the benchmark itself (not of the package).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import golden  # noqa: E402
import tracer  # noqa: E402
from tarst import bench, cli, decomp, linalg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "tarst" or name.startswith("tarst.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracing_keeps_outputs_bit_identical_and_golden_passes(tmp_path):
    plain = golden.observe_all(tmp_path)
    before = _bindings()
    tr = tracer.Tracer()
    with tr.installed():
        # every binding site is patched, not just the defining module
        assert decomp.svd is not linalg.svd.__wrapped__
        assert decomp.svd is linalg.svd
        assert bench.tarst is decomp.tarst and hasattr(bench.tarst, "__wrapped__")
        assert hasattr(cli.read_tensor, "__wrapped__")
        assert hasattr(cli.write_tensor, "__wrapped__")
        traced = golden.observe_all(tmp_path)
    assert traced == plain
    assert _errors(golden.load(), traced) == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())  # originals are back
    assert len(tr.start) > 0 and tr.summary()["linalg.svd"]["calls"] > 0


def _errors(expected, observed):
    return [m for name, wl in WORKLOADS.items()
            for e, o in zip(expected[name], observed[name]) for m in wl.compare(e, o)]


def test_golden_check_flags_a_perturbed_rank():
    expected = golden.load()
    assert _errors(expected, copy.deepcopy(expected)) == []

    result = copy.deepcopy(expected)
    result["denoise_large"][0]["ranks"][1] += 1
    assert any("ranks" in m for m in _errors(expected, result))

    result = copy.deepcopy(expected)
    tarst_rec = next(r for r in result["sweep_small"][0]["records"] if r[0] == "TARST")
    tarst_rec[4][0] -= 1
    assert _errors(expected, result)

    result = copy.deepcopy(expected)
    result["cli_roundtrip"][0]["modes"][2][1] += 1
    assert any("mode lines" in m for m in _errors(expected, result))


def test_golden_rrse_tolerance_is_1e10_relative():
    expected = golden.load()
    result = copy.deepcopy(expected)
    result["denoise_large"][0]["rrse"] *= 1 + 1e-12
    assert _errors(expected, result) == []
    result["denoise_large"][0]["rrse"] *= 1 + 1e-9
    assert any("rrse" in m for m in _errors(expected, result))


def test_self_time_excludes_direct_children():
    tr = tracer.Tracer()
    with tr.span("decomp.tarst"):
        with tr.span("linalg.svd"):
            pass
        with tr.span("linalg.svd"):
            pass
    st = tr.summary()
    outer = tr.end[0] - tr.start[0]
    inner = sum(tr.end[i] - tr.start[i] for i in (1, 2))
    assert list(tr.parent) == [-1, 0, 0]
    assert st["decomp.tarst"]["self_s"] == pytest.approx(outer - inner)
    assert st["linalg.svd"]["calls"] == 2 and st["decomp.tarst"]["op_s"] == 0.0


def _run(cwd, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise_large", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, kind):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    report_line, last_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(last_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    extra = json.loads(report_line)["report"]["extra"]
    assert extra["fail_frac"] == {"value": 0.0, "unit": "frac"}
    if trace == 0:
        for name, unit in [("op_ms.p50", "ms"), ("op_ms.p80", "ms"), ("op_ms.p90", "ms"),
                           ("ops_per_s", "1/s")]:
            assert extra[name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
