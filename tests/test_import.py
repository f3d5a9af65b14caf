"""The package needs numpy only, at import and in every command.

The tests keep using scipy as an independent oracle, so this check runs in
a fresh interpreter in which importing scipy fails.
"""

import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = f"""
import os, sys, tempfile
sys.path.insert(0, {str(SRC)!r})


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
import numpy as np
import tarst, tarst.cli
y = np.random.default_rng(0).standard_normal((6, 5, 4)) + 3.0
tarst.reconstruct(tarst.tarst(y, tarst.MedianBased()).model)
print(tarst.cli.summarize([0.0, 2.0]))
with tempfile.TemporaryDirectory() as tmp:
    src, dst, csv = (os.path.join(tmp, f) for f in ("in.txt", "out.txt", "p1.csv"))
    tarst.write_tensor(y, src)
    print("denoise exit", tarst.cli.main(["denoise", src, dst]))
    print("bench-p1 exit", tarst.cli.main(["bench-p1", "--shape", "4,4,4", "--ranks", "2,2,2",
                                           "--reps", "2", "--methods", "TARST", "--out", csv]))
try:
    import scipy
except ModuleNotFoundError:
    print("scipy blocked")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_denoise_load_no_scipy():
    lines = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                           text=True, check=True).stdout.strip().splitlines()
    assert lines[0].startswith("SummaryStat(mean=1.0, ci95_low=-11.706")
    assert lines[1].startswith("mode 1: tau=") and "denoise exit 0" in lines
    table = [ln for ln in lines if ln.startswith("sigma=")]
    assert len(table) == 20 and all("TARST" in ln for ln in table)
    assert lines[-4].startswith("wrote 40 records to ")
    assert lines[-3:] == ["bench-p1 exit 0", "scipy blocked", "[]"]


# the public surface, module by module; private kernels stay unexported
PUBLIC = {
    "tarst.bench": [
        "METHODS", "Pattern1Config", "Pattern2Config", "TrialRecord",
        "default_sigma_grid", "derive_seed", "gen_lowrank_tensor",
        "add_gaussian_noise", "inject_outliers", "run_pattern2",
        "write_csv", "write_matrix_file",
    ],
    "tarst.cli": None,
    "tarst.decomp": ["TuckerModel", "TarstReport", "hosvd", "hooi", "tarst", "reconstruct"],
    "tarst.linalg": ["svd"],
    "tarst.metrics": ["rrse"],
    "tarst.svht": [
        "KnownSigma", "MedianBased", "lambda_star",
        "mp_median", "omega", "threshold_for_unfolding", "hard_threshold",
    ],
    "tarst.tensor_io": ["TensorFormatError", "read_tensor", "write_tensor"],
    "tarst.tensor_ops": ["unfold", "multi_mode_product", "frobenius_norm"],
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_api_is_pinned(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported == PUBLIC[name]
    for attr in exported or ():
        assert hasattr(module, attr)
        assert not attr.startswith("_")


MODULES = ["decomp", "linalg", "metrics", "svht", "tensor_io", "tensor_ops"]

NAMESPACE = f"""
import json, sys, types
sys.path.insert(0, {str(SRC)!r})
import tarst
loaded = [m for m in ("tarst.bench", "tarst.cli") if m in sys.modules]
stray = [a for a in dir(tarst) if not a.startswith("_") and a not in tarst.__all__
         and not (isinstance(getattr(tarst, a), types.ModuleType)
                  and getattr(tarst, a).__name__ == "tarst." + a)]
from tarst import bench
print(json.dumps({{"loaded": loaded, "names": len(tarst.__all__), "stray": stray,
                  "bench": sorted(set(bench.__all__) & set(tarst.__all__))}}))
"""


def test_import_tarst_leaves_the_harness_and_the_cli_unloaded():
    # a fresh interpreter, so no other test has imported either submodule
    out = json.loads(subprocess.run([sys.executable, "-c", NAMESPACE], capture_output=True,
                                    text=True, check=True).stdout)
    assert out == {"loaded": [], "names": 22, "stray": [], "bench": []}


def test_package_exports_exactly_the_module_lists():
    # tarst.__all__ is derived from the module lists, so a name added to or
    # dropped from a module's __all__ reaches the package without a second edit
    tarst = importlib.import_module("tarst")
    modules = [importlib.import_module(f"tarst.{name}") for name in MODULES]
    assert tarst.__all__ == [*(n for m in modules for n in m.__all__), "__version__"]
    for module in modules:
        for attr in module.__all__:
            assert getattr(tarst, attr) is getattr(module, attr)


# the settable surface: dataclass fields and function parameters
FIELDS = {
    "TuckerModel": ["core", "factors", "svd_calls", "fits"],
    "TarstReport": ["model", "thresholds"],
    "TrialRecord": ["method", "shape", "sigma", "outlier_ratio", "outlier_scale", "seed",
                    "rrse", "estimated_ranks", "wall_time_ms", "svd_calls"],
    "SummaryStat": ["mean", "ci95_low", "ci95_high", "n"],
}
# Pattern 2 changes only the outlier defaults, so a field added to one config fails here
FIELDS["Pattern1Config"] = FIELDS["Pattern2Config"] = [
    "shape", "true_ranks", "sigma_grid", "reps", "seed", "methods", "sigma_known",
    "outlier_ratios", "outlier_scales"]
PARAMETERS = {
    "default_sigma_grid": [],
    "hosvd": ["y", "ranks"],
    "hooi": ["y", "ranks"],
    "tarst": ["y", "rule"],
}
# the defining module of each pinned name that the package does not export
HOME = {"Pattern1Config": "tarst.bench", "Pattern2Config": "tarst.bench",
        "TrialRecord": "tarst.bench", "default_sigma_grid": "tarst.bench",
        "SummaryStat": "tarst.cli"}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields_are_pinned(name):
    cls = getattr(importlib.import_module(HOME.get(name, "tarst")), name)
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[name]


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_decomposition_parameters_are_pinned(name):
    func = getattr(importlib.import_module(HOME.get(name, "tarst")), name)
    assert list(inspect.signature(func).parameters) == PARAMETERS[name]
