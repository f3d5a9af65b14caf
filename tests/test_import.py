"""The package imports and denoises with numpy only.

scipy is loaded lazily by ``metrics.summarize`` alone; the tests keep using
it as an independent oracle, so this check runs in a fresh interpreter.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import numpy as np
import tarst, tarst.cli
y = np.random.default_rng(0).standard_normal((6, 5, 4)) + 3.0
tarst.reconstruct(tarst.tarst(y, tarst.MedianBased()).model)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_denoise_load_no_scipy():
    out = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# the public surface, module by module; private kernels stay unexported
PUBLIC = {
    "tarst": [
        "METHODS", "Pattern1Config", "Pattern2Config", "TrialRecord",
        "add_gaussian_noise", "default_sigma_grid", "derive_seed",
        "gen_lowrank_tensor", "inject_outliers", "read_csv", "run_pattern1",
        "run_pattern2", "write_csv", "write_matrix_file",
        "TarstReport", "TuckerModel", "hooi", "hosvd", "reconstruct", "tarst",
        "SvdFactor", "svd",
        "SummaryStat", "rrse", "summarize",
        "KnownSigma", "MedianBased", "ThresholdRule", "hard_threshold",
        "lambda_star", "mp_median", "omega", "threshold_for_unfolding",
        "TensorFormatError", "read_tensor", "write_tensor",
        "fold", "frobenius_norm", "mode_product", "multi_mode_product", "unfold",
        "__version__",
    ],
    "tarst.bench": [
        "METHODS", "Pattern1Config", "Pattern2Config", "TrialRecord",
        "default_sigma_grid", "derive_seed", "gen_lowrank_tensor",
        "add_gaussian_noise", "inject_outliers", "run_pattern1", "run_pattern2",
        "write_csv", "read_csv", "write_matrix_file", "CSV_COLUMNS",
    ],
    "tarst.cli": None,
    "tarst.decomp": ["TuckerModel", "TarstReport", "hosvd", "hooi", "tarst", "reconstruct"],
    "tarst.linalg": ["SvdFactor", "svd"],
    "tarst.metrics": ["SummaryStat", "rrse", "summarize"],
    "tarst.svht": [
        "KnownSigma", "MedianBased", "ThresholdRule", "lambda_star", "mp_cdf",
        "mp_median", "omega", "threshold_for_unfolding", "hard_threshold",
    ],
    "tarst.tensor_io": ["TensorFormatError", "read_tensor", "write_tensor"],
    "tarst.tensor_ops": ["unfold", "fold", "mode_product", "multi_mode_product",
                         "frobenius_norm"],
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_api_is_pinned(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported == PUBLIC[name]
    for attr in exported or ():
        assert hasattr(module, attr)
        assert attr == "__version__" or not attr.startswith("_")
