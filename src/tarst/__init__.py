"""Rank-free tensor denoising by per-mode singular-value hard thresholding.

The denoiser unfolds a noisy tensor along each mode, hard-thresholds the
singular values at a statistically calibrated cutoff (known-sigma or
median-based), and reconstructs from the retained subspaces — one SVD per
mode, no rank input, no iteration. HOSVD and HOOI baselines, error
metrics, and a reproducible benchmark harness are included.
"""

from .bench import (METHODS, Pattern1Config, Pattern2Config, TrialRecord,
                    add_gaussian_noise, default_sigma_grid, derive_seed,
                    gen_lowrank_tensor, inject_outliers, read_csv,
                    run_pattern1, run_pattern2, write_csv, write_matrix_file)
from .decomp import TarstReport, TuckerModel, hooi, hosvd, reconstruct, tarst
from .linalg import SvdFactor, svd, svd_call_count
from .metrics import SummaryStat, rrse, summarize
from .svht import (KnownSigma, MedianBased, ThresholdRule, hard_threshold,
                   lambda_star, mp_median, omega, threshold_for_unfolding)
from .tensor_io import TensorFormatError, read_tensor, write_tensor
from .tensor_ops import (fold, frobenius_norm, mode_product, multi_mode_product,
                         unfold)

__version__ = "0.1.0"

__all__ = [
    "METHODS", "Pattern1Config", "Pattern2Config", "TrialRecord",
    "add_gaussian_noise", "default_sigma_grid", "derive_seed",
    "gen_lowrank_tensor", "inject_outliers", "read_csv", "run_pattern1",
    "run_pattern2", "write_csv", "write_matrix_file",
    "TarstReport", "TuckerModel", "hooi", "hosvd", "reconstruct", "tarst",
    "SvdFactor", "svd", "svd_call_count",
    "SummaryStat", "rrse", "summarize",
    "KnownSigma", "MedianBased", "ThresholdRule", "hard_threshold",
    "lambda_star", "mp_median", "omega", "threshold_for_unfolding",
    "TensorFormatError", "read_tensor", "write_tensor",
    "fold", "frobenius_norm", "mode_product", "multi_mode_product",
    "unfold",
    "__version__",
]
