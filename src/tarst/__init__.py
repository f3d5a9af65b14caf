"""Rank-free tensor denoising by per-mode singular-value hard thresholding.

The denoiser unfolds a noisy tensor along each mode, hard-thresholds the
singular values at a statistically calibrated cutoff (known-sigma or
median-based), and reconstructs from the retained subspaces — one SVD per
mode, no rank input, no iteration. HOSVD and HOOI baselines and the
``rrse`` error metric are included. The package exports exactly the names
in its modules' ``__all__`` lists; it neither loads nor re-exports the
benchmark harness (``tarst.bench``) or the command line (``tarst.cli``).
"""

from . import decomp, linalg, metrics, svht, tensor_io, tensor_ops
from .decomp import *
from .linalg import *
from .metrics import *
from .svht import *
from .tensor_io import *
from .tensor_ops import *

__version__ = "0.1.0"

__all__ = [*decomp.__all__, *linalg.__all__, *metrics.__all__, *svht.__all__,
           *tensor_io.__all__, *tensor_ops.__all__, "__version__"]
