"""Thin-SVD contract shared by the thresholding and decomposition code.

One function, :func:`svd`, is the package's only factorization entry point:
HOSVD, TARST and HOOI's sweeps all call it. It returns the left singular
vectors and the full spectrum of an m x n matrix, all that the callers read
(:class:`SvdFactor` has no ``vt``). It is a pure function: the module holds
no state, and the callers count their own factorizations
(``TuckerModel.svd_calls``). It checks finiteness on every call, because a
projection of a finite input can overflow. On the Gram path the peak scan
is the finiteness check: ``max`` and ``min`` propagate NaN and +-inf, so a
wide input gets no separate ``isfinite`` pass.

Two paths compute the same factor:

* **Gram path**, for wide inputs (n >= 2m), which is every mode-k unfolding
  of a tensor with three or more comparable modes. The input is scaled by an
  exact power of two so its largest entry lies in [1/2, 1), the m x m Gram
  matrix ``a a^T`` is formed and diagonalized with a symmetric eigensolver,
  and ``s = sqrt(lambda)`` is scaled back. Scaling by a power of two is
  exact, so entries near 1e300 cannot overflow the Gram matrix, entries
  near 1e-300 cannot underflow it, and ``svd(2**k * a).s == 2**k *
  svd(a).s`` holds bit for bit. This is the ``nvecs`` approach of Kolda &
  Bader (SIAM Review 2009): one matrix product and an m x m eigenproblem
  in place of bidiagonalizing the whole m x n matrix, about 20x less time
  on a 100 x 10000 input.
* **LAPACK path** (``numpy.linalg.svd``) for everything else: tall or
  near-square inputs, zero inputs, and wide inputs the Gram path rejects.

Forming ``a a^T`` squares the condition number. The symmetric eigensolver
gets every eigenvalue to within about eps * lambda_max, so the relative
error of s_i grows like eps * lambda_max / lambda_i. The Gram result is
therefore accepted only when lambda_min >= ``_GRAM_RCOND`` * lambda_max;
exactly or nearly rank-deficient inputs (noiseless low-rank tensors,
constants) fall back to LAPACK, whose small singular values stay accurate
to eps * s_max in absolute terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdFactor", "svd"]

# Gram conditioning gate: smallest accepted lambda_min / lambda_max. At the
# gate the Gram singular values agree with LAPACK's to ~1e-10 relative
# (eps / (2 * 1e-6)); a denoised unfolding with a constant-mean component
# sits well above it, a rank-deficient one far below.
_GRAM_RCOND = 1e-6


@dataclass(frozen=True)
class SvdFactor:
    """Left factor of a thin SVD of an m x n matrix: u (m x q) with
    orthonormal columns and s (length q, nonincreasing, >= 0), with
    q = min(m, n)."""

    u: np.ndarray
    s: np.ndarray


def _gram_svd(a: np.ndarray, peak):
    """SvdFactor of a wide matrix of peak magnitude ``peak`` via the scaled
    Gram matrix, or None when it is zero or fails the conditioning gate."""
    if peak == 0:
        return None
    _, e = np.frexp(peak)
    b = np.ldexp(a, -e)
    lam, v = np.linalg.eigh(b @ b.T)
    lam, v = lam[::-1], v[:, ::-1]
    if not lam[-1] >= _GRAM_RCOND * lam[0]:
        return None
    with np.errstate(over="ignore"):  # overflow leaves inf, which tarst reports
        return SvdFactor(u=v, s=np.ldexp(np.sqrt(lam), e))


def svd(m) -> SvdFactor:
    """Left singular vectors and spectrum. Non-convergence propagates as
    numpy.linalg.LinAlgError.

    Deterministic for a fixed input within one build, up to the usual sign
    freedom of singular vectors; downstream code only forms projectors
    U U^T, which are sign-invariant.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"svd expects a matrix, got {a.ndim} dimensions")
    if 0 < 2 * a.shape[0] <= a.shape[1]:
        peak = max(a.max(), -a.min())  # NaN and inf propagate
        if not peak < np.inf:
            raise ValueError("svd input has non-finite entries")
        f = _gram_svd(a, peak)
        if f is not None:
            return f
    elif not np.isfinite(a).all():
        raise ValueError("svd input has non-finite entries")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return SvdFactor(u=u, s=s)
