"""Thin-SVD contract shared by the thresholding and decomposition code.

One function, :func:`svd`, is the package's only factorization entry point:
HOSVD, TARST and HOOI's sweeps all call it. It returns the pair ``(u, s)``,
the left singular vectors and the full spectrum of an m x n matrix, all
that the callers read (no ``vt``). It is a pure function: the module holds
no state, and the callers count their own factorizations
(``TuckerModel.svd_calls``). It checks finiteness on every call, because a
projection of a finite input can overflow. On the Gram path a non-finite
entry shows on the diagonal of ``a a^T``, so a wide input gets an
``isfinite`` pass only when that diagonal is not finite.

Two paths compute the same factor:

* **Gram path**, for wide inputs (n >= 2m), which is every mode-k unfolding
  of a tensor with three or more comparable modes. The m x m Gram matrix
  ``a a^T`` is formed from the data as it lies in memory (no scan, no
  copy), scaled by the exact power of four that puts its largest diagonal
  entry d in [1/4, 1), and diagonalized with a symmetric eigensolver;
  ``s = sqrt(lambda)`` is scaled back. Outside 2**-900 < d < 2**900 (row
  norms beyond ~3e+-135, where ``a a^T`` over- or underflows or loses bits
  to subnormal products, and the zero matrix) the data is scaled first, by
  the power of two that puts its largest entry in [1/2, 1). Either scaling
  is exact and, inside the range, both give the same bits unless some
  product of two entries is subnormal on one side only (entries 2**-61
  times the largest row norm or smaller), so inputs from 1e-300 to 1e300
  are factorized and ``svd(2**k * a)[1] == 2**k * svd(a)[1]`` holds bit for
  bit. This is the ``nvecs`` approach of Kolda & Bader (SIAM Review 2009):
  one matrix product and an m x m eigenproblem in place of bidiagonalizing
  the whole m x n matrix, about 20x less time on a 100 x 10000 input.
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

import numpy as np

__all__ = ["svd"]

# Gram conditioning gate: smallest accepted lambda_min / lambda_max. At the
# gate the Gram singular values agree with LAPACK's to ~1e-10 relative
# (eps / (2 * 1e-6)); a denoised unfolding with a constant-mean component
# sits well above it, a rank-deficient one far below.
_GRAM_RCOND = 1e-6


def svd(m):
    """Left factor of a thin SVD: ``(u, s)`` with u (m x q) orthonormal
    columns and s (length q, nonincreasing, >= 0), q = min(m, n).
    Non-convergence propagates as numpy.linalg.LinAlgError.

    Deterministic for a fixed input within one build, up to the usual sign
    freedom of singular vectors; downstream code only forms projectors
    U U^T, which are sign-invariant.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"svd expects a matrix, got {a.ndim} dimensions")
    if 0 < 2 * a.shape[0] <= a.shape[1]:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            g = a @ a.T  # scaled below instead of a: no scan, no copy of the data
        d = g.diagonal().max()  # NaN or inf for a non-finite entry or on overflow
        if 2.0 ** -900 < d < 2.0 ** 900:
            e = np.frexp(np.sqrt(d))[1]
            g = np.ldexp(g, -2 * e)
        else:  # a a^T over- or underflowed, or a is zero or not finite
            if not d < np.inf and not np.isfinite(a).all():
                raise ValueError("svd input has non-finite entries")
            e = np.frexp(max(a.max(), -a.min()))[1]
            b = np.ldexp(a, -e)
            g = b @ b.T
        lam, v = np.linalg.eigh(g)
        lam, v = lam[::-1], v[:, ::-1]
        if lam[-1] >= _GRAM_RCOND * lam[0] > 0:  # else g is zero or fails the gate
            with np.errstate(over="ignore"):  # overflow leaves inf, which tarst reports
                return v, np.ldexp(np.sqrt(lam), e)
    elif not np.isfinite(a).all():
        raise ValueError("svd input has non-finite entries")
    return np.linalg.svd(a, full_matrices=False)[:2]
