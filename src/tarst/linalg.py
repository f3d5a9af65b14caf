"""Thin-SVD contract shared by the thresholding and decomposition code.

:func:`svd` is the package's factorization entry point: HOSVD and TARST
call it, and HOOI's sweeps its unscanned kernel ``_svd``. It returns the
pair ``(u, s)``, the left singular vectors and the full spectrum of an
m x n matrix, all that the callers read (no ``vt``). Its second half,
``_gram_svd``, is the factor step of the Gram routes: it takes a Gram
matrix already formed, and reads the matrix itself only on the paths that
need its entries. HOSVD and TARST hand it the Gram matrices of the wide
middle-mode unfoldings, which ``tensor_ops._grams`` forms without copying
those unfoldings whole. All are pure functions: the module holds no state,
and the callers count their own factorizations (``TuckerModel.svd_calls``).
``svd`` checks finiteness on every call. On the Gram routes a non-finite
entry shows on the diagonal of the Gram matrix, so the input gets an
``isfinite`` pass only when that diagonal is not finite.

Three routes compute the same factor:

* **Gram route**, for inputs with one side at most half the other
  (``_GRAM_ASPECT``, which also picks decomp's streamed modes): wide
  (n >= 2m, every mode-k unfolding of a tensor with three or more
  comparable modes) through ``a a^T``, tall (m >= 2n, the long mode of an
  elongated tensor) through ``a^T a``. The q x q Gram matrix of the short
  side is formed from the data as it lies in memory (no scan, no copy),
  scaled by the exact power of four that puts its largest diagonal entry d
  in [1/4, 1), and diagonalized with a symmetric eigensolver;
  ``s = sqrt(lambda)`` is scaled back. A wide input's u is the eigenvector
  matrix; a tall one's is ``a V / s``, one matrix product divided in place.
  Outside 2**-900 < d < 2**900 (row or column norms beyond ~3e+-135, where
  the Gram matrix over- or underflows or loses bits to subnormal products,
  and the zero matrix) the data is scaled first, by the power of two that
  puts its largest entry in [1/2, 1). Either scaling is exact and, inside
  the range, both give the same bits unless some product of two entries is
  subnormal on one side only (entries 2**-61 times the largest norm or
  smaller), so inputs from 1e-300 to 1e300 are factorized and
  ``svd(2**k * a)[1] == 2**k * svd(a)[1]`` holds bit for bit. This is the
  ``nvecs`` approach of Kolda & Bader (SIAM Review 2009): one matrix product
  and a q x q eigenproblem in place of bidiagonalizing the whole matrix,
  about 20x less time on a 100 x 10000 input and 2.5x on a 2000 x 400 one.
* **Deflated Gram route**, for Gram spectra the conditioning gate below
  rejects, but only when lambda_min >= 1e-12 lambda_max and the k
  eigenvalues above lambda_min / 1e-6 sit at least 2x above the rest.
  lambda_min is taken less its roundoff, q eps lambda_max, so a value
  within roundoff of that split counts among the k. The
  data is projected on the remaining q - k eigenvectors, the Gram matrix
  of that block is formed from the projected data and diagonalized, and
  the result is accepted under the same gate. Low-noise unfoldings with a
  constant-mean component land here: the mean puts lambda_min / lambda_max
  near 1e-6 although the noise bulk is well conditioned.
* **LAPACK route** (``numpy.linalg.svd``) for everything else: near-square
  inputs, and inputs that both Gram gates reject: zero, constant, exactly
  or nearly rank-deficient matrices.

Forming a Gram matrix squares the condition number. The symmetric
eigensolver gets every eigenvalue to within about eps * lambda_max, so the
relative error of s_i grows like eps * lambda_max / lambda_i. The Gram
result is therefore accepted only when lambda_min >= ``_GRAM_RCOND`` *
lambda_max, where s agrees with LAPACK to ~1e-10 relative. The deflated
block's Gram matrix never holds the k leading components, so its
eigenvalues carry an absolute error of ~eps * lambda_(k+1) instead of
eps * lambda_max, and the block passes the same gate by construction: its
lambda_min / lambda_(k+1) >= 1e-6, since the split was lowered by the
first lambda_min's roundoff.
The k leading eigenvalues keep the first eigensolve's error, eps *
lambda_max <= 1e6 eps * lambda_k, as at the plain gate. On a tall
input the leading columns' roundoff leaks into ``a v_i / s_i`` for the
deflated i, amplified by s_max / s_i, so it is projected out of them.
Against 50-digit references on spikes over clusters at s_min / s_max
from 1e-6 to 3e-6, the deflated s came out within 1.5e-11 relative, while
one LAPACK call erred by up to 1.3e-10: its absolute error is ~eps * s_max.
The cheaper refinement, the Rayleigh quotients ``|a v_i|`` of the first
eigenvectors, is not used: inside a tight cluster those vectors are
mixtures, and the quotients miss the values by up to 2e-6 relative on a
spike over a cluster of relative width 2e-3, and their projectors by over
1e-10.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import _real

__all__ = ["svd"]

# Gram routes: a matrix whose short side is at most 1 / _GRAM_ASPECT of its
# long side; decomp picks the middle modes it streams by the same test.
_GRAM_ASPECT = 2
# Gram conditioning gate: smallest accepted lambda_min / lambda_max. At the
# gate the Gram singular values agree with LAPACK's to ~1e-10 relative
# (eps / (2 * 1e-6)); a denoised unfolding with a constant-mean component
# sits well above it, a rank-deficient one far below.
_GRAM_RCOND = 1e-6
# Deflation: smallest lambda_min / lambda_max worth a second Gram, and the
# least ratio between the leading eigenvalues kept and the block re-formed.
_DEFLATE_RCOND = 1e-12
_DEFLATE_GAP = 2.0


def svd(m):
    """Left factor of a thin SVD: ``(u, s)`` with u (m x q) orthonormal
    columns and s (length q, nonincreasing, >= 0), q = min(m, n).
    Non-convergence propagates as numpy.linalg.LinAlgError.

    Deterministic for a fixed input within one build, up to the usual sign
    freedom of singular vectors; downstream code only forms projectors
    U U^T, which are sign-invariant.
    """
    a = _real(m)
    if a.ndim != 2:
        raise ValueError(f"svd expects a matrix, got {a.ndim} dimensions")
    if not _gram_shaped(*a.shape) and not np.isfinite(a).all():
        raise ValueError("svd input has non-finite entries")
    return _svd(a)


def _gram_shaped(rows, cols):
    """Whether a rows x cols matrix takes the Gram routes."""
    return 0 < _GRAM_ASPECT * rows <= cols or 0 < _GRAM_ASPECT * cols <= rows


def _svd(a):
    """:func:`svd` of a float64 matrix with no scan: a Gram route still
    raises on a non-finite entry, seen on the Gram diagonal."""
    rows, cols = a.shape
    if _gram_shaped(rows, cols):
        tall = rows > cols
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            g = _gram(a, tall)  # scaled later instead of a: no scan, no copy of the data
        return _gram_svd(g, lambda: a, tall)
    return _lapack(a)


def _lapack(a):
    return np.linalg.svd(a, full_matrices=False)[:2]


def _gram(x, tall):
    return x.T @ x if tall else x @ x.T


def _eigh_desc(g):
    lam, v = np.linalg.eigh(g)
    return lam[::-1], v[:, ::-1]


def _gated(lam):
    return lam[-1] >= _GRAM_RCOND * lam[0] > 0


def _gram_svd(g, data, tall=False):
    """:func:`svd` of the matrix ``data()`` from g, the Gram matrix of its
    short side (``a a^T``, or ``a^T a`` when ``tall``): the Gram routes, or
    LAPACK when both gates reject g; raises on a non-finite entry.
    ``data()`` is called only where the entries are read: a Gram matrix
    outside the scaling range, deflation, a tall u and LAPACK."""
    # overflow and underflow are scaled away or left as inf, which tarst reports
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        d = g.diagonal().max()  # NaN or inf for a non-finite entry or on overflow
        if 2.0 ** -900 < d < 2.0 ** 900:
            e = np.frexp(np.sqrt(d))[1]
            g = np.ldexp(g, -2 * e)
            b, f = None, e  # g is the Gram matrix of data() * 2**-f
        else:  # the Gram matrix over- or underflowed, or the data is zero or not finite
            a = data()
            if not d < np.inf and not np.isfinite(a).all():
                raise ValueError("svd input has non-finite entries")
            e = np.frexp(max(a.max(), -a.min()))[1]
            b, f = np.ldexp(a, -e), 0
            g = _gram(b, tall)
        lam, v = _eigh_desc(g)
        k = 0
        if not _gated(lam):
            # lam[-1] carries the solve's roundoff, ~q eps lam[0]: a value that
            # close to the split leads too, so the deflated block passes the
            # gate; the last one never leads
            k = np.count_nonzero(lam[:-1] * _GRAM_RCOND > lam[-1] - lam.size * 2.0 ** -52 * lam[0])
            if not (lam[-1] >= _DEFLATE_RCOND * lam[0] > 0
                    and lam[k - 1] >= _DEFLATE_GAP * lam[k]):
                return _lapack(data())
        if b is None and (k or tall):
            b = data()
        if k:
            # the data on the other eigenvectors, scaled as g: its Gram matrix
            # no longer carries the k leading eigenvalues' roundoff
            rest = v[:, k:]
            c = np.ldexp(rest, -f)
            mu, w = _eigh_desc(_gram(b @ c if tall else c.T @ b, tall))
            if not _gated(mu):
                return _lapack(data())
            lam = np.concatenate((lam[:k], mu))
            v = np.concatenate((v[:, :k], rest @ w), axis=1)
        root = np.sqrt(lam)
        if tall:
            u = b @ v
            u /= np.ldexp(root, f)
            if k:  # project out the leading columns' roundoff, grown by s_max / s_i
                u[:, k:] -= u[:, :k] @ (u[:, :k].T @ u[:, k:])
        else:
            u = v
        return u, np.ldexp(root, e)
