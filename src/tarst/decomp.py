"""HOSVD, HOOI, and the rank-free thresholding denoiser.

All three produce a :class:`TuckerModel` (core tensor plus one orthonormal
factor per mode). HOSVD and HOOI need the target ranks up front; the
denoiser (:func:`tarst`) discovers them per mode by hard-thresholding the
singular values of each unfolding, which takes exactly N factorizations
for an N-way tensor and no iteration.

Reconstruction always uses the truncated factors: the estimate is the input
projected onto the retained left singular subspaces,
``x_hat = y x_1 (U1 U1^T) ... x_N (UN UN^T)``.

Each public function converts its input once, rejects a zero extent, and
then unfolds and multiplies with the unchecked kernels of ``tensor_ops``.
HOSVD (also HOOI's start) and TARST share one per-mode loop,
``_truncated_tucker``, which differs only in how it picks each mode's
rank; HOOI's sweeps factorize through the same step, ``_factor``. Each
model counts the factorizations that built it in ``svd_calls``: N for
HOSVD and TARST, N more per HOOI sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _GRAM_ASPECT, _gram_svd, svd
from .svht import KnownSigma, MedianBased, _cutoff
from .tensor_ops import (_as_float_array, _check_ranks, _check_shape, _grams, _mode_product,
                         _unfolding, frobenius_norm, multi_mode_product)

__all__ = ["TuckerModel", "TarstReport", "hosvd", "hooi", "tarst", "reconstruct"]

# HOOI's stopping rule, read by each call: stop once the fit moves by less
# than _FIT_TOL, or after _MAX_SWEEPS sweeps (Kolda & Bader's tucker_als
# stops at a fit change of 1e-4 within 50 iterations)
_FIT_TOL = 1e-8
_MAX_SWEEPS = 50


@dataclass
class TuckerModel:
    """Core of shape (r_1, ..., r_N) plus factors, factor k of shape I_k x r_k
    with orthonormal columns."""

    core: np.ndarray
    factors: list = field(default_factory=list)
    svd_calls: int = 0  # number of factorizations that built the model
    fits: tuple = ()  # HOOI's per-sweep fits; empty for HOSVD and TARST

    @property
    def ranks(self):
        return tuple(u.shape[1] for u in self.factors)

    @property
    def shape(self):
        return tuple(u.shape[0] for u in self.factors)


@dataclass
class TarstReport:
    """Outcome of one denoising run; ranks and counts are read off the model."""

    model: TuckerModel
    thresholds: tuple

    @property
    def estimated_ranks(self):
        return self.model.ranks

    @property
    def degenerate(self):
        """True when some mode kept nothing; the estimate is zero."""
        return 0 in self.model.ranks

    @property
    def discarded_counts(self):
        """Per mode, the singular values cut: min(I_k, P / I_k) - r_k, P = prod(I)."""
        p = int(np.prod(self.model.shape))
        return tuple(min(i, p // i) - r for i, r in zip(self.model.shape, self.model.ranks))


def reconstruct(model: TuckerModel) -> np.ndarray:
    """Expand a Tucker model back to a full tensor, in C order; a core and
    factors that do not fit raise :func:`multi_mode_product`'s errors."""
    return multi_mode_product(model.core, model.factors)


def _factor(m, error, message):
    """:func:`svd` of m, its one ValueError (a non-finite entry) raised as
    ``error(message)``; numpy's LinAlgError, a ValueError too, passes
    through unchanged."""
    try:
        return svd(m)
    except np.linalg.LinAlgError:
        raise
    except ValueError:
        raise error(message) from None


def _truncated_tucker(a, rank_of) -> TuckerModel:
    """Per mode, keep the leading ``rank_of(k, cols, s)`` left singular
    vectors of the mode-k unfolding, of I_k rows, ``cols`` columns and
    spectrum s; the core is ``a`` contracted with every factor's transpose.
    The wide middle modes' Gram matrices are formed first; a non-finite
    entry raises ValueError at mode 0, before any mode's factor is kept."""
    cols = [math.prod(a.shape[:k] + a.shape[k + 1:]) for k in range(a.ndim)]
    grams = _grams(a, [k for k in range(1, a.ndim - 1) if _GRAM_ASPECT * a.shape[k] <= cols[k]])
    factors = []
    for k in range(a.ndim):
        if k in grams:
            u, s = _gram_svd(grams.pop(k), lambda: _unfolding(a, k))
        else:
            u, s = _factor(_unfolding(a, k), ValueError, "input tensor has non-finite entries")
        factors.append(u[:, :rank_of(k, cols[k], s)])
    core = a
    with np.errstate(over="ignore"):  # hosvd reports an overflowing core
        for k, u in enumerate(factors):
            core = _mode_product(core, u.T, k)
    return TuckerModel(core=core, factors=factors, svd_calls=a.ndim)


def hosvd(y, ranks) -> TuckerModel:
    """Truncated higher-order SVD at the given per-mode ranks.

    Factor k holds the first ranks[k] left singular vectors of the mode-k
    unfolding; the core is y contracted with all factor transposes. The
    I_k x prod(I_j, j != k) unfolding has at most prod(I_j, j != k) singular
    vectors, so mode k's rank is capped there: ``hosvd(y, (5, 2, 2))`` on a
    10 x 2 x 2 tensor returns ranks (4, 2, 2). ``TuckerModel.ranks`` gives
    the ranks actually returned. A core that overflows float64 (entries
    near 1.8e308) raises FloatingPointError.
    """
    a = _as_float_array(y)
    ranks = _check_ranks(a.shape, ranks)
    model = _truncated_tucker(a, lambda k, cols, s: ranks[k])
    if not np.isfinite(model.core).all():
        raise FloatingPointError("HOSVD core overflows float64")
    return model


def hooi(y, ranks) -> TuckerModel:
    """Higher-order orthogonal iteration (ALS refinement of HOSVD).

    Each sweep re-solves every mode: project the input on all other factors,
    unfold along the mode, and take the leading left singular vectors. The
    fit ||core||_F / ||y||_F is nondecreasing across sweeps; iteration stops
    when it moves by less than ``_FIT_TOL`` (1e-8) or after ``_MAX_SWEEPS``
    (50) sweeps.

    A sweep carries the prefix ``y x_0 U_0^T ... x_{k-1} U_{k-1}^T`` of the
    factors it has already updated (the memoized tensor-times-matrix chain
    of Kolda & Bader, SIAM Review 2009, section 4.2): mode k's projection is
    the prefix times the transposes of factors k+1 ... N-1, and after the
    last mode the prefix is the core. That is N(N-1)/2 + N mode products per
    sweep instead of N^2, in the same order and on the same operands as
    projecting from scratch, so the result is the same bit for bit.

    The projection for mode k has prod(r_j, j != k) columns, so mode k's
    rank is capped by the other ranks as well as by the other extents:
    ``hooi(y, (4, 1, 1))`` returns ranks (1, 1, 1). ``TuckerModel.ranks``
    gives the ranks actually returned, and ``TuckerModel.fits`` the fit
    after each sweep. A projection or core that overflows float64 (entries
    near 1.8e308) raises FloatingPointError, and so does an input whose
    Frobenius norm overflows, at the end of the first sweep, since no fit
    could be formed against it.
    """
    a = _as_float_array(y)
    ranks = _check_ranks(a.shape, ranks)
    start = _truncated_tucker(a, lambda k, cols, s: ranks[k])  # HOSVD
    factors = list(start.factors)
    ynorm = frobenius_norm(a)
    prev_fit = frobenius_norm(start.core) / ynorm if ynorm > 0 else 0.0
    fits = []
    with np.errstate(over="ignore"):  # overflowed projections and cores raise below
        for _ in range(_MAX_SWEEPS):
            prefix = a
            for k in range(a.ndim):
                w = prefix
                for j in range(k + 1, a.ndim):
                    w = _mode_product(w, factors[j].T, j)
                factors[k] = _factor(_unfolding(w, k), FloatingPointError,
                                     "HOOI projection overflows float64")[0][:, :ranks[k]]
                prefix = _mode_product(prefix, factors[k].T, k)
            fit = frobenius_norm(prefix) / ynorm if ynorm > 0 else 0.0  # prefix is the core
            if not fit < np.inf and not np.isfinite(prefix).all():  # fit is nan or inf
                raise FloatingPointError("HOOI core overflows float64")
            if ynorm == np.inf:  # every fit would read 0 or nan
                raise FloatingPointError("HOOI input norm overflows float64")
            fits.append(fit)
            if abs(fit - prev_fit) < _FIT_TOL:
                break
            prev_fit = fit
    return TuckerModel(core=prefix, factors=factors,
                       svd_calls=start.svd_calls + a.ndim * len(fits), fits=tuple(fits))


def tarst(y, rule: KnownSigma | MedianBased) -> TarstReport:
    """Rank-free denoising by per-mode singular-value thresholding.

    For each mode: unfold, thin SVD, take the cutoff of
    :func:`threshold_for_unfolding` from the sorted spectrum, and keep the
    left singular vectors whose singular values reach it. The estimate is
    the input projected onto the kept subspaces. Exactly N SVDs, no
    iteration, no rank input.

    ``rule`` is :class:`KnownSigma` or :class:`MedianBased`; any other
    value raises ``TypeError("unknown threshold rule ...")`` from the cutoff
    kernel, once the first unfolding has been factorized. Under the
    median rule a mode whose unfolding has a single singular value (a mode
    of extent 1, or the one mode of a 1-way input) keeps rank 1 unless the
    input is all zero: one value carries no noise information to threshold
    against.

    If every singular value of some mode falls below its cutoff the estimate
    is the zero tensor and the report is flagged degenerate; so is the
    estimate of an all-zero input, whose median-rule cutoff is zero. A
    cutoff that overflows float64 (entries or sigma near 1.8e308) raises
    FloatingPointError naming the mode.
    """
    a = _as_float_array(y)
    _check_shape(a.shape)
    taus = []

    def rank_of(k, cols, s):
        tau = float(_cutoff(a.shape[k], cols, rule, s))
        if not np.isfinite(tau):  # entries or sigma near the float maximum
            raise FloatingPointError(f"threshold of the mode-{k} unfolding overflows float64")
        taus.append(tau)
        # tau == 0 only for an all-zero unfolding under the median rule
        return int(np.count_nonzero(s >= tau)) if tau > 0 else 0

    model = _truncated_tucker(a, rank_of)
    return TarstReport(model=model, thresholds=tuple(taus))
