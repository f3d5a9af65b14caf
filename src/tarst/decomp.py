"""HOSVD, HOOI, and the rank-free thresholding denoiser.

All three produce a :class:`TuckerModel` (core tensor plus one orthonormal
factor per mode). HOSVD and HOOI need the target ranks up front; the
denoiser (:func:`tarst`) discovers them per mode by hard-thresholding the
singular values of each unfolding, which takes exactly N factorizations
for an N-way tensor and no iteration.

Reconstruction always uses the truncated factors: the estimate is the input
projected onto the retained left singular subspaces,
``x_hat = y x_1 (U1 U1^T) ... x_N (UN UN^T)``.

Each public function validates its input once and then unfolds and
multiplies with the unchecked kernels of ``tensor_ops``. HOSVD (also HOOI's
start) and TARST share one per-mode loop, ``_truncated_tucker``: unfold,
factorize with :func:`~tarst.linalg.svd`, truncate at the rank a callback
picks. HOOI's sweeps factorize their projections with the same ``svd``,
which checks each one for overflow. Each model counts the factorizations
that built it in ``svd_calls``: N for HOSVD and TARST, N more per HOOI
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import svd
from .svht import (KnownSigma, MedianBased, ThresholdRule, hard_threshold,
                   threshold_for_unfolding)
from .tensor_ops import _mode_product, _unfolding, frobenius_norm, multi_mode_product

__all__ = ["TuckerModel", "TarstReport", "hosvd", "hooi", "tarst", "reconstruct"]


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


def _validated(y) -> np.ndarray:
    a = np.asarray(y, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("input must have at least one mode")
    if not np.isfinite(a).all():
        raise ValueError("input tensor has non-finite entries")
    return a


def _check_ranks(shape, ranks):
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise ValueError(f"expected {len(shape)} ranks, got {len(ranks)}")
    for k, (r, i) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= i:
            raise ValueError(f"rank {r} out of range [1, {i}] for mode {k}")
    return ranks


def reconstruct(model: TuckerModel) -> np.ndarray:
    """Expand a Tucker model back to a full tensor, in C order."""
    core = np.asarray(model.core, dtype=np.float64)
    if core.ndim != len(model.factors):
        raise ValueError(f"core has {core.ndim} modes but {len(model.factors)} factors")
    for k, u in enumerate(model.factors):
        if u.shape[1] != core.shape[k]:
            raise ValueError(
                f"factor {k} has {u.shape[1]} columns, core extent is {core.shape[k]}")
    return multi_mode_product(core, model.factors)


def _truncated_tucker(a, rank_of) -> TuckerModel:
    """Per mode: unfold, factorize, keep the leading ``rank_of(k, m, s)``
    left singular vectors of the mode-k unfolding m with spectrum s; the
    core is ``a`` contracted with every factor's transpose."""
    factors = []
    for k in range(a.ndim):
        m = _unfolding(a, k)
        f = svd(m)
        factors.append(f.u[:, :rank_of(k, m, f.s)])
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
    a = _validated(y)
    ranks = _check_ranks(a.shape, ranks)
    model = _truncated_tucker(a, lambda k, m, s: ranks[k])
    if not np.isfinite(model.core).all():
        raise FloatingPointError("HOSVD core overflows float64")
    return model


def hooi(y, ranks, tol: float = 1e-8, max_iter: int = 50) -> TuckerModel:
    """Higher-order orthogonal iteration (ALS refinement of HOSVD).

    Each sweep re-solves every mode: project the input on all other factors,
    unfold along the mode, and take the leading left singular vectors. The
    fit ||core||_F / ||y||_F is nondecreasing across sweeps; iteration stops
    when it moves by less than ``tol`` or after ``max_iter`` sweeps.

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
    a = _validated(y)
    ranks = _check_ranks(a.shape, ranks)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if int(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    start = _truncated_tucker(a, lambda k, m, s: ranks[k])  # HOSVD
    factors = list(start.factors)
    ynorm = frobenius_norm(a)
    prev_fit = frobenius_norm(start.core) / ynorm if ynorm > 0 else 0.0
    fits = []
    with np.errstate(over="ignore"):  # overflowed projections and cores raise below
        for _ in range(int(max_iter)):
            prefix = a
            for k in range(a.ndim):
                w = prefix
                for j in range(k + 1, a.ndim):
                    w = _mode_product(w, factors[j].T, j)
                try:
                    factors[k] = svd(_unfolding(w, k)).u[:, :ranks[k]]
                except ValueError:  # svd's one error here: a non-finite projection
                    raise FloatingPointError("HOOI projection overflows float64") from None
                prefix = _mode_product(prefix, factors[k].T, k)
            fit = frobenius_norm(prefix) / ynorm if ynorm > 0 else 0.0  # prefix is the core
            if not fit < np.inf and not np.isfinite(prefix).all():  # fit is nan or inf
                raise FloatingPointError("HOOI core overflows float64")
            if ynorm == np.inf:  # every fit would read 0 or nan
                raise FloatingPointError("HOOI input norm overflows float64")
            fits.append(fit)
            if abs(fit - prev_fit) < tol:
                break
            prev_fit = fit
    return TuckerModel(core=prefix, factors=factors,
                       svd_calls=start.svd_calls + a.ndim * len(fits), fits=tuple(fits))


def tarst(y, rule: ThresholdRule) -> TarstReport:
    """Rank-free denoising by per-mode singular-value thresholding.

    For each mode: unfold, thin SVD, pick the cutoff via
    :func:`threshold_for_unfolding`, and keep the left singular vectors whose
    singular values survive. The estimate is the input projected onto the
    kept subspaces. Exactly N SVDs, no iteration, no rank input.

    ``rule`` is :class:`KnownSigma` or :class:`MedianBased`. Under the
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
    a = _validated(y)
    if not isinstance(rule, (KnownSigma, MedianBased)):
        raise TypeError(f"rule must be KnownSigma or MedianBased, got {rule!r}")

    taus = []

    def rank_of(k, m, s):
        tau = threshold_for_unfolding(m.shape[0], m.shape[1], rule, s)
        if not np.isfinite(tau):  # entries or sigma near the float maximum
            raise FloatingPointError(f"threshold of the mode-{k} unfolding overflows float64")
        taus.append(float(tau))
        # tau == 0 only for an all-zero unfolding under the median rule
        return hard_threshold(s, tau)[1] if tau > 0 else 0

    model = _truncated_tucker(a, rank_of)
    return TarstReport(model=model, thresholds=tuple(taus))
