"""HOSVD, HOOI, and the rank-free thresholding denoiser.

All three produce a :class:`TuckerModel` (core tensor plus one orthonormal
factor per mode). HOSVD and HOOI need the target ranks up front; the
denoiser (:func:`tarst`) discovers them per mode by hard-thresholding the
singular values of each unfolding, which takes exactly N factorizations
for an N-way tensor and no iteration.

Reconstruction always uses the truncated factors: the estimate is the input
projected onto the retained left singular subspaces,
``x_hat = y x_1 (U1 U1^T) ... x_N (UN UN^T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import svd
from .svht import (KnownSigma, MedianBased, ThresholdRule, hard_threshold,
                   soft_threshold, threshold_for_unfolding)
from .tensor_ops import frobenius_norm, multi_mode_product, unfold

__all__ = ["TuckerModel", "TarstReport", "hosvd", "hooi", "tarst", "reconstruct"]


@dataclass
class TuckerModel:
    """Core of shape (r_1, ..., r_N) plus factors, factor k of shape I_k x r_k
    with orthonormal columns."""

    core: np.ndarray
    factors: list = field(default_factory=list)

    @property
    def ranks(self):
        return tuple(u.shape[1] for u in self.factors)

    @property
    def shape(self):
        return tuple(u.shape[0] for u in self.factors)


@dataclass
class TarstReport:
    """Outcome of one denoising run: the fitted model plus what the
    thresholds did per mode."""

    model: TuckerModel
    estimated_ranks: tuple
    thresholds: tuple
    retained_counts: tuple
    discarded_counts: tuple
    degenerate: bool  # True when some mode kept nothing; the estimate is zero


def _validated(y) -> np.ndarray:
    a = np.asarray(y, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("input must have at least one mode")
    if not np.all(np.isfinite(a)):
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
    """Expand a Tucker model back to a full tensor."""
    core = np.asarray(model.core, dtype=np.float64)
    if core.ndim != len(model.factors):
        raise ValueError(f"core has {core.ndim} modes but {len(model.factors)} factors")
    for k, u in enumerate(model.factors):
        if u.shape[1] != core.shape[k]:
            raise ValueError(
                f"factor {k} has {u.shape[1]} columns, core extent is {core.shape[k]}")
    return multi_mode_product(core, model.factors)


def _core(y, factors) -> np.ndarray:
    return multi_mode_product(y, factors, transpose=True)


def hosvd(y, ranks) -> TuckerModel:
    """Truncated higher-order SVD at the given per-mode ranks.

    Factor k holds the first ranks[k] left singular vectors of the mode-k
    unfolding; the core is y contracted with all factor transposes.
    """
    a = _validated(y)
    ranks = _check_ranks(a.shape, ranks)
    factors = [svd(unfold(a, k)).u[:, :r] for k, r in enumerate(ranks)]
    return TuckerModel(core=_core(a, factors), factors=factors)


def hooi(y, ranks, tol: float = 1e-8, max_iter: int = 50, return_fits: bool = False):
    """Higher-order orthogonal iteration (ALS refinement of HOSVD).

    Each sweep re-solves every mode: project the input on all other factors,
    unfold along the mode, and take the leading left singular vectors. The
    fit ||core||_F / ||y||_F is nondecreasing across sweeps; iteration stops
    when it moves by less than ``tol`` or after ``max_iter`` sweeps.

    With ``return_fits=True`` also returns the per-sweep fit values.
    """
    a = _validated(y)
    ranks = _check_ranks(a.shape, ranks)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if int(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    factors = list(hosvd(a, ranks).factors)
    ynorm = frobenius_norm(a)
    core = _core(a, factors)
    prev_fit = frobenius_norm(core) / ynorm if ynorm > 0 else 0.0
    fits = []
    for _ in range(int(max_iter)):
        for k in range(a.ndim):
            w = multi_mode_product(a, factors, transpose=True, skip=k)
            factors[k] = svd(unfold(w, k)).u[:, :ranks[k]]
        core = _core(a, factors)
        fit = frobenius_norm(core) / ynorm if ynorm > 0 else 0.0
        fits.append(fit)
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit
    model = TuckerModel(core=core, factors=factors)
    return (model, fits) if return_fits else model


def tarst(y, rule: ThresholdRule, shrink: str = "hard") -> TarstReport:
    """Rank-free denoising by per-mode singular-value thresholding.

    For each mode: unfold, thin SVD, pick the cutoff via
    :func:`threshold_for_unfolding`, and keep the left singular vectors whose
    singular values survive. The estimate is the input projected onto the
    kept subspaces. Exactly N SVDs, no iteration, no rank input.

    ``rule`` is :class:`KnownSigma` or :class:`MedianBased`. ``shrink``
    selects the retention count convention: "hard" (default) keeps values at
    or above the cutoff; "soft" additionally shrinks the recorded spectrum by
    tau and so drops boundary values.

    If every singular value of some mode falls below its cutoff the estimate
    is the zero tensor and the report is flagged degenerate; so is the
    estimate of an all-zero input, whose median-rule cutoff is zero.
    """
    a = _validated(y)
    if not isinstance(rule, (KnownSigma, MedianBased)):
        raise TypeError(f"rule must be KnownSigma or MedianBased, got {rule!r}")
    if shrink not in ("hard", "soft"):
        raise ValueError(f"shrink must be 'hard' or 'soft', got {shrink!r}")
    threshold = hard_threshold if shrink == "hard" else soft_threshold

    factors, taus, kept_counts, dropped_counts = [], [], [], []
    for k in range(a.ndim):
        mat = unfold(a, k)
        f = svd(mat)
        tau = threshold_for_unfolding(mat.shape[0], mat.shape[1], rule, f.s)
        # tau == 0 only for an all-zero unfolding under the median rule
        rank = threshold(f.s, tau)[1] if tau > 0 else 0
        factors.append(f.u[:, :rank])
        taus.append(float(tau))
        kept_counts.append(rank)
        dropped_counts.append(int(f.s.size - rank))

    model = TuckerModel(core=_core(a, factors), factors=factors)
    return TarstReport(
        model=model,
        estimated_ranks=tuple(kept_counts),
        thresholds=tuple(taus),
        retained_counts=tuple(kept_counts),
        discarded_counts=tuple(dropped_counts),
        degenerate=any(r == 0 for r in kept_counts),
    )
