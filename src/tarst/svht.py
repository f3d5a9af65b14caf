"""Optimal singular-value hard thresholding: coefficients and rules.

The cutoff for an m x n unfolding with aspect ratio beta = min(m,n)/max(m,n)
is either

* ``lambda_star(beta) * sqrt(max(m, n)) * sigma`` when the noise level is
  known, or
* ``omega(beta) * median(observed singular values)`` when it is not, with
  ``omega(beta) = lambda_star(beta) / sqrt(mp_median(beta))``.

``lambda_star`` is the closed-form optimal hard-threshold coefficient of
Gavish & Donoho (2014); ``mp_median`` is the median of the Marchenko-Pastur
distribution, found by bisection on its closed-form CDF (``mp_cdf``, written
with atan2 so it stays exact to roundoff at the support edges), computed,
never tabulated. Squaring gives lambda_star(1) = 4/sqrt(3) and
omega(1) ~= 2.8584 for square unfoldings. Everything here needs numpy only.

An unfolding with a single singular value (min(m, n) = 1) gives the median
rule nothing to calibrate against: the median of one value is that value,
and omega(beta) > 1 would always cut it. Such a mode therefore gets only the
roundoff floor below, so it keeps rank 1 (its identity projector) unless
the tensor is all zero.

Whenever the observed spectrum is at hand, under either rule, the cutoff is
floored at ``max(m, n) * eps * s_max``, the ``numpy.linalg.matrix_rank``
tolerance. Singular values below it are indistinguishable from floating-
point roundoff of the largest one, so they never count as rank: a constant
tensor gets rank 1 in every mode at any magnitude, and an all-zero tensor
gets a zero cutoff, which keeps nothing.

Thresholding is hard: values at or above the cutoff pass unchanged, the
rest become zero. The boundary is inclusive (>=).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

__all__ = [
    "KnownSigma",
    "MedianBased",
    "ThresholdRule",
    "lambda_star",
    "mp_cdf",
    "mp_median",
    "omega",
    "threshold_for_unfolding",
    "hard_threshold",
]


@dataclass(frozen=True)
class KnownSigma:
    """Threshold rule for a known per-entry noise standard deviation."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive real, got {self.sigma!r}")


@dataclass(frozen=True)
class MedianBased:
    """Data-driven rule: calibrate the cutoff from the median singular value."""


ThresholdRule = Union[KnownSigma, MedianBased]

_EPS = float(np.finfo(np.float64).eps)


def _check_beta(beta) -> float:
    b = float(beta)
    if not (math.isfinite(b) and 0.0 < b <= 1.0):
        raise ValueError(f"aspect ratio must lie in (0, 1], got {beta!r}")
    return b


def lambda_star(beta: float) -> float:
    """Optimal hard-threshold coefficient lambda*(beta), beta in (0, 1].

    Closed form (Gavish & Donoho 2014):
    sqrt(2(beta+1) + 8 beta / ((beta+1) + sqrt(beta^2 + 14 beta + 1))).
    Strictly increasing, from sqrt(2) as beta -> 0 up to 4/sqrt(3) at beta = 1.
    """
    b = _check_beta(beta)
    return math.sqrt(2.0 * (b + 1.0)
                     + 8.0 * b / ((b + 1.0) + math.sqrt(b * b + 14.0 * b + 1.0)))


def mp_cdf(x: float, beta: float) -> float:
    """Marchenko-Pastur CDF with aspect ratio beta, in closed form.

    With a, b = (1 -+ sqrt(beta))^2, r = sqrt((b - x)(x - a)) and
    t1 = atan2(2x - a - b, 2r), t2 = atan2((a + b)x - 2ab, 2 sqrt(ab) r),
    the density sqrt((b - x)(x - a)) / (2 pi beta x) on (a, b) integrates to
    F(x) = [r + (1 + beta) t1 - (1 - beta) t2 + beta pi] / (2 pi beta).
    The atan2 forms stay exact to roundoff at the support edges, where the
    asin forms lose ~sqrt(eps). For small beta, t1 and t2 are O(1) while the
    numerator is O(beta), so the difference t1 - t2 is taken as one atan2
    (a + b = 2(1 + beta), ab = (1 - beta)^2):
    t1 - t2 = -atan2(r (x + 1 - beta), x^2 - 2 beta x + (1 - beta)^2),
    which has no cancellation and no 0/0 at beta = 1, and the numerator is
    regrouped as r + (1 - beta)(t1 - t2) + beta (2 t1 + pi).
    """
    beta = _check_beta(beta)
    x = float(x)
    lo = (1.0 - math.sqrt(beta)) ** 2
    hi = (1.0 + math.sqrt(beta)) ** 2
    if x < lo:
        return 0.0
    if x > hi:
        return 1.0
    r = math.sqrt((hi - x) * (x - lo))
    t1 = math.atan2(x - (1.0 + beta), r)
    diff = -math.atan2(r * (x + 1.0 - beta), x * x - 2.0 * beta * x + (1.0 - beta) ** 2)
    return (r + (1.0 - beta) * diff + beta * (2.0 * t1 + math.pi)) / (2.0 * math.pi * beta)


@lru_cache(maxsize=None)
def mp_median(beta: float) -> float:
    """Median of the Marchenko-Pastur distribution with aspect ratio beta.

    Solves :func:`mp_cdf` (mu) = 1/2 by bisection on the support
    ((1 - sqrt(beta))^2, (1 + sqrt(beta))^2) until the bracket holds two
    adjacent floats, and returns the upper one: about 60 evaluations of the
    closed-form CDF, computed, never tabulated, and within a few ulps of
    the exact median for every beta in (0, 1].

    Cached per beta; the cache is safe to share across threads because the
    function is pure.
    """
    b = _check_beta(beta)
    lo = (1.0 - math.sqrt(b)) ** 2
    hi = (1.0 + math.sqrt(b)) ** 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if mp_cdf(mid, b) < 0.5:
            lo = mid
        else:
            hi = mid


def omega(beta: float) -> float:
    """Median-based threshold multiplier lambda*(beta) / sqrt(mp_median(beta))."""
    b = _check_beta(beta)
    return lambda_star(b) / math.sqrt(mp_median(b))


def threshold_for_unfolding(m: int, n: int, rule: ThresholdRule, s=None) -> float:
    """Concrete cutoff for one m x n unfolding under the given rule.

    ``s`` is the observed spectrum, required by the median-based rule and
    optional for the known-sigma rule; when given, the cutoff is floored at
    the roundoff level ``max(m, n) * eps * max(s)``. Transpose-invariant:
    beta = min/max and the known-sigma formula scales by sqrt(max(m, n)).
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
    big, small = (m, n) if m >= n else (n, m)
    beta = small / big
    if s is not None:
        s = np.asarray(s, dtype=np.float64)
    if isinstance(rule, KnownSigma):
        tau = lambda_star(beta) * math.sqrt(big) * rule.sigma
    elif isinstance(rule, MedianBased):
        if s is None or s.size == 0:
            raise ValueError("median-based rule needs the observed spectrum")
        # one singular value: only the roundoff floor below applies; an even
        # count's median is the midpoint of the central two, inf on overflow
        with np.errstate(over="ignore"):
            tau = 0.0 if small == 1 else omega(beta) * float(np.median(s))
    else:
        raise TypeError(f"unknown threshold rule {rule!r}")
    if s is not None and s.size:
        tau = max(tau, big * _EPS * float(s.max()))
    return tau


def hard_threshold(s, tau: float):
    """Zero out values below tau, keep the rest unchanged (boundary inclusive).

    Returns ``(kept, rank)`` with ``rank = #{i : s[i] >= tau}``.
    """
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("spectrum must be one-dimensional")
    if arr.size > 1 and np.any(np.diff(arr) > 0):
        raise ValueError("spectrum must be nonincreasing")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold must be a positive real, got {tau!r}")
    keep = arr >= tau
    return np.where(keep, arr, 0.0), int(np.count_nonzero(keep))
