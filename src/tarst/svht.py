"""Optimal singular-value hard thresholding: coefficients and rules.

The cutoff for an m x n unfolding with aspect ratio beta = min(m,n)/max(m,n)
is either

* ``lambda_star(beta) * sqrt(max(m, n)) * sigma`` when the noise level is
  known, or
* ``omega(beta) * median(observed singular values)`` when it is not, with
  ``omega(beta) = lambda_star(beta) / sqrt(mp_median(beta))``.

``lambda_star`` is the closed-form optimal hard-threshold coefficient of
Gavish & Donoho (2014); ``mp_median`` is the median of the Marchenko-Pastur
distribution, computed by adaptive quadrature of the density plus Brent
root finding (never tabulated). Squaring gives lambda_star(1) = 4/sqrt(3)
and omega(1) ~= 2.8584 for square unfoldings.

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
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .linalg import median_singular_value

__all__ = [
    "KnownSigma",
    "MedianBased",
    "ThresholdRule",
    "lambda_star",
    "mp_median",
    "omega",
    "threshold_for_unfolding",
    "hard_threshold",
    "soft_threshold",
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


@lru_cache(maxsize=None)
def mp_median(beta: float) -> float:
    """Median of the Marchenko-Pastur distribution with aspect ratio beta.

    Solves CDF(mu) = 1/2 for the density
    f(x) = sqrt((b+ - x)(x - b-)) / (2 pi beta x) on (b-, b+),
    b± = (1 ± sqrt(beta))^2. The sqrt endpoint factor at b- (which turns
    into an x^(-1/2) singularity when beta = 1) goes into the quadrature
    weight so the remaining integrand is smooth; Brent iteration then
    drives the CDF residual below 1e-10.

    Cached per beta; the cache is safe to share across threads because the
    function is pure.
    """
    b = _check_beta(beta)
    lo = (1.0 - math.sqrt(b)) ** 2
    hi = (1.0 + math.sqrt(b)) ** 2
    if lo == 0.0:  # beta == 1: density ~ x^(-1/2) at the origin
        wvar = (-0.5, 0.0)

        def smooth(x):
            return math.sqrt(hi - x) / (2.0 * math.pi * b)
    else:
        wvar = (0.5, 0.0)

        def smooth(x):
            return math.sqrt(hi - x) / (2.0 * math.pi * b * x)

    def cdf(x):
        if x <= lo:
            return 0.0
        with warnings.catch_warnings():
            # the requested tolerance sits at machine precision; near the
            # support edges quadpack reports roundoff it already handled
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(smooth, lo, min(x, hi), weight="alg", wvar=wvar,
                          epsabs=1e-13, epsrel=1e-12, limit=300)
        return val

    mu = brentq(lambda x: cdf(x) - 0.5, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return float(mu)


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
    if isinstance(rule, KnownSigma):
        tau = lambda_star(beta) * math.sqrt(big) * rule.sigma
    elif isinstance(rule, MedianBased):
        if s is None or np.asarray(s).size == 0:
            raise ValueError("median-based rule needs the observed spectrum")
        tau = omega(beta) * median_singular_value(np.asarray(s, dtype=np.float64))
    else:
        raise TypeError(f"unknown threshold rule {rule!r}")
    if s is not None and np.asarray(s).size:
        tau = max(tau, big * _EPS * float(np.max(s)))
    return tau


def _checked_spectrum(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("spectrum must be one-dimensional")
    if arr.size > 1 and np.any(np.diff(arr) > 0):
        raise ValueError("spectrum must be nonincreasing")
    return arr


def hard_threshold(s, tau: float):
    """Zero out values below tau, keep the rest unchanged (boundary inclusive).

    Returns ``(kept, rank)`` with ``rank = #{i : s[i] >= tau}``.
    """
    arr = _checked_spectrum(s)
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold must be a positive real, got {tau!r}")
    keep = arr >= tau
    return np.where(keep, arr, 0.0), int(np.count_nonzero(keep))


def soft_threshold(s, tau: float):
    """Shrinkage variant max(s - tau, 0); the retained count uses strict >.

    Kept for side-by-side comparison with :func:`hard_threshold`; the
    default pipeline never calls it unless explicitly configured.
    """
    arr = _checked_spectrum(s)
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold must be a positive real, got {tau!r}")
    kept = np.maximum(arr - tau, 0.0)
    return kept, int(np.count_nonzero(kept > 0))
