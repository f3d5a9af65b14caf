"""Error metric and summary statistics for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .svht import _bisect
from .tensor_ops import frobenius_norm

__all__ = ["SummaryStat", "rrse", "summarize"]


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    ci95_low: float
    ci95_high: float
    n: int


def rrse(est, truth) -> float:
    """Relative reconstruction error ||est - truth||_F / ||truth||_F.

    The benchmark literature calls this "RRSE" although the ratio is not
    squared; this implements the operative formula. Undefined (raises) for
    zero-norm truth. One C-order temporary holds the truth and then, in
    place, the difference, so neither norm gathers its operand again; both
    sum in C order, and the result has the same bits whatever the memory
    layout of either input. With C-order inputs, as ``reconstruct`` and
    ``bench.gen_lowrank_tensor`` return, the copy is a memcpy and the
    subtraction reads contiguous memory.
    """
    e = np.asarray(est, dtype=np.float64)
    x = np.asarray(truth, dtype=np.float64)
    if e.shape != x.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {x.shape}")
    d = np.array(x, order="C")  # a copy: the difference is written into it
    denom = frobenius_norm(d)
    if denom == 0.0:
        raise ValueError("rrse is undefined for zero-norm truth")
    np.subtract(e, d, out=d)
    return frobenius_norm(d) / denom


@lru_cache(maxsize=None)
def _t975(nu: int) -> float:
    """Student-t quantile t_{0.975, nu}, integer nu >= 1: bisects the
    closed-form P(|T| <= t) = 0.95 (Abramowitz & Stegun 26.7.3-4, nu // 2
    terms of a series in cos^2 theta, theta = atan(t / sqrt(nu))) on
    [0, 16]. Multiplying by cos^2 as 1 - sin^2 keeps a rounded cos^2 near 1
    from biasing the result by ~nu * eps. O(nu) per step, so cached per nu.
    """
    odd = nu % 2

    def below(t):
        s2 = t * t / (nu + t * t)
        term, total = (math.sqrt(nu / (nu + t * t)) if odd else 1.0), 0.0
        for j in range(nu // 2):
            total += term
            term *= (2 * j + 1 + odd) / (2 * j + 2 + odd)
            term -= term * s2
        p = t / math.sqrt(nu + t * t) * total
        if odd:
            p = (math.atan2(t, math.sqrt(nu)) + p) * (2.0 / math.pi)
        return p < 0.95

    return _bisect(below, 0.0, 16.0)


def summarize(samples) -> SummaryStat:
    """Mean with a 95% Student-t confidence interval.

    CI = mean ± t_{0.975, n-1} * sd / sqrt(n); a single sample degenerates
    to a point interval. The t quantile inverts the closed-form t
    distribution (``_t975``), so no statistics library is needed.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return SummaryStat(mean=mean, ci95_low=mean, ci95_high=mean, n=1)
    half = _t975(n - 1) * float(arr.std(ddof=1)) / math.sqrt(n)
    return SummaryStat(mean=mean, ci95_low=mean - half, ci95_high=mean + half, n=n)
