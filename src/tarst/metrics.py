"""Error metric and summary statistics for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .svht import _bisect
from .tensor_ops import _BLOCK, _in_range, _norm

__all__ = ["SummaryStat", "rrse", "summarize"]


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    ci95_low: float
    ci95_high: float
    n: int


def _blocks(shape):
    """Index tuples cutting an array of ``shape``, in C order, into runs of
    whole sub-arrays over its trailing axes of at most ``_BLOCK`` entries:
    one strided view each, whatever the layout."""
    if math.prod(shape) <= _BLOCK:
        yield ()
        return
    k = next(k for k in range(1, len(shape) + 1) if math.prod(shape[k:]) <= _BLOCK)
    run = _BLOCK // math.prod(shape[k:])
    for lead in np.ndindex(*shape[:k - 1]):
        for j in range(0, shape[k - 1], run):
            yield lead + (slice(j, j + run),)


def _sums_of_squares(x: np.ndarray, e: np.ndarray | None = None) -> tuple:
    """(sum of x**2, sum of (e - x)**2 or 0.0 without e), summed per block
    gathered in C order into one reused buffer."""
    buf = np.empty(min(x.size, _BLOCK))
    sx = sd = 0.0
    with np.errstate(over="ignore"):
        for idx in _blocks(x.shape):
            xb = x[idx]
            flat = buf[:xb.size]
            b = flat.reshape(xb.shape)
            b[...] = xb
            sx += flat.dot(flat)
            if e is not None:
                np.subtract(e[idx], b, out=b)
                sd += flat.dot(flat)
    return float(sx), float(sd)


def rrse(est, truth) -> float:
    """Relative reconstruction error ||est - truth||_F / ||truth||_F.

    The benchmark literature calls this "RRSE" although the ratio is not
    squared; this implements the operative formula. Undefined (raises) for
    zero-norm truth. One pass streams both operands with no full-size
    temporary: each block of at most ``tensor_ops._BLOCK`` entries (the
    budget of ``reconstruct``'s last product too), cut by the shape alone,
    is gathered from the truth into one reused buffer, its squares
    summed, ``est - truth`` formed in place there and summed too. So the
    result has the same bits whatever the memory layout of either input.
    A norm outside [2**-450, inf) is taken again with ``frobenius_norm``'s
    exact power-of-two scaling over the same blocks; for the difference
    norm (0, or below 2**-450, as when est equals truth) that path forms
    a full-size ``est - truth``.
    """
    e = np.asarray(est, dtype=np.float64)
    x = np.asarray(truth, dtype=np.float64)
    if e.shape != x.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {x.shape}")
    sx, sd = _sums_of_squares(x, e)
    denom, num = math.sqrt(sx), math.sqrt(sd)
    if not _in_range(denom):
        denom = _norm(x, denom, lambda a: _sums_of_squares(a)[0])
    if not _in_range(num):
        num = _norm(e - x, num, lambda a: _sums_of_squares(a)[0])
    if denom == 0.0:
        raise ValueError("rrse is undefined for zero-norm truth")
    return num / denom


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
