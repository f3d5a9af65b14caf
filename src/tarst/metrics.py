"""Error metric and summary statistics for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def summarize(samples) -> SummaryStat:
    """Mean with a 95% Student-t confidence interval.

    CI = mean ± t_{0.975, n-1} * sd / sqrt(n); a single sample degenerates
    to a point interval. The t quantile comes from ``scipy.stats``, imported
    here on first use so that importing the package needs numpy only.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return SummaryStat(mean=mean, ci95_low=mean, ci95_high=mean, n=1)
    from scipy.stats import t as student_t

    half = float(student_t.ppf(0.975, n - 1)) * float(arr.std(ddof=1)) / math.sqrt(n)
    return SummaryStat(mean=mean, ci95_low=mean - half, ci95_high=mean + half, n=n)
