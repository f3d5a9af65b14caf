"""The error metric: the relative reconstruction error ``rrse``."""

from __future__ import annotations

import math

from .tensor_ops import _in_range, _norm, _real, _sums_of_squares

__all__ = ["rrse"]


def rrse(est, truth) -> float:
    """Relative reconstruction error ||est - truth||_F / ||truth||_F.

    The benchmark literature calls this "RRSE" although the ratio is not
    squared; this implements the operative formula. Raises ValueError for
    a shape mismatch and for zero-norm truth. Both norms come from one pass
    of ``frobenius_norm``'s kernel, ``tensor_ops._sums_of_squares``, so the
    result equals ``frobenius_norm(est - truth) / frobenius_norm(truth)``
    bit for bit, whatever the memory layout of either input, and no copy is
    larger than one slab. The one exception: a difference norm outside
    [2**-450, inf), as when est equals truth, is taken again by
    ``frobenius_norm``'s power-of-two fallback over a full-size
    ``est - truth``.
    """
    e = _real(est)
    x = _real(truth)
    if e.shape != x.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {x.shape}")
    sx, sd = _sums_of_squares(x, e)
    denom, num = _norm(x, math.sqrt(sx)), math.sqrt(sd)
    if not _in_range(num):  # only then is e - x formed whole
        num = _norm(e - x, num)
    if denom == 0.0:
        raise ValueError("rrse is undefined for zero-norm truth")
    return num / denom
