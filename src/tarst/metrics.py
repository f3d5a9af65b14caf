"""The error metric: the relative reconstruction error ``rrse``."""

from __future__ import annotations

import math

import numpy as np

from .tensor_ops import _in_range, _norm, _sums_of_squares

__all__ = ["rrse"]


def rrse(est, truth) -> float:
    """Relative reconstruction error ||est - truth||_F / ||truth||_F.

    The benchmark literature calls this "RRSE" although the ratio is not
    squared; this implements the operative formula. Undefined (raises) for
    zero-norm truth. Both norms come from one pass of ``frobenius_norm``'s
    kernel, ``tensor_ops._sums_of_squares``, with no full-size temporary:
    per slab of ``tensor_ops._slabs``, a run of whole mode-0 slices of at
    most ``tensor_ops._BLOCK`` entries (at least one slice), cut by the
    shape alone, it reads a C-contiguous slab of the truth in place and
    forms ``est - truth`` in one reused buffer, or gathers any other slab
    once into a copy and forms the difference in place there, and sums the
    squares of both. So the result has the same bits whatever the memory
    layout of either input, and equals
    ``frobenius_norm(est - truth) / frobenius_norm(truth)`` bit for bit. No
    copy is larger than one slab, a whole slice where a slice exceeds
    ``_BLOCK``.
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
    denom, num = _norm(x, math.sqrt(sx)), math.sqrt(sd)
    if not _in_range(num):  # only then is e - x formed whole
        num = _norm(e - x, num)
    if denom == 0.0:
        raise ValueError("rrse is undefined for zero-norm truth")
    return num / denom
