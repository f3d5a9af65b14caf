"""The error metric: the relative reconstruction error ``rrse``."""

from __future__ import annotations

import math

import numpy as np

from .tensor_ops import _BLOCK, _in_range, _norm

__all__ = ["rrse"]


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
