"""Dense N-way tensor primitives: unfolding, folding, n-mode products, norms.

Tensors are numpy float64 arrays. The canonical linearization is C order
(row-major, last index fastest) and every routine in the package sticks to
it. The mode-k unfolding sends axis k to the rows; the remaining axes keep
their relative order and are flattened C-style into the columns, so
``fold(unfold(t, k), k, t.shape)`` is the identity bit for bit.

The n-mode product is one matrix product on the unfolding: the axes are
permuted with ``ndarray.transpose`` (a view), flattened with ``reshape``
(a copy unless the permuted axes happen to be contiguous), multiplied
with one ``np.dot``, and the product's rows are moved back to axis k as a
view. The 2-D operands are exactly the ones ``np.tensordot(u, t, ([1],
[k]))`` builds, so the BLAS call and every bit of the result are the same
as with ``tensordot`` followed by ``moveaxis``, without their per-call
overhead, which dominates for the small tensors of a HOOI sweep.

Modes are 0-indexed at this API level; command-line output is 1-indexed.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "mode_product",
    "multi_mode_product",
    "frobenius_norm",
]


def _as_float_array(t) -> np.ndarray:
    a = np.asarray(t, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    return a


def _check_mode(ndim: int, mode: int) -> int:
    mode = int(mode)
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-way tensor")
    return mode


def _unfolding(a: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a validated array. The column count is
    spelled out, not ``-1``, so zero-size arrays unfold too."""
    shape = a.shape
    rest = shape[:mode] + shape[mode + 1:]
    perm = (mode,) + tuple(range(mode)) + tuple(range(mode + 1, a.ndim))
    return a.transpose(perm).reshape(shape[mode], math.prod(rest))


def unfold(t, mode: int) -> np.ndarray:
    """Mode-k unfolding: the I_k x prod(I_j, j != k) matrix of ``t``.

    Rows index mode ``mode``; columns run over the remaining modes in their
    original order, last one fastest (C order).
    """
    a = _as_float_array(t)
    return _unfolding(a, _check_mode(a.ndim, mode))


def fold(m, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold` for the given mode and target shape."""
    a = np.asarray(m, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"invalid target shape {shape}")
    mode = _check_mode(len(shape), mode)
    rest = tuple(s for j, s in enumerate(shape) if j != mode)
    if a.ndim != 2 or a.shape != (shape[mode], math.prod(rest)):
        raise ValueError(
            f"matrix of shape {a.shape} cannot fold into {shape} along mode {mode}"
        )
    return np.moveaxis(a.reshape((shape[mode],) + rest), 0, mode)


def mode_product(t, u, mode: int) -> np.ndarray:
    """n-mode product t x_mode u, contracting u's columns with axis ``mode``.

    Satisfies ``unfold(mode_product(t, u, k), k) == u @ unfold(t, k)``.
    """
    a = _as_float_array(t)
    mode = _check_mode(a.ndim, mode)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("factor must be a matrix")
    if u.shape[1] != a.shape[mode]:
        raise ValueError(
            f"factor with {u.shape[1]} columns cannot contract mode {mode} "
            f"of extent {a.shape[mode]}"
        )
    rest = a.shape[:mode] + a.shape[mode + 1:]
    out = np.dot(u, _unfolding(a, mode)).reshape((u.shape[0],) + rest)
    # the product's rows are axis 0; the view below puts them at axis mode
    return out.transpose(tuple(range(1, mode + 1)) + (0,)
                         + tuple(range(mode + 1, a.ndim)))


def multi_mode_product(t, factors, transpose: bool = False) -> np.ndarray:
    """Apply one factor per mode in sequence; ``None`` entries are left alone.

    With ``transpose=True`` each factor is applied transposed, which turns a
    list of orthonormal factors into the projection onto their column spaces
    (the core computation).
    """
    a = _as_float_array(t)
    factors = list(factors)
    if len(factors) != a.ndim:
        raise ValueError(f"expected {a.ndim} factors, got {len(factors)}")
    out = a
    for k, u in enumerate(factors):
        if u is None:
            continue
        out = mode_product(out, u.T if transpose else u, k)
    return out


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))
