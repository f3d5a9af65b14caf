"""Dense N-way tensor primitives: unfolding, folding, n-mode products, norms.

Tensors are numpy float64 arrays. The canonical linearization is C order
(row-major, last index fastest) and every routine in the package sticks to
it. The mode-k unfolding sends axis k to the rows; the remaining axes keep
their relative order and are flattened C-style into the columns, so
``fold(unfold(t, k), k, t.shape)`` is the identity bit for bit.

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


def unfold(t, mode: int) -> np.ndarray:
    """Mode-k unfolding: the I_k x prod(I_j, j != k) matrix of ``t``.

    Rows index mode ``mode``; columns run over the remaining modes in their
    original order, last one fastest (C order).
    """
    a = _as_float_array(t)
    mode = _check_mode(a.ndim, mode)
    return np.moveaxis(a, mode, 0).reshape(a.shape[mode], -1)


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
    return np.moveaxis(np.tensordot(u, a, axes=([1], [mode])), 0, mode)


def multi_mode_product(t, factors, transpose: bool = False, skip=None) -> np.ndarray:
    """Apply one factor per mode in sequence; ``None`` entries and ``skip`` are left alone.

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
        if u is None or k == skip:
            continue
        out = mode_product(out, u.T if transpose else u, k)
    return out


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))
