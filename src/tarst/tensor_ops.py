"""Dense N-way tensor primitives: unfolding, folding, n-mode products, norms.

Tensors are numpy float64 arrays. The canonical linearization is C order
(row-major, last index fastest) and every routine in the package sticks to
it. The mode-k unfolding sends axis k to the rows; the remaining axes keep
their relative order and are flattened C-style into the columns, so
``fold(unfold(t, k), k, t.shape)`` is the identity bit for bit.

The n-mode product is one ``np.dot`` on the unfolding, on the same 2-D
operands ``np.tensordot(u, t, ([1], [k]))`` builds, so every bit matches
``tensordot`` + ``moveaxis``. ``unfold`` and ``mode_product`` check their
arguments and call the unchecked kernels ``_unfolding`` and
``_mode_product`` (axis orders cached per order and mode), which the
decompositions call after validating their input once: a HOOI sweep pays
no per-product checks. ``mode_product`` returns a permuted view of its
product; ``multi_mode_product`` writes its last product straight in C order,
so the tensors built from it (``reconstruct``, the benchmark generator) are
C-contiguous.

Modes are 0-indexed at this API level; command-line output is 1-indexed.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _axes(ndim: int, mode: int):
    """Axis orders moving ``mode`` to the front and axis 0 back to ``mode``."""
    before, after = tuple(range(mode)), tuple(range(mode + 1, ndim))
    return (mode,) + before + after, tuple(range(1, mode + 1)) + (0,) + after


def _unfolding(a: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a validated array. The column count is
    spelled out, not ``-1``, so zero-size arrays unfold too."""
    shape = a.shape
    rest = shape[:mode] + shape[mode + 1:]
    return a.transpose(_axes(a.ndim, mode)[0]).reshape(shape[mode], math.prod(rest))


def _mode_product(a: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """:func:`mode_product` of a validated array and a fitting float64 matrix."""
    shape = a.shape
    rest = shape[:mode] + shape[mode + 1:]
    to_front, back = _axes(a.ndim, mode)
    m = a.transpose(to_front).reshape(shape[mode], math.prod(rest))
    return np.dot(u, m).reshape((u.shape[0],) + rest).transpose(back)


def _as_factor(u, extent: int, mode: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("factor must be a matrix")
    if u.shape[1] != extent:
        raise ValueError(
            f"factor with {u.shape[1]} columns cannot contract mode {mode} "
            f"of extent {extent}"
        )
    return u


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
    return _mode_product(a, _as_factor(u, a.shape[mode], mode), mode)


def multi_mode_product(t, factors) -> np.ndarray:
    """Apply one factor per mode in sequence: ``t x_0 U_0 ... x_{N-1} U_{N-1}``.

    The result is always C-contiguous. Modes 0 ... N-2 go through
    :func:`mode_product`'s kernel; the last product is written straight in
    C order as ``m @ U_{N-1}^T``, m the running tensor viewed as
    prod(rest) x r_{N-1} (gathered first when it is a permuted view, a copy
    whose last extent is the rank, not the output's extent). That is equal
    to the mode-by-mode chain up to roundoff: whether the bits match depends
    on the BLAS kernel.
    """
    a = _as_float_array(t)
    factors = list(factors)
    if len(factors) != a.ndim:
        raise ValueError(f"expected {a.ndim} factors, got {len(factors)}")
    out = a
    for k in range(a.ndim - 1):
        out = _mode_product(out, _as_factor(factors[k], a.shape[k], k), k)
    u = _as_factor(factors[-1], a.shape[-1], a.ndim - 1)
    rest = out.shape[:-1]
    m = out.reshape(math.prod(rest), u.shape[1])  # copies a permuted view
    return np.dot(m, u.T).reshape(rest + (u.shape[0],))


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries: the plain ``sqrt(x . x)`` when it
    lies in [2**-450, inf), else that of x scaled exactly by the power of two
    putting its peak in [1/2, 1) (as in ``linalg.svd``'s fallback), scaled back,
    so ``frobenius_norm(2**k * t) == 2**k * frobenius_norm(t)`` bit for bit."""
    x = np.asarray(t, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        r = math.sqrt(x.dot(x))
        if 2.0 ** -450 <= r < math.inf:  # no square that matters is subnormal
            return r
        peak = np.abs(x).max(initial=0.0)
        if not 0 < peak < math.inf:  # zero, or an inf or nan entry
            return r
        e = math.frexp(peak)[1]
        b = np.ldexp(x, -e)
        return float(np.ldexp(math.sqrt(b.dot(b)), e))
