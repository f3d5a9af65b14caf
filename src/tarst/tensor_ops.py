"""Dense N-way tensor primitives: unfolding, n-mode products, norms.

Tensors are numpy float64 arrays. The canonical linearization is C order
(row-major, last index fastest) and every routine in the package sticks to
it. The mode-k unfolding sends axis k to the rows; the remaining axes keep
their relative order and are flattened C-style into the columns, so it is
``np.moveaxis(t, k, 0).reshape(t.shape[k], -1)`` bit for bit, and numpy
undoes it. ``unfold`` rejects a zero extent; the kernels and the products
accept one, since a degenerate model's core has extent 0 in a mode that
kept nothing. Every public function takes real values only: a complex
input raises TypeError rather than losing its imaginary part.

The n-mode product is one ``np.dot`` on the unfolding, on the same 2-D
operands ``np.tensordot(u, t, ([1], [k]))`` builds, so every bit matches
``tensordot`` + ``moveaxis``. ``unfold`` and ``multi_mode_product`` check
their arguments and call the unchecked kernels ``_unfolding`` and
``_mode_product`` (axis orders cached per order and mode), which the
decompositions call after validating their input once: a HOOI sweep pays
no per-product checks. ``_mode_product`` returns a permuted view of its
product; ``multi_mode_product`` writes its last product straight in C order,
so the tensors built from it (``reconstruct``, the benchmark generator) are
C-contiguous. Every pass that streams over a tensor cuts it by one rule,
``_slabs``: runs of whole mode-0 slices of at most ``_BLOCK`` entries, the
package's one block budget, and at least one slice. ``_grams`` forms the
Gram matrices of middle-mode unfoldings from such slabs, that last product
goes in such runs of output rows, and ``_sums_of_squares``, the one
sum-of-squares kernel behind ``frobenius_norm`` (so HOOI's fit) and
``metrics.rrse``, sums over such slabs.

Modes are 0-indexed here and in the CLI's error messages; the CLI's denoise
report numbers them from 1.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "unfold",
    "multi_mode_product",
    "frobenius_norm",
]


_BLOCK = 1 << 16  # float64 entries (512 KiB) per block of a streamed pass


def _real(x) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``, the same bits, except that a
    complex input raises TypeError instead of losing its imaginary part."""
    a = np.asarray(x)
    if a.dtype != np.float64:
        if a.dtype.kind == "c":
            raise TypeError(f"expected real values, got {a.dtype}")
        a = a.astype(np.float64)
    return a


def _as_float_array(t) -> np.ndarray:
    a = _real(t)
    if a.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    return a


def _as_int(value, what: str) -> int:
    """``operator.index(value)``; a float, even 2.0, raises TypeError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _check_shape(shape) -> tuple:
    """A non-empty tuple of integer extents, each >= 1."""
    try:
        extents = iter(shape)
    except TypeError:
        raise TypeError(f"shape must be a sequence of integers, got {shape!r}") from None
    shape = tuple(_as_int(i, "extent") for i in extents)
    if not shape or min(shape) < 1:
        raise ValueError(f"invalid shape {shape!r}")
    return shape


def _check_ranks(shape, ranks) -> tuple:
    """One integer rank per extent of ``shape``, each in [1, extent], after
    :func:`_check_shape` of ``shape``, so a zero extent is a shape fault."""
    _check_shape(shape)
    ranks = tuple(_as_int(r, "rank") for r in ranks)
    if len(ranks) != len(shape):
        raise ValueError(f"expected {len(shape)} ranks, got {len(ranks)}")
    for k, (r, i) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= i:
            raise ValueError(f"rank {r} out of range [1, {i}] for mode {k}")
    return ranks


def _check_mode(ndim: int, mode: int) -> int:
    mode = _as_int(mode, "mode")
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


def _slabs(shape):
    """Indices cutting an array of ``shape`` into runs of consecutive whole
    mode-0 slices of at most ``_BLOCK`` entries, at least one slice each, in
    order: the package's one block rule. All runs but the last have the same
    length. An array of at most ``_BLOCK`` entries (a 0-d one counts as one)
    is the one index ``...``."""
    if math.prod(shape) <= _BLOCK:
        return (...,)
    step = max(1, _BLOCK // math.prod(shape[1:]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def _grams(a: np.ndarray, modes) -> dict:
    """``{k: Y_k Y_k^T}`` for the mode-k unfoldings Y_k of a validated array,
    each k >= 1 in ``modes``, from one pass over its :func:`_slabs`. A
    slab's mode-k unfolding holds a run of Y_k's columns, so each product
    copies a cache-sized slab and never Y_k whole; the first slab's Gram
    matrix is assigned and the others added. A tensor of one slab gives
    ``m @ m.T`` of the whole unfolding m, bit for bit; more slabs give it up
    to the roundoff of the sum. An overflowing entry is left as inf."""
    grams = {}
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for i, idx in enumerate(_slabs(a.shape)):
            slab = a[idx]
            for k in modes:
                m = _unfolding(slab, k)
                if i:
                    grams[k] += m @ m.T
                else:
                    grams[k] = m @ m.T
    return grams


def _mode_product(a: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """The n-mode product of a validated array and a fitting float64 matrix
    u, contracting u's columns with axis ``mode``: its mode-``mode``
    unfolding is ``u @ _unfolding(a, mode)``, and it is a permuted view."""
    rest = a.shape[:mode] + a.shape[mode + 1:]
    into, back = _axes(a.ndim, mode)
    out = np.dot(u, a.transpose(into).reshape(a.shape[mode], math.prod(rest)))
    return out.reshape((u.shape[0],) + rest).transpose(back)


def _as_factor(u, extent: int, mode: int) -> np.ndarray:
    u = _real(u)
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
    original order, last one fastest (C order). A zero extent raises
    ``ValueError("invalid shape ...")``.
    """
    a = _as_float_array(t)
    _check_shape(a.shape)
    return _unfolding(a, _check_mode(a.ndim, mode))


def multi_mode_product(t, factors) -> np.ndarray:
    """Apply one factor per mode in sequence: ``t x_0 U_0 ... x_{N-1} U_{N-1}``.

    The result is always C-contiguous. Modes 0 ... N-2 go through the
    kernel :func:`_mode_product`; the last product is written straight in
    C order as ``m @ U_{N-1}^T``, m the running tensor viewed as
    prod(rest) x r_{N-1} (gathered first when it is a permuted view, a copy
    whose last extent is the rank, not the output's extent). That product
    fills one preallocated prod(rest) x I_{N-1} output in the
    :func:`_slabs` of that matrix, runs of at most ``_BLOCK`` entries (at
    least one row), one ``np.dot`` each. When it fits in one
    block it is one ``np.dot(m, U_{N-1}.T)``, bit for bit; otherwise it is
    deterministic for a fixed BLAS build and thread count and equals that
    one call up to roundoff. The result equals the mode-by-mode chain up
    to roundoff.
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
    n = math.prod(rest)
    m = out.reshape(n, u.shape[1])  # copies a permuted view
    res = np.empty((n, u.shape[0]))
    for idx in _slabs(res.shape):
        np.dot(m[idx], u.T, out=res[idx])
    return res.reshape(rest + (u.shape[0],))


def _sums_of_squares(x: np.ndarray, e: np.ndarray | None = None) -> tuple:
    """(sum of x**2, sum of (e - x)**2 or 0.0 without e), one ``dot`` per
    slab of :func:`_slabs` over its entries in C order. A C-contiguous slab
    of x is read in place, and ``e - x`` formed in one reused buffer; any
    other slab is gathered once into a C-order copy, where ``e - x`` is then
    formed in place. No copy is larger than a slab, and the sums have the
    same bits whatever the layout of x and e."""
    buf = None
    sx = sd = 0.0
    with np.errstate(over="ignore"):
        for idx in _slabs(x.shape):
            xb = d = x[idx]  # no name keeps the last copy while the next is made
            if not xb.flags.c_contiguous:
                xb = d = xb.copy()
            elif e is not None:
                buf = np.empty(xb.shape) if buf is None else buf  # the first slab is the largest
                d = buf if buf.shape == xb.shape else buf[:len(xb)]
            sx += xb.ravel().dot(xb.ravel())
            if e is not None:
                sd += np.vdot(np.subtract(e[idx], xb, out=d), d)
    return float(sx), float(sd)


def _in_range(r: float) -> bool:
    """Whether a plain norm is finite and >= 2**-450, so no square that matters is subnormal."""
    return 2.0 ** -450 <= r < math.inf


def _norm(x: np.ndarray, r: float) -> float:
    """The norm of x from its plain value ``r``, the root of
    :func:`_sums_of_squares`: ``r`` itself when it is :func:`_in_range`;
    otherwise the same root over x scaled exactly by the power of two
    putting its peak in [1/2, 1) (as in ``linalg.svd``'s fallback), scaled
    back, so exact under power-of-two scales, or ``r`` again when the peak
    is zero, inf or nan."""
    if _in_range(r):
        return r
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    if not 0 < peak < math.inf:
        return r
    e = math.frexp(peak)[1]
    with np.errstate(over="ignore"):  # a norm past the top scales back to inf
        return float(np.ldexp(math.sqrt(_sums_of_squares(np.ldexp(x, -e))[0]), e))


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries, from :func:`_sums_of_squares`,
    the kernel ``metrics.rrse`` sums through too. Up to ``_BLOCK`` entries
    that is the plain ``sqrt(x . x)`` over the C-order entries, bit for
    bit; above, one ``dot`` per slab of :func:`_slabs` (runs of whole
    mode-0 slices, so one slice per ``dot`` where a slice exceeds
    ``_BLOCK``), added up, with the same bits for any layout and no copy
    larger than one slab. A result not :func:`_in_range` is taken
    again by :func:`_norm`'s exact power-of-two fallback, so
    ``frobenius_norm(2**k * t) == 2**k * frobenius_norm(t)`` bit for bit."""
    x = _real(t)
    return _norm(x, math.sqrt(_sums_of_squares(x)[0]))
