"""Plain-text tensor files.

Format: line 1 holds the order N, line 2 the N extents, and the rest the
P = prod(extents) values in the canonical C linearization, separated by
arbitrary whitespace. Lines starting with ``#`` are comments and are
skipped wherever they appear; a ``#`` later in a line is an ordinary
token. Values are written with shortest round-trip precision (``repr``),
one row of the trailing axis per line, so write followed by read is
bit-exact.

Reading streams the tokens of the data lines straight into one
preallocated array and checks finiteness in one vectorized pass; no
whole-file token list is built. Only when that fails does the reader walk
the tokens one at a time, and only to name the first bad token and its
1-based line, so errors and their line numbers do not depend on the fast
path. Files are UTF-8; a byte that does not decode is a format error on
the line that holds it. Writing joins the ``repr`` of the values of each
row; the written bytes are the same as those of earlier versions of this
module.
"""

from __future__ import annotations

import math
from itertools import chain, islice

import numpy as np

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]


class TensorFormatError(ValueError):
    """Malformed tensor text; carries the offending 1-based line number."""

    def __init__(self, message: str, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _is_data(line_tokens) -> bool:
    """True for the tokens of a line that is neither blank nor a comment."""
    return bool(line_tokens) and not line_tokens[0].startswith("#")


def _tokens(lines):
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if _is_data(toks):
            for tok in toks:
                yield lineno, tok


def read_tensor(path) -> np.ndarray:
    """Read one tensor from ``path``; raises :class:`TensorFormatError` on bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        _raise_decode_error(path)
        raise
    toks = chain.from_iterable(filter(_is_data, map(str.split, lines)))
    try:
        ndim = int(next(toks))
        shape = [int(tok) for tok in islice(toks, ndim)]
        count = math.prod(shape)
        # each value follows at least one whitespace character, so a count
        # above half the file's length cannot be met: refuse it before
        # allocating, however large the header claims the tensor is
        if (ndim >= 1 and len(shape) == ndim and min(shape) >= 1
                and 2 * count <= sum(map(len, lines))):
            values = np.fromiter(map(float, islice(toks, count)), np.float64, count=count)
            if np.isfinite(values).all() and next(toks, None) is None:
                return values.reshape(shape)
    except (StopIteration, ValueError):
        pass
    # the streamed parse failed: find the first offending token and its line
    _raise_first_error(lines)
    raise AssertionError("the streamed parse and the token walk disagree")


def _raise_decode_error(path) -> None:
    """Raise for the first byte of ``path`` that is not UTF-8, with its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8")
        # count line ends as universal-newline reading does: \r\n, \r or \n
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise TensorFormatError(
            f"not UTF-8 text: byte 0x{data[e.start]:02x} ({e.reason})", line=line) from None


def _raise_first_error(lines) -> None:
    """Walk the tokens one by one and raise for the first that breaks the format."""
    toks = _tokens(lines)

    def next_token(what):
        try:
            return next(toks)
        except StopIteration:
            raise TensorFormatError(f"unexpected end of file, expected {what}",
                                    line=len(lines)) from None

    def next_positive_int(what, name):
        lineno, tok = next_token(what)
        try:
            value = int(tok)
        except ValueError:
            raise TensorFormatError(f"{name} must be an integer, got {tok!r}",
                                    line=lineno) from None
        if value < 1:
            raise TensorFormatError(f"{name} must be >= 1, got {value}", line=lineno)
        return value

    ndim = next_positive_int("the tensor order N", "tensor order")
    shape = [next_positive_int(f"{ndim} extents", "extent") for _ in range(ndim)]

    count = math.prod(shape)
    for i in range(count):
        lineno, tok = next_token(f"{count} values (got {i})")
        try:
            v = float(tok)
        except ValueError:
            raise TensorFormatError(f"bad value {tok!r}", line=lineno) from None
        if not math.isfinite(v):
            raise TensorFormatError(f"non-finite value {tok!r}", line=lineno)

    for lineno, tok in toks:
        raise TensorFormatError(
            f"trailing data {tok!r}: expected exactly {count} values", line=lineno)


def write_tensor(t, path) -> None:
    """Write ``t`` to ``path`` in the text format (C-order values)."""
    a = np.asarray(t, dtype=np.float64)
    if a.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    if a.size == 0:
        raise ValueError(f"tensor extents must be >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("tensor has non-finite entries")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.ndim}\n")
        fh.write(" ".join(str(s) for s in a.shape) + "\n")
        # one row of the trailing axis per line keeps files greppable
        fh.writelines(" ".join(map(repr, row.tolist())) + "\n"
                      for row in a.reshape(-1, a.shape[-1]))
