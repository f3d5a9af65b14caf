"""Plain-text tensor files.

Format: line 1 holds the order N, line 2 the N extents, and the rest the
P = prod(extents) values in the canonical C linearization, separated by
arbitrary whitespace. Lines starting with ``#`` are comments and are
skipped wherever they appear; a ``#`` later in a line is an ordinary
token. Values are written with shortest round-trip precision (``repr``),
one row of the trailing axis per line, so write followed by read is
bit-exact.

Reading makes one pass over the tokens of the data lines; the values go
into an array that grows only with the values read, whatever count the
header declares. An error names a data token by its index, and only then
are the lines walked again for its spelling and 1-based line. Files are
UTF-8, with or without a byte-order mark, which is dropped before the
first line is read; a byte that does not decode is a format error on the
line that holds it. Writing joins the ``repr`` of the values of each row.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice

import numpy as np

from .tensor_ops import _as_float_array, _check_shape

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]


class TensorFormatError(ValueError):
    """Malformed tensor text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _line_tokens(line):
    """The tokens of ``line``; none if it is blank or a comment."""
    toks = line.split()
    return toks if toks and not toks[0].startswith("#") else []


def _error(lines, index, message) -> TensorFormatError:
    """The error for data token ``index``; an index past the last is the end of the file."""
    for lineno, raw in enumerate(lines, start=1):
        toks = _line_tokens(raw)
        if index < len(toks):
            return TensorFormatError(message.format(toks[index]), line=lineno)
        index -= len(toks)
    return TensorFormatError(message, line=len(lines))


def _positive_int(lines, toks, index, name, expected) -> int:
    """Parse data token ``index``, the next of ``toks``, as an integer >= 1."""
    tok = next(toks, None)
    if tok is None:
        raise _error(lines, index, f"unexpected end of file, expected {expected}")
    try:
        value = int(tok)
    except ValueError:
        raise _error(lines, index, f"{name} must be an integer, got {{!r}}") from None
    if value < 1:
        raise _error(lines, index, f"{name} must be >= 1, got {value}")
    return value


def read_tensor(path) -> np.ndarray:
    """Read one tensor from ``path``; raises :class:`TensorFormatError` on bad input."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        _raise_decode_error(path)
        raise
    toks = chain.from_iterable(map(_line_tokens, lines))
    ndim = _positive_int(lines, toks, 0, "tensor order", "the tensor order N")
    shape = [_positive_int(lines, toks, 1 + k, "extent", f"{ndim} extents")
             for k in range(ndim)]
    count = math.prod(shape)
    try:
        values = np.fromiter(map(float, islice(toks, min(count, sys.maxsize))), np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        # the parse does not say which token failed: find the first bad value
        rest = islice(chain.from_iterable(map(_line_tokens, lines)), 1 + ndim, None)
        for index, tok in enumerate(rest, start=1 + ndim):
            try:
                value = float(tok)
            except ValueError:
                raise _error(lines, index, "bad value {!r}") from None
            if not math.isfinite(value):
                raise _error(lines, index, "non-finite value {!r}")
    if values.size < count:
        raise _error(lines, 1 + ndim + values.size,
                     f"unexpected end of file, expected {count} values (got {values.size})")
    if next(toks, None) is not None:
        raise _error(lines, 1 + ndim + count,
                     f"trailing data {{!r}}: expected exactly {count} values")
    try:
        return values.reshape(shape)
    except ValueError as e:  # numpy caps the order: 64 modes on numpy 2, 32 before
        raise _error(lines, 0, f"tensor order {ndim} is more modes than numpy allows") from e


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


def write_tensor(t, path) -> None:
    """Write ``t`` to ``path`` in the text format (C-order values)."""
    a = _as_float_array(t)
    _check_shape(a.shape)
    if not np.all(np.isfinite(a)):
        raise ValueError("tensor has non-finite entries")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.ndim}\n")
        fh.write(" ".join(str(s) for s in a.shape) + "\n")
        # one row of the trailing axis per line keeps files greppable
        fh.writelines(" ".join(map(repr, row.tolist())) + "\n"
                      for row in a.reshape(-1, a.shape[-1]))
