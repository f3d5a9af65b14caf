"""Round-trip and error-reporting tests for the tensor text format."""

import ast
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import shapes
from tarst.tensor_io import TensorFormatError, read_tensor, write_tensor


def test_write_read_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2), (2, 2, 2, 3)]:
        t = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
        p = tmp_path / "t.txt"
        write_tensor(t, p)
        back = read_tensor(p)
        assert back.shape == t.shape
        assert np.array_equal(back, t)


def test_read_accepts_comments_and_loose_whitespace(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(
        "# a 2x2 example\n"
        "2\n"
        "# extents follow\n"
        "2 2\n"
        "\n"
        "1.5   2.5\n"
        "# interleaved comment\n"
        "-3  4e0\n"
    )
    np.testing.assert_array_equal(read_tensor(p), [[1.5, 2.5], [-3.0, 4.0]])


def test_read_accepts_values_split_arbitrarily(tmp_path):
    # the grouping of values into lines carries no meaning
    p = tmp_path / "t.txt"
    p.write_text("2\n2 3\n1 2 3 4\n5\n6\n")
    assert read_tensor(p).shape == (2, 3)
    assert read_tensor(p)[1, 2] == 6.0


def _expect_error(tmp_path, text, match, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(TensorFormatError, match=match) as exc:
        read_tensor(p)
    assert exc.value.line == line


def test_read_rejects_non_integer_order(tmp_path):
    _expect_error(tmp_path, "x\n2 2\n1 2 3 4\n", "order must be an integer", 1)


def test_read_rejects_nonpositive_order(tmp_path):
    _expect_error(tmp_path, "0\n\n", "order must be >= 1", 1)


def test_read_rejects_bad_extent(tmp_path):
    _expect_error(tmp_path, "2\n2 two\n1 2 3 4\n", "extent must be an integer", 2)
    _expect_error(tmp_path, "2\n2 -1\n1 2\n", "extent must be >= 1", 2)


def test_read_rejects_bad_value_with_line_number(tmp_path):
    _expect_error(tmp_path, "# hdr\n2\n2 2\n1 2\n3 oops\n", "bad value 'oops'", 5)


def test_read_rejects_non_finite(tmp_path):
    _expect_error(tmp_path, "1\n3\n1 nan 3\n", "non-finite value", 3)
    _expect_error(tmp_path, "1\n2\ninf 0\n", "non-finite value", 3)


def test_read_rejects_truncated_file(tmp_path):
    _expect_error(tmp_path, "2\n2 2\n1 2 3\n", "unexpected end of file", 3)
    _expect_error(tmp_path, "3\n2 2\n", "unexpected end of file", 2)


def test_read_rejects_trailing_data(tmp_path):
    _expect_error(tmp_path, "1\n2\n1 2 3\n", "trailing data", 3)


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_tensor(tmp_path / "absent.txt")


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        write_tensor(np.array([1.0, np.inf]), tmp_path / "t.txt")


def test_write_rejects_scalar(tmp_path):
    with pytest.raises(ValueError, match="at least one mode"):
        write_tensor(np.float64(3.0), tmp_path / "t.txt")


def test_written_layout_is_c_order(tmp_path):
    p = tmp_path / "t.txt"
    write_tensor(np.arange(1.0, 9.0).reshape(2, 2, 2), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "3"
    assert lines[1] == "2 2 2"
    # last index fastest: rows of the trailing axis
    assert lines[2].split() == ["1.0", "2.0"]
    assert lines[3].split() == ["3.0", "4.0"]


# --- the I/O contract: exact bytes, exact round trip, exact errors ---

# every finite double, subnormals and -0.0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300,
            0.1, -1.0 / 3.0, 1e16, 1e-5, 123456789.125]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(shapes(min_dims=1, max_dims=4, max_side=4).flatmap(
    lambda s: arrays(np.float64, s, elements=any_finite)))
def test_round_trip_bit_exact_property(tmp_path_factory, t):
    p = tmp_path_factory.mktemp("rt") / "t.txt"
    write_tensor(t, p)
    back = read_tensor(p)
    assert back.dtype == np.float64
    assert back.shape == t.shape
    np.testing.assert_array_equal(_bits(back), _bits(t))


@pytest.mark.parametrize("shape", [(14,), (1,), (1, 1), (14, 1), (1, 14),
                                   (2, 1, 7), (1, 1, 1, 14)])
def test_round_trip_extremes_bit_exact(tmp_path, shape):
    t = np.array(EXTREMES).reshape(shape) if math.prod(shape) == 14 \
        else np.full(shape, -0.0)
    p = tmp_path / "t.txt"
    write_tensor(t, p)
    back = read_tensor(p)
    assert back.shape == shape
    np.testing.assert_array_equal(_bits(back), _bits(t))


def test_written_bytes_are_shortest_repr_rows(tmp_path):
    t = np.array(EXTREMES[:12]).reshape(2, 3, 2)
    p = tmp_path / "t.txt"
    write_tensor(t, p)
    want = "3\n2 3 2\n" + "".join(
        " ".join(repr(float(v)) for v in t[i, j]) + "\n"
        for i in range(2) for j in range(3))
    assert p.read_bytes() == want.encode("utf-8")
    assert b"0.0 -0.0\n5e-324 -5e-324\n" in p.read_bytes()


def test_written_bytes_one_way_and_extent_one(tmp_path):
    p = tmp_path / "t.txt"
    write_tensor([1.5, -0.0, 1e300], p)
    assert p.read_bytes() == b"1\n3\n1.5 -0.0 1e+300\n"
    write_tensor(np.full((2, 1), 0.25), p)
    assert p.read_bytes() == b"2\n2 1\n0.25\n0.25\n"
    write_tensor(np.array([[7]]), p)
    assert p.read_bytes() == b"2\n1 1\n7.0\n"


def _expect_exact(path, message, line):
    with pytest.raises(TensorFormatError) as exc:
        read_tensor(path)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, message, line", [
    # '#' starts a comment only at the start of a line; elsewhere it is a token
    ("1\n3\n1 2 # note\n", "bad value '#'", 3),
    ("2 # order\n2 2\n1 2 3 4\n", "extent must be an integer, got '#'", 1),
    ("1 #\n", "extent must be an integer, got '#'", 1),
    # comment and blank lines still count toward the line number
    ("# hdr\n2\n# c\n2 2\n1 2\n# mid\n\n   # indented\n3 x\n", "bad value 'x'", 9),
    ("1\n4\n1 2\n3\nz", "bad value 'z'", 5),
    ("1\n4\n1 2\n3\n4 5\n", "trailing data '5': expected exactly 4 values", 5),
    ("1\n2\n1\n# c\n\n2\n# d\n7\n", "trailing data '7': expected exactly 2 values", 8),
    ("1\n3\n1 1e999 3\n", "non-finite value '1e999'", 3),
    ("1\n3\n1 2\n-Infinity\n", "non-finite value '-Infinity'", 4),
    ("1\n3\n1 nan x\n", "non-finite value 'nan'", 3),
    ("1\n3\n1 x nan\n", "bad value 'x'", 3),
    # end of file reports the last line, trailing comments included
    ("2\n2 2\n1 2 3\n# end\n# more\n\n",
     "unexpected end of file, expected 4 values (got 3)", 6),
    ("3\n2 2\n# c\n", "unexpected end of file, expected 3 extents", 3),
    ("", "unexpected end of file, expected the tensor order N", 0),
    ("  \n\t\n", "unexpected end of file, expected the tensor order N", 2),
    ("# only a comment\n", "unexpected end of file, expected the tensor order N", 1),
    ("2.0\n2 2\n1 2 3 4\n", "tensor order must be an integer, got '2.0'", 1),
    ("-1\n", "tensor order must be >= 1, got -1", 1),
    ("2\n3 0\n", "extent must be >= 1, got 0", 2),
    # the first value that is not a finite float wins, across lines too
    ("1\n3\nnan\nx 2\n", "non-finite value 'nan'", 3),
    ("1\n3\nx\nnan 2\n", "bad value 'x'", 3),
    ("1\n99999999999999999999\n1 inf\n", "non-finite value 'inf'", 3),
    ("1 3 1 2 x\n", "bad value 'x'", 1),
    ("1\n2\n1e308 -1e309\n", "non-finite value '-1e309'", 3),
    # well formed, but more modes than any numpy allows (64 on numpy 2, 32 before)
    ("# c\n65\n" + "1 " * 65 + "\n5\n", "tensor order 65 is more modes than numpy allows", 2),
])
def test_read_error_message_and_line(tmp_path, text, message, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    _expect_exact(p, message, line)


def test_read_crlf_line_endings(tmp_path):
    p = tmp_path / "crlf.txt"
    p.write_bytes(b"# hdr\r\n2\r\n2 2\r\n1 2\r\n3 4\r\n")
    np.testing.assert_array_equal(read_tensor(p), [[1.0, 2.0], [3.0, 4.0]])
    p.write_bytes(b"2\r\n2 2\r\n1 2\r\n\r\n3 x\r\n")
    _expect_exact(p, "bad value 'x'", 5)
    p.write_bytes(b"2\r\n2 2\r\n1 2 3\r\n# end\r\n")
    _expect_exact(p, "unexpected end of file, expected 4 values (got 3)", 4)
    # a lone carriage return also ends a line
    p.write_bytes(b"1\r3\r1 2 y\r")
    _expect_exact(p, "bad value 'y'", 3)


def test_read_rejects_non_utf8_byte_with_its_line(tmp_path):
    p = tmp_path / "bytes.txt"
    p.write_bytes(b"1\n2\n1 \xff\n")
    _expect_exact(p, "not UTF-8 text: byte 0xff (invalid start byte)", 3)
    # the first undecodable byte wins over a bad token before it
    p.write_bytes(b"1\r\n2\r\nx\r\n\r\n# \xc3\x28\n")
    _expect_exact(p, "not UTF-8 text: byte 0xc3 (invalid continuation byte)", 5)
    # lone carriage returns end lines; a sequence cut off by the end of file
    p.write_bytes(b"1\r2\r1 2 \xe2\x82")
    _expect_exact(p, "not UTF-8 text: byte 0xe2 (unexpected end of data)", 3)
    # well-formed non-ASCII text is still read as before
    p.write_bytes("# caf\u00e9\n1\n2\n1 2\n".encode("utf-8"))
    np.testing.assert_array_equal(read_tensor(p), [1.0, 2.0])


def test_read_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf1\n2\n1 2\n")
    np.testing.assert_array_equal(read_tensor(p), [1.0, 2.0])
    # in front of a comment line, the mark does not hide the comment
    p.write_bytes(b"\xef\xbb\xbf# written by a BOM-emitting editor\n1\n2\n1 2\n")
    np.testing.assert_array_equal(read_tensor(p), [1.0, 2.0])
    # an error after the mark names the token without it, on line 1
    p.write_bytes(b"\xef\xbb\xbfx\n2\n1 2\n")
    _expect_exact(p, "tensor order must be an integer, got 'x'", 1)


def test_read_rejects_huge_declared_count_before_allocating(tmp_path):
    # 1e11 values cannot fit in a 20-byte file: same error as any short file
    p = tmp_path / "huge.txt"
    p.write_text("2\n100000 1000000\n1 2 3\n")
    tracemalloc.start()
    try:
        _expect_exact(p, "unexpected end of file, expected 100000000000 values (got 3)", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a bad token before the end still wins, as in a short file
    p.write_text("1\n99999999999999999999\n1 x\n")
    _expect_exact(p, "bad value 'x'", 3)


def test_write_rejects_zero_extent(tmp_path):
    # the one shape check of tensor_ops names the fault, as for unfold and hosvd
    for shape in [(0,), (2, 0), (0, 3, 1)]:
        with pytest.raises(ValueError, match=rf"^invalid shape {re.escape(repr(shape))}$"):
            write_tensor(np.zeros(shape), tmp_path / "t.txt")
    assert not (tmp_path / "t.txt").exists()


# arbitrary text from a tokenizer-hostile alphabet: unicode whitespace, lone
# carriage returns, '#' inside lines, underscores, non-ASCII digits
_soup = st.lists(st.sampled_from(
    ["0", "1", "2", "-1", "1.5", "x", "#", "# c", "nan", "1e999", "10000000000",
     " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ",
     " ", "　", "-0.0", "5e-324", "1_0", "+2", "٣"]),
    max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(_soup)
def test_read_outcome_is_an_array_or_a_located_format_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("soup") / "t.txt"
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        a = read_tensor(p)
    except TensorFormatError as e:
        with open(p, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert e.line is not None
        assert 0 <= e.line <= len(lines)
        # a token the message quotes is on the line the error names
        quoted = re.fullmatch(r"line \d+: (?:.* got|bad value|non-finite value|trailing data)"
                              r" ('.*'|\".*\")(?:: .*)?", str(e))
        if quoted:
            assert ast.literal_eval(quoted[1]) in lines[e.line - 1].split()
    else:
        assert a.dtype == np.float64 and a.size >= 1 and np.isfinite(a).all()
