"""The text of the floats in every document: `%.17g`, with ".0" appended
to an integral value that shows no exponent, so that it reads back as a
float.

`format_floats` gives that text through the %-format, for scalars and a
few values. `join_floats` renders a whole table or array without a Python
string per value: the 17 digits of each value with 1e-29 <= |v| < 1, all
but a handful of the rows of a bias or resistance table, are computed
from a double-double product v * 10**p rounded half to even, the few
other values go through `format_floats`, and the text is handed out one
block of rows at a time, so no buffer holds the whole of it. Both give
the same bytes.
"""
from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np


def check_finite(values: np.ndarray) -> None:
    """Raise ValueError unless every value is finite: no document holds
    NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite][0])
        raise ValueError(f"cannot serialize non-finite value {bad!r}")


def format_floats(values: Any) -> list[str]:
    """Text of each float in `values`: 17 significant digits, ".0" appended
    to an integral value that prints without an exponent, so it reads back
    as a float. The one float rule of every document; non-finite values
    raise ValueError. This is the %-format form of the rule, for scalars
    and for the rows `write_floats` does not compute itself: all values
    go through one %-format call, and only the integral ones, few in any
    document, are looked at one by one."""
    values = np.asarray(values, dtype=np.float64)
    check_finite(values)
    texts = ("%.17g," * values.size % tuple(values.tolist())).split(",")
    texts.pop()
    for i in np.flatnonzero(values == np.floor(values)).tolist():
        if "e" not in texts[i]:
            texts[i] += ".0"
    return texts


# Bytes of one float's text at most: "-1.2345678901234567e-308".
_FIELD = 24
# Rows per block of a table or array. A block's byte matrix and
# temporaries take a few hundred kB; one matrix for a whole 2**17-row table
# raised the peak RSS of a resist request from 79.5 to 126 MB.
_BLOCK_ROWS = 4096
# The ASCII digits of 00..99, little-endian, so that a uint8 view of a
# uint16 array of pairs reads the two digits in order; and of 0000..9999,
# in uint32, built from the pairs without a ufunc.
_PAIRS = np.array(
    [ord(str(i // 10)) | ord(str(i % 10)) << 8 for i in range(100)], dtype="<u2"
)
_QUADS = np.empty((100, 100, 2), "<u2")
_QUADS[:, :, 0] = _PAIRS[:, None]
_QUADS[:, :, 1] = _PAIRS
_QUADS = _QUADS.view("<u4").ravel()
# Veltkamp's splitter, 2**27 + 1: a double is the exact sum of two halves
# of at most 26 significant bits each, whose products are exact doubles.
_SPLITTER = 134217729.0


def _write_digits(numbers: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Write the last m groups of decimal digits of each number into the
    (n, m) view `groups`, uint16 for pairs or uint32 for fours; return
    the numbers above them."""
    table = _PAIRS if groups.itemsize == 2 else _QUADS
    for column in range(groups.shape[1] - 1, -1, -1):
        quotient = numbers // table.size
        groups[:, column] = table.take(numbers - table.size * quotient)
        numbers = quotient
    return numbers


def _split(x: Any) -> tuple[Any, Any]:
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


def _at_least(j: int) -> float:
    # The least double >= 10**-j; Python's int division rounds correctly.
    d = 1 / 10**j
    numerator, denominator = d.as_integer_ratio()
    return d if numerator * 10**j >= denominator else math.nextafter(d, 1.0)


# The computed rows have decimal exponents k = -29 .. -1 and are scaled by
# 10**p, p = 16 - k = 17 .. 45. As 10**p = 5**p * 2**p with 5**p < 2**106,
# each scale is an exact double-double high + low, low being 0 up to
# 10**22. Per p: high and its two halves; and low. Module-level tables
# are built from Python numbers, so importing the CLI touches no numpy
# ufunc.
_SCALES = tuple(
    np.array(column)
    for column in zip(*((float(10**p), *_split(float(10**p))) for p in range(17, 46)))
)
_SCALES_LOW = np.array([float(10**p - int(float(10**p))) for p in range(17, 46)])
# The least computed magnitude, the double above 1e-29 (which is below
# 10**-29), lies in the binade [2**-97, 2**-96). Per binade [2**e,
# 2**(e + 1)) from there to e = -1: the decade of 2**e, and the least
# double at or above the one power of ten inside the binade, or 1.0 if
# none is. A value a in the binade has decimal exponent
# _DECADE[e] + (a >= _EDGE[e]).
_LOWEST = _at_least(29)
_BINADES = range(-97, 0)
_DECADE = np.array([-len(str(2**-e - 1)) for e in _BINADES])
_EDGE = np.array(
    [
        _at_least(-1 - k) if 2 ** (-1 - e) < 10 ** (-1 - k) else 1.0
        for e, k in zip(_BINADES, _DECADE.tolist())
    ]
)
# Where low is not 0, the fraction of v * 10**p is found to within 2**-48:
# two roundings of sums below 32. Rows whose fraction lies within _GUARD,
# 256 times that, of one half take the %-format, exact ties among them.
_GUARD = 2.0**-40


def _scaled(
    a: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as its integer part (int64) and its fraction in
    [0, 1), and the rows where that fraction may round the wrong way. The
    scale is high + low. a * high is p1 + e1, with p1 its rounded double
    and e1 the rounding error (Dekker's TwoProduct); p1 is an integer,
    since every product here is at least 10**16 > 2**53. The fraction is
    that of e1, exact, for k >= -6, where low is 0. Below, it is that of
    e1 + a * low, to within 2**-48, and the rows returned are those whose
    fraction lies within `_GUARD` of one half."""
    i = -1 - k
    high, high_high, high_low = (table.take(i) for table in _SCALES)
    a_high, a_low = _split(a)
    p1 = a * high
    rest = a_low * high_low - (
        ((p1 - a_high * high_high) - a_low * high_high) - a_high * high_low
    )
    inexact = np.flatnonzero(k < -6)
    if inexact.size:
        rest[inexact] += a[inexact] * _SCALES_LOW.take(i[inexact])
    floor = np.floor(rest)
    frac = rest - floor
    unsure = inexact[np.abs(frac[inexact] - 0.5) < _GUARD]
    return p1.astype(np.int64) + floor.astype(np.int64), frac, unsure


def _round_half_even(
    whole: np.ndarray, frac: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """whole + frac rounded to an integer, ties to even, as `%.17g` rounds.
    A carry to 10**17 gives 10**16 at exponent k + 1."""
    r = whole + ((frac > 0.5) | ((frac == 0.5) & (whole & 1 == 1)))
    carry = r == 10**17
    return np.where(carry, 10**16, r), k + carry


# The text of a computed row is a selection of its 24 bytes, d being the
# number of its 17 digits left when trailing zeros are dropped.
# - Fixed notation, k >= -4: the bytes are "-0.000", a pad, and the 17
#   digits. The text is the sign when negative, "0.", z = -1 - k zeros,
#   and the first d digits.
# - Exponent notation, k <= -5: the bytes are "-", the first digit, ".",
#   a pad, the other 16 digits, and "e-XX". The text is the sign when
#   negative, the first digit, "." unless d is 1, the next d - 1 digits,
#   and "e-XX".
# The 17 digits are written as the first and four groups of four, into
# columns 7 .. 23; exponent rows then move the last 16 to columns 4 .. 19.
_TEMPLATE = np.frombuffer(b"-0.000\0\0", np.uint8)  # and the first digit's place
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % j for j in range(30)), np.uint8)
_EXPONENTS = _EXPONENTS.reshape(30, 4)


def _keep(sign: int, form: int, d: int) -> list[int]:
    # The bytes a row keeps (0xFF) and drops (0): fixed notation with
    # `form` zeros after the point, or exponent notation for form 4.
    if form < 4:
        body = [0xFF] * (2 + form) + [0] * (4 - form) + [0xFF] * d + [0] * (17 - d)
    else:
        after = max(d - 1, 0)  # digits after the first
        body = [0xFF, 0xFF * (d > 1), 0] + [0xFF] * after + [0] * (16 - after)
        body += [0xFF] * 4
    return [0xFF * sign] + body


# Row (5 * sign + form) * 18 + d of _KEEP.
_KEEP = np.array(
    [_keep(s, f, d) for s in range(2) for f in range(5) for d in range(18)],
    dtype=np.uint8,
)
# Word 5 * sign + form of _PREFIX: the first 8 bytes of a row that keeps
# all 17 digits, as one little-endian uint64, the template masked by its
# row of _KEEP; the first digit is written over its last byte. Only a row
# whose 17 digits end in "0" drops more, about a tenth of the rows.
_PREFIX = (_TEMPLATE & _KEEP[17::18, :8]).view("<u8").ravel()


# The ASCII "0" in every byte of a uint64 word: XOR-ed with it, each digit
# byte holds its digit, and a "0" is a zero byte.
_ZEROS = np.uint64(0x3030303030303030)


def _trailing_zeros(words: np.ndarray) -> np.ndarray:
    """The number of "0" digits that end the 16 digits of each row of
    `words`, their two little-endian uint64 words of eight ASCII digits.
    A word's zero bytes at the end of its text are its high zero bytes,
    (64 - bit length) // 8 of them. The bit length is the exponent that
    np.frexp gives: a word's top byte holds a digit, at most 9, so rounding
    it to a double moves its bit length by at most one place, within the
    same byte."""
    _, bits = np.frexp(np.bitwise_xor(words, _ZEROS).astype(np.float64))
    zeros = (64 - bits) >> 3
    return zeros[:, 1] + (zeros[:, 1] == 8) * zeros[:, 0]


def write_floats(values: np.ndarray, out: np.ndarray) -> None:
    """Write the text `format_floats` gives each value into the
    (n, _FIELD) uint8 rows of `out`, NUL wherever a byte is dropped; the
    bytes that are not NUL, in order, are the text.

    A value with 10**-29 <= |v| < 1, all but a handful of the rows of a
    bias or resistance table, prints from the 17 digits of
    |v| * 10**(16 - k) rounded half to even, k being its decimal exponent:
    as "0.", the zeros after the point and the digits for k >= -4, and as
    "d.dddddddddddddddde-XX" below. Those digits are computed, not
    formatted. Each row's sign and notation come from a word of `_PREFIX`,
    and only the rows whose digits end in "0" are masked with a row of
    `_KEEP`, to drop their trailing zeros. Every other row takes the
    %-format of `format_floats`: zero, subnormals, |v| < 10**-29,
    |v| >= 1, non-finite values, rows that round up to 1, and rows below
    10**-6 whose scaled fraction lies within `_GUARD` of one half."""
    magnitude = np.abs(values)
    computed = (magnitude >= _LOWEST) & (magnitude < 1.0)
    a = np.where(computed, magnitude, 0.5)  # other rows are overwritten below
    binade = (a.view(np.int64) >> 52) - (1023 + _BINADES[0])  # from the exponent bits
    k = _DECADE.take(binade) + (a >= _EDGE.take(binade))
    whole, frac, unsure = _scaled(a, k)
    computed[unsure] = False
    r, k = _round_half_even(whole, frac, k)
    computed &= k < 0
    # Rows that are not computed are overwritten below, whatever row of
    # _PREFIX and _KEEP they select; "clip" keeps a row carried to k = 0
    # in range.
    prefix = (values < 0) * 5 + np.minimum(-1 - k, 4)
    out.view("<u8")[:, 0] = _PREFIX.take(prefix, mode="clip")
    out[:, 7] = _write_digits(r, out.view("<u4")[:, 2:]) + ord("0")
    ends = np.flatnonzero(out[:, _FIELD - 1] == ord("0"))
    trailing = _trailing_zeros(out.view("<u8")[ends, 1:])
    small = np.flatnonzero(k < -4)
    if small.size:  # move them into exponent notation
        moved = out[small]
        moved[:, 1] = moved[:, 7]
        moved[:, 2] = ord(".")
        moved[:, 4:20] = moved[:, 8:]
        moved[:, 20:] = _EXPONENTS[-k[small]]
        out[small] = moved
    row = prefix.take(ends) * 18 + 17 - trailing
    out[ends] &= _KEEP.take(row, axis=0, mode="clip")
    rest = np.flatnonzero(~computed)
    if rest.size:
        texts = np.array(format_floats(values[rest]), dtype=f"S{_FIELD}")
        out[rest] = texts.view(np.uint8).reshape(rest.size, _FIELD)


def join_floats(values: Any, indexed: bool) -> Iterator[str]:
    """The text "[v1, v2, ...]", or "[[1, v1], [2, v2], ...]" when
    `indexed`, with each v in the text of `format_floats`, as one str per
    block of `_BLOCK_ROWS` rows. Every value is checked to be finite before
    this returns, so a caller that writes the blocks as they come has
    written nothing when a value is refused."""
    values = np.asarray(values, dtype=np.float64)
    check_finite(values)
    return _blocks(values, indexed)


def _blocks(values: np.ndarray, indexed: bool) -> Iterator[str]:
    # Each block of rows is written into one byte matrix, NUL for every
    # dropped byte, backed by a bytearray whose NULs one `translate`
    # deletes. Digits are written in groups through uint16 and uint32
    # views, so the x digits and each float's field start at an even
    # column of a row of even width.
    n = values.size
    if n == 0:
        yield "[]"
        return
    x_width = -(-len(str(n)) // 2) * 2 if indexed else 0
    start = 4 + x_width if indexed else 0
    tail = b"], \0" if indexed else b", "
    width = start + _FIELD + len(tail)
    # Every byte of a block's rows is written, so one matrix serves all.
    buffer = bytearray(min(n, _BLOCK_ROWS) * width)
    matrix = np.frombuffer(buffer, np.uint8).reshape(-1, width)
    if indexed:  # NUL "[" x ", " v "], " NUL, x in an even number of columns
        matrix[:, :2] = np.frombuffer(b"\0[", np.uint8)
        matrix[:, start - 2 : start] = np.frombuffer(b", ", np.uint8)
    matrix[:, start + _FIELD :] = np.frombuffer(tail, np.uint8)
    for first in range(0, n, _BLOCK_ROWS):
        block = values[first : first + _BLOCK_ROWS]
        rows = matrix[: block.size]
        if indexed:
            # uint32, as no table comes near 2**32 rows: it divides by a
            # scalar several times faster than int64.
            x = np.arange(first + 1, first + block.size + 1, dtype=np.uint32)
            _write_digits(x, rows[:, 2 : 2 + x_width].view("<u2"))
            # x runs up one by one, so each width of x is one run of rows.
            for digits in range(1, x_width):
                short = 10**digits - 1 - first  # rows with x < 10**digits
                rows[: max(short, 0), 2 : 2 + x_width - digits] = 0
        write_floats(block, rows[:, start : start + _FIELD])
        # Only a short last block does not fill the buffer.
        filled = buffer if rows.size == len(buffer) else buffer[: rows.size]
        text = filled.translate(None, b"\0")
        if first == 0:
            text[:0] = b"["
        if first + block.size == n:
            text[-2:] = b"]"  # in place of the last row's ", "
        yield text.decode("ascii")
