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
the same bytes. The last four digits come from a table without their
trailing zeros, so only rows whose digits end in 0000 take a mask.
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
# in uint32, built from the pairs without a ufunc. _TRIM is _QUADS with
# the trailing "0"s of 1..9999 set to NUL, for the last four of 17 digits.
_PAIRS = np.array(
    [ord(str(i // 10)) | ord(str(i % 10)) << 8 for i in range(100)], dtype="<u2"
)
_QUADS = np.empty((100, 100, 2), "<u2")
_QUADS[:, :, 0] = _PAIRS[:, None]
_QUADS[:, :, 1] = _PAIRS
_QUADS = _QUADS.view("<u4").ravel()
_TRIM = _QUADS.copy().view(np.uint8).reshape(-1, 4)
_TRIM[10::10, 3] = _TRIM[100::100, 2] = _TRIM[1000::1000, 1] = 0
_TRIM = _TRIM.view("<u4").ravel()
# Veltkamp's splitter, 2**27 + 1: a double is the exact sum of two halves
# of at most 26 significant bits each, whose products are exact doubles.
_SPLITTER = 134217729.0


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
# none is. Both are indexed by the biased exponent 1023 + e, the top bits
# of a, and their first 926 entries are never read. A value a in the
# binade has decimal exponent _DECADE[1023 + e] + (a >= _EDGE[1023 + e]).
_LOWEST = _at_least(29)
_BINADES = range(-97, 0)
_DECADES = [-len(str(2**-e - 1)) for e in _BINADES]
_DECADE = np.array([0] * (1023 - 97) + _DECADES)
_EDGE = np.array(
    [1.0] * (1023 - 97)
    + [
        _at_least(-1 - k) if 2 ** (-1 - e) < 10 ** (-1 - k) else 1.0
        for e, k in zip(_BINADES, _DECADES)
    ]
)
# Where low is not 0, the fraction of v * 10**p is found to within 2**-48:
# two roundings of sums below 32. Rows whose fraction lies within _GUARD,
# 256 times that, of one half take the %-format, exact ties among them.
_GUARD = 2.0**-40
# The least fraction that rounds up, for an even and an odd integer part.
_HALF = np.array([math.nextafter(0.5, 1.0), 0.5])


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
    A carry to 10**17 gives 10**16, and k + 1 in place of k."""
    r = whole + (frac >= _HALF.take(whole & 1))
    carry = np.flatnonzero(r == 10**17)
    r[carry] = 10**16
    k[carry] += 1
    return r, k


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
# columns 7 .. 23; exponent rows then move the first to column 1 and the
# last 16 to columns 4 .. 19, and take "e-XX" as _EXPONENTS[k], k < 0.
_TEMPLATE = np.frombuffer(b"-0.000\0\0", np.uint8)  # and the first digit's place
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % (30 - j) for j in range(30)), "<u4")


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
# row of _KEEP; the first digit is written over its last byte. The last
# four digits come from _TRIM, their trailing zeros dropped, so only a row
# whose digits end in 0000, about 1 in 10**4, is masked to drop more.
_PREFIX = (_TEMPLATE & _KEEP[17::18, :8]).view("<u8").ravel()
# 10**1 .. 10**12: the zeros that end the first 13 of a row's 17 digits.
_TENS = np.array([10**j for j in range(1, 13)])


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
    its last four digits from `_TRIM`, which drops their trailing zeros,
    and only the rows whose digits end in 0000 are masked with a row of
    `_KEEP`, to drop the zeros before them. Every other row takes the
    %-format of `format_floats`: zero, subnormals, |v| < 10**-29,
    |v| >= 1, non-finite values, and rows below 10**-6 whose scaled
    fraction lies within `_GUARD` of one half."""
    magnitude = np.abs(values)
    computed = (magnitude >= _LOWEST) & (magnitude < 1.0)
    a = np.where(computed, magnitude, 0.5)  # other rows are overwritten below
    binade = a.view(np.int64) >> 52  # 1023 + e, as a is positive
    k = _DECADE.take(binade) + (a >= _EDGE.take(binade))
    whole, frac, unsure = _scaled(a, k)
    computed[unsure] = False
    # No double below 1 rounds up to 1 in 17 digits, so k stays below 0.
    # Rows that are not computed are overwritten below, whatever row of
    # _PREFIX and _KEEP they select.
    r, k = _round_half_even(whole, frac, k)
    prefix = (values < 0) * 5 + np.minimum(-1 - k, 4)
    out.view("<u8")[:, 0] = _PREFIX.take(prefix)
    high = r // 10**4
    last = r - 10**4 * high
    quads = out.view("<u4")[:, 2:]
    quads[:, 3] = _TRIM.take(last)
    numbers = high
    for column in (2, 1, 0):  # uint32 below 10**9, as it divides faster
        quotient = numbers // 10**4
        quads[:, column] = _QUADS.take(numbers - 10**4 * quotient)
        numbers = quotient.astype(np.uint32, copy=False)
    out[:, 7] = numbers + ord("0")
    small = np.flatnonzero(k < -4)
    if small.size:  # into exponent notation; their prefix holds the "."
        out[small, 1] = out[small, 7]
        words = out.view("<u4")
        words[small, 1:5] = words[small, 2:]
        words[small, 5] = _EXPONENTS.take(k.take(small))
    ends = np.flatnonzero(last == 0)
    if ends.size:  # digits ending in 0000: drop the zeros before those too
        d = 13 - (high[ends, None] % _TENS == 0).sum(axis=1)
        out[ends] &= _KEEP.take(prefix.take(ends) * 18 + d, axis=0)
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
        # x's last four digits, or two below 100, and a pair or a four above
        # them, one byte per digit: tables of fewer than 10**8 rows.
        low = _QUADS if x_width > 2 else _PAIRS
        top = _PAIRS if x_width % 4 else _QUADS
        low_digits = matrix[:, start - 2 - low.itemsize : start - 2].view(low.dtype)
        top_digits = matrix[:, 2 : 2 + top.itemsize].view(top.dtype)
    matrix[:, start + _FIELD :] = np.frombuffer(tail, np.uint8)
    for first in range(0, n, _BLOCK_ROWS):
        block = values[first : first + _BLOCK_ROWS]
        rows = matrix[: block.size]
        if indexed:
            # x runs up one by one: over a run of equal x // low.size, its
            # last digits are a slice of `low` and those above one of `top`.
            x, last = first + 1, first + block.size
            while x <= last:
                end = min(last, x - x % low.size + low.size - 1)
                run = slice(x - 1 - first, end - first)
                low_digits[run, 0] = low[x % low.size : end % low.size + 1]
                if x_width > low.itemsize:
                    top_digits[run, 0] = top[x // low.size]
                x = end + 1
            # Each width of x is one run of rows.
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
