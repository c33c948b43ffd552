"""The text of the floats in every document: `%.17g`, with ".0" appended
to an integral value that shows no exponent, so that it reads back as a
float.

`format_floats` gives that text through the %-format, for scalars and a
few values. `join_floats` renders a whole table or array without a Python
string per value: the 17 digits of each value in [1e-4, 1), the bulk of a
bias or resistance table, are computed from an exact double-double
product v * 10**p (Dekker's TwoProduct) rounded half to even, the few
other values go through `format_floats`, and each block of rows goes into
one byte buffer that is decoded once. Both give the same bytes.
"""
from __future__ import annotations

from typing import Any

import numpy as np


def format_floats(values: Any) -> list[str]:
    """Text of each float in `values`: 17 significant digits, ".0" appended
    to an integral value that prints without an exponent, so it reads back
    as a float. The one float rule of every document; non-finite values
    raise ValueError. This is the %-format form of the rule, for scalars
    and for the rows `write_floats` does not compute itself: all values
    go through one %-format call, and only the integral ones, few in any
    document, are looked at one by one."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite][0])
        raise ValueError(f"cannot serialize non-finite value {bad!r}")
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
# uint16 array of pairs reads the two digits in order.
_PAIRS = np.array(
    [ord(str(i // 10)) | ord(str(i % 10)) << 8 for i in range(100)], dtype="<u2"
)
# Veltkamp's splitter, 2**27 + 1: a double is the exact sum of two halves
# of at most 26 significant bits each, whose products are exact doubles.
_SPLITTER = 134217729.0


def _write_pairs(numbers: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Write the last 2 * m decimal digits of each number into the (n, m)
    uint16 view `pairs`, two at a time; return the numbers above them."""
    for column in range(pairs.shape[1] - 1, -1, -1):
        quotient = numbers // 100
        pairs[:, column] = _PAIRS[numbers - 100 * quotient]
        numbers = quotient
    return numbers


def _split(x: Any) -> tuple[Any, Any]:
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


# 10**17 .. 10**20, the scales 10**(16 - k) for decimal exponents k = -1 ..
# -4; each is an exact double. Module-level tables are built from Python
# numbers, so importing the CLI touches no numpy ufunc.
_SCALES = np.array([10.0**p for p in range(17, 21)])
_SCALES_HIGH, _SCALES_LOW = np.array([_split(10.0**p) for p in range(17, 21)]).T


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) exactly, as its integer part (int64) and its
    fraction in [0, 1). The product is hi + lo, with hi its rounded double
    and lo the rounding error (Dekker's TwoProduct); hi is an integer,
    since every product here is at least 10**16 > 2**53."""
    i = -1 - k
    scale, s_high, s_low = _SCALES[i], _SCALES_HIGH[i], _SCALES_LOW[i]
    a_high, a_low = _split(a)
    hi = a * scale
    lo = a_low * s_low - (((hi - a_high * s_high) - a_low * s_high) - a_high * s_low)
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor


def _round_half_even(
    whole: np.ndarray, frac: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """whole + frac rounded to an integer, ties to even, as `%.17g` rounds.
    A carry to 10**17 gives 10**16 at exponent k + 1."""
    r = whole + ((frac > 0.5) | ((frac == 0.5) & (whole & 1 == 1)))
    carry = r == 10**17
    return np.where(carry, 10**16, r), k + carry


# The fixed-notation text of a value with 1e-4 <= |v| < 1 is a selection
# of the 24 bytes "-0.000", a pad byte, and 17 digits: the sign when
# negative, "0.", z = -1 - k zeros for the decimal exponent k, and the
# first d digits, d being 17 less the trailing zeros. The pad puts the
# last 16 digits, written in pairs, at even columns.
_TEMPLATE = np.frombuffer(b"-0.000\0", np.uint8)
# Row (4 * sign + z) * 18 + d of _KEEP keeps (0xFF) the bytes of that
# text and drops (0) the others.
_KEEP = np.array(
    [
        [0xFF * sign] + [0xFF] * (2 + z) + [0] * (4 - z) + [0xFF] * d + [0] * (17 - d)
        for sign in range(2)
        for z in range(4)
        for d in range(18)
    ],
    dtype=np.uint8,
)


def write_floats(values: np.ndarray, out: np.ndarray) -> None:
    """Write the text `format_floats` gives each value into the
    (n, _FIELD) uint8 rows of `out`, NUL wherever a byte is dropped; the
    bytes that are not NUL, in order, are the text.

    A value with 1e-4 <= |v| < 1, the bulk of a bias or resistance table,
    prints as "0.", the zeros after the point, and the 17 digits of
    |v| * 10**(16 - k) rounded half to even, k being its decimal exponent.
    Those digits are computed, not formatted, and the bytes of the row
    that its text does not use are masked off with a row of `_KEEP`.
    Every other row (zero, subnormals, |v| < 1e-4, |v| >= 1, non-finite,
    or a row that rounds up to 1) takes the %-format of `format_floats`."""
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1.0)
    a = np.where(fixed, magnitude, 0.5)  # other rows are overwritten below
    # The doubles 1e-4, 0.001, 0.01 and 0.1 each lie above the power of ten
    # they stand for, so no double falls between the two and these exact
    # comparisons give the decade: whole is in [10**16, 10**17).
    k = (-1 - (a < 0.1) - (a < 0.01) - (a < 0.001)).astype(np.int64)
    r, k = _round_half_even(*_scaled(a, k), k)
    fixed &= k < 0
    out[:, :7] = _TEMPLATE
    out[:, 7] = _write_pairs(r, out.view("<u2")[:, 4:]) + ord("0")
    trailing = np.argmax(out[:, :6:-1] != ord("0"), axis=1)
    row = ((values < 0) * 4 - 1 - k) * 18 + 17 - trailing
    # Rows that are not fixed are overwritten below, whatever row of _KEEP
    # they select; "clip" keeps a row carried to k = 0 in range.
    out &= _KEEP.take(row, axis=0, mode="clip")
    rest = np.flatnonzero(~fixed)
    if rest.size:
        texts = np.array(format_floats(values[rest]), dtype=f"S{_FIELD}")
        out[rest] = texts.view(np.uint8).reshape(rest.size, _FIELD)


def join_floats(values: Any, indexed: bool) -> str:
    """"[v1, v2, ...]", or "[[1, v1], [2, v2], ...]" when `indexed`, with
    each v in the text of `format_floats`. Each block of rows is written
    into one byte matrix, NUL for every dropped byte, then compressed and
    appended to one buffer, which is decoded once. Digit pairs are written
    through uint16 views, so the x digits and each float's field start at
    an even column of a row of even width."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return "[]"
    x_width = -(-len(str(n)) // 2) * 2 if indexed else 0
    start = 4 + x_width if indexed else 0
    tail = b"], \0" if indexed else b", "
    width = start + _FIELD + len(tail)
    # Every byte of a block's rows is written, so one matrix serves all.
    matrix = np.empty((min(n, _BLOCK_ROWS), width), np.uint8)
    if indexed:  # NUL "[" x ", " v "], " NUL, x in an even number of columns
        matrix[:, :2] = np.frombuffer(b"\0[", np.uint8)
        matrix[:, start - 2 : start] = np.frombuffer(b", ", np.uint8)
    matrix[:, start + _FIELD :] = np.frombuffer(tail, np.uint8)
    buffer = np.empty(2 + n * width, np.uint8)
    buffer[0] = ord("[")
    end = 1
    for first in range(0, n, _BLOCK_ROWS):
        block = values[first : first + _BLOCK_ROWS]
        rows = matrix[: block.size]
        if indexed:
            x = np.arange(first + 1, first + block.size + 1)
            _write_pairs(x, rows[:, 2 : 2 + x_width].view("<u2"))
            # x runs up one by one, so each width of x is one run of rows.
            for digits in range(1, x_width):
                short = 10**digits - 1 - first  # rows with x < 10**digits
                rows[: max(short, 0), 2 : 2 + x_width - digits] = 0
        write_floats(block, rows[:, start : start + _FIELD])
        text = rows[rows != 0]
        buffer[end : end + text.size] = text
        end += text.size
    end -= 2  # the last row's ", "
    buffer[end] = ord("]")
    return str(memoryview(buffer[: end + 1]), "ascii")
