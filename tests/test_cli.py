import argparse
import cmath
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import zqhash
from zqhash import analysis, cli, floattext, hashing, search, verification
from zqhash.analysis import ResistanceReport
from zqhash.cli import REPORT_SCHEMA, dumps_report, main, parse_residues
from zqhash.hashing import MAX_MODULUS
from zqhash.verification import MAX_VERIFY_WORK, CheckResult, _verify_work


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    document = json.loads(out)
    jsonschema.validate(document, REPORT_SCHEMA)
    return document, err


class TestSerialization:
    def test_floats_round_trip(self):
        document = {
            "schema_version": "1",
            "command": "bias",
            "inputs": {"values": [1.0, 0.1, 6.123233995736766e-17, -0.25]},
            "outputs": {"nested": {"v": 0.7071067811865476}},
            "timing_seconds": 0.0314159,
        }
        parsed = json.loads(dumps_report(document))
        assert parsed == document
        assert isinstance(parsed["inputs"]["values"][0], float)

    def test_seventeen_digit_floats(self):
        text = dumps_report(
            {
                "schema_version": "1",
                "command": "bias",
                "inputs": {},
                "outputs": {"epsilon": 0.7071067811865476},
                "timing_seconds": 0.0,
            }
        )
        assert "0.70710678118654757" in text

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_report(
                {
                    "schema_version": "1",
                    "command": "bias",
                    "inputs": {},
                    "outputs": {"bad": math.inf},
                    "timing_seconds": 0.0,
                }
            )


def scalar_rule(value):
    # Reference for the array formatter, one value at a time: 17
    # significant digits, ".0" when neither "e" nor "." shows.
    text = format(value, ".17g")
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def table_oracle(values):
    # A table one value at a time: each through `scalar_rule`, then one
    # "[%d, %s]" per row.
    texts = [scalar_rule(value) for value in np.asarray(values).tolist()]
    pairs = [None] * (2 * len(texts))
    pairs[0::2] = range(1, len(texts) + 1)
    pairs[1::2] = texts
    return "[" + ", ".join(["[%d, %s]"] * len(texts)) % tuple(pairs) + "]"


def array_oracle(values):
    # The same for a plain array of floats, such as the amplitudes.
    texts = [scalar_rule(value) for value in np.asarray(values).tolist()]
    return "[" + ", ".join(texts) + "]"


def kernel_texts(values):
    # The text `write_floats` gives each value: the bytes of its row that
    # are not NUL.
    values = np.asarray(values, dtype=np.float64)
    out = np.full((values.size, floattext._FIELD), 0xAA, np.uint8)
    floattext.write_floats(values, out)
    return [row[row != 0].tobytes().decode("ascii") for row in out]


def in_guard_band(value):
    # Whether the 17-digit scaling of `value` is at an inexact scale,
    # k <= -7, with a fraction within the kernel's guard band of one half.
    k = Decimal(value).adjusted()
    scaled = abs(Fraction(value)) * Fraction(10) ** (16 - k)
    fraction = scaled - math.floor(scaled)
    return k <= -7 and abs(fraction - Fraction(1, 2)) < floattext._GUARD


def float_bits(patterns):
    # Raw 64-bit patterns viewed as float64, non-finite ones dropped.
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def neighbours(value, steps):
    # `value` and `steps` doubles on each side of it.
    below = above = value
    out = [value]
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Any 64-bit pattern; and patterns with a biased exponent in [1009, 1022],
# which are the doubles with 2**-14 <= |v| < 1: the fixed-notation rows.
any_bits = st.integers(0, 2**64 - 1)
fixed_bits = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(1009, 1022),
    st.integers(0, 2**52 - 1),
)
# Patterns with a biased exponent in [926, 1009], the doubles with
# 2**-97 <= |v| < 2**-13: the exponent-notation rows from 1e-29 up to 1e-4.
small_bits = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(926, 1009),
    st.integers(0, 2**52 - 1),
)
# Patterns within 3,000 doubles of a power of ten from 1e-29 to 1, either
# sign: the decade edges of the computed rows.
POWERS_OF_TEN = np.array([10.0**p for p in range(-29, 1)])
near_powers = st.builds(
    lambda sign, power, step: sign << 63 | power + step,
    st.integers(0, 1),
    st.sampled_from(POWERS_OF_TEN.view(np.uint64).tolist()),
    st.integers(-3000, 3000),
)
# Short decimals m * 10**-e, either sign, with |v| in [10**-29, 1): the
# nearest double prints m's digits and then zeros, but for a last digit or
# two of rounding. m below 10**13 leaves four or more zeros, and below
# 10**16 one to three, so both the `_TRIM` groups and the rows masked to
# drop more meet trailing zeros.
short_decimals = st.builds(
    lambda sign, m, e: sign * float(f"{m}e-{len(str(m)) + e}"),
    st.sampled_from([1, -1]),
    st.integers(1, 10**13 - 1) | st.integers(10**13, 10**16 - 1),
    st.integers(0, 28),
)


def trailing_zeros(value):
    # The "0"s that end the 17 significant digits of `value`.
    digits = ("%.16e" % value).split("e")[0].replace(".", "")
    return len(digits) - len(digits.rstrip("0"))


def check_short_decimals():
    # Runs the kernel on drawn lists of short decimals; returns the
    # trailing-zero counts of every row drawn.
    seen = set()

    @given(st.lists(short_decimals, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def check(values):
        values = np.asarray(values, dtype=np.float64)
        assert kernel_texts(values) == [scalar_rule(v) for v in values.tolist()]
        seen.update(trailing_zeros(v) for v in values.tolist())

    check()
    return seen


# Doubles printed as a power of ten that they are below: 17 digits round
# them up into the next decade. None lies in [1e-4, 1).
ROUND_UP_TO_POWER = [1e-305, 1e-79, 1e-14, 1e98, 1e220]
# Exact ties: m / 2**j with m odd has j decimals, so 18 significant digits
# ending in 5 when 10**(17 - j) <= v < 10**(18 - j). One decade each of
# [1e-4, 1), the third one negated.
TIES = [
    np.arange(26215, 1 << 18, 2) / 2.0**18,
    np.arange(5243, 52429, 2) / 2.0**19,
    -np.arange(1049, 10486, 2) / 2.0**20,
    np.arange(211, 2098, 2) / 2.0**21,
]
# Exact ties where the scale 10**(16 - k) is not a double, k <= -7:
# m / 2**(17 - k) with m odd, which exist for k = -7 and -8 only. The
# kernel finds these fractions to within 2**-48, so it sends them to the
# %-format.
INEXACT_TIES = [m / 2.0**24 for m in range(3, 16, 2)] + [1 / 2.0**25, 3 / 2.0**25]

# A stand-in for numpy inside `floattext` that holds the array type only,
# so that any numpy call fails.
NO_NUMPY = types.SimpleNamespace(ndarray=np.ndarray)

FORMAT_CASES = [
    0.0, -0.0, 1.0, -1.0, 2.0**60, 1e16, -1e16, 1e17, 5e-324,
    6.123233995736766e-17, 0.7071067811865476, 2.0**53 + 2, 4503599627370495.5,
    2.0**53, 1.7976931348623157e308, 0.1,
]


class TestFloatFormatter:
    @given(finite_floats)
    @settings(max_examples=500, deadline=None)
    def test_matches_scalar_rule(self, value):
        assert floattext.format_floats(np.array([value])) == [scalar_rule(value)]

    @given(st.lists(finite_floats | st.sampled_from(FORMAT_CASES), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_rule_entrywise(self, values):
        texts = floattext.format_floats(np.array(values, dtype=np.float64))
        assert texts == [scalar_rule(v) for v in values]
        assert [float(t) for t in texts] == values

    @pytest.mark.parametrize("value", FORMAT_CASES)
    def test_explicit_cases(self, value):
        # In an array, and as `cli._fragment` and the timing field pass a
        # scalar: a Python float.
        (text,) = floattext.format_floats(np.array([value]))
        assert [text] == floattext.format_floats((value,)) == [scalar_rule(value)]
        assert math.copysign(1.0, float(text)) == math.copysign(1.0, value)

    def test_calls_no_numpy_function(self, monkeypatch):
        values = [0.5, -0.0, 1.0, 1e17, 3e-31, -2.0**60, 123.0]
        array = np.array(values)
        expected = [scalar_rule(value) for value in values]
        monkeypatch.setattr(floattext, "np", NO_NUMPY)
        assert floattext.format_floats(values) == expected
        assert floattext.format_floats(array) == expected
        assert floattext.format_floats(()) == []

    def test_negative_zero_keeps_its_sign_and_point(self):
        assert floattext.format_floats(np.array([-0.0, 0.0, 1e16])) == [
            "-0.0", "0.0", "10000000000000000.0",
        ]

    def test_table_layout(self):
        table = cli._Table(np.array([0.5, 1.0, -0.0]))
        text = dumps_report({"outputs": {"table": table}})
        assert '"table": [[1, 0.5], [2, 1.0], [3, -0.0]]' in text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_table(self, bad):
        table = cli._Table(np.array([0.5, bad, 0.25]))
        with pytest.raises(ValueError, match="non-finite"):
            dumps_report({"outputs": {"table": table}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_report({"outputs": {"amplitudes": np.array([bad, 1.0])}})


class TestFloatKernel:
    @given(st.lists(any_bits | fixed_bits | small_bits | near_powers, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_raw_bit_patterns_match_scalar_rule(self, patterns):
        values = float_bits(patterns)
        assert kernel_texts(values) == [scalar_rule(v) for v in values.tolist()]

    @pytest.mark.parametrize(
        "values",
        [
            *TIES,
            [v for p in range(-6, 2) for v in neighbours(10.0**p, 8)],
            [-v for p in range(-6, 2) for v in neighbours(10.0**p, 8)],
            neighbours(1e-4, 30) + neighbours(1.0, 30),
            ROUND_UP_TO_POWER + [-v for v in ROUND_UP_TO_POWER],
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310],
            INEXACT_TIES + [-v for v in INEXACT_TIES],
            [v for p in range(-31, -6) for v in neighbours(10.0**p, 8)],
            [-v for v in neighbours(1e-29, 30) + neighbours(1.5e-5, 4)],
            [1.5e-5, 1.25e-10, 1.5e-99, -1.5e-100, 1.25e-300, 9.5e-30, 2.5e-29],
        ],
        ids=[
            "ties-18", "ties-19", "ties-20", "ties-21",
            "powers-of-ten", "negative-powers-of-ten", "edges", "round-up",
            "zero-subnormal", "inexact-ties", "small-powers-of-ten",
            "small-edges", "exponent-widths",
        ],
    )
    def test_explicit_cases_match_scalar_rule(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert kernel_texts(values) == [scalar_rule(v) for v in values.tolist()]

    def test_short_decimals_match_scalar_rule(self):
        seen = check_short_decimals()
        assert max(seen) >= 4  # digits that end in 0000 take the _KEEP mask
        assert {1, 2, 3} <= seen  # the last four digits drop their own zeros

    def test_a_trim_table_that_keeps_a_zero_fails(self, monkeypatch):
        # _TRIM with the last "0" of 10, 20, ..., 9990 kept.
        trim = floattext._TRIM.copy()
        trim.view(np.uint8).reshape(-1, 4)[10::10, 3] = ord("0")
        monkeypatch.setattr(floattext, "_TRIM", trim)
        with pytest.raises(AssertionError):
            check_short_decimals()

    @pytest.mark.parametrize("values", TIES, ids=[f"ties-{j}" for j in range(18, 22)])
    def test_swapped_half_thresholds_fail_the_ties(self, monkeypatch, values):
        monkeypatch.setattr(floattext, "_HALF", floattext._HALF[::-1].copy())
        assert kernel_texts(values) != [scalar_rule(v) for v in values.tolist()]

    @pytest.mark.parametrize("j, values", enumerate(TIES, 18))
    def test_ties_are_exact_and_both_parities_occur(self, j, values):
        # Each tie case is an exact half at the 17th digit, and half of
        # them round down, so rounding ties up is caught.
        magnitude = np.abs(values)
        assert np.all((10.0 ** (17 - j) <= magnitude) & (magnitude < 10.0 ** (18 - j)))
        exact = [abs(Decimal(v)) * 10 ** (j - 1) for v in values.tolist()]
        assert all(x % 1 == Decimal("0.5") for x in exact)
        assert {int(x) % 2 for x in exact} == {0, 1}

    def test_inexact_ties_are_exact_and_both_parities_occur(self):
        # Each is an exact half at the 17th digit, at k = -7 or -8, where
        # 10**(16 - k) is not a double.
        exact = [Decimal(v) * 10 ** (16 - Decimal(v).adjusted()) for v in INEXACT_TIES]
        assert {Decimal(v).adjusted() for v in INEXACT_TIES} == {-7, -8}
        assert all(x % 1 == Decimal("0.5") for x in exact)
        assert {int(x) % 2 for x in exact} == {0, 1}

    def test_round_up_cases_are_below_their_power(self):
        for value in ROUND_UP_TO_POWER:
            assert Decimal(value) < Decimal(10) ** round(math.log10(value))
            assert scalar_rule(value).split("e")[0] == "1"

    def test_carry_into_the_next_decade(self):
        # No double in [1e-4, 1) carries, so the rounding step is fed
        # the integer part and fraction of v * 10**(16 - k) directly.
        whole = np.array([10**17 - 1, 10**17 - 1, 10**17 - 2, 10**17 - 1])
        frac = np.array([0.5, 0.75, 0.5, 0.25])
        r, k = floattext._round_half_even(whole, frac, np.array([-3, -2, -2, -1]))
        assert r.tolist() == [10**16, 10**16, 10**17 - 2, 10**17 - 1]
        assert k.tolist() == [-2, -1, -2, -1]

    @given(st.lists(fixed_bits, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_fixed_rows_never_take_the_format(self, patterns):
        # Every value in [1e-4, 1) gets its digits computed, including
        # those next to a power of ten.
        values = float_bits(patterns)
        values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1.0)]
        # 1e-4 and the doubles above it; the doubles below 1.
        edges = neighbours(1e-4, 4)[::2] + neighbours(1.0, 4)[1::2]
        powers = [v for p in range(-3, 0) for v in neighbours(10.0**p, 8)]
        values = np.concatenate([values, edges, powers])
        expected = [scalar_rule(v) for v in values.tolist()]
        format_floats = floattext.format_floats
        floattext.format_floats = None  # any call fails
        try:
            assert kernel_texts(values) == expected
        finally:
            floattext.format_floats = format_floats

    @given(st.lists(small_bits, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_small_rows_never_take_the_format(self, patterns):
        # Every value in [10**-29, 1e-4) gets its digits computed, those
        # next to a power of ten too, but for the rows whose fraction at
        # an inexact scale lies within the guard band of one half.
        values = float_bits(patterns)
        magnitude = np.abs(values)
        values = values[(magnitude >= floattext._LOWEST) & (magnitude < 1e-4)]
        # The least computed value and the doubles above it.
        edges = neighbours(floattext._LOWEST, 4)[::2]
        powers = [v for p in range(-28, -4) for v in neighbours(10.0**p, 8)]
        values = np.concatenate([values, edges, powers, INEXACT_TIES])
        expected = [scalar_rule(v) for v in values.tolist()]
        taken = []
        format_floats = floattext.format_floats

        def recorded(rest):
            taken.extend(rest.tolist())
            with mock.patch.object(floattext, "np", NO_NUMPY):  # no numpy call
                return format_floats(rest)

        floattext.format_floats = recorded
        try:
            assert kernel_texts(values) == expected
        finally:
            floattext.format_floats = format_floats
        assert all(in_guard_band(v) for v in taken)
        assert set(INEXACT_TIES) <= set(taken)

    @pytest.mark.parametrize("size", [0, 1, 2, 4095, 4096, 4097, 8193])
    def test_join_equals_the_per_value_join(self, size):
        rng = np.random.default_rng(size)
        values = rng.uniform(-1.0, 1.0, size)
        values[::7] *= 1e-6
        values[::11] = 0.0
        values[::13] = 1.0
        values[::17] = -0.0
        text = dumps_report({"table": cli._Table(values), "amplitudes": values})
        assert text == (
            '{\n  "table": ' + table_oracle(values)
            + ',\n  "amplitudes": ' + array_oracle(values) + "\n}\n"
        )

    def test_tables_render_in_blocks(self, monkeypatch):
        sizes = []
        write = floattext.write_floats

        def recorded(values, out):
            sizes.append(values.size)
            write(values, out)

        monkeypatch.setattr(floattext, "write_floats", recorded)
        rows = floattext._BLOCK_ROWS
        values = np.full(2 * rows + 1, 0.25)
        pieces = list(floattext.join_floats(values, indexed=True))
        assert "".join(pieces) == table_oracle(values)
        assert sizes == [rows, rows, 1]
        assert len(pieces) == 3

    @pytest.mark.parametrize(
        "size, block",
        [
            (11, 4096), (101, 4096), (1001, 4096), (10001, 4096),
            (100001, 4096), (1000001, 4096), (1001, 999), (1000001, 999),
            (100001, 9999), (100001, 10000),
        ],
    )
    def test_x_at_every_width(self, monkeypatch, size, block):
        # x crosses 10, 100, ... inside a block; with blocks of 999 rows,
        # 1,000 and 10**6 start a block. x widths 2, 4, 6 and 8: a pair of
        # digits, one group of four, a pair and a four, and two fours. The
        # digits above the last four change at each 10**4: at the start of
        # a block of 9,999 rows, and at the last row of one of 10,000.
        monkeypatch.setattr(floattext, "_BLOCK_ROWS", block)
        values = np.full(size, 0.25)
        text = "".join(floattext.join_floats(values, indexed=True))
        assert text == table_oracle(values)

    def test_table_memory_is_one_block(self):
        # The blocks are handed out one at a time and nothing holds the
        # whole text: consumed and dropped, a table peaks at one block's
        # buffers, whatever its length. Measured 1.02 MB for a 2**17-row
        # table, 249 bytes per row of a block, against 3.95 MB of text;
        # the one buffer for the text and its decoded str that this
        # replaced measured 2.1x the text.
        values = np.random.default_rng(3).uniform(0.0, 1.0, 1 << 17)
        length = 0
        tracemalloc.start()
        try:
            for block in floattext.join_floats(values, indexed=True):
                length += len(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length > 3_500_000
        assert peak < 300 * floattext._BLOCK_ROWS


def route_values(size):
    # `size` values that meet every part of the rule: computed rows, both
    # zeros, integral values with and without an exponent, and rows
    # below 1e-29, which the computed route also sends to the %-format.
    values = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    values[::7] *= 1e-6
    values[::11] = 0.0
    values[::13] = 1.0
    values[::17] = -0.0
    values[::19] = -1e17
    values[::23] = 3e-31
    return values


class TestFloatRoutes:
    # `join_floats` sends at most `_SHORT_ROWS` values to the %-format and
    # more to the computed blocks; both give the oracle's text.
    SHORT = floattext._SHORT_ROWS

    @pytest.mark.parametrize("indexed", [False, True], ids=["array", "table"])
    @pytest.mark.parametrize("size", [1, 2, SHORT, SHORT + 1])
    def test_join_matches_the_oracle(self, size, indexed):
        values = route_values(size)
        oracle = table_oracle if indexed else array_oracle
        assert "".join(floattext.join_floats(values, indexed)) == oracle(values)

    @pytest.mark.parametrize("indexed", [False, True], ids=["array", "table"])
    @pytest.mark.parametrize("size", [1, 2, SHORT])
    def test_computed_route_at_short_sizes(self, size, indexed):
        # The sizes `join_floats` no longer computes stay cross-checked.
        values = route_values(size)
        oracle = table_oracle if indexed else array_oracle
        assert "".join(floattext._blocks(values, indexed)) == oracle(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_short_array_refuses_a_non_finite_value(self, bad):
        values = np.full(self.SHORT, 0.5)
        values[-1] = bad
        message = f"^cannot serialize non-finite value {re.escape(repr(bad))}$"
        for indexed in (False, True):
            with pytest.raises(ValueError, match=message):
                floattext.join_floats(values, indexed)
        # Before the document's first piece is handed out.
        pieces = cli.render_report({"amplitudes": values})
        with pytest.raises(ValueError, match=message):
            next(pieces)

    def test_route_follows_the_size(self, capsys, monkeypatch):
        # A search document at q = 101 computes no block; a table one row
        # longer than the %-format takes computes one.
        sizes = []
        write = floattext.write_floats

        def recorded(values, out):
            sizes.append(values.size)
            write(values, out)

        monkeypatch.setattr(floattext, "write_floats", recorded)
        argv = ["search", "--q", "101", "--n", "4", "--trials", "200", "--seed", "7"]
        document, _ = run_json(capsys, argv)
        assert len(document["outputs"]["table"]) == 100
        assert sizes == []
        values = np.full(self.SHORT, 0.25)
        assert "".join(floattext.join_floats(values, True)) == table_oracle(values)
        assert sizes == []
        values = np.full(self.SHORT + 1, 0.25)
        assert "".join(floattext.join_floats(values, True)) == table_oracle(values)
        assert sizes == [self.SHORT + 1]


# dumps_report joins top-level keys with ",\n" at an indent of two spaces.
TIMING_FIELD = re.compile(r',\n  "timing_seconds": [^\n]*')

# SHA-256 of each document with its timing_seconds field removed, recorded
# from the per-value serializer that the vectorized one replaced. The verify
# digest comes from the one-pass checks; the four-check code before them
# wrote the same document apart from the resistance_equivalence detail. The
# two search digests with --target-epsilon and --sum-qubit were recorded
# from the per-candidate scan that the block scan replaced.
GOLDEN_DIGESTS = [
    (
        "resist --q 4099 --s 3,5,7,11 --form shallow",
        "7f200aba07afba54a2bea820f9cd12368678f735f7f2637216c95fbda00b857f",
    ),
    (
        "bias --q 1009 --b 0,1,2,3,5,8,13,21",
        "5310a347e2f4ca5224f72dd80942cf8b05eb437c7ef24868aa94374180bc6974",
    ),
    (  # q - 1 above the bias sweep's block of x, so the sweep crosses seams
        "bias --q 20011 --b 0,1,3,7,12,20,33,54,88,143,232,376,609,986,1596,2583",
        "756c4c45d768d23add3b17469d064148d45156ef98a3c288766e5ed2228ce464",
    ),
    (  # q - 1 = 2 * 8192 + 3626, and a sum factor of 59997, past 2q
        "resist --q 20011 --s 19999,19998,19997,3 --form single-qubit --sum-qubit on",
        "5c79e17053db33a9cc61238970542240ed00a8398de8c4009ec1b3ec770c7f89",
    ),
    (
        "search --q 101 --n 4 --trials 200 --seed 7",
        "c2f63dc72cc89dcdf5788fe8cfad2e7b4c6ae2bad07a1d8b7b38fa6e1207d41e",
    ),
    (  # stops at the target inside the first block
        "search --q 101 --n 4 --trials 2000 --seed 7 --target-epsilon 0.6",
        "d3bfee20f08d4a39a1ff3d0c420bdb0015f74d49c91b3dc9f7656c1d722459ce",
    ),
    (  # the search-small workload's request, at seed 7
        "search --q 101 --n 4 --trials 2000 --seed 7 --form single-qubit",
        "0e095f61862519f9294ffc42f6a35d9ea6c3894a9e9ae2af1f8ba6b302f83c0d",
    ),
    (  # the table loop with one-row sweep blocks
        "search --q 10007 --n 6 --trials 300 --seed 7",
        "d20b54f081283f403ed932f213f212f7eb040cb39409f2a0f7aec47832c276dd",
    ),
    (  # the table loop, shallow form
        "search --q 1009 --n 3 --trials 1500 --seed 4 --form shallow",
        "ccd22ac0143a355e173bf642ce4ed6781aab1064fbf8915bc092a6514e42584c",
    ),
    (  # a one-value draw range: every trial draws the candidate (1, 1, 1)
        "search --q 2 --n 3 --trials 50 --seed 5",
        "6476294fb5c0aa64c476c5d06e6634d0ce14794fb7b064fb9179f5275cc71967",
    ),
    (  # sum factor on; history holds two epsilons one ulp apart
        "search --q 64 --n 3 --trials 500 --seed 11 --sum-qubit on",
        "c57e3da8cee4263d3cb02e34be8415c15a3b4d4defe96c83e4ea5971a98f1465",
    ),
    (
        "hash --q 101 --form standard --s 3,5,7 --x 10",
        "cf85b26fcfb981699406970b8ee21f26820e6ecd708f55dff151a31c62b3af76",
    ),
    (
        "hash --q 101 --form shallow --s 3,5,7 --x 10",
        "0993c88be4c543b15c87117d2eae1fcd3e9d81a54780f075e91a4606c08648fa",
    ),
    (
        "hash --q 101 --form single-qubit --s 3,5,7 --x 10 --sum-qubit on",
        "c2212a074477324895352f0e76f48062b13620ce54a71cd84ccf0dd6c47a6d93",
    ),
    (  # amplitudes 0.0 and -0.0
        "hash --q 5 --form single-qubit --s 3,5 --x 1",
        "a548bbf2904b753100a3b2b3b3ab584d8f980e86116847ab7f216d1b0fc382d7",
    ),
    (  # every check's max_deviation and detail
        "verify --q-max 12 --n-max 4 --trials 2",
        "b16d9e0e98258a5d0d6fec3a1ea948a610b46e8d6189175a35dc1119173737f5",
    ),
    # Recorded from the per-set draws, builds and closed forms that the
    # block path replaced: the benchmark's verify size, a seed of 2**70
    # (three entropy words, so long indices mix past SeedSequence's
    # pool), and n_max = 1, where no size is drawn.
    (
        "verify --q-max 32 --n-max 5 --trials 5 --seed 12345",
        "022a7f2f5a73bafb6b9ce41c68dd679f13d9f918f031676dc2fca3e4c55ca7c1",
    ),
    (
        "verify --q-max 12 --n-max 3 --trials 2 --seed 1180591620717411303424",
        "a78d87b984b60e963d3ebc30108a197f7c6764b7664b8c577383ac9df37bf67a",
    ),
    (
        "verify --q-max 16 --n-max 1 --trials 3",
        "b00a2db11be456e602d15852a1271cc6bdddc2e4cef469c130e4df230312f2ed",
    ),
    # Recorded from the two walks over a chunk's sets, one for the Grams
    # and one for their closed forms, that the one walk replaced. Eleven
    # sets of size 5 with q > 256 passed the 2**14 amplitudes a chunk then
    # held and ran alone; under the bound on Gram cells no two of them
    # share a chunk. The other chunks mix moduli.
    (
        "verify --q-max 300 --n-max 5 --trials 1 --seed 4",
        "0e15d7199d37366a58f5c0fae30aadd9f4dddeaf0015c70743e6cd6e041957a1",
    ),
    # Recorded from the row-major batches and amplitude-only chunks that
    # amplitude-major storage and the bound on Gram cells replaced: many
    # sets of few amplitudes, in 15 chunks then and 46 under the cell
    # bound.
    (
        "verify --q-max 200 --n-max 2 --trials 2 --seed 9",
        "e6d77f486d022b6a26dd9b7f2e45d57a7a4562429d8feeb54dcf3137f9470d51",
    ),
    # Recorded from the three batched runs per chunk, each Ry taking its
    # own trig, that the entries taken once per angle column and the
    # sum-qubit state grown from the bare state replaced: widths up to 9
    # qubits, with chunks split by the bound on amplitudes.
    (
        "verify --q-max 64 --n-max 8 --trials 2 --seed 7",
        "5849973c4321a30fd4f0fe8b93e74a352c6599cdb71a4010bbb54099acf22bbe",
    ),
    # Recorded from the stream port on four 32-bit limbs that the uint64
    # (high, low) one replaced, at the port's edges: the largest accepted
    # seed (two words) and 2**128 (five words, past SeedSequence's pool).
    (
        "search --q 101 --n 4 --trials 300 --seed 18446744073709551615",
        "831d4f568291566142905c624932609bea9f829eaa37a7aedf51cb72e2b49726",
    ),
    (
        "verify --q-max 10 --n-max 6 --trials 2"
        " --seed 340282366920938463463374607431768211456",
        "ca8da8b1ff2cceaa7077099da2f6ddf4397824b86cef7b4e188203aa7e851024",
    ),
    # At workload size, recorded from the per-value %-format join that the
    # byte-matrix join replaced: a 2**17 - 1 row table, a 2**16 row table,
    # and 8192 amplitudes, each across several blocks of rows.
    (
        "resist --q 131072 --s 12345,67891,23456,78901,34567,89012 --form shallow",
        "fc7000cff277583a496ad7f9e958a95cb4f71503ef7a183852c3d9e20433c0e9",
    ),
    (
        "bias --q 65537 --b 0,1,2,3,5,8,13,21,34,55",
        "be4073026dc1e58c03aef9d27bb77f4513fa4ffb4724589139e560381c2e52f4",
    ),
    (
        "hash --q 65537 --form standard --s 3,5,7,11,13,17,19,23,29,31,37,41 --x 12345",
        "294b23e0b388ad26b771c900e301053722c53c34fb937c5534bacce38b60610b",
    ),
    # Past int64, recorded from the builders before they gave up batches of
    # x: q = 2**61 - 1, s_0 and x near q, so every s*x numerator is a
    # Python int of more than 64 bits.
    (
        "hash --q 2305843009213693951 --s 1152921504606846977,3,99"
        " --x 2305843009213693950 --form standard",
        "b509968a86aada8c6b11a418608dc9a7f0023599efdc993b59452bf62300a58f",
    ),
    (
        "hash --q 2305843009213693951 --s 1152921504606846977,3,99"
        " --x 2305843009213693950 --form shallow",
        "b8b173a0b0d926747eb0e8cb73e0dfae73b6b9fc0acd3d5f324840af77648c44",
    ),
    (
        "hash --q 2305843009213693951 --s 1152921504606846977,3,99"
        " --x 2305843009213693950 --form single-qubit --sum-qubit on",
        "7becfdde7cef88b4c7846b0b39225a6a4b139dd6b97b9d61265ff7b5f9d4a18a",
    ),
    # Recorded from the direct per-cell cosines that the cosine table
    # replaced: two rows per block at q = 65537, twenty blocks, and the
    # sum factor on.
    (
        "search --q 65537 --n 6 --trials 40 --seed 9 --sum-qubit on",
        "42a98e478cce6161c5cdc3b5079cc1bac01c63cd09e69003936416105638aff3",
    ),
    # Recorded from the sweep that divided every block of x, before each b
    # took one remainder: an even modulus, b = 0 and b = q - 1, b sharing
    # factors with q, and a short last block (q - 1 = 7 * 8192 + 8191).
    (
        "bias --q 65536 --b 0,65535,32768,2,4096,12345,65534,8192",
        "29f33da37d72b356600a3cbeb9aed55a4cfe9a3c991522668cc2e80703ea3045",
    ),
    # Recorded before the handlers returned their documents to one emit
    # in main and hash built through build_hash: an explicit --b set, a
    # single-x bias, and a single-x bias at x = 0 with its note.
    (
        "hash --q 101 --form standard --b 0,3,5,8 --x 10",
        "4dc449205375d53cd13f0258cc24b028647a0bc428d61055f72e1d0c5d77542c",
    ),
    (
        "bias --q 1009 --b 0,1,2,3,5,8,13,21 --x 17",
        "0b2380a21c92dca1fd32774c4bc6390c9ef34b7f3d4e8813e136d68292ebb024",
    ),
    (
        "bias --q 1009 --b 3,5 --x 0",
        "b59c3e5d2a033b069f83be6b64796bed3ec6d0ddca56cd9ace1c44b35110d92f",
    ),
    # Recorded from the table loop alone, before blocks of at least 2q rows
    # took the cosine square: at q = 256 two 514-row blocks on the square,
    # then a 72-row block on the table loop; at q = 257, 512-row blocks,
    # all on the table loop.
    (
        "search --q 256 --n 4 --trials 1100 --seed 3",
        "a597afe7d94f89804595dcd5c8686b9ea9bee8ea69e05e6414b508d797cd1887",
    ),
    (
        "search --q 257 --n 4 --trials 1100 --seed 3",
        "c5a81b7a12337eb9894c6054522915a799b54d9f74c9594f8182272efcafaffd",
    ),
    # Recorded from the scan that allocated its sweep per block of 2**17
    # cells, drawn in the same blocks, before sweep blocks wrote into
    # buffers the scan owns: table-loop moduli, one with the sum factor,
    # and a target that stops the scan at trial 540 of 2000.
    (
        "search --q 1009 --n 4 --trials 2000 --seed 3",
        "bc2f7f461149eaad508eab9814f75d81f517201ffca8d751f22fdbef69fffc60",
    ),
    (
        "search --q 4093 --n 5 --trials 400 --seed 8 --sum-qubit on",
        "e39911a82b4709adb7af0bdb5ad5551e65dfc63ba071879f3b33a427fecd2d6a",
    ),
    (
        "search --q 1009 --n 4 --trials 2000 --seed 3 --target-epsilon 0.83",
        "a562b5b6577d092c8b47b7eae45d6f4b9df75afb743eaec264486af69a9a5572",
    ),
    # Recorded from the scan whose blocks yielded chunks of values, before
    # they handed back row maxima, on the square's edge at q = 256: 500
    # trials, below 2q, run on the table loop alone; a target never met
    # doubles its draws from one row and takes the square at the 512-row
    # draw.
    (
        "search --q 256 --n 6 --trials 500 --seed 3 --form shallow",
        "c1f7fa6fa77616f06c79a214c708b19993392eb0dbcc178dd3b2ce3a56ebd34a",
    ),
    (
        "search --q 256 --n 4 --trials 2000 --seed 3 --target-epsilon 0.05",
        "394c2bc1ddebd3c14a2e57716c3d969ed24fd10f241777957058589ea54df4ec",
    ),
    # Recorded from the table loop, before bias sweeps at prime q read
    # windows in discrete-log order: the bias-sweep workload's size (200
    # residues, the set of test_benchmark_size_is_accepted), and the prime
    # cap with 0, a duplicate and q - 1.
    (
        "bias --q 65537 --b " + ",".join(str(7919 * k % 65537) for k in range(200)),
        "4f287c11f8d950fe5c2600b2bb17544b8a77b6b8abfea90a8f56d749f6121d9e",
    ),
    (
        "bias --q 1048573 --b 0,1,524287,1048572,77777,1",
        "d0bfd2142c7c934654e63126cdcee4c32a338bc895d3fca5cff3f64e65dcc498",
    ),
]


class TestDocuments:
    @pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
    def test_golden_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv.split())
        assert code == 0, err
        body = TIMING_FIELD.sub("", out, count=1)
        assert body != out
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, kind, q",
        [
            (
                "resist --q 131072 --s 12345,67891,23456,78901,34567,89012"
                " --form shallow",
                "_cosine_table",
                131072,
            ),
            (
                "bias --q 65537 --b "
                + ",".join(str(7919 * k % 65537) for k in range(200)),
                "_log_tables",
                65537,
            ),
            (
                "bias --q 65536 --b 0,65535,32768,2,4096,12345,65534,8192",
                "_roots",
                65536,
            ),
            ("search --q 101 --n 4 --trials 2000 --seed 7", "_cosine_square", 101),
        ],
    )
    def test_kept_tables_write_the_cold_document(self, capsys, argv, kind, q):
        # In one process, a second run at the same q reads the tables the
        # first built and kept, and writes the first's document byte for
        # byte apart from timing_seconds.
        bodies = []
        for _ in range(2):
            code, out, err = run_cli(capsys, argv.split())
            assert code == 0, err
            bodies.append(TIMING_FIELD.sub("", out, count=1))
            assert analysis._kept_tables[kind][0] == q
        assert bodies[1] == bodies[0]

    def test_timing_is_the_last_field(self, capsys):
        _, out, _ = run_cli(capsys, ["resist", "--q", "7", "--s", "3"])
        assert re.search(r',\n  "timing_seconds": [^\n]*\n\}\n\Z', out)
        assert list(json.loads(out))[-1] == "timing_seconds"

    def test_timing_covers_rendering(self, capsys, monkeypatch):
        # Each block of the table renders 0.05 s late, while the document
        # is being written; the clock is read after.
        render = cli.join_floats

        def slow_render(values, indexed):
            for block in render(values, indexed):
                time.sleep(0.05)
                yield block

        monkeypatch.setattr(cli, "join_floats", slow_render)
        document, _ = run_json(capsys, ["resist", "--q", "7", "--s", "3"])
        assert document["timing_seconds"] >= 0.05


class Discard:
    # A stdout that drops what it is given.
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestStreaming:
    BLOCK = floattext._BLOCK_ROWS

    @given(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK + 1, 3 * BLOCK]),
        st.integers(0, 2**32 - 1),
        st.lists(any_bits | fixed_bits | small_bits, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_streamed_parts_join_to_the_document(self, size, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size)
        if size:
            extra = float_bits(bits)
            values[rng.integers(0, size, extra.size)] = extra
        document = {"table": cli._Table(values), "amplitudes": values}
        parts = list(cli.render_report(document))
        assert "".join(parts) == dumps_report(document) == (
            '{\n  "table": ' + table_oracle(values)
            + ',\n  "amplitudes": ' + array_oracle(values) + "\n}\n"
        )
        # One part per block of each, and the closing part.
        assert len(parts) == 2 * max(-(-size // self.BLOCK), 1) + 1

    def test_non_finite_value_in_the_last_block_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        rows = 3 * floattext._BLOCK_ROWS
        values = np.full(rows, 0.5)
        values[-1] = math.nan
        report = ResistanceReport(rows + 1, 0.5, 1, values)
        monkeypatch.setattr(cli, "collision_resistance", lambda *a, **k: report)
        argv = ["resist", "--q", str(rows + 1), "--s", "3"]
        path = tmp_path / "report.json"
        for extra in ([], ["--out", str(path)]):
            code, out, err = run_cli(capsys, argv + extra)
            assert (code, out) == (2, "")
            assert err == "error: cannot serialize non-finite value nan\n"
        assert os.listdir(tmp_path) == []

    def test_stdout_write_error_exits_2_with_one_line(self, capsys, monkeypatch):
        class Full(Discard):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(["resist", "--q", "7", "--s", "3"])
        err = capsys.readouterr().err
        assert (code, err) == (2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("q", ["7", "131072"])
    def test_full_device_exits_2_with_one_line(self, q):
        # Buffered stdout, so the bytes still held at exit are dropped too.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "zqhash", "resist", "--q", q, "--s", "3"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write stdout: No space left on device\n"
        )

    def test_memory_at_the_sweep_cap(self, monkeypatch):
        # The sweep's 25.4 MB (see test_analysis) and one block at a time,
        # into a writer that drops its input: measured 25.6 MB. Rendering
        # the whole text before writing it peaked at 84.8 MB.
        monkeypatch.setattr(sys, "stdout", Discard())
        argv = [
            "resist", "--q", "1048576", "--s", "12345,67891,222222,777777,31337,5",
            "--form", "shallow",
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 32e6


class TestParseResidues:
    def test_inline(self):
        assert parse_residues("1,2, 3") == [1, 2, 3]

    def test_from_file(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("4, 5\n6\n")
        assert parse_residues(str(path)) == [4, 5, 6]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_residues("1,two,3")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_residues("   ")

    def test_unreadable_file_exits_2_and_names_it(self, capsys, monkeypatch, tmp_path):
        # A file that exists but cannot be read is not parsed as an inline
        # list. Patched, as root reads a file whatever its mode.
        path = tmp_path / "set.txt"
        path.write_text("1, 2\n")

        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(cli.Path, "read_text", refused)
        code, out, err = run_cli(capsys, ["bias", "--q", "7", "--b", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: {os.strerror(errno.EACCES)}\n"


class TestHashCommand:
    def test_single_qubit_example(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1", "--x", "1"],
        )
        outputs = document["outputs"]
        assert outputs["num_qubits"] == 1
        assert_allclose(
            outputs["amplitudes"],
            [math.cos(math.pi / 4), math.sin(math.pi / 4)],
            atol=1e-15,
        )

    def test_x_zero_dumps_basis_state(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1,2", "--x", "0"],
        )
        assert document["outputs"]["amplitudes"] == [1.0, 0.0, 0.0, 0.0]

    def test_standard_form_echoes_derived_set(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "standard", "--q", "8", "--s", "1,2", "--x", "0"],
        )
        assert document["outputs"]["biased_set"] == [0, 2, 1, 3]
        assert document["outputs"]["num_qubits"] == 3

    def test_standard_form_past_the_qubit_cap_exits_2_before_any_angle(
        self, capsys, monkeypatch
    ):
        # With the cap at 2 qubits, four residues need 3: rejected before
        # a single angle is computed, as a set of 2**24 residues would be.
        def angle(*args):
            raise AssertionError("computed an angle")

        monkeypatch.setattr("zqhash.hashing.MAX_QUBITS", 2)
        monkeypatch.setattr("zqhash.hashing._angles", angle)
        argv = ["hash", "--form", "standard", "--q", "8", "--b", "0,1,2,3", "--x", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: qubit count must be in [1, 2], got 3\n"

    def test_sum_qubit_widens_register(self, capsys):
        document, _ = run_json(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "8", "--s", "1,2",
                "--x", "1", "--sum-qubit", "on",
            ],
        )
        assert document["outputs"]["num_qubits"] == 3
        assert document["inputs"]["sum_qubit"] is True

    def test_x_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1", "--x", "4"],
        )
        assert code == 2
        assert "x must be in [0, q)" in err

    @pytest.mark.parametrize("q", ["0", "-3"])
    def test_small_modulus_is_named_before_x(self, capsys, q):
        code, out, err = run_cli(
            capsys, ["hash", "--q", q, "--form", "shallow", "--s", "1", "--x", "0"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: modulus must be in [2, 2**1000], got {q}\n"

    def test_non_text_set_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "set.bin"
        path.write_bytes(b"1, 2\xff")
        code, out, err = run_cli(
            capsys,
            ["hash", "--q", "8", "--form", "shallow", "--s", str(path), "--x", "1"],
        )
        assert (code, out) == (2, "")
        assert err == f"error: could not read {path} as text\n"

    def test_non_power_of_two_set_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "standard", "--q", "8", "--b", "0,1,2", "--x", "1"],
        )
        assert code == 2
        assert "power of two" in err

    def test_b_with_shallow_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "shallow", "--q", "8", "--b", "0,1", "--x", "1"],
        )
        assert code == 2

    def test_missing_set_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["hash", "--form", "shallow", "--q", "8", "--x", "1"]
        )
        assert code == 2
        assert "--s" in err

    def test_reduction_warns(self, capsys):
        _, err = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "8", "--s", "9,2", "--x", "1"],
        )
        assert "reduced" in err

    def test_quiet_suppresses_warning(self, capsys):
        _, err = run_json(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "8", "--s", "9,2",
                "--x", "1", "--quiet",
            ],
        )
        assert err == ""

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "4", "--s", "1",
                "--x", "1", "--out", str(path), "--quiet",
            ],
        )
        assert code == 0
        assert out == ""
        document = json.loads(path.read_text())
        jsonschema.validate(document, REPORT_SCHEMA)

    @pytest.mark.parametrize(
        "where, error",
        [
            (".", errno.EISDIR),
            ("missing/report.json", errno.ENOENT),
            ("./", errno.EISDIR),
            ("d/", errno.EISDIR),
            ("new/", errno.EISDIR),
            ("missing/..", errno.ENOENT),
            ("old.json/", errno.ENOTDIR),
        ],
        ids=[
            "directory", "missing_parent", "cwd", "directory_slash",
            "new_directory", "missing_parent_dotdot", "file_as_directory",
        ],
    )
    def test_unwritable_out_exits_2_with_one_line(
        self, capsys, monkeypatch, tmp_path, where, error
    ):
        # As `> PATH` fails; no file is made, replaced or left behind.
        monkeypatch.chdir(tmp_path)
        os.mkdir("d")
        (tmp_path / "old.json").write_text("old")
        code, out, err = run_cli(
            capsys, ["resist", "--q", "7", "--s", "3", "--out", where]
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {where}: {os.strerror(error)}\n"
        assert sorted(os.listdir(tmp_path)) == ["d", "old.json"]
        assert os.listdir("d") == []
        assert (tmp_path / "old.json").read_text() == "old"

    def test_out_replaces_an_existing_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old")
        code, out, err = run_cli(
            capsys, ["resist", "--q", "7", "--s", "3", "--out", str(path)]
        )
        assert (code, out, err) == (0, "", f"wrote {path}\n")
        assert json.loads(path.read_text())["outputs"]["worst_x"] == 5
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
    def test_write_failing_after_the_first_block_leaves_path_as_it_was(
        self, capsys, monkeypatch, tmp_path, present
    ):
        # The file's second write, the table's second block, fails. PATH
        # keeps its old bytes or stays absent, and no new file is left.
        path = tmp_path / "report.json"
        if present:
            path.write_text("old")
        real_open = open
        written = []

        class Full:
            def __init__(self, file):
                self.file = file

            def write(self, text):
                if written:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)
                return self.file.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

        monkeypatch.setattr(cli, "open", lambda *a: Full(real_open(*a)), raising=False)
        q = 2 * floattext._BLOCK_ROWS + 2  # a table of three blocks
        code, out, err = run_cli(
            capsys, ["resist", "--q", str(q), "--s", "3", "--out", str(path)]
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
        assert len(written) == 1 and '"table": [[1, ' in written[0]
        assert os.listdir(tmp_path) == (["report.json"] if present else [])
        if present:
            assert path.read_text() == "old"


class TestOutTargets:
    # --out writes as `> PATH` does, through any links, except that a
    # regular file, or a new one, is replaced whole. Every PATH here is
    # under tmp_path: were the rule to break, a test aimed at a real
    # device node would replace the node when run as root.
    ARGV = ["resist", "--q", "7", "--s", "3"]

    def write(self, capsys, where, argv=ARGV):
        # --out's exit code and stderr line; nothing goes to stdout.
        code, out, err = run_cli(capsys, argv + ["--out", str(where)])
        assert out == ""
        return code, err

    def document(self, capsys, argv=ARGV):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        return TIMING_FIELD.sub("", out)

    def test_symlink_rewrites_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to("target.json")
        assert self.write(capsys, link) == (0, f"wrote {link}\n")
        assert link.is_symlink() and os.readlink(link) == "target.json"
        assert TIMING_FIELD.sub("", target.read_text()) == self.document(capsys)
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to("new.json")
        assert self.write(capsys, link) == (0, f"wrote {link}\n")
        assert link.is_symlink() and os.readlink(link) == "new.json"
        text = (tmp_path / "new.json").read_text()
        assert TIMING_FIELD.sub("", text) == self.document(capsys)

    def test_symlink_loop_exits_2_and_keeps_the_link(self, capsys, tmp_path):
        loop = tmp_path / "loop"
        loop.symlink_to("loop")
        assert self.write(capsys, loop) == (
            2, f"error: cannot write {loop}: {os.strerror(errno.ELOOP)}\n"
        )
        assert os.readlink(loop) == "loop"
        assert os.listdir(tmp_path) == ["loop"]

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        # A table of three blocks, more than a pipe holds, so the reader
        # drains the FIFO while the document is written.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text()), daemon=True
        )
        reader.start()
        argv = ["resist", "--q", str(2 * floattext._BLOCK_ROWS + 2), "--s", "3"]
        assert self.write(capsys, fifo, argv) == (0, f"wrote {fifo}\n")
        reader.join(timeout=30)
        assert not reader.is_alive(), "the reader never saw the FIFO opened"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert TIMING_FIELD.sub("", received[0]) == self.document(capsys, argv)
        assert os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_regular_file_keeps_its_mode(self, capsys, tmp_path, mode):
        path = tmp_path / "report.json"
        path.write_text("old")
        os.chmod(path, mode)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == mode
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)

    def test_regular_file_keeps_its_owner(self, capsys, monkeypatch, tmp_path):
        # Run as root, a file of uid 1000 stays uid 1000's, as `> PATH`
        # keeps it; run as another user, os.chown is recorded instead.
        path = tmp_path / "report.json"
        path.write_text("old")
        calls = []
        if os.geteuid() == 0:
            os.chown(path, 1000, 1000)
        else:
            monkeypatch.setattr(os, "chown", lambda *args: calls.append(args))
        old = os.stat(path)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        new = os.stat(path)
        assert new.st_ino != old.st_ino  # replaced, not written in place
        if os.geteuid() == 0:
            assert (new.st_uid, new.st_gid) == (1000, 1000)
        else:
            assert [args[1:] for args in calls] == [(old.st_uid, old.st_gid)]
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert os.listdir(tmp_path) == ["report.json"]

    def test_refused_owner_writes_in_place(self, capsys, monkeypatch, tmp_path):
        # Another user's file, in a directory the runner may write: the new
        # file cannot take its owner, so PATH is written in place, as
        # `> PATH` writes it, and the new file is removed.
        path = tmp_path / "report.json"
        path.write_text("old")
        inode = os.stat(path).st_ino

        def refuse(*args):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "chown", refuse)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        monkeypatch.undo()
        assert os.stat(path).st_ino == inode
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
    def test_refused_new_file_writes_in_place(
        self, capsys, monkeypatch, tmp_path, present
    ):
        # A writable file in a read-only directory: no new file can be made
        # beside it, so PATH is written in place.
        path = tmp_path / "report.json"
        if present:
            path.write_text("old")
        inode = os.stat(path).st_ino if present else None
        real_open = open

        def refuse_new(file, mode="r", *args, **kwargs):
            if mode == "x":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse_new, raising=False)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        monkeypatch.undo()
        if present:
            assert os.stat(path).st_ino == inode
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
    def test_longest_name_is_written_in_place(self, capsys, tmp_path, present):
        # A name of 255 bytes, the most a directory entry holds: the new
        # file's longer name is refused (ENAMETOOLONG), so PATH is written
        # in place.
        path = tmp_path / ("r" * 250 + ".json")
        if present:
            path.write_text("old")
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert os.listdir(tmp_path) == [path.name]

    def test_hard_link_keeps_the_old_text(self, capsys, tmp_path):
        # The one limit of replace-by-rename: PATH gets a new file, and
        # every other name of the old one still reads the old text.
        path, other = tmp_path / "report.json", tmp_path / "other.json"
        path.write_text("old")
        os.link(path, other)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert other.read_text() == "old"

    def test_character_device_is_written_in_place(self, capsys, monkeypatch, tmp_path):
        # A regular file that os.stat reports as a character device, so the
        # device branch runs without touching a real device node.
        path = tmp_path / "device"
        path.write_text("old")
        inode = os.stat(path).st_ino
        real_stat = os.stat

        def device_stat(name, *args, **kwargs):
            result = real_stat(name, *args, **kwargs)
            if os.fspath(name) != str(path):
                return result
            fields = list(result)
            fields[0] = stat.S_IFCHR | 0o666
            return os.stat_result(fields)

        monkeypatch.setattr(os, "stat", device_stat)
        assert self.write(capsys, path) == (0, f"wrote {path}\n")
        monkeypatch.undo()
        assert os.stat(path).st_ino == inode
        assert TIMING_FIELD.sub("", path.read_text()) == self.document(capsys)
        assert os.listdir(tmp_path) == ["device"]


class TestBiasCommand:
    def test_sweep(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "8", "--b", "0,1,2,3"])
        outputs = document["outputs"]
        assert outputs["mode"] == "sweep"
        assert outputs["worst_x"] == 1
        table = dict((row[0], row[1]) for row in outputs["table"])
        assert abs(table[4]) < 1e-12
        assert len(table) == 7

    def test_single_x(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "8", "--b", "0,1,2,3", "--x", "4"])
        assert document["outputs"]["mode"] == "single-x"
        assert abs(document["outputs"]["bias"]) < 1e-12

    def test_x_zero_warns_and_notes(self, capsys):
        document, err = run_json(capsys, ["bias", "--q", "8", "--b", "0,1", "--x", "0"])
        assert document["outputs"]["bias"] == 1.0
        assert "note" in document["outputs"]
        assert "x=0" in err

    def test_singleton_set_is_maximally_biased(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "7", "--b", "0"])
        assert document["outputs"]["epsilon"] == 1.0

    def test_oversized_sweep_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["bias", "--q", str((1 << 20) + 1), "--b", "0,1"]
        )
        assert code == 2
        assert "capped" in err

    def test_past_the_work_budget_exits_2_with_one_line(self, capsys, monkeypatch):
        # 9537 residues at q = 2**20, one more than MAX_BIAS_EVALS holds;
        # the sweep is never entered. The single-x bias has no budget.
        def entered(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("zqhash.analysis._table_sweep", entered)
        argv = ["bias", "--q", str(1 << 20), "--b", ",".join(map(str, range(9537)))]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "budget" in err
        assert err.count("\n") == 1
        run_json(capsys, argv + ["--x", "5"])

    def test_benchmark_size_is_accepted(self, capsys):
        residues = ",".join(str(7919 * k % 65537) for k in range(200))
        document, _ = run_json(capsys, ["bias", "--q", "65537", "--b", residues])
        assert len(document["outputs"]["table"]) == 65536


class TestResistCommand:
    def test_single_param(self, capsys):
        document, _ = run_json(
            capsys, ["resist", "--q", "4", "--s", "1", "--form", "single-qubit"]
        )
        outputs = document["outputs"]
        assert outputs["epsilon"] == math.cos(math.pi / 4)
        assert outputs["worst_x"] == 1

    def test_shallow_equals_single_with_sum(self, capsys):
        shallow, _ = run_json(
            capsys, ["resist", "--q", "8", "--s", "1,2", "--form", "shallow"]
        )
        summed, _ = run_json(
            capsys,
            [
                "resist", "--q", "8", "--s", "1,2", "--form", "single-qubit",
                "--sum-qubit", "on",
            ],
        )
        for key in ("epsilon", "worst_x", "table"):
            assert shallow["outputs"][key] == summed["outputs"][key]

    def test_all_zero_set_reports_unit_epsilon(self, capsys):
        document, _ = run_json(capsys, ["resist", "--q", "6", "--s", "0,0"])
        assert document["outputs"]["epsilon"] == 1.0
        assert document["outputs"]["worst_x"] == 1

    def test_oversized_modulus_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["resist", "--q", str((1 << 20) + 1), "--s", "1"]
        )
        assert code == 2
        assert "capped" in err


class TestSearchCommand:
    def test_deterministic_documents(self, capsys):
        argv = ["search", "--q", "17", "--n", "2", "--trials", "10", "--seed", "3"]
        first, _ = run_json(capsys, argv)
        second, _ = run_json(capsys, argv)
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second

    def test_small_space_optimum(self, capsys):
        document, _ = run_json(
            capsys,
            ["search", "--q", "4", "--n", "1", "--trials", "20", "--seed", "0"],
        )
        assert abs(document["outputs"]["epsilon"] - math.cos(math.pi / 4)) < 1e-15

    def test_bad_target_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "search", "--q", "4", "--n", "1", "--trials", "5",
                "--target-epsilon", "0",
            ],
        )
        assert code == 2

    def test_budget_breach_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["search", "--q", "1000000", "--n", "20", "--trials", "1000000"],
        )
        assert code == 2
        assert "budget" in err

    def test_oversized_modulus_exits_2_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew candidates for a rejected modulus")

        monkeypatch.setattr(search, "_draw_block", no_draw)
        code, out, err = run_cli(
            capsys, ["search", "--q", str((1 << 20) + 1), "--n", "1", "--trials", "1"]
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: modulus must be in [2, 1048576] (exhaustive sweeps are "
            "capped there), got 1048577\n"
        )

    def test_result_survives_independent_certification(self, capsys):
        searched, _ = run_json(
            capsys,
            [
                "search", "--q", "101", "--n", "4", "--trials", "10000",
                "--seed", "7", "--target-epsilon", "0.5",
            ],
        )
        best = ",".join(str(v) for v in searched["outputs"]["best_set"])
        certified, _ = run_json(
            capsys, ["resist", "--q", "101", "--s", best, "--form", "single-qubit"]
        )
        assert certified["outputs"]["epsilon"] == searched["outputs"]["epsilon"]
        assert certified["outputs"]["worst_x"] == searched["outputs"]["worst_x"]


def edges(cap):
    # The edges of an integer span [.., cap], and texts that are no integer.
    return [-1, 0, 1, 2, cap, cap + 1, 2**64, "1.5", "0x10", "", "nan", "inf"]


@pytest.fixture(scope="module")
def residue_paths(tmp_path_factory):
    # Residue lists given as paths: a file of integers that parses, and a
    # directory, a missing path and a file that is not UTF-8, which do not.
    folder = tmp_path_factory.mktemp("residues")
    good, latin = folder / "good.txt", folder / "latin.txt"
    good.write_text("3, 5\n7\n")
    latin.write_bytes(b"1,\xff2")
    bad = [str(folder), str(folder / "missing.txt"), str(latin)]
    return [str(good)], bad


def residue_lists(paths, size):
    # (good, bad) residue lists: inline and as a file, and empty, blank,
    # unreadable or no integers. A good list holds up to three residues,
    # or `size` ones, at or just past a cap of the command.
    good, bad = paths
    inline = ["1", "3,5", "0,1,63", f"5,-1,{2**64}", ",".join(["1"] * size)]
    return inline + good, ["", " ", "\t\n", "1,x", "1.5", *bad]


class CommandContract:
    # The command-line contract at the edges of every input: exit 0 with a
    # schema-valid document, or exit 2 with nothing on stdout (1, with the
    # document, only from a failed verify check), and never a traceback.
    # The sweep modulus cap and the work budgets are lowered here, so the
    # largest runs they admit take milliseconds; the real caps are tested
    # above and in tests/test_search.py and tests/test_verification.py.
    # The bias budget admits three residues at q = 64 and no more.
    Q_CAP, BUDGET, BIAS_BUDGET, VERIFY_BUDGET = 64, 10_000, 3 * 63, 2_000_000

    @staticmethod
    def options(data, count):
        # Each of `count` options takes an in-span edge, or is left out
        # where it may be, except up to two options that may take any edge.
        broken = data.draw(st.sets(st.sampled_from(range(count)), max_size=2))
        options = {}

        def draw(flag, good, bad):
            values = good + bad if len(options) in broken else good
            options[flag] = data.draw(st.sampled_from(values), label=flag)
            return options[flag]

        return options, draw

    def check(self, command, options, codes=(0, 2)):
        argv = [command]
        for flag, value in options.items():
            argv += [] if value is None else [flag, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            for module, name, lowered in (
                (analysis, "MAX_SWEEP_MODULUS", self.Q_CAP),
                (search, "MAX_SEARCH_EVALS", self.BUDGET),
                (analysis, "MAX_BIAS_EVALS", self.BIAS_BUDGET),
                (verification, "MAX_VERIFY_WORK", self.VERIFY_BUDGET),
            ):
                stack.enter_context(mock.patch.object(module, name, lowered))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = main(argv)
        event(f"exit {code}")
        assert code in codes, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        else:
            jsonschema.validate(json.loads(out.getvalue()), REPORT_SCHEMA)


def forms(draw, required=False):
    # --form, then --sum-qubit, which only the single-qubit form reads.
    names = ["standard", "shallow", "single-qubit"]
    draw("--form", names if required else [None, *names], ["", "nan"])
    draw("--sum-qubit", [None, "on", "off"], ["", "1"])


class TestSearchContract(CommandContract):
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_streams(self, data):
        options, draw = self.options(data, 7)
        q = draw("--q", [2, self.Q_CAP], [None, *edges(self.Q_CAP)])
        cap = hashing.MAX_PARAMS
        n = draw("--n", [1, 2, cap], [None, *edges(cap)])
        # The trial count's cap: the most trials the budget holds at q, n.
        size = [v if isinstance(v, int) and v > 0 else 1 for v in (q, n)]
        trials = self.BUDGET // (size[0] * size[1])
        draw("--trials", [None, 1, 2, trials], edges(trials))
        draw("--seed", [None, 0, 1, 2, 2**64 - 1], edges(2**64 - 1))
        draw("--target-epsilon", [None, 0.5, 1], edges(1))
        forms(draw)
        self.check("search", options)


class TestCommandContract(CommandContract):
    # The contract of `resist`, `bias`, `hash` and `verify`, as
    # TestSearchContract checks it for `search`.
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_resist(self, residue_paths, data):
        options, draw = self.options(data, 4)
        draw("--q", [2, self.Q_CAP], [None, *edges(self.Q_CAP)])
        draw("--s", *residue_lists(residue_paths, hashing.MAX_PARAMS))
        forms(draw)
        self.check("resist", options)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bias(self, residue_paths, data):
        options, draw = self.options(data, 3)
        q = draw("--q", [2, self.Q_CAP], [None, *edges(self.Q_CAP)])
        draw("--b", *residue_lists(residue_paths, 4))
        top = q - 1 if isinstance(q, int) and q > 1 else self.Q_CAP - 1
        draw("--x", [None, 0, 1, top], edges(top))
        self.check("bias", options)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hash(self, residue_paths, data):
        options, draw = self.options(data, 6)
        q = draw("--q", [2, self.Q_CAP, 2**64], [None, *edges(MAX_MODULUS)])
        forms(draw, required=True)
        # Four parameters, not MAX_PARAMS: a state of 2**20 amplitudes
        # takes seconds to write.
        good, bad = residue_lists(residue_paths, 4)
        draw("--s", good, [None, *bad])
        draw("--b", [None], ["0,3,5,8", "0", *good, *bad])
        top = q - 1 if isinstance(q, int) and q > 1 else self.Q_CAP - 1
        draw("--x", [0, 1, top], [None, *edges(top)])
        self.check("hash", options)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_verify(self, data):
        options, draw = self.options(data, 4)
        q = draw("--q-max", [None, 2, 8, self.Q_CAP], edges(self.Q_CAP))
        cap = hashing.MAX_PARAMS
        n = draw("--n-max", [None, 1, 2, cap], edges(cap))
        draw("--seed", [None, 0, 1, 2**64], [-1, "1.5", "0x10", "", "nan", "inf"])
        # The trial count's cap: the most trials the budget holds at q_max
        # and n_max, where they are in span, or at their defaults.
        q = q if isinstance(q, int) and 2 <= q <= self.Q_CAP else 64
        n = n if isinstance(n, int) and 1 <= n <= cap else 5
        trials = self.VERIFY_BUDGET // _verify_work(q, n, 1)
        draw("--trials", [None, 1, 2, trials], edges(trials))
        self.check("verify", options, codes=(0, 1, 2))


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        document, _ = run_json(
            capsys, ["verify", "--q-max", "8", "--n-max", "3", "--trials", "2"]
        )
        outputs = document["outputs"]
        assert outputs["all_passed"] is True
        assert [check["name"] for check in outputs["checks"]] == [
            "ucr_decomposition",
            "single_qubit_inner_product",
            "shallow_inner_product",
            "resistance_equivalence",
        ]

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        def fake_checks(**kwargs):
            return [CheckResult("ucr_decomposition", False, 1.0, "forced")]

        monkeypatch.setattr("zqhash.cli.run_all_checks", fake_checks)
        code, out, _ = run_cli(capsys, ["verify", "--q-max", "4"])
        assert code == 1
        document = json.loads(out)
        assert document["outputs"]["all_passed"] is False

    def test_failed_check_with_out_writes_the_file_and_exits_1(
        self, capsys, monkeypatch, tmp_path
    ):
        def fake_checks(**kwargs):
            return [CheckResult("ucr_decomposition", False, 1.0, "forced")]

        monkeypatch.setattr("zqhash.cli.run_all_checks", fake_checks)
        path = tmp_path / "verify.json"
        code, out, err = run_cli(capsys, ["verify", "--out", str(path)])
        assert (code, out, err) == (1, "", f"wrote {path}\n")
        document = json.loads(path.read_text())
        jsonschema.validate(document, REPORT_SCHEMA)
        assert document["outputs"]["all_passed"] is False


class TestTopLevel:
    def test_no_arguments_exits_2(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == 2

    def test_version_exits_0(self, capsys):
        assert run_cli(capsys, ["--version"])[0] == 0

    def test_one_parser_per_process(self, capsys, monkeypatch):
        # main builds its parser on the first call and reuses it, after a
        # bad argv too; each document equals a fresh parser's.
        argvs = [
            "search --q 101 --n 4 --trials 200 --seed 7",
            "resist --q 4099 --s 3,5,7,11 --form shallow",
            "verify --q-max 12 --n-max 4 --trials 2",
        ]
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            expected = [run_cli(capsys, argv.split()) for argv in argvs]
        cli._parser.cache_clear()
        assert run_cli(capsys, ["search", "--q", "101"])[0] == 2
        for argv, (code, out, _) in zip(argvs, expected):
            again, text, _ = run_cli(capsys, argv.split())
            assert again == code == 0
            assert TIMING_FIELD.sub("", text) == TIMING_FIELD.sub("", out)
        code, out, _ = run_cli(capsys, ["--version"])
        assert (code, out.strip()) == (0, zqhash.__version__)
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()


class Refuse:
    # A stderr, or stdout, whose every write fails with one errno.
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise OSError(self.error, os.strerror(self.error))

    def flush(self):
        pass


@pytest.mark.parametrize("error", [errno.EPIPE, errno.ENOSPC], ids=["EPIPE", "ENOSPC"])
class TestFailedStderr:
    # A stderr line that cannot be written is dropped: the exit code comes
    # from the document's destination and the checks alone.
    def test_warning_exits_0_with_the_same_document(self, capsys, monkeypatch, error):
        argv = ["resist", "--q", "7", "--s", "8,3"]
        code, expected, err = run_cli(capsys, argv)
        assert (code, err) == (0, "warning: parameters reduced mod 7 to [1, 3]\n")
        monkeypatch.setattr(sys, "stderr", Refuse(error))
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert TIMING_FIELD.sub("", out) == TIMING_FIELD.sub("", expected)

    def test_bad_input_exits_2_with_stdout_empty(self, capsys, monkeypatch, error):
        monkeypatch.setattr(sys, "stderr", Refuse(error))
        assert run_cli(capsys, ["resist", "--q", "7", "--s", "x"])[:2] == (2, "")

    def test_out_exits_0_and_writes_the_file(
        self, capsys, monkeypatch, tmp_path, error
    ):
        monkeypatch.setattr(sys, "stderr", Refuse(error))
        path = tmp_path / "report.json"
        argv = ["resist", "--q", "7", "--s", "1,3", "--out", str(path)]
        assert run_cli(capsys, argv)[:2] == (0, "")
        jsonschema.validate(json.loads(path.read_text()), REPORT_SCHEMA)

    def test_failed_verify_exits_1(self, capsys, monkeypatch, error):
        turn, periods = hashing._TURN_4PI
        monkeypatch.setattr(hashing, "_TURN_4PI", (turn / 2, periods))
        monkeypatch.setattr(sys, "stderr", Refuse(error))
        argv = ["verify", "--q-max", "8", "--n-max", "3", "--trials", "2"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert json.loads(out)["outputs"]["all_passed"] is False

    def test_failed_stdout_write_exits_2(self, monkeypatch, error):
        monkeypatch.setattr(sys, "stdout", Refuse(error))
        monkeypatch.setattr(sys, "stderr", Refuse(error))
        assert main(["resist", "--q", "7", "--s", "3"]) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stderr_on_a_full_device_changes_nothing():
    # Buffered stderr, so the bytes still held at exit are dropped too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "zqhash", "resist", "--q", "7", "--s", "8,3"]
    plain = subprocess.run(argv, capture_output=True, text=True, env=env)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=full, text=True, env=env
        )
    assert (plain.returncode, done.returncode) == (0, 0)
    assert plain.stderr == "warning: parameters reduced mod 7 to [1, 3]\n"
    assert TIMING_FIELD.sub("", done.stdout) == TIMING_FIELD.sub("", plain.stdout)


@pytest.mark.parametrize("s, code", [("8,3", 0), ("x", 2)], ids=["warning", "error"])
def test_stderr_closed_at_startup_keeps_stdout_the_document(s, code):
    # With fd 2 closed, sys.stderr is None, and a print to it would land
    # on stdout, ahead of the document.
    argv = [sys.executable, "-m", "zqhash", "resist", "--q", "7", "--s", s]
    plain = subprocess.run(argv, capture_output=True, text=True)
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2)
    )
    assert (plain.returncode, done.returncode) == (code, code)
    assert plain.stderr.startswith("warning: " if code == 0 else "error: ")
    assert TIMING_FIELD.sub("", done.stdout) == TIMING_FIELD.sub("", plain.stdout)


def test_empty_out_path_exits_2(capsys, monkeypatch, tmp_path):
    # The empty string names no file; it once sent the document to stdout.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, ["resist", "--q", "7", "--s", "3", "--out", ""])
    assert (code, out) == (2, "")
    assert err == "error: --out needs a path, not the empty string\n"
    assert os.listdir(tmp_path) == []


FORMS = ("standard", "shallow", "single-qubit")

# Every subcommand's options, recorded from the parser that declared --q,
# --form and --sum-qubit once per subcommand: dest -> (option strings,
# default, required, choices, type name). Help text is left out, and so is
# order, as hash now lists --sum-qubit next to --form.
PARSER_SURFACE = {
    "hash": {
        "out": (("--out",), None, False, None, None),
        "quiet": (("--quiet",), False, False, None, None),
        "q": (("--q",), None, True, None, "int"),
        "form": (("--form",), None, True, FORMS, None),
        "s": (("--s",), None, False, None, None),
        "b": (("--b",), None, False, None, None),
        "x": (("--x",), None, True, None, "int"),
        "sum_qubit": (("--sum-qubit",), "off", False, ("on", "off"), None),
    },
    "bias": {
        "out": (("--out",), None, False, None, None),
        "quiet": (("--quiet",), False, False, None, None),
        "q": (("--q",), None, True, None, "int"),
        "b": (("--b",), None, True, None, None),
        "x": (("--x",), None, False, None, "int"),
    },
    "resist": {
        "out": (("--out",), None, False, None, None),
        "quiet": (("--quiet",), False, False, None, None),
        "q": (("--q",), None, True, None, "int"),
        "s": (("--s",), None, True, None, None),
        "form": (("--form",), "single-qubit", False, FORMS, None),
        "sum_qubit": (("--sum-qubit",), "off", False, ("on", "off"), None),
    },
    "search": {
        "out": (("--out",), None, False, None, None),
        "quiet": (("--quiet",), False, False, None, None),
        "q": (("--q",), None, True, None, "int"),
        "n": (("--n",), None, True, None, "int"),
        "trials": (("--trials",), 100, False, None, "int"),
        "seed": (("--seed",), 12648430, False, None, "int"),
        "target_epsilon": (("--target-epsilon",), None, False, None, "float"),
        "form": (("--form",), "single-qubit", False, FORMS, None),
        "sum_qubit": (("--sum-qubit",), "off", False, ("on", "off"), None),
    },
    "verify": {
        "out": (("--out",), None, False, None, None),
        "quiet": (("--quiet",), False, False, None, None),
        "q_max": (("--q-max",), 64, False, None, "int"),
        "n_max": (("--n-max",), 5, False, None, "int"),
        "seed": (("--seed",), 12648430, False, None, "int"),
        "trials": (("--trials",), 5, False, None, "int"),
    },
}


class TestParserSurface:
    def test_every_subcommand_keeps_its_options(self):
        parser = cli.build_parser()
        (sub,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        surface = {
            name: {
                action.dest: (
                    tuple(action.option_strings),
                    action.default,
                    action.required,
                    tuple(action.choices) if action.choices else None,
                    getattr(action.type, "__name__", None),
                )
                for action in command._actions
                if action.dest != "help"
            }
            for name, command in sub.choices.items()
        }
        assert surface == PARSER_SURFACE


SUM_QUBIT_IGNORED = [
    ("hash --q 11 --s 3,5 --x 4 --form shallow", "shallow"),
    ("hash --q 11 --s 3,5 --x 4 --form standard", "standard"),
    ("resist --q 7 --s 1,2 --form shallow", "shallow"),
    ("resist --q 7 --s 1,2 --form standard", "standard"),
    ("search --q 11 --n 2 --trials 5 --seed 1 --form shallow", "shallow"),
    ("search --q 11 --n 2 --trials 5 --seed 1 --form standard", "standard"),
]


class TestSumQubitOutsideSingleQubit:
    @pytest.mark.parametrize("argv, form", SUM_QUBIT_IGNORED)
    def test_warns_and_changes_no_output(self, capsys, argv, form):
        on, err = run_json(capsys, argv.split() + ["--sum-qubit", "on"])
        off, off_err = run_json(capsys, argv.split() + ["--sum-qubit", "off"])
        assert err == f"warning: --sum-qubit on is ignored by the {form} form\n"
        assert off_err == ""
        assert on["outputs"] == off["outputs"]

    def test_quiet_suppresses_the_warning(self, capsys):
        argv = SUM_QUBIT_IGNORED[0][0].split() + ["--sum-qubit", "on", "--quiet"]
        _, err = run_json(capsys, argv)
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "hash --q 11 --s 3,5 --x 4",
            "resist --q 7 --s 1,2",
            "search --q 11 --n 2 --trials 5 --seed 1",
        ],
    )
    def test_single_qubit_form_does_not_warn(self, capsys, argv):
        argv = argv.split() + ["--form", "single-qubit", "--sum-qubit", "on"]
        _, err = run_json(capsys, argv)
        assert err == ""


class TestVerifyInputs:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--q-max", "1"],
            ["--trials", "0"],
            ["--n-max", "0"],
            ["--n-max", "21"],
            ["--seed", "-1"],
            ["--q-max", str(2**20 + 1)],
        ],
    )
    def test_inputs_that_check_nothing_exit_2(self, capsys, monkeypatch, flags):
        def started(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr("zqhash.verification.check_ucr_decomposition", started)
        code, out, err = run_cli(capsys, ["verify", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [
            # One trial more than the budget holds at the default sizes.
            ["--trials", str(MAX_VERIFY_WORK // _verify_work(64, 5, 1) + 1)],
            ["--q-max", "2000", "--n-max", "1", "--trials", "1"],
            ["--n-max", "20", "--q-max", "2", "--trials", "1"],
        ],
    )
    def test_past_the_work_budget_exits_2_with_one_line(
        self, capsys, monkeypatch, flags
    ):
        def started(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ["check_ucr_decomposition", "check_inner_products"]:
            monkeypatch.setattr(f"zqhash.verification.{name}", started)
        code, out, err = run_cli(capsys, ["verify", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestLargeModulusExactness:
    def test_single_x_bias_reduces_products_exactly(self, capsys):
        # b*x = 2**79 wraps int64; the true bias is about 3.2e-10, not 1.
        q, b, x = 1099511627791, 1099511627776, 549755813888
        document, _ = run_json(
            capsys, ["bias", "--q", str(q), "--b", f"0,{b}", "--x", str(x)]
        )
        expected = abs(1 + cmath.exp(2j * math.pi * ((b * x) % q) / q)) / 2
        assert_allclose(document["outputs"]["bias"], expected, rtol=1e-6)
        assert document["outputs"]["bias"] < 1e-9


class TestModulusCap:
    HUGE = str(10**400 + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hash", "--form", "single-qubit", "--s", "3", "--x", "5", "--q", HUGE],
            ["hash", "--form", "shallow", "--s", "3", "--x", "5", "--q", HUGE],
            ["hash", "--form", "standard", "--s", "3", "--x", "5", "--q", HUGE],
            ["bias", "--b", "1,2", "--x", "5", "--q", HUGE],
            ["bias", "--b", "1,2", "--x", "5", "--q", str(MAX_MODULUS + 1)],
            ["hash", "--form", "shallow", "--s", "3", "--x", "5", "--q", str(MAX_MODULUS + 1)],
        ],
    )
    def test_above_cap_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: modulus must be in [2, 2**1000]")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("form", ["standard", "shallow", "single-qubit"])
    def test_cap_itself_is_accepted(self, capsys, form):
        document, _ = run_json(
            capsys,
            ["hash", "--q", str(MAX_MODULUS), "--form", form, "--s", "3,7", "--x", "5"],
        )
        assert document["outputs"]["num_qubits"] == (3 if form != "single-qubit" else 2)

    def test_cap_itself_single_x_bias(self, capsys):
        document, _ = run_json(
            capsys, ["bias", "--q", str(MAX_MODULUS), "--b", "1,2", "--x", "5"]
        )
        assert 0.0 <= document["outputs"]["bias"] <= 1.0
