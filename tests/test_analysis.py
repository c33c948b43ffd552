import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zqhash import analysis, search
from zqhash.analysis import (
    MAX_SWEEP_MODULUS,
    bias,
    closed_inner_shallow,
    closed_inner_single,
    collision_resistance,
    cosine_sum_check,
    epsilon_of_biased_set,
    shift_normalize,
    simulated_inner,
)
from zqhash.hashing import MAX_PARAMS, BiasedSet, HashForm, ParamSet


def bias_oracle(biased, x):
    # Straightforward complex phase sum, one term at a time, with b*x
    # reduced mod q in Python ints before the float division.
    total = sum(
        cmath.exp(2j * math.pi * ((b * x) % biased.q) / biased.q)
        for b in biased.elements
    )
    return abs(total) / biased.size


def sweep_oracle(biased):
    # The direct sweep: one exp row per element of B over x = 1..q-1, added
    # in B's order. The table-driven sweep must give exactly these bits.
    q = biased.q
    xs = np.arange(1, q, dtype=np.int64)
    total = np.zeros(q - 1, dtype=np.complex128)
    for b in biased.elements:
        total += np.exp(1j * ((2.0 * np.pi / q) * ((b * xs) % q)))
    return np.abs(total / biased.size)


def closed_oracle(q, rows, dx, with_sum):
    # The direct closed form: np.cos of every cell of every factor, each
    # numerator reduced mod 2q first, multiplied in parameter order. The
    # table-driven form must give exactly these bits.
    factors = [rows[:, j, None] for j in range(rows.shape[1])]
    if with_sum:
        factors.append(rows.sum(axis=1, keepdims=True))
    out = np.ones(dx.shape)
    for s in factors:
        out = out * np.cos((np.pi / q) * ((s * dx) % (2 * q)))
    return out


BLOCK = analysis._SWEEP_BLOCK


def window(q):
    # The differences a scan's window sweep covers: [1, window(q)].
    return max(1, (q - 1) // 4)


def widths(q, block=BLOCK):
    # The widths a scan's maxima are checked at: every one up to q = 257,
    # past it the window, q - 1 and the seams of a block of x.
    if q <= 257:
        return list(range(1, q))
    seams = {w for w in range(max(1, block - 1), block + 2) if w < q}
    return sorted({1, window(q), q - 1} | seams)


def scan_maxima(q, rows, form, include_sum_qubit, at):
    # Every row of a (K, n) block, swept as one draw of a scan, block by
    # block: its max |value| over the differences [1, width], one column
    # for each width of `at`.
    with_sum = analysis._with_sum(form, include_sum_qubit)
    sweeps = analysis._closed_sweeps(q, with_sum, [rows], len(rows), window(q))
    return np.concatenate(
        [
            np.stack([maxima(block, w) for w in at], axis=1)
            for _, block, maxima in sweeps
        ]
    )


def running_maxima(values, at):
    # The oracle's running max of |value| along each row, at every width of
    # `at`: the max over the differences [1, width].
    return np.maximum.accumulate(values, axis=1)[:, np.array(at) - 1]


def row_sweep(q, row, form, include_sum_qubit):
    # One row, as `collision_resistance` sweeps it.
    return collision_resistance(ParamSet(q, row), form, include_sum_qubit).values


@st.composite
def biased_cases(draw):
    q = draw(st.integers(2, 64))
    d = draw(st.integers(1, 8))
    return BiasedSet(q, tuple(draw(st.integers(0, q - 1)) for _ in range(d)))


class TestBias:
    def test_x_zero_is_one(self):
        assert bias(BiasedSet(8, (0, 1, 2, 3)), 0) == 1.0

    def test_vanishing_point(self):
        assert_allclose(bias(BiasedSet(8, (0, 1, 2, 3)), 4), 0.0, atol=1e-12)

    def test_singleton_always_one(self):
        for x in range(5):
            assert_allclose(bias(BiasedSet(5, (3,)), x), 1.0)

    @given(biased_cases(), st.integers(0, 63))
    @settings(max_examples=80, deadline=None)
    def test_matches_complex_sum(self, biased, x_raw):
        x = x_raw % biased.q
        assert_allclose(bias(biased, x), bias_oracle(biased, x), atol=1e-12)

    @pytest.mark.parametrize("x", [-1, 8])
    def test_rejects_out_of_range(self, x):
        with pytest.raises(ValueError):
            bias(BiasedSet(8, (0, 1)), x)


class TestShiftNormalize:
    def test_example(self):
        assert shift_normalize(BiasedSet(8, (3, 5, 6))).elements == (0, 2, 3)

    def test_idempotent_once_anchored(self):
        shifted = shift_normalize(BiasedSet(8, (3, 5, 6)))
        assert shift_normalize(shifted).elements == shifted.elements

    @given(biased_cases())
    @settings(max_examples=60, deadline=None)
    def test_preserves_bias_everywhere(self, biased):
        shifted = shift_normalize(biased)
        assert shifted.elements[0] == 0
        for x in range(biased.q):
            assert_allclose(bias(shifted, x), bias(biased, x), atol=1e-12)


class TestEpsilonSweep:
    def test_half_modulus_pair_is_maximally_biased(self):
        report = epsilon_of_biased_set(BiasedSet(4, (0, 2)))
        assert_allclose(report.epsilon, 1.0)
        assert report.worst_x == 2
        assert_allclose(report.values[0], 0.0, atol=1e-12)

    def test_values_match_scalar_bias(self):
        # The sweep and the scalar path can differ by an ulp: numpy's
        # complex exp picks different code paths for long and short arrays.
        biased = BiasedSet(17, (0, 3, 5, 11))
        report = epsilon_of_biased_set(biased)
        for x, value in enumerate(report.values, 1):
            assert abs(value - bias(biased, x)) < 1e-15

    def test_epsilon_is_max_and_worst_x_is_smallest(self):
        # Bias is symmetric under x -> q - x, so the peak appears twice and
        # the report must point at the smaller residue.
        report = epsilon_of_biased_set(BiasedSet(5, (0, 1)))
        assert report.epsilon == max(report.values)
        assert report.worst_x == 1
        assert_allclose(report.values[3], report.values[0])

    def test_table_spans_nonzero_residues(self):
        report = epsilon_of_biased_set(BiasedSet(9, (0, 1, 4)))
        assert report.values.shape == (8,)  # x = 1 .. 8

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            epsilon_of_biased_set(BiasedSet(MAX_SWEEP_MODULUS + 1, (0, 1)))

    def test_large_modulus_block_sweep(self):
        # A large modulus in one block: q = 4096 is below the sweep block
        # of 8192; test_modulus_above_block_size crosses the seams.
        q = 1 << 12
        report = epsilon_of_biased_set(BiasedSet(q, (0, 1)))
        # Adjacent pair: bias at x is |cos(pi*x/q)|, worst at x=1.
        assert report.worst_x == 1
        assert_allclose(report.epsilon, abs(math.cos(math.pi / q)), atol=1e-12)

    def test_modulus_above_block_size(self):
        q = 2 * BLOCK + 3
        report = epsilon_of_biased_set(BiasedSet(q, (0, 1)))
        assert report.worst_x == 1
        assert_allclose(report.epsilon, abs(math.cos(math.pi / q)), atol=1e-12)

    def test_rejects_a_sweep_past_the_work_budget(self, monkeypatch):
        # One residue more than the budget holds at the cap: 9537 * (2**20 - 1)
        # pairs. The sweep is never entered.
        def entered(*args):
            raise AssertionError("swept a rejected set")

        monkeypatch.setattr(analysis, "_table_sweep", entered)
        q = MAX_SWEEP_MODULUS
        count = analysis.MAX_BIAS_EVALS // (q - 1) + 1
        assert count == 9537
        with pytest.raises(ValueError, match="budget"):
            epsilon_of_biased_set(BiasedSet(q, tuple(range(count))))

    def test_rejects_a_prime_sweep_past_the_work_budget(self, monkeypatch):
        # One residue more than the budget holds at the largest prime below
        # the cap: 9537 * (1048573 - 1) pairs. Neither the generator nor the
        # log table is made.
        def entered(*args):
            raise AssertionError("swept a rejected set")

        for name in ("_generator", "_log_sweep", "_table_sweep"):
            monkeypatch.setattr(analysis, name, entered)
        q = 1048573
        count = analysis.MAX_BIAS_EVALS // (q - 1) + 1
        assert count == 9537
        with pytest.raises(ValueError, match="budget"):
            epsilon_of_biased_set(BiasedSet(q, tuple(range(count))))

    def test_accepts_a_sweep_at_the_work_budget(self, monkeypatch):
        q = MAX_SWEEP_MODULUS
        monkeypatch.setattr(
            analysis, "_table_sweep", lambda *args: np.ones(q - 1, dtype=complex)
        )
        count = analysis.MAX_BIAS_EVALS // (q - 1)
        report = epsilon_of_biased_set(BiasedSet(q, tuple(range(count))))
        assert report.values.shape == (q - 1,)


class TestSweepBits:
    @pytest.mark.parametrize("q", [2, 3, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 2])
    @pytest.mark.parametrize(
        "elements",
        [(1,), (0,), (5, 5), (0, 3, 3, 0, 7), (2, 1, 4, 8, 16, 32, 64, 11, 9)],
    )
    def test_equals_direct_sum(self, q, elements):
        biased = BiasedSet(q, elements)
        values = epsilon_of_biased_set(biased).values
        assert np.array_equal(values, sweep_oracle(biased))

    @given(
        st.integers(2, 700).flatmap(
            lambda q: st.tuples(
                st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=17)
            )
        ),
        st.sampled_from([1, 2, 7, 64, BLOCK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_direct_sum_at_any_block(self, case, block):
        q, elements = case
        biased = BiasedSet(q, tuple(elements))
        with mock.patch.object(analysis, "_SWEEP_BLOCK", block):
            values = epsilon_of_biased_set(biased).values
        assert np.array_equal(values, sweep_oracle(biased))

    def test_equals_direct_sum_at_the_cap(self):
        biased = BiasedSet(MAX_SWEEP_MODULUS, (0, 1, 524287, 1048575, 77777))
        values = epsilon_of_biased_set(biased).values
        assert np.array_equal(values, sweep_oracle(biased))

    def test_memory_at_the_cap(self):
        # Two q-sized complex arrays at the peak: the roots and the total
        # while the sweep runs, or the roots and exp's argument while the
        # roots are built. Measured 32.3 MB, about 4 * 8q bytes; dividing
        # into a new array with the roots still held measured 56.3 MB.
        q = MAX_SWEEP_MODULUS
        biased = BiasedSet(q, (0, 1, 524287, 1048575, 77777))
        tracemalloc.start()
        try:
            epsilon_of_biased_set(biased)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * q

    def test_memory_at_the_prime_cap(self):
        # The log-order sweep at the largest prime below the cap: its window
        # table R and the total, complex, and the int32 log table. Measured
        # 36.0 MB, 4.5 * 8q bytes; the bound is the table loop's plus one
        # int32 array of q values.
        q = 1048573
        biased = BiasedSet(q, (0, 1, 524287, q - 1, 77777, 1))
        tracemalloc.start()
        try:
            epsilon_of_biased_set(biased)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * q


def _primes_below(limit):
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


PRIMES = _primes_below(1 << 12)


def table_loop_total(q, elements):
    # The table loop's sums over B on the q roots, in x order.
    roots = np.exp(1j * ((2.0 * np.pi / q) * np.arange(q, dtype=np.int64)))
    return analysis._table_sweep(roots, q, list(elements), np.add)


class TestLogSweep:
    def test_primality_by_trial_division(self):
        assert [q for q in range(1 << 12) if analysis._is_prime(q)] == PRIMES
        assert analysis._is_prime(1048573)
        assert not any(map(analysis._is_prime, [1048575, 1 << 20, 1023 * 1021]))

    def test_generator_is_the_smallest(self):
        # g has order q - 1, and every smaller residue has a smaller order.
        def order(h, q):
            power, k = h, 1
            while power != 1:
                power, k = power * h % q, k + 1
            return k

        for q in PRIMES[:100] + [65537, 1048573]:
            g = analysis._generator(q)
            assert order(g, q) == q - 1
            assert all(order(h, q) < q - 1 for h in range(1, g))

    @given(
        st.sampled_from(PRIMES).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.lists(
                    st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1),
                    min_size=1,
                    max_size=9,
                ),
            )
        ),
        st.sampled_from([1, 7, BLOCK]),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_table_loop(self, case, block):
        # Sets hold 0, 1 and q - 1 often, and duplicates from them.
        q, elements = case
        with mock.patch.object(analysis, "_SWEEP_BLOCK", block):
            total, logs = analysis._log_sweep(q, tuple(elements))
            assert total.take(logs[1:]).tobytes() == (
                table_loop_total(q, elements).tobytes()
            )

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("elements", [(0,), (1,), (-1,), (0, 1, 1, -1)])
    def test_equals_the_table_loop_at_the_smallest_primes(self, q, elements):
        elements = BiasedSet(q, elements).elements
        total, logs = analysis._log_sweep(q, elements)
        assert total.take(logs[1:]).tobytes() == table_loop_total(q, elements).tobytes()

    @pytest.mark.parametrize(
        "q, prime", [(65536, False), (1 << 20, False), (65537, True), (1048573, True)]
    )
    def test_composite_moduli_take_the_table_loop(self, q, prime):
        biased = BiasedSet(q, (0, 1, 12345, q - 1))
        with mock.patch.object(
            analysis, "_table_sweep", wraps=analysis._table_sweep
        ) as loop, mock.patch.object(
            analysis, "_log_sweep", wraps=analysis._log_sweep
        ) as logs:
            epsilon_of_biased_set(biased)
        assert (loop.call_count, logs.call_count) == ((0, 1) if prime else (1, 0))


class TestClosedInner:
    def test_equal_inputs_give_one(self):
        assert closed_inner_single(ParamSet(4, (1,)), 3, 3) == 1.0

    def test_single_param(self):
        value = closed_inner_single(ParamSet(4, (1,)), 1, 0)
        assert value == math.cos(math.pi / 4)

    def test_sum_qubit_squares_single_factor(self):
        value = closed_inner_single(ParamSet(4, (1,)), 1, 0, include_sum_qubit=True)
        assert_allclose(value, 0.5, atol=1e-12)

    def test_worked_product(self):
        value = closed_inner_shallow(ParamSet(8, (1, 2)), 1, 0)
        assert abs(value - 0.25) < 1e-15

    def test_shallow_equals_single_with_sum(self):
        params = ParamSet(13, (2, 5, 9))
        for x1 in range(13):
            for x2 in range(13):
                assert closed_inner_shallow(params, x1, x2) == closed_inner_single(
                    params, x1, x2, include_sum_qubit=True
                )

    def test_depends_only_on_difference(self):
        params = ParamSet(11, (3, 7))
        for shift in (1, 4, 9):
            assert closed_inner_single(params, 5, 2) == closed_inner_single(
                params, (5 + shift) % 11 + 11, (2 + shift) % 11 + 11
            )

    def test_signed_value_can_be_negative(self):
        value = closed_inner_single(ParamSet(5, (4,)), 4, 0)
        assert value < 0

    @pytest.mark.parametrize("x", [2.5, 2.0, np.float64(2.0), "2"])
    def test_rejects_non_integer_inputs(self, x):
        # A float x used to be truncated: (2.5, 0) gave the value of (2, 0).
        params = ParamSet(7, (3,))
        with pytest.raises(ValueError, match="x1 must be an integer"):
            closed_inner_single(params, x, 0)
        with pytest.raises(ValueError, match="x2 must be an integer"):
            closed_inner_shallow(params, 0, x)

    def test_numpy_integer_inputs_are_accepted(self):
        params = ParamSet(7, (3, 5))
        assert closed_inner_single(params, np.int64(5), np.uint8(2)) == (
            closed_inner_single(params, 5, 2)
        )


# Cells of one example below, K * len(dx) * (n + 1): about 2**22, so a row
# at MAX_SWEEP_MODULUS takes up to three parameters.
CELL_BUDGET = 1 << 22


class TestCosineTableBits:
    # Array sweeps read cos(pi * k / q) from one table per modulus; every
    # value must equal the direct np.cos of its cell, bit for bit.

    @staticmethod
    def draw_rows(data, moduli, q_top):
        top = min(MAX_PARAMS, max(1, CELL_BUDGET // (len(moduli) * q_top) - 1))
        n = data.draw(st.integers(1, top), label="n")
        return np.array(
            [
                data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
                for q in moduli
            ],
            dtype=np.int64,
        )

    @staticmethod
    def assert_bitwise(actual, expected):
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

    @given(
        q=st.one_of(
            st.integers(2, 400),
            st.integers(2, MAX_SWEEP_MODULUS),
            st.just(MAX_SWEEP_MODULUS),
        ),
        with_sum=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_modulus_sweep(self, q, with_sum, data):
        # A search block, swept by the table route, its row maxima over the
        # differences [1, width], and one parameter tuple as
        # `collision_resistance` passes it, over the differences 1..q-1.
        count = data.draw(st.integers(1, max(1, min(8, CELL_BUDGET // q))), label="K")
        rows = self.draw_rows(data, [q] * count, q)
        dx = np.arange(1, q, dtype=np.int64)
        expected = np.abs(closed_oracle(q, rows, dx, with_sum))
        form, at = HashForm.SINGLE_QUBIT, widths(q)
        maxima = scan_maxima(q, rows, form, with_sum, at)
        self.assert_bitwise(maxima, running_maxima(expected, at))
        one = tuple(int(v) for v in rows[0])
        self.assert_bitwise(row_sweep(q, one, form, with_sum), expected[0])

    @given(
        q=st.one_of(st.sampled_from([2, 3]), st.integers(2, 700)),
        block=st.sampled_from([1, 2, 7, 64, BLOCK]),
        with_sum=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep_at_any_block(self, q, block, with_sum, data):
        # The table route's seams: q - 1 a multiple of the block or not,
        # blocks of rows over several blocks of x, and elements at q - 1,
        # so the sum factor often passes 2q.
        count = data.draw(st.integers(1, 4), label="K")
        n = data.draw(st.integers(1, 6), label="n")
        element = st.one_of(st.just(q - 1), st.integers(0, q - 1))
        row = st.lists(element, min_size=n, max_size=n)
        rows = np.array(
            data.draw(st.lists(row, min_size=count, max_size=count), label="rows"),
            dtype=np.int64,
        )
        expected = np.abs(closed_oracle(q, rows, np.arange(1, q), with_sum))
        form, at = HashForm.SINGLE_QUBIT, widths(q, block)
        with mock.patch.object(analysis, "_SWEEP_BLOCK", block):
            maxima = scan_maxima(q, rows, form, with_sum, at)
            alone = row_sweep(q, tuple(rows[0].tolist()), form, with_sum)
        self.assert_bitwise(maxima, running_maxima(expected, at))
        self.assert_bitwise(alone, expected[0])

    @pytest.mark.parametrize("q", [2, 3, BLOCK + 2, 2 * BLOCK + 3])
    def test_sum_factor_past_2q_at_the_real_block(self, q):
        # q - 1 not a multiple of the block, and every sum factor 3q - 2,
        # the maxima at the widths 1, the window, either side of the block
        # and q - 1.
        rows = np.array([[q - 1] * 3 + [1], [1] + [q - 1] * 3], dtype=np.int64)
        expected = np.abs(closed_oracle(q, rows, np.arange(1, q), True))
        maxima = scan_maxima(q, rows, HashForm.SHALLOW, False, widths(q))
        self.assert_bitwise(maxima, running_maxima(expected, widths(q)))
        for k, row in enumerate(rows.tolist()):
            alone = row_sweep(q, tuple(row), HashForm.SHALLOW, False)
            self.assert_bitwise(alone, expected[k])

    @given(
        q=st.one_of(st.sampled_from([2, 3, 256, 257]), st.integers(2, 300)),
        offset=st.sampled_from([-1, 0, 1]),
        n=st.integers(1, 6),
        share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        with_sum=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_at_the_square_switch(self, q, offset, n, share, seed, with_sum):
        # Blocks of K = 2q - 1 rows (table loop), 2q and 2q + 1 (square at
        # q <= 256), their maxima at every width up to q = 257, with a
        # share of the elements at q - 1, so the sum factor often passes
        # 2q. Rows come from a drawn seed: K is up to 601.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, q, size=(2 * q + offset, n))
        rows[rng.random(rows.shape) < share] = q - 1
        expected = np.abs(closed_oracle(q, rows, np.arange(1, q), with_sum))
        form, at = HashForm.SINGLE_QUBIT, widths(q)
        maxima = scan_maxima(q, rows, form, with_sum, at)
        self.assert_bitwise(maxima, running_maxima(expected, at))
        for k, row in enumerate(rows.tolist()):
            alone = row_sweep(q, tuple(row), form, with_sum)
            self.assert_bitwise(alone, expected[k])

    def test_square_route_from_2q_rows(self):
        # At q <= 256 a scan reads the square from its first draw of 2q
        # rows: such a draw never enters the table loop; one row fewer
        # does, and so do 2q rows at q = 257, one call per chunk of a
        # block's full sweep. A search draws 4096 rows at a time, so its
        # 163-row sweep blocks at q = 101 read the square too, and their
        # maxima at every width are bit-identical to the table loop's on
        # the same rows.
        q = 101
        form = HashForm.SINGLE_QUBIT
        rows = np.arange(2 * q * 3, dtype=np.int64).reshape(2 * q, 3) % q
        count = analysis._block_rows(q)
        looped = scan_maxima(q, rows[:count], form, True, widths(q))

        def refuse(*args):
            raise AssertionError("the table loop swept a block after 2q rows")

        with mock.patch.object(analysis, "_table_sweep", refuse):
            maxima = scan_maxima(q, rows, form, True, widths(q))
        self.assert_bitwise(maxima[:count], looped)
        wide = np.arange(2 * 257 * 3, dtype=np.int64).reshape(2 * 257, 3) % 257

        def spy(name):
            return mock.patch.object(analysis, name, wraps=getattr(analysis, name))

        with spy("_table_sweep") as loop, spy("_cosine_square") as square:
            scan_maxima(q, rows[1:], form, True, [q - 1])
            scan_maxima(257, wide, form, True, [256])
        assert (loop.call_count, square.call_count) == (2 + 9, 0)

    def test_square_equals_its_int64_build(self):
        # The square's uint32 index picks the cells an int64 one picks, at
        # every q in [2, _SQUARE_MAX_Q = 256].
        for q in range(2, analysis._SQUARE_MAX_Q + 1):
            table = analysis._cosine_table(q)
            s, d = np.arange(2 * q, dtype=np.int64), np.arange(1, q, dtype=np.int64)
            index = np.multiply.outer(s, d) % (2 * q)
            self.assert_bitwise(analysis._cosine_square(table), table[index])

    @given(
        qs=st.lists(
            st.one_of(st.integers(2, 6), st.integers(2, 400)), min_size=1, max_size=8
        ),
        big=st.one_of(
            st.none(), st.integers(2, MAX_SWEEP_MODULUS), st.just(MAX_SWEEP_MODULUS)
        ),
        with_sum=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_modulus_column(self, qs, big, with_sum, data):
        # Verify's chunks: a (K, 1) column of moduli, repeats included, each
        # row swept over dx = 0..max(q)-1, past its own q when it is not
        # the largest.
        if big is not None:
            qs = qs[: max(1, (CELL_BUDGET // 2) // big)]
            qs.insert(data.draw(st.integers(0, len(qs)), label="position"), big)
        rows = self.draw_rows(data, qs, max(qs))
        column = np.array(qs, dtype=np.int64)[:, None]
        dx = np.arange(max(qs))
        expected = closed_oracle(column, rows, dx, with_sum)
        actual = analysis._closed_inner_values(column, rows, dx, with_sum)
        self.assert_bitwise(actual, expected)
        # Verify takes both products from one pass; each keeps these bits.
        pair = analysis._closed_inner_pair(column, rows, dx)
        self.assert_bitwise(pair[with_sum], expected)


class TestSimulatedInner:
    @pytest.mark.parametrize(
        "form,with_sum",
        [
            (HashForm.SINGLE_QUBIT, False),
            (HashForm.SINGLE_QUBIT, True),
            (HashForm.SHALLOW, False),
            (HashForm.STANDARD, False),
        ],
    )
    def test_matches_closed_form_signed(self, form, with_sum):
        rng = np.random.default_rng(31)
        for _ in range(8):
            q = int(rng.integers(2, 30))
            n = int(rng.integers(1, 5))
            params = ParamSet(q, tuple(int(v) for v in rng.integers(0, q, n)))
            x1, x2 = int(rng.integers(0, q)), int(rng.integers(0, q))
            simulated = simulated_inner(form, params, x1, x2, with_sum)
            if form is HashForm.SINGLE_QUBIT:
                closed = closed_inner_single(params, x1, x2, with_sum)
            else:
                closed = closed_inner_shallow(params, x1, x2)
            assert abs(simulated - closed) < 1e-10

    def test_same_input_gives_unit_overlap(self):
        params = ParamSet(9, (2, 4))
        assert abs(simulated_inner(HashForm.SHALLOW, params, 5, 5) - 1.0) < 1e-12

    def test_magnitude_depends_only_on_difference(self):
        params = ParamSet(7, (1, 5))
        for form, with_sum in (
            (HashForm.SHALLOW, False),
            (HashForm.SINGLE_QUBIT, False),
            (HashForm.SINGLE_QUBIT, True),
        ):
            for x1 in range(7):
                for x2 in range(7):
                    lhs = abs(simulated_inner(form, params, x1, x2, with_sum))
                    rhs = abs(
                        simulated_inner(form, params, (x1 - x2) % 7, 0, with_sum)
                    )
                    assert abs(lhs - rhs) < 1e-10

    def test_standard_needs_set_for_other_forms(self):
        with pytest.raises(ValueError):
            simulated_inner(HashForm.SHALLOW, BiasedSet(4, (0, 1)), 1, 0)


class TestCollisionResistance:
    def test_single_param_report(self):
        report = collision_resistance(ParamSet(4, (1,)), HashForm.SINGLE_QUBIT)
        assert report.epsilon == math.cos(math.pi / 4)
        assert report.worst_x == 1
        assert_allclose(report.values[1], 0.0, atol=1e-12)

    def test_all_zero_set_is_worthless(self):
        report = collision_resistance(ParamSet(6, (0, 0)), HashForm.SHALLOW)
        assert report.epsilon == 1.0
        assert report.worst_x == 1

    def test_values_match_scalar_closed_form_bitwise(self):
        params = ParamSet(19, (4, 7, 11))
        report = collision_resistance(
            params, HashForm.SINGLE_QUBIT, include_sum_qubit=True
        )
        for x, value in enumerate(report.values, 1):
            assert value == abs(closed_inner_single(params, x, 0, True))

    def test_shallow_and_standard_share_values(self):
        params = ParamSet(23, (3, 8))
        shallow = collision_resistance(params, HashForm.SHALLOW)
        standard = collision_resistance(params, HashForm.STANDARD)
        assert np.array_equal(shallow.values, standard.values)

    def test_sum_qubit_never_hurts(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            q = int(rng.integers(2, 50))
            n = int(rng.integers(1, 4))
            params = ParamSet(q, tuple(int(v) for v in rng.integers(0, q, n)))
            bare = collision_resistance(params, HashForm.SINGLE_QUBIT)
            summed = collision_resistance(params, HashForm.SINGLE_QUBIT, True)
            assert summed.values.max() <= bare.values.max() + 1e-12

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            collision_resistance(
                ParamSet(MAX_SWEEP_MODULUS + 1, (1,)), HashForm.SINGLE_QUBIT
            )

    def test_a_form_by_value_equals_its_enum(self):
        # Every form and sum-qubit setting, bit for bit. A form's value was
        # once certified as the shallow form: "single-qubit" gave 0.8578
        # here, HashForm.SINGLE_QUBIT 0.9604.
        params = ParamSet(101, (3, 5, 7))
        for form in HashForm:
            for with_sum in (False, True):
                by_value = collision_resistance(params, form.value, with_sum)
                by_enum = collision_resistance(params, form, with_sum)
                assert by_value.values.tobytes() == by_enum.values.tobytes()

    @pytest.mark.parametrize("form", ["bogus", 42, None])
    def test_rejects_an_unknown_form(self, form):
        # With the sum factor on too, which every form but one ignores.
        for include_sum_qubit in (False, True):
            with pytest.raises(ValueError, match="not a valid HashForm"):
                collision_resistance(ParamSet(101, (3, 5, 7)), form, include_sum_qubit)

    def test_memory_at_the_sweep_cap(self):
        # Three q-sized float arrays at the cap: the 2q cosine table and
        # the values, whose magnitudes are taken in place, plus the small
        # block buffers. Measured 25.4 MB = 3.03 * 8q bytes; the per-cell
        # gather over all differences at once measured 48.0 MB, direct
        # cosines 32.1 MB.
        q = MAX_SWEEP_MODULUS
        params = ParamSet(q, (12345, 67891, 23456, 78901, 34567, 89012))
        tracemalloc.start()
        try:
            collision_resistance(params, HashForm.SHALLOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * 8 * q

    def test_memory_of_a_square_block(self):
        # The largest q on the square route, in a whole search: q = 256,
        # six parameters and the sum factor, 600 trials in one draw. The
        # square and its int64 index, 2 * 8 * 2q (q - 1) bytes, are made
        # once, and the 64-row sweep blocks read the square into the scan's
        # buffers. Measured 2.12 MB (2.03 units); making a 514-row block
        # and its square per 2**17 cells measured 3.18 MB (3.05).
        q = 256
        config = search.SearchConfig(q=q, n=6, trials=600, seed=5)
        assert config.trials >= 2 * q
        tracemalloc.start()
        try:
            search.random_search(config, HashForm.SINGLE_QUBIT, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * 2 * q * (q - 1)


class TestCosineSumCheck:
    def test_quarter_turn_pair(self):
        cos_part, full = cosine_sum_check(BiasedSet(4, (0, 1)), 1)
        assert_allclose(cos_part, 0.5)
        assert_allclose(full, math.sqrt(0.5))

    def test_cancelling_pair(self):
        cos_part, full = cosine_sum_check(BiasedSet(4, (0, 2)), 1)
        assert_allclose([cos_part, full], [0.0, 0.0], atol=1e-12)

    def test_rejects_zero_x(self):
        with pytest.raises(ValueError):
            cosine_sum_check(BiasedSet(4, (0, 1)), 0)

    @given(biased_cases(), st.integers(1, 63))
    @settings(max_examples=80, deadline=None)
    def test_cosine_never_exceeds_magnitude(self, biased, x_raw):
        x = 1 + x_raw % (biased.q - 1) if biased.q > 2 else 1
        cos_part, full = cosine_sum_check(biased, x)
        assert cos_part <= full + 1e-12

    def test_full_part_is_bias(self):
        biased = BiasedSet(12, (0, 2, 5))
        for x in range(1, 12):
            assert cosine_sum_check(biased, x)[1] == bias(biased, x)


class TestLargeModulusExactness:
    # Products s*dx and b*x past int64 are reduced in Python ints.

    def test_closed_inner_single_past_int64(self):
        q = 10**12
        params = ParamSet(q, (q - 1,))
        assert closed_inner_single(params, q - 1, 0) == 1.0

    def test_closed_inner_accepts_huge_inputs(self):
        params = ParamSet(17, (3, 5))
        x = 2**70
        assert closed_inner_single(params, x, 0) == closed_inner_single(
            params, x % 34, 0
        )

    def test_bias_past_int64(self):
        q, b, x = 1099511627791, 1099511627776, 549755813888
        value = bias(BiasedSet(q, (0, b)), x)
        expected = abs(1 + cmath.exp(2j * math.pi * ((b * x) % q) / q)) / 2
        assert_allclose(value, expected, rtol=1e-6)
        assert value < 1e-9

    @given(
        st.lists(st.integers(0, 2**64), min_size=1, max_size=6),
        st.integers(0, 1099511627790),
    )
    @settings(max_examples=60, deadline=None)
    def test_bias_matches_oracle_past_int64(self, elements, x):
        biased = BiasedSet(1099511627791, tuple(elements))
        assert abs(bias(biased, x) - bias_oracle(biased, x)) < 1e-9

    def test_cosine_sum_check_past_int64(self):
        q, b, x = 1099511627791, 1099511627776, 549755813888
        cos_part, full = cosine_sum_check(BiasedSet(q, (0, b)), x)
        assert full < 1e-9
        assert cos_part <= full

    @given(
        st.sampled_from([7, 101, 2**31 - 1, 2**31 + 11, 2**40 + 15, 10**12]),
        st.lists(st.integers(0, 2**64), min_size=1, max_size=5),
        st.integers(-(2**70), 2**70),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_python_int_oracle(self, q, elements, dx, with_sum):
        params = ParamSet(q, tuple(elements))
        factors = list(params.elements) + ([params.total] if with_sum else [])
        expected = 1.0
        for s in factors:
            expected *= math.cos(math.pi * ((s * dx) % (2 * q)) / q)
        actual = closed_inner_single(params, dx, 0, include_sum_qubit=with_sum)
        assert abs(actual - expected) < 1e-9
