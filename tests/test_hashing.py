import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zqhash import hashing
from zqhash.analysis import (
    bias,
    closed_inner_shallow,
    closed_inner_single,
    collision_resistance,
    cosine_sum_check,
    epsilon_of_biased_set,
    shift_normalize,
)
from zqhash.hashing import (
    MAX_MODULUS,
    MAX_PARAMS,
    MAX_SWEEP_MODULUS,
    BiasedSet,
    HashForm,
    ParamSet,
    _block_circuits,
    build_hash,
    build_shallow_hash,
    build_single_qubit_hash,
    build_standard_hash,
    derive_biased_set,
    linear_combination,
    separability_defect,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
    standard_hash_circuit,
)
from zqhash.statevec import inner_product, zero_state

SQ2 = math.sqrt(0.5)


class TestParamSet:
    def test_reduces_mod_q(self):
        assert ParamSet(8, (9, 2, -1)).elements == (1, 2, 7)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            ParamSet(1, (0,))

    @pytest.mark.parametrize("n", [0, 21])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValueError):
            ParamSet(5, (1,) * n)

    def test_duplicates_flagged_not_rejected(self):
        assert ParamSet(5, (2, 2)).has_duplicates
        assert not ParamSet(5, (2, 3)).has_duplicates

    def test_total(self):
        assert ParamSet(8, (3, 6)).total == 9


class TestBiasedSet:
    def test_reduces_and_keeps_order(self):
        assert BiasedSet(4, (5, 0, 3)).elements == (1, 0, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BiasedSet(4, ())


class TestLinearCombination:
    def test_examples(self):
        params = ParamSet(8, (1, 2))
        # Bit j_0 (the MSB of j) selects s_0.
        assert linear_combination(params, 0) == 0
        assert linear_combination(params, 1) == 2
        assert linear_combination(params, 2) == 1
        assert linear_combination(params, 3) == 3

    def test_wraps_mod_q(self):
        assert linear_combination(ParamSet(4, (3, 3)), 3) == 2

    @pytest.mark.parametrize("j", [-1, 4])
    def test_rejects_out_of_range(self, j):
        with pytest.raises(ValueError):
            linear_combination(ParamSet(8, (1, 2)), j)


class TestDeriveBiasedSet:
    def test_two_params(self):
        assert derive_biased_set(ParamSet(8, (1, 2))).elements == (0, 2, 1, 3)

    def test_zero_param(self):
        assert derive_biased_set(ParamSet(5, (0,))).elements == (0, 0)

    def test_single_param(self):
        assert derive_biased_set(ParamSet(4, (3,))).elements == (0, 3)

    def test_size_is_power_of_two(self):
        derived = derive_biased_set(ParamSet(7, (1, 2, 4)))
        assert derived.size == 8

    @given(
        st.integers(2, 1 << 40).flatmap(
            lambda q: st.tuples(
                st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=12)
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_combination(self, case):
        q, elements = case
        params = ParamSet(q, tuple(elements))
        expected = tuple(linear_combination(params, j) for j in range(1 << params.size))
        assert derive_biased_set(params).elements == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_linear_combination_at_every_size(self, n):
        params = ParamSet(1009, tuple(range(500, 500 + 37 * n, 37)))
        expected = tuple(linear_combination(params, j) for j in range(1 << n))
        assert derive_biased_set(params).elements == expected


class TestStandardHash:
    def test_x_zero_is_uniform_address(self):
        state = build_standard_hash(BiasedSet(8, (0, 1, 2, 3)), 0)
        expected = np.zeros(8)
        expected[0::2] = 0.5
        assert_allclose(state.amplitudes, expected)

    def test_two_element_set(self):
        state = build_standard_hash(BiasedSet(8, (0, 2)), 1)
        assert_allclose(state.amplitudes, [SQ2, 0.0, 0.0, SQ2], atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_standard_hash(BiasedSet(8, (0, 1, 2)), 1)

    def test_single_element_set(self):
        state = build_standard_hash(BiasedSet(4, (1,)), 1)
        assert_allclose(state.amplitudes, [math.cos(math.pi / 2), math.sin(math.pi / 2)])

    def test_circuit_shape(self):
        ops = standard_hash_circuit(BiasedSet(8, (0, 1, 2, 3)), 1)
        assert [op.kind for op in ops] == ["h", "h", "ucr"]
        assert ops[-1].control_qubits == (0, 1)
        assert len(ops[-1].angles) == 4

    def test_width_checked_before_any_angle(self, monkeypatch):
        # log2|B| + 1 qubits past MAX_QUBITS is rejected before the |B|
        # angles are computed; a patched cap stands in for |B| = 2**24.
        calls = []
        angles = hashing._angles

        def counted(*args):
            calls.append(args)
            return angles(*args)

        monkeypatch.setattr(hashing, "_angles", counted)
        monkeypatch.setattr(hashing, "MAX_QUBITS", 2)
        with pytest.raises(ValueError, match=r"qubit count must be in \[1, 2\], got 3"):
            standard_hash_circuit(BiasedSet(8, (0, 1, 2, 3)), 1)
        assert calls == []
        assert len(standard_hash_circuit(BiasedSet(8, (0, 1)), 1)[-1].angles) == 2
        assert len(calls) == 2


class TestShallowHash:
    def test_x_zero_is_uniform_address(self):
        state = build_shallow_hash(ParamSet(8, (1, 2)), 0)
        expected = np.zeros(8)
        expected[0::2] = 0.5
        assert_allclose(state.amplitudes, expected)

    def test_worked_amplitude_pair(self):
        state = build_shallow_hash(ParamSet(8, (1, 2)), 1)
        # Address j=3 sums both parameters: half-angle 2*pi*3/8.
        assert_allclose(
            state.amplitudes[6:], 0.5 * np.array([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)]),
            atol=1e-12,
        )

    def test_circuit_is_two_qubit_gates_only(self):
        ops = shallow_hash_circuit(ParamSet(8, (1, 2, 3)), 5)
        assert [op.kind for op in ops] == ["h", "h", "h", "cry", "cry", "cry"]
        for op in ops[3:]:
            assert len(op.controls) == 1
            assert op.controls[0][1] == 1

    def test_zero_parameter_contributes_identity_gate(self):
        ops = shallow_hash_circuit(ParamSet(8, (0, 2)), 3)
        assert ops[2].angle == 0.0


def formula_standard_state(q, elements, x):
    # Termwise amplitude formula, no gates involved: address j carries
    # (cos, sin) of 2*pi*b_j*x/q at weight 1/sqrt(d). Reduce the integer
    # numerator first so large products stay exact.
    d = len(elements)
    amps = np.empty(2 * d)
    for j, b in enumerate(elements):
        half = 2.0 * math.pi * ((b * x) % q) / q
        amps[2 * j] = math.cos(half)
        amps[2 * j + 1] = math.sin(half)
    return amps / math.sqrt(d)


def formula_single_qubit_state(q, elements, x, include_sum):
    factors = list(elements) + ([sum(elements)] if include_sum else [])
    amps = np.ones(1)
    for s in factors:
        half = math.pi * ((s * x) % (2 * q)) / q
        amps = np.kron(amps, [math.cos(half), math.sin(half)])
    return amps


class TestTermwiseFormulas:
    @pytest.mark.parametrize("q", [3, 8, 17])
    def test_standard_matches_formula(self, q):
        rng = np.random.default_rng(q)
        for _ in range(5):
            elements = tuple(int(v) for v in rng.integers(0, q, size=4))
            x = int(rng.integers(0, q))
            state = build_standard_hash(BiasedSet(q, elements), x)
            assert_allclose(
                state.amplitudes, formula_standard_state(q, elements, x), atol=1e-10
            )

    @pytest.mark.parametrize("include_sum", [False, True])
    def test_single_qubit_matches_product_formula(self, include_sum):
        rng = np.random.default_rng(9)
        for q in (2, 5, 16):
            elements = tuple(int(v) for v in rng.integers(0, q, size=3))
            x = int(rng.integers(0, q))
            state = build_single_qubit_hash(ParamSet(q, elements), x, include_sum)
            assert_allclose(
                state.amplitudes,
                formula_single_qubit_state(q, elements, x, include_sum),
                atol=1e-10,
            )

    def test_large_numerators_stay_exact(self):
        # s*x up to ~2**39; the reduced-integer angles must not drift.
        q = 1 << 20
        elements = (q - 1, q // 2 + 1)
        x = q - 3
        state = build_single_qubit_hash(ParamSet(q, elements), x)
        assert_allclose(
            state.amplitudes,
            formula_single_qubit_state(q, elements, x, False),
            atol=1e-12,
        )


class TestSingleQubitHash:
    def test_one_param(self):
        state = build_single_qubit_hash(ParamSet(4, (1,)), 1)
        assert_allclose(state.amplitudes, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_q2_flips_to_one(self):
        state = build_single_qubit_hash(ParamSet(2, (1,)), 1)
        assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_sum_qubit_angle(self):
        state = build_single_qubit_hash(ParamSet(8, (1, 2)), 1, include_sum_qubit=True)
        assert state.num_qubits == 3
        # Trace down to the last qubit: it carries half-angle pi*3/8.
        marginal = state.amplitudes.reshape(4, 2).T @ state.amplitudes.reshape(4, 2)
        expected = np.array([math.cos(3 * math.pi / 8), math.sin(3 * math.pi / 8)])
        assert_allclose(marginal, np.outer(expected, expected), atol=1e-12)

    def test_circuit_is_depth_one(self):
        ops = single_qubit_hash_circuit(ParamSet(8, (1, 2, 3)), 5, True)
        assert [op.kind for op in ops] == ["ry"] * 4
        assert [op.target for op in ops] == [0, 1, 2, 3]
        assert not any(op.is_multi_qubit() for op in ops)


@st.composite
def param_cases(draw):
    q = draw(st.integers(2, 64))
    n = draw(st.integers(1, 5))
    elements = tuple(draw(st.integers(0, q - 1)) for _ in range(n))
    x = draw(st.integers(-q, 3 * q))
    return ParamSet(q, elements), x


class TestSharedInvariants:
    @given(param_cases())
    @settings(max_examples=60, deadline=None)
    def test_unit_norm(self, case):
        params, x = case
        assert abs(build_shallow_hash(params, x).norm() - 1.0) < 1e-12
        assert abs(build_single_qubit_hash(params, x, True).norm() - 1.0) < 1e-12
        assert (
            abs(build_standard_hash(derive_biased_set(params), x).norm() - 1.0) < 1e-12
        )

    @given(param_cases())
    @settings(max_examples=60, deadline=None)
    def test_standard_from_derived_set_equals_shallow(self, case):
        params, x = case
        standard = build_standard_hash(derive_biased_set(params), x)
        shallow = build_shallow_hash(params, x)
        np.testing.assert_allclose(
            standard.amplitudes, shallow.amplitudes, atol=1e-12
        )

    @given(param_cases())
    @settings(max_examples=40, deadline=None)
    def test_periodicity_in_x(self, case):
        params, x = case
        for build in (
            lambda v: build_shallow_hash(params, v),
            lambda v: build_single_qubit_hash(params, v),
            lambda v: build_single_qubit_hash(params, v, True),
        ):
            overlap = inner_product(build(x), build(x + params.q))
            assert abs(abs(overlap) - 1.0) < 1e-10

    def test_negative_x_matches_shifted_positive(self):
        params = ParamSet(12, (5, 7))
        a = build_shallow_hash(params, -5)
        b = build_shallow_hash(params, 7)
        assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)


class TestBuildHash:
    @given(param_cases(), st.sampled_from(list(HashForm)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_form_builder_bitwise(self, case, form, with_sum):
        params, x = case
        if form is HashForm.STANDARD:
            expected = build_standard_hash(derive_biased_set(params), x)
        elif form is HashForm.SHALLOW:
            expected = build_shallow_hash(params, x)
        else:
            expected = build_single_qubit_hash(params, x, with_sum)
        for given_form in (form, form.value):
            state = build_hash(given_form, params, x, include_sum_qubit=with_sum)
            assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @given(param_cases())
    @settings(max_examples=30, deadline=None)
    def test_standard_from_params_equals_standard_from_derived_set(self, case):
        params, x = case
        from_params = build_hash(HashForm.STANDARD, params, x)
        from_set = build_hash(HashForm.STANDARD, derive_biased_set(params), x)
        assert from_params.amplitudes.tobytes() == from_set.amplitudes.tobytes()

    @pytest.mark.parametrize("form", [HashForm.SHALLOW, HashForm.SINGLE_QUBIT])
    def test_biased_set_needs_the_standard_form(self, form):
        with pytest.raises(ValueError, match="cannot take a BiasedSet"):
            build_hash(form, BiasedSet(8, (0, 1)), 1)

    def test_unknown_form_raises(self):
        with pytest.raises(ValueError, match="HashForm"):
            build_hash("deep", ParamSet(8, (1, 2)), 1)


# Every public function that takes a set, as (name, call on the set, the
# kind it takes). ParamSet and BiasedSet have the same shape, so each must
# check the kind itself.
SET_ENTRY_POINTS = [
    ("standard_hash_circuit", lambda s: standard_hash_circuit(s, 4), BiasedSet),
    ("build_standard_hash", lambda s: build_standard_hash(s, 4), BiasedSet),
    ("shallow_hash_circuit", lambda s: shallow_hash_circuit(s, 4), ParamSet),
    ("build_shallow_hash", lambda s: build_shallow_hash(s, 4), ParamSet),
    ("single_qubit_hash_circuit", lambda s: single_qubit_hash_circuit(s, 4), ParamSet),
    ("build_single_qubit_hash", lambda s: build_single_qubit_hash(s, 4), ParamSet),
    ("derive_biased_set", derive_biased_set, ParamSet),
    ("linear_combination", lambda s: linear_combination(s, 1), ParamSet),
    ("bias", lambda s: bias(s, 1), BiasedSet),
    ("epsilon_of_biased_set", epsilon_of_biased_set, BiasedSet),
    ("shift_normalize", shift_normalize, BiasedSet),
    ("cosine_sum_check", lambda s: cosine_sum_check(s, 1), BiasedSet),
    ("collision_resistance", lambda s: collision_resistance(s, "shallow"), ParamSet),
    ("closed_inner_single", lambda s: closed_inner_single(s, 1, 0), ParamSet),
    ("closed_inner_shallow", lambda s: closed_inner_shallow(s, 1, 0), ParamSet),
]


over_set_entry_points = pytest.mark.parametrize(
    "call, kind",
    [entry[1:] for entry in SET_ENTRY_POINTS],
    ids=[entry[0] for entry in SET_ENTRY_POINTS],
)


class TestSetKind:
    # A set of each kind that every entry point of that kind accepts: two
    # parameters, or four residues (a power of two), so only the kind can
    # make the other kind's entry points refuse it.
    SAMPLE = {ParamSet: ParamSet(17, (3, 5)), BiasedSet: BiasedSet(17, (3, 5, 7, 9))}

    @over_set_entry_points
    def test_refuses_the_other_kind(self, call, kind):
        (other,) = set(self.SAMPLE) - {kind}
        message = f"cannot take a {other.__name__}; it takes a {kind.__name__}"
        with pytest.raises(ValueError, match=message):
            call(self.SAMPLE[other])
        with pytest.raises(ValueError, match="cannot take a tuple"):
            call((17, (3, 5)))

    def test_a_biased_set_cannot_pass_the_parameter_cap(self):
        # 22 residues taken as parameters would give 2**22 subset sums,
        # past the 2**MAX_PARAMS a ParamSet allows.
        with pytest.raises(ValueError, match="takes a ParamSet"):
            derive_biased_set(BiasedSet(101, tuple(range(22))))


class TestSeparability:
    def test_product_states_have_no_defect(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = int(rng.integers(2, 40))
            n = int(rng.integers(1, 6))
            params = ParamSet(q, tuple(int(v) for v in rng.integers(0, q, n)))
            x = int(rng.integers(0, q))
            state = build_single_qubit_hash(params, x, bool(rng.integers(0, 2)))
            assert separability_defect(state) < 1e-10

    def test_entangled_state_detected(self):
        state = build_shallow_hash(ParamSet(8, (1, 2)), 1)
        assert separability_defect(state) > 0.1

    def test_single_qubit_state_trivially_separable(self):
        state = build_single_qubit_hash(ParamSet(4, (1,)), 1)
        assert separability_defect(state) == 0.0


class TestModulusValidation:
    @pytest.mark.parametrize(
        "q", [7.5, 8.0, "8", True, None, pytest.param(MAX_MODULUS + 1, id="cap+1")]
    )
    def test_rejects_non_integer_modulus(self, q):
        with pytest.raises(ValueError):
            ParamSet(q, (3,))
        with pytest.raises(ValueError):
            BiasedSet(q, (3,))

    def test_numpy_integer_modulus_becomes_int(self):
        assert type(ParamSet(np.int64(11), (3,)).q) is int
        assert type(BiasedSet(np.int64(11), (3,)).q) is int

    @pytest.mark.parametrize("bad", [3.7, np.float64(3.0), "3", None])
    def test_rejects_non_integer_elements(self, bad):
        with pytest.raises(ValueError):
            ParamSet(7, (2, bad))
        with pytest.raises(ValueError):
            BiasedSet(7, (2, bad))

    @pytest.mark.parametrize(
        "elements",
        [(True, 2), (False, True), (2, np.True_), np.array([True, False])],
        ids=["bool", "bools", "numpy-bool", "numpy-bool-array"],
    )
    def test_rejects_bool_elements(self, elements):
        # operator.index takes a bool as 0 or 1: (True, 2) used to hold (1, 2).
        with pytest.raises(ValueError, match="parameters must be integers"):
            ParamSet(101, elements)
        with pytest.raises(ValueError, match="residues must be integers"):
            BiasedSet(7, elements)

    def test_numpy_integer_elements_become_int(self):
        params = ParamSet(7, (np.int64(9), np.uint8(3)))
        assert params.elements == (2, 3)
        assert [type(s) for s in params.elements] == [int, int]

    @pytest.mark.parametrize(
        "x", [2.5, 2.0, np.float64(2.0), "2", None, True, False, np.True_]
    )
    def test_rejects_non_integer_input(self, x):
        # A float x used to be truncated: 2.5 gave the state of x = 2. A
        # bool passed operator.index: True gave the state of x = 1.
        params = ParamSet(7, (3, 5))
        with pytest.raises(ValueError, match="x must be an integer"):
            build_shallow_hash(params, x)
        with pytest.raises(ValueError, match="x must be an integer"):
            build_single_qubit_hash(params, x)
        with pytest.raises(ValueError, match="x must be an integer"):
            build_standard_hash(derive_biased_set(params), x)

    def test_rejects_non_integer_input_in_a_batch(self):
        # Every public builder takes one x; an array or list of x is refused.
        params = ParamSet(7, (3, 5))
        builders = [
            lambda x: standard_hash_circuit(derive_biased_set(params), x),
            lambda x: shallow_hash_circuit(params, x),
            lambda x: single_qubit_hash_circuit(params, x, include_sum_qubit=True),
        ]
        for batch in (np.arange(3), [0, 1, 2], np.array([1.0, 2.0]), [1, 2.5]):
            for build in builders:
                with pytest.raises(ValueError, match="x must be an integer"):
                    build(batch)

    def test_numpy_integer_inputs_are_accepted(self):
        params = ParamSet(7, (3, 5))
        assert np.array_equal(
            build_shallow_hash(params, np.int64(2)).amplitudes,
            build_shallow_hash(params, 2).amplitudes,
        )

    def test_largest_modulus_builds_every_form(self):
        # Every angle and phase float stays finite at the cap.
        params = ParamSet(MAX_MODULUS, (3, MAX_MODULUS - 1))
        x = MAX_MODULUS // 3
        states = [
            build_standard_hash(derive_biased_set(params), x),
            build_shallow_hash(params, x),
            build_single_qubit_hash(params, x, include_sum_qubit=True),
        ]
        for state in states:
            assert np.all(np.isfinite(state.amplitudes))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        assert 0.0 <= bias(BiasedSet(MAX_MODULUS, (0, 1, 5)), x) <= 1.0


def _gates_equal_bitwise(block, b, scalar):
    # Gate b of a batched circuit against one x's circuit: same layout and
    # the same angle bytes.
    assert len(block) == len(scalar)
    for fast, exact in zip(block, scalar):
        assert replace(fast, angle=0.0) == replace(exact, angle=0.0)
        angle = fast.angle[b] if np.ndim(fast.angle) else fast.angle
        assert np.float64(angle).tobytes() == np.float64(exact.angle).tobytes()


class TestBatchedCircuits:
    # Verify's block builder writes each set's circuits for x = 0..q-1, set
    # after set; row by row they are the public builders' circuits.

    @staticmethod
    def block(sets):
        factors = np.array([p.elements for p in sets], dtype=np.int64)
        return _block_circuits(factors, np.array([p.q for p in sets], dtype=np.int64))

    def test_shallow_angles(self):
        sets = [ParamSet(101, (3, 50, 0)), ParamSet(65537, (3, 2**15 + 1, 65536))]
        _, shallow, _ = self.block(sets)
        start = 0
        for params in sets:
            for x in (0, 1, 5, params.q - 1):
                exact = shallow_hash_circuit(params, x)
                _gates_equal_bitwise(shallow, start + x, exact)
            start += params.q

    def test_single_qubit_angles(self):
        params = ParamSet(101, (7, 13, 55))
        single, _, with_sum = self.block([params])
        for x in range(101):
            exact = single_qubit_hash_circuit(params, x)
            _gates_equal_bitwise(single, x, exact)
            exact = single_qubit_hash_circuit(params, x, include_sum_qubit=True)
            _gates_equal_bitwise(with_sum, x, exact)

    def test_separability_defect_rejects_batches(self):
        with pytest.raises(ValueError):
            separability_defect(zero_state(2, batch=3))

    def test_rejects_two_dimensional_inputs(self):
        with pytest.raises(ValueError):
            shallow_hash_circuit(ParamSet(8, (1,)), np.zeros((2, 2), dtype=int))


# Elements per angle array of one block below, (n + 1) * sum(q): about
# 16 MB of float64, so a row at MAX_SWEEP_MODULUS takes one parameter.
BLOCK_BUDGET = 1 << 21


class TestInt64Angles:
    # Verify's block builder reduces its numerators in int64, for every
    # q <= MAX_SWEEP_MODULUS; each batch row must match the scalar
    # builders, which use Python ints, gate by gate and bit for bit.

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_python_ints_bitwise(self, data):
        # One row of any q up to the cap, and up to two small ones around it.
        qs = data.draw(st.lists(st.integers(2, 400), max_size=2), label="small q")
        big = data.draw(
            st.one_of(
                st.integers(2, 400),
                st.integers(2, MAX_SWEEP_MODULUS),
                st.just(MAX_SWEEP_MODULUS),
            ),
            label="q",
        )
        qs.insert(data.draw(st.integers(0, len(qs)), label="position"), big)
        top = min(MAX_PARAMS, BLOCK_BUDGET // sum(qs) - 1)
        n = data.draw(st.integers(1, max(1, top)), label="n")
        factors = [
            data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
            for q in qs
        ]
        block = _block_circuits(
            np.array(factors, dtype=np.int64), np.array(qs, dtype=np.int64)
        )
        start = 0
        for q, row in zip(qs, factors):
            params = ParamSet(q, row)
            xs = {0, 1, q - 1}
            xs.update(data.draw(st.lists(st.integers(0, q - 1), max_size=3)))
            for x in sorted(xs):
                scalar = (
                    single_qubit_hash_circuit(params, x),
                    shallow_hash_circuit(params, x),
                    single_qubit_hash_circuit(params, x, include_sum_qubit=True),
                )
                for fast, exact in zip(block, scalar):
                    _gates_equal_bitwise(fast, start + x, exact)
            start += q
