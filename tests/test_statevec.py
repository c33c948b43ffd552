import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import zqhash
from zqhash.hashing import ParamSet, linear_combination
from zqhash.statevec import (
    GateOp,
    StateVector,
    apply_controlled_ry,
    apply_gate,
    apply_h,
    apply_ry,
    apply_ucr,
    basis_state,
    inner_product,
    run_circuit,
    zero_state,
)

SQ2 = math.sqrt(0.5)


def random_state(rng, num_qubits):
    amps = rng.standard_normal(1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestZeroState:
    def test_one_qubit(self):
        assert_allclose(zero_state(1).amplitudes, [1.0, 0.0])

    def test_two_qubits(self):
        assert_allclose(zero_state(2).amplitudes, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [0, -1, 25])
    def test_rejects_bad_width(self, bad):
        with pytest.raises(ValueError):
            zero_state(bad)

    def test_basis_state(self):
        assert_allclose(basis_state(2, 2).amplitudes, [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            basis_state(2, 4)


class TestRy:
    def test_half_pi(self):
        state = apply_ry(zero_state(1), 0, math.pi / 2)
        assert_allclose(state.amplitudes, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_pi_flips(self):
        state = apply_ry(zero_state(1), 0, math.pi)
        assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_matrix_convention(self):
        # Columns of Ry(theta) read off by rotating both basis states.
        theta = 0.7342
        col0 = apply_ry(basis_state(1, 0), 0, theta).amplitudes
        col1 = apply_ry(basis_state(1, 1), 0, theta).amplitudes
        half = theta / 2
        assert_allclose(col0, [math.cos(half), math.sin(half)], atol=1e-15)
        assert_allclose(col1, [-math.sin(half), math.cos(half)], atol=1e-15)

    def test_acts_on_named_qubit_msb_first(self):
        # Qubit 0 is the most significant bit: rotating it from |00> moves
        # weight to index 2, not index 1.
        state = apply_ry(zero_state(2), 0, math.pi)
        assert_allclose(state.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            apply_ry(zero_state(2), 2, 0.1)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            apply_ry(zero_state(1), 0, math.nan)

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b, target):
        rng = np.random.default_rng(17)
        split = random_state(rng, 3)
        joined = split.copy()
        apply_ry(apply_ry(split, target, a), target, b)
        apply_ry(joined, target, a + b)
        assert_allclose(split.amplitudes, joined.amplitudes, atol=1e-12)

    def test_period_is_four_pi(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 2)
        before = state.amplitudes.copy()
        apply_ry(state, 1, 4.0 * math.pi)
        assert_allclose(state.amplitudes, before, atol=1e-12)
        apply_ry(state, 1, 2.0 * math.pi)
        assert_allclose(state.amplitudes, -before, atol=1e-12)


class TestHadamard:
    def test_on_zero(self):
        assert_allclose(apply_h(zero_state(1), 0).amplitudes, [SQ2, SQ2])

    def test_on_one(self):
        assert_allclose(apply_h(basis_state(1, 1), 0).amplitudes, [SQ2, -SQ2])

    def test_involution(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 3)
        before = state.amplitudes.copy()
        apply_h(apply_h(state, 1), 1)
        assert_allclose(state.amplitudes, before, atol=1e-14)


class TestControlledRy:
    def test_filled_control_fires_on_one(self):
        state = apply_controlled_ry(basis_state(2, 2), [(0, 1)], 1, math.pi)
        assert_allclose(state.amplitudes, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_filled_control_idle_on_zero(self):
        state = apply_controlled_ry(zero_state(2), [(0, 1)], 1, math.pi)
        assert_allclose(state.amplitudes, [1.0, 0.0, 0.0, 0.0])

    def test_open_control_fires_on_zero(self):
        state = apply_controlled_ry(zero_state(2), [(0, 0)], 1, math.pi)
        assert_allclose(state.amplitudes, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_mixed_controls(self):
        # Fires only when qubit 0 is 1 and qubit 1 is 0.
        controls = [(0, 1), (1, 0)]
        hit = apply_controlled_ry(basis_state(3, 0b100), controls, 2, math.pi)
        assert_allclose(hit.amplitudes[0b101], 1.0, atol=1e-12)
        miss = apply_controlled_ry(basis_state(3, 0b110), controls, 2, math.pi)
        assert_allclose(miss.amplitudes[0b110], 1.0)

    def test_rejects_target_overlap(self):
        with pytest.raises(ValueError):
            apply_controlled_ry(zero_state(2), [(1, 1)], 1, 0.1)

    def test_rejects_duplicate_control(self):
        with pytest.raises(ValueError):
            apply_controlled_ry(zero_state(3), [(0, 1), (0, 0)], 2, 0.1)

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            apply_controlled_ry(zero_state(2), [(0, 2)], 1, 0.1)


def ucr_via_branches(state, control_qubits, target, thetas):
    # Oracle: one fully controlled rotation per address value. The branches
    # act on disjoint subspaces, so the order does not matter.
    n = len(control_qubits)
    for j, theta in enumerate(thetas):
        controls = [
            (qubit, (j >> (n - 1 - k)) & 1)
            for k, qubit in enumerate(control_qubits)
        ]
        apply_controlled_ry(state, controls, target, theta)
    return state


class TestUcr:
    def test_selects_branch_by_address(self):
        thetas = [math.pi / 2, math.pi]
        low = apply_ucr(zero_state(2), [0], 1, thetas)
        assert_allclose(
            low.amplitudes, [math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0]
        )
        high = apply_ucr(basis_state(2, 2), [0], 1, thetas)
        assert_allclose(high.amplitudes, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_first_control_is_address_msb(self):
        thetas = [0.0, 0.0, 0.0, math.pi]
        # Address j=3 means both controls set; controls listed (1, 0) swap
        # which physical qubit carries the address MSB, but j=3 ignores it.
        state = apply_ucr(basis_state(3, 0b110), [1, 0], 2, thetas)
        assert_allclose(state.amplitudes[0b111], 1.0, atol=1e-12)
        # Address j=2 with controls (1, 0) means qubit 1 set, qubit 0 clear.
        thetas = [0.0, 0.0, math.pi, 0.0]
        state = apply_ucr(basis_state(3, 0b010), [1, 0], 2, thetas)
        assert_allclose(state.amplitudes[0b011], 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_branch_composition(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            thetas = rng.uniform(0.0, 4.0 * math.pi, size=1 << n)
            state = random_state(rng, n + 1)
            expected = ucr_via_branches(state.copy(), list(range(n)), n, thetas)
            actual = apply_ucr(state, list(range(n)), n, thetas)
            assert_allclose(actual.amplitudes, expected.amplitudes, atol=1e-12)

    def test_nontrivial_wire_layout(self):
        # Controls away from the front, target in the middle.
        rng = np.random.default_rng(42)
        thetas = rng.uniform(0.0, 4.0 * math.pi, size=4)
        state = random_state(rng, 4)
        expected = ucr_via_branches(state.copy(), [3, 0], 1, thetas)
        actual = apply_ucr(state, [3, 0], 1, thetas)
        assert_allclose(actual.amplitudes, expected.amplitudes, atol=1e-12)

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError):
            apply_ucr(zero_state(3), [0, 1], 2, [0.1, 0.2])

    def test_rejects_overlapping_wires(self):
        with pytest.raises(ValueError):
            apply_ucr(zero_state(3), [0, 1], 1, [0.1] * 4)


class TestInnerProduct:
    def test_orthogonal(self):
        assert inner_product(zero_state(1), basis_state(1, 1)) == 0.0

    def test_identical(self):
        state = apply_h(zero_state(1), 0)
        assert_allclose(inner_product(state, state), 1.0)

    def test_hadamard_pair(self):
        plus = apply_h(zero_state(1), 0)
        minus = apply_h(basis_state(1, 1), 0)
        assert_allclose(inner_product(plus, minus), 0.0, atol=1e-15)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(zero_state(1), zero_state(2))


class TestCircuits:
    def test_ops_match_direct_calls(self):
        ops = [
            GateOp("h", target=0),
            GateOp("ry", target=1, angle=0.4),
            GateOp("cry", target=2, controls=((0, 1),), angle=1.1),
            GateOp("ucr", target=2, control_qubits=(0, 1), angles=(0.1, 0.2, 0.3, 0.4)),
        ]
        from_ops = run_circuit(zero_state(3), ops)
        direct = zero_state(3)
        apply_h(direct, 0)
        apply_ry(direct, 1, 0.4)
        apply_controlled_ry(direct, [(0, 1)], 2, 1.1)
        apply_ucr(direct, [0, 1], 2, [0.1, 0.2, 0.3, 0.4])
        assert_allclose(from_ops.amplitudes, direct.amplitudes)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(1), GateOp("cz", target=0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_by_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 4)
        for _ in range(12):
            kind = rng.choice(["h", "ry", "cry", "ucr"])
            wires = rng.permutation(4)
            if kind == "h":
                apply_h(state, int(wires[0]))
            elif kind == "ry":
                apply_ry(state, int(wires[0]), float(rng.uniform(-9, 9)))
            elif kind == "cry":
                apply_controlled_ry(
                    state,
                    [(int(wires[1]), int(rng.integers(0, 2)))],
                    int(wires[0]),
                    float(rng.uniform(-9, 9)),
                )
            else:
                apply_ucr(
                    state,
                    [int(wires[1]), int(wires[2])],
                    int(wires[0]),
                    rng.uniform(-9, 9, size=4),
                )
        assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call, args",
    [
        (apply_controlled_ry, (zero_state(2), [(0.5, 1)], 1, 0.3)),
        (apply_controlled_ry, (zero_state(2), [(0, True)], 1, 0.3)),
        (apply_ry, (zero_state(2), 1.5, 0.3)),
        (basis_state, (2, True)),
        (basis_state, (2, np.False_)),
        (basis_state, (2, 1.0)),
        (zero_state, (2.0,)),
        (zero_state, (2, 2.5)),
        (StateVector, (True, [1.0, 0.0])),
        (linear_combination, (ParamSet(7, (1, 2)), 1.5)),
        (linear_combination, (ParamSet(7, (1, 2)), True)),
    ],
    ids=[
        "control_qubit_float",
        "control_polarity_bool",
        "target_float",
        "basis_index_bool",
        "basis_index_numpy_bool",
        "basis_index_float",
        "qubit_count_float",
        "batch_float",
        "statevector_qubit_count_bool",
        "subset_index_float",
        "subset_index_bool",
    ],
)
def test_rejects_non_integer_inputs(call, args):
    # The package's one integer rule: a float or bool where an int belongs
    # is refused, never truncated, dropped or read as 0 and 1.
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))


def _random_batched_circuit(rng, num_qubits, batch, length):
    # One batched gate list plus, for each row, the same circuit with that
    # row's angles as plain numbers. Some rotations share one angle.
    batched, rows = [], [[] for _ in range(batch)]
    for _ in range(length):
        kind = str(rng.choice(["h", "ry", "cry", "ucr"]))
        wires = [int(w) for w in rng.permutation(num_qubits)]
        if kind == "h":
            batched.append(GateOp("h", target=wires[0]))
            for row in rows:
                row.append(GateOp("h", target=wires[0]))
            continue
        if kind == "ucr":
            shared = rng.random() < 0.25
            angles = rng.uniform(-9, 9, size=4 if shared else (batch, 4))
            controls = tuple(wires[1:3])
            batched.append(
                GateOp("ucr", target=wires[0], control_qubits=controls, angles=angles)
            )
            for b, row in enumerate(rows):
                row_angles = angles if shared else angles[b]
                row.append(replace(batched[-1], angles=tuple(row_angles.tolist())))
            continue
        # One or two controls, each open or filled.
        width = int(rng.integers(1, 3)) if kind == "cry" else 0
        controls = tuple((w, int(rng.integers(0, 2))) for w in wires[1 : 1 + width])
        if rng.random() < 0.25:
            angle = float(rng.uniform(-9, 9))
            per_row = [angle] * batch
        else:
            angle = rng.uniform(-9, 9, size=batch)
            per_row = [float(a) for a in angle]
        batched.append(GateOp(kind, target=wires[0], angle=angle, controls=controls))
        for row, theta in zip(rows, per_row):
            row.append(replace(batched[-1], angle=theta))
    return batched, rows


class TestBatch:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from("CF"))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_single_runs_bitwise(self, seed, batch, order):
        # Either memory order of the batch gives the same bits, in place.
        rng = np.random.default_rng(seed)
        starts = np.stack([random_state(rng, 4).amplitudes for _ in range(batch)])
        batched_ops, row_ops = _random_batched_circuit(rng, 4, batch, 12)
        amplitudes = np.array(starts, order=order)
        batched = run_circuit(StateVector(4, amplitudes), batched_ops)
        assert batched.amplitudes is amplitudes
        for b in range(batch):
            single = run_circuit(StateVector(4, starts[b].copy()), row_ops[b])
            assert amplitudes[b].tobytes() == single.amplitudes.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_widened_appends_a_qubit_in_zero(self, order):
        rng = np.random.default_rng(3)
        rows = [random_state(rng, 3).amplitudes for _ in range(4)]
        rows = np.array(rows, order=order)
        wide = StateVector(3, rows).widened()
        assert wide.num_qubits == 4 and wide.amplitudes.flags.f_contiguous
        assert np.array_equal(wide.amplitudes[:, ::2], rows)
        assert not wide.amplitudes[:, 1::2].any()
        single = StateVector(3, rows[1]).widened().amplitudes
        assert single.tobytes() == wide.amplitudes[1].tobytes()
        # Widened, then Ry on the new qubit: the gates of one run on one
        # more qubit, by value.
        angle = rng.uniform(-9, 9)
        grown = apply_ry(StateVector(3, rows[1]).widened(), 3, angle)
        direct = StateVector(4, np.kron(rows[1], [1.0, 0.0]))
        assert np.array_equal(grown.amplitudes, apply_ry(direct, 3, angle).amplitudes)

    def test_zero_state_batch(self):
        state = zero_state(2, batch=3)
        assert state.batch == (3,)
        assert np.array_equal(state.amplitudes, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))
        # Stored amplitude-major.
        assert state.amplitudes.flags.f_contiguous
        assert not state.amplitudes.flags.c_contiguous
        assert zero_state(2).batch == ()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_copy_keeps_memory_order(self, order):
        state = StateVector(2, np.array(np.eye(4)[:3], order=order))
        copied = state.copy()
        assert copied.amplitudes.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(copied.amplitudes, state.amplitudes)
        assert not np.shares_memory(copied.amplitudes, state.amplitudes)

    def test_norm_per_row(self):
        state = StateVector(1, [[1.0, 0.0], [0.6, 0.8], [2.0, 0.0]])
        assert_allclose(state.norm(), [1.0, 1.0, 2.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StateVector(1, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            StateVector(2, np.zeros((3, 2)))

    def test_rejects_angle_batch_mismatch(self):
        with pytest.raises(ValueError):
            apply_ry(zero_state(2, batch=3), 0, np.zeros(4))
        with pytest.raises(ValueError):
            apply_ry(zero_state(2), 0, np.zeros(3))
        with pytest.raises(ValueError):
            apply_ucr(zero_state(2, batch=3), [0], 1, np.zeros((2, 2)))

    def test_inner_product_rejects_batches(self):
        with pytest.raises(ValueError):
            inner_product(zero_state(1, batch=2), zero_state(1, batch=2))

    def test_hadamard_layer_is_exact_product(self):
        # The hash circuits apply H only to qubits still in |0>; there the
        # kernel's a0*h + a1*h is exactly (a0 + a1)*h, so every amplitude of
        # an H layer is the left-to-right product of 1/sqrt(2) factors.
        for m in range(1, 7):
            state = zero_state(m + 1)
            for k in range(m):
                apply_h(state, k)
            value = 1.0
            for _ in range(m):
                value = value * (1.0 / math.sqrt(2.0))
            expected = np.zeros(1 << (m + 1))
            expected[0::2] = value
            assert np.array_equal(state.amplitudes, expected)


class TestNormCheck:
    def test_rejects_non_unit_state(self):
        with pytest.raises(ValueError, match="norm"):
            run_circuit(StateVector(1, [2.0, 0.0]), [GateOp("h", target=0)])

    def test_checks_every_row(self):
        amps = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="norm"):
            run_circuit(StateVector(1, amps), [GateOp("ry", target=0, angle=0.3)])

    def test_survives_optimized_mode(self):
        # The check must not be an assert, which `python -O` strips.
        src = Path(zqhash.__file__).resolve().parent.parent
        code = (
            "from zqhash.statevec import GateOp, StateVector, run_circuit\n"
            "try:\n"
            "    run_circuit(StateVector(1, [2.0, 0.0]), [GateOp('h', target=0)])\n"
            "except ValueError as exc:\n"
            "    print('rejected:', exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("rejected:")
