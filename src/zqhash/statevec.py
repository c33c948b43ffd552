"""Minimal real-amplitude state-vector simulator.

Supports exactly the gates the hash constructions need: Hadamard, Ry,
controlled Ry with open or filled controls, and the uniformly controlled
(multiplexed) Ry. All of these have real matrices, so amplitudes are kept
as real float64 throughout.

Conventions:
  - Qubit 0 is the most significant bit of a basis index. For a register
    value j written as bits j_0 j_1 ... j_{n-1}, bit j_0 lives on qubit 0.
  - Angles are radians. Ry(theta) = [[cos(t), -sin(t)], [sin(t), cos(t)]]
    with t = theta / 2, so Ry has period 4*pi.
  - A state is one register, amplitudes of shape (2**m,), or a batch of
    B registers, shape (B, 2**m). Gates act on every row; an angle is one
    number or a (B,) array, one per row. Each row of a batched run is
    bitwise the single-state run of its input.
  - Gate functions mutate the passed state in place and return it.
  - States are plain data; nothing here touches shared globals, so values
    can be handed freely between threads as long as a single state is not
    mutated concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# H applied to a qubit still in |0> (a1 == 0, as in every hash circuit)
# gives exactly (a0 + a1) * _INV_SQRT2 and (a0 - a1) * _INV_SQRT2.
_HADAMARD = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])


@dataclass
class StateVector:
    """Amplitudes of an m-qubit register, shape (2**m,), or of a batch of
    them, shape (B, 2**m); qubit 0 is the MSB."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        shape = self.amplitudes.shape
        if not 1 <= len(shape) <= 2 or shape[-1] != 1 << self.num_qubits:
            raise ValueError(
                f"amplitudes must have shape (2**{self.num_qubits},) or "
                f"(batch, 2**{self.num_qubits}), got {shape}"
            )

    @property
    def batch(self) -> tuple[int, ...]:
        """() for one register, (B,) for a batch of B."""
        return self.amplitudes.shape[:-1]

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float | np.ndarray:
        """Euclidean norm; an array of one per row for a batch."""
        return np.linalg.norm(self.amplitudes, axis=-1)


def zero_state(num_qubits: int, batch: int | None = None) -> StateVector:
    """All-zeros basis state |0...0> on `num_qubits` qubits; `batch`
    copies of it stacked along a leading axis when given."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"qubit count must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    amps = np.zeros((() if batch is None else (batch,)) + (1 << num_qubits,))
    amps[..., 0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational-basis state |index> on `num_qubits` qubits."""
    state = zero_state(num_qubits)
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def _check_wires(num_qubits: int, target: int, controls, mux) -> None:
    # The one wire validator: in range, pairwise distinct, polarities 0/1.
    wires = [target, *(qubit for qubit, _ in controls), *mux]
    for qubit in wires:
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    if len(set(wires)) != len(wires):
        raise ValueError(f"target and control qubits must be distinct, got {wires}")
    for _, bit in controls:
        if bit not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {bit!r}")


def _ry_matrix(theta) -> np.ndarray:
    # Shape (2, 2) + shape of theta. The entry -s makes the kernel's
    # c*a0 + (-s)*a1 bit-equal to c*a0 - s*a1.
    half = np.asarray(theta, dtype=np.float64) / 2.0
    if not np.isfinite(half).all():
        raise ValueError("rotation angles must be finite")
    cos_half, sin_half = np.cos(half), np.sin(half)
    return np.array([[cos_half, -sin_half], [sin_half, cos_half]])


def _apply_2x2(
    state: StateVector, target: int, controls, mux, matrix: np.ndarray
) -> StateVector:
    """The one gate kernel: real 2x2 `matrix` [[m00, m01], [m10, m11]] on
    `target`, on the subspace where each (qubit, bit) of `controls` holds
    its bit. `matrix` has shape (2, 2) + lead + (2,) * len(mux): lead is ()
    for one matrix or (B,) for one per row, and the last axes pick the
    matrix by the value of each multiplexer qubit in `mux`."""
    m = state.num_qubits
    mux = tuple(mux)
    _check_wires(m, target, controls, mux)
    # The matrix's batch shape; one unlike the state's fails to broadcast.
    lead = matrix.shape[2 : matrix.ndim - len(mux)]
    # View the amplitudes with one axis per gate wire and one per run of
    # the other qubits, so a pair slice has few, long axes: the batch axis,
    # then the runs and the multiplexer wires, which `entry` sizes.
    pinned = dict(controls)
    shape: list[int] = []
    lo: list[object] = [Ellipsis]
    entry: list[int] = []
    in_run = False
    for qubit in range(m):
        wire = qubit == target or qubit in pinned or qubit in mux
        if in_run and not wire:
            shape[-1] *= 2
            continue
        in_run = not wire
        shape.append(2)
        if qubit == target:
            split = len(lo)
            lo.append(0)
        elif qubit in pinned:
            lo.append(pinned[qubit])
        else:
            lo.append(slice(None))
            entry.append(2 if wire else 1)
    if lead or mux:
        first = 2 + len(lead)
        order = sorted(range(len(mux)), key=mux.__getitem__)
        matrix = matrix.transpose(*range(first), *(first + i for i in order))
        matrix = matrix.reshape(matrix.shape[:first] + tuple(entry))
    view = state.amplitudes.reshape(state.batch + tuple(shape))
    lo, hi = tuple(lo), (*lo[:split], 1, *lo[split + 1 :])
    a0 = view[lo].copy()
    a1 = view[hi].copy()
    view[lo] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[hi] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return state


def apply_ry(state: StateVector, target: int, theta) -> StateVector:
    """Rotate `target` about the Bloch y-axis by `theta` (a number, or a
    (B,) array for a batch), in place."""
    return _apply_2x2(state, target, (), (), _ry_matrix(theta))


def apply_h(state: StateVector, target: int) -> StateVector:
    """Hadamard on `target`, in place."""
    return _apply_2x2(state, target, (), (), _HADAMARD)


def apply_controlled_ry(
    state: StateVector, controls: Sequence[tuple[int, int]], target: int, theta
) -> StateVector:
    """Ry(theta) on `target`, restricted to basis states where every control
    qubit holds its required bit. Controls are (qubit, bit) pairs; bit 1 is a
    filled dot, bit 0 an open dot. `theta` as in `apply_ry`. In place."""
    return _apply_2x2(state, target, tuple(controls), (), _ry_matrix(theta))


def apply_ucr(
    state: StateVector, control_qubits: Sequence[int], target: int, thetas
) -> StateVector:
    """Uniformly controlled Ry: for each basis value j of the control
    register, rotate `target` by thetas[j] on that subspace. The control
    register is read with control_qubits[0] as the most significant bit.
    `thetas` has 2**n entries, or shape (B, 2**n) for a batch. In place."""
    n = len(control_qubits)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape[-1:] != (1 << n,):
        raise ValueError(f"need 2**{n} angles for {n} controls, got {thetas.shape}")
    thetas = thetas.reshape(thetas.shape[:-1] + (2,) * n)
    return _apply_2x2(state, target, (), control_qubits, _ry_matrix(thetas))


def inner_product(a: StateVector, b: StateVector) -> float:
    """Real inner product sum_i a_i * b_i of two equal-width states."""
    if a.batch or b.batch:
        raise ValueError("inner_product takes single states, not batches")
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    return float(np.dot(a.amplitudes, b.amplitudes))


@dataclass(frozen=True)
class GateOp:
    """One gate of a circuit description.

    kind "h": Hadamard on `target`.
    kind "ry": Ry(angle) on `target`.
    kind "cry": Ry(angle) on `target` under `controls` (qubit, bit) pairs.
    kind "ucr": multiplexed Ry over `control_qubits` with 2**n `angles`.

    For a batched circuit `angle` is a (B,) array. `angles` is a tuple:
    the hash builders make a "ucr" gate for one x at a time (`apply_ucr`
    itself also takes a (B, 2**n) array).
    """

    kind: str
    target: int
    angle: float | np.ndarray = 0.0
    controls: tuple[tuple[int, int], ...] = ()
    control_qubits: tuple[int, ...] = ()
    angles: tuple[float, ...] = ()

    def is_multi_qubit(self) -> bool:
        return bool(self.controls) or bool(self.control_qubits)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    if op.kind == "h":
        return apply_h(state, op.target)
    if op.kind == "ry":
        return apply_ry(state, op.target, op.angle)
    if op.kind == "cry":
        return apply_controlled_ry(state, op.controls, op.target, op.angle)
    if op.kind == "ucr":
        return apply_ucr(state, op.control_qubits, op.target, op.angles)
    raise ValueError(f"unknown gate kind {op.kind!r}")


def run_circuit(state: StateVector, ops: Iterable[GateOp]) -> StateVector:
    """Apply `ops` in order, then check that every row kept unit norm."""
    for op in ops:
        apply_gate(state, op)
    drift = np.abs(state.norm() - 1.0)
    if not np.all(drift < 1e-10):
        raise ValueError(f"state norm drifted from 1 by {float(np.max(drift))!r}")
    return state

