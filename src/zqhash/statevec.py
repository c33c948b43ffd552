"""Minimal real-amplitude state-vector simulator.

Gates: Hadamard, Ry, controlled Ry and the uniformly controlled
(multiplexed) Ry. The package's circuits and self-checks use H, Ry, Ry
under one filled control and the multiplexed Ry; controlled Ry also takes
any number of open or filled controls, for the public API. All of these
have real matrices, so amplitudes are kept as real float64 throughout.

Conventions:
  - Qubit 0 is the most significant bit of a basis index. For a register
    value j written as bits j_0 j_1 ... j_{n-1}, bit j_0 lives on qubit 0.
  - Angles are radians. Ry(theta) = [[cos(t), -sin(t)], [sin(t), cos(t)]]
    with t = theta / 2, so Ry has period 4*pi.
  - A state is one register, amplitudes of shape (2**m,), or a batch of
    B registers, shape (B, 2**m). Gates act on every row; an angle is one
    number or a (B,) array, one per row. Each row of a batched run is
    bitwise the single-state run of its input.
  - Batches are stored amplitude-major: `zero_state` allocates them in
    Fortran order, so amplitude i of every row is contiguous and the gate
    kernel's inner loops run over the rows. `StateVector.copy` keeps the
    order. A C-ordered batch gives the same bits, more slowly.
  - Gate functions mutate the passed state in place and return it.
  - `StateVector.widened` appends one qubit in |0>, so verify grows its
    sum-qubit batch from the single-qubit batch and one more Ry. Its odd
    amplitudes are +0.0 where a gate-by-gate run can leave -0.0: the two
    agree by value, not by bytes.
  - States are plain data; nothing here touches shared globals, so values
    can be handed freely between threads as long as a single state is not
    mutated concurrently.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The entries m00, m01, m10, m11 of H. Applied to a qubit still in |0>
# (a1 == 0, as in every hash circuit) they give exactly (a0 + a1) *
# _INV_SQRT2 and (a0 - a1) * _INV_SQRT2.
_HADAMARD = (_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)


def _check_int(
    value: object,
    name: str,
    low: int | None = None,
    high: int | None = None,
    span: str | None = None,
) -> int:
    """`value` as a Python int, if it is an integer in [low, high] (no upper
    bound when `high` is None, no bound at all when `low` is None);
    ValueError otherwise. The one integer-input rule of the package.
    `operator.index` takes ints and numpy integers but refuses floats and
    strings, so nothing is silently truncated; bools, which it would take
    as 0 and 1, are refused too. `span` replaces the printed range."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is None:
        return number
    if high is None:
        if number < low:
            raise ValueError(f"{name} must be at least {low}, got {number}")
    elif not low <= number <= high:
        span = span or f"[{low}, {high}]"
        raise ValueError(f"{name} must be in {span}, got {number}")
    return number


@dataclass
class StateVector:
    """Amplitudes of an m-qubit register, shape (2**m,), or of a batch of
    them, shape (B, 2**m); qubit 0 is the MSB."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.num_qubits = _check_int(self.num_qubits, "qubit count", 1, MAX_QUBITS)
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
        # np.copy keeps the memory order; ndarray.copy makes C order.
        return StateVector(self.num_qubits, np.copy(self.amplitudes, order="K"))

    def widened(self) -> "StateVector":
        """This state with one more qubit, in |0>, after the last one:
        amplitude 2i holds amplitude i and every odd amplitude is 0. A
        batch is stored amplitude-major."""
        amps = np.zeros(self.batch + (2 << self.num_qubits,), order="F")
        amps[..., ::2] = self.amplitudes
        return StateVector(self.num_qubits + 1, amps)

    def norm(self) -> float | np.ndarray:
        """Euclidean norm; an array of one per row for a batch."""
        return np.linalg.norm(self.amplitudes, axis=-1)


def zero_state(num_qubits: int, batch: int | None = None) -> StateVector:
    """All-zeros basis state |0...0> on `num_qubits` qubits; when `batch`
    is given, a (batch, 2**num_qubits) batch of copies of it, stored
    amplitude-major."""
    num_qubits = _check_int(num_qubits, "qubit count", 1, MAX_QUBITS)
    rows = () if batch is None else (_check_int(batch, "batch", 1),)
    amps = np.zeros(rows + (1 << num_qubits,), order="F")
    amps[..., 0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational-basis state |index> on `num_qubits` qubits."""
    state = zero_state(num_qubits)
    top = state.amplitudes.size - 1
    index = _check_int(index, "basis index", 0, top, f"[0, 2**{num_qubits})")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def _check_wires(num_qubits: int, target: int, controls, mux) -> None:
    # The one wire validator: integer qubits in range, pairwise distinct,
    # polarities 0/1. It runs on every kernel call, so one pass each.
    wires = [target, *(qubit for qubit, _ in controls), *mux]
    seen: set[int] = set()
    for qubit in wires:
        if _check_int(qubit, "qubit", 0, num_qubits - 1) in seen:
            raise ValueError(
                f"target and control qubits must be distinct, got {wires}"
            )
        seen.add(qubit)
    for _, bit in controls:
        _check_int(bit, "control polarity", 0, 1)


def _ry_entries(theta) -> tuple[np.ndarray, ...]:
    # The entries m00, m01, m10, m11 of Ry(theta), each of theta's shape.
    # The entry -s makes the kernel's c*a0 + (-s)*a1 bit-equal to
    # c*a0 - s*a1.
    half = np.asarray(theta, dtype=np.float64) / 2.0
    if not np.isfinite(half).all():
        raise ValueError("rotation angles must be finite")
    cos_half, sin_half = np.cos(half), np.sin(half)
    return cos_half, -sin_half, sin_half, cos_half


def _apply_2x2(
    state: StateVector, target: int, controls, mux, entries
) -> StateVector:
    """The one gate kernel: the real 2x2 matrix [[m00, m01], [m10, m11]] of
    `entries` on `target`, on the subspace where each (qubit, bit) of
    `controls` holds its bit. Each entry has shape (2,) * len(mux) + lead:
    the first axes pick the matrix by the value of each multiplexer qubit
    in `mux`, and lead is () for one matrix or (B,) for one per row."""
    m = state.num_qubits
    mux = tuple(mux)
    _check_wires(m, target, controls, mux)
    batch = state.batch
    lead = np.shape(entries[0])[len(mux) :]
    if lead and lead != batch:
        raise ValueError(f"angles of batch shape {lead} for a state of {batch}")
    # View the amplitudes with one axis per gate wire and one per run of
    # the other qubits, then the batch axis, so a pair slice has few, long
    # axes: the runs and the multiplexer wires, which `entry` sizes, then
    # the rows, which amplitude-major storage keeps contiguous.
    pinned = dict(controls)
    shape: list[int] = []
    lo: list[object] = []
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
    if mux:
        # Multiplexer axes in qubit order, sized like the pair slices, then
        # the rows (one, for angles shared by a batch).
        order = sorted(range(len(mux)), key=mux.__getitem__)
        axes = (*order, *range(len(mux), len(mux) + len(lead)))
        sizes = tuple(entry) + (lead or (1,) * len(batch))
        entries = [np.transpose(e, axes).reshape(sizes) for e in entries]
    m00, m01, m10, m11 = entries
    # Splitting the leading axis of amplitudes.T only: a view in either
    # memory order.
    view = state.amplitudes.T.reshape(tuple(shape) + batch)
    v0 = view[(*lo, Ellipsis)]
    v1 = view[(*lo[:split], 1, *lo[split + 1 :], Ellipsis)]
    a0 = v0.copy()
    np.multiply(m00, a0, out=v0)
    v0 += m01 * v1
    # m11*a1 + m10*a0 is bit-equal to m10*a0 + m11*a1: IEEE sums commute.
    np.multiply(m11, v1, out=v1)
    v1 += m10 * a0
    return state


def apply_ry(state: StateVector, target: int, theta) -> StateVector:
    """Rotate `target` about the Bloch y-axis by `theta` (a number, or a
    (B,) array for a batch), in place."""
    return _apply_2x2(state, target, (), (), _ry_entries(theta))


def apply_h(state: StateVector, target: int) -> StateVector:
    """Hadamard on `target`, in place."""
    return _apply_2x2(state, target, (), (), _HADAMARD)


def apply_controlled_ry(
    state: StateVector, controls: Sequence[tuple[int, int]], target: int, theta
) -> StateVector:
    """Ry(theta) on `target`, restricted to basis states where every control
    qubit holds its required bit. Controls are (qubit, bit) pairs; bit 1 is a
    filled dot, bit 0 an open dot. `theta` as in `apply_ry`. In place."""
    return _apply_2x2(state, target, tuple(controls), (), _ry_entries(theta))


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
    if thetas.ndim > n:  # one axis per control qubit, then the rows
        thetas = np.moveaxis(thetas, 0, -1)
    return _apply_2x2(state, target, (), control_qubits, _ry_entries(thetas))


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

