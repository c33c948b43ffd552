"""Hash-state constructions over the residues mod q.

Three circuit families map an integer x to a quantum state whose pairwise
inner products certify collision resistance:

  - standard: an n-qubit address register in uniform superposition plus one
    multiplexed Ry on a target qubit, driven by a residue set B of size 2**n.
    The branch angle for address j is 4*pi * B[j] * x / q.
  - shallow: the depth-reduced equivalent for B generated additively from n
    parameters S. One Hadamard layer, then n two-qubit controlled rotations,
    each Ry(4*pi * s_k * x / q) on the target controlled by address qubit k.
    No multi-qubit gate touches more than two wires.
  - single-qubit: no entanglement at all. Qubit j carries Ry(2*pi * s_j * x
    / q)|0>; an optional extra qubit carries the same rotation for sum(S).

Every angle is an exact integer multiple of pi/q, so the integer numerator
is reduced before the float division. Ry has period 4*pi, which makes the
reduction mod q for the 4*pi forms and mod 2q for the 2*pi forms exact at
the state level; it keeps float error flat no matter how large s * x grows.

Index convention matches `statevec`: address value j is read with qubit 0
as the most significant bit, both for B ordering and for which parameter a
given address qubit toggles.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevec import (
    MAX_QUBITS,
    GateOp,
    StateVector,
    _check_int,
    run_circuit,
    zero_state,
)

MAX_PARAMS = 20

# Largest modulus any entry point accepts. Angles and phases are floats
# computed from numerators up to 4*pi*q: they overflow to inf once q passes
# about 2**1020, and an int past 2**1024 has no float at all. The cap keeps
# every accepted q, and every float conversion of 4*pi*q, clear of both.
MAX_MODULUS = 2**1000

# Largest modulus an exhaustive sweep or `verify` accepts. Up to here the
# angle and phase numerators of a residue array reduce in int64: each
# factor of a product is below 2q <= 2**21, so the product is below 2**42.
MAX_SWEEP_MODULUS = 1 << 20

# The modulus rule of every entry point, as `_check_int` arguments.
_MODULUS_SPAN = (2, MAX_MODULUS, f"[2, 2**{MAX_MODULUS.bit_length() - 1}]")

# The element types `_reduced` refuses, as `_check_int` refuses them.
_BOOLS = frozenset((bool, np.bool_))


def _reduced(elements: Sequence[object], q: int, name: str) -> tuple[int, ...]:
    # Each element through `operator.index` like every other integer input,
    # bools refused first. The type scan runs in C: `derive_biased_set`
    # hands a BiasedSet all 2**n subset sums.
    try:
        if not _BOOLS.isdisjoint(map(type, elements)):
            raise TypeError
        return tuple(operator.index(e) % q for e in elements)
    except TypeError:
        raise ValueError(f"{name} must be integers, got {elements!r}") from None


@dataclass(frozen=True)
class ParamSet:
    """Generator parameters S = (s_0, ..., s_{n-1}) over the residues mod q.

    Elements are reduced mod q on construction. Duplicates and zeros are
    allowed; they just make for a weak hash.
    """

    q: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        q = _check_int(self.q, "modulus", *_MODULUS_SPAN)
        _check_int(len(self.elements), "parameter count", 1, MAX_PARAMS)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "elements", _reduced(self.elements, q, "parameters"))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def total(self) -> int:
        return sum(self.elements)

    @property
    def has_duplicates(self) -> bool:
        return len(set(self.elements)) < len(self.elements)


@dataclass(frozen=True)
class BiasedSet:
    """An explicit residue set B = (b_0, ..., b_{d-1}) mod q, order kept."""

    q: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        q = _check_int(self.q, "modulus", *_MODULUS_SPAN)
        if len(self.elements) == 0:  # a numpy array has no truth value
            raise ValueError("residue set must not be empty")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "elements", _reduced(self.elements, q, "residues"))

    @property
    def size(self) -> int:
        return len(self.elements)


def _check_set(hash_set: object, kind: type, user: str) -> None:
    # ParamSet and BiasedSet have the same shape, so a set of the other
    # kind would run and give a silently wrong answer. Every public
    # function that takes a set refuses any other kind, naming its own.
    if not isinstance(hash_set, kind):
        raise ValueError(
            f"{user} cannot take a {type(hash_set).__name__}; "
            f"it takes a {kind.__name__}"
        )


class HashForm(enum.Enum):
    STANDARD = "standard"
    SHALLOW = "shallow"
    SINGLE_QUBIT = "single-qubit"


def linear_combination(params: ParamSet, j: int) -> int:
    """Subset sum of S selected by the bits of j (qubit-0 bit first), mod q."""
    _check_set(params, ParamSet, "linear_combination")
    n = params.size
    j = _check_int(j, "index", 0, (1 << n) - 1, f"[0, 2**{n})")
    total = 0
    for k, s in enumerate(params.elements):
        if (j >> (n - 1 - k)) & 1:
            total += s
    return total % params.q


def derive_biased_set(params: ParamSet) -> BiasedSet:
    """The residue set of all 2**n subset sums of S, in address order."""
    _check_set(params, ParamSet, "derive_biased_set")
    # Doubling from the last parameter, the lowest address bit, up: after
    # element k the list holds every subset sum of elements k.., indexed by
    # the low bits of j, as `linear_combination` selects them. `BiasedSet`
    # reduces the sums mod q.
    sums = [0]
    for s in reversed(params.elements):
        sums += [v + s for v in sums]
    return BiasedSet(params.q, sums)


# Angle forms as (scale, p / q): scale*pi*k/q, with k reduced mod p first.
# Ry has period 4*pi, so mod q is exact for the 4*pi form and mod 2q for
# the 2*pi form.
_TURN_4PI = (4.0 * math.pi, 1)
_TURN_2PI = (2.0 * math.pi, 2)


def _angles(
    turn: tuple[float, int],
    factor: int | np.ndarray,
    x: int | np.ndarray,
    q: int | np.ndarray,
) -> float | np.ndarray:
    # scale*pi * (factor*x mod p) / q, one expression for one x as Python
    # ints and for verify's int64 block, an (m, B) factor block with x and
    # q as (B,) rows. Both inputs give the same bits. For ints the
    # residue is the exact int factor*x mod p, however large s * x grows
    # up to MAX_MODULUS. For a block each factor is reduced mod p before
    # the product, which stays below p**2 <= 2**42, so the residue is the
    # same value in int64, and `scale *` casts it to float64 exactly, as
    # it casts that int. The float operations then run in the same order,
    # element by element, so the block's layout does not change a bit.
    scale, periods = turn
    p = periods * q
    return scale * ((factor % p) * (x % p) % p) / q


def _single_qubit_ops(angles: Sequence) -> tuple[GateOp, ...]:
    # The single-qubit layout: Ry(angles[j]) on qubit j. Each angle is a
    # float, or a (B,) array for a batch.
    return tuple(GateOp("ry", target=j, angle=a) for j, a in enumerate(angles))


def _shallow_ops(angles: Sequence) -> tuple[GateOp, ...]:
    # The shallow layout: H on each address qubit k, then Ry(angles[k]) on
    # the target qubit n under address qubit k.
    n = len(angles)
    return tuple(GateOp("h", target=k) for k in range(n)) + tuple(
        GateOp("cry", target=n, controls=((k, 1),), angle=a)
        for k, a in enumerate(angles)
    )


def _run(ops: Sequence[GateOp], batch: int | None = None) -> StateVector:
    # The one register rule of every circuit run: every hash circuit's
    # last gate targets its last qubit (the target of the standard and
    # shallow forms, the last rotated qubit of the single-qubit form), so
    # that gate gives the width. A batch runs `batch` rows of it.
    return run_circuit(zero_state(ops[-1].target + 1, batch), ops)


def standard_hash_circuit(biased: BiasedSet, x: int) -> tuple[GateOp, ...]:
    """Gate list for the standard form: H layer on the address register,
    then one multiplexed Ry on the target. Needs |B| to be a power of two,
    and log2|B| + 1 qubits within MAX_QUBITS, checked before any angle."""
    _check_set(biased, BiasedSet, "the standard form")
    d = biased.size
    if d & (d - 1):
        raise ValueError(f"set size must be a power of two, got {d}")
    n = d.bit_length() - 1
    _check_int(n + 1, "qubit count", 1, MAX_QUBITS)
    x = _check_int(x, "x")
    ops = [GateOp("h", target=k) for k in range(n)]
    ops.append(
        GateOp(
            "ucr",
            target=n,
            control_qubits=tuple(range(n)),
            angles=tuple(_angles(_TURN_4PI, b, x, biased.q) for b in biased.elements),
        )
    )
    return tuple(ops)


def build_standard_hash(biased: BiasedSet, x: int) -> StateVector:
    """Hash state of x for an explicit residue set, on log2|B| + 1 qubits."""
    return _run(standard_hash_circuit(biased, x))


def shallow_hash_circuit(params: ParamSet, x: int) -> tuple[GateOp, ...]:
    """Gate list for the shallow form: H layer, then one two-qubit controlled
    rotation per parameter, all targeting the last qubit."""
    _check_set(params, ParamSet, "the shallow form")
    x = _check_int(x, "x")
    return _shallow_ops([_angles(_TURN_4PI, s, x, params.q) for s in params.elements])


def build_shallow_hash(params: ParamSet, x: int) -> StateVector:
    """Hash state of x built gate-for-gate from the shallow circuit."""
    return _run(shallow_hash_circuit(params, x))


def single_qubit_hash_circuit(
    params: ParamSet, x: int, include_sum_qubit: bool = False
) -> tuple[GateOp, ...]:
    """Gate list for the entanglement-free form: one Ry per parameter, each
    on its own qubit, plus one more for sum(S) when requested. Depth 1."""
    _check_set(params, ParamSet, "the single-qubit form")
    x = _check_int(x, "x")
    factors = list(params.elements)
    if include_sum_qubit:
        factors.append(params.total)
    return _single_qubit_ops([_angles(_TURN_2PI, s, x, params.q) for s in factors])


def _block_circuits(
    factors: np.ndarray, q: np.ndarray
) -> tuple[tuple[GateOp, ...], ...]:
    """The single-qubit, shallow and sum-qubit circuits of a (K, n) int64
    block of parameter rows, row k over the residues mod q[k] (a (K,)
    int64 array, each q[k] <= MAX_SWEEP_MODULUS). The batch holds
    x = 0..q[k]-1 of each set, set after set. Each angle form is one
    `_angles` expression over the block, one contiguous row per gate: 2n
    + 1 angle rows, as the sum-qubit circuit is the single-qubit one and
    one more Ry. The gates are laid out by the public builders' own
    helpers, so every batch row equals that set's own circuit for its x
    bitwise. The angle forms are read at call time."""
    n = factors.shape[1]
    x = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)
    q_rows = np.repeat(q, q)
    rows = np.repeat(np.vstack([factors.T, factors.sum(axis=1)]), q, axis=1)
    half_turns = _angles(_TURN_2PI, rows, x, q_rows)
    turns = _angles(_TURN_4PI, rows[:n], x, q_rows)
    with_sum = _single_qubit_ops(half_turns)
    return with_sum[:n], _shallow_ops(turns), with_sum


def build_single_qubit_hash(
    params: ParamSet, x: int, include_sum_qubit: bool = False
) -> StateVector:
    """Product-state hash of x; n qubits, or n + 1 with the sum qubit."""
    return _run(single_qubit_hash_circuit(params, x, include_sum_qubit))


def build_hash(
    form: HashForm | str,
    hash_set: ParamSet | BiasedSet,
    x: int,
    include_sum_qubit: bool = False,
) -> StateVector:
    """Hash state of x in `form`, a HashForm or its value. The standard
    form takes a BiasedSet, or a ParamSet expanded by `derive_biased_set`;
    the shallow and single-qubit forms take a ParamSet. Only the
    single-qubit form reads `include_sum_qubit`: the shallow state always
    carries the sum factor. ValueError on an unknown form or a set of the
    wrong kind."""
    form = HashForm(form)
    if form is HashForm.STANDARD and isinstance(hash_set, ParamSet):
        hash_set = derive_biased_set(hash_set)
    if form is HashForm.STANDARD:
        return build_standard_hash(hash_set, x)
    if form is HashForm.SHALLOW:
        return build_shallow_hash(hash_set, x)
    return build_single_qubit_hash(hash_set, x, include_sum_qubit)


def separability_defect(state: StateVector) -> float:
    """Largest second singular value over all contiguous bipartitions; zero
    (up to float error) exactly when the state is a full product state."""
    if state.batch:
        raise ValueError("separability_defect takes a single state, not a batch")
    m = state.num_qubits
    worst = 0.0
    for cut in range(1, m):
        sv = np.linalg.svd(
            state.amplitudes.reshape(1 << cut, -1), compute_uv=False
        )
        if sv.shape[0] > 1:
            worst = max(worst, float(sv[1]))
    return worst
