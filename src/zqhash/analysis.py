"""Bias and collision-resistance analysis.

The quality measures here are all exhaustive sweeps over the nonzero
residues mod q:

  - bias(B, x) is |mean of exp(2*pi*i*b*x/q) over b in B|; the epsilon of a
    set is its worst bias over x != 0.
  - the closed-form inner product of two single-qubit-form hash states is
    the product over parameters of cos(pi * s_j * (x1 - x2) / q), times one
    more factor cos(pi * sum(S) * (x1 - x2) / q) when the sum qubit is on.
    The shallow form has the same value as single-qubit with the sum qubit,
    so `closed_inner_shallow` evaluates the identical expression.
  - collision resistance of a construction is the worst |inner product|
    over nonzero state differences.

Everything depends on x1 and x2 only through (x1 - x2), so sweeps run over
the difference. Cosine arguments keep their integer numerators reduced mod
2q before the float division (cos(pi * k / q) has period 2q in k), so a
closed-form sweep needs only the 2q values cos(pi * k / q), k in [0, 2q).
It computes them once per modulus, with the float expression and np.cos
call a scalar entry point makes for one k, and every factor of every cell
gathers its value from that table. The sweep values are therefore
bit-identical to the scalar entry points, and to the rows of a block of
parameter sets swept at once, as search and verify do.

Sweeps allocate O(q) arrays and are capped at q <= 2**20. At the cap a
closed-form sweep holds six q-sized arrays, about 48 MB: the differences,
the 2q-value table, and the cells, values and product of the factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .hashing import (
    MAX_SWEEP_MODULUS,
    BiasedSet,
    HashForm,
    ParamSet,
    _check_int,
    build_shallow_hash,
    build_single_qubit_hash,
    build_standard_hash,
    derive_biased_set,
)
from .statevec import inner_product

_SWEEP_BLOCK = 8192


@dataclass
class ResistanceReport:
    """Certified worst case of an exhaustive residue sweep.

    `values[i]` is the certified magnitude at residue x = i + 1; `epsilon`
    is their maximum and `worst_x` the smallest x attaining it.
    """

    q: int
    epsilon: float
    worst_x: int
    values: np.ndarray


def _check_sweep_modulus(q: object, name: str = "modulus") -> int:
    span = f"[2, {MAX_SWEEP_MODULUS}] (exhaustive sweeps are capped there)"
    return _check_int(q, name, 2, MAX_SWEEP_MODULUS, span)


def _report_from_values(q: int, values: np.ndarray) -> ResistanceReport:
    idx = int(np.argmax(values))
    return ResistanceReport(q, float(values[idx]), idx + 1, values)


def _phase_mean(q: int, elements: tuple[int, ...], x: int) -> np.complex128:
    # Mean over B of exp(2*pi*i*b*x/q), with each b*x reduced mod q in
    # Python ints first, so no product wraps. This is not bit-identical to
    # the sweep: numpy reduces the (|B|, 1) column as one 1-D sum, out of
    # order from |B| = 4 on, and its exp on a short array can differ in the
    # last ulp even at |B| = 1. The two agree within 1e-15.
    residues = [[(b * x) % q] for b in elements]
    phases = (2.0 * np.pi / q) * np.array(residues, dtype=np.float64)
    return np.exp(1j * phases).mean(axis=0)[0]


def bias(biased: BiasedSet, x: int) -> float:
    """Magnitude of the mean q-th-root-of-unity phase of B at point x."""
    x = _check_int(x, "x", 0, biased.q - 1, f"[0, q) with q={biased.q}")
    return float(abs(_phase_mean(biased.q, biased.elements, x)))


def shift_normalize(biased: BiasedSet) -> BiasedSet:
    """Translate B so its first element is 0; bias at every x is unchanged
    because a common shift only rotates the summed phases."""
    first = biased.elements[0]
    return BiasedSet(biased.q, tuple(b - first for b in biased.elements))


def epsilon_of_biased_set(biased: BiasedSet) -> ResistanceReport:
    """Worst bias of B over all x in [1, q), with the full per-x table."""
    q = biased.q
    _check_sweep_modulus(q)
    # The q-th roots of unity once, roots[r] = exp(2*pi*i*r/q) from the
    # same float expression a direct sum evaluates at residue r. Each x
    # then adds roots[(b*x) % q] for every b of B, in B's order, so every
    # value gets the same IEEE additions as that direct sum. The x run in
    # fixed-size blocks inside the loop over b, so only b's first block
    # divides: its residues (b*i) % q for i in [1, width] (the cap
    # q <= 2**20 keeps b*i inside int64). The block of x = start + i
    # shifts them by the Python int (b*start) % q, and every shifted
    # residue is below 2q, which take's wrap mode maps back into [0, q)
    # by one subtraction.
    roots = np.exp(1j * ((2.0 * np.pi / q) * np.arange(q, dtype=np.int64)))
    total = np.zeros(q - 1, dtype=np.complex128)
    width = min(_SWEEP_BLOCK, q - 1)
    steps = np.arange(1, width + 1, dtype=np.int64)
    first = np.empty(width, dtype=np.int64)
    residues = np.empty(width, dtype=np.int64)
    terms = np.empty(width, dtype=np.complex128)
    for b in biased.elements:
        np.multiply(steps, b, out=first)
        np.remainder(first, q, out=first)
        for start in range(0, q - 1, width):
            n = min(width, q - 1 - start)
            acc, r, t = total[start : start + n], residues[:n], terms[:n]
            np.add(first[:n], (b * start) % q, out=r)
            roots.take(r, out=t, mode="wrap")
            np.add(acc, t, out=acc)
    # The table's last use: free it, then divide in place, so the peak at
    # the cap is the roots and the total, not a third q-sized complex.
    del roots
    total /= biased.size
    return _report_from_values(q, np.abs(total))


def _cosine_table(q: int | np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # cos(pi * k / q) for k in [0, 2q), from the same float expression the
    # direct call evaluates; the float arange is exact, so a scalar q's
    # table takes no int64 temporary of its size. A (K, 1) column of q
    # gets one flat table, one 2q run per distinct modulus, and the
    # (K, 1) offsets of its rows' runs.
    if np.ndim(q) == 0:
        table = np.arange(2 * q, dtype=np.float64)
        table *= np.pi / q
        return np.cos(table, out=table), None
    moduli, inverse = np.unique(q, return_inverse=True)
    sizes = 2 * moduli
    starts = np.cumsum(sizes) - sizes
    table = np.arange(sizes.sum(), dtype=np.float64)
    table -= np.repeat(starts, sizes)
    table *= np.repeat(np.pi / moduli, sizes)
    return np.cos(table, out=table), starts[inverse].reshape(np.shape(q))


def _closed_inner_values(
    q: int | np.ndarray,
    rows: tuple[int, ...] | np.ndarray,
    dx: int | np.ndarray,
    with_sum: bool,
) -> np.ndarray:
    # Signed inner products of parameter rows at differences dx. `rows` is
    # one row as a tuple of Python ints, or a (K, n) int64 block of rows,
    # one result row each, whose modulus `q` may be a (K, 1) int64 column,
    # one per row. One cosine factor per parameter, multiplied in parameter
    # order, so scalar, sweep and block callers agree bitwise. A Python-int
    # `dx` is reduced exactly at any size and goes to np.cos directly. An
    # array `dx` reads each factor's cosine from `_cosine_table` at the
    # reduced numerator (s * dx) mod 2q. A row's dx may pass its own q, as
    # verify sweeps every row of a chunk up to the chunk's largest q; the
    # sweep cap q <= 2**20 keeps s * dx, sum factor included, inside int64.
    if isinstance(rows, tuple):
        factors = list(rows)
        total = sum(rows)
    else:
        factors = [rows[:, j, None] for j in range(rows.shape[1])]
        total = rows.sum(axis=1, keepdims=True)
    if with_sum:
        factors.append(total)
    if isinstance(dx, int):
        out = np.ones(())
        for s in factors:
            out = out * np.cos((np.pi / q) * ((s * dx) % (2 * q)))
        return out
    *_, out = _running_products(q, factors, dx)
    return out


def _closed_inner_pair(
    q: np.ndarray, rows: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # `_closed_inner_values` of a block without and with the sum factor,
    # from one cosine table and one pass over the factors: the with-sum
    # product is the bare product times the sum factor, multiplied last as
    # there, so both keep its bits.
    n = rows.shape[1]
    factors = [rows[:, j, None] for j in range(n)]
    factors.append(rows.sum(axis=1, keepdims=True))
    products = _running_products(q, factors, dx)
    bare = next(islice(products, n - 1, None)).copy()
    return bare, next(products)


def _running_products(
    q: int | np.ndarray, factors: list, dx: np.ndarray
) -> Iterator[np.ndarray]:
    # The product of the first j factors' cosines at every cell, yielded
    # for j = 1, 2, ... in one buffer that the next step multiplies in
    # place. Each factor reads `_cosine_table` at the reduced numerator
    # (s * dx) mod 2q.
    dx = np.asarray(dx, dtype=np.int64)
    table, offset = _cosine_table(q)
    # One cell and one value buffer serve every factor. Clip mode gathers
    # without buffering the output; every index is in range.
    shape = np.broadcast_shapes(np.shape(factors[0]), dx.shape)
    cell = np.empty(shape, dtype=np.int64)
    out, values = np.empty(shape), np.empty(shape)
    for j, s in enumerate(factors):
        np.multiply(s, dx, out=cell)
        cell %= 2 * q
        if offset is not None:
            cell += offset
        if j == 0:
            np.take(table, cell, out=out, mode="clip")
        else:
            np.take(table, cell, out=values, mode="clip")
            out *= values
        yield out


def closed_inner_single(
    params: ParamSet, x1: int, x2: int, include_sum_qubit: bool = False
) -> float:
    """Inner product of the single-qubit-form hashes of x1 and x2, evaluated
    in closed form. Depends only on x1 - x2."""
    dx = _check_int(x1, "x1", None) - _check_int(x2, "x2", None)
    return float(
        _closed_inner_values(params.q, params.elements, dx, include_sum_qubit)
    )


def closed_inner_shallow(params: ParamSet, x1: int, x2: int) -> float:
    """Inner product of the shallow-form hashes of x1 and x2. Equals the
    single-qubit value with the sum qubit on, so this evaluates that same
    expression; simulation provides the independent cross-check."""
    return closed_inner_single(params, x1, x2, include_sum_qubit=True)


def simulated_inner(
    form: HashForm,
    hash_set: ParamSet | BiasedSet,
    x1: int,
    x2: int,
    include_sum_qubit: bool = False,
) -> float:
    """Inner product of the hashes of x1 and x2, measured on simulated
    states built gate by gate. Slow next to the closed forms; this is the
    independent route they are checked against."""
    if form is HashForm.STANDARD:
        biased = (
            hash_set
            if isinstance(hash_set, BiasedSet)
            else derive_biased_set(hash_set)
        )
        return inner_product(
            build_standard_hash(biased, x1), build_standard_hash(biased, x2)
        )
    if not isinstance(hash_set, ParamSet):
        raise ValueError(f"{form.value} form needs a parameter set")
    if form is HashForm.SHALLOW:
        return inner_product(
            build_shallow_hash(hash_set, x1), build_shallow_hash(hash_set, x2)
        )
    if form is HashForm.SINGLE_QUBIT:
        return inner_product(
            build_single_qubit_hash(hash_set, x1, include_sum_qubit),
            build_single_qubit_hash(hash_set, x2, include_sum_qubit),
        )
    raise ValueError(f"unknown form {form!r}")


def _sweep(
    q: int,
    rows: tuple[int, ...] | np.ndarray,
    form: HashForm,
    include_sum_qubit: bool,
) -> np.ndarray:
    # |inner product| of `rows` (as in `_closed_inner_values`) at every
    # nonzero difference mod q. The standard and shallow forms share the
    # shallow value, which is single-qubit with the sum factor.
    _check_sweep_modulus(q)
    with_sum = include_sum_qubit if form is HashForm.SINGLE_QUBIT else True
    dx = np.arange(1, q, dtype=np.int64)
    return np.abs(_closed_inner_values(q, rows, dx, with_sum))


def collision_resistance(
    params: ParamSet, form: HashForm, include_sum_qubit: bool = False
) -> ResistanceReport:
    """Worst |inner product| over all nonzero differences mod q, from the
    closed form. The standard and shallow forms share the shallow value."""
    values = _sweep(params.q, params.elements, form, include_sum_qubit)
    return _report_from_values(params.q, values)


def cosine_sum_check(biased: BiasedSet, x: int) -> tuple[float, float]:
    """(|mean cosine|, |mean phase|) of B at x != 0. The first never exceeds
    the second, since the cosine sum is the real part of the phase sum."""
    x = _check_int(x, "x", 1, biased.q - 1, f"[1, q) with q={biased.q}")
    mean = _phase_mean(biased.q, biased.elements, x)
    return float(abs(mean.real)), float(abs(mean))

