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
the difference. Integer numerators are reduced before any float arithmetic:
the bias term of b at x is the q-th root of unity at (b * x) mod q, and the
closed-form factor of s at difference d is cos(pi * k / q) at
k = (s * d) mod 2q, as cos(pi * k / q) has period 2q in k. Two routes
evaluate them, each written once. The exhaustive sweeps over x in [1, q)
(bias, and the closed forms of resist and search) gather every term from
one table per sweep, the q roots or the 2q cosines, computed with the float
expression and numpy call of a direct evaluation. One difference, and
verify's chunks, evaluate np.cos directly (`_closed_inner_values`).

A table sweep takes one of two paths. The table loop (`_table_sweep`)
gathers each factor's terms a block of x at a time; it serves the bias
sweep, one row, and blocks of rows at q > 256. At q <= 256, once at least
2q rows are to be swept, the closed forms gather the square
table[(s * d) mod 2q] for s in [0, 2q) and d in [1, q), no more cells than
one factor of the loop on those rows, and then read each factor as whole
rows of it. Both read the same table value for every cell and multiply in
parameter order, so a closed-form sweep is bit-identical to the direct
route, for one row or for any row of a block. A search's scan is swept by
`_closed_sweeps`, in blocks of about 2**14 cells (128 kB of values), so
each block stays in cache; it makes the table, the square once built, and
the buffers every block is written into once per scan. A block hands back
row maxima: each row's max |inner product| over the differences [1, w],
for any w, the max of the first w cells of its full sweep bit for bit, as
each cell reads the same table value and gets the same multiplies.

At prime q the bias sweep takes a third path, in discrete-log order
(`_log_sweep`). With g the smallest generator of the nonzero residues and
R[k] the root at g**k mod q, b = g**L adds R[(k + L) mod (q - 1)] at
x = g**k. So over a block of x in log order each b adds one contiguous
window of R, two slices where it wraps, and nothing is gathered until one
take through an int32 log table puts the magnitudes back in x order. Every
x adds the same roots in the same order as on the table loop, so the
values keep their bits.

Sweeps allocate O(q) arrays and are capped at q <= 2**20. At the cap a
closed-form sweep peaks at about 24 MB, the 2q-value table and the values.
A bias sweep peaks at about 32 MB at q = 2**20, its complex roots and
totals, and at about 36 MB at the prime q = 1048573, its complex R and
totals and the int32 logs. The square is at most 1 MB, at q = 256. A bias
sweep is also bounded in work: |B| * (q - 1) <= MAX_BIAS_EVALS.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .hashing import (
    MAX_SWEEP_MODULUS,
    BiasedSet,
    HashForm,
    ParamSet,
    _check_int,
    _check_set,
    build_hash,
)
from .statevec import inner_product

_SWEEP_BLOCK = 8192

# Cells of one block of a scan: 2**14 float64 values, 128 kB, so a block
# and its buffers of terms and residues stay in cache. A row counts at
# least _ROW_CELLS cells, about its factor columns and their residues at
# n = MAX_PARAMS, so tiny moduli get bounded blocks too.
_SWEEP_CELLS = 1 << 14
_ROW_CELLS = 64

# Largest modulus whose sweeps build the cosine square: (2q, q - 1)
# float64 values, at most 1 MB. At q = 10007 one would take 1.6 GB.
_SQUARE_MAX_Q = 256

# Largest |B| * (q - 1) a bias sweep accepts. At composite q the sweep adds
# one gathered root per (b, x) pair, about 10 ns each at q = 2**20, so the
# budget is about 100 s there; prime q adds contiguous windows, about 2 ns
# a pair at q = 1048573. The single-x bias is O(|B|) and needs none.
MAX_BIAS_EVALS = 10**10


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
    _check_set(biased, BiasedSet, "bias")
    x = _check_int(x, "x", 0, biased.q - 1, f"[0, q) with q={biased.q}")
    return float(abs(_phase_mean(biased.q, biased.elements, x)))


def shift_normalize(biased: BiasedSet) -> BiasedSet:
    """Translate B so its first element is 0; bias at every x is unchanged
    because a common shift only rotates the summed phases."""
    _check_set(biased, BiasedSet, "shift_normalize")
    first = biased.elements[0]
    return BiasedSet(biased.q, tuple(b - first for b in biased.elements))


def _loop_buffers(shape: tuple[int, ...], q: int, dtype: np.dtype | type) -> tuple:
    # The table loop's buffers for rows of leading `shape`: the values at
    # every x in [1, q), and one block of x of a factor's first residues,
    # its shifted residues and its gathered terms.
    width = min(_SWEEP_BLOCK, q - 1)
    return (
        np.empty(shape + (q - 1,), dtype=dtype),
        np.empty(shape + (width,), dtype=np.int64),
        np.empty(shape + (width,), dtype=np.int64),
        np.empty(shape + (width,), dtype=dtype),
    )


def _table_sweep(
    table: np.ndarray,
    q: int,
    factors: list,
    combine: np.ufunc,
    buffers: tuple | None = None,
) -> np.ndarray:
    # table[(s * x) % modulus] for every factor s at every x in [1, q),
    # where the modulus is the table's size, the period of its terms: the
    # first factor's values are written and each later factor's combined
    # into them in order, so every value gets the IEEE operations of the
    # direct evaluation in that order. A factor is a Python int, or a
    # (K, 1) int64 column with one result row each. The x run in blocks
    # inside the loop over factors, in buffers that serve every factor
    # (`_loop_buffers`, made here unless the caller owns them), so only a
    # factor's first block divides: its residues (s * i) % modulus for i in
    # [1, width], s reduced first (the cap q <= 2**20 keeps s * i inside
    # int64). Each later block, x = start + i, gathers at them shifted by
    # (s * start) % modulus; every shifted residue is below 2 * modulus,
    # which take's wrap mode maps back into [0, modulus) by one subtraction.
    modulus = table.size
    if buffers is None:
        buffers = _loop_buffers(np.shape(factors[0])[:-1], q, table.dtype)
    out, first, residues, terms = buffers
    width = first.shape[-1]
    steps = np.arange(1, width + 1, dtype=np.int64)
    for j, s in enumerate(factors):
        s = s % modulus
        np.multiply(steps, s, out=first)
        np.remainder(first, modulus, out=first)
        for start in range(0, q - 1, width):
            n = min(width, q - 1 - start)
            acc, r, t = out[..., start : start + n], first[..., :n], terms[..., :n]
            if start:
                r = np.add(r, (s * start) % modulus, out=residues[..., :n])
            if j == 0:
                table.take(r, out=acc, mode="wrap")
            else:
                table.take(r, out=t, mode="wrap")
                combine(acc, t, out=acc)
    return out


def _is_prime(q: int) -> bool:
    # Trial division up to sqrt(q), so at most to 1024 below the sweep cap.
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _generator(q: int) -> int:
    # The smallest g that generates the nonzero residues mod a prime q:
    # g ** ((q - 1) / p) != 1 mod q for every prime p dividing q - 1,
    # found by trial division.
    primes, rest, d = [], q - 1, 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    return next(
        g for g in range(1, q) if all(pow(g, (q - 1) // p, q) != 1 for p in primes)
    )


def _log_sweep(q: int, elements: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # The bias sweep's sums at prime q in discrete-log order: total[k] is
    # the sum over B at x = g ** k, returned with the int32 table logs[x]
    # = k for x in [1, q). With b = g ** L, roots[(b * x) % q] at x = g ** k
    # is R[(k + L) % (q - 1)], with R[k] = roots[g ** k % q] (`log_roots`).
    # So b's terms over a block of x are a window of R, read as one slice,
    # or two where it wraps; b = 0 adds roots[0] = 1. The first b is
    # written and every later b added, in B's order, so every value gets
    # the IEEE additions of `_table_sweep` on the roots.
    period = q - 1
    g = _generator(q)
    # The powers g ** k % q as baby steps g ** j times giant steps
    # g ** (m * i), j and i below m, in one outer product; each product is
    # below q ** 2 <= 2 ** 40.
    m = math.isqrt(period - 1) + 1
    powers = np.multiply.outer(
        np.array([pow(g, m * i, q) for i in range(m)], dtype=np.int64),
        np.array([pow(g, j, q) for j in range(m)], dtype=np.int64),
    )
    powers %= q
    powers = powers.ravel()[:period]
    logs = np.empty(q, dtype=np.int32)
    logs[powers] = np.arange(period, dtype=np.int32)
    # R from the roots' own float expression at each power, so R[k] has the
    # bits of roots[g ** k % q]. Each q-sized temporary is freed before the
    # next is made, and exp runs in place: the peak at the cap is R, the
    # total and the logs.
    arg = (2.0 * np.pi / q) * powers
    del powers
    log_roots = 1j * arg
    del arg
    np.exp(log_roots, out=log_roots)
    shifts = [int(logs[b]) if b else None for b in elements]
    total = np.empty(period, dtype=np.complex128)
    width = min(_SWEEP_BLOCK, period)
    for start in range(0, period, width):
        acc = total[start : start + width]
        n = len(acc)
        for j, shift in enumerate(shifts):
            put = operator.iadd if j else np.copyto
            if shift is None:
                put(acc, 1)
                continue
            lo = (start + shift) % period
            k = min(n, period - lo)
            put(acc[:k], log_roots[lo : lo + k])
            if k < n:
                put(acc[k:], log_roots[: n - k])
    return total, logs


def epsilon_of_biased_set(biased: BiasedSet) -> ResistanceReport:
    """Worst bias of B over all x in [1, q), with the full per-x table.
    Raises ValueError past the sweep cap on q, or when |B| * (q - 1)
    exceeds MAX_BIAS_EVALS."""
    _check_set(biased, BiasedSet, "epsilon_of_biased_set")
    q = biased.q
    _check_sweep_modulus(q)
    if biased.size * (q - 1) > MAX_BIAS_EVALS:
        raise ValueError(f"|B| * (q - 1) exceeds the {MAX_BIAS_EVALS:.0e} budget")
    # Each x adds roots[(b*x) % q] for every b of B, in B's order, with
    # roots[r] = exp(2*pi*i*r/q) from the float expression a direct sum
    # evaluates at residue r, so every value gets the same IEEE additions
    # as that direct sum. At prime q the sums come in discrete-log order;
    # otherwise the table loop gathers from the q roots, freed after it.
    logs = None
    if _is_prime(q):
        total, logs = _log_sweep(q, biased.elements)
    else:
        roots = np.exp(1j * ((2.0 * np.pi / q) * np.arange(q, dtype=np.int64)))
        total = _table_sweep(roots, q, list(biased.elements), np.add)
        del roots
    # Divide in place, so no third q-sized complex array is made, and free
    # the total before log-order values go back to x order.
    total /= biased.size
    values = np.abs(total)
    del total
    if logs is not None:
        values = values.take(logs[1:])
    return _report_from_values(q, values)


def _factors(rows: tuple[int, ...] | np.ndarray, with_sum: bool) -> list:
    # One factor per parameter, then the sum factor when `with_sum`: Python
    # ints for one row as a tuple, (K, 1) int64 columns for a (K, n) block.
    factors = list(rows) if isinstance(rows, tuple) else list(rows.T[:, :, None])
    return factors + [sum(factors)] if with_sum else factors


def _closed_inner_values(
    q: int | np.ndarray,
    rows: tuple[int, ...] | np.ndarray,
    dx: int | np.ndarray,
    with_sum: bool,
) -> np.ndarray:
    # Signed inner products of parameter rows at differences dx, by the
    # direct route. `rows` is one row as a tuple of Python ints, or a
    # (K, n) int64 block of rows, one result row each, whose modulus `q`
    # may be a (K, 1) int64 column. One cosine factor per parameter,
    # multiplied in parameter order as `_table_sweep` combines them, so
    # every caller agrees bitwise. A Python-int `dx` is reduced exactly at
    # any size. A row's array dx may pass its own q, as verify sweeps every
    # row of a chunk up to the chunk's largest q; the sweep cap q <= 2**20
    # keeps s * dx, sum factor included, inside int64.
    out = np.ones(())
    for s in _factors(rows, with_sum):
        out = out * np.cos((np.pi / q) * ((s * dx) % (2 * q)))
    return out


def _closed_inner_pair(
    q: np.ndarray, rows: np.ndarray, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # `_closed_inner_values` of a block without and with the sum factor:
    # the with-sum product is the bare product times the sum factor,
    # multiplied last as there, so both keep its bits.
    bare = _closed_inner_values(q, rows, dx, False)
    total = rows.sum(axis=1, keepdims=True)
    return bare, bare * _closed_inner_values(q, total, dx, False)


def closed_inner_single(
    params: ParamSet, x1: int, x2: int, include_sum_qubit: bool = False
) -> float:
    """Inner product of the single-qubit-form hashes of x1 and x2, evaluated
    in closed form. Depends only on x1 - x2."""
    _check_set(params, ParamSet, "closed_inner_single")
    dx = _check_int(x1, "x1") - _check_int(x2, "x2")
    return float(
        _closed_inner_values(params.q, params.elements, dx, include_sum_qubit)
    )


def closed_inner_shallow(params: ParamSet, x1: int, x2: int) -> float:
    """Inner product of the shallow-form hashes of x1 and x2. Equals the
    single-qubit value with the sum qubit on, so this evaluates that same
    expression; simulation provides the independent cross-check."""
    _check_set(params, ParamSet, "closed_inner_shallow")
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
    return inner_product(
        build_hash(form, hash_set, x1, include_sum_qubit),
        build_hash(form, hash_set, x2, include_sum_qubit),
    )


def _cosine_table(q: int) -> np.ndarray:
    # cos(pi * k / q) for k in [0, 2q), from the same float expression the
    # direct route evaluates; the float arange is exact, so the table takes
    # no int64 temporary of its size.
    table = np.arange(2 * q, dtype=np.float64)
    table *= np.pi / q
    return np.cos(table, out=table)


def _cosine_square(table: np.ndarray) -> np.ndarray:
    # The square table[(s * d) % 2q] for s in [0, 2q) and d in [1, q): row
    # s % 2q holds every difference's term of a factor s, since
    # (s % 2q) * d = s * d mod 2q. The products and their remainders are
    # uint32, as s * d < 2q * q <= 2**17 at q <= _SQUARE_MAX_Q; take reads
    # an intp index, and converting first frees the uint32 one before the
    # square is made, so the peak stays that of an int64 build.
    modulus = table.size
    index = np.multiply.outer(
        np.arange(modulus, dtype=np.uint32), np.arange(1, modulus // 2, dtype=np.uint32)
    )
    index %= np.uint32(modulus)
    index = index.astype(np.intp)
    return table.take(index)


def _with_sum(form: HashForm | str, include_sum_qubit: bool) -> bool:
    # Whether the closed form of `form`, a HashForm or its value as
    # `build_hash` takes it (ValueError if unknown), carries the sum factor.
    # The standard and shallow forms share the shallow value, which is
    # single-qubit with the sum factor, so they always do.
    return HashForm(form) is not HashForm.SINGLE_QUBIT or include_sum_qubit


def _block_rows(q: int) -> int:
    return max(1, _SWEEP_CELLS // max(q - 1, _ROW_CELLS))


def _closed_sweeps(
    q: int, with_sum: bool, draws: Iterable[np.ndarray], rows: int, window: int
) -> Iterator[tuple]:
    # Sweeps for a scan of `rows` parameter rows that come as (K, n) int64
    # draws: (index of the first row, its rows, maxima) per block, where
    # maxima(subset, width) is each row of `subset`'s max |inner product|
    # (as in `_closed_inner_values`) over the differences [1, width]. The
    # first block holds `_block_rows(q)` rows, and later ones double up to
    # about 2**14 cells of `window` differences. The cosine table is built
    # once per scan. At q <= _SQUARE_MAX_Q the first draw of at least 2q
    # rows builds the square: 2q (q - 1) cells, no more than one factor of
    # the table loop on those rows. Every later sweep reads it, whatever
    # its size, over its first `width` columns. Every sweep writes into the
    # same flat buffers, made at the first draw, so they reuse what a
    # caller freed before it, such as the draw's own temporaries; a width
    # reshapes them, and rows pass through as many as they hold at once.
    table = _cosine_table(q)
    square = buffers = None
    size = most = min(_block_rows(q), rows)
    while most < rows and 2 * most * window <= _SWEEP_CELLS:
        most *= 2

    def maxima(subset: np.ndarray, width: int) -> np.ndarray:
        # The square reads the values and the terms alone.
        used = buffers if square is None else (buffers[0], buffers[-1])
        cells = [width] + [min(_SWEEP_BLOCK, width)] * (len(used) - 1)
        fit = min(b.size // n for b, n in zip(used, cells))
        out = np.empty(len(subset))
        for offset in range(0, len(subset), fit):
            chunk = subset[offset : offset + fit]
            k = len(chunk)
            values, *rest = [b[: k * n].reshape(k, n) for b, n in zip(used, cells)]
            factors = _factors(chunk, with_sum)
            if square is None:
                _table_sweep(table, width + 1, factors, np.multiply, (values, *rest))
            else:
                # Each factor as row gathers of the square at s % 2q: every
                # cell reads the table value `_table_sweep` reads and gets
                # its multiplies, in parameter order. q <= _SQUARE_MAX_Q <
                # _SWEEP_BLOCK, so the buffer of terms spans the width. take
                # copies `out` first in its default raise mode; wrap mode
                # picks row s % 2q itself and gathers straight into it.
                picks = [s[:, 0] for s in factors]
                columns = square[:, :width]
                columns.take(picks[0], axis=0, out=values, mode="wrap")
                for s in picks[1:]:
                    values *= columns.take(s, axis=0, out=rest[0], mode="wrap")
            # reduceat on the flat chunk is exact, as max(axis=1) is, and
            # takes a third of its time on short rows.
            np.abs(values, out=values)
            starts = np.arange(0, values.size, width)
            np.maximum.reduceat(values.ravel(), starts, out=out[offset : offset + k])
        return out

    start = 0
    for drawn in draws:
        if square is None and 2 * q <= len(drawn) and q <= _SQUARE_MAX_Q:
            square = _cosine_square(table)
        if buffers is None:
            # Rows of every difference, with room for the window's largest
            # block in the buffers of one block of x: the table loop's four,
            # or the square's values and terms.
            width = min(_SWEEP_BLOCK, window)
            held = max(size, -(-min(most, rows) * width // min(_SWEEP_BLOCK, q - 1)))
            if square is None:
                buffers = [b.ravel() for b in _loop_buffers((held,), q, np.float64)]
            else:
                buffers = [np.empty(held * (q - 1)) for _ in range(2)]
        offset = 0
        while offset < len(drawn):
            yield start + offset, drawn[offset : offset + size], maxima
            offset += size
            size = min(2 * size, most)
        start += len(drawn)


def collision_resistance(
    params: ParamSet, form: HashForm | str, include_sum_qubit: bool = False
) -> ResistanceReport:
    """Worst |inner product| over all nonzero differences mod q, from the
    closed form, with `form` a HashForm or its value. The standard and
    shallow forms share the shallow value."""
    _check_set(params, ParamSet, "collision_resistance")
    q = _check_sweep_modulus(params.q)
    factors = _factors(params.elements, _with_sum(form, include_sum_qubit))
    values = _table_sweep(_cosine_table(q), q, factors, np.multiply)
    return _report_from_values(q, np.abs(values, out=values))


def cosine_sum_check(biased: BiasedSet, x: int) -> tuple[float, float]:
    """(|mean cosine|, |mean phase|) of B at x != 0. The first never exceeds
    the second, since the cosine sum is the real part of the phase sum."""
    _check_set(biased, BiasedSet, "cosine_sum_check")
    x = _check_int(x, "x", 1, biased.q - 1, f"[1, q) with q={biased.q}")
    mean = _phase_mean(biased.q, biased.elements, x)
    return float(abs(mean.real)), float(abs(mean))

