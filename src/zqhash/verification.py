"""Self-checks that cross-validate the simulator against the closed forms.

Each check compares two independently computed routes to the same numbers
and reports the worst deviation seen:

  - ucr_decomposition: a multiplexed Ry whose branch angles are affine in
    the address bits equals one plain Ry plus one two-qubit controlled Ry
    per address bit, on every computational-basis input.
  - single_qubit_inner_product: gate-built product-state hashes have the
    closed-form cosine-product inner products, for all residue pairs.
  - shallow_inner_product: likewise for the shallow circuit against the
    closed form with the sum factor.
  - resistance_equivalence: the paper's identity, checked in closed form:
    the cosine product with the sum factor equals the standard form's mean
    of cos(2*pi*b*dx/q) over the subset sums b of S, at every difference
    dx (within IDENTITY_TOL; a miss fails the check with an infinite
    deviation). Its reported deviation is the worst gap between the
    simulated |inner products| of the shallow and sum-qubit circuits.

The last three share one pass over random parameter sets. Set `index` of
modulus q is what default_rng([seed, q, index]) draws: a size in
[1, n_max], then its entries in [0, q). The sets are drawn a block at a
time from the package's port of that stream (`search._draw_rows`). The
sets of one size are then checked together, in chunks of at most
`_BATCH_AMPLITUDES` amplitudes per run and `_BATCH_CELLS` Gram cells.
`hashing._block_circuits` writes the angles of all their circuits at
once, 2n + 1 angle columns for the three circuits, and the trig is taken
per gate: each Ry takes its own column's, 2n + 1 per chunk. One batched
run each makes the single-qubit and the shallow states. The sum-qubit
circuit is the single-qubit one and one more Ry, so its states are the
single-qubit batch widened by a qubit in |0> and rotated by the sum
factor's Ry alone: 3n + 1 gates per chunk, not 4n + 1. The widened
qubit's odd amplitudes start as +0.0, where the gate-by-gate run can
leave -0.0, so some sum-qubit amplitudes differ from that run in the
sign of a zero, and in nothing else; the tests check that every Gram
matrix still agrees with that run's by bytes. Each state is copied to
row-major order once, and each set's Gram matrix, its own block of rows
times its transpose, is compared as soon as it is made, beside its
closed form or the shallow Gram in a second row of cells. The closed
forms and subset-sum means are evaluated for the whole chunk at once,
the means from one cosine table per set. The multiplexed-Ry check
likewise runs all angle draws of one width as rows of one batch. Batches
are stored amplitude-major, as `statevec` stores them. `MAX_VERIFY_WORK`
bounds the work of each check and of a whole request.

Tests prove each check can fail by substituting a faulty angle rule
(`hashing._TURN_4PI` or `_TURN_2PI`, which the circuit builders read at
call time and the closed forms never read), a faulty `apply_ry` in the
flat route, or a faulty `statevec.apply_ry` or `apply_controlled_ry`,
which every chunk's Ry gates go through.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import _check_sweep_modulus, _closed_inner_pair
from .hashing import MAX_PARAMS, _block_circuits, _check_int, _run
from .search import _DRAW_ROWS, _draw_rows
from .statevec import (
    StateVector,
    apply_controlled_ry,
    apply_ry,
    apply_ucr,
    run_circuit,
    zero_state,
)

DEFAULT_SEED = 0xC0FFEE
DEVIATION_TOL = 1e-10
# Closed form against closed form, both in float64: measured within 9e-16
# over q = 2..299 and up to 6 parameters.
IDENTITY_TOL = 1e-12

# Amplitudes per batched run of either simulated check, so memory stays
# bounded at any width and any number of sets.
_BATCH_AMPLITUDES = 1 << 16
# Gram cells, the sum of q**2 over its sets, per chunk of the Gram checks:
# a chunk holds two arrays of that many cells.
_BATCH_CELLS = 1 << 17

# Work a verify request, or one public check, may take, in the units of
# `_ucr_work` and `_gram_work`. On a 2-vCPU x86 VM a unit took 2-6 ns in
# the Gram checks and 5-7 ns in the multiplexed-Ry check, so the largest
# accepted request runs about a minute. The Gram work grows as q_max**3
# and the multiplexed-Ry work as 4**n_max, so without a bound `verify
# --q-max 20000` or `--n-max 20` would not finish, nor would one check
# called with such arguments.
MAX_VERIFY_WORK = 10**10
# A set's fixed cost (about 20 us: its share of the draw, the builds and
# the comparisons), and a residue pair's comparisons beside its Gram
# product, in the same units.
_SET_WORK = 1 << 12
_PAIR_WORK = 16


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str


def _result(name: str, max_deviation: float, detail: str) -> CheckResult:
    return CheckResult(name, max_deviation <= DEVIATION_TOL, max_deviation, detail)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    # The largest |a - b|, written over b: every caller's last use of it.
    diff = np.subtract(a, b, out=b)
    return float(np.max(np.abs(diff, out=diff)))


def _ucr_work(n_max: int, draws: int) -> int:
    # Work units of check_ucr_decomposition: each multiplexed-Ry draw of
    # width n runs 2**(n + 1) basis inputs of 2**(n + 1) amplitudes
    # through n + 1 gates.
    return draws * sum((n + 1) << (2 * n + 2) for n in range(1, n_max + 1))


def _gram_work(squares: int, moduli: int, n_max: int, sets_per_q: int) -> int:
    # Work units of check_inner_products over `moduli` moduli whose squares
    # sum to `squares`: each set of modulus q compares q**2 Gram entries,
    # each a product over up to 2**(n_max + 1) amplitudes plus _PAIR_WORK
    # of comparisons, and has a fixed cost of _SET_WORK.
    pairs = squares * ((2 << n_max) + _PAIR_WORK)
    return sets_per_q * (pairs + moduli * _SET_WORK)


def _check_work(work: int, inputs: str) -> None:
    if work > MAX_VERIFY_WORK:
        raise ValueError(
            f"{inputs} need {work:.2e} work units, above the "
            f"{MAX_VERIFY_WORK:.0e} budget"
        )


def check_ucr_decomposition(
    n_max: int = 6,
    vectors_per_n: int = 50,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """Multiplexed Ry with branch angles base + sum of per-bit parts versus
    the flat circuit of one Ry(base) and n controlled Ry(part_k), compared
    componentwise on every basis input. Every (angle draw, basis input)
    pair of one width is a row of one batch, with its draw's angles.
    Raises ValueError, before any work, on an argument run_all_checks
    would refuse or past MAX_VERIFY_WORK work units."""
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    vectors_per_n = _check_int(vectors_per_n, "vectors_per_n", 1, None)
    seed = _check_int(seed, "seed", 0, None)
    _check_work(_ucr_work(n_max, vectors_per_n), "n_max and vectors_per_n")
    worst = 0.0
    cases = 0
    for n in range(1, n_max + 1):
        rng = np.random.default_rng([seed, n])
        # Row v is draw v, base first: the same stream as one scalar base
        # and then n parts per draw.
        draws = rng.uniform(0.0, 4.0 * np.pi, size=(vectors_per_n, n + 1))
        base, parts = draws[:, 0], draws[:, 1:]
        # Branch j adds the parts of its set address bits in part order,
        # qubit 0 first, the order of a Python sum over k.
        bits = (np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
        sums = np.zeros((vectors_per_n, 1 << n))
        for k in range(n):
            sums = np.where(bits[k], sums + parts[:, k, None], sums)
        thetas = base[:, None] + sums
        dim = 1 << (n + 1)
        total = vectors_per_n * dim
        rows = max(1, _BATCH_AMPLITUDES // dim)
        for start in range(0, total, rows):
            # Row r is basis input r % dim under draw r // dim. A chunk
            # inside one draw passes that draw's angles unbatched, so their
            # trig is taken once, not once per row.
            row = np.arange(start, min(start + rows, total))
            draw = row // dim
            if draw[0] == draw[-1]:
                draw = draw[0]
            multiplexed = zero_state(n + 1, batch=row.size)
            multiplexed.amplitudes[:, 0] = 0.0
            multiplexed.amplitudes[np.arange(row.size), row % dim] = 1.0
            flat = multiplexed.copy()
            apply_ucr(multiplexed, range(n), n, thetas[draw])
            apply_ry(flat, n, base[draw])
            for k in range(n):
                apply_controlled_ry(flat, [(k, 1)], n, parts[draw, k])
            worst = max(worst, _gap(multiplexed.amplitudes, flat.amplitudes))
        cases += total
    return _result(
        "ucr_decomposition",
        worst,
        f"{cases} basis inputs across widths up to {n_max + 1} qubits",
    )


def _subset_sum_means(
    factors: np.ndarray, q: np.ndarray, dx: np.ndarray
) -> np.ndarray:
    # The standard form's inner product for each row of a (K, n) block,
    # with q a (K, 1) column, at every dx: the mean of cos(2*pi*b*dx/q)
    # over the subset sums b of the row, in the address order of
    # `derive_biased_set`, each b*dx reduced mod q before the float
    # division. b, dx < q <= MAX_SWEEP_MODULUS = 2**20, the cap
    # run_all_checks puts on q_max, so b*dx < 2**40 fits int64. Each row
    # has one table, cos((2*pi/q) * r) for r < dx.size, the expression a
    # term evaluates at its residue r, and every term is read from it.
    rows = factors.shape[0]
    sums = np.zeros((rows, 1), dtype=np.int64)
    for j in reversed(range(factors.shape[1])):
        sums = np.concatenate([sums, sums + factors[:, j, None]], axis=1)
    sums %= q
    residues = (sums[:, :, None] * dx) % q[:, :, None]
    residues += (np.arange(rows) * dx.size)[:, None, None]
    table = np.cos((2.0 * np.pi / q) * np.arange(dx.size))
    return table.take(residues).mean(axis=1)


def _chunk_states(factors: np.ndarray, q: np.ndarray) -> list[StateVector]:
    # The single-qubit, shallow and sum-qubit batches of a chunk of sets
    # of one size, set k's states of x = 0..q[k]-1 as a block of rows. The
    # sum-qubit circuit is the single-qubit one and the sum factor's Ry,
    # so its batch is the single-qubit one widened by a qubit in |0> and
    # rotated by that Ry alone, with the norm check of every run.
    bare, shallow, with_sum = _block_circuits(factors, q)
    single = _run(bare, int(q.sum()))
    shallow = _run(shallow, single.batch[0])
    return [single, shallow, run_circuit(single.widened(), with_sum[len(bare) :])]


def _chunk_gaps(
    factors: np.ndarray, q: np.ndarray
) -> tuple[list[float], np.ndarray]:
    # The three gaps of check_inner_products over a chunk of sets of one
    # size, and the positions of the sets whose closed forms break the
    # identity. Row 0 of `cells` holds each set's q[k] x q[k] Gram, row 1
    # its closed form or, beside the shallow Gram, the sum-qubit Gram;
    # each gap writes over row 1. Each state is copied to row-major order
    # once, so each set's block is a C-ordered view and `block @ block.T`,
    # written in place, is one BLAS syrk.
    dx = np.arange(q.max())
    column = q[:, None]
    closed = np.stack(_closed_inner_pair(column, factors, dx))
    means = _subset_sum_means(factors, column, dx)
    identity = np.where(dx < column, np.abs(means - closed[1]), 0.0).max(axis=1)
    # Each closed form at |i - j| < q.max() is row i of the reversed
    # sliding windows over the form mirrored about dx = 0.
    mirrored = np.concatenate([closed[..., :0:-1], closed], axis=-1)
    at_distance = sliding_window_view(mirrored, dx.size, axis=-1)[:, :, ::-1]
    states = _chunk_states(factors, q)  # made before `cells`: fewer page faults
    stops, sizes, ends = np.cumsum(q).tolist(), q.tolist(), np.cumsum(q * q).tolist()
    cells = np.empty((2, int((q * q).sum())))
    matrices = [cells[:, e - m * m : e].reshape(2, m, m) for e, m in zip(ends, sizes)]
    gaps = []
    for i, state in enumerate(states):
        rows = np.ascontiguousarray(state.amplitudes)
        for k, (stop, m, out) in enumerate(zip(stops, sizes, matrices)):
            block = rows[stop - m : stop]
            np.matmul(block, block.T, out=out[i // 2])
            if i < 2:
                out[1] = at_distance[i, k, :m, :m]
        del rows, block  # freed before the next copy, for the same reason
        if i == 2:  # |shallow Gram| against |sum-qubit Gram|
            np.abs(cells, out=cells)
        gaps.append(_gap(*cells))
    return gaps, np.flatnonzero(~(identity <= IDENTITY_TOL))


def _chunks(
    members: np.ndarray, q: np.ndarray, size: int
) -> Iterator[np.ndarray]:
    # Runs of consecutive sets of one size whose rows fit
    # _BATCH_AMPLITUDES at the widest circuit, n + 1 qubits, and whose
    # Grams fit _BATCH_CELLS; a set larger than either runs alone.
    start = rows = cells = 0
    for i, count in enumerate(q[members].tolist()):
        if i > start and (
            (rows + count) << (size + 1) > _BATCH_AMPLITUDES
            or cells + count * count > _BATCH_CELLS
        ):
            yield members[start:i]
            start, rows, cells = i, 0, 0
        rows += count
        cells += count * count
    yield members[start:]


def check_inner_products(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """The single_qubit_inner_product, shallow_inner_product and
    resistance_equivalence results, from one pass over random parameter
    sets. Set `index` of modulus q is drawn by default_rng([seed, q,
    index]): a size in [1, n_max], then its entries in [0, q). The sets
    are drawn in blocks of _DRAW_ROWS, the most the stream port draws in
    one call; within a block the sets of one size are simulated together,
    one batched run per circuit and per chunk of at most _BATCH_AMPLITUDES
    amplitudes and _BATCH_CELLS Gram cells, and their closed forms are
    evaluated together per chunk. Raises ValueError, before any work, on
    an argument run_all_checks would refuse, on no moduli or past
    MAX_VERIFY_WORK work units."""
    moduli = [_check_sweep_modulus(q, "q value") for q in q_values]
    _check_int(len(moduli), "number of q values", 1, None)
    sets_per_q = _check_int(sets_per_q, "sets_per_q", 1, None)
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    seed = _check_int(seed, "seed", 0, None)
    squares = sum(q * q for q in moduli)
    _check_work(
        _gram_work(squares, len(moduli), n_max, sets_per_q),
        "q_values, sets_per_q and n_max",
    )
    q_values = np.array(moduli, dtype=np.int64)
    count = q_values.size * sets_per_q
    worst = [0.0, 0.0, 0.0]
    diverged = None
    for start in range(0, count, _DRAW_ROWS):
        drawn = np.arange(start, min(start + _DRAW_ROWS, count))
        q = q_values[drawn // sets_per_q]
        index = (drawn % sets_per_q).astype(np.uint64)
        span = q.astype(np.uint64)
        sizes, factors = _draw_rows((seed, q), index, span, n_max, sized=True)
        broken: list[int] = []
        for size in np.unique(sizes).tolist():
            for chunk in _chunks(np.flatnonzero(sizes == size), q, size):
                gaps, breaks = _chunk_gaps(factors[chunk, :size], q[chunk])
                worst = [max(w, g) for w, g in zip(worst, gaps)]
                broken += chunk[breaks].tolist()
        if broken and diverged is None:
            first = min(broken)
            elements = tuple(factors[first, : sizes[first]].tolist())
            diverged = (
                f"sum-factor closed form diverged from the subset-sum mean "
                f"for q={q[first]}, S={elements}"
            )
    pairs = sets_per_q * squares
    pair_detail = f"{pairs} residue pairs, all pairs per set"
    equivalence_detail = (
        f"{count} parameter sets, sum-factor closed form equals the "
        f"subset-sum mean within {IDENTITY_TOL:g}"
    )
    if diverged is not None:
        worst[2], equivalence_detail = float("inf"), diverged
    return [
        _result("single_qubit_inner_product", worst[0], pair_detail),
        _result("shallow_inner_product", worst[1], pair_detail),
        _result("resistance_equivalence", worst[2], equivalence_detail),
    ]


def _verify_work(q_max: int, n_max: int, trials: int) -> int:
    # Work units of run_all_checks: both parts over q in [2, q_max].
    squares = q_max * (q_max + 1) * (2 * q_max + 1) // 6 - 1
    grams = _gram_work(squares, q_max - 1, n_max, trials)
    return grams + _ucr_work(n_max, trials)


def run_all_checks(
    q_max: int = 64,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    trials: int = 5,
) -> list[CheckResult]:
    """Run the four checks over q in [2, q_max]. `trials` sets the number
    of random parameter sets per modulus and angle draws per width. Raises
    ValueError, before any work, when a check would have nothing to check,
    `q_max` is above the sweep cap MAX_SWEEP_MODULUS, `n_max` is outside
    [1, MAX_PARAMS], `seed` is not a non-negative integer or the request
    needs more than MAX_VERIFY_WORK work units."""
    q_max = _check_sweep_modulus(q_max, "q_max")
    trials = _check_int(trials, "trials", 1, None)
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    seed = _check_int(seed, "seed", 0, None)
    _check_work(_verify_work(q_max, n_max, trials), "q_max, n_max and trials")
    return [
        check_ucr_decomposition(n_max=n_max, vectors_per_n=trials, seed=seed),
        *check_inner_products(
            range(2, q_max + 1), sets_per_q=trials, n_max=n_max, seed=seed
        ),
    ]
