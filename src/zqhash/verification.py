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

The last three share one pass: each random parameter set is drawn once and
its closed forms are evaluated once. The sets of one size are simulated
together, one batched run per circuit whose rows are the q inputs of each
set in turn, so each set's single-qubit, shallow and sum-qubit Gram matrix
is one block of rows of one run. The multiplexed-Ry check likewise runs
all angle draws of one width as rows of one batch. `_BATCH_AMPLITUDES`
caps the amplitudes of any one run.

Tests prove each check can fail by substituting a faulty angle rule
(`hashing._TURN_4PI` or `_TURN_2PI`, which the circuit builders read at
call time and the closed forms never read) or a faulty `apply_ry` in the
flat route.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import _check_sweep_modulus, _closed_inner_values
from .hashing import (
    MAX_PARAMS,
    ParamSet,
    _check_int,
    derive_biased_set,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
)
from .statevec import (
    GateOp,
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
_BATCH_AMPLITUDES = 1 << 14


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str


def _result(name: str, max_deviation: float, detail: str) -> CheckResult:
    return CheckResult(name, max_deviation <= DEVIATION_TOL, max_deviation, detail)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def check_ucr_decomposition(
    n_max: int = 6,
    vectors_per_n: int = 50,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """Multiplexed Ry with branch angles base + sum of per-bit parts versus
    the flat circuit of one Ry(base) and n controlled Ry(part_k), compared
    componentwise on every basis input. Every (angle draw, basis input)
    pair of one width is a row of one batch, with its draw's angles."""
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
            basis = np.zeros((row.size, dim))
            basis[np.arange(row.size), row % dim] = 1.0
            multiplexed = StateVector(n + 1, basis.copy())
            apply_ucr(multiplexed, range(n), n, thetas[draw])
            flat = StateVector(n + 1, basis)
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


def _random_params(rng: np.random.Generator, q: int, n_max: int) -> ParamSet:
    n = int(rng.integers(1, n_max + 1))
    return ParamSet(q, tuple(int(v) for v in rng.integers(0, q, size=n)))


def _stacked_grams(
    circuit: Callable[[ParamSet, np.ndarray], Sequence[GateOp]],
    param_sets: Sequence[ParamSet],
) -> list[np.ndarray]:
    # The Gram matrix of the states of x = 0..q-1 for each set, from one
    # batched run. Sets of one size give gate lists of one structure, so
    # their per-row angle arrays concatenate into one gate list. The last
    # gate targets the last qubit in every verify circuit.
    built = [circuit(params, np.arange(params.q)) for params in param_sets]
    ops = [
        replace(op, angle=np.concatenate([gates[i].angle for gates in built]))
        if isinstance(op.angle, np.ndarray)
        else op
        for i, op in enumerate(built[0])
    ]
    qs = [params.q for params in param_sets]
    mat = run_circuit(zero_state(ops[-1].target + 1, batch=sum(qs)), ops).amplitudes
    return [block @ block.T for block in np.split(mat, np.cumsum(qs)[:-1])]


def _stacked_gaps(
    chunk: Sequence[tuple[ParamSet, np.ndarray, np.ndarray]],
) -> list[float]:
    # The worst of the three gaps of check_inner_products over a chunk of
    # sets of one size, from one batched run per circuit.
    param_sets = [params for params, _, _ in chunk]
    grams = zip(
        _stacked_grams(single_qubit_hash_circuit, param_sets),
        _stacked_grams(shallow_hash_circuit, param_sets),
        _stacked_grams(
            partial(single_qubit_hash_circuit, include_sum_qubit=True), param_sets
        ),
    )
    worst = [0.0, 0.0, 0.0]
    for (params, closed, closed_sum), (single, shallow, with_sum) in zip(chunk, grams):
        span = np.arange(params.q)
        dx = np.abs(span[:, None] - span[None, :])
        gaps = (
            _gap(single, closed[dx]),
            _gap(shallow, closed_sum[dx]),
            _gap(np.abs(shallow), np.abs(with_sum)),
        )
        worst = [max(w, g) for w, g in zip(worst, gaps)]
    return worst


def _subset_sum_means(params: ParamSet) -> np.ndarray:
    # The standard form's inner product at every dx in [0, q): the mean of
    # cos(2*pi*b*dx/q) over the subset sums b of S, each b*dx reduced mod q
    # before the float division. b, dx < q <= MAX_SWEEP_MODULUS = 2**20,
    # the cap run_all_checks puts on q_max, so b*dx < 2**40 fits int64.
    sums = np.array(derive_biased_set(params).elements, dtype=np.int64)
    dx = np.arange(params.q, dtype=np.int64)
    residues = (sums[:, None] * dx[None, :]) % params.q
    return np.cos((2.0 * np.pi / params.q) * residues).mean(axis=0)


def check_inner_products(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """The single_qubit_inner_product, shallow_inner_product and
    resistance_equivalence results, from one pass over random parameter
    sets: each set is drawn once, its closed forms are evaluated once, and
    the sets of one size are simulated together, one batched run per
    circuit and per chunk of at most _BATCH_AMPLITUDES amplitudes (a set
    larger than that runs alone)."""
    worst = [0.0, 0.0, 0.0]
    pairs = sets = 0
    diverged = None
    # Drawn sets not yet simulated, by size, with their closed forms.
    pending: dict[int, list[tuple[ParamSet, np.ndarray, np.ndarray]]] = {}
    for q in q_values:
        span = np.arange(q)
        for index in range(sets_per_q):
            params = _random_params(np.random.default_rng([seed, q, index]), q, n_max)
            closed = _closed_inner_values(q, params.elements, span, False)
            closed_sum = _closed_inner_values(q, params.elements, span, True)
            if diverged is None and not (
                _gap(_subset_sum_means(params), closed_sum) <= IDENTITY_TOL
            ):
                diverged = (
                    f"sum-factor closed form diverged from the subset-sum mean "
                    f"for q={q}, S={params.elements}"
                )
            chunk = pending.setdefault(params.size, [])
            rows = q + sum(drawn[0].q for drawn in chunk)
            if chunk and rows << (params.size + 1) > _BATCH_AMPLITUDES:
                gaps = _stacked_gaps(chunk)
                worst = [max(w, g) for w, g in zip(worst, gaps)]
                chunk.clear()
            chunk.append((params, closed, closed_sum))
            pairs += q * q
            sets += 1
    for chunk in pending.values():
        gaps = _stacked_gaps(chunk)
        worst = [max(w, g) for w, g in zip(worst, gaps)]
    pair_detail = f"{pairs} residue pairs, all pairs per set"
    equivalence_detail = (
        f"{sets} parameter sets, sum-factor closed form equals the "
        f"subset-sum mean within {IDENTITY_TOL:g}"
    )
    if diverged is not None:
        worst[2], equivalence_detail = float("inf"), diverged
    return [
        _result("single_qubit_inner_product", worst[0], pair_detail),
        _result("shallow_inner_product", worst[1], pair_detail),
        _result("resistance_equivalence", worst[2], equivalence_detail),
    ]


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
    [1, MAX_PARAMS] or `seed` is not a non-negative integer."""
    q_max = _check_sweep_modulus(q_max, "q_max")
    trials = _check_int(trials, "trials", 1, None)
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    seed = _check_int(seed, "seed", 0, None)
    return [
        check_ucr_decomposition(n_max=n_max, vectors_per_n=trials, seed=seed),
        *check_inner_products(
            range(2, q_max + 1), sets_per_q=trials, n_max=n_max, seed=seed
        ),
    ]
