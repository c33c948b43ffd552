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
its single-qubit, shallow and sum-qubit Gram matrices are each built once.

`gate_angle_scale` is a fault-injection hook: it multiplies the angles of
one of the two routes, so anything but 1.0 must make the checks fail. It
exists to prove the checks can fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import _closed_inner_values
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
    scale_angles,
    zero_state,
)

DEFAULT_SEED = 0xC0FFEE
DEVIATION_TOL = 1e-10
# Closed form against closed form, both in float64: measured within 9e-16
# over q = 2..299 and up to 6 parameters.
IDENTITY_TOL = 1e-12

# Amplitudes per batch of basis inputs in the multiplexed-Ry check, so its
# memory stays bounded at any width.
_UCR_BATCH_AMPLITUDES = 1 << 16


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
    gate_angle_scale: float = 1.0,
) -> CheckResult:
    """Multiplexed Ry with branch angles base + sum of per-bit parts versus
    the flat circuit of one Ry(base) and n controlled Ry(part_k), compared
    componentwise on every basis input. Basis inputs run as batches."""
    worst = 0.0
    cases = 0
    for n in range(1, n_max + 1):
        rng = np.random.default_rng([seed, n])
        dim = 1 << (n + 1)
        rows = max(1, _UCR_BATCH_AMPLITUDES // dim)
        for _ in range(vectors_per_n):
            base = float(rng.uniform(0.0, 4.0 * np.pi))
            parts = rng.uniform(0.0, 4.0 * np.pi, size=n)
            thetas = [
                base
                + sum(parts[k] for k in range(n) if (j >> (n - 1 - k)) & 1)
                for j in range(1 << n)
            ]
            for start in range(0, dim, rows):
                # Basis inputs start, start + 1, ... as rows.
                basis = np.eye(min(rows, dim - start), dim, k=start)
                multiplexed = StateVector(n + 1, basis.copy())
                apply_ucr(multiplexed, range(n), n, thetas)
                flat = StateVector(n + 1, basis)
                apply_ry(flat, n, base * gate_angle_scale)
                for k in range(n):
                    apply_controlled_ry(
                        flat, [(k, 1)], n, float(parts[k]) * gate_angle_scale
                    )
                worst = max(worst, _gap(multiplexed.amplitudes, flat.amplitudes))
                cases += basis.shape[0]
    return _result(
        "ucr_decomposition",
        worst,
        f"{cases} basis inputs across widths up to {n_max + 1} qubits",
    )


def _random_params(rng: np.random.Generator, q: int, n_max: int) -> ParamSet:
    n = int(rng.integers(1, n_max + 1))
    return ParamSet(q, tuple(int(v) for v in rng.integers(0, q, size=n)))


def _built_gram(
    q: int,
    num_qubits: int,
    circuit_for_x: Callable[[np.ndarray], Sequence[GateOp]],
    gate_angle_scale: float,
) -> np.ndarray:
    # Gram matrix of the states of x = 0..q-1, built as one batched run.
    ops = scale_angles(circuit_for_x(np.arange(q)), gate_angle_scale)
    mat = run_circuit(zero_state(num_qubits, batch=q), ops).amplitudes
    return mat @ mat.T


def _subset_sum_means(params: ParamSet) -> np.ndarray:
    # The standard form's inner product at every dx in [0, q): the mean of
    # cos(2*pi*b*dx/q) over the subset sums b of S, each b*dx reduced mod q
    # before the float division. b, dx < q, so b*dx fits int64 for every q
    # whose q x q Gram matrix fits in memory.
    sums = np.array(derive_biased_set(params).elements, dtype=np.int64)
    dx = np.arange(params.q, dtype=np.int64)
    residues = (sums[:, None] * dx[None, :]) % params.q
    return np.cos((2.0 * np.pi / params.q) * residues).mean(axis=0)


def check_inner_products(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    gate_angle_scale: float = 1.0,
) -> list[CheckResult]:
    """The single_qubit_inner_product, shallow_inner_product and
    resistance_equivalence results, from one pass over random parameter
    sets: each set is drawn once and its single-qubit, shallow and
    sum-qubit Gram matrices are built once each. `gate_angle_scale` scales
    the single-qubit and shallow builds, not the sum-qubit one."""
    worst = [0.0, 0.0, 0.0]
    pairs = sets = 0
    diverged = None
    for q in q_values:
        span = np.arange(q)
        dx = np.abs(span[:, None] - span[None, :])
        for index in range(sets_per_q):
            params = _random_params(np.random.default_rng([seed, q, index]), q, n_max)
            n = params.size
            single = _built_gram(
                q, n, partial(single_qubit_hash_circuit, params), gate_angle_scale
            )
            shallow = _built_gram(
                q, n + 1, partial(shallow_hash_circuit, params), gate_angle_scale
            )
            with_sum = _built_gram(
                q,
                n + 1,
                partial(single_qubit_hash_circuit, params, include_sum_qubit=True),
                1.0,
            )
            closed = _closed_inner_values(q, params.elements, span, False)
            closed_sum = _closed_inner_values(q, params.elements, span, True)
            gaps = (
                _gap(single, closed[dx]),
                _gap(shallow, closed_sum[dx]),
                _gap(np.abs(shallow), np.abs(with_sum)),
            )
            worst = [max(w, g) for w, g in zip(worst, gaps)]
            if diverged is None and not (
                _gap(_subset_sum_means(params), closed_sum) <= IDENTITY_TOL
            ):
                diverged = (
                    f"sum-factor closed form diverged from the subset-sum mean "
                    f"for q={q}, S={params.elements}"
                )
            pairs += q * q
            sets += 1
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
    gate_angle_scale: float = 1.0,
) -> list[CheckResult]:
    """Run the four checks over q in [2, q_max]. `trials` sets the number
    of random parameter sets per modulus and angle draws per width. Raises
    ValueError, before any work, when a check would have nothing to check,
    `n_max` is outside [1, MAX_PARAMS] or `seed` is not a non-negative
    integer."""
    q_max = _check_int(q_max, "q_max")
    trials = _check_int(trials, "trials", 1, None)
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    seed = _check_int(seed, "seed", 0, None)
    return [
        check_ucr_decomposition(
            n_max=n_max, vectors_per_n=trials, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
        *check_inner_products(
            range(2, q_max + 1), sets_per_q=trials, n_max=n_max, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
    ]
