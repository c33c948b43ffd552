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
  - resistance_equivalence: the shallow and sum-qubit constructions agree
    exactly in closed form and within simulation tolerance on states.

`gate_angle_scale` is a fault-injection hook: it multiplies the angles of
one of the two routes, so anything but 1.0 must make the checks fail. It
exists to prove the checks can fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import (
    _closed_inner_values,
    closed_inner_shallow,
    closed_inner_single,
    collision_resistance,
)
from .hashing import (
    MAX_PARAMS,
    HashForm,
    ParamSet,
    _check_int,
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
                worst = max(
                    worst,
                    float(
                        np.max(np.abs(multiplexed.amplitudes - flat.amplitudes))
                    ),
                )
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


def _closed_gram(params: ParamSet, with_sum: bool) -> np.ndarray:
    per_dx = _closed_inner_values(
        params.q, params.elements, np.arange(params.q), with_sum
    )
    span = np.arange(params.q)
    return per_dx[np.abs(span[:, None] - span[None, :])]


def _inner_product_check(
    name: str,
    q_values: Iterable[int],
    sets_per_q: int,
    n_max: int,
    seed: int,
    gate_angle_scale: float,
    with_sum: bool,
) -> CheckResult:
    worst = 0.0
    pairs = 0
    for q in q_values:
        for index in range(sets_per_q):
            rng = np.random.default_rng([seed, q, index])
            params = _random_params(rng, q, n_max)
            if with_sum:
                width = params.size + 1
                circuit = partial(shallow_hash_circuit, params)
            else:
                width = params.size
                circuit = partial(single_qubit_hash_circuit, params)
            built = _built_gram(q, width, circuit, gate_angle_scale)
            expected = _closed_gram(params, with_sum)
            worst = max(worst, float(np.max(np.abs(built - expected))))
            pairs += q * q
    return _result(name, worst, f"{pairs} residue pairs, all pairs per set")


def check_single_qubit_inner_product(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    gate_angle_scale: float = 1.0,
) -> CheckResult:
    """Gate-built product-state hashes versus the cosine-product closed
    form, over every residue pair for random parameter sets."""
    return _inner_product_check(
        "single_qubit_inner_product",
        q_values,
        sets_per_q,
        n_max,
        seed,
        gate_angle_scale,
        with_sum=False,
    )


def check_shallow_inner_product(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    gate_angle_scale: float = 1.0,
) -> CheckResult:
    """Gate-built shallow hashes versus the closed form with the sum
    factor, over every residue pair for random parameter sets."""
    return _inner_product_check(
        "shallow_inner_product",
        q_values,
        sets_per_q,
        n_max,
        seed,
        gate_angle_scale,
        with_sum=True,
    )


def check_resistance_equivalence(
    q_values: Iterable[int],
    sets_per_q: int = 20,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    gate_angle_scale: float = 1.0,
) -> CheckResult:
    """The shallow form and the single-qubit form with the sum qubit must
    be interchangeable: identical closed-form resistance reports, equal
    scalar closed values, and matching simulated |inner| for all pairs."""
    worst = 0.0
    sets = 0
    for q in q_values:
        for index in range(sets_per_q):
            rng = np.random.default_rng([seed, q, index])
            params = _random_params(rng, q, n_max)
            shallow_report = collision_resistance(params, HashForm.SHALLOW)
            sum_report = collision_resistance(
                params, HashForm.SINGLE_QUBIT, include_sum_qubit=True
            )
            if (
                shallow_report.epsilon != sum_report.epsilon
                or shallow_report.worst_x != sum_report.worst_x
                or not np.array_equal(shallow_report.values, sum_report.values)
            ):
                return CheckResult(
                    "resistance_equivalence",
                    False,
                    float("inf"),
                    f"closed-form reports diverged for q={q}, S={params.elements}",
                )
            for _ in range(4):
                x1 = int(rng.integers(0, q))
                x2 = int(rng.integers(0, q))
                if closed_inner_shallow(params, x1, x2) != closed_inner_single(
                    params, x1, x2, include_sum_qubit=True
                ):
                    return CheckResult(
                        "resistance_equivalence",
                        False,
                        float("inf"),
                        f"scalar closed forms diverged for q={q}, "
                        f"S={params.elements}, x1={x1}, x2={x2}",
                    )
            width = params.size + 1
            shallow_gram = _built_gram(
                q, width, partial(shallow_hash_circuit, params), gate_angle_scale
            )
            sum_gram = _built_gram(
                q,
                width,
                partial(single_qubit_hash_circuit, params, include_sum_qubit=True),
                1.0,
            )
            worst = max(
                worst, float(np.max(np.abs(np.abs(shallow_gram) - np.abs(sum_gram))))
            )
            sets += 1
    return _result(
        "resistance_equivalence",
        worst,
        f"{sets} parameter sets, closed reports bit-identical",
    )


def run_all_checks(
    q_max: int = 64,
    n_max: int = 5,
    seed: int = DEFAULT_SEED,
    trials: int = 5,
    gate_angle_scale: float = 1.0,
) -> list[CheckResult]:
    """Run the four checks over q in [2, q_max]. `trials` sets the number
    of random parameter sets per modulus and angle draws per width. Raises
    ValueError, before any work, when a check would have nothing to check
    or `n_max` is outside [1, MAX_PARAMS]."""
    q_max = _check_int(q_max, "q_max")
    trials = _check_int(trials, "trials", 1, None)
    n_max = _check_int(n_max, "n_max", 1, MAX_PARAMS)
    q_values = range(2, q_max + 1)
    return [
        check_ucr_decomposition(
            n_max=n_max, vectors_per_n=trials, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
        check_single_qubit_inner_product(
            q_values, sets_per_q=trials, n_max=n_max, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
        check_shallow_inner_product(
            q_values, sets_per_q=trials, n_max=n_max, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
        check_resistance_equivalence(
            q_values, sets_per_q=trials, n_max=n_max, seed=seed,
            gate_angle_scale=gate_angle_scale,
        ),
    ]
