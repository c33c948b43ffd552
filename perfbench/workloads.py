"""The benchmark's workloads: how each draws its argv from the seed, and
how much work one request completes.

Every workload is a closed loop of one client sending `zqhash` argv back to
back. The argv of request i depends only on the workload name, the
benchmark seed and i, so two runs with one seed send identical requests.
Parameters are drawn in [1, q) (residues in [0, q) for `--b`), so the CLI
never has to reduce them and never warns.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

SEARCH_Q, SEARCH_N, SEARCH_TRIALS = 101, 4, 2000
VERIFY_Q_MAX, VERIFY_N_MAX, VERIFY_TRIALS = 32, 5, 5
RESIST_Q, RESIST_PARAMS = 131072, 6
BIAS_Q, BIAS_SIZE = 65537, 200


def verify_states_per_request(q_max: int, n_max: int, trials: int) -> int:
    """States `zqhash verify` builds gate by gate, by the loop structure of
    its four checks: the multiplexed-Ry check builds a multiplexed and a
    flat state for each of `trials` angle draws and each of the 2**(n+1)
    basis inputs per width n; the two inner-product checks build q states
    per parameter set; the equivalence check builds 2q per set, with
    `trials` sets per modulus q in [2, q_max]."""
    ucr = sum(trials * (1 << (n + 1)) * 2 for n in range(1, n_max + 1))
    per_modulus = sum(trials * q * 4 for q in range(2, q_max + 1))
    return ucr + per_modulus


@dataclass(frozen=True)
class Workload:
    """One named workload. `fixed_requests` is the exact length of a traced
    run, the minimum length of an untraced run, and the number of leading
    documents the output digest covers. `reference_units` is how many units
    of the reference computation each timing of it runs, a seventh to a tenth
    of a request."""

    name: str
    unit: str
    fixed_requests: int
    reference_units: int
    draw_argv: Callable[[random.Random], list[str]]
    units: Callable[[dict], int]

    def argvs(self, seed: int, stream: str = "") -> Iterator[list[str]]:
        """The requests of the run with `seed`; a named `stream` (the
        warm-up) draws its own requests from the same seed."""
        key = f"{self.name}/{seed}/{stream}" if stream else f"{self.name}/{seed}"
        rng = random.Random(key)
        while True:
            yield self.draw_argv(rng)


def _draw_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 32))


def _residues(rng: random.Random, low: int, q: int, count: int) -> str:
    return ",".join(str(rng.randrange(low, q)) for _ in range(count))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="search-small",
            unit="candidates",
            fixed_requests=40,
            reference_units=8,
            draw_argv=lambda rng: [
                "search", "--q", str(SEARCH_Q), "--n", str(SEARCH_N),
                "--trials", str(SEARCH_TRIALS), "--form", "single-qubit",
                "--seed", _draw_seed(rng),
            ],
            units=lambda document: document["outputs"]["trials_run"],
        ),
        Workload(
            name="verify-sim",
            unit="states",
            fixed_requests=5,
            reference_units=20,
            draw_argv=lambda rng: [
                "verify", "--q-max", str(VERIFY_Q_MAX), "--n-max",
                str(VERIFY_N_MAX), "--trials", str(VERIFY_TRIALS),
                "--seed", _draw_seed(rng),
            ],
            units=lambda document: verify_states_per_request(
                VERIFY_Q_MAX, VERIFY_N_MAX, VERIFY_TRIALS
            ),
        ),
        Workload(
            name="resist-wide",
            unit="residues",
            fixed_requests=10,
            reference_units=16,
            draw_argv=lambda rng: [
                "resist", "--q", str(RESIST_Q),
                "--s", _residues(rng, 1, RESIST_Q, RESIST_PARAMS),
                "--form", "shallow",
            ],
            units=lambda document: RESIST_Q - 1,
        ),
        Workload(
            name="bias-sweep",
            unit="residues",
            fixed_requests=6,
            reference_units=20,
            draw_argv=lambda rng: [
                "bias", "--q", str(BIAS_Q),
                "--b", _residues(rng, 0, BIAS_Q, BIAS_SIZE),
            ],
            units=lambda document: BIAS_Q - 1,
        ),
    )
}
