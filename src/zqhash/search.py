"""Parameter search for collision-resistant hash sets.

Random search draws candidate parameter sets with entries in [1, q) (zero
entries only waste a qubit) and keeps the one whose exhaustively certified
epsilon is smallest. Each trial seeds its own generator from (seed, trial
index), so results are reproducible bit for bit regardless of how trials
might be batched or reordered, and any single trial can be replayed alone.

The winning epsilon is recomputed from scratch before returning, so the
result never depends on bookkeeping done during the scan. Exhaustive
search enumerates the whole candidate space in lexicographic order and is
the ground truth the random variant can be checked against on small spaces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis import ResistanceReport, collision_resistance
from .hashing import MAX_PARAMS, HashForm, ParamSet, _check_int

MAX_SEARCH_EVALS = 10**10
MAX_EXHAUSTIVE_SPACE = 10**7


@dataclass(frozen=True)
class SearchConfig:
    """Random-search settings. `target_epsilon`, when set, stops the scan
    early once a certified epsilon at or below it is found."""

    q: int
    n: int
    trials: int
    seed: int
    target_epsilon: float | None = None

    def __post_init__(self) -> None:
        for field, checked in (
            ("q", _check_int(self.q, "modulus")),
            ("n", _check_int(self.n, "parameter count", 1, MAX_PARAMS)),
            ("trials", _check_int(self.trials, "trial count", 1, None)),
            ("seed", _check_int(self.seed, "seed", 0, (1 << 64) - 1, "[0, 2**64)")),
        ):
            object.__setattr__(self, field, checked)
        if self.target_epsilon is not None and not 0.0 < self.target_epsilon <= 1.0:
            raise ValueError(
                f"target epsilon must be in (0, 1], got {self.target_epsilon}"
            )
        if self.trials * self.q * self.n > MAX_SEARCH_EVALS:
            raise ValueError(
                f"trials * q * n exceeds the {MAX_SEARCH_EVALS:.0e} budget"
            )


@dataclass
class SearchResult:
    """Best certified set found, with the improvement history. `history`
    holds (trial index, epsilon) for each strict improvement, in order."""

    best_set: ParamSet
    report: ResistanceReport
    trials_run: int
    history: list[tuple[int, float]]


def draw_candidate(seed: int, trial: int, q: int, n: int) -> tuple[int, ...]:
    """The candidate examined at a given trial index; entries in [1, q)."""
    rng = np.random.default_rng([seed, trial])
    return tuple(int(v) for v in rng.integers(1, q, size=n))


def _certify(
    elements: tuple[int, ...],
    q: int,
    form: HashForm,
    include_sum_qubit: bool,
) -> tuple[ParamSet, ResistanceReport]:
    params = ParamSet(q, elements)
    return params, collision_resistance(params, form, include_sum_qubit)


def _scan(
    candidates: Iterable[tuple[int, ...]],
    q: int,
    form: HashForm,
    include_sum_qubit: bool,
    target_epsilon: float | None = None,
) -> SearchResult:
    # Certify candidates in order, keep the first with the smallest epsilon,
    # stop early at `target_epsilon`, and re-certify the winner from scratch.
    best_elements: tuple[int, ...] | None = None
    best_epsilon = float("inf")
    history: list[tuple[int, float]] = []
    count = 0
    for index, elements in enumerate(candidates):
        count = index + 1
        _, report = _certify(elements, q, form, include_sum_qubit)
        if report.epsilon < best_epsilon:
            best_elements = elements
            best_epsilon = report.epsilon
            history.append((index, report.epsilon))
        if target_epsilon is not None and best_epsilon <= target_epsilon:
            break
    assert best_elements is not None
    params, certified = _certify(best_elements, q, form, include_sum_qubit)
    if certified.epsilon != best_epsilon:
        raise RuntimeError(
            "re-certification disagreed with the scan; this is a bug"
        )
    return SearchResult(params, certified, count, history)


def random_search(
    config: SearchConfig, form: HashForm, include_sum_qubit: bool = False
) -> SearchResult:
    """Scan `config.trials` random candidates and return the best. The
    returned report is re-certified by a fresh exhaustive sweep."""
    candidates = (
        draw_candidate(config.seed, trial, config.q, config.n)
        for trial in range(config.trials)
    )
    return _scan(
        candidates, config.q, form, include_sum_qubit, config.target_epsilon
    )


def exhaustive_search(
    q: int,
    n: int,
    form: HashForm,
    include_sum_qubit: bool = False,
) -> SearchResult:
    """Certify every candidate in [1, q)**n, lexicographically, and return
    the first one attaining the minimal epsilon."""
    q = _check_int(q, "modulus")
    n = _check_int(n, "parameter count", 1, MAX_PARAMS)
    space = (q - 1) ** n
    if space > MAX_EXHAUSTIVE_SPACE:
        raise ValueError(
            f"candidate space {space} exceeds the {MAX_EXHAUSTIVE_SPACE} cap"
        )
    candidates = itertools.product(range(1, q), repeat=n)
    return _scan(candidates, q, form, include_sum_qubit)
