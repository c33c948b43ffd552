"""Parameter search for collision-resistant hash sets.

Random search draws candidate parameter sets with entries in [1, q) (zero
entries only waste a qubit) and keeps the one whose exhaustively certified
epsilon is smallest. Each trial has its own random stream, keyed by (seed,
trial index), so results are reproducible bit for bit regardless of how
trials are batched, and any single trial can be replayed alone with
`draw_candidate`.

The stream is the package's own numpy port of what
`np.random.default_rng([seed, trial]).integers(1, q, size=n)` draws:
SeedSequence mixing, PCG64 seeding and its XSL-RR output (O'Neill 2014)
on the 128-bit state held as numpy holds it, two uint64 halves (high,
low), and Lemire's bounded 32-bit draw (Lemire 2019). It computes a whole
block of trials at once: the SeedSequence mixing runs on stacked words,
and only the rows that reject one of their first words are sorted, while
every other row reads its values in place. `verify` draws its parameter
sets from the same port (`_draw_rows`), keyed by (seed, q, index), with a
size draw before the entries. NumPy does not promise that `Generator`
streams stay the same across versions (NEP 19); tests pin both uses to
`default_rng` at the installed numpy, and if a future numpy breaks that
pin, this stream is the contract.

Both searches draw candidates up to 4096 at a time, and
`analysis._closed_sweeps` hands back each cache-sized block's row maxima,
bit-identical to `collision_resistance` of each candidate. Once a best
epsilon is known, a block's rows are first bounded by their maxima over
the differences [1, w] alone, w = max(1, (q - 1) // 4), and a row whose
bound reaches the best epsilon before the block is dropped: its epsilon is
at least that best, so it is no strict improvement, and no target hit, as
the best stays above the target while the scan runs. Only the other rows
are swept in full, so the history, the trials run and the winner are those
of the full sweep of every row. The winning epsilon is then recomputed
from scratch by `collision_resistance`, so the result never depends on
bookkeeping done during the scan. Exhaustive search enumerates the whole
candidate space in lexicographic order and is the ground truth the random
variant can be checked against on small spaces.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .analysis import (
    ResistanceReport,
    _check_sweep_modulus,
    _closed_sweeps,
    _with_sum,
    collision_resistance,
)
from .hashing import MAX_PARAMS, HashForm, ParamSet, _check_int

MAX_SEARCH_EVALS = 10**10
MAX_EXHAUSTIVE_SPACE = 10**7

# Candidates of one draw: the stream port's cost per call is paid once per
# 4096 rows, not once per sweep block.
_DRAW_ROWS = 1 << 12

_UINT64_SPAN = (0, (1 << 64) - 1, "[0, 2**64)")

# numpy.random.SeedSequence hash constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF

# The PCG64 128-bit LCG multiplier as its (high, low) uint64 halves.
_LCG_MULT_HIGH = np.uint64(0x2360ED051FC65DA4)
_LCG_MULT_LOW = np.uint64(0x4385DF649FCCF645)


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
            ("q", _check_sweep_modulus(self.q)),
            ("n", _check_int(self.n, "parameter count", 1, MAX_PARAMS)),
            ("trials", _check_int(self.trials, "trial count", 1, None)),
            ("seed", _check_int(self.seed, "seed", *_UINT64_SPAN)),
        ):
            object.__setattr__(self, field, checked)
        epsilon = self.target_epsilon
        if epsilon is not None and (
            isinstance(epsilon, bool)
            or not (isinstance(epsilon, numbers.Real) and 0.0 < epsilon <= 1.0)
        ):
            raise ValueError(f"target epsilon must be in (0, 1], got {epsilon!r}")
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


def _seed_words(keys: Sequence[int | np.ndarray], index: np.ndarray) -> np.ndarray:
    # SeedSequence([*keys, index]).generate_state(4, np.uint64) of each
    # row, as a (4, rows) uint64 array; each hashmix of a word by k
    # consecutive constants is one (k, rows) op. A key is a Python int, as
    # its 32-bit words low first, or a per-row array below 2**32, as one
    # word. The uint64 index enters as its low word, then its high word
    # where that is nonzero. Inside the pool a zero high word mixes exactly
    # like numpy's shorter entropy, since a pool slot past the entropy
    # hashes a 0 word. Past the pool, where long seeds push it, rows
    # without it skip the last mixing step.
    words: list = []
    for key in keys:
        if isinstance(key, np.ndarray):
            words.append(key)
        else:
            words += [key >> k & _MASK32 for k in range(0, key.bit_length() or 1, 32)]
    words += [index & np.uint64(_MASK32), index >> np.uint64(32)]
    entropy = np.zeros((max(_POOL, len(words)), index.size), np.uint32)
    for row, word in zip(entropy, words):
        row[:] = word
    high = entropy[len(words) - 1]
    const = _INIT_A

    def hashmix(value: np.ndarray, count: int, mult: int = _MULT_A) -> np.ndarray:
        nonlocal const
        consts = [const * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)]
        const = consts[-1]
        column = np.array(consts, np.uint32)[:, None]
        value = value ^ column[:-1]
        value *= column[1:]
        value ^= value >> np.uint32(16)
        return value

    def mix(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        mixed = np.uint32(_MIX_MULT_L) * dst
        mixed -= np.uint32(_MIX_MULT_R) * src
        mixed ^= mixed >> np.uint32(16)
        return mixed

    pool = hashmix(entropy[:_POOL], _POOL)
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], _POOL - 1))
    for position in range(_POOL, len(entropy)):
        mixed = mix(pool, hashmix(entropy[position], _POOL))
        pool = mixed if position < len(entropy) - 1 else np.where(high, mixed, pool)
    const = _INIT_B
    state = hashmix(np.tile(pool, (2, 1)), 2 * _POOL, _MULT_B)
    # numpy pairs the eight uint32 words, low first, into four uint64 words.
    seeds = state[1::2].astype(np.uint64)
    seeds <<= np.uint64(32)
    seeds |= state[0::2]
    return seeds


def _lcg_step(
    high: np.ndarray, low: np.ndarray, inc_high: np.ndarray, inc_low: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # state * multiplier + inc mod 2**128 on the (high, low) uint64 halves.
    # uint64 products wrap mod 2**64, so only carry_out, the high half of
    # low * multiplier-low, needs 32-bit pieces; no sum of pieces overflows,
    # since (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64. The low sum carries
    # into the high half where it wrapped, that is, fell below inc_low.
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    low0, low1 = low & mask, low >> shift
    mult0, mult1 = _LCG_MULT_LOW & mask, _LCG_MULT_LOW >> shift
    middle = low1 * mult0 + ((low0 * mult0) >> shift)
    cross = low0 * mult1 + (middle & mask)
    carry_out = low1 * mult1 + (middle >> shift) + (cross >> shift)
    new_low = low * _LCG_MULT_LOW + inc_low
    new_high = carry_out + high * _LCG_MULT_LOW + low * _LCG_MULT_HIGH + inc_high
    return new_high + (new_low < inc_low).astype(np.uint64), new_low


def _words(
    keys: Sequence[int | np.ndarray], index: np.ndarray
) -> Iterator[np.ndarray]:
    # The 32-bit words PCG64 seeded by SeedSequence([*keys, index]) gives
    # each row, one column at a time: each 64-bit output gives its low
    # half first. numpy's bounded draws on 32-bit spans read this one
    # stream, and one call continues where the last one stopped. Seeding:
    # the state (high, low) is inc plus the first two seed words, where inc
    # is the last two shifted up with the low bit set, then one step.
    seed_high, seed_low, stream_high, stream_low = _seed_words(keys, index)
    inc_high = (stream_high << np.uint64(1)) | (stream_low >> np.uint64(63))
    inc_low = (stream_low << np.uint64(1)) | np.uint64(1)
    low = inc_low + seed_low
    high = inc_high + seed_high + (low < inc_low).astype(np.uint64)
    high, low = _lcg_step(high, low, inc_high, inc_low)
    while True:
        high, low = _lcg_step(high, low, inc_high, inc_low)
        # XSL-RR output (O'Neill 2014): the two halves xored, rotated
        # right by the state's top six bits.
        folded = high ^ low
        rot = high >> np.uint64(58)
        output = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
        yield output & np.uint64(_MASK32)
        yield output >> np.uint64(32)


def _lemire(
    words: np.ndarray, span: np.uint64 | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Lemire's bounded draw on 32-bit words: m = word * span gives the
    # value m >> 32, accepted where the low half of m is at least
    # 2**32 mod span, else redrawn from the next word.
    scaled = words * span
    accepted = (scaled & np.uint64(_MASK32)) >= np.uint64(1 << 32) % span
    return scaled >> np.uint64(32), accepted


def _draw_rows(
    keys: Sequence[int | np.ndarray],
    index: np.ndarray,
    span: np.uint64 | np.ndarray,
    n: int,
    sized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of default_rng([*keys, index[i]]) for each row i: with
    `sized`, first its size n_i = integers(1, n + 1), else n_i = n; then
    integers(0, span, size=n_i), with a span above 1, one for all rows or
    one per row. Returns (sizes, values): int64 arrays of shape (rows,)
    and (rows, n), whose row i holds its n_i values first."""
    draw_size = int(sized and n > 1)  # numpy draws nothing for a one-value range
    read = n + draw_size
    stream = _words(keys, index)
    words = np.stack([next(stream) for _ in range(read + read % 2)])
    values, accepted = _lemire(words, span)
    sizes = np.full(index.size, n)
    if draw_size:
        sizes, accepted[0] = _lemire(words[0], np.uint64(n))
        sizes = sizes.astype(np.int64) + 1
    # A row that accepts its first size word and the n words after it takes
    # its values in place. Any other row takes its size from its first
    # accepted size word and its values from the next accepted ones, drawn
    # until it has them: a stable sort of its accepted words first.
    out = values[draw_size:read].T.astype(np.int64, order="C")
    redo = np.flatnonzero(~accepted[:read].all(axis=0))
    span = span[redo] if np.ndim(span) else span
    words = words[:, redo]
    while redo.size:
        values, accepted = _lemire(words, span)
        if draw_size:
            drawn, size_accepted = _lemire(words, np.uint64(n))
            first = np.argmax(size_accepted, axis=0)
            sizes[redo] = drawn[first, np.arange(redo.size)] + 1
            accepted &= (np.arange(len(words))[:, None] > first) & size_accepted.any(0)
        if (accepted.sum(axis=0) >= sizes[redo]).all():
            order = np.argsort(~accepted, axis=0, kind="stable")
            out[redo] = np.take_along_axis(values, order, axis=0)[:n].T
            break
        words = np.vstack([words, next(stream)[redo], next(stream)[redo]])
    return sizes, out


def _draw_block(seed: int, q: int, n: int, start: int, stop: int) -> np.ndarray:
    """Candidates of trials [start, stop) as a (stop - start, n) int64
    array: row i equals default_rng([seed, start + i]).integers(1, q, n).
    At q = 2 numpy returns its one value without drawing; Lemire with span
    1 accepts every word and gives 0, so the draw below returns it too,
    and the words it reads belong to that trial's stream alone."""
    trials = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
    return _draw_rows((seed,), trials, np.uint64(q - 1), n)[1] + 1


def draw_candidate(seed: int, trial: int, q: int, n: int) -> tuple[int, ...]:
    """The candidate examined at a given trial index; entries in [1, q).
    One row of the search's block stream, so any trial replays alone."""
    seed = _check_int(seed, "seed", *_UINT64_SPAN)
    trial = _check_int(trial, "trial index", *_UINT64_SPAN)
    q = _check_sweep_modulus(q)
    n = _check_int(n, "parameter count", 1, MAX_PARAMS)
    return tuple(int(v) for v in _draw_block(seed, q, n, trial, trial + 1)[0])


def _scan(
    q: int,
    count: int,
    rows_at: Callable[[int, int], np.ndarray],
    form: HashForm | str,
    include_sum_qubit: bool,
    target_epsilon: float | None = None,
) -> SearchResult:
    # Certify candidates 0..count-1, keep the first with the smallest
    # epsilon, stop at the first at or below `target_epsilon`, and
    # re-certify the winner from scratch. Candidates are drawn in blocks of
    # _DRAW_ROWS and swept by `_closed_sweeps`, so the table, the square
    # and the buffers are made once per scan. With a target the scan may
    # stop at any candidate, so draws start at one row and double up to
    # _DRAW_ROWS: the draws past the stop stay below the draws before it,
    # and the sweeps past it below one sweep block.
    best_row: tuple[int, ...] = ()
    best_epsilon = math.inf
    history: list[tuple[int, float]] = []
    target = -math.inf if target_epsilon is None else target_epsilon
    with_sum = _with_sum(form, include_sum_qubit)

    def draws() -> Iterator[np.ndarray]:
        start, size = 0, _DRAW_ROWS if target_epsilon is None else 1
        while start < count:
            yield rows_at(start, min(start + size, count))
            start += size
            size = min(2 * size, _DRAW_ROWS)

    window = max(1, (q - 1) // 4)
    for start, block, maxima in _closed_sweeps(q, with_sum, draws(), count, window):
        kept = np.arange(len(block))
        if best_epsilon < math.inf:
            # The window's rule (module docstring): bound by the best
            # before the block, not one found inside it, which would drop
            # the block's earlier improvements from the history.
            kept = kept[maxima(block, window) < best_epsilon]
        epsilons = maxima(block[kept], q - 1)
        hits = np.flatnonzero(epsilons <= target)
        stop = int(hits[0]) + 1 if hits.size else epsilons.size
        # Strict improvements: below the best of every earlier candidate.
        before = np.minimum.accumulate(np.append(best_epsilon, epsilons[: stop - 1]))
        improved = np.flatnonzero(epsilons[:stop] < before)
        history += [(start + int(kept[i]), float(epsilons[i])) for i in improved]
        if improved.size:
            best_row = tuple(int(v) for v in block[kept[improved[-1]]])
            best_epsilon = history[-1][1]
        trials_run = start + (int(kept[stop - 1]) + 1 if hits.size else len(block))
        if hits.size:
            break
    params = ParamSet(q, best_row)
    certified = collision_resistance(params, form, include_sum_qubit)
    if certified.epsilon != best_epsilon:
        raise RuntimeError(
            "re-certification disagreed with the scan; this is a bug"
        )
    return SearchResult(params, certified, trials_run, history)


def random_search(
    config: SearchConfig, form: HashForm | str, include_sum_qubit: bool = False
) -> SearchResult:
    """Scan `config.trials` random candidates and return the best. The
    returned report is re-certified by a fresh exhaustive sweep."""
    return _scan(
        config.q,
        config.trials,
        partial(_draw_block, config.seed, config.q, config.n),
        form,
        include_sum_qubit,
        config.target_epsilon,
    )


def _lexicographic(q: int, n: int, start: int, stop: int) -> np.ndarray:
    # Candidates [start, stop) of [1, q)**n in lexicographic order: the
    # mixed-radix digits of each linear index, most significant first.
    digits = np.unravel_index(np.arange(start, stop), (q - 1,) * n)
    return np.stack(digits, axis=1) + 1


def exhaustive_search(
    q: int,
    n: int,
    form: HashForm | str,
    include_sum_qubit: bool = False,
) -> SearchResult:
    """Certify every candidate in [1, q)**n, lexicographically, and return
    the first one attaining the minimal epsilon."""
    q = _check_sweep_modulus(q)
    n = _check_int(n, "parameter count", 1, MAX_PARAMS)
    space = (q - 1) ** n
    if space > MAX_EXHAUSTIVE_SPACE:
        raise ValueError(
            f"candidate space {space} exceeds the {MAX_EXHAUSTIVE_SPACE} cap"
        )
    return _scan(q, space, partial(_lexicographic, q, n), form, include_sum_qubit)
