import contextlib
import itertools
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqhash import analysis, search
from zqhash.analysis import MAX_SWEEP_MODULUS, collision_resistance
from zqhash.hashing import MAX_MODULUS, MAX_PARAMS, HashForm, ParamSet
from zqhash.search import (
    SearchConfig,
    SearchResult,
    _draw_block,
    _lexicographic,
    draw_candidate,
    exhaustive_search,
    random_search,
)

SWEEP_CAP = "exhaustive sweeps are capped there"


def scan_oracle(candidates, q, form, include_sum_qubit, target_epsilon=None):
    # The per-candidate scan the block scan replaced: one
    # `collision_resistance` call per candidate, in order, keeping the first
    # strict improvement and stopping at `target_epsilon`.
    best_elements = None
    best_epsilon = float("inf")
    history = []
    count = 0
    for index, elements in enumerate(candidates):
        count = index + 1
        report = collision_resistance(ParamSet(q, elements), form, include_sum_qubit)
        if report.epsilon < best_epsilon:
            best_elements = elements
            best_epsilon = report.epsilon
            history.append((index, report.epsilon))
        if target_epsilon is not None and best_epsilon <= target_epsilon:
            break
    params = ParamSet(q, best_elements)
    report = collision_resistance(params, form, include_sum_qubit)
    return SearchResult(params, report, count, history)


def assert_same_result(result, expected):
    assert result.best_set == expected.best_set
    assert result.history == expected.history
    assert result.trials_run == expected.trials_run
    assert result.report.epsilon == expected.report.epsilon
    assert result.report.worst_x == expected.report.worst_x
    assert np.array_equal(result.report.values, expected.report.values)


def default_rng_draw(seed, trial, q, n):
    return np.random.default_rng([seed, trial]).integers(1, q, size=n).tolist()


def rejected_words(entropy, span, count):
    # Whether Lemire's draw on `span` rejects each of the first `count`
    # 32-bit words of default_rng(entropy)'s stream, read from numpy's own
    # PCG64: the low half of word * span falls below 2**32 mod span.
    raw = np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(count)
    words = [half for x in raw.tolist() for half in (x & 0xFFFFFFFF, x >> 32)]
    return [w * span % 2**32 < 2**32 % span for w in words[:count]]


# Sweep block sizes in rows; None keeps the default of 2**14 cells per
# block. Draw block sizes in rows; None keeps the default of 4096.
BLOCK_ROWS = st.sampled_from([1, 2, 7, None])
DRAW_ROWS = st.sampled_from([1, 2, 3, 7, 64, None])


def block_rows(rows):
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(analysis, "_block_rows", lambda q: rows)


def draw_rows(rows):
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(search, "_DRAW_ROWS", rows)


class TestSearchConfig:
    def test_accepts_full_target_range(self):
        SearchConfig(q=5, n=1, trials=1, seed=0, target_epsilon=1.0)
        SearchConfig(q=5, n=1, trials=1, seed=0, target_epsilon=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 1},
            {"n": 0},
            {"n": 21},
            {"trials": 0},
            {"seed": -1},
            {"seed": 1 << 64},
            {"target_epsilon": 0.0},
            {"target_epsilon": 1.5},
            {"target_epsilon": "0.5"},
            {"q": 7.5},
            {"q": "7"},
            {"q": MAX_MODULUS + 1},
            {"n": 1.0},
            {"trials": 2.5},
            {"seed": 0.5},
            # operator.index(True) is 1: n=True used to search with one
            # parameter, and target_epsilon=True was stored as True.
            {"n": True},
            {"n": np.True_},
            {"trials": True},
            {"seed": False},
            {"target_epsilon": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = {"q": 5, "n": 1, "trials": 1, "seed": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SearchConfig(**base)

    def test_rejects_oversized_budget(self):
        with pytest.raises(ValueError):
            SearchConfig(q=1 << 20, n=20, trials=10**6, seed=0)

    def test_sweep_cap_checked_before_any_draw(self):
        with mock.patch.object(search, "_draw_block") as draw:
            with pytest.raises(ValueError, match=SWEEP_CAP):
                SearchConfig(q=MAX_SWEEP_MODULUS + 1, n=1, trials=1, seed=0)
        draw.assert_not_called()
        SearchConfig(q=MAX_SWEEP_MODULUS, n=1, trials=1, seed=0)

    def test_seed_boundary(self):
        SearchConfig(q=5, n=1, trials=1, seed=(1 << 64) - 1)

    def test_numpy_integers_stored_as_int(self):
        config = SearchConfig(q=np.int64(7), n=np.int32(2), trials=np.uint8(3), seed=0)
        assert [type(v) for v in (config.q, config.n, config.trials)] == [int] * 3


class TestDrawCandidate:
    def test_reproducible(self):
        assert draw_candidate(9, 4, 101, 3) == draw_candidate(9, 4, 101, 3)

    def test_entries_exclude_zero(self):
        for trial in range(200):
            for value in draw_candidate(1, trial, 7, 4):
                assert 1 <= value < 7

    def test_trials_draw_independently(self):
        draws = {draw_candidate(5, trial, 997, 2) for trial in range(50)}
        assert len(draws) > 40

    @pytest.mark.parametrize(
        "args, match",
        [
            ((0, 0, 2.5, 2), "modulus must be an integer"),
            ((0, 0, 7, 0), "parameter count must be in"),
            ((0, 0, 7, MAX_PARAMS + 1), "parameter count must be in"),
            ((0, -1, 7, 2), "trial index must be in"),
            ((0, 1 << 64, 7, 2), "trial index must be in"),
            ((0, 1.0, 7, 2), "trial index must be an integer"),
            ((-1, 0, 7, 2), "seed must be in"),
            ((1 << 64, 0, 7, 2), "seed must be in"),
            ((0, 0, 1, 2), SWEEP_CAP),
            ((0, 0, MAX_SWEEP_MODULUS + 1, 2), SWEEP_CAP),
        ],
    )
    def test_rejects_bad_inputs(self, args, match):
        with pytest.raises(ValueError, match=match):
            draw_candidate(*args)


class TestBlockStream:
    # The block stream is pinned to numpy's `default_rng` at the installed
    # numpy. NumPy does not promise that Generator streams stay the same
    # across versions (NEP 19): if a future numpy breaks this pin, the
    # package's own stream is the contract, and search results stay as
    # they were.
    @given(
        seed=st.integers(0, (1 << 64) - 1),
        start=st.one_of(
            st.integers(0, 1 << 16),
            st.integers((1 << 32) - 4, (1 << 32) + 4),
            st.integers(0, (1 << 64) - 4),
        ),
        rows=st.integers(1, 3),
        q=st.one_of(st.integers(2, 300), st.integers(2, MAX_SWEEP_MODULUS)),
        n=st.integers(1, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_default_rng(self, seed, start, rows, q, n):
        block = _draw_block(seed, q, n, start, start + rows)
        assert block.shape == (rows, n)
        for i, row in enumerate(block.tolist()):
            assert row == default_rng_draw(seed, start + i, q, n)

    def test_lemire_rejection(self):
        # This trial rejects its fourth 32-bit word: the low half of
        # word * (q - 1) falls below 2**32 mod (q - 1), so the last value
        # comes from the fifth word.
        expected = [386033, 1038471, 697681, 993959]
        assert default_rng_draw(0, 1156, 1048323, 4) == expected
        assert list(draw_candidate(0, 1156, 1048323, 4)) == expected

    def test_rejecting_row_in_a_block(self):
        # The same trial as row 6 of a ten-row block: it alone is sorted,
        # its neighbours read their first four words in place.
        q, rows = 1048323, range(1150, 1160)
        block = _draw_block(0, q, 4, rows[0], rows[-1] + 1)
        assert [any(rejected_words([0, t], q - 1, 4)) for t in rows] == [
            t == 1156 for t in rows
        ]
        assert block.tolist() == [default_rng_draw(0, t, q, 4) for t in rows]

    def test_rejecting_rows_in_a_whole_draw(self):
        # A whole 4,096-row draw in which eight rows, trial 1156 first,
        # reject one of their first four words.
        q, rows = 1048323, range(1 << 12)
        rejecting = [t for t in rows if any(rejected_words([0, t], q - 1, 4))]
        assert len(rejecting) == 8 and rejecting[0] == 1156
        block = _draw_block(0, q, 4, 0, len(rows))
        assert block.tolist() == [default_rng_draw(0, t, q, 4) for t in rows]

    def test_memory_of_a_draw(self):
        # search-small's 2,000 candidates. The stacked pool, its (8, rows)
        # output words and a reorder of the rejecting rows alone measured
        # 415 kB; one uint32 array per pool word and an argsort of every
        # row measured 622 kB.
        _draw_block(7, 101, 4, 0, 2000)
        tracemalloc.start()
        try:
            _draw_block(7, 101, 4, 0, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 550_000

    def test_modulus_two_draws_ones(self):
        block = _draw_block(3, 2, 5, 0, 4)
        assert block.tolist() == [[1] * 5] * 4
        assert [default_rng_draw(3, t, 2, 5) for t in range(4)] == block.tolist()

    def test_draw_candidate_is_a_block_row(self):
        block = _draw_block(11, 997, 6, 40, 90)
        for i, row in enumerate(block.tolist()):
            assert draw_candidate(11, 40 + i, 997, 6) == tuple(row)


class TestRawStream:
    # search._words against numpy's PCG64 itself, before any bounded draw:
    # 64 outputs per row, each as its low then its high 32-bit half. The
    # indices have high words both zero and nonzero, the seeds 1, 2 and 5
    # words, and the second key is a per-row q as verify keys its sets.
    INDEX = [0, 5, 2**32 - 1, 2**32, 2**63 + 9, 2**64 - 1]
    QS = [2, 101, 65537, 3, 1 << 20, 999]

    @pytest.mark.parametrize("per_row_q", [False, True], ids=["seed", "seed-q"])
    @pytest.mark.parametrize(
        "seed", [7, 2**64 - 1, 2**130 + 12345], ids=["1-word", "2-words", "5-words"]
    )
    def test_matches_pcg64_raw(self, seed, per_row_q):
        keys = (seed, np.array(self.QS)) if per_row_q else (seed,)
        stream = search._words(keys, np.array(self.INDEX, dtype=np.uint64))
        words = np.stack([next(stream) for _ in range(128)], axis=1)
        for i, row in enumerate(words.tolist()):
            entropy = [seed, self.QS[i]] if per_row_q else [seed]
            bits = np.random.PCG64(np.random.SeedSequence([*entropy, self.INDEX[i]]))
            raw = bits.random_raw(64).tolist()
            assert row == [half for x in raw for half in (x & 0xFFFFFFFF, x >> 32)]


class TestRandomSearch:
    def test_deterministic(self):
        config = SearchConfig(q=17, n=2, trials=25, seed=123)
        first = random_search(config, HashForm.SINGLE_QUBIT)
        second = random_search(config, HashForm.SINGLE_QUBIT)
        assert first.best_set == second.best_set
        assert first.report.epsilon == second.report.epsilon
        assert first.history == second.history
        assert first.trials_run == second.trials_run

    def test_small_space_restores_optimum(self):
        config = SearchConfig(q=4, n=1, trials=50, seed=2)
        result = random_search(config, HashForm.SINGLE_QUBIT)
        assert abs(result.report.epsilon - math.cos(math.pi / 4)) < 1e-15

    def test_history_strictly_improves(self):
        config = SearchConfig(q=257, n=3, trials=60, seed=11)
        result = random_search(config, HashForm.SINGLE_QUBIT)
        values = [value for _, value in result.history]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        assert result.history[-1][1] == result.report.epsilon

    def test_a_form_by_value_equals_its_enum(self):
        # Both searches certify through the sweep, which takes a form's
        # value as its enum.
        def fields(result):
            report = result.report
            return result.best_set, result.history, report.values.tobytes()

        config = SearchConfig(q=101, n=3, trials=40, seed=3)
        by_value = random_search(config, "single-qubit")
        by_enum = random_search(config, HashForm.SINGLE_QUBIT)
        assert fields(by_value) == fields(by_enum)
        by_value = exhaustive_search(23, 2, "single-qubit")
        by_enum = exhaustive_search(23, 2, HashForm.SINGLE_QUBIT)
        assert fields(by_value) == fields(by_enum)

    @pytest.mark.parametrize("form", ["bogus", 42])
    def test_rejects_an_unknown_form(self, form):
        config = SearchConfig(q=101, n=3, trials=40, seed=3)
        # With the sum factor on too, which every form but one ignores.
        for include_sum_qubit in (False, True):
            with pytest.raises(ValueError, match="not a valid HashForm"):
                random_search(config, form, include_sum_qubit)
            with pytest.raises(ValueError, match="not a valid HashForm"):
                exhaustive_search(23, 2, form, include_sum_qubit)

    def test_runs_all_trials_without_target(self):
        config = SearchConfig(q=29, n=2, trials=12, seed=5)
        result = random_search(config, HashForm.SHALLOW)
        assert result.trials_run == 12

    def test_trivial_target_stops_immediately(self):
        config = SearchConfig(q=29, n=2, trials=500, seed=5, target_epsilon=1.0)
        result = random_search(config, HashForm.SINGLE_QUBIT)
        assert result.trials_run == 1

    def test_report_is_certified(self):
        config = SearchConfig(q=31, n=2, trials=10, seed=8)
        result = random_search(config, HashForm.SINGLE_QUBIT, include_sum_qubit=True)
        fresh = collision_resistance(
            result.best_set, HashForm.SINGLE_QUBIT, include_sum_qubit=True
        )
        assert fresh.epsilon == result.report.epsilon
        assert fresh.worst_x == result.report.worst_x

    def test_never_beats_exhaustive(self):
        config = SearchConfig(q=7, n=2, trials=30, seed=4)
        random_result = random_search(config, HashForm.SINGLE_QUBIT)
        exhaustive_result = exhaustive_search(7, 2, HashForm.SINGLE_QUBIT)
        assert random_result.report.epsilon >= exhaustive_result.report.epsilon

    def test_sum_qubit_can_null_small_modulus(self):
        config = SearchConfig(q=2, n=1, trials=3, seed=0)
        result = random_search(config, HashForm.SINGLE_QUBIT, include_sum_qubit=True)
        assert result.best_set.elements == (1,)
        assert result.report.epsilon < 1e-16

    def test_required_size_tracks_log_of_modulus(self):
        # Trend check, not a proof: the set size needed to certify
        # epsilon <= 0.5 stays within log2(q). Seeded, so the minimal n
        # per modulus is stable (3, 5, 6, 7 at calibration time).
        for q in (17, 101, 257, 1021):
            for n in range(1, 13):
                config = SearchConfig(
                    q=q, n=n, trials=40, seed=20250822, target_epsilon=0.5
                )
                result = random_search(config, HashForm.SINGLE_QUBIT)
                if result.report.epsilon <= 0.5:
                    break
            assert n <= math.log2(q)


class TestExhaustiveSearch:
    def test_small_space(self):
        result = exhaustive_search(4, 1, HashForm.SINGLE_QUBIT)
        assert result.best_set.elements == (1,)
        assert result.trials_run == 3
        assert abs(result.report.epsilon - math.cos(math.pi / 4)) < 1e-15

    def test_ties_keep_first_in_lexicographic_order(self):
        # Candidates 1 and 3 attain the same epsilon for q=4; the scan
        # must keep 1.
        result = exhaustive_search(4, 1, HashForm.SINGLE_QUBIT)
        tied = collision_resistance(ParamSet(4, (3,)), HashForm.SINGLE_QUBIT)
        assert tied.epsilon == result.report.epsilon
        assert result.best_set.elements == (1,)

    def test_rejects_oversized_space(self):
        with pytest.raises(ValueError):
            exhaustive_search(102, 4, HashForm.SINGLE_QUBIT)

    def test_covers_whole_space(self):
        result = exhaustive_search(5, 2, HashForm.SHALLOW)
        assert result.trials_run == 16

    @pytest.mark.parametrize("q, n", [(7.5, 1), (1, 1), (7, 1.0), (7, 0)])
    def test_rejects_bad_inputs(self, q, n):
        with pytest.raises(ValueError):
            exhaustive_search(q, n, HashForm.SHALLOW)

    @given(
        q=st.sampled_from([2, 3, 5]),
        n=st.integers(1, 4),
        bounds=st.lists(st.integers(0, 4**4), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_candidates_are_a_slice_of_the_product(self, q, n, bounds):
        # Any [start, stop) within the space, empty ranges included.
        start, stop = sorted(min(b, (q - 1) ** n) for b in bounds)
        rows = _lexicographic(q, n, start, stop)
        space = itertools.product(range(1, q), repeat=n)
        assert rows.dtype == np.int64 and rows.shape == (stop - start, n)
        assert rows.tolist() == [
            list(row) for row in itertools.islice(space, start, stop)
        ]

    def test_recertification_disagreement_raises(self, monkeypatch):
        # The winner is certified again from scratch, the one call the
        # block scan makes to `collision_resistance`; a scan whose
        # bookkeeping disagrees with that must fail loudly.
        def drifting(params, form, include_sum_qubit=False):
            report = collision_resistance(params, form, include_sum_qubit)
            report.epsilon += 1e-3
            return report

        monkeypatch.setattr("zqhash.search.collision_resistance", drifting)
        with pytest.raises(RuntimeError):
            exhaustive_search(4, 1, HashForm.SINGLE_QUBIT)


FORMS = st.sampled_from(list(HashForm))


class TestBlockScan:
    # The block scan against the per-candidate scan it replaced, at block
    # sizes that put seams between improvements and early stops.
    @given(
        q=st.one_of(st.integers(2, 120), st.sampled_from([257, 1009, 4099])),
        n=st.integers(1, 6),
        trials=st.integers(1, 300),
        seed=st.integers(0, (1 << 64) - 1),
        target=st.one_of(st.none(), st.floats(0.05, 1.0)),
        form=FORMS,
        sum_qubit=st.booleans(),
        rows=BLOCK_ROWS,
    )
    @settings(max_examples=100, deadline=None)
    def test_random_search_matches_per_candidate_scan(
        self, q, n, trials, seed, target, form, sum_qubit, rows
    ):
        config = SearchConfig(q=q, n=n, trials=trials, seed=seed, target_epsilon=target)
        with block_rows(rows):
            result = random_search(config, form, sum_qubit)
        candidates = (tuple(default_rng_draw(seed, t, q, n)) for t in range(trials))
        assert_same_result(result, scan_oracle(candidates, q, form, sum_qubit, target))

    @given(
        q=st.integers(2, 14),
        n=st.integers(1, 3),
        form=FORMS,
        sum_qubit=st.booleans(),
        rows=BLOCK_ROWS,
    )
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_search_matches_per_candidate_scan(
        self, q, n, form, sum_qubit, rows
    ):
        with block_rows(rows):
            result = exhaustive_search(q, n, form, sum_qubit)
        candidates = itertools.product(range(1, q), repeat=n)
        assert_same_result(result, scan_oracle(candidates, q, form, sum_qubit))

    def test_certifies_only_the_winner_one_by_one(self, monkeypatch):
        calls = []

        def counted(params, form, include_sum_qubit=False):
            calls.append(params)
            return collision_resistance(params, form, include_sum_qubit)

        monkeypatch.setattr(search, "collision_resistance", counted)
        config = SearchConfig(q=101, n=4, trials=2000, seed=7)
        result = random_search(config, HashForm.SINGLE_QUBIT)
        assert calls == [result.best_set]

    @pytest.mark.parametrize("target, trials_run", [(1.0, 1), (0.6, 30)])
    def test_target_scan_draws_little_past_the_stop(
        self, monkeypatch, target, trials_run
    ):
        drawn = []

        def spy(seed, q, n, start, stop):
            drawn.append(stop - start)
            return _draw_block(seed, q, n, start, stop)

        monkeypatch.setattr(search, "_draw_block", spy)
        config = SearchConfig(q=101, n=4, trials=2000, seed=7, target_epsilon=target)
        result = random_search(config, HashForm.SINGLE_QUBIT)
        assert result.trials_run == trials_run
        assert drawn == [1 << i for i in range(len(drawn))]
        assert sum(drawn) < 2 * trials_run

    @given(
        q=st.one_of(st.integers(2, 120), st.sampled_from([256, 257, 1009])),
        n=st.integers(1, 5),
        trials=st.integers(1, 600),
        seed=st.integers(0, (1 << 64) - 1),
        target=st.one_of(st.none(), st.floats(0.05, 1.0)),
        form=FORMS,
        sum_qubit=st.booleans(),
        sweep=BLOCK_ROWS,
        draw=DRAW_ROWS,
    )
    @settings(max_examples=80, deadline=None)
    def test_scan_matches_per_candidate_scan_at_any_blocks(
        self, q, n, trials, seed, target, form, sum_qubit, sweep, draw
    ):
        # Sweep blocks smaller or larger than the draws, so slices of one
        # draw, seams between draws and the square built partway through a
        # targeted scan all meet improvements and early stops.
        rows_at = partial(_draw_block, seed, q, n)
        with block_rows(sweep), draw_rows(draw):
            result = search._scan(q, trials, rows_at, form, sum_qubit, target)
        candidates = (tuple(default_rng_draw(seed, t, q, n)) for t in range(trials))
        assert_same_result(result, scan_oracle(candidates, q, form, sum_qubit, target))

    def test_block_size_bounds_memory(self):
        # 2**14 float64 values per sweep block, 128 kB, so a block stays in
        # cache; a row counts at least 64 cells.
        block_rows = analysis._block_rows
        assert block_rows(101) == (1 << 14) // 100
        assert block_rows(1009) == 16
        assert block_rows(MAX_SWEEP_MODULUS) == 1
        assert block_rows(2) == block_rows(65) == 256
        for q in (66, 101, 256, 1009, 8193, 16385):
            assert block_rows(q) * (q - 1) <= 1 << 14

    @pytest.mark.parametrize(
        "q, trials, target, squares",
        [
            (101, 2000, None, 1),
            (101, 2000, 0.6, 0),
            (256, 600, None, 1),
            (256, 2000, 0.05, 1),
            (257, 600, None, 0),
            (1009, 300, None, 0),
        ],
    )
    def test_one_table_and_at_most_one_square_per_scan(
        self, q, trials, target, squares
    ):
        # Every sweep block of a scan reads one cosine table and writes
        # into one set of buffers, and at q <= 256 reads one square, built
        # when a draw first holds 2q rows: not by the target scan that
        # stops at trial 30 of its doubling draws, and only at the 512-row
        # draw of one at q = 256 that never meets its target. A scan that
        # reads the square from its first draw makes only its values and
        # terms, not the table loop's buffers; re-certifying the winner
        # asks for the table again and makes one more set of them. The
        # square's build asks for the table too, and every ask at q gets
        # the one table kept at the first.
        config = SearchConfig(q=q, n=4, trials=trials, seed=7, target_epsilon=target)
        counted, tables = {}, []

        def table(modulus, build=analysis._cosine_table):
            tables.append(build(modulus))
            return tables[-1]

        with contextlib.ExitStack() as stack:
            for name in ("_cosine_square", "_loop_buffers"):
                wrapped = mock.patch.object(
                    analysis, name, wraps=getattr(analysis, name)
                )
                counted[name] = stack.enter_context(wrapped)
            recorded = mock.patch.object(analysis, "_cosine_table", side_effect=table)
            counted["_cosine_table"] = stack.enter_context(recorded)
            random_search(config, HashForm.SINGLE_QUBIT)
        first_draw = squares and target is None
        assert counted["_cosine_table"].call_count == 2 + squares
        assert len({id(t) for t in tables}) == 1
        assert counted["_loop_buffers"].call_count == (1 if first_draw else 2)
        assert counted["_cosine_square"].call_count == squares

    @pytest.mark.parametrize("q", [101, 1009])
    def test_memory_of_a_whole_search(self, q):
        # search-small's request, and a table-loop modulus: 2,000 trials of
        # four parameters. The scan makes its table, square and buffers
        # once; with a 2**17-cell block per sweep it peaked at 2.31 MB
        # (q = 101) and 4.36 MB (q = 1009). With the table loop's buffers
        # on the square route too it measured 0.81 and 0.75 MB; with only
        # the square's values and terms at q = 101, 0.63 MB. Now the draw
        # of 2,000 rows peaks at 415 kB, not 622 kB, and q = 101 measures
        # 0.55 MB (q = 1009 0.74 MB): the buffers, the square, the draw and
        # the window's gathers from the square's first columns.
        config = SearchConfig(q=q, n=4, trials=2000, seed=7)
        random_search(config, HashForm.SINGLE_QUBIT)
        # The measured search builds its tables, as a process's first does.
        analysis._kept_tables.clear()
        tracemalloc.start()
        try:
            random_search(config, HashForm.SINGLE_QUBIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        if q == 101:
            assert peak < 600_000


def spied_sweeps(spy):
    # `search._closed_sweeps` with the row maxima of every sweep the scan
    # makes passed through spy(q, rows, width, maxima) before the scan
    # reads them.
    def spied(q, *args):
        for start, block, maxima in analysis._closed_sweeps(q, *args):

            def spied_maxima(rows, width, maxima=maxima):
                found = maxima(rows, width)
                spy(q, rows, width, found)
                return found

            yield start, block, spied_maxima

    return mock.patch.object(search, "_closed_sweeps", spied)


def assert_scan_matches_oracle(q, n, trials, seed, target, form, sum_qubit):
    rows_at = partial(_draw_block, seed, q, n)
    result = search._scan(q, trials, rows_at, form, sum_qubit, target)
    candidates = (tuple(default_rng_draw(seed, t, q, n)) for t in range(trials))
    assert_same_result(result, scan_oracle(candidates, q, form, sum_qubit, target))


class TestPrunedScan:
    # Once a best epsilon is known, a scan sweeps each block over its first
    # max(1, (q - 1) // 4) differences and drops the rows whose max there
    # reaches the best before the block; only the rest are swept in full.
    @given(
        q=st.sampled_from([2, 3, 101, 256, 257, 1009, 4099]),
        n=st.integers(1, 6),
        trials=st.integers(1, 600),
        seed=st.integers(0, (1 << 64) - 1),
        target=st.one_of(st.none(), st.floats(0.05, 1.0)),
        form=FORMS,
        sum_qubit=st.booleans(),
        sweep=BLOCK_ROWS,
        draw=DRAW_ROWS,
    )
    @settings(max_examples=60, deadline=None)
    def test_pruned_scan_matches_per_candidate_scan(
        self, q, n, trials, seed, target, form, sum_qubit, sweep, draw
    ):
        # The window spans every difference at q = 2 and one of two at
        # q = 3; q = 256 and 257 sit on either side of the square switch,
        # and 1009 and 4099 run the table loop.
        with block_rows(sweep), draw_rows(draw):
            assert_scan_matches_oracle(q, n, trials, seed, target, form, sum_qubit)

    def test_bounding_a_block_by_its_own_rows_fails_the_gate(self):
        # The mutation: a row is also dropped where its window max reaches
        # the best epsilon of its own block's rows, not just the best
        # before the block. At seed 7 that drops improvements the
        # per-candidate scan records.
        def own_best(q, rows, width, maxima):
            if width < q - 1:
                sets = [ParamSet(q, tuple(row)) for row in rows.tolist()]
                own = min(collision_resistance(s, form).epsilon for s in sets)
                maxima[maxima >= own] = math.inf

        form = HashForm.SINGLE_QUBIT
        args = (101, 4, 2000, 7, None, form, False)
        assert_scan_matches_oracle(*args)
        with spied_sweeps(own_best), pytest.raises(AssertionError):
            assert_scan_matches_oracle(*args)

    @pytest.mark.parametrize(
        "q, full, prefix", [(101, 463, 1837 * 25), (1009, 399, 1984 * 252)]
    )
    def test_work_of_a_whole_search(self, q, full, prefix):
        # search-small's request, and a table-loop modulus: 2,000 trials of
        # four parameters. The first block (163 rows at q = 101, 16 at
        # q = 1009) is swept in full, as no best is known; every later row
        # is swept over the window, and the rows it keeps in full. Without
        # the window every row was swept in full: 2,000 rows.
        swept = {False: 0, True: 0}

        def count(q, rows, width, maxima):
            window = width < q - 1
            swept[window] += len(rows) * width if window else len(rows)

        config = SearchConfig(q=q, n=4, trials=2000, seed=7)
        with spied_sweeps(count):
            random_search(config, HashForm.SINGLE_QUBIT)
        assert swept == {False: full, True: prefix}
