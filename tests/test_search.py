import math

import numpy as np
import pytest

from zqhash.analysis import collision_resistance
from zqhash.hashing import MAX_MODULUS, HashForm, ParamSet
from zqhash.search import (
    SearchConfig,
    draw_candidate,
    exhaustive_search,
    random_search,
)


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
            {"q": 7.5},
            {"q": "7"},
            {"q": MAX_MODULUS + 1},
            {"n": 1.0},
            {"trials": 2.5},
            {"seed": 0.5},
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

    def test_recertification_disagreement_raises(self, monkeypatch):
        # The winner is certified again from scratch; a scan whose
        # bookkeeping disagrees with that must fail loudly.
        reports = []

        def drifting(params, form, include_sum_qubit=False):
            report = collision_resistance(params, form, include_sum_qubit)
            reports.append(report)
            if len(reports) == 4:
                report.epsilon += 1e-3
            return report

        monkeypatch.setattr("zqhash.search.collision_resistance", drifting)
        with pytest.raises(RuntimeError):
            exhaustive_search(4, 1, HashForm.SINGLE_QUBIT)
