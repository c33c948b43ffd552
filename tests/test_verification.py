from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqhash import analysis, verification
from zqhash.hashing import (
    MAX_PARAMS,
    ParamSet,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
)
from zqhash.statevec import run_circuit, scale_angles, zero_state
from zqhash.verification import (
    _built_gram,
    check_inner_products,
    check_ucr_decomposition,
    run_all_checks,
)

CHECK_NAMES = [
    "ucr_decomposition",
    "single_qubit_inner_product",
    "shallow_inner_product",
    "resistance_equivalence",
]


def by_name(results):
    return {result.name: result for result in results}


class TestCleanRun:
    def test_all_checks_pass_on_a_small_sweep(self):
        results = run_all_checks(q_max=12, n_max=4, trials=2)
        assert [result.name for result in results] == CHECK_NAMES
        for result in results:
            assert result.passed, result.name
            assert result.max_deviation < 1e-10
            assert result.detail

    def test_deterministic(self):
        first = run_all_checks(q_max=8, n_max=3, trials=2, seed=99)
        second = run_all_checks(q_max=8, n_max=3, trials=2, seed=99)
        assert [r.max_deviation for r in first] == [r.max_deviation for r in second]

    @pytest.mark.parametrize("seed", [0, 31337, 2**70])
    def test_passes_for_any_seed(self, seed):
        # The properties hold for all inputs; the seed only picks samples.
        for result in run_all_checks(q_max=10, n_max=3, trials=2, seed=seed):
            assert result.passed, result.name


class TestFaultInjection:
    # A corrupted angle convention must be caught; these prove the checks
    # are able to fail.

    def test_ucr_check_catches_scaled_angles(self):
        result = check_ucr_decomposition(
            n_max=3, vectors_per_n=3, gate_angle_scale=0.5
        )
        assert not result.passed
        assert result.max_deviation > 1e-3

    def test_single_qubit_check_catches_scaled_angles(self):
        results = by_name(
            check_inner_products([5, 9], sets_per_q=3, gate_angle_scale=0.5)
        )
        assert not results["single_qubit_inner_product"].passed

    def test_shallow_check_catches_scaled_angles(self):
        results = by_name(
            check_inner_products([5, 9], sets_per_q=3, gate_angle_scale=0.5)
        )
        assert not results["shallow_inner_product"].passed

    def test_equivalence_check_catches_scaled_angles(self):
        results = by_name(
            check_inner_products([5, 9], sets_per_q=3, gate_angle_scale=0.5)
        )
        assert not results["resistance_equivalence"].passed

    def test_tiny_corruption_still_detected(self):
        results = by_name(
            check_inner_products([8], sets_per_q=4, gate_angle_scale=1.0 + 1e-6)
        )
        assert not results["shallow_inner_product"].passed

    def test_equivalence_catches_a_missing_sum_factor(self, monkeypatch):
        # Without its sum factor the closed form no longer equals the
        # subset-sum mean: the check fails with an infinite deviation and
        # names the first set that broke the identity.
        closed = analysis._closed_inner_values

        def without_sum(q, elements, dx, with_sum):
            return closed(q, elements, dx, False)

        monkeypatch.setattr(verification, "_closed_inner_values", without_sum)
        result = by_name(check_inner_products(range(2, 12), sets_per_q=2))[
            "resistance_equivalence"
        ]
        assert not result.passed
        assert result.max_deviation == float("inf")
        assert "S=" in result.detail


class TestCheckGranularity:
    def test_single_modulus_sweep(self):
        result = by_name(check_inner_products([17], sets_per_q=5))[
            "single_qubit_inner_product"
        ]
        assert result.passed
        assert result.max_deviation < 1e-12

    def test_equivalence_detail_names_the_identity(self):
        result = by_name(check_inner_products(range(2, 20), sets_per_q=2))[
            "resistance_equivalence"
        ]
        assert result.passed
        assert result.detail == (
            "36 parameter sets, sum-factor closed form equals the "
            "subset-sum mean within 1e-12"
        )

    def test_each_set_drawn_once_and_built_three_times(self, monkeypatch):
        calls = {"draws": 0, "builds": 0}
        draw, build = verification._random_params, verification._built_gram

        def counted_draw(*args):
            calls["draws"] += 1
            return draw(*args)

        def counted_build(*args):
            calls["builds"] += 1
            return build(*args)

        monkeypatch.setattr(verification, "_random_params", counted_draw)
        monkeypatch.setattr(verification, "_built_gram", counted_build)
        run_all_checks(q_max=6, n_max=3, trials=2)
        sets = 5 * 2
        assert calls == {"draws": sets, "builds": 3 * sets}


def per_x_gram(q, num_qubits, circuit_for_x, gate_angle_scale):
    # Reference: one circuit build and one single-state run per x.
    mat = np.empty((q, 1 << num_qubits))
    for x in range(q):
        ops = scale_angles(circuit_for_x(x), gate_angle_scale)
        mat[x] = run_circuit(zero_state(num_qubits), ops).amplitudes
    return mat @ mat.T


@st.composite
def gram_cases(draw):
    q = draw(st.integers(2, 40))
    n = draw(st.integers(1, 5))
    params = ParamSet(q, tuple(draw(st.integers(0, q - 1)) for _ in range(n)))
    form = draw(st.sampled_from(["shallow", "single", "single+sum"]))
    scale = draw(st.sampled_from([1.0, 0.5, 1.0 + 1e-6]))
    return params, form, scale


class TestBatchedGram:
    @given(gram_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_x_runs_bitwise(self, case):
        params, form, scale = case
        if form == "shallow":
            width, circuit = params.size + 1, partial(shallow_hash_circuit, params)
        else:
            with_sum = form == "single+sum"
            width = params.size + with_sum
            circuit = partial(
                single_qubit_hash_circuit, params, include_sum_qubit=with_sum
            )
        batched = _built_gram(params.q, width, circuit, scale)
        assert np.array_equal(batched, per_x_gram(params.q, width, circuit, scale))

    def test_ucr_check_is_independent_of_batching(self, monkeypatch):
        whole = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        monkeypatch.setattr(verification, "_UCR_BATCH_AMPLITUDES", 8)
        chunked = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        assert chunked == whole


class TestRunAllChecksInputs:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # Bad inputs must be rejected before any check starts.
        def started(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ["check_ucr_decomposition", "check_inner_products"]:
            monkeypatch.setattr(verification, name, started)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_max": 1},
            {"q_max": -5},
            {"trials": 0},
            {"n_max": 0},
            {"n_max": MAX_PARAMS + 1},
            {"q_max": 4.5},
            {"trials": 1.5},
            {"n_max": 2.0},
            {"seed": 1.5},
            {"seed": -1},
            {"seed": "7"},
        ],
    )
    def test_rejects_inputs_that_check_nothing(self, kwargs):
        # The error names the input, whichever one it is.
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
            run_all_checks(**kwargs)
