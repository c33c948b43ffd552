from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqhash import analysis, hashing, verification
from zqhash.hashing import (
    MAX_PARAMS,
    MAX_SWEEP_MODULUS,
    ParamSet,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
)
from zqhash.statevec import run_circuit, zero_state
from zqhash.verification import (
    _stacked_grams,
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


def scale_turn(monkeypatch, name, scale):
    # Scales one angle form of the circuit builders, which read it at call
    # time; the closed forms never read it.
    turn, periods = getattr(hashing, name)
    monkeypatch.setattr(hashing, name, (scale * turn, periods))


def scale_flat_ry(monkeypatch, scale):
    # Only the flat route of the multiplexed-Ry check calls apply_ry.
    ry = verification.apply_ry

    def scaled(state, target, theta):
        return ry(state, target, scale * theta)

    monkeypatch.setattr(verification, "apply_ry", scaled)


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

    def test_ucr_check_catches_scaled_angles(self, monkeypatch):
        scale_flat_ry(monkeypatch, 0.5)
        result = check_ucr_decomposition(n_max=3, vectors_per_n=3)
        assert not result.passed
        assert result.max_deviation > 1e-3

    def test_single_qubit_check_catches_scaled_angles(self, monkeypatch):
        scale_turn(monkeypatch, "_TURN_2PI", 0.5)
        results = by_name(check_inner_products([5, 9], sets_per_q=3))
        assert not results["single_qubit_inner_product"].passed

    def test_shallow_check_catches_scaled_angles(self, monkeypatch):
        scale_turn(monkeypatch, "_TURN_4PI", 0.5)
        results = by_name(check_inner_products([5, 9], sets_per_q=3))
        assert not results["shallow_inner_product"].passed

    def test_equivalence_check_catches_scaled_angles(self, monkeypatch):
        # The shallow circuit drifts; the sum-qubit circuit does not.
        scale_turn(monkeypatch, "_TURN_4PI", 0.5)
        results = by_name(check_inner_products([5, 9], sets_per_q=3))
        assert not results["resistance_equivalence"].passed

    def test_tiny_corruption_still_detected(self, monkeypatch):
        scale_turn(monkeypatch, "_TURN_4PI", 1.0 + 1e-6)
        results = by_name(check_inner_products([8], sets_per_q=4))
        assert not results["shallow_inner_product"].passed

    def test_equivalence_catches_a_missing_sum_factor(self, monkeypatch):
        # Without its sum factor the closed form no longer equals the
        # subset-sum mean: the check fails with an infinite deviation and
        # names the first set, in draw order, that broke the identity. The
        # two q = 2 sets keep it; the first q = 3 set is the first to break.
        closed = analysis._closed_inner_values

        def without_sum(q, elements, dx, with_sum):
            return closed(q, elements, dx, False)

        monkeypatch.setattr(verification, "_closed_inner_values", without_sum)
        result = by_name(check_inner_products(range(2, 12), sets_per_q=2))[
            "resistance_equivalence"
        ]
        assert not result.passed
        assert result.max_deviation == float("inf")
        assert result.detail == (
            "sum-factor closed form diverged from the subset-sum mean "
            "for q=3, S=(2, 0, 1, 2)"
        )


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

    @pytest.mark.parametrize("budget", [None, 1], ids=["default_budget", "budget_1"])
    def test_each_set_drawn_once_and_three_runs_per_chunk(self, monkeypatch, budget):
        # Sets of one size share one run per circuit while they fit the
        # amplitude budget, as all ten do here (at most 6 rows of at most
        # 16 amplitudes each); a budget of 1 runs every set alone.
        if budget is not None:
            monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", budget)
        drawn, runs = [], [0]
        draw, run = verification._random_params, verification.run_circuit

        def counted_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def counted_run(*args):
            runs[0] += 1
            return run(*args)

        monkeypatch.setattr(verification, "_random_params", counted_draw)
        monkeypatch.setattr(verification, "run_circuit", counted_run)
        run_all_checks(q_max=6, n_max=3, trials=2)
        assert [p.q for p in drawn] == [q for q in range(2, 7) for _ in range(2)]
        chunks = len(drawn) if budget else len({p.size for p in drawn})
        assert runs[0] == 3 * chunks


def per_x_gram(q, num_qubits, circuit_for_x):
    # Reference: one circuit build and one single-state run per x.
    mat = np.empty((q, 1 << num_qubits))
    for x in range(q):
        mat[x] = run_circuit(zero_state(num_qubits), circuit_for_x(x)).amplitudes
    return mat @ mat.T


@st.composite
def gram_cases(draw):
    q = draw(st.integers(2, 40))
    n = draw(st.integers(1, 5))
    params = ParamSet(q, tuple(draw(st.integers(0, q - 1)) for _ in range(n)))
    form = draw(st.sampled_from(["shallow", "single", "single+sum"]))
    return params, form


def circuit_of(form):
    # (qubits beyond the n parameter qubits, builder) of a verify circuit.
    if form == "shallow":
        return 1, shallow_hash_circuit
    with_sum = form == "single+sum"
    return with_sum, partial(single_qubit_hash_circuit, include_sum_qubit=with_sum)


class TestBatchedGram:
    @given(gram_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_x_runs_bitwise(self, case):
        params, form = case
        extra, circuit = circuit_of(form)
        batched = _stacked_grams(circuit, [params])[0]
        reference = per_x_gram(params.q, params.size + extra, partial(circuit, params))
        assert np.array_equal(batched, reference)

    @given(
        n=st.integers(1, 5),
        qs=st.lists(st.integers(2, 40), min_size=1, max_size=6),
        form=st.sampled_from(["shallow", "single", "single+sum"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_blocks_equal_per_x_runs_bitwise(self, n, qs, form, data):
        # Sets of one size and mixed moduli in one run: each set's block
        # of rows gives the Gram matrix of its own per-x runs.
        param_sets = [
            ParamSet(q, [data.draw(st.integers(0, q - 1)) for _ in range(n)])
            for q in qs
        ]
        extra, circuit = circuit_of(form)
        grams = _stacked_grams(circuit, param_sets)
        assert len(grams) == len(param_sets)
        for params, gram in zip(param_sets, grams):
            reference = per_x_gram(params.q, n + extra, partial(circuit, params))
            assert gram.tobytes() == reference.tobytes()

    def test_ucr_check_is_independent_of_batching(self, monkeypatch):
        whole = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", 8)
        chunked = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        assert chunked == whole

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_checks_are_independent_of_the_budget(self, monkeypatch, scale):
        # A budget of 1 runs every basis input and every set alone.
        scale_flat_ry(monkeypatch, scale)
        scale_turn(monkeypatch, "_TURN_4PI", scale)
        whole = run_all_checks(q_max=14, n_max=4, trials=3)
        failed = {result.name for result in whole if not result.passed}
        broken = set(CHECK_NAMES) - {"single_qubit_inner_product"}
        assert failed == (broken if scale != 1.0 else set())
        monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", 1)
        alone = run_all_checks(q_max=14, n_max=4, trials=3)
        assert alone == whole


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
            {"q_max": MAX_SWEEP_MODULUS + 1},
        ],
    )
    def test_rejects_inputs_that_check_nothing(self, kwargs):
        # The error names the input, whichever one it is.
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
            run_all_checks(**kwargs)
