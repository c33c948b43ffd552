import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqhash import analysis, hashing, search, statevec, verification
from zqhash.hashing import (
    MAX_PARAMS,
    MAX_SWEEP_MODULUS,
    ParamSet,
    derive_biased_set,
    shallow_hash_circuit,
    single_qubit_hash_circuit,
)
from zqhash.search import _draw_rows
from zqhash.statevec import run_circuit, zero_state
from zqhash.verification import (
    MAX_VERIFY_WORK,
    _gram_work,
    _ucr_work,
    _verify_work,
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

    @pytest.mark.parametrize(
        "gate, check",
        [
            ("apply_ry", "single_qubit_inner_product"),
            ("apply_controlled_ry", "shallow_inner_product"),
        ],
    )
    def test_inner_products_catch_a_faulty_gate(self, monkeypatch, gate, check):
        # The chunk circuits reach the kernel through the simulator's own
        # gate functions, so a faulty one halving its angle is caught.
        apply = getattr(statevec, gate)

        def halved(state, *args):
            *wires, theta = args
            return apply(state, *wires, 0.5 * theta)

        monkeypatch.setattr(statevec, gate, halved)
        results = by_name(check_inner_products([5, 9], sets_per_q=3))
        assert not results[check].passed
        assert results[check].max_deviation > 1e-3

    def test_tiny_corruption_still_detected(self, monkeypatch):
        scale_turn(monkeypatch, "_TURN_4PI", 1.0 + 1e-6)
        results = by_name(check_inner_products([8], sets_per_q=4))
        assert not results["shallow_inner_product"].passed

    def test_equivalence_catches_a_missing_sum_factor(self, monkeypatch):
        # Without its sum factor the closed form no longer equals the
        # subset-sum mean: the check fails with an infinite deviation and
        # names the first set, in draw order, that broke the identity. The
        # two q = 2 sets keep it; the first q = 3 set is the first to break.
        pair = analysis._closed_inner_pair

        def without_sum(q, rows, dx):
            bare, _ = pair(q, rows, dx)
            return bare, bare

        monkeypatch.setattr(verification, "_closed_inner_pair", without_sum)
        result = by_name(check_inner_products(range(2, 12), sets_per_q=2))[
            "resistance_equivalence"
        ]
        assert not result.passed
        assert result.max_deviation == float("inf")
        assert result.detail == (
            "sum-factor closed form diverged from the subset-sum mean "
            "for q=3, S=(2, 0, 1, 2)"
        )

    def test_equivalence_catches_a_sum_qubit_state_without_its_ry(self, monkeypatch):
        # The sum-qubit batch is the single-qubit batch widened by one
        # qubit and rotated by the sum factor's Ry; without that Ry its
        # |Gram| is the bare one, which the shallow |Gram| is not.
        circuits = verification._block_circuits

        def without_sum_ry(factors, q):
            bare, shallow, _ = circuits(factors, q)
            return bare, shallow, bare

        monkeypatch.setattr(verification, "_block_circuits", without_sum_ry)
        results = by_name(check_inner_products([5, 9], sets_per_q=3))
        assert not results["resistance_equivalence"].passed
        assert results["resistance_equivalence"].max_deviation > 1e-3
        assert results["single_qubit_inner_product"].passed
        assert results["shallow_inner_product"].passed

    @pytest.mark.parametrize("set_block", [1, 3])
    def test_first_divergence_named_across_set_blocks(self, monkeypatch, set_block):
        # The same set is named when the sets are drawn in smaller blocks,
        # with the first broken set alone in its block or behind others.
        monkeypatch.setattr(verification, "_DRAW_ROWS", set_block)
        self.test_equivalence_catches_a_missing_sum_factor(monkeypatch)


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
        # Sets of one size share each run while they fit the amplitude
        # budget, as all ten do here (at most 6 rows of at most 16
        # amplitudes each); a budget of 1 runs every set alone. A chunk of
        # size n makes three runs: the single-qubit and shallow circuits,
        # then the single-qubit batch widened by one qubit through one Ry.
        # Each of its 2n + 1 Ry gates takes the trig of its own angle
        # column, and it applies 3n + 1 gates.
        if budget is not None:
            monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", budget)
        drawn, runs, widened, columns, gates = [], [0], [], [0], [0]
        draw, run = verification._draw_rows, verification._run
        run_circuit, entries = verification.run_circuit, statevec._ry_entries
        kernel = statevec._apply_2x2

        def counted_draw(keys, index, *args, **kwargs):
            sizes, factors = draw(keys, index, *args, **kwargs)
            drawn.extend(zip(keys[1].tolist(), index.tolist(), sizes.tolist()))
            return sizes, factors

        def counted_run(*args):
            runs[0] += 1
            return run(*args)

        def counted_widened_run(state, ops):
            widened.append((state.num_qubits, [(op.kind, op.target) for op in ops]))
            return run_circuit(state, ops)

        def counted_entries(theta):
            columns[0] += 1
            return entries(theta)

        def counted_kernel(*args):
            gates[0] += 1
            return kernel(*args)

        monkeypatch.setattr(verification, "_draw_rows", counted_draw)
        monkeypatch.setattr(verification, "_run", counted_run)
        monkeypatch.setattr(verification, "run_circuit", counted_widened_run)
        monkeypatch.setattr(statevec, "_ry_entries", counted_entries)
        monkeypatch.setattr(statevec, "_apply_2x2", counted_kernel)
        check_inner_products(range(2, 7), sets_per_q=2, n_max=3)
        assert [(q, i) for q, i, _ in drawn] == [
            (q, i) for q in range(2, 7) for i in range(2)
        ]
        sizes = [size for _, _, size in drawn]
        chunks = sorted(sizes if budget else set(sizes))
        assert runs[0] == 2 * len(chunks)
        assert sorted(widened) == [(n + 1, [("ry", n)]) for n in chunks]
        assert columns[0] == sum(2 * n + 1 for n in chunks)
        assert gates[0] == sum(3 * n + 1 for n in chunks)

    @pytest.mark.parametrize(
        "q, size, expected",
        [
            # 300**2 + 200**2 cells fit 2**17 and a further 100**2 do not;
            # 400**2 alone is over, so that set runs alone.
            ([300, 200, 100, 30, 30, 400, 2], 1, [2, 3, 1, 1]),
            # 34 sets of 30 rows of 2**6 amplitudes fit 2**16, 35 do not.
            ([30] * 40, 5, [34, 6]),
        ],
        ids=["cells", "amplitudes"],
    )
    def test_chunks_are_bounded_by_amplitudes_and_cells(self, q, size, expected):
        q = np.array(q)
        chunks = list(verification._chunks(np.arange(q.size), q, size))
        assert [chunk.size for chunk in chunks] == expected
        assert np.concatenate(chunks).tolist() == list(range(q.size))


def default_rng_set(seed, q, index, n_max):
    # The per-set draw the block draw replaced: a size, then the entries,
    # from one generator per (seed, q, index).
    rng = np.random.default_rng([seed, q, index])
    n = int(rng.integers(1, n_max + 1))
    return [int(v) for v in rng.integers(0, q, size=n)]


def rejected_words(entropy, span, count):
    # Whether Lemire's draw on `span` rejects each of the first `count`
    # 32-bit words of default_rng(entropy)'s stream, read from numpy's own
    # PCG64: the low half of word * span falls below 2**32 mod span.
    raw = np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(count)
    words = [half for x in raw.tolist() for half in (x & 0xFFFFFFFF, x >> 32)]
    return [w * span % 2**32 < 2**32 % span for w in words[:count]]


def block_sets(seed, qs, index, n_max):
    qs = np.array(qs, dtype=np.int64)
    index = np.array(index, dtype=np.uint64)
    span = qs.astype(np.uint64)
    sizes, values = _draw_rows((seed, qs), index, span, n_max, sized=True)
    return [row[:size] for row, size in zip(values.tolist(), sizes.tolist())]


class TestSetStream:
    # Each set of check_inner_products comes from one row of the block
    # stream, pinned here to numpy's default_rng at the installed numpy
    # (see search.TestBlockStream for why the port is the contract).
    @given(
        seed=st.one_of(st.integers(0, 1 << 33), st.integers(0, 2**70)),
        start=st.one_of(
            st.integers(0, 1 << 16), st.integers((1 << 32) - 4, (1 << 32) + 4)
        ),
        qs=st.lists(
            st.one_of(st.integers(2, 300), st.integers(2, MAX_SWEEP_MODULUS)),
            min_size=1,
            max_size=3,
        ),
        n_max=st.integers(1, MAX_PARAMS),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_default_rng(self, seed, start, qs, n_max):
        index = [start + i for i in range(len(qs))]
        expected = [default_rng_set(seed, q, i, n_max) for q, i in zip(qs, index)]
        assert block_sets(seed, qs, index, n_max) == expected

    def test_size_draw_rejects_a_word(self):
        # This set's first 32-bit word is rejected by the size draw: the
        # low half of word * 20 falls below 2**32 mod 20 = 16. So its size
        # comes from the second word and its entries from the third on.
        seed, q, index, n_max = 0, 101, 162136941, 20
        words = search._words((seed, np.array([q])), np.array([index], np.uint64))
        first = next(words)
        assert int(first[0]) * n_max % 2**32 < 2**32 % n_max
        expected = default_rng_set(seed, q, index, n_max)
        assert block_sets(seed, [q], [index], n_max) == [expected]

    def test_rejecting_rows_in_a_whole_block(self):
        # 4,096 sets at q = 1048323, where 2**32 mod q is 99 % of q. Each
        # takes its size from its first word; six then reject one of the
        # entry words they read, between rows that reject none.
        seed, q, n_max, index = 0, 1048323, 5, range(1 << 12)
        expected = [default_rng_set(seed, q, i, n_max) for i in index]
        assert not any(rejected_words([seed, q, i], n_max, 1)[0] for i in index)
        rejecting = [
            i
            for i in index
            if any(rejected_words([seed, q, i], q, 1 + len(expected[i]))[1:])
        ]
        assert rejecting == [387, 1140, 1185, 2053, 2092, 2300]
        assert block_sets(seed, [q] * len(index), list(index), n_max) == expected

    def test_one_parameter_draws_no_size(self):
        # integers(1, 2) draws nothing, so the entries start at the first
        # word.
        expected = [default_rng_set(5, q, 0, 1) for q in (2, 3, 1000)]
        assert block_sets(5, [2, 3, 1000], [0, 0, 0], 1) == expected


FORMS = ["single", "shallow", "single+sum"]


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
    form = draw(st.sampled_from(FORMS))
    return params, form


def circuit_of(form):
    # (qubits beyond the n parameter qubits, builder) of a verify circuit.
    if form == "shallow":
        return 1, shallow_hash_circuit
    with_sum = form == "single+sum"
    return with_sum, partial(single_qubit_hash_circuit, include_sum_qubit=with_sum)


def block_of(param_sets):
    # The (K, n) parameter block and (K,) moduli of sets of one size.
    factors = np.array([params.elements for params in param_sets], dtype=np.int64)
    return factors, np.array([params.q for params in param_sets], dtype=np.int64)


def chunk_grams(param_sets):
    # The block Gram matrices of each circuit form, one per set, copied as
    # `_chunk_gaps` makes each one into its two rows of cells. The gaps
    # must compare them as made: the single-qubit and shallow Grams, then
    # the shallow and sum-qubit Grams' magnitudes.
    factors, q = block_of(param_sets)
    matmul, gap, grams, operands = np.matmul, verification._gap, [], []

    def records_grams(a, b, out):
        assert out.base.shape == (2, int((q * q).sum()))
        grams.append(matmul(a, b, out=out).copy())
        return out

    def records_operands(a, b):
        operands.append((a.copy(), b.copy()))
        return gap(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "matmul", records_grams)
        patch.setattr(verification, "_gap", records_operands)
        verification._chunk_gaps(factors, q)
    assert [gram.shape for gram in grams] == [(m, m) for m in q.tolist()] * 3
    sets = len(param_sets)
    by_form = [grams[i * sets : (i + 1) * sets] for i in range(len(FORMS))]
    single, shallow, with_sum = (
        np.concatenate([gram.ravel() for gram in form]) for form in by_form
    )
    (first, _), (second, _), (magnitudes, sum_magnitudes) = operands
    expected = [single, shallow, np.abs(shallow), np.abs(with_sum)]
    for cells, made in zip([first, second, magnitudes, sum_magnitudes], expected):
        assert cells.tobytes() == made.tobytes()
    return dict(zip(FORMS, by_form))


def stacked_grams(param_sets, form):
    return chunk_grams(param_sets)[form]


def three_run_states(param_sets):
    # The chunk's states as three whole runs of its three circuits.
    factors, q = block_of(param_sets)
    return [
        hashing._run(ops, int(q.sum())) for ops in hashing._block_circuits(factors, q)
    ]


def three_run_grams(param_sets, states):
    # Each set's Gram from a C-ordered copy of its own block of rows.
    stops = np.cumsum([params.q for params in param_sets]).tolist()
    grams = {}
    for form, state in zip(FORMS, states):
        blocks = [
            np.ascontiguousarray(state.amplitudes[stop - params.q : stop])
            for stop, params in zip(stops, param_sets)
        ]
        grams[form] = [block @ block.T for block in blocks]
    return grams


def subset_sum_means_oracle(params):
    # The per-set subset-sum means the block form replaced: the subset sums
    # of `derive_biased_set`, each b*dx reduced mod q, one set at a time.
    sums = np.array(derive_biased_set(params).elements, dtype=np.int64)
    dx = np.arange(params.q, dtype=np.int64)
    residues = (sums[:, None] * dx[None, :]) % params.q
    return np.cos((2.0 * np.pi / params.q) * residues).mean(axis=0)


class TestBlockClosedForms:
    # A chunk's closed forms come from one block with a modulus per row,
    # padded to the largest q; each row must equal its own set's values.
    @given(
        n=st.integers(1, 6),
        qs=st.lists(
            st.one_of(st.integers(2, 40), st.integers(2, 3000)),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_per_set_values_bitwise(self, n, qs, data):
        param_sets = [
            ParamSet(q, [data.draw(st.integers(0, q - 1)) for _ in range(n)])
            for q in qs
        ]
        factors = np.array([p.elements for p in param_sets], dtype=np.int64)
        column = np.array(qs, dtype=np.int64)[:, None]
        dx = np.arange(max(qs))
        means = verification._subset_sum_means(factors, column, dx)
        for with_sum in (False, True):
            block = analysis._closed_inner_values(column, factors, dx, with_sum)
            for k, params in enumerate(param_sets):
                span = np.arange(params.q)
                alone = analysis._closed_inner_values(
                    params.q, params.elements, span, with_sum
                )
                assert block[k, : params.q].tobytes() == alone.tobytes()
        for k, params in enumerate(param_sets):
            oracle = subset_sum_means_oracle(params)
            assert means[k, : params.q].tobytes() == oracle.tobytes()


class TestBatchedGram:
    @given(gram_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_x_runs_bitwise(self, case):
        params, form = case
        extra, circuit = circuit_of(form)
        batched = stacked_grams([params], form)[0]
        reference = per_x_gram(params.q, params.size + extra, partial(circuit, params))
        assert np.array_equal(batched, reference)

    @given(
        n=st.integers(1, 5),
        qs=st.lists(st.integers(2, 40), min_size=1, max_size=6),
        form=st.sampled_from(FORMS),
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
        grams = stacked_grams(param_sets, form)
        assert len(grams) == len(param_sets)
        for params, gram in zip(param_sets, grams):
            reference = per_x_gram(params.q, n + extra, partial(circuit, params))
            assert gram.tobytes() == reference.tobytes()

    @given(
        n=st.integers(1, 6),
        qs=st.lists(st.one_of(st.just(2), st.integers(2, 40)), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_states_equal_three_whole_runs(self, n, qs, data):
        # The sum-qubit batch grown from the bare batch, against three
        # whole runs: the single-qubit and shallow states agree by bytes,
        # the sum-qubit state by value (the widened qubit's zeros are +0.0
        # where a gate-by-gate run can leave -0.0), and every Gram by bytes.
        entry = partial(st.one_of, st.just(0))
        param_sets = [
            ParamSet(q, [data.draw(entry(st.integers(0, q - 1))) for _ in range(n)])
            for q in qs
        ]
        states = verification._chunk_states(*block_of(param_sets))
        reference = three_run_states(param_sets)
        for i, (state, expected) in enumerate(zip(states, reference)):
            assert state.num_qubits == expected.num_qubits
            assert state.amplitudes.flags.f_contiguous
            if i < 2:
                assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()
            else:
                assert np.array_equal(state.amplitudes, expected.amplitudes)
        grams = chunk_grams(param_sets)
        for form, expected in three_run_grams(param_sets, reference).items():
            for gram, alone in zip(grams[form], expected):
                assert gram.tobytes() == alone.tobytes()

    def test_ucr_check_is_independent_of_batching(self, monkeypatch):
        whole = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", 8)
        chunked = check_ucr_decomposition(n_max=4, vectors_per_n=3, seed=5)
        assert chunked == whole

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_checks_are_independent_of_the_budget(self, monkeypatch, scale):
        # A budget of 1 runs every basis input and every set alone, and a
        # draw of one row draws every set alone.
        scale_flat_ry(monkeypatch, scale)
        scale_turn(monkeypatch, "_TURN_4PI", scale)
        whole = run_all_checks(q_max=14, n_max=4, trials=3)
        failed = {result.name for result in whole if not result.passed}
        broken = set(CHECK_NAMES) - {"single_qubit_inner_product"}
        assert failed == (broken if scale != 1.0 else set())
        monkeypatch.setattr(verification, "_BATCH_AMPLITUDES", 1)
        monkeypatch.setattr(verification, "_DRAW_ROWS", 1)
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

    def test_rejects_a_request_just_past_the_budget(self):
        # Work is linear in trials, so one more trial than the budget
        # holds is the smallest request past it.
        trials = MAX_VERIFY_WORK // _verify_work(64, 5, 1) + 1
        assert _verify_work(64, 5, trials) > MAX_VERIFY_WORK
        with pytest.raises(ValueError, match="budget"):
            run_all_checks(q_max=64, n_max=5, trials=trials)

    @pytest.mark.parametrize(
        "kwargs", [{"q_max": MAX_SWEEP_MODULUS}, {"n_max": MAX_PARAMS}]
    )
    def test_rejects_the_caps_past_the_budget(self, kwargs):
        with pytest.raises(ValueError, match="budget"):
            run_all_checks(**kwargs)


class TestCheckInputs:
    # The public checks refuse what run_all_checks refuses, before any
    # work: no set is drawn and no basis input is built. Unchecked, a
    # negative seed would loop forever in the stream port's seed words.
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ["_draw_rows", "zero_state"]:
            monkeypatch.setattr(verification, name, started)

    @pytest.mark.parametrize(
        "args, message",
        [
            (([1],), "q value must be in"),
            (([5, 3.5],), "q value must be an integer"),
            (([],), "number of q values must be at least 1"),
            (([5], -1), "sets_per_q must be at least 1"),
            (([5], 2, 0), "n_max must be in"),
            (([5], 2, 3, -4), "seed must be at least 0"),
        ],
        ids=["q_1", "q_float", "no_q", "negative_sets", "n_max_0", "negative_seed"],
    )
    def test_inner_products_rejects(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_inner_products(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0,), "n_max must be in"),
            ((3, 0), "vectors_per_n must be at least 1"),
            ((3, 2, -1), "seed must be at least 0"),
        ],
        ids=["n_max_0", "no_vectors", "negative_seed"],
    )
    def test_ucr_decomposition_rejects(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_ucr_decomposition(*args)

    # Each public check has the work budget run_all_checks has. Work is
    # linear in the draws or sets, so one more than the budget holds is the
    # smallest request past it; at the budget the check starts, and the
    # fixture stops it at its first draw or basis input.
    def test_ucr_decomposition_past_the_budget(self):
        vectors = MAX_VERIFY_WORK // _ucr_work(6, 1)
        assert _ucr_work(6, vectors + 1) > MAX_VERIFY_WORK
        with pytest.raises(ValueError, match="^n_max and vectors_per_n need"):
            check_ucr_decomposition(6, vectors + 1)
        with pytest.raises(AssertionError, match="a check ran"):
            check_ucr_decomposition(6, vectors)
        # 2**21 basis inputs of 2**21 amplitudes at the widest.
        with pytest.raises(ValueError, match="budget"):
            check_ucr_decomposition(n_max=MAX_PARAMS, vectors_per_n=1)

    def test_inner_products_past_the_budget(self):
        sets = MAX_VERIFY_WORK // _gram_work(64**2 + 3**2, 2, 5, 1)
        assert _gram_work(64**2 + 3**2, 2, 5, sets + 1) > MAX_VERIFY_WORK
        with pytest.raises(ValueError, match="^q_values, sets_per_q and n_max need"):
            check_inner_products([64, 3], sets + 1, 5)
        with pytest.raises(AssertionError, match="a check ran"):
            check_inner_products([64, 3], sets, 5)
        # One set at the sweep cap: a q x q Gram of 2**40 cells.
        with pytest.raises(ValueError, match="budget"):
            check_inner_products([MAX_SWEEP_MODULUS], 1, 1)

    def test_run_all_checks_work_is_the_sum_of_both_checks(self):
        squares = sum(q * q for q in range(2, 65))
        both = _gram_work(squares, 63, 5, 3) + _ucr_work(5, 3)
        assert _verify_work(64, 5, 3) == both


class TestMemory:
    def test_largest_single_set(self):
        # One set at q = 1,144, the largest q_max accepted at n_max = 1 and
        # one trial. The chunk's two rows of cells (a Gram, and its closed
        # form or another Gram) are the q x q arrays it holds; each gap
        # writes over its second operand and the closed forms at |i - j|
        # are copied from sliding windows, so no third one appears.
        # Measured 22.2 MB = 2.12 * 8 q**2 bytes in a fresh interpreter,
        # 2.02 on a second call; with all five matrices held at once it
        # measured 53.7 MB = 5.13 units.
        q = 1144
        tracemalloc.start()
        try:
            results = check_inner_products([q], 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 2.5 * 8 * q * q

    def test_many_large_sets(self):
        # 41 sets at q = 560..600, each over _BATCH_CELLS, so each runs in
        # a chunk of its own and the peak is about the largest set's two
        # q x q arrays: measured 6.0 MB = 2.07 * 8 * 600**2. Chunked by
        # amplitudes alone, several of them shared a chunk: 96.9 MB with
        # five arrays a chunk.
        tracemalloc.start()
        try:
            results = check_inner_products(range(560, 601), 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 2.5 * 8 * 600 * 600


class TestWorkBudget:
    @pytest.fixture
    def started(self, monkeypatch):
        # Both checks stubbed: the names of those that started, in order.
        names = []

        def ucr(**kwargs):
            names.append("ucr")

        def inner(*args, **kwargs):
            names.append("inner")
            return []

        monkeypatch.setattr(verification, "check_ucr_decomposition", ucr)
        monkeypatch.setattr(verification, "check_inner_products", inner)
        return names

    @pytest.mark.parametrize(
        "q_max, n_max, trials",
        [(64, 5, 5), (32, 5, 5), (8, 3, 2)],
        ids=["default", "verify_sim", "ci"],
    )
    def test_accepts_default_and_benchmark_sizes(self, started, q_max, n_max, trials):
        run_all_checks(q_max=q_max, n_max=n_max, trials=trials)
        assert started == ["ucr", "inner"]

    def test_accepts_the_largest_request_of_its_shape(self, started):
        # One trial fewer than the smallest rejected request.
        trials = MAX_VERIFY_WORK // _verify_work(64, 5, 1)
        run_all_checks(q_max=64, n_max=5, trials=trials)
        assert started == ["ucr", "inner"]
