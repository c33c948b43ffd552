"""Per-layer timings with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable

The second form runs each case once, untimed, as a smoke check.
These sit outside the `tests` testpath, so the tier-1 suite does not
collect them. Inputs are drawn from fixed seeds, so every run times the
same work.
"""
import json
import random
from unittest import mock

import numpy as np
import pytest

from zqhash import analysis
from zqhash.analysis import _closed_sweeps, collision_resistance, epsilon_of_biased_set
from zqhash.cli import _parser, _report_outputs, dumps_report, render_report
from zqhash.floattext import (
    _BLOCK_ROWS,
    _FIELD,
    format_floats,
    join_floats,
    write_floats,
)
from zqhash.hashing import (
    BiasedSet,
    HashForm,
    ParamSet,
    _block_circuits,
    derive_biased_set,
)
from zqhash.search import (
    SearchConfig,
    _draw_block,
    _draw_rows,
    exhaustive_search,
    random_search,
)
from zqhash.statevec import apply_controlled_ry, apply_h, zero_state
from zqhash.verification import _chunk_gaps, _chunk_states, check_inner_products


def _residues(q, count, seed):
    rng = random.Random(seed)
    return tuple(rng.randrange(q) for _ in range(count))


def test_bias_sweep(benchmark):
    # The bias-sweep workload's request: |B| = 200 at q = 65537.
    biased = BiasedSet(65537, _residues(65537, 200, 1))
    report = benchmark(epsilon_of_biased_set, biased)
    assert report.values.shape == (65536,)


def test_bias_sweep_composite(benchmark):
    # The same size at composite q = 65536, which sweeps on the table loop.
    biased = BiasedSet(65536, _residues(65536, 200, 1))
    report = benchmark(epsilon_of_biased_set, biased)
    assert report.values.shape == (65535,)


def test_collision_resistance(benchmark):
    # The resist-wide workload's sweep: 6 parameters at q = 2**17.
    params = ParamSet(1 << 17, _residues(1 << 17, 6, 2))
    report = benchmark(collision_resistance, params, HashForm.SHALLOW)
    assert report.values.shape == ((1 << 17) - 1,)


def test_derive_biased_set(benchmark):
    # All 2**18 subset sums of 18 parameters.
    params = ParamSet(65537, _residues(65537, 18, 3))
    biased = benchmark(derive_biased_set, params)
    assert biased.size == 1 << 18


def test_verify_one_pass(benchmark):
    # The verify-sim workload's Gram checks: q = 2..32, 5 sets each, n <= 5.
    results = benchmark(check_inner_products, range(2, 33), 5, 5)
    assert all(result.passed for result in results)


def test_verify_largest_set(benchmark):
    # The largest single set verify accepts: q = 1,144 at n_max = 1 and
    # one trial, whose q x q Grams and closed forms fill the chunk.
    results = benchmark(check_inner_products, [1144], 1, 1)
    assert all(result.passed for result in results)


def test_verify_wide_chunks(benchmark):
    # Sets whose Grams are wide: q = 560..600 at n <= 2, each over the
    # chunk's bound on Gram cells, so each runs in a chunk of its own.
    results = benchmark(check_inner_products, range(560, 601), 1, 2)
    assert all(result.passed for result in results)


@pytest.mark.parametrize("order", ["F", "C"], ids=["amplitude_major", "row_major"])
def test_gate_kernel(benchmark, order):
    # One controlled Ry with per-row angles on a (527, 64) batch: the rows
    # of every q = 2..32 set of one width in verify-sim's shallow run,
    # stored as zero_state stores a batch, or row by row.
    state = zero_state(6, batch=527)
    state.amplitudes = np.asarray(state.amplitudes, order=order)
    for qubit in range(5):
        apply_h(state, qubit)
    angles = np.random.default_rng(5).uniform(0.0, 4.0 * np.pi, size=527)
    state = benchmark(apply_controlled_ry, state, [(2, 1)], 5, angles)
    assert state.amplitudes.shape == (527, 64)
    assert state.amplitudes.flags[f"{order}_CONTIGUOUS"]


def _verify_sim_chunk():
    # One size group at verify-sim's shape: 31 sets of 5 parameters, one
    # per q = 2..32, so each circuit has 527 batch rows.
    q = np.arange(2, 33)
    return np.random.default_rng(6).integers(0, q[:, None], size=(31, 5)), q


def test_block_circuits(benchmark):
    # The three circuits of that chunk, each rotation with its angles.
    circuits = benchmark(_block_circuits, *_verify_sim_chunk())
    rotations = circuits[1][5:] + circuits[2]
    assert [len(ops) for ops in circuits] == [5, 10, 6]
    assert {op.angle.shape for op in rotations} == {(527,)}


def test_chunk_states(benchmark):
    # That chunk's single-qubit, shallow and sum-qubit batches.
    states = benchmark(_chunk_states, *_verify_sim_chunk())
    assert [state.amplitudes.shape for state in states] == [
        (527, 32),
        (527, 64),
        (527, 64),
    ]


def test_chunk_gaps(benchmark):
    # That chunk's Gram pass: its states, closed forms and identity check,
    # and each Gram compared as it is made.
    gaps, breaks = benchmark(_chunk_gaps, *_verify_sim_chunk())
    assert max(gaps) < 1e-10
    assert breaks.size == 0


def test_draw_sets(benchmark):
    # verify-sim's parameter sets: 5 for each q = 2..32, of sizes 1..5,
    # drawn as one block.
    q = np.repeat(np.arange(2, 33), 5)
    index = np.tile(np.arange(5, dtype=np.uint64), 31)
    span = q.astype(np.uint64)
    sizes, factors = benchmark(_draw_rows, (12345, q), index, span, 5, True)
    assert factors.shape == (155, 5) and 1 <= sizes.min() <= sizes.max() <= 5


def test_dumps_report(benchmark):
    # The resist-wide document: a 2**17 per-x table.
    params = ParamSet(1 << 17, _residues(1 << 17, 6, 2))
    report = collision_resistance(params, HashForm.SHALLOW)
    document = {"command": "resist", "outputs": _report_outputs(report)}
    text = benchmark(dumps_report, document)
    assert text.count("], [") == (1 << 17) - 2


def test_write_table(benchmark):
    # The resist-wide document written as it renders, into a writer that
    # drops its input: no whole text is made.
    params = ParamSet(1 << 17, _residues(1 << 17, 6, 2))
    report = collision_resistance(params, HashForm.SHALLOW)
    document = {"command": "resist", "outputs": _report_outputs(report)}
    written = []

    def write():
        written.clear()
        for piece in render_report(document):
            written.append(len(piece))

    benchmark(write)
    assert sum(written) > 4_000_000 and len(written) == 33


def test_write_floats_block(benchmark):
    # One 4,096-row block of the resist-wide table through the float kernel
    # alone: test_write_table less the x column, the NUL removal and the
    # decode.
    params = ParamSet(1 << 17, _residues(1 << 17, 6, 2))
    block = collision_resistance(params, HashForm.SHALLOW).values[:_BLOCK_ROWS]
    out = np.empty((_BLOCK_ROWS, _FIELD), np.uint8)
    benchmark(write_floats, block, out)
    assert [row[row != 0].tobytes().decode() for row in out] == format_floats(block)


def test_dumps_bias_table(benchmark):
    # The bias-sweep workload's document: a 65,536-row table.
    biased = BiasedSet(65537, _residues(65537, 200, 1))
    report = epsilon_of_biased_set(biased)
    document = {"command": "bias", "outputs": _report_outputs(report)}
    text = benchmark(dumps_report, document)
    assert text.count("], [") == 65536 - 1


def test_join_small_floats(benchmark):
    # A 2**17-row table of values log-uniform in [1e-29, 1e-4): every row
    # in exponent notation, as the rows of a resist table below 1e-4 are.
    values = 10.0 ** np.random.default_rng(8).uniform(-29.0, -4.0, 1 << 17)
    text = benchmark(lambda: "".join(join_floats(values, True)))
    assert text.count("e-") == 1 << 17


def test_dumps_small_table(benchmark):
    # The search-small workload's document as the CLI writes it: the
    # winner's 100-row table at q = 101, the history, best_set and epsilon.
    args = _parser().parse_args(["search", "--q", "101", "--n", "4", "--trials", "2000"])
    inputs, outputs = args.func(args)
    document = {
        "schema_version": "1",
        "command": "search",
        "inputs": inputs,
        "outputs": outputs,
        "timing_seconds": 0.0123,
    }
    text = benchmark(dumps_report, document)
    assert len(json.loads(text)["outputs"]["table"]) == 100


def test_format_scalar(benchmark):
    # One float of a document outside a table or array, such as epsilon.
    texts = benchmark(format_floats, (0.5159140289596877,))
    assert texts == ["%.17g" % 0.5159140289596877]


def test_random_search(benchmark):
    # The search-small workload's request: 2,000 trials at q = 101, n = 4.
    config = SearchConfig(q=101, n=4, trials=2000, seed=7)
    result = benchmark(random_search, config, HashForm.SINGLE_QUBIT)
    assert result.trials_run == 2000


@pytest.mark.parametrize(
    "q, n, trials", [(1009, 4, 2000), (10007, 6, 300)], ids=["q1009", "q10007"]
)
def test_random_search_table_loop(benchmark, q, n, trials):
    # Searches on the table loop: 16-row sweep blocks at q = 1009, one row
    # per block at q = 10007.
    config = SearchConfig(q=q, n=n, trials=trials, seed=7)
    result = benchmark(random_search, config, HashForm.SINGLE_QUBIT)
    assert result.trials_run == trials


def test_exhaustive_search(benchmark):
    # Every candidate of [1, 257)**2 in lexicographic order, on the table
    # loop: 65,536 candidates in 64-row sweep blocks and up.
    result = benchmark(exhaustive_search, 257, 2, HashForm.SINGLE_QUBIT)
    assert result.trials_run == 256**2


def _draw_sweep(q, n, with_sum):
    # A search's sweep of one 4,096-row draw at q, every row over every
    # difference, as a scan sweeps the rows no window prunes: the cosine
    # table, the square where the scan reads it, and every block's row
    # maxima, in chunks of as many rows as the buffers hold. Returns the
    # size of each block.
    drawn = _draw_block(7, q, n, 0, 4096)
    window = max(1, (q - 1) // 4)

    def sweep():
        blocks = _closed_sweeps(q, with_sum, [drawn], len(drawn), window)
        return [maxima(block, q - 1).size for _, block, maxima in blocks]

    return sweep


def _squares_read(sweep):
    # The squares one more, untimed, run of `sweep` asks for: one a scan at
    # q <= 256, which the timed runs built once and then read as kept.
    with mock.patch.object(
        analysis, "_cosine_square", wraps=analysis._cosine_square
    ) as square:
        sweep()
    return square.call_count


def test_search_block_sweep(benchmark):
    # search-small's sweep of one draw: 4,096 candidates of 4 parameters at
    # q = 101 in 163-row blocks, every nonzero difference, read from the
    # scan's square.
    sweep = _draw_sweep(101, 4, False)
    sizes = benchmark(sweep)
    assert _squares_read(sweep) == 1 and sizes[0] == 163


def test_search_block_sweep_square_switch(benchmark):
    # The largest modulus whose scan reads the cosine square: 64-row
    # blocks, six parameters and the sum factor.
    sweep = _draw_sweep(256, 6, True)
    sizes = benchmark(sweep)
    assert _squares_read(sweep) == 1 and sizes[0] == 64


def test_search_block_sweep_past_switch(benchmark):
    # One modulus up, whose 64-row blocks run the table loop.
    sweep = _draw_sweep(257, 6, True)
    sizes = benchmark(sweep)
    assert _squares_read(sweep) == 0 and sizes[0] == 64


# Each kind of table kept per modulus, at the workload that reads it: the
# cosine table of resist-wide, search-small's square, the log tables of
# bias-sweep and the roots of a composite bias sweep.
_TABLES = [
    ("_cosine_table", 131072),
    ("_cosine_square", 101),
    ("_log_tables", 65537),
    ("_roots", 65536),
]


@pytest.mark.parametrize("name, q", _TABLES)
def test_table_cold(benchmark, name, q):
    # A build with no table kept, as a process's first call at q pays; the
    # square's includes the cosine table it is built from.
    table = getattr(analysis, name)
    benchmark.pedantic(table, args=(q,), setup=analysis._kept_tables.clear, rounds=30)
    assert analysis._kept_tables[name][0] == q


@pytest.mark.parametrize("name, q", _TABLES)
def test_table_warm(benchmark, name, q):
    # A later call at the same q: the lookup of the kept table.
    table = getattr(analysis, name)
    analysis._kept_tables.clear()
    kept = table(q)
    assert benchmark(table, q) is kept


def test_draw_block(benchmark):
    # The candidate stream of that request: 2,000 trials in one block.
    block = benchmark(_draw_block, 7, 101, 4, 0, 2000)
    assert block.shape == (2000, 4)


def test_draw_block_with_rejections(benchmark):
    # A whole draw at q = 1048323, where 2**32 mod (q - 1) is 99 % of
    # q - 1: eight of its 4,096 rows reject one of their first four words
    # and take a further column from the stream, so the draw runs on to
    # six words and sorts those rows.
    block = benchmark(_draw_block, 0, 1048323, 4, 0, 4096)
    assert block.shape == (4096, 4)
