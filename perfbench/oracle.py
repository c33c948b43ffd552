"""Output checks for every benchmark request, against a pure-Python oracle.

The CLI computes with numpy; the oracle recomputes sampled table entries
from Python ints reduced exactly before any float operation, so it shares
no arithmetic with the program. Each check returns a list of failure
messages; an empty list means the document is correct.
"""
from __future__ import annotations

import cmath
import math
import random
import re

# Bound at import, before a traced run wraps the module global, so the
# replay check records no spans.
from zqhash.search import draw_candidate

ORACLE_TOL = 1e-9
VERIFY_TOL = 1e-10
ORACLE_SAMPLES = 32
VERIFY_CHECKS = (
    "ucr_decomposition",
    "single_qubit_inner_product",
    "shallow_inner_product",
    "resistance_equivalence",
)

# dumps_report joins top-level keys with ",\n" at an indent of two spaces.
_TIMING_FIELD = re.compile(r',\n  "timing_seconds": [^\n]*')


def without_timing(text: str) -> str:
    """A report document with its `timing_seconds` field removed: the part
    that identical inputs must reproduce byte for byte."""
    return _TIMING_FIELD.sub("", text, count=1)


def flags(argv: list[str]) -> dict[str, str]:
    """`--name value` pairs of a subcommand argv."""
    return dict(zip(argv[1::2], argv[2::2]))


def cosine_product(q: int, factors: list[int], x: int) -> float:
    """|prod_s cos(pi * (s * x mod 2q) / q)|, the closed-form inner product
    of two hash states whose difference is x."""
    value = 1.0
    for s in factors:
        value *= math.cos(math.pi * ((s * x) % (2 * q)) / q)
    return abs(value)


def phase_mean(q: int, residues: list[int], x: int) -> float:
    """|mean_b exp(2 pi i (b * x mod q) / q)|, the bias of B at x."""
    total = sum(cmath.exp(2j * math.pi * ((b * x) % q) / q) for b in residues)
    return abs(total) / len(residues)


def _check_table(q, outputs, oracle, rng: random.Random) -> list[str]:
    table = outputs["table"]
    if [row[0] for row in table] != list(range(1, q)):
        return ["table rows are not x = 1 .. q-1 in order"]
    values = [row[1] for row in table]
    top = max(values)
    failures = []
    if outputs["epsilon"] != top:
        failures.append(f"epsilon {outputs['epsilon']!r} != table max {top!r}")
    worst_x = values.index(top) + 1
    if outputs["worst_x"] != worst_x:
        failures.append(f"worst_x {outputs['worst_x']} != first argmax {worst_x}")
    probes = [worst_x] + [rng.randrange(1, q) for _ in range(ORACLE_SAMPLES - 1)]
    for x in probes:
        expected = oracle(x)
        if abs(values[x - 1] - expected) > ORACLE_TOL:
            failures.append(f"table[{x}] = {values[x - 1]!r}, oracle {expected!r}")
    return failures


def check_resist(argv, document, rng) -> list[str]:
    given = flags(argv)
    q = int(given["--q"])
    params = [int(s) % q for s in given["--s"].split(",")]
    outputs = document["outputs"]
    if outputs["parameters"] != params:
        return [f"parameters {outputs['parameters']} != {params}"]
    # The workload certifies the shallow form, whose inner product carries
    # one more factor, for the sum of S.
    factors = params + [sum(params)]
    return _check_table(q, outputs, lambda x: cosine_product(q, factors, x), rng)


def check_bias(argv, document, rng) -> list[str]:
    given = flags(argv)
    q = int(given["--q"])
    residues = [int(b) % q for b in given["--b"].split(",")]
    outputs = document["outputs"]
    if outputs["biased_set"] != residues:
        return ["biased_set differs from the --b residues"]
    return _check_table(q, outputs, lambda x: phase_mean(q, residues, x), rng)


def check_search(argv, document, rng) -> list[str]:
    given = flags(argv)
    q, n = int(given["--q"]), int(given["--n"])
    seed, trials = int(given["--seed"]), int(given["--trials"])
    outputs = document["outputs"]
    failures = []
    if outputs["trials_run"] != trials:
        failures.append(f"trials_run {outputs['trials_run']} != {trials}")
    last_trial, last_epsilon = outputs["history"][-1]
    replay = list(draw_candidate(seed, last_trial, q, n))
    if outputs["best_set"] != replay:
        failures.append(
            f"best_set {outputs['best_set']} != draw_candidate replay {replay}"
        )
    if last_epsilon != outputs["epsilon"]:
        failures.append("last history epsilon differs from the certified one")
    best = outputs["best_set"]
    return failures + _check_table(
        q, outputs, lambda x: cosine_product(q, best, x), rng
    )


def check_verify(argv, document, rng) -> list[str]:
    outputs = document["outputs"]
    failures = []
    if outputs["all_passed"] is not True:
        failures.append("all_passed is not true")
    names = tuple(result["name"] for result in outputs["checks"])
    if names != VERIFY_CHECKS:
        failures.append(f"checks {names} != {VERIFY_CHECKS}")
    for result in outputs["checks"]:
        if not result["max_deviation"] <= VERIFY_TOL:
            failures.append(
                f"{result['name']} deviation {result['max_deviation']!r} > {VERIFY_TOL}"
            )
    return failures


CHECKS = {
    "resist": check_resist,
    "bias": check_bias,
    "search": check_search,
    "verify": check_verify,
}


def check(argv: list[str], document: dict, rng: random.Random) -> list[str]:
    """Failures found in one request's document; `rng` picks the residues
    the oracle samples besides worst_x."""
    if document.get("command") != argv[0]:
        return [f"document command {document.get('command')!r} != {argv[0]!r}"]
    return CHECKS[argv[0]](argv, document, rng)
