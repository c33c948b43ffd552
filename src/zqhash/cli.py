"""Command-line front end.

Every command emits one JSON report document with the same top-level
shape: schema_version, command, inputs, outputs, timing_seconds. Floats
are printed as `%.17g` prints them, with ".0" appended to an integral
value that shows no exponent (see `floattext`), so documents from
identical inputs are byte-identical apart from the timing field. Exit
codes: 0 on success, 1 when a verification check fails, 2 on bad input.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    ResistanceReport,
    bias,
    collision_resistance,
    epsilon_of_biased_set,
)
from .floattext import format_floats, join_floats
from .hashing import (
    BiasedSet,
    HashForm,
    ParamSet,
    _check_int,
    build_shallow_hash,
    build_single_qubit_hash,
    build_standard_hash,
    derive_biased_set,
)
from .search import SearchConfig, random_search
from .verification import DEFAULT_SEED, run_all_checks

SCHEMA_VERSION = "1"

REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["schema_version", "command", "inputs", "outputs", "timing_seconds"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["hash", "bias", "resist", "search", "verify"]},
        "inputs": {"type": "object"},
        "outputs": {"type": "object"},
        "timing_seconds": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}


class _Table(NamedTuple):
    """A per-x table: `values[i]` belongs to x = i + 1. Serialized as
    [[1, v1], [2, v2], ...] by `join_floats`."""

    values: np.ndarray


def _fragment(value: Any, indent: int, parts: list[str]) -> None:
    # Appends the text of `value` to `parts`, so a large table's text is
    # copied once, by the one join in dumps_report.
    if isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(format_floats((value,))[0])
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif value is None:
        parts.append("null")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        pad = "  " * (indent + 1)
        separator = "{\n"
        for key, item in value.items():
            parts.append(f"{separator}{pad}{json.dumps(str(key))}: ")
            _fragment(item, indent + 1, parts)
            separator = ",\n"
        parts.append("\n" + "  " * indent + "}")
    elif isinstance(value, np.ndarray):
        parts.append(join_floats(value, indexed=False))
    elif isinstance(value, _Table):  # before the tuple branch: a _Table is one
        parts.append(join_floats(value.values, indexed=True))
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for index, item in enumerate(value):
            if index:
                parts.append(", ")
            _fragment(item, indent, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(document: dict[str, Any]) -> str:
    """Serialize a report document deterministically, floats at 17
    significant digits, keys in insertion order."""
    parts: list[str] = []
    _fragment(document, 0, parts)
    parts.append("\n")
    return "".join(parts)


def parse_residues(text: str) -> list[int]:
    """Parse a residue list given inline ("1,2,3") or as a file path whose
    content is integers separated by commas or whitespace."""
    source = text
    path = Path(text)
    try:
        if path.is_file():
            source = path.read_text()
    except UnicodeDecodeError:
        raise ValueError(f"could not read {text} as text") from None
    except OSError:
        pass
    tokens = source.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"no integers found in {text!r}")
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise ValueError(f"could not parse {text!r} as an integer list") from None


class _Command:
    """Shared emit plumbing; subcommand handlers return an exit code."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.perf_counter()

    def warn(self, message: str) -> None:
        if not self.args.quiet:
            print(f"warning: {message}", file=sys.stderr)

    def emit(self, command: str, inputs: dict, outputs: dict) -> None:
        body = dumps_report(
            {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "inputs": inputs,
                "outputs": outputs,
            }
        )
        # Read after rendering, so the field covers everything but itself;
        # it goes last, as one more top-level key in dumps_report's layout.
        seconds = format_floats((time.perf_counter() - self.started,))[0]
        text = body[: -len("\n}\n")] + f',\n  "timing_seconds": {seconds}\n}}\n'
        if self.args.out:
            try:
                Path(self.args.out).write_text(text)
            except OSError as exc:
                raise ValueError(
                    f"cannot write {self.args.out}: {exc.strerror}"
                ) from None
            if not self.args.quiet:
                print(f"wrote {self.args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)


def _ingest(command: _Command, kind: type, q: int, raw: list[int], noun: str) -> Any:
    hash_set = kind(q, tuple(raw))
    if list(hash_set.elements) != raw:
        command.warn(f"{noun} reduced mod {q} to {list(hash_set.elements)}")
    return hash_set


def _report_outputs(report: ResistanceReport) -> dict[str, Any]:
    return {
        "epsilon": report.epsilon,
        "worst_x": report.worst_x,
        "table": _Table(report.values),
    }


def cmd_hash(args: argparse.Namespace) -> int:
    command = _Command(args)
    form = HashForm(args.form)
    _check_int(args.q, "modulus")
    _check_int(args.x, "x", 0, args.q - 1, f"[0, q) with q={args.q}")
    if form is not HashForm.STANDARD and args.b is not None:
        raise ValueError(f"--b only applies to the standard form, not {form.value}")
    inputs: dict[str, Any] = {"form": form.value, "q": args.q, "x": args.x}
    if form is HashForm.STANDARD and args.b is not None:
        if args.s is not None:
            raise ValueError("give either --s or --b, not both")
        raw = parse_residues(args.b)
        inputs["b"] = raw
        biased = _ingest(command, BiasedSet, args.q, raw, "residues")
        state = build_standard_hash(biased, args.x)
        set_info: dict[str, Any] = {"biased_set": list(biased.elements)}
    else:
        if args.s is None:
            raise ValueError(f"the {form.value} form needs --s (or --b for standard)")
        raw = parse_residues(args.s)
        inputs["s"] = raw
        params = _ingest(command, ParamSet, args.q, raw, "parameters")
        if form is HashForm.STANDARD:
            biased = derive_biased_set(params)
            state = build_standard_hash(biased, args.x)
            set_info = {
                "parameters": list(params.elements),
                "biased_set": list(biased.elements),
            }
        elif form is HashForm.SHALLOW:
            state = build_shallow_hash(params, args.x)
            set_info = {"parameters": list(params.elements)}
        else:
            inputs["sum_qubit"] = args.sum_qubit == "on"
            state = build_single_qubit_hash(
                params, args.x, include_sum_qubit=args.sum_qubit == "on"
            )
            set_info = {"parameters": list(params.elements)}
    outputs = {
        "form": form.value,
        **set_info,
        "num_qubits": state.num_qubits,
        "amplitudes": state.amplitudes,
    }
    command.emit("hash", inputs, outputs)
    return 0


def cmd_bias(args: argparse.Namespace) -> int:
    command = _Command(args)
    raw = parse_residues(args.b)
    inputs: dict[str, Any] = {"q": args.q, "b": raw}
    biased = _ingest(command, BiasedSet, args.q, raw, "residues")
    if args.x is not None:
        inputs["x"] = args.x
        value = bias(biased, args.x)
        outputs: dict[str, Any] = {
            "mode": "single-x",
            "biased_set": list(biased.elements),
            "x": args.x,
            "bias": value,
        }
        if args.x == 0:
            command.warn("bias at x=0 is always 1; epsilon excludes x=0")
            outputs["note"] = "x=0 always has bias 1 and is excluded from epsilon"
    else:
        report = epsilon_of_biased_set(biased)
        outputs = {
            "mode": "sweep",
            "biased_set": list(biased.elements),
            **_report_outputs(report),
        }
    command.emit("bias", inputs, outputs)
    return 0


def cmd_resist(args: argparse.Namespace) -> int:
    command = _Command(args)
    form = HashForm(args.form)
    raw = parse_residues(args.s)
    inputs = {
        "q": args.q,
        "s": raw,
        "form": form.value,
        "sum_qubit": args.sum_qubit == "on",
    }
    params = _ingest(command, ParamSet, args.q, raw, "parameters")
    report = collision_resistance(
        params, form, include_sum_qubit=args.sum_qubit == "on"
    )
    outputs = {
        "form": form.value,
        "parameters": list(params.elements),
        **_report_outputs(report),
    }
    command.emit("resist", inputs, outputs)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    command = _Command(args)
    form = HashForm(args.form)
    config = SearchConfig(
        q=args.q,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        target_epsilon=args.target_epsilon,
    )
    inputs = {
        "q": args.q,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "target_epsilon": args.target_epsilon,
        "form": form.value,
        "sum_qubit": args.sum_qubit == "on",
    }
    result = random_search(config, form, include_sum_qubit=args.sum_qubit == "on")
    outputs = {
        "form": form.value,
        "best_set": list(result.best_set.elements),
        "trials_run": result.trials_run,
        "history": result.history,
        **_report_outputs(result.report),
    }
    command.emit("search", inputs, outputs)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    command = _Command(args)
    results = run_all_checks(
        q_max=args.q_max, n_max=args.n_max, seed=args.seed, trials=args.trials
    )
    inputs = {
        "q_max": args.q_max,
        "n_max": args.n_max,
        "seed": args.seed,
        "trials": args.trials,
    }
    outputs = {
        "checks": [
            {
                "name": result.name,
                "passed": result.passed,
                "max_deviation": result.max_deviation,
                "detail": result.detail,
            }
            for result in results
        ],
        "all_passed": all(result.passed for result in results),
    }
    command.emit("verify", inputs, outputs)
    return 0 if outputs["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqhash",
        description="Hash states over the residues mod q: build, analyze, search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the report here")
    common.add_argument(
        "--quiet", action="store_true", help="suppress warnings and notes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hash = sub.add_parser(
        "hash", parents=[common], help="build one hash state and dump amplitudes"
    )
    p_hash.add_argument("--q", type=int, required=True, help="modulus")
    p_hash.add_argument(
        "--form",
        required=True,
        choices=[form.value for form in HashForm],
        help="construction to use",
    )
    p_hash.add_argument("--s", help="parameter set, inline or a file path")
    p_hash.add_argument(
        "--b", help="explicit residue set (standard form), inline or a file path"
    )
    p_hash.add_argument("--x", type=int, required=True, help="input residue")
    p_hash.add_argument(
        "--sum-qubit",
        choices=["on", "off"],
        default="off",
        help="append the sum-parameter qubit (single-qubit form)",
    )
    p_hash.set_defaults(func=cmd_hash)

    p_bias = sub.add_parser(
        "bias", parents=[common], help="bias of a residue set, one x or a sweep"
    )
    p_bias.add_argument("--q", type=int, required=True, help="modulus")
    p_bias.add_argument(
        "--b", required=True, help="residue set, inline or a file path"
    )
    p_bias.add_argument(
        "--x", type=int, help="single point; omit for the full sweep"
    )
    p_bias.set_defaults(func=cmd_bias)

    p_resist = sub.add_parser(
        "resist",
        parents=[common],
        help="certified collision resistance of a parameter set",
    )
    p_resist.add_argument("--q", type=int, required=True, help="modulus")
    p_resist.add_argument(
        "--s", required=True, help="parameter set, inline or a file path"
    )
    p_resist.add_argument(
        "--form",
        choices=[form.value for form in HashForm],
        default=HashForm.SINGLE_QUBIT.value,
        help="construction to certify",
    )
    p_resist.add_argument(
        "--sum-qubit",
        choices=["on", "off"],
        default="off",
        help="append the sum-parameter qubit (single-qubit form)",
    )
    p_resist.set_defaults(func=cmd_resist)

    p_search = sub.add_parser(
        "search", parents=[common], help="random search for a low-epsilon set"
    )
    p_search.add_argument("--q", type=int, required=True, help="modulus")
    p_search.add_argument(
        "--n", type=int, required=True, help="parameters per candidate"
    )
    p_search.add_argument(
        "--trials", type=int, default=100, help="candidates to examine"
    )
    p_search.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="search seed"
    )
    p_search.add_argument(
        "--target-epsilon",
        type=float,
        help="stop early at or below this epsilon",
    )
    p_search.add_argument(
        "--form",
        choices=[form.value for form in HashForm],
        default=HashForm.SINGLE_QUBIT.value,
        help="construction to certify",
    )
    p_search.add_argument(
        "--sum-qubit",
        choices=["on", "off"],
        default="off",
        help="append the sum-parameter qubit (single-qubit form)",
    )
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the simulator self-checks"
    )
    p_verify.add_argument(
        "--q-max", type=int, default=64, help="largest modulus to sweep"
    )
    p_verify.add_argument(
        "--n-max", type=int, default=5, help="largest parameter count"
    )
    p_verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="sweep seed"
    )
    p_verify.add_argument(
        "--trials", type=int, default=5, help="random sets per modulus"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
