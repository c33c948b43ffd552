"""Command-line front end.

Each `cmd_*` handler returns the inputs and outputs of its report, and
`main`, the one emit path, renders them into one JSON document with the
same top-level shape for every command: schema_version, command, inputs,
outputs, timing_seconds. Floats are printed as `%.17g` prints them, with
".0" appended to an integral value that shows no exponent (see
`floattext`), so documents from identical inputs are byte-identical apart
from the timing field. The document is written as it renders, a table or
array one block at a time, once every value in it has been checked.
Exit codes: 0 on success, 1 when a verification check fails, 2 on bad
input or a failed write.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator, NamedTuple, TextIO

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
    _MODULUS_SPAN,
    _check_int,
    build_hash,
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


class _Elapsed(NamedTuple):
    """The seconds since `started`, read when the document renders it."""

    started: float


def _fragment(value: Any, indent: int, parts: list) -> None:
    # Appends the text of `value` to `parts`: a str for each small piece,
    # an iterator of block texts for each table or array (every value
    # checked when it is appended), and the _Elapsed itself, rendered when
    # it is written.
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
    elif isinstance(value, _Elapsed):  # so is an _Elapsed
        parts.append(value)
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for index, item in enumerate(value):
            if index:
                parts.append(", ")
            _fragment(item, indent, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(document: dict[str, Any]) -> Iterator[str]:
    """The text of a report document, in the pieces it is written in:
    the small parts before each block of a table or array joined to that
    block, and the rest after the last block. Every value is checked
    before the first piece is handed out, so a refused value raises
    ValueError with nothing written. An _Elapsed is read when its piece
    renders, after every earlier piece has been written."""
    parts: list = []
    _fragment(document, 0, parts)
    parts.append("\n")
    pending: list[str] = []
    for part in parts:
        if isinstance(part, _Elapsed):
            part = format_floats((time.perf_counter() - part.started,))[0]
        if isinstance(part, str):
            pending.append(part)
            continue
        for block in part:
            pending.append(block)
            yield "".join(pending)
            pending = []
    yield "".join(pending)


def dumps_report(document: dict[str, Any]) -> str:
    """Serialize a report document deterministically, floats at 17
    significant digits, keys in insertion order: the pieces of
    `render_report`, joined."""
    return "".join(render_report(document))


def _write(file: TextIO, pieces: Iterator[str]) -> None:
    # The one loop that writes a document, to stdout or to --out's file.
    for piece in pieces:
        file.write(piece)


def _write_out(path: str, pieces: Iterator[str]) -> None:
    # Writes as `> PATH` does, through any links, except that a regular
    # file, or a new one, is written whole into a new file beside the
    # target and moved over it, so a failed write leaves PATH as it was;
    # the new file is then removed. It takes the old file's permission
    # bits and owner (hard links to the old file keep the old text); its
    # name is random and it is opened with "x", so it is never an existing
    # file. Where that new file cannot be made, or given the old owner (a
    # read-only directory, another user's file, a name too long to extend),
    # PATH is written in place. So is anything else, a FIFO, device or
    # socket; and a directory, or a name in a missing one ("new/",
    # "missing/x"), whose open fails as `> PATH` does.
    try:
        old = os.stat(path)
        replace = stat.S_ISREG(old.st_mode)
    except FileNotFoundError:
        old = None
        replace = os.path.isdir(os.path.dirname(path) or ".")
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    file = _open_like(temporary, old) if replace else None
    if file is None:
        with open(path, "w") as file:
            _write(file, pieces)
        return
    try:
        with file:
            _write(file, pieces)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _open_like(path: str, old: os.stat_result | None) -> TextIO | None:
    # A new file at `path`, open for writing, with the permission bits and
    # owner of `old`, the file it is to replace, if there is one; or None
    # where the file cannot be made or given them.
    try:
        file = open(path, "x")
    except OSError:
        return None
    try:
        if old is not None:
            os.chmod(path, stat.S_IMODE(old.st_mode))
            os.chown(path, old.st_uid, old.st_gid)
    except OSError:
        file.close()
        os.unlink(path)
        return None
    return file


def parse_residues(text: str) -> list[int]:
    """Parse a residue list given inline ("1,2,3") or as a file path whose
    content is integers separated by commas or whitespace."""
    source = text
    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # a long inline list is too long a name
        is_file = False
    if is_file:
        try:
            source = path.read_text()
        except UnicodeDecodeError:
            raise ValueError(f"could not read {text} as text") from None
        except OSError as exc:
            raise ValueError(f"cannot read {text}: {exc.strerror}") from None
    tokens = source.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"no integers found in {text!r}")
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise ValueError(f"could not parse {text!r} as an integer list") from None


def _stderr(line: str) -> None:
    # Every stderr line goes through here, and a failed write is dropped,
    # so the exit code depends only on the document's destination and on
    # the checks. A stderr closed at startup is None, and print would send
    # the line to stdout, into the document.
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _warn(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        _stderr(f"warning: {message}")


def _ingest(args: argparse.Namespace, kind: type, raw: list[int], noun: str) -> Any:
    hash_set = kind(args.q, tuple(raw))
    if list(hash_set.elements) != raw:
        _warn(args, f"{noun} reduced mod {args.q} to {list(hash_set.elements)}")
    return hash_set


def _form(args: argparse.Namespace) -> tuple[HashForm, bool]:
    # --form, and whether --sum-qubit is on. Only the single-qubit form
    # reads the flag; the shallow and standard states always carry the sum
    # factor, so "on" changes nothing there.
    form, on = HashForm(args.form), args.sum_qubit == "on"
    if on and form is not HashForm.SINGLE_QUBIT:
        _warn(args, f"--sum-qubit on is ignored by the {form.value} form")
    return form, on


def _report_outputs(report: ResistanceReport) -> dict[str, Any]:
    return {
        "epsilon": report.epsilon,
        "worst_x": report.worst_x,
        "table": _Table(report.values),
    }


def cmd_hash(args: argparse.Namespace) -> tuple[dict, dict]:
    form, include_sum_qubit = _form(args)
    _check_int(args.q, "modulus", *_MODULUS_SPAN)
    _check_int(args.x, "x", 0, args.q - 1, f"[0, q) with q={args.q}")
    if form is not HashForm.STANDARD and args.b is not None:
        raise ValueError(f"--b only applies to the standard form, not {form.value}")
    inputs: dict[str, Any] = {"form": form.value, "q": args.q, "x": args.x}
    if args.b is not None:
        if args.s is not None:
            raise ValueError("give either --s or --b, not both")
        raw = parse_residues(args.b)
        inputs["b"] = raw
        hash_set = _ingest(args, BiasedSet, raw, "residues")
        set_info: dict[str, Any] = {"biased_set": list(hash_set.elements)}
    else:
        if args.s is None:
            raise ValueError(f"the {form.value} form needs --s (or --b for standard)")
        raw = parse_residues(args.s)
        inputs["s"] = raw
        hash_set = _ingest(args, ParamSet, raw, "parameters")
        set_info = {"parameters": list(hash_set.elements)}
        if form is HashForm.STANDARD:
            hash_set = derive_biased_set(hash_set)
            set_info["biased_set"] = list(hash_set.elements)
        elif form is HashForm.SINGLE_QUBIT:
            inputs["sum_qubit"] = include_sum_qubit
    state = build_hash(form, hash_set, args.x, include_sum_qubit)
    outputs = {
        "form": form.value,
        **set_info,
        "num_qubits": state.num_qubits,
        "amplitudes": state.amplitudes,
    }
    return inputs, outputs


def cmd_bias(args: argparse.Namespace) -> tuple[dict, dict]:
    raw = parse_residues(args.b)
    inputs: dict[str, Any] = {"q": args.q, "b": raw}
    biased = _ingest(args, BiasedSet, raw, "residues")
    if args.x is None:
        report = epsilon_of_biased_set(biased)
        outputs = {"mode": "sweep", "biased_set": list(biased.elements)}
        return inputs, {**outputs, **_report_outputs(report)}
    inputs["x"] = args.x
    outputs = {
        "mode": "single-x",
        "biased_set": list(biased.elements),
        "x": args.x,
        "bias": bias(biased, args.x),
    }
    if args.x == 0:
        _warn(args, "bias at x=0 is always 1; epsilon excludes x=0")
        outputs["note"] = "x=0 always has bias 1 and is excluded from epsilon"
    return inputs, outputs


def cmd_resist(args: argparse.Namespace) -> tuple[dict, dict]:
    form, include_sum_qubit = _form(args)
    raw = parse_residues(args.s)
    inputs = {"q": args.q, "s": raw, "form": form.value, "sum_qubit": include_sum_qubit}
    params = _ingest(args, ParamSet, raw, "parameters")
    report = collision_resistance(params, form, include_sum_qubit=include_sum_qubit)
    outputs = {
        "form": form.value,
        "parameters": list(params.elements),
        **_report_outputs(report),
    }
    return inputs, outputs


def cmd_search(args: argparse.Namespace) -> tuple[dict, dict]:
    names = ("q", "n", "trials", "seed", "target_epsilon")
    settings = {name: getattr(args, name) for name in names}
    config = SearchConfig(**settings)
    form, include_sum_qubit = _form(args)
    inputs = {**settings, "form": form.value, "sum_qubit": include_sum_qubit}
    result = random_search(config, form, include_sum_qubit=include_sum_qubit)
    outputs = {
        "form": form.value,
        "best_set": list(result.best_set.elements),
        "trials_run": result.trials_run,
        "history": result.history,
        **_report_outputs(result.report),
    }
    return inputs, outputs


def cmd_verify(args: argparse.Namespace) -> tuple[dict, dict]:
    names = ("q_max", "n_max", "seed", "trials")
    inputs = {name: getattr(args, name) for name in names}
    results = run_all_checks(**inputs)
    outputs = {
        "checks": [asdict(result) for result in results],
        "all_passed": all(result.passed for result in results),
    }
    return inputs, outputs


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
    modulus = argparse.ArgumentParser(add_help=False, parents=[common])
    modulus.add_argument("--q", type=int, required=True, help="modulus")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler: Any, summary: str, parent=modulus
    ) -> argparse.ArgumentParser:
        p_command = sub.add_parser(name, parents=[parent], help=summary)
        p_command.set_defaults(func=handler)
        return p_command

    def add_form(p_command: argparse.ArgumentParser, **required_or_default) -> None:
        # --form, then --sum-qubit, which only the single-qubit form reads.
        p_command.add_argument(
            "--form",
            choices=[form.value for form in HashForm],
            help="construction to use",
            **required_or_default,
        )
        p_command.add_argument(
            "--sum-qubit",
            choices=["on", "off"],
            default="off",
            help="append the sum-parameter qubit (single-qubit form)",
        )

    p_hash = command("hash", cmd_hash, "build one hash state and dump amplitudes")
    add_form(p_hash, required=True)
    p_hash.add_argument("--s", help="parameter set, inline or a file path")
    p_hash.add_argument(
        "--b", help="explicit residue set (standard form), inline or a file path"
    )
    p_hash.add_argument("--x", type=int, required=True, help="input residue")

    p_bias = command("bias", cmd_bias, "bias of a residue set, one x or a sweep")
    p_bias.add_argument(
        "--b", required=True, help="residue set, inline or a file path"
    )
    p_bias.add_argument(
        "--x", type=int, help="single point; omit for the full sweep"
    )

    p_resist = command(
        "resist", cmd_resist, "certified collision resistance of a parameter set"
    )
    p_resist.add_argument(
        "--s", required=True, help="parameter set, inline or a file path"
    )
    add_form(p_resist, default=HashForm.SINGLE_QUBIT.value)

    p_search = command("search", cmd_search, "random search for a low-epsilon set")
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
    add_form(p_search, default=HashForm.SINGLE_QUBIT.value)

    p_verify = command(
        "verify", cmd_verify, "run the simulator self-checks", parent=common
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
    return parser


# `main`'s parser, built on its first call and reused, as a build costs
# over ten times a parse. Not built at import, so importing stays cheap.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.out == "":
            raise ValueError("--out needs a path, not the empty string")
        inputs, outputs = args.func(args)
        pieces = render_report(
            {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": inputs,
                "outputs": outputs,
                # Read when rendered, after every other field is written:
                # it covers all the work but the write of its own line.
                "timing_seconds": _Elapsed(started),
            }
        )
        try:
            if args.out is None:
                _write(sys.stdout, pieces)
                sys.stdout.flush()
            else:
                _write_out(args.out, pieces)
        except OSError as exc:
            where = "stdout" if args.out is None else args.out
            raise ValueError(f"cannot write {where}: {exc.strerror}") from None
        if args.out is not None and not args.quiet:
            _stderr(f"wrote {args.out}")
    except ValueError as exc:
        _stderr(f"error: {exc}")
        return 2
    return 1 if outputs.get("all_passed") is False else 0


def entry() -> None:
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError:
            # main has reported a failed stdout write, or dropped a stderr
            # line; send what the stream still holds to the null device, so
            # that exit does not fail on it again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)
