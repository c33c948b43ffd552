"""Span recorder for the traced run.

The benchmark does not edit the program. It times each layer by replacing
the name a caller looks up, at every site where a layer's public function
is imported or called through a module global, with a wrapper that records
a span, and it puts the original back when the traced phase ends.

A span is (name, start, end, parent span, request id, bytes), with times
from `perf_counter_ns`. Spans stay in memory, in flat integer arrays, and
are written to one file when the run ends. A layer's self time is its
span's duration minus the durations of its child spans; the program is
single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from zqhash import analysis, cli, hashing, search, statevec, verification

from oracle import without_timing

GATES = ("apply_h", "apply_ry", "apply_controlled_ry", "apply_ucr")
CIRCUITS = (
    "standard_hash_circuit",
    "shallow_hash_circuit",
    "single_qubit_hash_circuit",
)
CHECKS = (
    "ucr_decomposition",
    "single_qubit_inner_product",
    "shallow_inner_product",
    "resistance_equivalence",
)

# (owner, attribute, span name). The owner is the module whose global the
# caller reads at call time, so one function gets one site per importer.
SITES: tuple[tuple[object, str, str], ...] = (
    (cli, "parse_residues", "cli.parse_residues"),
    (cli, "dumps_report", "cli.dumps_report"),
    (analysis.ResistanceReport, "table", "analysis.table"),
    (cli, "epsilon_of_biased_set", "analysis.epsilon_of_biased_set"),
    (cli, "collision_resistance", "analysis.collision_resistance"),
    (search, "collision_resistance", "analysis.collision_resistance"),
    (verification, "collision_resistance", "analysis.collision_resistance"),
    (cli, "random_search", "search.random_search"),
    (search, "draw_candidate", "search.draw_candidate"),
    *((statevec, name, "statevec.gates") for name in GATES),
    *((verification, name, "statevec.gates") for name in GATES[1:]),
    (hashing, "run_circuit", "statevec.run_circuit"),
    (verification, "run_circuit", "statevec.run_circuit"),
    (verification, "scale_angles", "statevec.scale_angles"),
    *((hashing, name, "hashing.circuit_build") for name in CIRCUITS),
    *((verification, name, "hashing.circuit_build") for name in CIRCUITS[1:]),
    *((verification, f"check_{name}", f"verification.{name}") for name in CHECKS),
)


def _document_bytes(text: str) -> int:
    # Without timing_seconds, whose printed width varies from run to run.
    return len(without_timing(text).encode())


# Spans whose return value is measured, and how.
SIZES: dict[str, Callable[[str], int]] = {"cli.dumps_report": _document_bytes}


class SpanRecorder:
    """Spans of one traced run, in memory until `write`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = tuple(array("q") for _ in range(6))
        self.request = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.columns[0])

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn`, recording one span named `name` per call."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        size = SIZES.get(name)
        name_col, start_col, end_col, parent_col, request_col, bytes_col = self.columns
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_col)
            name_col.append(code)
            parent_col.append(stack[-1] if stack else -1)
            request_col.append(self.request)
            end_col.append(0)
            bytes_col.append(0)
            stack.append(index)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()
            if size is not None:
                bytes_col[index] = size(result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, self time in ns, and bytes."""
        names, start, end, parent, _, nbytes = self.columns
        child = [0] * len(self)
        for index, up in enumerate(parent):
            if up >= 0:
                child[up] += end[index] - start[index]
        out = {name: {"calls": 0, "self_ns": 0, "bytes": 0} for name in self.names}
        for index, code in enumerate(names):
            entry = out[self.names[code]]
            entry["calls"] += 1
            entry["self_ns"] += end[index] - start[index] - child[index]
            entry["bytes"] += nbytes[index]
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Spans named `name` whose parent span is named `parent_name`."""
        if name not in self.names or parent_name not in self.names:
            return 0
        code, parent_code = self.names.index(name), self.names.index(parent_name)
        names, parent = self.columns[0], self.columns[3]
        return sum(
            1
            for code_here, up in zip(names, parent)
            if code_here == code and up >= 0 and names[up] == parent_code
        )

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request calls and self seconds of every traced layer, bytes
        of those in SIZES, and the search's full sweeps per candidate."""
        metrics: dict[str, float] = {}
        totals = self.totals()
        for name in dict.fromkeys(site[2] for site in SITES):
            entry = totals.get(name, {"calls": 0, "self_ns": 0, "bytes": 0})
            metrics[f"{name}.calls"] = entry["calls"] / requests
            metrics[f"{name}.self_s"] = entry["self_ns"] / 1e9 / requests
            if name in SIZES:
                metrics[f"{name}.bytes"] = entry["bytes"] / requests
        drawn = totals.get("search.draw_candidate", {"calls": 0})["calls"]
        swept = self.child_calls(
            "analysis.collision_resistance", "search.random_search"
        )
        metrics["search.sweeps_per_candidate"] = swept / drawn if drawn else 0.0
        return metrics

    def write(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "request", "bytes")
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "columns": {
                        field: column.tolist()
                        for field, column in zip(fields, self.columns)
                    },
                }
            )
        )


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[list[str]]:
    """Wrap every site for the body of the `with`, then restore the
    originals. Yields the sites the program no longer has."""
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for owner, attribute, name in SITES:
            original = getattr(owner, attribute, None)
            if original is None:
                missing.append(f"{owner.__name__}.{attribute}")
                continue
            setattr(owner, attribute, recorder.wrap(name, original))
            saved.append((owner, attribute, original))
        yield missing
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
