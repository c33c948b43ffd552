"""A fixed computation timed between requests: the speed of the machine
while a run measures.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent from one half-minute to the next, visible in process CPU time as
much as in wall time. Timing this computation right before and right after
each request measures that speed where the request ran, and a request's
wall time divided by the mean of the two is its cost in reference units,
which cancels most of the drift. The computation uses no zqhash code, so
no change to the program can change it; its mix (Python integer loop,
numpy on 101 and 2**17 elements, JSON encoding of floats) follows the
kinds of work the workloads do. One unit takes 4 to 6 ms on a 2.1 GHz
Xeon core.
"""
from __future__ import annotations

import json
import time

import numpy

_SMALL = numpy.arange(101, dtype=float)
_LARGE = numpy.arange(1 << 17, dtype=float)
_FLOATS = [i / 7 for i in range(2000)]


def _unit() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    for _ in range(60):
        numpy.cos(_SMALL * 0.5).max()
    numpy.cos(_LARGE * 0.001).max()
    json.dumps(_FLOATS)
    return total


def reference_seconds(units: int) -> float:
    """Wall seconds one unit took, timed over `units` units in a row."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units
