#!/usr/bin/env python3
"""Closed-loop benchmark of the zqhash command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the program from the
checkout's `src/` and drives `zqhash.cli.main(argv)` in process, one client
sending the workload's requests back to back, with each document kept in
memory. Every document is checked against a pure-Python oracle.

--trace 0 times the requests untraced for S seconds, after a short
warm-up, and reports the end-to-end metrics. Before and after each request
it times a fixed reference computation (`reference.py`), and the latency
and throughput it reports are in units of that computation's time, which
cancels most of the drifting speed of a shared host; wall-clock figures are
printed beside them. --trace 1 sends each of a fixed number of requests
twice in a row, untraced and then with every layer wrapped in spans, and
reports per-layer metrics. `--workload all` runs every workload in turn,
each in a fresh interpreter. The last line of output is one JSON object;
the lines before it are for people. Details, the environment and traced
spans are written under `.bench_build/perfbench/`. See perfbench/README.md
for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import reference_seconds
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
WARMUP_S = 1.0
CHILD_TIMEOUT_S = 900

# Runs in a fresh interpreter; prints the seconds it took to import the
# CLI and build its parser.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zqhash.cli
zqhash.cli.build_parser()
print(time.perf_counter() - start)
"""


@dataclass
class Request:
    wall: float
    units: int
    unreported: float
    failures: list[str]
    sha256: str  # of the document without timing_seconds
    reference: float = 0.0  # seconds per reference unit around the request


def serve(
    workload: Workload,
    main: Callable[[list[str]], int],
    argv: list[str],
    rng: random.Random,
) -> Request:
    """Send one request, time it, and check its document; `rng` picks the
    residues the oracle samples."""
    from oracle import check, without_timing

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a broken request is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    failures = []
    if code != 0:
        stderr = err.getvalue()[-300:].strip()
        failures.append(f"exit {code}: {stderr}" if stderr else f"exit {code}")
    text = out.getvalue()
    sha256 = hashlib.sha256(without_timing(text).encode()).hexdigest()
    units, unreported = 0, 0.0
    try:
        document = json.loads(text)
        failures += check(argv, document, rng)
        unreported = wall - document["timing_seconds"]
        if not failures:
            units = workload.units(document)
    except Exception as exc:  # a malformed document is a failed request
        failures.append(f"malformed document: {exc!r}")
    return Request(wall, units, unreported, failures, sha256)


def check_rng(
    workload: Workload, seed: int, index: int, stream: str = ""
) -> random.Random:
    return random.Random(f"{workload.name}/{seed}/check{stream}/{index}")


def output_digest(workload: Workload, requests: list[Request]) -> str:
    """SHA-256 over the document digests of the first `fixed_requests`
    requests: equal for one seed while the CLI output stays byte-identical
    apart from timing_seconds."""
    leading = requests[: workload.fixed_requests]
    return hashlib.sha256("".join(r.sha256 for r in leading).encode()).hexdigest()


def warm_up(
    workload: Workload, seed: int, main: Callable[[list[str]], int]
) -> list[Request]:
    """Requests of the warm-up stream and reference timings, untimed, for
    WARMUP_S seconds and at least one request, so lazy imports and first-call
    costs are paid before timing starts."""
    requests: list[Request] = []
    started = time.perf_counter()
    for index, argv in enumerate(workload.argvs(seed, "warmup")):
        if requests and time.perf_counter() - started >= WARMUP_S:
            break
        reference_seconds(workload.reference_units)
        rng = check_rng(workload, seed, index, "warmup")
        requests.append(serve(workload, main, argv, rng))
    return requests


def run_phase(
    workload: Workload, seed: int, main: Callable[[list[str]], int], seconds: int
) -> list[Request]:
    """Requests back to back, at least `fixed_requests` of them and until
    `seconds` have passed, with the reference computation timed before the
    first request and after each one."""
    requests: list[Request] = []
    started = time.perf_counter()
    before = reference_seconds(workload.reference_units)
    for index, argv in enumerate(workload.argvs(seed)):
        elapsed = time.perf_counter() - started
        if index >= workload.fixed_requests and elapsed >= seconds:
            break
        request = serve(workload, main, argv, check_rng(workload, seed, index))
        after = reference_seconds(workload.reference_units)
        request.reference = (before + after) / 2
        before = after
        requests.append(request)
    return requests


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest sample with
    TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(walls)
    index = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def measure_setup() -> list[float]:
    """Seconds a fresh interpreter takes to import the CLI and build its
    parser, SETUP_SAMPLES times, after one run that warms the file cache
    and writes bytecode."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=120, cwd=ROOT
        )
        samples.append(float(done.stdout))
    return samples[1:]


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def untraced_run(workload: Workload, seed: int, seconds: int) -> tuple[dict, dict]:
    from zqhash import cli

    setup = measure_setup()
    warm = warm_up(workload, seed, cli.main)
    requests = run_phase(workload, seed, cli.main, seconds)
    walls = [request.wall for request in requests]
    # Each request's wall time in units of the reference computation.
    costs = [request.wall / request.reference for request in requests]
    units = sum(request.units for request in requests)
    tail_cost, tail_percentile, beyond = tail(costs)
    metrics = {
        "latency_p50_ref": statistics.median(costs),
        "latency_tail_ref": tail_cost,
        "units_per_ref": units / sum(costs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "requests": warm + requests,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail(walls)[0],
        "units_per_s": units / sum(walls),
        "reference_s": statistics.median(r.reference for r in requests),
        "digest": output_digest(workload, requests),
        "timed_requests": len(requests),
        "warmup_requests": len(warm),
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup,
    }
    return metrics, details


def traced_run(workload: Workload, seed: int) -> tuple[dict, dict]:
    """Each of the first `fixed_requests` requests twice in a row: untraced,
    then traced, so the two sends of a pair see the same machine state."""
    from zqhash import cli

    from spans import SpanRecorder, installed

    recorder = SpanRecorder()
    main = recorder.wrap("cli.main", cli.main)
    plain: list[Request] = []
    traced: list[Request] = []
    argvs = workload.argvs(seed)
    for index in range(workload.fixed_requests):
        argv = next(argvs)
        plain.append(serve(workload, cli.main, argv, check_rng(workload, seed, index)))
        recorder.request = index
        with installed(recorder) as missing:
            traced.append(serve(workload, main, argv, check_rng(workload, seed, index)))
        if traced[-1].sha256 != plain[-1].sha256:
            traced[-1].failures.append("traced document differs from the untraced one")
    for site in missing:
        print(f"warning: trace site {site} not found", file=sys.stderr)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.write(OUT_DIR / f"{workload.name}-seed{seed}-spans.json")
    metrics = recorder.layer_metrics(len(traced))
    metrics["cli.unreported_s"] = statistics.median(r.unreported for r in plain)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for t, p in zip(traced, plain)
    )
    details = {
        "requests": plain + traced,
        "digest": output_digest(workload, plain),
        "missing_trace_sites": missing,
        "spans": len(recorder),
    }
    return metrics, details


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload: Workload, seed: int, seconds: int, trace: int) -> None:
    declared = declared_metrics(trace)
    if trace:
        metrics, details = traced_run(workload, seed)
    else:
        metrics, details = untraced_run(workload, seed, seconds)
    requests = details.pop("requests")
    failed = [request for request in requests if request.failures]
    env = environment(seed)

    print(f"workload {workload.name}, seed {seed}, trace {trace}: "
          f"{len(requests)} requests, {len(failed)} failed")
    print(f"  {'failed_fraction':48s} {len(failed) / len(requests):.6g}")
    for request in failed[:5]:
        print(f"  failure: {'; '.join(request.failures)[:300]}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g}")
    for name, value in details.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:48s} {shown}")
    print(f"  work unit: {workload.unit}; environment: {json.dumps(env)}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "trace": trace, "environment": env,
              "attempted": len(requests), "failed": len(failed),
              "failed_fraction": len(failed) / len(requests),
              "metrics": metrics, **details}
    result_path = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in declared
        },
    }))


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in a fresh interpreter, one at a time; the last line
    combines their results, metric names prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "zqhash" / "cli.py").is_file():
        print(f"error: no zqhash sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    import zqhash

    if Path(zqhash.__file__).resolve().parent != SRC / "zqhash":
        print(f"error: imported zqhash from {zqhash.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
