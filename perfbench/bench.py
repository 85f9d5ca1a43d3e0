"""The laqcc benchmark: seeded workloads timed end to end, or traced per
layer, in one process and one thread.

The loop is closed: the next item starts when the previous one ends.
Run it through ``perfbench/run.py``, which pins BLAS to one thread and
puts the checkout's ``src`` first on ``sys.path`` before this module
imports laqcc.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np
import scipy

import hostspeed as hs
import tracer as tr
import workloads as wl
from laqcc import clifford as cl
from laqcc import program as pr
from laqcc import protocols as pt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 5

MakePass = Callable[[str, int, int], List[wl.Item]]


# --------------------------------------------------------------- running


def run_items(items: Sequence[wl.Item]
              ) -> Tuple[List[float], List[str], List[float]]:
    """Run ``items`` back to back; return each one's seconds at reference
    speed, the failure messages and the host's slowdown around each item.
    An item's wall time is divided by the mean of the host's slowdown
    just before and just after it.  A failed item still counts its
    time."""
    latencies, failures, slowdowns = [], [], []
    before = hs.slowdown()
    for item in items:
        start = time.perf_counter()
        try:
            item.run()
        except Exception:  # an item failure is a result, not a crash
            failures.append(f"{item.label}: {traceback.format_exc(limit=3)}")
        seconds = time.perf_counter() - start
        after = hs.slowdown()
        slowdowns.append((before + after) / 2)
        latencies.append(seconds / slowdowns[-1])
        before = after
    return latencies, failures, slowdowns


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median time of ``fn`` at reference speed."""
    times = []
    for _ in range(repeats):
        before = hs.slowdown()
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        times.append(2 * seconds / (before + hs.slowdown()))
    return statistics.median(times)


# The child times the interpreter kernel just before and just after it
# imports laqcc, and prints both times.
_START_CHILD = ("import hostspeed as hs; before = hs.interpreter_seconds(); "
                "import laqcc.cli; print(before, hs.interpreter_seconds())")


def _start_and_import() -> float:
    """Seconds at reference speed for a fresh interpreter to start and
    import laqcc, as every CLI call does.  The child may run on another
    CPU than this process, at another speed, so its wall time less the
    kernel's is divided by the slowdown the child itself measured."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _START_CHILD], env=env,
                          check=True, timeout=120, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    before, after = (float(t) for t in done.stdout.split())
    slowdown = (before + after) / 2 / hs.INTERPRETER_REFERENCE_S
    return (seconds - before - after) / slowdown


def setup_seconds(workload: str, seed: int, make: MakePass) -> float:
    """Median process start plus ``import laqcc``, plus median input
    generation of the first pass, both at reference speed."""
    start = statistics.median(_start_and_import()
                              for _ in range(SETUP_REPEATS))
    generate = _median_seconds(lambda: make(workload, seed, 0), SETUP_REPEATS)
    return start + generate


def measure(workload: str, seed: int, seconds: float,
            make: MakePass = wl.make_pass) -> dict:
    """Untraced run: whole passes, as many as bring the run nearest to
    ``seconds``; a pass starts only if half of it fits."""
    setup_s = setup_seconds(workload, seed, make)
    latencies: List[float] = []
    failures: List[str] = []
    slowdowns: List[float] = []
    passes = 0
    pass_s = 0.0
    began = time.perf_counter()
    while passes == 0 or time.perf_counter() - began + pass_s / 2 < seconds:
        start = time.perf_counter()
        lat, fail, slow = run_items(make(workload, seed, passes))
        pass_s = time.perf_counter() - start
        latencies += lat
        failures += fail
        slowdowns += slow
        passes += 1
    ok = len(latencies) - len(failures)
    deciles = (statistics.quantiles(latencies, n=10)
               if len(latencies) > 1 else latencies * 9)
    metrics = {
        "items_per_s": (ok / sum(latencies), "1/s"),
        "item_p50_ms": (1000 * deciles[4], "ms"),
        "item_p90_ms": (1000 * deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "attempted": len(latencies),
        "failures": failures,
        "passes": passes,
        "host_slowdown": statistics.quantiles(slowdowns, n=4)
        if len(slowdowns) > 1 else slowdowns * 3,
        "metrics": metrics,
    }


def roundtrip_unsupported() -> int:
    """Protocol builders whose desk-size program does not serialise."""
    builders = [
        lambda: cl.ghz(4),
        lambda: pt.w_state(4)[0],
        lambda: pt.uniform_superposition(5)[0],
        lambda: pt.dicke_small_k(4, 2)[0],
        lambda: pt.dicke_factoradic(4, 2)[0],
    ]
    failing = 0
    for build in builders:
        try:
            pr.dumps(build())
        except (ValueError, TypeError, KeyError):
            failing += 1
    return failing


def trace(workload: str, seed: int, spans_path: Path,
          make: MakePass = wl.make_pass) -> dict:
    """Traced run over the first pass: each item runs untraced, then
    traced, back to back, so the overhead compares like with like.  The
    work is fixed, so counts repeat exactly for a seed.  Every span is
    written to ``spans_path``."""
    unsupported = roundtrip_unsupported()
    items = make(workload, seed, 0)
    tracer = tr.Tracer()
    plain_s = traced_s = 0.0
    failures: List[str] = []
    for index, item in enumerate(items):
        (seconds,), failed, _ = run_items([item])
        plain_s += seconds
        failures += failed
        tracer.item = index
        with tracer:
            (seconds,), failed, _ = run_items([item])
        traced_s += seconds
        failures += failed

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s, "ratio")
    metrics["program.roundtrip_unsupported"] = (unsupported, "count")
    tracer.write_spans(spans_path)
    return {
        "attempted": 2 * len(items),
        "failures": failures,
        "passes": 2,
        "metrics": metrics,
        "spans": str(spans_path),
    }


# ----------------------------------------------------------- environment


def _git_commit() -> str | None:
    """HEAD's commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS")},
    }


# ------------------------------------------------------------------ main


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Seeded laqcc benchmark; the last stdout line is the "
                    "result as JSON.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spans_file(workload: str, seed: int) -> Path:
    return SPANS_DIR / f"spans-{workload}-seed{seed}.npz"


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if args.trace:
        result = trace(args.workload, args.seed,
                       spans_file(args.workload, args.seed))
    else:
        result = measure(args.workload, args.seed, args.seconds)
    return report(args, result)


def report(args: argparse.Namespace, result: dict) -> int:
    """Print the run's context, then the result as the last line."""
    attempted, failures = result["attempted"], result["failures"]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": attempted,
        "passes": result["passes"],
        "spans": result.get("spans"),
        "host_slowdown_quartiles": result.get("host_slowdown"),
        "failed_frac": {"value": len(failures) / attempted,
                        "unit": "ratio"},
        "environment": environment(),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if not failures else 1
