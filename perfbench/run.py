#!/usr/bin/env python3
"""hyper-rsp benchmark: one closed-loop client driving the package from outside.

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run, in which traced
and untraced operation pairs alternate so that the tracing overhead is their
difference.  The line before it is a manifest describing the run.  See
NOTES.md for the workloads, the metrics and the noise.

Timings are reported at reference speed: a fixed memory gather, reference(),
is timed before every operation pair, and each latency is scaled by REF_NS
over the reference time around it.  That divides out the host's speed swings.
Raw times are in the manifest.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

# One BLAS thread: the program gets one core, like its single client, and the
# dense products no longer depend on what else runs on the second core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
#: Tail percentile per workload, fixed so that the statistic never switches
#: rank between runs.  p90 where a run has thousands of samples per protocol,
#: p75 where it has about a hundred; both leave more than TAIL_BEYOND samples
#: beyond.  Higher percentiles were dominated by host hiccups (see NOTES.md).
TAIL_PERCENTILE = {"verify-random": 90, "sample-sweep": 90, "dense-crosscheck": 75,
                   "sample-bulk": 75}
TAIL_BEYOND = 10
SPAN_DIR = ".perfbench-out"
#: Time of one reference() call on the reference machine when unloaded;
#: timings are reported as if every reference() call had taken this long.
REF_NS = 350_000
REF_TABLE_LEN = 1 << 19
REF_PICKS = 1 << 16
#: Host speed holds for seconds, so one op's reference is the median over
#: the pairs started within this many seconds of its own.
REF_WINDOW_S = 0.5

tracing = workloads = None  # bound by import_program(), after the package is found


def import_program():
    """Import hyper_rsp from this checkout's ``src``, then the benchmark modules.

    Exits with an error, printing no result, when the package is not there.
    """
    global tracing, workloads
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hyper_rsp
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hyper_rsp from {src}: {exc}")
    if not Path(hyper_rsp.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: hyper_rsp imported from {hyper_rsp.__file__}, not from {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    import workloads
    return hyper_rsp


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-random", "sample-bulk", "sample-sweep",
                                 "dense-crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# host speed


@functools.cache
def _walk_data():
    import numpy as np

    table = np.arange(REF_TABLE_LEN, dtype=np.float64)
    picks = np.random.default_rng(0).permutation(REF_TABLE_LEN)[:REF_PICKS]
    return table, picks


def reference() -> int:
    """Best-of-three time in ns of a fixed random gather from a 4 MiB table.

    The table is twice the L2, so each gather runs from L3 whatever the
    program left in the caches, and slows down as the host's neighbours load
    the shared caches and memory, which is what moves the program's speed.
    """
    table, picks = _walk_data()
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        float(table[picks].sum())
        times.append(time.perf_counter_ns() - start)
    return min(times)


class Record(NamedTuple):
    """One timed op.  ``ref_ns`` is the reference() taken just before its pair;
    ``at`` is when that pair started, in perf_counter seconds."""

    protocol: str
    traced: bool
    ns: int
    problems: list[str]
    trials: int
    ref_ns: int
    at: float


def at_reference_speed(records: list[Record]) -> list[float]:
    """Each op's latency in ms, scaled by REF_NS over the host's reference time
    then: the median reference of the pairs started within REF_WINDOW_S."""
    starts = [r.at for r in records]
    scaled = []
    for r in records:
        lo = bisect.bisect_left(starts, r.at - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, r.at + REF_WINDOW_S)
        ref_ns = statistics.median(x.ref_ns for x in records[lo:hi])
        scaled.append(r.ns * REF_NS / ref_ns / 1e6)
    return scaled


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> int:
    """What a fresh process pays before its first result: import plus one op pair."""
    pf, tb = next(workloads.op_pairs(workload, seed))
    return 0 if not any(op.check(op.run()) for op in (pf, tb)) else 1


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall s, wall s at reference speed) of SETUP_REPEATS fresh interpreters
    running the set-up probe, each scaled by the reference() taken just
    before it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        ref_ns = reference()
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed ({done.returncode}): {done.stderr}")
        times.append((wall, wall * REF_NS / ref_ns))
    return times


# ---------------------------------------------------------------------------
# the closed loop


def run_op(op, tracer=None, expected=None):
    """Run and check one op; return (latency ns, problems).

    With a tracer, the op's call counts must also equal ``expected``.
    """
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        elapsed = time.perf_counter_ns() - start
        problems = [f"raised {exc!r}"]
    else:
        elapsed = time.perf_counter_ns() - start
        problems = op.check(result)
    if tracer is not None:
        problems += workloads.count_problems(tracer.end_op(), expected)
    return elapsed, problems


def closed_loop(workload: str, seed: int, seconds: float, tracer=None):
    """One client, next op only after the previous one returns, for ``seconds``.

    With a tracer, even-numbered op pairs run traced and odd ones untraced.
    Returns one Record per op.
    """
    pairs = workloads.op_pairs(workload, seed)
    records = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 0
        at = time.perf_counter()
        ref_ns = reference()
        with tracer.installed() if traced else nullcontext():
            for op in next(pairs):
                expected = workloads.expected_counts(workload, op.protocol, op.trials)
                elapsed, problems = run_op(op, tracer if traced else None, expected)
                records.append(Record(op.protocol, traced, elapsed, problems, op.trials, ref_ns, at))
        index += 1
    return records


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float], percentile: float) -> tuple[float, dict]:
    """The nearest-rank ``percentile`` of ``values`` and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)
    return ordered[rank], {"percentile": percentile, "samples": len(ordered),
                           "beyond": len(ordered) - rank - 1}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref[5:]})"


def cache_sizes() -> dict[str, str]:
    """L2/L3 sizes of cpu0 as the kernel reports them, where it does."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def manifest(args, hyper_rsp) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "package_version": hyper_rsp.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "loop": "closed, 1 client, pf/tb op pairs",
        "working_set": "largest dense matrix 240x240 complex, 0.9 MB: fits in L2",
    }


def end_to_end(records, setup_times, workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and their raw values."""
    raw = {"setup_s": statistics.median(wall for wall, _ in setup_times),
           "setup_s_samples": [wall for wall, _ in setup_times],
           "host_speed": REF_NS / statistics.median(r.ref_ns for r in records)}
    metrics = {"setup_s": (statistics.median(ref for _, ref in setup_times), "s")}
    scaled = at_reference_speed(records)
    busy_s = sum(r.ns for r in records) / 1e9
    metrics["ops_per_s"] = (len(records) / sum(scaled) * 1e3, "1/s")
    raw["ops_per_s"] = len(records) / busy_s
    trials = sum(r.trials for r in records)
    if trials:
        raw["trials_per_s"] = trials / busy_s
    percentile = TAIL_PERCENTILE[workload]
    for kind in ("pf", "tb"):
        at_ref = [ms for r, ms in zip(records, scaled) if r.protocol == kind]
        metrics[f"{kind}_ms_mean"] = (statistics.fmean(at_ref), "ms")
        value, info = tail(at_ref, percentile)
        metrics[f"{kind}_ms_tail"] = (value, "ms")
        info["enough_beyond"] = info["beyond"] >= TAIL_BEYOND
        raw_ms = [r.ns / 1e6 for r in records if r.protocol == kind]
        raw[f"{kind}_ms_mean"] = statistics.fmean(raw_ms)
        raw[f"{kind}_ms_p50"] = statistics.median(raw_ms)
        raw[f"{kind}_ms_tail"] = tail(raw_ms, percentile)[0]
        raw[f"{kind}_tail"] = info
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics, {"raw": raw}


def main(argv=None) -> int:
    args = parse_args(argv)
    hyper_rsp = import_program()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    run_problems = workloads.check_efficiency()
    for op in next(workloads.op_pairs(args.workload, args.seed)):  # in-process warm-up
        run_problems += op.check(op.run())

    tracer = tracing.Tracer() if args.trace else None
    records = closed_loop(args.workload, args.seed, args.seconds, tracer)

    failed = [r for r in records if r.problems]
    info = manifest(args, hyper_rsp)
    info["ops"] = len(records)
    info["failed_ratio"] = len(failed) / len(records)
    info["problems"] = run_problems + [p for r in failed[:5] for p in r.problems]
    if args.trace:
        metrics, extra = tracing.layer_metrics(tracer, records)
        info["spans_file"] = tracing.write_spans(tracer, ROOT / SPAN_DIR, args.workload, args.seed)
    else:
        metrics, extra = end_to_end(records, setup_times, args.workload)
    info.update(extra)
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": not failed and not run_problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
