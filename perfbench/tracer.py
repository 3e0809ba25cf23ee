"""Spans around the package's public functions, installed from outside.

The tracer replaces each traced function at every place it is looked up: the
defining module, every ``hyper_rsp`` module that imported it by name, and the
class for methods.  ``Element.apply`` lives only on the base class, so one
wrapper, named by ``type(self).__name__``, covers all eleven element types.

A span is (name, start ns, end ns, parent span index, op id).  Spans are kept
in memory; self time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from hyper_rsp import cli, dense, elements, protocols, runtime, states

#: (owner, attribute, span name); owner is a module or a class.
TRACED: tuple[tuple[object, str, str], ...] = (
    (cli, "main", "cli.main"),
    (cli, "verify_report", "cli.verify_report"),
    (cli, "sample_report", "cli.sample_report"),
    (runtime, "encode_outcome", "runtime.encode_outcome"),
    (runtime, "sample_with_loss", "runtime.sample_with_loss"),
    (runtime, "chunk_generator", "runtime.chunk_generator"),
    (runtime.BranchSampler, "__init__", "runtime.BranchSampler.init"),
    (runtime.BranchSampler, "draw_many", "runtime.BranchSampler.draw_many"),
    (protocols, "run_protocol", "protocols.run_protocol"),
    (protocols, "evolve", "protocols.evolve"),
    (protocols, "build_circuit", "protocols.build_circuit"),
    (protocols, "derive_correction", "protocols.derive_correction"),
    (elements.Element, "apply", "elements.apply"),
    (states.StateVector, "build", "states.StateVector.build"),
    (states, "project_photon_a", "states.project_photon_a"),
    (states, "fidelity", "states.fidelity"),
    (states, "make_target", "states.make_target"),
    (states, "make_hyper_bell", "states.make_hyper_bell"),
    (dense, "element_to_dense", "dense.element_to_dense"),
    (dense, "apply_dense", "dense.apply_dense"),
    (dense, "unitarity_defect", "dense.unitarity_defect"),
    (dense, "evolve_dense", "dense.evolve_dense"),
    (dense, "state_to_vector", "dense.state_to_vector"),
    (dense, "max_deviation", "dense.max_deviation"),
)

#: Exact counters taken from a traced call's arguments and result.
COUNTERS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "elements.apply": lambda args, out: {"elements.apply.kets_in": len(args[1].amplitudes),
                                         "elements.apply.kets_out": len(out.amplitudes)},
    "states.StateVector.build": lambda args, out: {
        "states.StateVector.build.kets": len(out.amplitudes)},
    "dense.element_to_dense": lambda args, out: {"dense.element_to_dense.cells": out.matrix.size},
    "protocols.derive_correction": lambda args, out: {
        "protocols.derive_correction.matches": len(out.matches)},
    "runtime.sample_with_loss": lambda args, out: {"runtime.trials": out.trials,
                                                   "runtime.detected": out.detected},
}

#: Traced ops whose spans are kept for writing out.
KEEP_OPS = 64

ELEMENT_TYPES = (
    "PolarizationRotation", "WavelengthRouter", "FrequencyEraser", "UnbalancedSplitter",
    "PolarizingRouter", "PockelsCell", "LongArmDelay", "DropUniformRegister",
    "HalfWavePlate", "BalancedSplitter", "PauliOp",
)


class Tracer:
    """Collects spans and exact counters while installed.

    Spans of the op in progress are kept in ``spans``; ``end_op`` folds them
    into per-name totals and keeps the first KEEP_OPS ops' spans in ``kept``
    for writing out, so memory stays flat over a long run.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self.totals: dict[str, Counter[str]] = defaultdict(Counter)
        self.kept: list[tuple[str, int, int, int, int]] = []
        self.ops = 0  # finished ops; the id of the op in progress
        self._stack: list[int] = []

    def end_op(self) -> Counter[str]:
        """Fold the finished op's spans; return its calls per name and counters."""
        child_ns: Counter[int] = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        op_counts = Counter(self.counters)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = self.totals[name]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            op_counts[name] += 1
        for key, value in self.counters.items():
            self.totals[key]["value"] += value
        if self.ops < KEEP_OPS:
            base = len(self.kept)
            self.kept.extend((name, start, end, parent + base if parent >= 0 else -1, op)
                             for name, start, end, parent, op in self.spans)
        self.ops += 1
        self.spans = []
        self.counters = Counter()
        return op_counts

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.ops)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = f"elements.{type(args[0]).__name__}.apply" if name == "elements.apply" else name
            result = self._call(span, fn, args, kwargs)
            if count is not None:
                self.counters.update(count(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every lookup site of every traced function, then restore them."""
        saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hyper_rsp" or n.startswith("hyper_rsp."))]
        try:
            for owner, attr, name in TRACED:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                    continue
                wrapper = self._wrap(name, raw)
                sites = [owner] if isinstance(owner, type) else modules
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is raw:
                            saved.append((site, key, raw))
                            setattr(site, key, wrapper)
            yield self
        finally:
            for site, key, value in reversed(saved):
                setattr(site, key, value)


#: The time statistic reported per traced name: inclusive "ms" or "self_ms".
TIME_STAT = {
    "cli.main": "self_ms",
    "cli.verify_report": "self_ms",
    "cli.sample_report": "self_ms",
    "runtime.encode_outcome": "ms",
    "runtime.sample_with_loss": "self_ms",
    "runtime.chunk_generator": "ms",
    "runtime.BranchSampler.init": "ms",
    "runtime.BranchSampler.draw_many": "ms",
    "protocols.run_protocol": "self_ms",
    "protocols.evolve": "self_ms",
    "protocols.build_circuit": "ms",
    "protocols.derive_correction": "self_ms",
    **{f"elements.{name}.apply": "ms" for name in ELEMENT_TYPES},
    "states.StateVector.build": "ms",
    "states.project_photon_a": "self_ms",
    "states.fidelity": "ms",
    "states.make_target": "ms",
    "states.make_hyper_bell": "ms",
    "dense.element_to_dense": "ms",
    "dense.apply_dense": "self_ms",
    "dense.unitarity_defect": "self_ms",
    "dense.evolve_dense": "ms",
    "dense.state_to_vector": "ms",
    "dense.max_deviation": "ms",
}


def _median_ms(records, kind: str, traced: bool) -> float:
    values = [r.ns for r in records if r.protocol == kind and r.traced == traced]
    return statistics.median(values) / 1e6 if values else float("nan")


def layer_metrics(tracer: Tracer, records) -> tuple[dict, dict]:
    """Per-layer metrics, each normalized per traced op, plus the tracing overhead.

    A name a workload never calls reads 0: that layer is bypassed.
    """
    ops = tracer.ops
    metrics = {}
    for name, stat in TIME_STAT.items():
        entry = tracer.totals.get(name, Counter())
        metrics[f"{name}.calls"] = (entry["calls"] / ops, "calls/op")
        ns = entry["self_ns"] if stat == "self_ms" else entry["ns"]
        metrics[f"{name}.{stat}"] = (ns / 1e6 / ops, "ms/op")

    def value(key: str) -> int:
        return tracer.totals.get(key, Counter())["value"]

    for key in ("elements.apply.kets_in", "elements.apply.kets_out",
                "states.StateVector.build.kets"):
        metrics[key] = (value(key) / ops, "kets/op")
    cells = value("dense.element_to_dense.cells")
    metrics["dense.element_to_dense.cells"] = (cells / ops, "cells/op")
    metrics["dense.element_to_dense.bytes"] = (16 * cells / ops, "B/op")
    searches = tracer.totals.get("protocols.derive_correction", Counter())["calls"]
    matches = value("protocols.derive_correction.matches")
    metrics["protocols.derive_correction.match_ratio"] = (
        matches / (16 * searches) if searches else 0.0, "ratio")
    trials = value("runtime.trials")
    metrics["runtime.detected_ratio"] = (
        value("runtime.detected") / trials if trials else 0.0, "ratio")

    overhead = {}
    for kind in ("pf", "tb"):
        traced, plain = _median_ms(records, kind, True), _median_ms(records, kind, False)
        overhead[kind] = {"traced_ms_p50": traced, "untraced_ms_p50": plain,
                          "overhead_pct": 100.0 * (traced / plain - 1.0)}
    metrics["bench.trace.overhead_pct"] = (
        statistics.mean(o["overhead_pct"] for o in overhead.values()), "%")
    extra = {"traced_ops": ops, "trace_overhead": overhead,
             "detected": value("runtime.detected"), "trials": trials}
    return metrics, extra


def write_spans(tracer: Tracer, directory: Path, workload: str, seed: int) -> str:
    """Write the kept spans as JSON lines; return the file's path."""
    directory.mkdir(exist_ok=True)
    path = directory / f"spans-{workload}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, op in tracer.kept:
            handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
    return str(path)
