"""The four benchmark workloads: seeded target streams, operations and their checks.

Every workload is a stream of operation pairs, one pf operation then one tb
operation, each on a target drawn from the workload seed.  An operation is a
call into the package from outside plus a check of what came back; the check
returns a list of problems, empty when the output is correct.  Checks compare
against values the benchmark derives itself (the target it generated, the
exact branch laws 1/4 and 1/8, the binomial detection law), not against the
program's own verdict alone.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from hyper_rsp import cli, dense, protocol_efficiency, protocols, runtime, states

PROTOCOLS = ("pf", "tb")
BRANCHES = {"pf": 4, "tb": 8}
BOB_BASIS = {
    "pf": ["|H,w1>", "|H,w2>", "|V,w1>", "|V,w2>"],
    "tb": ["|H,0>", "|H,1>", "|V,0>", "|V,1>"],
}
EFFICIENCY = {"pf": Fraction(1, 3), "tb": Fraction(2, 7)}
PARAM_KEYS = ("alpha0", "beta0", "alpha1", "beta1", "alpha2", "beta2")

#: A target sits on an axis with probability AXIS_RATE: its polarization pair,
#: and half the time its other two pairs as well.  There the 16-way
#: correction search returns 2 or 4 matches instead of 1.
AXIS_RATE = 1 / 8
AXIS_POINTS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))

BULK_TRIALS = 2_097_152
BULK_ETA_D = 0.8
SWEEP_TRIALS = 20_000
SWEEP_ETA_GRID = tuple(i / 10 for i in range(11))

PROBABILITY_TOL = 1e-12
FIDELITY_TOL = 1e-12
TARGET_OVERLAP_TOL = 1e-9
DETECTION_SIGMAS = 5.0
DEVIATION_TOL = 1e-10
ISOMETRY_TOL = 1e-12


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its return value."""

    protocol: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    trials: int = 0


# ---------------------------------------------------------------------------
# targets


def _pair(rng: random.Random) -> tuple[float, float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(angle), math.sin(angle)


def target_stream(rng: random.Random) -> Iterator[tuple[float, ...]]:
    """Six-value targets, each pair on the unit circle; some on an axis."""
    while True:
        pairs = [_pair(rng) for _ in range(3)]
        if rng.random() < AXIS_RATE:
            on_axis = 3 if rng.random() < 0.5 else 1
            pairs[:on_axis] = [rng.choice(AXIS_POINTS) for _ in range(on_axis)]
        yield tuple(float(_decimal(v)) for pair in pairs for v in pair)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _target_vector(kind: str, params: tuple[float, ...]) -> list[float]:
    """The receiver target in canonical basis order: pol pair ⊗ second pair."""
    a0, b0, a1, b1, a2, b2 = params
    second = (a1, b1) if kind == "pf" else (a2, b2)
    return [p * s for p in (a0, b0) for s in second]


def _overlap_sq(amplitudes: list[list[float]], target: list[float]) -> float:
    re = sum(pair[0] * t for pair, t in zip(amplitudes, target))
    im = sum(pair[1] * t for pair, t in zip(amplitudes, target))
    return re * re + im * im


# ---------------------------------------------------------------------------
# checks


def check_verify(kind: str, params: tuple[float, ...], result: tuple[int, str]) -> list[str]:
    code, text = result
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if report.get("protocol") != kind:
        problems.append(f"protocol {report.get('protocol')!r}")
    if report.get("params") != {k: _round12(v) for k, v in zip(PARAM_KEYS, params)}:
        problems.append("report params differ from the target sent")
    if report.get("all_pass") is not True:
        problems.append(f"all_pass is {report.get('all_pass')!r}")
    if report.get("bob_basis") != BOB_BASIS[kind]:
        problems.append("unexpected receiver basis")
    branches = report.get("branches", [])
    if len(branches) != BRANCHES[kind]:
        return problems + [f"{len(branches)} branches"]
    law = 1.0 / BRANCHES[kind]
    target = _target_vector(kind, params)
    for branch in branches:
        name = f"{branch['outcome']['polarization']}@{branch['outcome']['path']}"
        if abs(branch["probability"] - law) > PROBABILITY_TOL:
            problems.append(f"{name}: probability {branch['probability']!r}")
        if branch["fidelity_post"] != 1.0:
            problems.append(f"{name}: fidelity_post {branch['fidelity_post']!r}")
        if abs(_overlap_sq(branch["bob_state_post"], target) - 1.0) > TARGET_OVERLAP_TOL:
            problems.append(f"{name}: corrected state is not the target")
    return problems


def _detection_problems(eta_d: float, trials: int, detected: int) -> list[str]:
    """Binomial law: detected ~ B(trials, η_d²), checked within 5σ."""
    p = eta_d * eta_d
    sigma = math.sqrt(trials * p * (1.0 - p))
    if abs(detected - trials * p) > DETECTION_SIGMAS * sigma:
        return [f"detected {detected} of {trials} is outside 5σ of η_d² = {p}"]
    return []


def check_sample_report(
    kind: str, params: tuple[float, ...], eta_d: float, trials: int, seed: int,
    result: tuple[int, str],
) -> list[str]:
    code, text = result
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if report.get("protocol") != kind:
        problems.append(f"protocol {report.get('protocol')!r}")
    if report.get("params") != {k: _round12(v) for k, v in zip(PARAM_KEYS, params)}:
        problems.append("report params differ from the target sent")
    stats = report.get("stats", {})
    if (stats.get("trials"), stats.get("seed"), stats.get("eta_d")) != (trials, seed, eta_d):
        return problems + ["trials, seed or eta_d differ from the request"]
    detected = stats.get("detected")
    if not isinstance(detected, int):
        return problems + [f"detected is {detected!r}"]
    problems += _detection_problems(eta_d, trials, detected)
    if stats.get("success_rate") != _round12(detected / trials):
        problems.append("success_rate is not detected/trials")
    expected_fidelity = None if detected == 0 else 1.0
    if stats.get("mean_fidelity_on_detected") != expected_fidelity:
        problems.append(f"mean fidelity {stats.get('mean_fidelity_on_detected')!r}")
    return problems


def check_sample_stats(
    kind: str, eta_d: float, trials: int, seed: int, stats: runtime.SampleStats
) -> list[str]:
    problems = []
    if (stats.protocol.value, stats.eta_d, stats.trials, stats.seed) != (kind, eta_d, trials, seed):
        return ["protocol, eta_d, trials or seed differ from the request"]
    problems += _detection_problems(eta_d, trials, stats.detected)
    fid = stats.mean_fidelity_on_detected
    if stats.detected == 0:
        if not math.isnan(fid):
            problems.append(f"mean fidelity {fid!r} with nothing detected")
    elif abs(fid - 1.0) > FIDELITY_TOL:
        problems.append(f"mean fidelity {fid!r}")
    return problems


def check_crosscheck(result: tuple[float, bool, list[float]]) -> list[str]:
    deviation, same_schema, defects = result
    problems = []
    if not same_schema:
        problems.append("dense and sparse routes end in different schemas")
    if not deviation <= DEVIATION_TOL:
        problems.append(f"dense/sparse deviation {deviation!r}")
    worst = max(defects)
    if not worst < ISOMETRY_TOL:
        problems.append(f"isometry defect {worst!r}")
    return problems


def check_efficiency() -> list[str]:
    """Once per run: the exact efficiency fractions (constant work, not timed)."""
    problems = []
    for kind, want in EFFICIENCY.items():
        got = protocol_efficiency(states.ProtocolKind.parse(kind))
        if got != want:
            problems.append(f"{kind} efficiency {got!r}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# operations


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _decimal(value: float) -> str:
    """Plain decimal text, as a user types it.  argparse would take exponent
    notation such as -3.2e-05 for an option flag."""
    return f"{value:.17f}"


def verify_op(kind: str, params: tuple[float, ...]) -> Op:
    argv = ["verify", "--protocol", kind, "--params", *map(_decimal, params), "--format", "json"]
    return Op(kind, lambda: _run_cli(argv), lambda result: check_verify(kind, params, result))


def sample_bulk_op(kind: str, params: tuple[float, ...], seed: int) -> Op:
    argv = ["sample", "--protocol", kind, "--params", *map(_decimal, params), "--seed", str(seed),
            "--eta-d", repr(BULK_ETA_D), "--trials", str(BULK_TRIALS), "--format", "json"]
    return Op(
        kind,
        lambda: _run_cli(argv),
        lambda result: check_sample_report(kind, params, BULK_ETA_D, BULK_TRIALS, seed, result),
        trials=BULK_TRIALS,
    )


def sample_sweep_op(kind: str, params: tuple[float, ...], eta_d: float, seed: int) -> Op:
    protocol = states.ProtocolKind.parse(kind)
    target = states.TargetParams(*params)
    return Op(
        kind,
        lambda: runtime.sample_with_loss(protocol, target, eta_d, SWEEP_TRIALS, seed),
        lambda stats: check_sample_stats(kind, eta_d, SWEEP_TRIALS, seed, stats),
        trials=SWEEP_TRIALS,
    )


def crosscheck(kind: str, params: tuple[float, ...]) -> tuple[float, bool, list[float]]:
    """Dense route against the sparse one, and the isometry of every element."""
    protocol = states.ProtocolKind.parse(kind)
    target = states.TargetParams(*params)
    start = states.make_hyper_bell(protocol)
    elements = protocols.build_circuit(protocol, target)
    vec, schema = dense.evolve_dense(elements, start)
    sparse = protocols.evolve(protocol, target)
    defects = []
    stage = start.schema
    for element in elements:
        defects.append(dense.unitarity_defect(element, stage))
        stage = element.output_schema(stage)
    return dense.max_deviation(sparse, vec), schema == sparse.schema, defects


def crosscheck_op(kind: str, params: tuple[float, ...]) -> Op:
    return Op(kind, lambda: crosscheck(kind, params), check_crosscheck)


def _verify_pairs(rng: random.Random) -> Iterator[tuple[Op, Op]]:
    targets = target_stream(rng)
    while True:
        yield verify_op("pf", next(targets)), verify_op("tb", next(targets))


def _bulk_pairs(rng: random.Random) -> Iterator[tuple[Op, Op]]:
    targets = target_stream(rng)
    while True:
        yield tuple(sample_bulk_op(kind, next(targets), rng.getrandbits(63))
                    for kind in PROTOCOLS)


def _sweep_pairs(rng: random.Random) -> Iterator[tuple[Op, Op]]:
    # As scripts/loss_sweep.py does: one sampling seed for the whole sweep,
    # so a detection count depends only on (seed, η_d) and the 5σ gate is
    # met or missed once per grid point, not once per call.
    seed = rng.getrandbits(63)
    targets = target_stream(rng)
    index = 0
    while True:
        eta_d = SWEEP_ETA_GRID[index % len(SWEEP_ETA_GRID)]
        yield tuple(sample_sweep_op(kind, next(targets), eta_d, seed) for kind in PROTOCOLS)
        index += 1


def _crosscheck_pairs(rng: random.Random) -> Iterator[tuple[Op, Op]]:
    for params in target_stream(rng):
        yield crosscheck_op("pf", params), crosscheck_op("tb", params)


WORKLOADS = {
    "verify-random": _verify_pairs,
    "sample-bulk": _bulk_pairs,
    "sample-sweep": _sweep_pairs,
    "dense-crosscheck": _crosscheck_pairs,
}


def op_pairs(workload: str, seed: int) -> Iterator[tuple[Op, Op]]:
    """The workload's operation stream; the same (workload, seed) gives the same ops."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# exact call counts per operation, for the tracer's self-check

CIRCUIT_ELEMENTS = {"pf": 4, "tb": 18}
CORRECTION_CANDIDATES = 16


def expected_counts(workload: str, kind: str, trials: int) -> dict[str, int]:
    """Calls per operation that the circuits and call graph fix exactly.

    ``circuit.apply`` is the sum over the ten circuit element types; PauliOp
    is counted on its own.  Every traced name not listed here is unchecked.
    """
    n, branches = CIRCUIT_ELEMENTS[kind], BRANCHES[kind]
    chunks = math.ceil(trials / runtime.CHUNK_TRIALS)
    counts = {name: 0 for name in (
        "cli.main", "cli.verify_report", "cli.sample_report", "runtime.sample_with_loss",
        "runtime.chunk_generator", "runtime.BranchSampler.init",
        "runtime.BranchSampler.draw_many", "runtime.encode_outcome",
        "protocols.run_protocol", "protocols.derive_correction", "elements.PauliOp.apply",
        "states.project_photon_a", "states.fidelity", "dense.evolve_dense",
        "dense.apply_dense", "dense.element_to_dense", "dense.unitarity_defect",
        "dense.state_to_vector", "dense.max_deviation",
    )}
    counts.update({"protocols.evolve": 1, "protocols.build_circuit": 1,
                   "states.make_hyper_bell": 1, "circuit.apply": n})
    if workload == "verify-random":
        counts.update({
            "cli.main": 1, "cli.verify_report": 1, "protocols.run_protocol": 1,
            "protocols.derive_correction": branches, "runtime.encode_outcome": branches,
            "elements.PauliOp.apply": branches * (1 + CORRECTION_CANDIDATES),
            "states.project_photon_a": branches,
            "states.fidelity": branches * (1 + CORRECTION_CANDIDATES),
        })
    elif workload in ("sample-bulk", "sample-sweep"):
        counts.update({
            "runtime.sample_with_loss": 1, "runtime.BranchSampler.init": 1,
            "runtime.chunk_generator": chunks, "runtime.BranchSampler.draw_many": chunks,
            "protocols.run_protocol": 1, "elements.PauliOp.apply": branches,
            "states.project_photon_a": branches, "states.fidelity": branches,
        })
        if workload == "sample-bulk":
            counts.update({"cli.main": 1, "cli.sample_report": 1})
    else:
        counts.update({
            "protocols.build_circuit": 2, "states.make_hyper_bell": 2,
            "dense.evolve_dense": 1, "dense.apply_dense": n, "dense.unitarity_defect": n,
            "dense.element_to_dense": 2 * n, "dense.state_to_vector": 2,
            "dense.max_deviation": 1,
        })
    return counts


def count_problems(counts, expected: dict[str, int]) -> list[str]:
    """Mismatches between one traced op's call counts and the exact ones."""
    counts = dict(counts)
    counts["circuit.apply"] = sum(
        v for k, v in counts.items()
        if k.startswith("elements.") and k.endswith(".apply") and k != "elements.PauliOp.apply")
    return [f"{name}: {counts.get(name, 0)} calls, expected {want}"
            for name, want in expected.items() if counts.get(name, 0) != want]
