"""The two remote-preparation circuits, branch enumeration, and correction maps.

Both circuits act only on the sender's photon A of a shared hyper-entangled
pair and end in a projective polarization measurement on labeled output paths.
Only the rotations (R_θ, R_θ₁, R_θ₂ and the splitter's φ) depend on the target;
every other stage is fixed optics.

Polarization-frequency circuit (four detectors, one per pol x {a1, a2}):

    R_θ  →  wavelength router (ω₁→a1, ω₂→a2)  →  frequency eraser  →
    variable splitter on (a1, a2) with φ/2 picked from (α₁, β₁).

Polarization-time-bin circuit (eight detectors, pol x {kp1..kp4}):

    R_θ  →  entry PBS (H→a2, V→a1)  →  Pockels cells (early on a2, late on a1)
    →  crossing PBS  →  per-path unbalanced interferometers whose long (V) arm
    adds one delay unit and whose arms carry R_θ₁ / R_θ₂  →  the now-uniform
    time register is dropped  →  H↔V flips on k1, k2  →  two 50:50 splitters
    (k1,k4)→(kp1,kp4) and (k2,k3)→(kp2,kp3).

The receiver applies a two-factor Pauli correction keyed on the announced
outcome.  One table per protocol, read off the circuit on first use, holds the
classical side: each detector (an occupied photon-A ket of the final stage) in
canonical order, its message code (its position in that order) and its
correction, the single match of the 16-way search `derive_correction` at a
fixed generic target.  The payload width is ⌈log₂⌉ of the table's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .elements import (
    BalancedSplitter,
    DropUniformRegister,
    Element,
    FrequencyEraser,
    HalfWavePlate,
    LongArmDelay,
    PauliOp,
    PockelsCell,
    PolarizationRotation,
    PolarizingRouter,
    UnbalancedSplitter,
    WavelengthRouter,
    all_pauli_strings,
)
from .states import (
    Outcome,
    ProtocolKind,
    SchemaMismatchError,
    StateVector,
    TargetParams,
    UnknownDetectorError,
    fidelity,
    make_hyper_bell,
    make_target,
    project_photon_a,
    unknown_protocol,
)

FIDELITY_TOL = 1e-10

PF_PATHS = ("a1", "a2")
TB_PATHS = ("a1", "a2", "k1", "k2", "k3", "k4", "kp1", "kp2", "kp3", "kp4")


class CorrectionNotFoundError(RuntimeError):
    """Not exactly one Pauli correction reaches the generic target: a circuit or
    convention inconsistency."""


def rotation_angle(alpha: float, beta: float) -> float:
    """Rotation angle realizing (cosθ, sinθ) = (α, β).

    Equals arccos(α) whenever β ≥ 0; the atan2 form extends the construction
    to negative β, which a bare arccos cannot reach.
    """
    return math.atan2(beta, alpha)


#: The fixed optics of each circuit, in the order photon A meets them: one
#: instance each per process, so every circuit of one kind shares them and the
#: lowerings kept on them.  The rotations between them are built per target by
#: the circuit functions below.
_PF_OPTICS = (
    WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, PF_PATHS),
    FrequencyEraser("A", {"a1": "w1", "a2": "w2"}),
)
#: tb up to the rotations in the interferometer arms.
_TB_INTO_ARMS = (
    # Entry PBS: transmit H to a2, reflect V to a1.
    PolarizingRouter("A", {"H": "a2", "V": "a1"}, registry=TB_PATHS),
    PockelsCell("A", paths=("a2",), time_value=0),
    PockelsCell("A", paths=("a1",), time_value=1),
    # Crossing PBS: H swaps paths, V stays.
    PolarizingRouter("A", {("H", "a1"): "a2", ("V", "a1"): "a1",
                           ("H", "a2"): "a1", ("V", "a2"): "a2"}),
    # Interferometer entries: short (H) arm k1/k4, long (V) arm k2/k3.
    PolarizingRouter("A", {("H", "a1"): "k1", ("V", "a1"): "k2"}),
    PolarizingRouter("A", {("H", "a2"): "k4", ("V", "a2"): "k3"}),
    LongArmDelay("A", "k2", "V"),
    LongArmDelay("A", "k3", "V"),
)
#: tb after the rotations in the interferometer arms.
_TB_OUT_OF_ARMS = (
    # Interferometer exits: H transmits straight, V crosses arms.
    PolarizingRouter("A", {("H", "k1"): "k1", ("V", "k1"): "k2",
                           ("H", "k2"): "k2", ("V", "k2"): "k1"}),
    PolarizingRouter("A", {("H", "k3"): "k3", ("V", "k3"): "k4",
                           ("H", "k4"): "k4", ("V", "k4"): "k3"}),
    # Both arms now sit in the same bin; the mark carries no information.
    DropUniformRegister("A", "time", expected_value=1),
    HalfWavePlate("A", ("k1",)),
    HalfWavePlate("A", ("k2",)),
    BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp4")),
    BalancedSplitter("A", ("k2", "k3"), ("kp2", "kp3")),
)


def _pf_circuit(p: TargetParams) -> tuple[Element, ...]:
    return (
        PolarizationRotation("A", rotation_angle(p.alpha0, p.beta0)),
        *_PF_OPTICS,
        UnbalancedSplitter("A", ("a1", "a2"), 2.0 * rotation_angle(p.alpha1, p.beta1)),
    )


def _tb_circuit(p: TargetParams) -> tuple[Element, ...]:
    theta2 = rotation_angle(p.alpha2, p.beta2)
    return (
        PolarizationRotation("A", rotation_angle(p.alpha0, p.beta0)),
        *_TB_INTO_ARMS,
        PolarizationRotation("A", theta2, paths=("k1", "k4")),
        PolarizationRotation("A", theta2 - math.pi / 2.0, paths=("k2", "k3")),
        *_TB_OUT_OF_ARMS,
    )


_CIRCUITS = {ProtocolKind.PF: _pf_circuit, ProtocolKind.TB: _tb_circuit}


def build_circuit(kind: ProtocolKind, params: TargetParams) -> tuple[Element, ...]:
    """The stages photon A traverses, the rotations built for ``params``."""
    try:
        circuit = _CIRCUITS[kind]
    except KeyError:
        raise unknown_protocol(kind) from None
    return circuit(params)


def evolve(kind: ProtocolKind, params: TargetParams) -> StateVector:
    """The pre-measurement state: the hyper-entangled pair through the circuit."""
    state = make_hyper_bell(kind)
    for element in build_circuit(kind, params):
        state = element.apply(state)
    return state


#: Generic target: no pair on an axis, four distinct receiver amplitudes.
_GENERIC_TARGET = TargetParams.from_angles(0.3, 1.1, 2.0)


@cache
def _corrections(kind: ProtocolKind) -> dict[Outcome, tuple[int, PauliOp]]:
    """The protocol's classical side, built on first use: the final stage's
    occupied photon-A kets in canonical order (the detector registry), each
    mapped to its message code (its position) and its correction, which must
    be the search's single match."""
    final = evolve(kind, _GENERIC_TARGET)
    target = make_target(_GENERIC_TARGET, kind)
    layout = final.schema.layout("A")
    occupied = {a_values for a_values, _ in final.amplitudes}
    table = {}
    for ket in filter(occupied.__contains__, layout.kets):
        outcome = Outcome(ket[layout.positions["pol"]], ket[layout.positions["path"]])
        matches = derive_correction(project_photon_a(final, outcome)[1], target).matches
        if len(matches) != 1:
            raise CorrectionNotFoundError(f"{len(matches)} corrections for outcome {outcome}")
        table[outcome] = (len(table), matches[0])
    return table


def outcome_registry(kind: ProtocolKind) -> tuple[Outcome, ...]:
    """All detector outcomes, in classical-message code order."""
    return tuple(_corrections(kind))


def correction_table(kind: ProtocolKind, outcome: Outcome) -> PauliOp:
    """The receiver's correction for one announced outcome."""
    try:
        return _corrections(kind)[outcome][1]
    except KeyError:
        raise UnknownDetectorError(f"no correction tabulated for outcome {outcome}") from None


@dataclass(frozen=True)
class BranchReport:
    """One measurement branch: outcome, weight, the receiver states, and the
    target the corrected state was scored against."""

    outcome: Outcome
    probability: float
    bob_state_pre: StateVector
    correction: PauliOp
    bob_state_post: StateVector
    fidelity_post: float
    target: StateVector


def run_protocol(kind: ProtocolKind, params: TargetParams) -> tuple[BranchReport, ...]:
    """Enumerate every detector outcome of the finished circuit exactly.

    Each branch's collapsed receiver state is corrected by the tabulated
    operator and scored against the target; an ideal run reports fidelity 1 on
    every branch.
    """
    final = evolve(kind, params)
    target = make_target(params, kind)
    reports = []
    for outcome, (_, correction) in _corrections(kind).items():
        probability, bob_pre = project_photon_a(final, outcome)
        if bob_pre is None:
            raise RuntimeError(f"branch {outcome} unexpectedly empty")
        bob_post = correction.apply(bob_pre)
        reports.append(
            BranchReport(
                outcome=outcome,
                probability=probability,
                bob_state_pre=bob_pre,
                correction=correction,
                bob_state_post=bob_post,
                fidelity_post=fidelity(bob_post, target),
                target=target,
            )
        )
    return tuple(reports)


@dataclass(frozen=True)
class CorrectionSearch:
    """Outcome of the exhaustive 16-way correction search."""

    matches: tuple[PauliOp, ...]


def derive_correction(bob_state: StateVector, target: StateVector) -> CorrectionSearch:
    """Search all 16 two-factor corrections for ones reaching the target.

    Returns every candidate with fidelity 1 within tolerance, in a fixed
    enumeration order: exactly one at generic parameters, several at a
    degenerate target, none for a state no correction reaches.  Raises
    :class:`SchemaMismatchError` when the two schemas differ or the receiver
    does not hold exactly two registers.
    """
    if bob_state.schema != target.schema:
        raise SchemaMismatchError("collapsed state and target must share one schema")
    register_names = tuple(r.name for r in target.schema.photon_b)
    if len(register_names) != 2:
        raise SchemaMismatchError("correction search expects a two-register receiver photon")
    matches = []
    for candidate in all_pauli_strings(register_names):
        corrected = candidate.apply(bob_state)
        if fidelity(corrected, target) >= 1.0 - FIDELITY_TOL:
            matches.append(candidate)
    return CorrectionSearch(tuple(matches))
