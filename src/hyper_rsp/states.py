"""Labeled-basis state vectors for two photons with heterogeneous degrees of freedom.

A photon is described by an ordered tuple of registers (polarization, frequency,
spatial path, time bin), each with a declared, ordered value set.  A two-photon
state is a sparse map from basis labels, i.e. pairs of per-photon value tuples,
to complex amplitudes:

    |Ψ⟩ = Σ  c(a, b) |a⟩_A |b⟩_B,      Σ |c|² = 1.

The canonical basis order is lexicographic over (photon A registers, then
photon B registers) with each register's values in declaration order; the dense
verification route in :mod:`hyper_rsp.dense` relies on that ordering being
reproducible.

States are immutable; every operation returns a new instance.  Amplitudes with
magnitude below ``PRUNE_TOL`` are dropped, and the squared norm must stay
within ``NORM_TOL`` of one after every element application.  An element that is
a signed permutation (see :mod:`hyper_rsp.elements`) builds its output without
:meth:`StateVector.settle`: it keeps every magnitude and their order, so both
checks give what they gave on its input.  Immutability lets
a state keep what is derived from it: the channel is one state per protocol,
shared by every caller, and a measured state partitions its support by
photon-A ket once, on its first projection, for every outcome after it.

Every number entering the package passes :func:`_integer` or :func:`_number`,
the two rules kept here: each refuses a bool and raises ``ValueError`` naming it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

NORM_TOL = 1e-10
PRUNE_TOL = 1e-14
PARAM_TOL = 1e-12

POLARIZATION = ("H", "V")
FREQUENCY = ("w1", "w2")
TIME_BINS = (0, 1)  # early = 0, late = 1
# Photon A needs one unit of delay headroom for the interferometer stage.
TIME_BINS_WITH_DELAY = (0, 1, 2)

#: A basis label: (photon A values, photon B values), aligned with the schema.
Label = tuple[tuple, tuple]


class SchemaMismatchError(ValueError):
    """Two states (or a state and an operation) disagree on the register layout."""


class UnknownDetectorError(ValueError):
    """Measurement outcome names a polarization or path outside the registry."""


class ProtocolKind(Enum):
    """Which degree-of-freedom pair rides alongside polarization."""

    PF = "pf"  # polarization + frequency
    TB = "tb"  # polarization + time bin

    @classmethod
    def parse(cls, text: str) -> "ProtocolKind":
        try:
            return cls(text.lower())
        except (AttributeError, ValueError):  # AttributeError: ``text`` is no string
            raise ValueError(f"unknown protocol {text!r}; expected 'pf' or 'tb'") from None


def unknown_protocol(kind: object) -> ValueError:
    """The error every entry point raises for a kind that is not a ProtocolKind."""
    return ValueError(f"unknown protocol {kind!r}; expected a ProtocolKind")


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; anything else raises ``ValueError``, a bool too."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(name: str, value, kind: type = numbers.Real):
    """``value`` if it is a ``kind``, a ``numbers`` ABC, and no bool, which would
    pass as 0 or 1; anything else, a string too, raises ``ValueError``.  An exact
    ``float``, a real and a complex number both, passes before the ABC check."""
    if type(value) is float:
        return value
    if type(value) is bool or not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__.lower()} number, got {value!r}")
    return value


@dataclass(frozen=True)
class Register:
    """One degree-of-freedom slot: a name and its ordered, finite value set."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"register {self.name!r} has duplicate values")
        if not self.values:
            raise ValueError(f"register {self.name!r} has no values")

    def require(self, values: Iterable) -> None:
        """Raise ``ValueError`` naming the first of ``values`` the register lacks."""
        for value in values:
            if value not in self.values:
                raise ValueError(f"value {value!r} not in register {self.name!r}")


def pol_register() -> Register:
    return Register("pol", POLARIZATION)


def freq_register() -> Register:
    return Register("freq", FREQUENCY)


def time_register(values: tuple = TIME_BINS) -> Register:
    values = tuple(_integer("time-bin delay", v) for v in values)
    if any(v < 0 for v in values):
        raise ValueError("time-bin delays must be non-negative integers")
    return Register("time", values)


def path_register(paths: Iterable[str]) -> Register:
    return Register("path", tuple(paths))


class Layout:
    """One photon's register layout: its registers, their positions by name, and
    its canonical kets (value tuples, lexicographic) with their index.

    Built once per interned :class:`Schema` and photon; every element hook reads
    its registers here.
    """

    def __init__(self, photon: str, registers: tuple[Register, ...]):
        names = [r.name for r in registers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names: {names}")
        self.photon = photon
        self.registers = registers
        self.positions = {name: position for position, name in enumerate(names)}

    @cached_property
    def kets(self) -> tuple[tuple, ...]:
        return tuple(product(*(reg.values for reg in self.registers)))

    @cached_property
    def index(self) -> dict[tuple, int]:
        return {ket: i for i, ket in enumerate(self.kets)}

    def position(self, name: str) -> int:
        try:
            return self.positions[name]
        except KeyError:
            raise SchemaMismatchError(f"photon {self.photon} has no {name!r} register") from None

    def register(self, name: str) -> Register:
        return self.registers[self.position(name)]

    def validate_ket(self, ket: tuple) -> None:
        """Raise :class:`SchemaMismatchError`, naming the entry at fault, unless
        ``ket`` is one of the layout's kets."""
        if ket in self.index:
            return
        if len(ket) != len(self.registers):
            raise SchemaMismatchError(
                f"photon {self.photon} label {ket!r} has {len(ket)} entries, "
                f"schema has {len(self.registers)} registers"
            )
        for value, reg in zip(ket, self.registers):
            if value not in reg.values:
                raise SchemaMismatchError(f"value {value!r} not allowed in register {reg.name!r}")


#: The one Schema instance of each register layout; see Schema.__new__.
_SCHEMAS: dict[tuple, "Schema"] = {}


@dataclass(frozen=True, init=False, eq=False)
class Schema:
    """Fixed register layout of one circuit stage (photon A tuple, photon B tuple).

    Instances are interned: equal layouts give the identical object, so the
    per-photon :class:`Layout` and the label lookups below are built once per
    layout and shared by every state on it, and two schemas are equal exactly
    when they are the same object.  ``__new__`` sets the fields, once, so
    constructing an existing layout again writes nothing to the shared
    instance.
    """

    photon_a: tuple[Register, ...]
    photon_b: tuple[Register, ...]

    def __new__(cls, photon_a: tuple[Register, ...], photon_b: tuple[Register, ...]):
        key = (photon_a, photon_b)
        schema = _SCHEMAS.get(key)
        if schema is None:
            layouts = {"A": Layout("A", photon_a), "B": Layout("B", photon_b)}
            schema = super().__new__(cls)
            object.__setattr__(schema, "photon_a", photon_a)
            object.__setattr__(schema, "photon_b", photon_b)
            object.__setattr__(schema, "_layouts", layouts)
            _SCHEMAS[key] = schema
        return schema

    def __reduce__(self):
        return Schema, (self.photon_a, self.photon_b)

    @cached_property
    def canonical_labels(self) -> tuple[Label, ...]:
        """All basis labels in canonical (lexicographic) order, kept once."""
        a_kets, b_kets = self._layouts["A"].kets, self._layouts["B"].kets
        return tuple((a, b) for a in a_kets for b in b_kets)

    def layout(self, photon: str) -> Layout:
        try:
            return self._layouts[photon]
        except KeyError:
            raise ValueError(f"photon must be 'A' or 'B', got {photon!r}") from None

    def dimension(self) -> int:
        return len(self._layouts["A"].kets) * len(self._layouts["B"].kets)

    def validate_label(self, label: Label) -> None:
        a_values, b_values = label
        self._layouts["A"].validate_ket(a_values)
        self._layouts["B"].validate_ket(b_values)

    def format_label(self, label: Label) -> str:
        a_values, b_values = label
        a_txt = ",".join(str(v) for v in a_values) if a_values else "-"
        b_txt = ",".join(str(v) for v in b_values) if b_values else "-"
        if not a_values:
            return f"|{b_txt}>"
        return f"|{a_txt}>A|{b_txt}>B"


@dataclass(frozen=True)
class Outcome:
    """One of the sender's detector results: a polarization on an output path."""

    polarization: str
    path: str

    def __str__(self) -> str:
        return f"{self.polarization}@{self.path}"


@dataclass(frozen=True)
class StateVector:
    """Normalized sparse amplitude map over one schema.  Immutable."""

    schema: Schema
    amplitudes: Mapping[Label, complex]

    @classmethod
    def build(cls, schema: Schema, amplitudes: Mapping[Label, complex]) -> "StateVector":
        """Validate every label, then :meth:`settle`."""
        for label in amplitudes:
            schema.validate_label(label)
        return cls.settle(schema, amplitudes)

    @classmethod
    def settle(cls, schema: Schema, amplitudes: Mapping) -> "StateVector":
        """Prune tiny amplitudes and enforce unit norm, in one pass over labels
        the caller knows to be ``schema``'s; :meth:`build` checks them."""
        pruned: dict[Label, complex] = {}
        # Term by term in insertion order: sum() of floats is compensated from Python 3.12 on.
        norm_sq = 0.0
        for label, amp in amplitudes.items():
            if type(amp) is not complex:
                amp = complex(_number("amplitude", amp, numbers.Complex))
            magnitude = abs(amp)
            if magnitude < PRUNE_TOL:
                continue
            pruned[label] = amp
            norm_sq += magnitude ** 2
        if not math.isfinite(norm_sq):
            raise ValueError(f"state norm² = {norm_sq!r} is not finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm² = {norm_sq!r}, expected 1 within {NORM_TOL}")
        return cls(schema, MappingProxyType(pruned))

    @cached_property
    def _residuals(self) -> dict[tuple, dict[Label, complex]]:
        """The support partitioned by photon-A ket, in one pass on the first
        :func:`project_photon_a` of this state and kept with it: each part is the
        receiver's unnormalized residual, ``((), b) → 0j + amp`` in support order."""
        parts: dict[tuple, dict[Label, complex]] = {}
        for (a_values, b_values), amp in self.amplitudes.items():
            part = parts.get(a_values)
            if part is None:
                part = parts[a_values] = {}
            part[((), b_values)] = 0j + amp
        return parts

    def amplitude(self, label: Label) -> complex:
        return self.amplitudes.get(label, 0j)

    def norm_sq(self) -> float:
        norm_sq = 0.0  # summed term by term in insertion order, as settle does
        for amp in self.amplitudes.values():
            norm_sq += abs(amp) ** 2
        return norm_sq

    def __str__(self) -> str:
        parts = [
            f"({amp.real:+.4f}{amp.imag:+.4f}j){self.schema.format_label(label)}"
            for label, amp in sorted(self.amplitudes.items(), key=str)
        ]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class TargetParams:
    """The three real coefficient pairs defining the state to be prepared.

    Each pair weights the two values of the register named for it in ``PAIRS``:
    (alpha0, beta0) H/V polarization, (alpha1, beta1) the two frequency modes,
    and (alpha2, beta2) the early/late time bins.  Each pair must sit on the
    unit circle within ``PARAM_TOL``; all six values are real numbers, not
    bools, in [-1, 1].
    """

    alpha0: float
    beta0: float
    alpha1: float = 1.0
    beta1: float = 0.0
    alpha2: float = 1.0
    beta2: float = 0.0

    #: register name -> the fields of the pair weighting its two values
    PAIRS = MappingProxyType({
        "pol": ("alpha0", "beta0"),
        "freq": ("alpha1", "beta1"),
        "time": ("alpha2", "beta2"),
    })

    def __post_init__(self) -> None:
        for name, fields in self.PAIRS.items():
            alpha, beta = self.pair(name)
            for field_name, v in zip(fields, (alpha, beta)):
                _number(field_name, v)
                if not -1.0 <= v <= 1.0:
                    raise ValueError(f"{name} coefficient {v!r} outside [-1, 1]")
            r = alpha * alpha + beta * beta
            if abs(r - 1.0) > PARAM_TOL:
                raise ValueError(
                    f"{name} pair ({alpha}, {beta}) not normalized: α²+β² = {r!r}"
                )

    def pair(self, register: str) -> tuple[float, float]:
        """The (alpha, beta) pair weighting the named register's two values."""
        alpha, beta = self.PAIRS[register]
        return getattr(self, alpha), getattr(self, beta)

    @classmethod
    def from_angles(cls, theta_p: float, theta_f: float, theta_t: float) -> "TargetParams":
        """Build from three angles on the real parameter circle."""
        for name, angle in (("theta_p", theta_p), ("theta_f", theta_f), ("theta_t", theta_t)):
            _number(name, angle)
        return cls(
            alpha0=math.cos(theta_p),
            beta0=math.sin(theta_p),
            alpha1=math.cos(theta_f),
            beta1=math.sin(theta_f),
            alpha2=math.cos(theta_t),
            beta2=math.sin(theta_t),
        )


@cache
def hyper_bell_schema(kind: ProtocolKind) -> Schema:
    """Each protocol's registers, declared once: polarization and its second
    degree of freedom on both photons; photon A's time bins have delay headroom."""
    if kind is ProtocolKind.PF:
        return Schema(
            (pol_register(), freq_register()),
            (pol_register(), freq_register()),
        )
    if kind is not ProtocolKind.TB:
        raise unknown_protocol(kind)
    return Schema(
        (pol_register(), time_register(TIME_BINS_WITH_DELAY)),
        (pol_register(), time_register()),
    )


def receiver_schema(kind: ProtocolKind) -> Schema:
    """Schema of the receiver's photon alone (photon A already measured away)."""
    return Schema((), hyper_bell_schema(kind).photon_b)


@cache
def make_hyper_bell(kind: ProtocolKind) -> StateVector:
    """The shared channel ½(|HH⟩+|VV⟩)(|ω₁ω₁⟩+|ω₂ω₂⟩), or with (|ee⟩+|ll⟩).

    Each of photon B's four canonical kets paired with itself, amplitude ½, so
    both registers are perfectly correlated.  Built once per protocol: every
    caller gets the same read-only state.
    """
    schema = hyper_bell_schema(kind)
    return StateVector.build(schema, {(ket, ket): 0.5 for ket in schema.layout("B").kets})


def make_target(params: TargetParams, kind: ProtocolKind) -> StateVector:
    """The receiver-side product state (α₀|H⟩+β₀|V⟩)(α₁|ω₁⟩+β₁|ω₂⟩) or its time-bin
    twin: each register's values weighted by the pair named for that register."""
    schema = receiver_schema(kind)
    layout = schema.layout("B")
    # The kets are the product of the registers' values, in the same order.
    weights = product(*(params.pair(reg.name) for reg in layout.registers))
    amps = {((), ket): complex(math.prod(w)) for ket, w in zip(layout.kets, weights, strict=True)}
    return StateVector.settle(schema, amps)


def fidelity(s: StateVector, t: StateVector) -> float:
    """|⟨t|s⟩|² for normalized states; invariant under global phase of either."""
    if s.schema != t.schema:
        raise SchemaMismatchError("fidelity requires matching schemas")
    overlap = 0j
    t_amplitude = t.amplitudes.get
    for label, amp in s.amplitudes.items():
        overlap += t_amplitude(label, 0j).conjugate() * amp
    return abs(overlap) ** 2


@cache
def _detector(schema: Schema, outcome: Outcome) -> tuple[tuple, Schema]:
    """The photon-A ket ``outcome`` names on ``schema`` and the receiver's schema,
    kept once the register and detector checks pass; a failed check keeps
    nothing, so it raises on every call."""
    layout = schema.layout("A")
    names = sorted(layout.positions)
    if names != ["path", "pol"]:
        raise SchemaMismatchError(
            f"projective measurement needs photon A in (pol, path) registers, got {names}"
        )
    pol_reg, path_reg = layout.register("pol"), layout.register("path")
    if outcome.polarization not in pol_reg.values or outcome.path not in path_reg.values:
        raise UnknownDetectorError(f"no detector for outcome {outcome}")
    named = {"pol": outcome.polarization, "path": outcome.path}
    return tuple(named[reg.name] for reg in layout.registers), Schema((), schema.photon_b)


def project_photon_a(
    state: StateVector, outcome: Outcome
) -> tuple[float, StateVector | None]:
    """Project photon A onto one detector (polarization, path) and collapse.

    Returns (probability, receiver state).  A zero-probability branch is
    reported as (0.0, None) rather than an error, since degenerate parameters
    legitimately empty branches.
    """
    ket, receiver = _detector(state.schema, outcome)
    residual = state._residuals.get(ket)
    if residual is None:
        return 0.0, None
    probability = 0.0  # summed term by term in insertion order, as settle does
    for amp in residual.values():
        probability += abs(amp) ** 2
    if probability == 0.0:
        return 0.0, None
    # the residual's labels are the state's own photon-B kets: no check to repeat
    scale = 1.0 / math.sqrt(probability)
    return probability, StateVector.settle(
        receiver, {label: amp * scale for label, amp in residual.items()})
