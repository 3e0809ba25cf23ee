"""Linear-optical elements as verified rewrites on labeled state vectors.

Every element is a small frozen dataclass acting on one photon, and each of its
hooks is handed only that photon's :class:`~hyper_rsp.states.Layout`: ``validate``
checks the registers, ``output_registers`` names them after the element, and
``ket_image`` declares the action per ket (the photon's value tuple).
Application splits each two-photon label once, extends the map linearly over the
state's support, and ends with pruning and a norm check.  A hook never sees the
other photon, so every element is M ⊗ I (or I ⊗ M) by construction.
The same ket images feed the dense matrix route in :mod:`hyper_rsp.dense`,
which independently checks unitarity and matrix-vector equivalence.

Some optics are unitary only on legal inputs (path-frequency correlation, empty
unused ports, a free later time bin, a uniform register).  Each element states
that rule once, as the per-ket predicate :meth:`Element.admits`; its
:meth:`Element.domain` is derived from it, so the sparse :meth:`Element.apply`
and the dense lowering reject exactly the same kets.

Ket conventions used throughout (θ, φ in radians):

    rotation      |H⟩ → cosθ|H⟩ + sinθ|V⟩,   |V⟩ → -sinθ|H⟩ + cosθ|V⟩
    unbalanced    |p⟩ → cos(φ/2)|p⟩ + sin(φ/2)|q⟩,  |q⟩ → -sin(φ/2)|p⟩ + cos(φ/2)|q⟩
    balanced      |in₁⟩ → (|out₁⟩+|out₂⟩)/√2,       |in₂⟩ → (|out₁⟩-|out₂⟩)/√2

Pauli factors act on two-valued registers (x₀, x₁) as

    σ_z: x₀ → x₀, x₁ → -x₁       σ_x: swap
    iσ_y: x₀ → x₁, x₁ → -x₀      I: identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .states import (
    Label,
    Layout,
    Register,
    Schema,
    SchemaMismatchError,
    StateVector,
    path_register,
)

PAULI_AXES = ("I", "sx", "isy", "sz")

#: dof tag used in operator names, per register
_DOF_TAGS = {"pol": "p", "freq": "f", "time": "t", "path": "s"}


class CorrelationError(ValueError):
    """A rewrite that is only unitary on correlated labels met an illegal state."""


def _pauli_factor_action(axis: str, index: int) -> tuple[int, float]:
    """Image of basis value ``index`` (0 or 1): (new index, sign)."""
    if axis == "I":
        return index, 1.0
    if axis == "sx":
        return 1 - index, 1.0
    if axis == "sz":
        return index, 1.0 if index == 0 else -1.0
    if axis == "isy":
        # x₀ → x₁, x₁ → -x₀
        return 1 - index, 1.0 if index == 0 else -1.0
    raise ValueError(f"unknown Pauli axis {axis!r}")


@dataclass(frozen=True)
class PauliString:
    """A correction operator: one Pauli factor per receiver register.

    ``factors`` holds exactly two (register name, axis) pairs, axis in
    {"I", "sx", "isy", "sz"}.
    """

    factors: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(self.factors) != 2:
            raise ValueError("a correction carries exactly two factors")
        names = [register for register, _ in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(f"a correction acts on each register once, got {names}")
        for register, axis in self.factors:
            if axis not in PAULI_AXES:
                raise ValueError(f"unknown Pauli axis {axis!r} on register {register!r}")

    def compact(self) -> str:
        """Short ASCII form, e.g. ``sz^p*sx^f``."""
        parts = []
        for register, axis in self.factors:
            tag = _DOF_TAGS.get(register, register)
            parts.append(f"{axis}^{tag}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.compact()


@dataclass(frozen=True)
class Element:
    """Base class: a linear map declared ket-by-ket on one photon.

    Every hook receives only the acting photon's :class:`Layout`, and
    :meth:`admits` and :meth:`ket_image` also that photon's value tuple (its
    ket).  :meth:`apply` and :meth:`output_schema`, the only methods that see
    the two-photon :class:`Schema`, are derived: :meth:`apply` splits each
    two-photon label once and reassembles it around the image.  :meth:`admits`
    is the element's one legality rule: the sparse :meth:`apply` rejects any
    support ket it refuses, and the dense lowering builds its matrix over
    :meth:`domain`, which is derived from it.
    """

    photon: str

    # -- declaration hooks -------------------------------------------------
    def validate(self, layout: Layout) -> None:
        """Register-level preconditions; raise if the element cannot apply."""

    def output_registers(self, layout: Layout) -> tuple[Register, ...]:
        """The photon's registers after the element (default: unchanged)."""
        return layout.registers

    def admits(self, ket: tuple, layout: Layout) -> bool:
        """Whether the map is defined on ``ket`` (default: every ket)."""
        return True

    def ket_image(self, ket: tuple, layout: Layout) -> list[tuple[tuple, complex]]:
        raise NotImplementedError

    # -- derived -----------------------------------------------------------
    def domain(self, layout: Layout) -> list[tuple]:
        """The photon's canonical kets on which the map is defined."""
        return [ket for ket in layout.kets if self.admits(ket, layout)]

    def output_schema(self, schema: Schema) -> Schema:
        """``schema`` itself, or the interned schema with the photon's registers
        replaced by :meth:`output_registers`."""
        layout = schema.layout(self.photon)
        registers = self.output_registers(layout)
        if registers is layout.registers:
            return schema
        if self.photon == "A":
            return Schema(registers, schema.photon_b)
        return Schema(schema.photon_a, registers)

    def apply(self, state: StateVector) -> StateVector:
        schema = state.schema
        layout = schema.layout(self.photon)
        self.validate(layout)
        out_schema = self.output_schema(schema)
        on_a = self.photon == "A"
        acc: dict[Label, complex] = {}
        for label, amp in state.items():
            ket, rest = label if on_a else label[::-1]
            if not self.admits(ket, layout):
                raise CorrelationError(
                    f"{type(self).__name__}: ket {schema.format_label(label)} lies "
                    "outside the element's legal domain"
                )
            for image, coeff in self.ket_image(ket, layout):
                new_label = (image, rest) if on_a else (rest, image)
                acc[new_label] = acc.get(new_label, 0j) + amp * coeff
        return StateVector.build(out_schema, acc)


def _with(ket: tuple, position: int, value) -> tuple:
    """``ket`` with the entry at ``position`` set to ``value``."""
    return ket[:position] + (value,) + ket[position + 1 :]


def _without(entries: tuple, position: int) -> tuple:
    """``entries`` (a ket or a register tuple) without the one at ``position``."""
    return entries[:position] + entries[position + 1 :]


@dataclass(frozen=True)
class PolarizationRotation(Element):
    """Wave plate rotating H/V by ``theta``, optionally restricted to paths."""

    theta: float
    paths: tuple[str, ...] | None = None

    def validate(self, layout: Layout) -> None:
        layout.register("pol")
        if self.paths is not None:
            reg = layout.register("path")
            for p in self.paths:
                reg.index(p)

    def ket_image(self, ket, layout):
        if self.paths is not None and ket[layout.positions["path"]] not in self.paths:
            return [(ket, 1.0 + 0j)]
        i_pol = layout.positions["pol"]
        c, s = math.cos(self.theta), math.sin(self.theta)
        if ket[i_pol] == "H":
            return [(_with(ket, i_pol, "H"), c), (_with(ket, i_pol, "V"), s)]
        return [(_with(ket, i_pol, "H"), -s), (_with(ket, i_pol, "V"), c)]


@dataclass(frozen=True)
class UnbalancedSplitter(Element):
    """Variable splitter mixing two spatial modes by the angle ``phi``."""

    path_pair: tuple[str, str]
    phi: float

    def validate(self, layout: Layout) -> None:
        if self.path_pair[0] == self.path_pair[1]:
            raise ValueError(f"splitter needs two distinct paths, got {self.path_pair}")
        reg = layout.register("path")
        for p in self.path_pair:
            reg.index(p)

    def ket_image(self, ket, layout):
        i_path = layout.positions["path"]
        p, q = self.path_pair
        c, s = math.cos(self.phi / 2.0), math.sin(self.phi / 2.0)
        if ket[i_path] == p:
            return [(_with(ket, i_path, p), c), (_with(ket, i_path, q), s)]
        if ket[i_path] == q:
            return [(_with(ket, i_path, p), -s), (_with(ket, i_path, q), c)]
        return [(ket, 1.0 + 0j)]


@dataclass(frozen=True)
class WavelengthRouter(Element):
    """Frequency-keyed path entry: |ω_i⟩ picks up the path assigned to ω_i.

    Adds the path register (declared registry) to the photon; amplitudes are
    untouched, so this is a pure relabeling.
    """

    routing: Mapping[str, str]
    registry: tuple[str, ...]

    def validate(self, layout: Layout) -> None:
        freq = layout.register("freq")
        if "path" in layout.positions:
            raise SchemaMismatchError("path register already present before routing")
        missing = [f for f in freq.values if f not in self.routing]
        if missing:
            raise ValueError(f"routing does not cover frequencies {missing}")
        for f, target in self.routing.items():
            freq.index(f)
            if target not in self.registry:
                raise ValueError(f"routed path {target!r} not in declared registry")

    def output_registers(self, layout):
        return layout.registers + (path_register(self.registry),)

    def ket_image(self, ket, layout):
        return [(ket + (self.routing[ket[layout.positions["freq"]]],), 1.0 + 0j)]


@dataclass(frozen=True)
class FrequencyEraser(Element):
    """Frequency conversion to a common mode, erasing which-path frequency marks.

    Legal only when frequency is perfectly correlated with path (``correlation``
    maps each path to its expected frequency); otherwise the rewrite would merge
    distinct kets and fail unitarity, so it is rejected.  Once uniform, the
    frequency register is dropped from the schema.
    """

    correlation: Mapping[str, str]

    def validate(self, layout: Layout) -> None:
        freq = layout.register("freq")
        path = layout.register("path")
        missing = [p for p in path.values if p not in self.correlation]
        if missing:
            raise ValueError(f"correlation does not cover paths {missing}")
        for p, f in self.correlation.items():
            path.index(p)
            freq.index(f)

    def output_registers(self, layout):
        return _without(layout.registers, layout.position("freq"))

    def admits(self, ket, layout):
        path = ket[layout.positions["path"]]
        return ket[layout.positions["freq"]] == self.correlation[path]

    def ket_image(self, ket, layout):
        return [(_without(ket, layout.positions["freq"]), 1.0 + 0j)]


@dataclass(frozen=True)
class PolarizingRouter(Element):
    """Polarizing beam splitter as a (polarization, input path) -> output path table.

    With ``registry`` set, the router is the circuit's entry point: the photon
    has no path register yet, routing keys are bare polarizations, and the
    declared path register is added to the schema.  Paths absent from the
    table pass through unchanged.
    """

    routing: Mapping
    registry: tuple[str, ...] | None = None

    def _entry(self) -> bool:
        return self.registry is not None

    def validate(self, layout: Layout) -> None:
        pol = layout.register("pol")
        if self._entry():
            if "path" in layout.positions:
                raise SchemaMismatchError("path register already present before routing")
            missing = [p for p in pol.values if p not in self.routing]
            if missing:
                raise ValueError(f"entry routing does not cover polarizations {missing}")
            for p, target in self.routing.items():
                pol.index(p)
                if target not in self.registry:
                    raise ValueError(f"routed path {target!r} not in declared registry")
            return
        path = layout.register("path")
        if len(self._images) != len(self.routing):
            raise ValueError("routing sends two inputs of one polarization to the same path")
        for pol_value, p in self.routing:
            pol.index(pol_value)
            path.index(p)
            for other in pol.values:
                if (other, p) not in self.routing:
                    raise ValueError(
                        f"routing table misses ({other!r}, {p!r}); both polarizations "
                        "must be covered for every input path"
                    )
        for target in self.routing.values():
            path.index(target)

    def output_registers(self, layout):
        if self._entry():
            return layout.registers + (path_register(self.registry),)
        return layout.registers

    def admits(self, ket, layout):
        """An unused input port, one a routed input is sent to, must stay empty."""
        if self._entry():
            return True
        key = (ket[layout.positions["pol"]], ket[layout.positions["path"]])
        return key in self.routing or key not in self._images

    @functools.cached_property
    def _images(self) -> frozenset[tuple[str, str]]:
        """The (polarization, path) pairs the routed inputs are sent to."""
        return frozenset((pol, target) for (pol, _), target in self.routing.items())

    def ket_image(self, ket, layout):
        pol = ket[layout.positions["pol"]]
        if self._entry():
            return [(ket + (self.routing[pol],), 1.0 + 0j)]
        i_path = layout.positions["path"]
        if (pol, ket[i_path]) not in self.routing:
            return [(ket, 1.0 + 0j)]
        return [(_with(ket, i_path, self.routing[(pol, ket[i_path])]), 1.0 + 0j)]


@dataclass(frozen=True)
class PockelsCell(Element):
    """Fast switch: flips polarization only in one time bin on the listed paths."""

    paths: tuple[str, ...]
    time_value: int

    def validate(self, layout: Layout) -> None:
        layout.register("pol")
        layout.register("time").index(self.time_value)
        path = layout.register("path")
        for p in self.paths:
            path.index(p)

    def ket_image(self, ket, layout):
        i_pol = layout.positions["pol"]
        on_path = ket[layout.positions["path"]] in self.paths
        if on_path and ket[layout.positions["time"]] == self.time_value:
            flipped = "V" if ket[i_pol] == "H" else "H"
            return [(_with(ket, i_pol, flipped), 1.0 + 0j)]
        return [(ket, 1.0 + 0j)]


@dataclass(frozen=True)
class LongArmDelay(Element):
    """Unbalanced-interferometer arm: the designated polarization on one path
    gains one unit of delay, cancelling the gap between the two time bins."""

    path: str
    long_arm_polarization: str

    def validate(self, layout: Layout) -> None:
        layout.register("pol").index(self.long_arm_polarization)
        layout.register("time")
        layout.register("path").index(self.path)

    def _matches(self, ket: tuple, layout: Layout) -> bool:
        return (
            ket[layout.positions["path"]] == self.path
            and ket[layout.positions["pol"]] == self.long_arm_polarization
        )

    def admits(self, ket, layout):
        """A delayed ket needs a later time bin to move into."""
        if not self._matches(ket, layout):
            return True
        i_time = layout.positions["time"]
        return ket[i_time] + 1 in layout.registers[i_time].values

    def ket_image(self, ket, layout):
        if not self._matches(ket, layout):
            return [(ket, 1.0 + 0j)]
        i_time = layout.positions["time"]
        return [(_with(ket, i_time, ket[i_time] + 1), 1.0 + 0j)]


@dataclass(frozen=True)
class DropUniformRegister(Element):
    """Explicit schema transform removing a register whose value is uniform.

    The expected value is pinned at circuit-construction time; a state whose
    support disagrees is rejected (dropping would merge distinct kets).
    """

    register: str
    expected_value: object

    def validate(self, layout: Layout) -> None:
        layout.register(self.register).index(self.expected_value)

    def output_registers(self, layout):
        return _without(layout.registers, layout.position(self.register))

    def admits(self, ket, layout):
        return ket[layout.positions[self.register]] == self.expected_value

    def ket_image(self, ket, layout):
        return [(_without(ket, layout.positions[self.register]), 1.0 + 0j)]


@dataclass(frozen=True)
class HalfWavePlate(Element):
    """H <-> V flip restricted to the listed paths."""

    paths: tuple[str, ...]

    def validate(self, layout: Layout) -> None:
        layout.register("pol")
        path = layout.register("path")
        for p in self.paths:
            path.index(p)

    def ket_image(self, ket, layout):
        i_pol = layout.positions["pol"]
        if ket[layout.positions["path"]] in self.paths:
            flipped = "V" if ket[i_pol] == "H" else "H"
            return [(_with(ket, i_pol, flipped), 1.0 + 0j)]
        return [(ket, 1.0 + 0j)]


@dataclass(frozen=True)
class BalancedSplitter(Element):
    """50:50 splitter on the single-photon sector.

    |in₁⟩ → (|out₁⟩+|out₂⟩)/√2 and |in₂⟩ → (|out₁⟩-|out₂⟩)/√2; other paths are
    untouched.
    """

    inputs: tuple[str, str]
    outputs: tuple[str, str]

    def validate(self, layout: Layout) -> None:
        if len(set(self.inputs)) != 2 or len(set(self.outputs)) != 2:
            raise ValueError(f"splitter ports must be distinct: {self.inputs} -> {self.outputs}")
        path = layout.register("path")
        for p in self.inputs + self.outputs:
            path.index(p)

    def admits(self, ket, layout):
        """Fresh output paths are unused ports; amplitude there would collide
        with the split images."""
        here = ket[layout.positions["path"]]
        return here in self.inputs or here not in self.outputs

    def ket_image(self, ket, layout):
        i_path = layout.positions["path"]
        in1, in2 = self.inputs
        out1, out2 = self.outputs
        r = 1.0 / math.sqrt(2.0)
        if ket[i_path] == in1:
            return [(_with(ket, i_path, out1), r), (_with(ket, i_path, out2), r)]
        if ket[i_path] == in2:
            return [(_with(ket, i_path, out1), r), (_with(ket, i_path, out2), -r)]
        return [(ket, 1.0 + 0j)]


@dataclass(frozen=True)
class PauliOp(Element):
    """Apply a two-factor correction to the photon's named registers."""

    string: PauliString

    def validate(self, layout: Layout) -> None:
        for register, _ in self.string.factors:
            reg = layout.register(register)
            if len(reg.values) != 2:
                raise SchemaMismatchError(
                    f"Pauli factor needs a two-valued register, {register!r} has "
                    f"{len(reg.values)} values"
                )

    def ket_image(self, ket, layout):
        image = _pauli_images(layout, self.string).get(ket)
        if image is None:  # outside the layout's basis: the rule's own answer or error
            return self.ket_rule(ket, layout)
        return [image]

    def ket_rule(self, ket, layout):
        """The per-ket definition that :func:`_pauli_images` tabulates."""
        sign = 1.0
        for register, axis in self.string.factors:
            pos = layout.position(register)
            reg = layout.registers[pos]
            new_index, factor_sign = _pauli_factor_action(axis, reg.index(ket[pos]))
            sign *= factor_sign
            ket = _with(ket, pos, reg.values[new_index])
        return [(ket, sign + 0j)]


@functools.cache
def _pauli_images(layout: Layout, string: PauliString) -> dict[tuple, tuple[tuple, complex]]:
    """One correction's signed permutation of the layout's canonical kets.

    Keyed by value, since every candidate of the correction search is a fresh
    PauliOp; bounded by the number of schemas times two photons times 16.
    """
    op = PauliOp(layout.photon, string)
    return {ket: op.ket_rule(ket, layout)[0] for ket in layout.kets}


@functools.cache
def all_pauli_strings(register_names: tuple[str, str]) -> tuple[PauliString, ...]:
    """All 16 two-factor corrections over the given registers, in a fixed order."""
    first, second = register_names
    return tuple(
        PauliString(((first, ax1), (second, ax2)))
        for ax1 in PAULI_AXES
        for ax2 in PAULI_AXES
    )
