"""Linear-optical elements as verified rewrites on labeled state vectors.

Every element is a small frozen dataclass acting on one photon, and each of its
hooks is handed only that photon's :class:`~hyper_rsp.states.Layout`: ``validate``
checks the registers, ``output_registers`` names them after the element, and
``ket_slots`` declares the action per ket (the photon's value tuple) as images,
each with its slot in the element's ``weights``.  Every element is lowered one
way, as a :class:`Pattern` weighted by a few coefficients.  The pattern holds the
validated layout, the output schema and each ket's slots, filled on first use and
checked once against the output layout.  A fixed optic declares its coefficients
exactly (1, ±1/√2 for the 50:50 splitter, ±1 for a Pauli) and keeps its own
pattern; a rotation's angle lives only in its weights, so one pattern serves every
angle of its shape.  Each element keeps one :class:`Lowering` per schema, wrapping
its pattern, in one instance-``__dict__`` entry, so :meth:`Element.apply` weighs
the kept slots and hands its labels to the norm step unchecked.  Elements are
frozen and every hook is pure, so nothing goes stale.  The same patterns feed the
dense matrix route in :mod:`hyper_rsp.dense`, which independently checks
unitarity and matrix-vector equivalence.

Some optics are unitary only on legal inputs (path-frequency correlation, empty
unused ports, a free later time bin, a uniform register).  There ``ket_slots`` is
a partial map: it returns ``None`` on a ket outside the element's legal domain.
That ``None`` case is the element's one legality rule, and the domain is derived
from it, so the sparse :meth:`Element.apply` and the dense lowering reject
exactly the same kets.

Ket conventions used throughout (θ, φ in radians):

    rotation      |u⟩ → cosθ|u⟩ + sinθ|v⟩,   |v⟩ → -sinθ|u⟩ + cosθ|v⟩
    balanced      |in₁⟩ → (|out₁⟩+|out₂⟩)/√2,       |in₂⟩ → (|out₁⟩-|out₂⟩)/√2

The rotation is one rule, :class:`Rotation`: the wave plate applies it with θ
on (u, v) = (H, V), the unbalanced splitter with φ/2 on its path pair (p, q).
The Pockels cell is a half-wave plate switched on in one time bin.

The Pauli correction is defined by one table, ``_PAULI_ACTIONS``: each factor
acts on a two-valued register (x₀, x₁) as

    σ_z: x₀ → x₀, x₁ → -x₁       σ_x: swap
    isy: x₀ → x₁, x₁ → -x₀       I: identity.

``isy`` is the matrix [[0, -1], [1, 0]] = σ_xσ_z = -iσ_y (with
σ_y = [[0, -i], [i, 0]]), not iσ_y; a global sign is invisible to fidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Hashable, Iterable, Mapping

from .states import (
    Label,
    Layout,
    Register,
    Schema,
    SchemaMismatchError,
    StateVector,
    path_register,
)

#: Each Pauli axis as the images of a two-valued register's values 0 and 1,
#: each a (new index, weight slot) pair, slot 1 the sign −1: the correction's one definition.
_PAULI_ACTIONS = {
    "I": ((0, 0), (1, 0)),
    "sx": ((1, 0), (0, 0)),
    "isy": ((1, 0), (0, 1)),
    "sz": ((0, 0), (1, 1)),
}
PAULI_AXES = tuple(_PAULI_ACTIONS)

#: dof tag used in operator names, per register
_DOF_TAGS = {"pol": "p", "freq": "f", "time": "t", "path": "s"}

#: A ket the pattern has not slotted yet (a kept ``None`` is "outside the domain")
_UNSEEN = object()


class CorrelationError(ValueError):
    """A rewrite that is only unitary on correlated labels met an illegal state."""


class Pattern:
    """An element's structure on one schema, kept once ``validate`` passes: the
    photon's validated ``layout``, the ``out_schema`` after the element and the
    ket → ``slots`` memo ((image, weight slot) pairs, ``None`` outside the domain)
    that :meth:`fill` fills; :func:`hyper_rsp.dense.element_to_dense` adds its
    dense index, ``cells``, on request."""

    __slots__ = ("layout", "out_schema", "slots", "cells")

    def __init__(self, layout: Layout, out_schema: Schema):
        self.layout, self.out_schema, self.slots, self.cells = layout, out_schema, {}, None

    def fill(self, element: Element, kets: Iterable[tuple]) -> None:
        """Slot each of ``kets`` not yet kept by ``element``'s rule and keep it, once
        every image is checked against the output layout: a bad one raises
        :class:`SchemaMismatchError` and is not kept."""
        layout, memo = self.layout, self.slots
        out_layout = self.out_schema.layout(layout.photon)
        for ket in kets:
            if ket not in memo:
                slots = element.ket_slots(ket, layout)
                for image, _ in slots or ():
                    out_layout.validate_ket(image)
                memo[ket] = slots


class Lowering:
    """One element's lowering on one schema: its ``pattern`` and ``out_schema``, and
    the dense view (``matrix``, ``in_kets``, ``positions``, ``outside``, ``defect``)
    that :func:`hyper_rsp.dense.element_to_dense` adds on request."""

    __slots__ = ("pattern", "out_schema", "matrix", "in_kets", "positions", "outside", "defect")

    def __init__(self, pattern: Pattern):
        self.pattern, self.out_schema, self.matrix = pattern, pattern.out_schema, None


@dataclass(frozen=True)
class PauliString:
    """A correction operator: one Pauli factor per receiver register.

    ``factors`` holds exactly two (register name, axis) pairs, axis in
    {"I", "sx", "isy", "sz"}.  ``isy`` is σ_xσ_z = -iσ_y (x₀ → x₁, x₁ → -x₀),
    not iσ_y; the two differ by a global sign, which fidelity cannot see.
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

    @functools.cached_property
    def receiver_op(self) -> PauliOp:
        """The one element applying this correction to the receiver's photon B,
        so its kept lowerings serve every later correction by this string."""
        return PauliOp("B", self)


@dataclass(frozen=True)
class Element:
    """Base class: a linear map declared ket-by-ket on one photon.

    An element declares three hooks, each receiving only the acting photon's
    :class:`Layout`: :meth:`validate`, :meth:`output_registers` and
    :meth:`ket_slots`, which also gets that photon's value tuple (its ket), and
    the coefficients its slots index, :attr:`weights`.  :meth:`apply` and
    :meth:`output_schema`, the only methods that see the two-photon
    :class:`Schema`, are derived: :meth:`apply` splits each two-photon label once
    and reassembles it around the image.  Where :meth:`ket_slots` returns
    ``None`` the map is not defined: the sparse :meth:`apply` rejects such a
    support ket, and the dense lowering builds its matrix over the kets where it
    is defined.
    """

    photon: str

    #: The coefficients the slots of :meth:`ket_slots` index (a relabeling's: 1).
    weights = (1.0 + 0j,)

    # -- declaration hooks -------------------------------------------------
    def validate(self, layout: Layout) -> None:
        """Register-level preconditions; raise if the element cannot apply."""

    def output_registers(self, layout: Layout) -> tuple[Register, ...]:
        """The photon's registers after the element (default: unchanged)."""
        return layout.registers

    def ket_slots(self, ket: tuple, layout: Layout) -> list[tuple[tuple, int]] | None:
        """``ket``'s images, each with its slot in :attr:`weights`; ``None`` outside the domain."""
        raise NotImplementedError

    # -- derived -----------------------------------------------------------
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

    @functools.cached_property
    def _lowerings(self) -> dict[Schema, Lowering]:
        return {}

    def _kept_patterns(self, schema: Schema) -> tuple[dict, Hashable]:
        """Where the pattern on ``schema`` is kept, as a dict and its key: a fixed
        optic's is its own, kept only through its lowering."""
        return {}, schema

    def lowering(self, schema: Schema) -> Lowering:
        """The one :class:`Lowering` on ``schema``, wrapping the pattern found or
        built once ``validate`` passes; a failed ``validate`` keeps neither."""
        lowering = self._lowerings.get(schema)
        if lowering is None:
            patterns, key = self._kept_patterns(schema)
            pattern = patterns.get(key)
            if pattern is None:
                layout = schema.layout(self.photon)
                self.validate(layout)
                pattern = patterns[key] = Pattern(layout, self.output_schema(schema))
            lowering = self._lowerings[schema] = Lowering(pattern)
        return lowering

    def apply(self, state: StateVector) -> StateVector:
        schema = state.schema
        lowering = self.lowering(schema)
        memo, weights = lowering.pattern.slots, self.weights
        on_a = self.photon == "A"
        acc: dict[Label, complex] = {}
        for label, amp in state.amplitudes.items():
            ket, rest = label if on_a else label[::-1]
            slots = memo.get(ket, _UNSEEN)
            if slots is _UNSEEN:
                lowering.pattern.fill(self, (ket,))
                slots = memo[ket]
            if slots is None:
                raise CorrelationError(
                    f"{type(self).__name__}: ket {schema.format_label(label)} lies "
                    "outside the element's legal domain"
                )
            for image, slot in slots:
                new_label = (image, rest) if on_a else (rest, image)
                acc[new_label] = acc.get(new_label, 0j) + amp * weights[slot]
        # every label is a checked image beside a label of the input state
        return StateVector.settle(lowering.out_schema, acc)


def _with(ket: tuple, position: int, value) -> tuple:
    """``ket`` with the entry at ``position`` set to ``value``."""
    return ket[:position] + (value,) + ket[position + 1 :]


def _without(entries: tuple, position: int) -> tuple:
    """``entries`` (a ket or a register tuple) without the one at ``position``."""
    return entries[:position] + entries[position + 1 :]


@dataclass(frozen=True)
class Rotation(Element):
    """The rotation by ``angle`` on the values ``pair`` = (u, v) of ``register``,
    only on ``paths`` when set.  Its pattern is kept once per shape (type, photon,
    pair and paths: all but the angle) and schema, and shared by every angle."""

    paths = None
    #: The one pattern of each shape on each schema, shared by every angle.
    _patterns: ClassVar[dict[tuple, Pattern]] = {}

    @functools.cached_property
    def weights(self) -> tuple[complex, float, float, float]:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return (1.0 + 0j, c, s, -s)

    def ket_slots(self, ket, layout):
        position, (u, v) = layout.positions[self.register], self.pair
        elsewhere = self.paths is not None and ket[layout.positions["path"]] not in self.paths
        if elsewhere or ket[position] not in (u, v):
            return [(ket, 0)]
        if ket[position] == u:
            return [(_with(ket, position, u), 1), (_with(ket, position, v), 2)]
        return [(_with(ket, position, u), 3), (_with(ket, position, v), 1)]

    def validate(self, layout: Layout) -> None:
        register = layout.register(self.register)
        for value in self.pair:
            register.index(value)
        if self.paths is not None:
            path = layout.register("path")
            for p in self.paths:
                path.index(p)

    def _kept_patterns(self, schema):
        return Rotation._patterns, (type(self), self.photon, self.pair, self.paths, schema)


@dataclass(frozen=True)
class PolarizationRotation(Rotation):
    """Wave plate rotating H/V by ``theta``, optionally restricted to paths."""

    theta: float
    paths: tuple[str, ...] | None = None

    register, pair = "pol", ("H", "V")
    angle = property(lambda self: self.theta)


@dataclass(frozen=True)
class UnbalancedSplitter(Rotation):
    """Variable splitter mixing two spatial modes by the angle ``phi``: the
    rotation by φ/2 on ``path_pair``."""

    path_pair: tuple[str, str]
    phi: float

    register = "path"
    pair = property(lambda self: self.path_pair)
    angle = property(lambda self: self.phi / 2.0)

    def validate(self, layout: Layout) -> None:
        if self.path_pair[0] == self.path_pair[1]:
            raise ValueError(f"splitter needs two distinct paths, got {self.path_pair}")
        super().validate(layout)


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

    def ket_slots(self, ket, layout):
        return [(ket + (self.routing[ket[layout.positions["freq"]]],), 0)]


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

    def ket_slots(self, ket, layout):
        i_freq = layout.positions["freq"]
        if ket[i_freq] != self.correlation[ket[layout.positions["path"]]]:
            return None
        return [(_without(ket, i_freq), 0)]


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

    @functools.cached_property
    def _images(self) -> frozenset[tuple[str, str]]:
        """The (polarization, path) pairs the routed inputs are sent to."""
        return frozenset((pol, target) for (pol, _), target in self.routing.items())

    def ket_slots(self, ket, layout):
        pol = ket[layout.positions["pol"]]
        if self._entry():
            return [(ket + (self.routing[pol],), 0)]
        i_path = layout.positions["path"]
        key = (pol, ket[i_path])
        if key in self.routing:
            return [(_with(ket, i_path, self.routing[key]), 0)]
        if key in self._images:  # an unused input port a routed input is sent to
            return None
        return [(ket, 0)]


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

    def ket_slots(self, ket, layout):
        if (
            ket[layout.positions["path"]] != self.path
            or ket[layout.positions["pol"]] != self.long_arm_polarization
        ):
            return [(ket, 0)]
        i_time = layout.positions["time"]
        later = ket[i_time] + 1
        if later not in layout.registers[i_time].values:  # no later bin to move into
            return None
        return [(_with(ket, i_time, later), 0)]


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

    def ket_slots(self, ket, layout):
        position = layout.positions[self.register]
        if ket[position] != self.expected_value:
            return None
        return [(_without(ket, position), 0)]


@dataclass(frozen=True)
class HalfWavePlate(Element):
    """H <-> V flip restricted to the listed paths."""

    paths: tuple[str, ...]

    #: The one time bin a switched plate (:class:`PockelsCell`) acts in; a
    #: plain plate acts in every bin.
    time_value = None

    def validate(self, layout: Layout) -> None:
        layout.register("pol")
        if self.time_value is not None:
            layout.register("time").index(self.time_value)
        path = layout.register("path")
        for p in self.paths:
            path.index(p)

    def ket_slots(self, ket, layout):
        if ket[layout.positions["path"]] not in self.paths or (
            self.time_value is not None and ket[layout.positions["time"]] != self.time_value
        ):
            return [(ket, 0)]
        i_pol = layout.positions["pol"]
        flipped = "V" if ket[i_pol] == "H" else "H"
        return [(_with(ket, i_pol, flipped), 0)]


@dataclass(frozen=True)
class PockelsCell(HalfWavePlate):
    """Fast switch: a half-wave plate on the listed paths that is switched on
    only in the time bin ``time_value``."""

    # field(): without it the plate's ``time_value = None`` would become a default.
    time_value: int = field()


@dataclass(frozen=True)
class BalancedSplitter(Element):
    """50:50 splitter on the single-photon sector.

    |in₁⟩ → (|out₁⟩+|out₂⟩)/√2 and |in₂⟩ → (|out₁⟩-|out₂⟩)/√2; other paths are
    untouched.
    """

    inputs: tuple[str, str]
    outputs: tuple[str, str]

    weights = (1.0 + 0j, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))

    def validate(self, layout: Layout) -> None:
        if len(set(self.inputs)) != 2 or len(set(self.outputs)) != 2:
            raise ValueError(f"splitter ports must be distinct: {self.inputs} -> {self.outputs}")
        path = layout.register("path")
        for p in self.inputs + self.outputs:
            path.index(p)

    def ket_slots(self, ket, layout):
        i_path = layout.positions["path"]
        in1, in2 = self.inputs
        out1, out2 = self.outputs
        if ket[i_path] == in1:
            return [(_with(ket, i_path, out1), 1), (_with(ket, i_path, out2), 1)]
        if ket[i_path] == in2:
            return [(_with(ket, i_path, out1), 1), (_with(ket, i_path, out2), 2)]
        if ket[i_path] in self.outputs:  # a fresh output port: it would collide with the images
            return None
        return [(ket, 0)]


@dataclass(frozen=True)
class PauliOp(Element):
    """Apply a two-factor correction to the photon's named registers, each by
    its ``_PAULI_ACTIONS`` entry."""

    string: PauliString

    weights = (1.0 + 0j, -1.0 + 0j)

    def validate(self, layout: Layout) -> None:
        for register, _ in self.string.factors:
            values = layout.register(register).values
            if len(values) != 2:
                raise SchemaMismatchError(
                    f"Pauli factor needs a two-valued register, {register!r} has "
                    f"{len(values)} values"
                )

    def ket_slots(self, ket, layout):
        image, slot = ket, 0
        for register, axis in self.string.factors:
            position = layout.positions[register]
            values = layout.registers[position].values
            if ket[position] not in values:
                return None
            index, sign = _PAULI_ACTIONS[axis][values.index(ket[position])]
            image, slot = _with(image, position, values[index]), slot ^ sign
        return [(image, slot)]


@functools.cache
def all_pauli_strings(register_names: tuple[str, str]) -> tuple[PauliString, ...]:
    """All 16 two-factor corrections over the given registers, in a fixed order."""
    first, second = register_names
    return tuple(
        PauliString(((first, ax1), (second, ax2)))
        for ax1 in PAULI_AXES
        for ax2 in PAULI_AXES
    )
