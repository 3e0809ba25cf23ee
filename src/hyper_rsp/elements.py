"""Linear-optical elements as verified rewrites on labeled state vectors.

Every element is a small frozen dataclass acting on one photon, and each of its
hooks is handed only that photon's :class:`~hyper_rsp.states.Layout`: ``validate``
checks the registers, ``output_registers`` names them after the element, and
``ket_slots`` declares the action per ket (the photon's value tuple) as images,
each with its slot in the element's ``weights``.  Every element is lowered one
way, as a :class:`Pattern` weighted by a few coefficients: the one home of the
element's structure on one schema, its slots filled over every ket of the layout
when the element is lowered, each image checked then against the output layout.
A fixed optic declares its coefficients exactly (1, ±1/√2 for the 50:50
splitter, ±1 for a Pauli) and keeps its own pattern; a rotation's angle lives
only in its weights, so one pattern serves every angle of its shape.  Each
element keeps one :class:`Lowering` per schema, wrapping its pattern, in one
instance-``__dict__`` entry, so :meth:`Element.apply` weighs the kept slots and
hands its labels to the norm step unchecked.  ``apply`` reads each two-photon
support label's images from the pattern's one table, filled the first time the
label is seen: a label outside the domain raises and is never kept, so the
table holds at most one entry per label of its schema.  Most optics only
relabel: a pattern whose domain kets each have one image, no two the same over
the whole layout, and whose weights are ±1 is flagged a signed permutation once,
when it is built.  The weights are those of the element that built it: a fixed
optic's own, or a rotation's, whose u and v kets have two images at every angle.
A flagged pattern's table maps label → (image label, weight), and ``apply``
writes each support label's image in one pass and skips the norm step: a sign
flip keeps each amplitude's magnitude and distinct images keep every amplitude
and its order, so the prune test and the in-order norm² (within ``NORM_TOL`` of
one) are exactly the input's, which passed them when it was built.  Any other
pattern's table maps label → ((image label, slot), …), so it serves every angle
of a rotation shape.  Elements are frozen and every hook is pure, so nothing
goes stale.  The same patterns feed the dense matrix route in
:mod:`hyper_rsp.dense`, which independently checks unitarity and matrix-vector
equivalence.

Some optics are unitary only on legal inputs (path-frequency correlation, empty
unused ports, a free later time bin, a uniform register).  There ``ket_slots`` is
a partial map: it returns ``None`` on a ket outside the element's legal domain.
That ``None`` case is the element's one legality rule, and the domain is derived
from it, so the sparse :meth:`Element.apply` and the dense lowering reject
exactly the same kets.  Every register value that ``validate`` names passes
the one register rule, :meth:`~hyper_rsp.states.Register.require`.

Ket conventions used throughout (θ, φ in radians):

    rotation      |u⟩ → cosθ|u⟩ + sinθ|v⟩,   |v⟩ → -sinθ|u⟩ + cosθ|v⟩
    balanced      |in₁⟩ → (|out₁⟩+|out₂⟩)/√2,       |in₂⟩ → (|out₁⟩-|out₂⟩)/√2

The rotation is one rule, :class:`Rotation`: the wave plate applies it with θ
on (u, v) = (H, V), the unbalanced splitter with φ/2 on its path pair (p, q).
The Pockels cell is a half-wave plate switched on in one time bin.

:class:`PauliOp` is the one correction type, held by the table, the report and the
search; each factor acts by ``_PAULI_ACTIONS`` on a two-valued register (x₀, x₁) as

    σ_z: x₀ → x₀, x₁ → -x₁       σ_x: swap
    isy: x₀ → x₁, x₁ → -x₀       I: identity.

``isy`` is the matrix [[0, -1], [1, 0]] = σ_xσ_z = -iσ_y (with
σ_y = [[0, -i], [i, 0]]), not iσ_y; a global sign is invisible to fidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Hashable, Mapping

from .states import (
    Label,
    Layout,
    Register,
    Schema,
    SchemaMismatchError,
    StateVector,
    _number,
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


class CorrelationError(ValueError):
    """A rewrite that is only unitary on correlated labels met an illegal state."""


class Pattern:
    """An element's structure on one schema, built once ``validate`` passes: the
    photon's validated ``layout``, the ``out_schema`` after the element, the ket →
    ``slots`` map ((image, weight slot) pairs, ``None`` outside the domain) over
    every ket of the layout, each image checked against the output layout (a bad
    one raises :class:`SchemaMismatchError` and no pattern is built), the
    ``relabels`` flag of :func:`_signed_permutation` and the two-photon ``labels``
    table that :meth:`Element.apply` fills (see the module doc).
    :func:`hyper_rsp.dense.element_to_dense` adds the dense domain (``in_kets``,
    ``positions``, ``outside_rows``) and ``cells``."""

    __slots__ = ("layout", "out_schema", "slots", "relabels", "labels",
                 "in_kets", "positions", "outside_rows", "cells")

    def __init__(self, element: Element, layout: Layout, out_schema: Schema):
        out_layout = out_schema.layout(layout.photon)
        slots = {}
        for ket in layout.kets:
            slots[ket] = element.ket_slots(ket, layout)
            for image, _ in slots[ket] or ():
                out_layout.validate_ket(image)
        self.layout, self.out_schema, self.slots = layout, out_schema, slots
        self.relabels = _signed_permutation(slots, element.weights)
        self.labels, self.cells = {}, None


class Lowering:
    """One element's lowering on one schema: its ``pattern``, and what the
    element's weights decide on it, the read-only ``matrix`` and its isometry
    ``defect``, that :func:`hyper_rsp.dense.element_to_dense` adds on request."""

    __slots__ = ("pattern", "matrix", "defect")

    def __init__(self, pattern: Pattern):
        self.pattern, self.matrix = pattern, None


def _signed_permutation(slots: dict, weights: tuple) -> bool:
    """Whether the weighted ``slots`` are a signed permutation over the whole
    layout: each domain ket has one image, no two share one, and each weight is
    ±1."""
    images = set()
    for kept in slots.values():
        if kept is None:
            continue
        if len(kept) != 1:
            return False
        [(image, slot)] = kept
        if weights[slot] not in (1, -1) or image in images:
            return False
        images.add(image)
    return True


@dataclass(frozen=True)
class Element:
    """Base class: a linear map declared ket-by-ket on one photon.

    An element declares three hooks, each receiving only the acting photon's
    :class:`Layout`: :meth:`validate`, :meth:`output_registers` and
    :meth:`ket_slots`, which also gets that photon's value tuple (its ket), and
    the coefficients its slots index, :attr:`weights`.  :meth:`apply` and
    :meth:`output_schema`, the only methods that see the two-photon
    :class:`Schema`, are derived: :meth:`apply` sets each image of a label's
    photon ket back beside the other photon's ket, and keeps the result in a
    label table (see the module doc).  Where :meth:`ket_slots` returns
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
        built once ``validate`` passes; a failed ``validate`` or a bad image keeps
        neither."""
        lowering = self._lowerings.get(schema)
        if lowering is None:
            patterns, key = self._kept_patterns(schema)
            pattern = patterns.get(key)
            if pattern is None:
                layout = schema.layout(self.photon)
                self.validate(layout)
                pattern = patterns[key] = Pattern(self, layout, self.output_schema(schema))
            lowering = self._lowerings[schema] = Lowering(pattern)
        return lowering

    def apply(self, state: StateVector) -> StateVector:
        schema = state.schema
        lowering = self._lowerings.get(schema)
        if lowering is None:
            lowering = self.lowering(schema)
        acc: dict[Label, complex] = {}
        pattern, weights = lowering.pattern, self.weights
        table = pattern.labels
        if pattern.relabels:
            for label, amp in state.amplitudes.items():
                kept = table.get(label)
                if kept is None:
                    [(image, slot)] = self._label_slots(pattern, label, schema)
                    kept = table[label] = image, weights[slot]
                image, weight = kept
                acc[image] = 0j + amp * weight
            # each |amp| kept, in order: the input's prune and norm hold (module doc)
            return StateVector(pattern.out_schema, MappingProxyType(acc))
        for label, amp in state.amplitudes.items():
            kept = table.get(label)
            if kept is None:
                kept = table[label] = self._label_slots(pattern, label, schema)
            for image, slot in kept:
                acc[image] = acc.get(image, 0j) + amp * weights[slot]
        # every label is a checked image beside a label of the input state
        return StateVector.settle(pattern.out_schema, acc)

    def _label_slots(self, pattern: Pattern, label: Label, schema: Schema) -> tuple:
        """``label``'s (image label, weight slot) pairs: its photon's ket's slots,
        each image set back beside the other photon's ket.  A ket outside the
        domain raises :class:`CorrelationError`."""
        on_a = self.photon == "A"
        ket, rest = label if on_a else label[::-1]
        slots = pattern.slots[ket]
        if slots is None:
            raise self._outside(schema, label)
        return tuple(((image, rest) if on_a else (rest, image), slot) for image, slot in slots)

    def _outside(self, schema: Schema, label: Label) -> CorrelationError:
        return CorrelationError(
            f"{type(self).__name__}: ket {schema.format_label(label)} lies "
            "outside the element's legal domain"
        )


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
        layout.register(self.register).require(self.pair)
        if self.paths is not None:
            layout.register("path").require(self.paths)

    def _kept_patterns(self, schema):
        return Rotation._patterns, (type(self), self.photon, self.pair, self.paths, schema)


@dataclass(frozen=True)
class PolarizationRotation(Rotation):
    """Wave plate rotating H/V by ``theta``, optionally restricted to paths."""

    theta: float
    paths: tuple[str, ...] | None = None

    register, pair = "pol", ("H", "V")
    angle = property(lambda self: self.theta)

    def __post_init__(self) -> None:
        _number("theta", self.theta)


@dataclass(frozen=True)
class UnbalancedSplitter(Rotation):
    """Variable splitter mixing two spatial modes by the angle ``phi``: the
    rotation by φ/2 on ``path_pair``."""

    path_pair: tuple[str, str]
    phi: float

    register = "path"
    pair = property(lambda self: self.path_pair)
    angle = property(lambda self: self.phi / 2.0)

    def __post_init__(self) -> None:
        _number("phi", self.phi)

    def validate(self, layout: Layout) -> None:
        if self.path_pair[0] == self.path_pair[1]:
            raise ValueError(f"splitter needs two distinct paths, got {self.path_pair}")
        super().validate(layout)


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
        path.require(self.correlation)
        freq.require(self.correlation.values())

    def output_registers(self, layout):
        return _without(layout.registers, layout.position("freq"))

    def ket_slots(self, ket, layout):
        i_freq = layout.positions["freq"]
        if ket[i_freq] != self.correlation[ket[layout.positions["path"]]]:
            return None
        return [(_without(ket, i_freq), 0)]


@dataclass(frozen=True)
class _Router(Element):
    """The one path-routing rule, keyed on the register its class names in
    ``key``: a (``key`` value, input path) -> output path table; paths absent
    from it pass through unchanged.  With ``registry`` set, the router is the
    circuit's entry point: the photon has no path register yet, routing keys are
    bare ``key`` values, and the declared path register is added to the schema."""

    routing: Mapping
    registry: tuple[str, ...] | None = None

    #: The name of the register whose value picks the path.
    key: ClassVar[str]

    def _entry(self) -> bool:
        return self.registry is not None

    def validate(self, layout: Layout) -> None:
        keyed = layout.register(self.key)
        if self._entry():
            if "path" in layout.positions:
                raise SchemaMismatchError("path register already present before routing")
            missing = [value for value in keyed.values if value not in self.routing]
            if missing:
                raise ValueError(f"entry routing does not cover {self.key} values {missing}")
            keyed.require(self.routing)
            return
        path = layout.register("path")
        if len(self._images) != len(self.routing):
            raise ValueError(f"routing sends two inputs of one {self.key} value to the same path")
        keyed.require(value for value, _ in self.routing)
        path.require(p for _, p in self.routing)
        for _, p in self.routing:
            for other in keyed.values:
                if (other, p) not in self.routing:
                    raise ValueError(
                        f"routing table misses ({other!r}, {p!r}); every {self.key} "
                        "value must be covered for every input path"
                    )

    def output_registers(self, layout):
        if self._entry():
            return layout.registers + (path_register(self.registry),)
        return layout.registers

    @functools.cached_property
    def _images(self) -> frozenset[tuple[str, str]]:
        """The (``key`` value, path) pairs the routed inputs are sent to."""
        return frozenset((value, target) for (value, _), target in self.routing.items())

    def ket_slots(self, ket, layout):
        value = ket[layout.positions[self.key]]
        if self._entry():
            return [(ket + (self.routing[value],), 0)]
        i_path = layout.positions["path"]
        port = (value, ket[i_path])
        if port in self.routing:
            return [(_with(ket, i_path, self.routing[port]), 0)]
        if port in self._images:  # an unused input port a routed input is sent to
            return None
        return [(ket, 0)]


@dataclass(frozen=True)
class WavelengthRouter(_Router):
    """Frequency-keyed path entry: |ω_i⟩ picks up the path assigned to ω_i in
    the declared ``registry``, added to the photon; a pure relabeling."""

    # field(): without it the base's ``registry = None`` would become a default.
    registry: tuple[str, ...] = field()

    key = "freq"


@dataclass(frozen=True)
class PolarizingRouter(_Router):
    """Polarizing beam splitter as a (polarization, input path) -> output path
    table, or with ``registry`` set the polarization-keyed path entry."""

    key = "pol"


@dataclass(frozen=True)
class LongArmDelay(Element):
    """Unbalanced-interferometer arm: the designated polarization on one path
    gains one unit of delay, cancelling the gap between the two time bins."""

    path: str
    long_arm_polarization: str

    def validate(self, layout: Layout) -> None:
        layout.register("pol").require((self.long_arm_polarization,))
        layout.register("time")
        layout.register("path").require((self.path,))

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
        layout.register(self.register).require((self.expected_value,))

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
            layout.register("time").require((self.time_value,))
        layout.register("path").require(self.paths)

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
        layout.register("path").require(self.inputs + self.outputs)

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
    """A correction operator: exactly two (register name, axis) ``factors``, one
    per named register of the photon, each applied by its ``_PAULI_ACTIONS``
    entry (the module doc gives the axes and the sign convention of ``isy``)."""

    factors: tuple[tuple[str, str], ...]

    weights = (1.0 + 0j, -1.0 + 0j)

    def __post_init__(self) -> None:
        if len(self.factors) != 2:
            raise ValueError("a correction carries exactly two factors")
        names = [register for register, _ in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(f"a correction acts on each register once, got {names}")
        for register, axis in self.factors:
            if axis not in PAULI_AXES:
                raise ValueError(f"unknown Pauli axis {axis!r} on register {register!r}")

    def __str__(self) -> str:
        """Short ASCII form, e.g. ``sz^p*sx^f``."""
        parts = []
        for register, axis in self.factors:
            tag = _DOF_TAGS.get(register, register)
            parts.append(f"{axis}^{tag}")
        return "*".join(parts)

    def validate(self, layout: Layout) -> None:
        for register, _ in self.factors:
            values = layout.register(register).values
            if len(values) != 2:
                raise SchemaMismatchError(
                    f"Pauli factor needs a two-valued register, {register!r} has "
                    f"{len(values)} values"
                )

    def ket_slots(self, ket, layout):
        image, slot = ket, 0
        for register, axis in self.factors:
            position = layout.positions[register]
            values = layout.registers[position].values
            if ket[position] not in values:
                return None
            index, sign = _PAULI_ACTIONS[axis][values.index(ket[position])]
            image, slot = _with(image, position, values[index]), slot ^ sign
        return [(image, slot)]


@functools.cache
def all_pauli_strings(register_names: tuple[str, str]) -> tuple[PauliOp, ...]:
    """All 16 two-factor corrections over the receiver's given registers, in a
    fixed order: one instance each per process, so each keeps its lowerings."""
    first, second = register_names
    return tuple(
        PauliOp("B", ((first, ax1), (second, ax2)))
        for ax1 in PAULI_AXES
        for ax2 in PAULI_AXES
    )
