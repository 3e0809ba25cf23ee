"""Linear-optical elements as verified rewrites on labeled state vectors.

Every element is a small frozen dataclass acting on one photon.  Its action is
declared per basis ket through :meth:`Element.ket_image`; application is the
linear extension over the state's support, followed by pruning and a norm
check.  The same ket images feed the dense matrix route in
:mod:`hyper_rsp.dense`, which independently checks unitarity and
matrix-vector equivalence.

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

    :meth:`admits` is the element's one legality rule.  The sparse
    :meth:`apply` rejects any support ket it refuses, and the dense lowering
    builds its matrix over :meth:`domain`, which is derived from it.
    """

    photon: str

    # -- declaration hooks -------------------------------------------------
    def validate(self, schema: Schema) -> None:
        """Schema-level preconditions; raise if the element cannot apply."""

    def output_schema(self, schema: Schema) -> Schema:
        return schema

    def admits(self, label: Label, schema: Schema) -> bool:
        """Whether the map is defined on ``label`` (default: every ket)."""
        return True

    def ket_image(self, label: Label, schema: Schema) -> list[tuple[Label, complex]]:
        raise NotImplementedError

    # -- derived -----------------------------------------------------------
    def domain(self, schema: Schema) -> list[Label]:
        """Canonical input labels on which the map is defined, memoized per schema:
        :meth:`admits` is pure, and the dense route lowers each stage twice."""
        if schema not in self._domains:
            self._domains[schema] = [
                label for label in schema.labels() if self.admits(label, schema)
            ]
        return list(self._domains[schema])

    @functools.cached_property
    def _domains(self) -> dict[Schema, list[Label]]:
        return {}

    def apply(self, state: StateVector) -> StateVector:
        schema = state.schema
        self.validate(schema)
        out_schema = self.output_schema(schema)
        acc: dict[Label, complex] = {}
        for label, amp in state.items():
            if not self.admits(label, schema):
                raise CorrelationError(
                    f"{type(self).__name__}: ket {schema.format_label(label)} lies "
                    "outside the element's legal domain"
                )
            for new_label, coeff in self.ket_image(label, schema):
                acc[new_label] = acc.get(new_label, 0j) + amp * coeff
        return StateVector.build(out_schema, acc)

    # -- label surgery helpers ----------------------------------------------
    def _part(self, label: Label) -> tuple:
        return label[0] if self.photon == "A" else label[1]

    def _replace(self, label: Label, part: tuple) -> Label:
        if self.photon == "A":
            return (part, label[1])
        return (label[0], part)

    def _set(self, label: Label, position: int, value) -> Label:
        part = list(self._part(label))
        part[position] = value
        return self._replace(label, tuple(part))

    def _append(self, label: Label, value) -> Label:
        return self._replace(label, self._part(label) + (value,))

    def _drop(self, label: Label, position: int) -> Label:
        part = self._part(label)
        return self._replace(label, part[:position] + part[position + 1 :])


@dataclass(frozen=True)
class PolarizationRotation(Element):
    """Wave plate rotating H/V by ``theta``, optionally restricted to paths."""

    theta: float
    paths: tuple[str, ...] | None = None

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, "pol")
        if self.paths is not None:
            reg = schema.register(self.photon, "path")
            for p in self.paths:
                reg.index(p)

    def ket_image(self, label, schema):
        if self.paths is not None:
            i_path = schema.position(self.photon, "path")
            if self._part(label)[i_path] not in self.paths:
                return [(label, 1.0 + 0j)]
        i_pol = schema.position(self.photon, "pol")
        c, s = math.cos(self.theta), math.sin(self.theta)
        if self._part(label)[i_pol] == "H":
            return [(self._set(label, i_pol, "H"), c), (self._set(label, i_pol, "V"), s)]
        return [(self._set(label, i_pol, "H"), -s), (self._set(label, i_pol, "V"), c)]


@dataclass(frozen=True)
class UnbalancedSplitter(Element):
    """Variable splitter mixing two spatial modes by the angle ``phi``."""

    path_pair: tuple[str, str]
    phi: float

    def validate(self, schema: Schema) -> None:
        if self.path_pair[0] == self.path_pair[1]:
            raise ValueError(f"splitter needs two distinct paths, got {self.path_pair}")
        reg = schema.register(self.photon, "path")
        for p in self.path_pair:
            reg.index(p)

    def ket_image(self, label, schema):
        i_path = schema.position(self.photon, "path")
        here = self._part(label)[i_path]
        p, q = self.path_pair
        c, s = math.cos(self.phi / 2.0), math.sin(self.phi / 2.0)
        if here == p:
            return [(self._set(label, i_path, p), c), (self._set(label, i_path, q), s)]
        if here == q:
            return [(self._set(label, i_path, p), -s), (self._set(label, i_path, q), c)]
        return [(label, 1.0 + 0j)]


@dataclass(frozen=True)
class WavelengthRouter(Element):
    """Frequency-keyed path entry: |ω_i⟩ picks up the path assigned to ω_i.

    Adds the path register (declared registry) to the photon; amplitudes are
    untouched, so this is a pure relabeling.
    """

    routing: Mapping[str, str]
    registry: tuple[str, ...]

    def validate(self, schema: Schema) -> None:
        freq = schema.register(self.photon, "freq")
        if schema.has_register(self.photon, "path"):
            raise SchemaMismatchError("path register already present before routing")
        missing = [f for f in freq.values if f not in self.routing]
        if missing:
            raise ValueError(f"routing does not cover frequencies {missing}")
        for target in self.routing.values():
            if target not in self.registry:
                raise ValueError(f"routed path {target!r} not in declared registry")

    def output_schema(self, schema: Schema) -> Schema:
        return schema.with_register(self.photon, path_register(self.registry))

    def ket_image(self, label, schema):
        i_freq = schema.position(self.photon, "freq")
        freq = self._part(label)[i_freq]
        return [(self._append(label, self.routing[freq]), 1.0 + 0j)]


@dataclass(frozen=True)
class FrequencyEraser(Element):
    """Frequency conversion to a common mode, erasing which-path frequency marks.

    Legal only when frequency is perfectly correlated with path (``correlation``
    maps each path to its expected frequency); otherwise the rewrite would merge
    distinct kets and fail unitarity, so it is rejected.  Once uniform, the
    frequency register is dropped from the schema.
    """

    correlation: Mapping[str, str]

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, "freq")
        path = schema.register(self.photon, "path")
        missing = [p for p in path.values if p not in self.correlation]
        if missing:
            raise ValueError(f"correlation does not cover paths {missing}")

    def output_schema(self, schema: Schema) -> Schema:
        return schema.without_register(self.photon, "freq")

    def admits(self, label, schema):
        part = self._part(label)
        path = part[schema.position(self.photon, "path")]
        return part[schema.position(self.photon, "freq")] == self.correlation[path]

    def ket_image(self, label, schema):
        i_freq = schema.position(self.photon, "freq")
        return [(self._drop(label, i_freq), 1.0 + 0j)]


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

    def validate(self, schema: Schema) -> None:
        pol = schema.register(self.photon, "pol")
        if self._entry():
            if schema.has_register(self.photon, "path"):
                raise SchemaMismatchError("path register already present before routing")
            missing = [p for p in pol.values if p not in self.routing]
            if missing:
                raise ValueError(f"entry routing does not cover polarizations {missing}")
            for target in self.routing.values():
                if target not in self.registry:
                    raise ValueError(f"routed path {target!r} not in declared registry")
            return
        path = schema.register(self.photon, "path")
        if len(self._images) != len(self.routing):
            raise ValueError("routing sends two inputs of one polarization to the same path")
        in_paths = {key[1] for key in self.routing}
        for p in in_paths:
            path.index(p)
            for pol_value in pol.values:
                if (pol_value, p) not in self.routing:
                    raise ValueError(
                        f"routing table misses ({pol_value!r}, {p!r}); both polarizations "
                        "must be covered for every input path"
                    )
        for target in self.routing.values():
            path.index(target)

    def output_schema(self, schema: Schema) -> Schema:
        if self._entry():
            return schema.with_register(self.photon, path_register(self.registry))
        return schema

    def admits(self, label, schema):
        """An unused input port, one a routed input is sent to, must stay empty."""
        if self._entry():
            return True
        i_pol, i_path = _positions(schema, self.photon, ("pol", "path"))
        part = self._part(label)
        key = (part[i_pol], part[i_path])
        return key in self.routing or key not in self._images

    @functools.cached_property
    def _images(self) -> frozenset[tuple[str, str]]:
        """The (polarization, path) pairs the routed inputs are sent to."""
        return frozenset((pol, target) for (pol, _), target in self.routing.items())

    def ket_image(self, label, schema):
        i_pol = schema.position(self.photon, "pol")
        pol = self._part(label)[i_pol]
        if self._entry():
            return [(self._append(label, self.routing[pol]), 1.0 + 0j)]
        i_path = schema.position(self.photon, "path")
        here = self._part(label)[i_path]
        if (pol, here) not in self.routing:
            return [(label, 1.0 + 0j)]
        return [(self._set(label, i_path, self.routing[(pol, here)]), 1.0 + 0j)]


@dataclass(frozen=True)
class PockelsCell(Element):
    """Fast switch: flips polarization only in one time bin on the listed paths."""

    paths: tuple[str, ...]
    time_value: int

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, "pol")
        schema.register(self.photon, "time")
        path = schema.register(self.photon, "path")
        for p in self.paths:
            path.index(p)

    def ket_image(self, label, schema):
        part = self._part(label)
        i_pol = schema.position(self.photon, "pol")
        i_path = schema.position(self.photon, "path")
        i_time = schema.position(self.photon, "time")
        if part[i_path] in self.paths and part[i_time] == self.time_value:
            flipped = "V" if part[i_pol] == "H" else "H"
            return [(self._set(label, i_pol, flipped), 1.0 + 0j)]
        return [(label, 1.0 + 0j)]


@dataclass(frozen=True)
class LongArmDelay(Element):
    """Unbalanced-interferometer arm: the designated polarization on one path
    gains one unit of delay, cancelling the gap between the two time bins."""

    path: str
    long_arm_polarization: str

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, "pol")
        schema.register(self.photon, "time")
        schema.register(self.photon, "path").index(self.path)

    def _matches(self, label: Label, schema: Schema) -> bool:
        part = self._part(label)
        return (
            part[schema.position(self.photon, "path")] == self.path
            and part[schema.position(self.photon, "pol")] == self.long_arm_polarization
        )

    def admits(self, label, schema):
        """A delayed ket needs a later time bin to move into."""
        if not self._matches(label, schema):
            return True
        delayed = self._part(label)[schema.position(self.photon, "time")] + 1
        return delayed in schema.register(self.photon, "time").values

    def ket_image(self, label, schema):
        if not self._matches(label, schema):
            return [(label, 1.0 + 0j)]
        i_time = schema.position(self.photon, "time")
        return [(self._set(label, i_time, self._part(label)[i_time] + 1), 1.0 + 0j)]


@dataclass(frozen=True)
class DropUniformRegister(Element):
    """Explicit schema transform removing a register whose value is uniform.

    The expected value is pinned at circuit-construction time; a state whose
    support disagrees is rejected (dropping would merge distinct kets).
    """

    register: str
    expected_value: object

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, self.register).index(self.expected_value)

    def output_schema(self, schema: Schema) -> Schema:
        return schema.without_register(self.photon, self.register)

    def admits(self, label, schema):
        position = schema.position(self.photon, self.register)
        return self._part(label)[position] == self.expected_value

    def ket_image(self, label, schema):
        return [(self._drop(label, schema.position(self.photon, self.register)), 1.0 + 0j)]


@dataclass(frozen=True)
class HalfWavePlate(Element):
    """H <-> V flip restricted to the listed paths."""

    paths: tuple[str, ...]

    def validate(self, schema: Schema) -> None:
        schema.register(self.photon, "pol")
        path = schema.register(self.photon, "path")
        for p in self.paths:
            path.index(p)

    def ket_image(self, label, schema):
        part = self._part(label)
        i_pol = schema.position(self.photon, "pol")
        i_path = schema.position(self.photon, "path")
        if part[i_path] in self.paths:
            flipped = "V" if part[i_pol] == "H" else "H"
            return [(self._set(label, i_pol, flipped), 1.0 + 0j)]
        return [(label, 1.0 + 0j)]


@dataclass(frozen=True)
class BalancedSplitter(Element):
    """50:50 splitter on the single-photon sector.

    |in₁⟩ → (|out₁⟩+|out₂⟩)/√2 and |in₂⟩ → (|out₁⟩-|out₂⟩)/√2; other paths are
    untouched.
    """

    inputs: tuple[str, str]
    outputs: tuple[str, str]

    def validate(self, schema: Schema) -> None:
        if len(set(self.inputs)) != 2 or len(set(self.outputs)) != 2:
            raise ValueError(f"splitter ports must be distinct: {self.inputs} -> {self.outputs}")
        path = schema.register(self.photon, "path")
        for p in self.inputs + self.outputs:
            path.index(p)

    def admits(self, label, schema):
        """Fresh output paths are unused ports; amplitude there would collide
        with the split images."""
        here = self._part(label)[schema.position(self.photon, "path")]
        return here in self.inputs or here not in self.outputs

    def ket_image(self, label, schema):
        i_path = schema.position(self.photon, "path")
        here = self._part(label)[i_path]
        in1, in2 = self.inputs
        out1, out2 = self.outputs
        r = 1.0 / math.sqrt(2.0)
        if here == in1:
            return [(self._set(label, i_path, out1), r), (self._set(label, i_path, out2), r)]
        if here == in2:
            return [(self._set(label, i_path, out1), r), (self._set(label, i_path, out2), -r)]
        return [(label, 1.0 + 0j)]


@dataclass(frozen=True)
class PauliOp(Element):
    """Apply a two-factor correction to the photon's named registers."""

    string: PauliString

    def validate(self, schema: Schema) -> None:
        for register, _ in self.string.factors:
            reg = schema.register(self.photon, register)
            if len(reg.values) != 2:
                raise SchemaMismatchError(
                    f"Pauli factor needs a two-valued register, {register!r} has "
                    f"{len(reg.values)} values"
                )

    def ket_image(self, label, schema):
        image = _pauli_images(schema, self.photon, self.string).get(label)
        if image is None:  # outside the schema's basis: the rule's own answer or error
            return self.ket_rule(label, schema)
        return [image]

    def ket_rule(self, label, schema):
        """The per-ket definition that :func:`_pauli_images` tabulates."""
        out = label
        sign = 1.0
        for register, axis in self.string.factors:
            pos = schema.position(self.photon, register)
            reg = schema.register(self.photon, register)
            index = reg.index(self._part(out)[pos])
            new_index, factor_sign = _pauli_factor_action(axis, index)
            sign *= factor_sign
            out = self._set(out, pos, reg.values[new_index])
        return [(out, sign + 0j)]


@functools.cache
def _pauli_images(
    schema: Schema, photon: str, string: PauliString
) -> dict[Label, tuple[Label, complex]]:
    """One correction's signed permutation of the schema's basis labels.

    Keyed by value, since every candidate of the correction search is a fresh
    PauliOp; bounded by the number of schemas times two photons times 16.
    """
    op = PauliOp(photon, string)
    return {label: op.ket_rule(label, schema)[0] for label in schema.labels()}


@functools.cache
def _positions(schema: Schema, photon: str, names: tuple[str, ...]) -> tuple[int, ...]:
    """Register positions by name, looked up once per schema for per-ket rules."""
    return tuple(schema.position(photon, name) for name in names)


@functools.cache
def all_pauli_strings(register_names: tuple[str, str]) -> tuple[PauliString, ...]:
    """All 16 two-factor corrections over the given registers, in a fixed order."""
    first, second = register_names
    return tuple(
        PauliString(((first, ax1), (second, ax2)))
        for ax1 in PAULI_AXES
        for ax2 in PAULI_AXES
    )
