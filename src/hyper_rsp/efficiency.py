"""Resource efficiency of the two protocols, kept in exact rational arithmetic.

The figure of merit is (qubits prepared) / (channel qubits + classical bits).
The counts are read off each protocol's declarations: the prepared qubits are
log₂ of each receiver register's size (two two-valued registers, 2 qubits),
the hyper-entangled channel holds them once per photon (4 qubits), and the
classical cost is the message's payload width, ⌈log₂⌉ of the detector count
in the protocol's table: 2 bits versus 3.  So the fractions 1/3 and 2/7 are
exact and compared without tolerance.  ``fractions`` is imported on first use,
so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .protocols import outcome_registry
from .states import ProtocolKind, _integer, hyper_bell_schema

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class EfficiencyInput:
    """Resource counts entering the efficiency figure."""

    transmitted_qubits: int
    channel_qubits: int
    classical_bits: int

    def __post_init__(self) -> None:
        for field in fields(self):
            value = _integer(field.name, getattr(self, field.name))
            if value < 0:
                raise ValueError(f"{field.name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, field.name, value)  # a numpy integer becomes an int
        if self.channel_qubits + self.classical_bits == 0:
            raise ValueError("channel_qubits + classical_bits must be positive")


def efficiency(inputs: EfficiencyInput) -> Fraction:
    """Exact reduced fraction, never floating point."""
    from fractions import Fraction

    return Fraction(inputs.transmitted_qubits, inputs.channel_qubits + inputs.classical_bits)


def protocol_inputs(kind: ProtocolKind) -> EfficiencyInput:
    """Counted from the receiver photon: photon A's tb time register has 3 values."""
    prepared = sum(int(math.log2(len(reg.values))) for reg in hyper_bell_schema(kind).photon_b)
    return EfficiencyInput(
        transmitted_qubits=prepared,
        channel_qubits=2 * prepared,
        classical_bits=math.ceil(math.log2(len(outcome_registry(kind)))),
    )


def protocol_efficiency(kind: ProtocolKind) -> Fraction:
    """1/3 for the polarization-frequency protocol, 2/7 for polarization-time-bin."""
    return efficiency(protocol_inputs(kind))
