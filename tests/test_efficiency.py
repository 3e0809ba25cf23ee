"""Exact rational efficiency accounting; no tolerances anywhere in this file."""

from fractions import Fraction

import pytest

from hyper_rsp.efficiency import (
    EfficiencyInput,
    efficiency,
    protocol_efficiency,
    protocol_inputs,
)
from hyper_rsp.protocols import outcome_registry
from hyper_rsp.runtime import encode_outcome
from hyper_rsp.states import ProtocolKind


def test_two_bit_protocol_reaches_one_third():
    assert efficiency(EfficiencyInput(2, 4, 2)) == Fraction(1, 3)


def test_three_bit_protocol_reaches_two_sevenths():
    assert efficiency(EfficiencyInput(2, 4, 3)) == Fraction(2, 7)


def test_zero_qubits_zero_efficiency():
    assert efficiency(EfficiencyInput(0, 4, 2)) == Fraction(0)


def test_result_is_reduced_rational():
    value = efficiency(EfficiencyInput(4, 8, 4))
    assert isinstance(value, Fraction)
    assert (value.numerator, value.denominator) == (1, 3)


def test_protocol_values_exact():
    assert protocol_efficiency(ProtocolKind.PF) == Fraction(1, 3)
    assert protocol_efficiency(ProtocolKind.TB) == Fraction(2, 7)


def test_classical_bits_cross_checked_against_channel():
    # the largest code on the wire needs exactly the accounted bits
    for kind, bits in ((ProtocolKind.PF, 2), (ProtocolKind.TB, 3)):
        codes = [encode_outcome(kind, outcome).outcome_code for outcome in outcome_registry(kind)]
        assert protocol_inputs(kind).classical_bits == max(codes).bit_length() == bits


@pytest.mark.parametrize("kind", [ProtocolKind.PF, ProtocolKind.TB])
def test_protocol_inputs_resource_counts(kind):
    inputs = protocol_inputs(kind)
    assert (inputs.transmitted_qubits, inputs.channel_qubits) == (2, 4)


def test_input_validation():
    with pytest.raises(ValueError):
        EfficiencyInput(-1, 4, 2)
    with pytest.raises(ValueError):
        EfficiencyInput(2, 0, 0)
    with pytest.raises(ValueError):
        EfficiencyInput(2, 4.0, 2)  # type: ignore[arg-type]
    # a bool is an int to isinstance, but never a count
    for counts, name, flag in [((True, 4, 2), "transmitted_qubits", True),
                               ((2, True, False), "channel_qubits", True),
                               ((2, 4, False), "classical_bits", False)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {flag}$"):
            EfficiencyInput(*counts)
