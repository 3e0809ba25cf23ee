import cmath
import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import MEMO_TARGETS, angles, assert_amplitudes_equal, ket_image, target_params
from hyper_rsp import elements, protocols
from hyper_rsp.dense import apply_dense, element_to_dense, state_to_vector
from hyper_rsp.elements import (
    BalancedSplitter,
    CorrelationError,
    DropUniformRegister,
    Element,
    FrequencyEraser,
    HalfWavePlate,
    LongArmDelay,
    PauliOp,
    PockelsCell,
    PolarizationRotation,
    PolarizingRouter,
    Rotation,
    UnbalancedSplitter,
    WavelengthRouter,
    all_pauli_strings,
)
from hyper_rsp.protocols import TB_PATHS, build_circuit, evolve, outcome_registry, run_protocol
from hyper_rsp.states import (
    Outcome,
    ProtocolKind,
    Schema,
    SchemaMismatchError,
    StateVector,
    TargetParams,
    freq_register,
    hyper_bell_schema,
    make_hyper_bell,
    make_target,
    path_register,
    pol_register,
    project_photon_a,
    receiver_schema,
    time_register,
)

SQ2 = math.sqrt(2.0)


def two_path_state(amps):
    """Photon A on (pol, path) over {a1, a2}; single-register B as spectator."""
    schema = Schema(
        (pol_register(), path_register(("a1", "a2"))),
        (pol_register(),),
    )
    return StateVector.build(schema, amps)


def bob_marginal(state):
    """Receiver-side probabilities, the invariant sender-side optics must keep."""
    marginal = {}
    for (_, b_values), amp in state.amplitudes.items():
        marginal[b_values] = marginal.get(b_values, 0.0) + abs(amp) ** 2
    return marginal


# ---------------------------------------------------------------------------
# polarization rotation


def test_rotation_zero_is_identity():
    state = make_hyper_bell(ProtocolKind.PF)
    assert_amplitudes_equal(PolarizationRotation("A", 0.0).apply(state), dict(state.amplitudes))


def test_rotation_quarter_turn():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    rotated = PolarizationRotation("A", math.pi / 2).apply(state)
    assert rotated.amplitude((("V", "a1"), ("H",))) == pytest.approx(1.0)
    state = two_path_state({(("V", "a1"), ("H",)): 1.0})
    rotated = PolarizationRotation("A", math.pi / 2).apply(state)
    assert rotated.amplitude((("H", "a1"), ("H",))) == pytest.approx(-1.0)


@given(params=target_params())
def test_rotation_on_channel_matches_expansion(params):
    # ½[|H⟩(α₀|H⟩-β₀|V⟩) + |V⟩(β₀|H⟩+α₀|V⟩)] ⊗ (freq part untouched)
    a0, b0 = params.alpha0, params.beta0
    theta = math.atan2(b0, a0)
    state = PolarizationRotation("A", theta).apply(make_hyper_bell(ProtocolKind.PF))
    expected = {}
    for f in ("w1", "w2"):
        expected[(("H", f), ("H", f))] = a0 / 2
        expected[(("H", f), ("V", f))] = -b0 / 2
        expected[(("V", f), ("H", f))] = b0 / 2
        expected[(("V", f), ("V", f))] = a0 / 2
    assert_amplitudes_equal(state, expected)


def test_rotation_path_restriction():
    state = two_path_state(
        {(("H", "a1"), ("H",)): 1 / SQ2, (("H", "a2"), ("H",)): 1 / SQ2}
    )
    rotated = PolarizationRotation("A", math.pi / 2, paths=("a1",)).apply(state)
    assert rotated.amplitude((("V", "a1"), ("H",))) == pytest.approx(1 / SQ2)
    assert rotated.amplitude((("H", "a2"), ("H",))) == pytest.approx(1 / SQ2)


# ---------------------------------------------------------------------------
# variable splitter


def test_splitter_zero_is_identity():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    out = UnbalancedSplitter("A", ("a1", "a2"), 0.0).apply(state)
    assert_amplitudes_equal(out, dict(state.amplitudes))


def test_splitter_full_swap_with_sign():
    splitter = UnbalancedSplitter("A", ("a1", "a2"), math.pi)
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    assert splitter.apply(state).amplitude((("H", "a2"), ("H",))) == pytest.approx(1.0)
    state = two_path_state({(("H", "a2"), ("H",)): 1.0})
    assert splitter.apply(state).amplitude((("H", "a1"), ("H",))) == pytest.approx(-1.0)


@given(phi=angles)
def test_splitter_mixing_weights(phi):
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    out = UnbalancedSplitter("A", ("a1", "a2"), phi).apply(state)
    assert out.amplitude((("H", "a1"), ("H",))) == pytest.approx(c, abs=1e-12)
    assert out.amplitude((("H", "a2"), ("H",))) == pytest.approx(s, abs=1e-12)


def test_splitter_leaves_other_paths_untouched():
    schema = Schema((pol_register(), path_register(("a1", "a2", "a3"))), (pol_register(),))
    state = StateVector.build(
        schema, {(("H", "a1"), ("H",)): 1 / SQ2, (("V", "a3"), ("H",)): 1 / SQ2}
    )
    out = UnbalancedSplitter("A", ("a1", "a2"), math.pi).apply(state)
    assert_amplitudes_equal(
        out, {(("H", "a2"), ("H",)): 1 / SQ2, (("V", "a3"), ("H",)): 1 / SQ2}
    )


def test_splitter_unknown_path():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    with pytest.raises(ValueError):
        UnbalancedSplitter("A", ("a1", "b7"), 0.3).apply(state)


# ---------------------------------------------------------------------------
# wavelength router


def test_router_correlates_frequency_with_path():
    state = make_hyper_bell(ProtocolKind.PF)
    routed = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2")).apply(state)
    assert routed.amplitude((("H", "w1", "a1"), ("H", "w1"))) == pytest.approx(0.5)
    assert routed.amplitude((("H", "w2", "a2"), ("H", "w2"))) == pytest.approx(0.5)
    assert routed.amplitude((("H", "w1", "a2"), ("H", "w1"))) == 0
    assert abs(routed.norm_sq() - 1) < 1e-12


def test_router_single_frequency_single_path():
    schema = Schema((pol_register(), freq_register()), (pol_register(),))
    state = StateVector.build(schema, {(("H", "w1"), ("H",)): 1.0})
    routed = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2")).apply(state)
    assert routed.amplitude((("H", "w1", "a1"), ("H",))) == pytest.approx(1.0)


def test_router_rejects_existing_path_register():
    state = make_hyper_bell(ProtocolKind.PF)
    router = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2"))
    routed = router.apply(state)
    with pytest.raises(SchemaMismatchError):
        router.apply(routed)


# ---------------------------------------------------------------------------
# frequency eraser


def _routed_channel():
    state = make_hyper_bell(ProtocolKind.PF)
    return WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2")).apply(state)


def test_eraser_drops_frequency_register():
    erased = FrequencyEraser("A", {"a1": "w1", "a2": "w2"}).apply(_routed_channel())
    assert "freq" not in erased.schema.layout("A").positions
    assert erased.amplitude((("H", "a1"), ("H", "w1"))) == pytest.approx(0.5)
    assert erased.amplitude((("H", "a2"), ("H", "w2"))) == pytest.approx(0.5)


def test_eraser_uniform_frequency_keeps_amplitudes():
    schema = Schema(
        (pol_register(), freq_register(), path_register(("a1", "a2"))),
        (pol_register(),),
    )
    state = StateVector.build(
        schema,
        {(("H", "w1", "a1"), ("H",)): 1 / SQ2, (("V", "w1", "a2"), ("H",)): 1 / SQ2},
    )
    erased = FrequencyEraser("A", {"a1": "w1", "a2": "w1"}).apply(state)
    assert erased.amplitude((("H", "a1"), ("H",))) == pytest.approx(1 / SQ2)
    assert erased.amplitude((("V", "a2"), ("H",))) == pytest.approx(1 / SQ2)


def test_eraser_rejects_broken_correlation():
    with pytest.raises(CorrelationError):
        FrequencyEraser("A", {"a1": "w2", "a2": "w1"}).apply(_routed_channel())


@pytest.mark.parametrize(
    "correlation",
    [{"a1": "w9", "a2": "w2"}, {"a1": "w1", "a2": "w2", "a7": "w1"}],
    ids=["frequency", "path"],
)
def test_eraser_rejects_correlation_outside_the_registers(correlation):
    """An unknown frequency would drop every ket on its path from the domain."""
    state = _routed_channel()
    eraser = FrequencyEraser("A", correlation)
    with pytest.raises(ValueError, match="not in register"):
        eraser.validate(state.schema.layout("A"))
    with pytest.raises(ValueError, match="not in register"):
        eraser.apply(state)


# ---------------------------------------------------------------------------
# polarizing router


def test_pbs_entry_routes_by_polarization():
    state = make_hyper_bell(ProtocolKind.TB)
    routed = PolarizingRouter("A", {"H": "a2", "V": "a1"}, registry=("a1", "a2")).apply(state)
    assert routed.amplitude((("H", 0, "a2"), ("H", 0))) == pytest.approx(0.5)
    assert routed.amplitude((("V", 1, "a1"), ("V", 1))) == pytest.approx(0.5)


def test_pbs_routing_table_must_cover_both_polarizations():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    with pytest.raises(ValueError):
        PolarizingRouter("A", {("H", "a1"): "a2"}).apply(state)


@pytest.mark.parametrize(
    "router, state",
    [
        (
            WavelengthRouter("A", {"w1": "a1", "w2": "a2", "w7": "a1"}, ("a1", "a2")),
            make_hyper_bell(ProtocolKind.PF),
        ),
        (
            PolarizingRouter("A", {"H": "a2", "V": "a1", "X": "a1"}, registry=("a1", "a2")),
            make_hyper_bell(ProtocolKind.TB),
        ),
        (
            PolarizingRouter("A", {("H", "a1"): "a2", ("V", "a1"): "a1", ("X", "a1"): "a1"}),
            two_path_state({(("H", "a1"), ("H",)): 1.0}),
        ),
    ],
    ids=["wavelength", "pbs-entry", "pbs-in-path"],
)
def test_routers_reject_keys_outside_the_registers(router, state):
    """A routing key no ket can carry would be ignored, silently."""
    with pytest.raises(ValueError, match="not in register"):
        router.validate(state.schema.layout("A"))
    with pytest.raises(ValueError, match="not in register"):
        router.apply(state)


def test_pbs_pure_relabel():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    routed = PolarizingRouter(
        "A", {("H", "a1"): "a2", ("V", "a1"): "a1"}
    ).apply(state)
    assert routed.amplitude((("H", "a2"), ("H",))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Pockels cell


def _timed_state(amps):
    schema = Schema(
        (pol_register(), time_register((0, 1)), path_register(("a1", "a2"))),
        (pol_register(),),
    )
    return StateVector.build(schema, amps)


def test_pockels_flips_only_matching_bin_and_path():
    state = _timed_state(
        {(("H", 0, "a2"), ("H",)): 1 / SQ2, (("H", 1, "a2"), ("H",)): 1 / SQ2}
    )
    flipped = PockelsCell("A", paths=("a2",), time_value=0).apply(state)
    assert flipped.amplitude((("V", 0, "a2"), ("H",))) == pytest.approx(1 / SQ2)
    assert flipped.amplitude((("H", 1, "a2"), ("H",))) == pytest.approx(1 / SQ2)


def test_pockels_no_match_is_identity():
    state = _timed_state({(("H", 1, "a1"), ("H",)): 1.0})
    cell = PockelsCell("A", paths=("a2",), time_value=0)
    assert_amplitudes_equal(cell.apply(state), dict(state.amplitudes))


def test_pockels_twice_is_identity():
    state = _timed_state(
        {(("H", 0, "a2"), ("H",)): 1 / SQ2, (("V", 0, "a2"), ("H",)): 1 / SQ2}
    )
    cell = PockelsCell("A", paths=("a2",), time_value=0)
    assert_amplitudes_equal(cell.apply(cell.apply(state)), dict(state.amplitudes))


# ---------------------------------------------------------------------------
# long-arm delay and register drop


def test_delay_adds_one_unit_to_matching_components():
    schema = Schema(
        (pol_register(), time_register((0, 1, 2)), path_register(("a1", "a2"))),
        (pol_register(),),
    )
    state = StateVector.build(
        schema,
        {(("V", 0, "a1"), ("H",)): 1 / SQ2, (("H", 1, "a1"), ("H",)): 1 / SQ2},
    )
    delayed = LongArmDelay("A", "a1", "V").apply(state)
    assert delayed.amplitude((("V", 1, "a1"), ("H",))) == pytest.approx(1 / SQ2)
    assert delayed.amplitude((("H", 1, "a1"), ("H",))) == pytest.approx(1 / SQ2)
    assert abs(delayed.norm_sq() - 1) < 1e-12


def test_delay_ignores_other_polarization():
    state = _timed_state({(("H", 0, "a1"), ("H",)): 1.0})
    delayed = LongArmDelay("A", "a1", "V").apply(state)
    assert_amplitudes_equal(delayed, dict(state.amplitudes))


@pytest.mark.parametrize(
    "element, message",
    [
        (PockelsCell("A", ("a2",), time_value=7), "value 7 not in register 'time'"),
        (LongArmDelay("A", "k2", "X"), "value 'X' not in register 'pol'"),
        (FrequencyEraser("A", dict.fromkeys(TB_PATHS, "w1") | {"a2": "w9"}),
         "value 'w9' not in register 'freq'"),
        (PolarizingRouter("A", {("H", "a9"): "a1", ("V", "a9"): "a2"}),
         "value 'a9' not in register 'path'"),
        (BalancedSplitter("A", ("a1", "a2"), ("k1", "a9")), "value 'a9' not in register 'path'"),
    ],
    ids=["pockels-time-bin", "delay-polarization", "eraser-frequency", "router-path",
         "splitter-output"],
)
def test_validate_rejects_values_outside_the_registers(element, message):
    """A value the registers lack would leave every ket unchanged, silently."""
    schema = Schema(
        (pol_register(), freq_register(), time_register((0, 1, 2)), path_register(TB_PATHS)),
        (pol_register(), time_register()),
    )
    state = StateVector.build(schema, {(("V", "w1", 0, "a2"), ("H", 0)): 1.0})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        element.validate(schema.layout("A"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        element.apply(state)


def test_drop_uniform_register():
    state = _timed_state(
        {(("H", 1, "a1"), ("H",)): 1 / SQ2, (("V", 1, "a2"), ("H",)): 1 / SQ2}
    )
    dropped = DropUniformRegister("A", "time", expected_value=1).apply(state)
    assert "time" not in dropped.schema.layout("A").positions
    assert dropped.amplitude((("H", "a1"), ("H",))) == pytest.approx(1 / SQ2)


def test_drop_rejects_nonuniform_register():
    state = _timed_state(
        {(("H", 0, "a1"), ("H",)): 1 / SQ2, (("V", 1, "a2"), ("H",)): 1 / SQ2}
    )
    with pytest.raises(CorrelationError):
        DropUniformRegister("A", "time", expected_value=1).apply(state)


# ---------------------------------------------------------------------------
# half-wave plate


def test_hwp_flips_only_listed_paths():
    state = two_path_state(
        {(("H", "a1"), ("H",)): 1 / SQ2, (("H", "a2"), ("H",)): 1 / SQ2}
    )
    flipped = HalfWavePlate("A", ("a1",)).apply(state)
    assert flipped.amplitude((("V", "a1"), ("H",))) == pytest.approx(1 / SQ2)
    assert flipped.amplitude((("H", "a2"), ("H",))) == pytest.approx(1 / SQ2)


def test_hwp_involution():
    state = two_path_state(
        {(("H", "a1"), ("H",)): 1 / SQ2, (("V", "a2"), ("H",)): 1 / SQ2}
    )
    plate = HalfWavePlate("A", ("a1", "a2"))
    assert_amplitudes_equal(plate.apply(plate.apply(state)), dict(state.amplitudes))


# ---------------------------------------------------------------------------
# balanced splitter


def _four_path_state(amps):
    schema = Schema(
        (pol_register(), path_register(("k1", "k4", "kp1", "kp4"))),
        (pol_register(),),
    )
    return StateVector.build(schema, amps)


def test_balanced_splitter_first_input_splits_evenly():
    state = _four_path_state({(("H", "k1"), ("H",)): 1.0})
    out = BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp4")).apply(state)
    assert out.amplitude((("H", "kp1"), ("H",))) == pytest.approx(1 / SQ2)
    assert out.amplitude((("H", "kp4"), ("H",))) == pytest.approx(1 / SQ2)


def test_balanced_splitter_second_input_sign():
    state = _four_path_state({(("H", "k4"), ("H",)): 1.0})
    out = BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp4")).apply(state)
    assert out.amplitude((("H", "kp1"), ("H",))) == pytest.approx(1 / SQ2)
    assert out.amplitude((("H", "kp4"), ("H",))) == pytest.approx(-1 / SQ2)


def test_balanced_splitter_interference():
    state = _four_path_state(
        {(("H", "k1"), ("H",)): 1 / SQ2, (("H", "k4"), ("H",)): 1 / SQ2}
    )
    out = BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp4")).apply(state)
    assert out.amplitude((("H", "kp1"), ("H",))) == pytest.approx(1.0)
    assert out.amplitude((("H", "kp4"), ("H",))) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Pauli corrections


def test_pauli_identity():
    params = TargetParams(0.6, 0.8, 0.28, 0.96)
    target = make_target(params, ProtocolKind.PF)
    op = PauliOp("B", (("pol", "I"), ("freq", "I")))
    assert_amplitudes_equal(op.apply(target), dict(target.amplitudes))


def test_pauli_z_z_restores_mirrored_state():
    # (α₀|H⟩-β₀|V⟩)(α₁|ω₁⟩-β₁|ω₂⟩) --σz⊗σz--> (α₀|H⟩+β₀|V⟩)(α₁|ω₁⟩+β₁|ω₂⟩)
    a0, b0, a1, b1 = 0.6, 0.8, 0.28, 0.96
    schema = make_target(TargetParams(1, 0), ProtocolKind.PF).schema
    mirrored = StateVector.build(
        schema,
        {
            ((), ("H", "w1")): a0 * a1,
            ((), ("H", "w2")): -a0 * b1,
            ((), ("V", "w1")): -b0 * a1,
            ((), ("V", "w2")): b0 * b1,
        },
    )
    corrected = PauliOp("B", (("pol", "sz"), ("freq", "sz"))).apply(mirrored)
    target = make_target(TargetParams(a0, b0, a1, b1), ProtocolKind.PF)
    assert_amplitudes_equal(corrected, dict(target.amplitudes))


def test_pauli_isy_convention():
    # iσ_y on (β₂|e⟩-α₂|l⟩) gives exactly (α₂|e⟩+β₂|l⟩): x₀→x₁, x₁→-x₀
    a2, b2 = 0.6, 0.8
    schema = make_target(TargetParams(1, 0), ProtocolKind.TB).schema
    state = StateVector.build(
        schema, {((), ("H", 0)): b2, ((), ("H", 1)): -a2}
    )
    rotated = PauliOp("B", (("pol", "I"), ("time", "isy"))).apply(state)
    assert rotated.amplitude(((), ("H", 0))) == pytest.approx(a2)
    assert rotated.amplitude(((), ("H", 1))) == pytest.approx(b2)


def test_pauli_register_mismatch():
    target = make_target(TargetParams(1, 0), ProtocolKind.PF)
    with pytest.raises(SchemaMismatchError):
        PauliOp("B", (("pol", "sz"), ("time", "sz"))).apply(target)


def test_pauli_needs_a_two_valued_register_on_every_call():
    schema = Schema((pol_register(), path_register(TB_PATHS)), (pol_register(),))
    op = PauliOp("A", (("pol", "sz"), ("path", "sx")))
    for _ in range(2):  # a failed table build is not cached
        with pytest.raises(SchemaMismatchError, match="'path' has 10 values"):
            op.validate(schema.layout("A"))
    with pytest.raises(SchemaMismatchError, match="'path' has 10 values"):
        op.apply(StateVector.build(schema, {(("H", "k1"), ("H",)): 1.0}))


SIGMA_Y = np.array([[0, -1j], [1j, 0]])

#: Each axis as its textbook 2x2 matrix; ``isy`` is -iσ_y = σ_xσ_z.
TEXTBOOK_PAULI = {
    "I": np.eye(2),
    "sx": np.array([[0, 1], [1, 0]]),
    "isy": -1j * SIGMA_Y,
    "sz": np.array([[1, 0], [0, -1]]),
}


@pytest.mark.parametrize(
    "schema, photon",
    [
        (receiver_schema(ProtocolKind.PF), "B"),
        (receiver_schema(ProtocolKind.TB), "B"),
        (hyper_bell_schema(ProtocolKind.PF), "A"),
    ],
    ids=["pf-receiver", "tb-receiver", "pf-channel-A"],
)
def test_pauli_matrices_are_textbook_kron_products(schema, photon):
    layout = schema.layout(photon)
    kets = list(layout.kets)
    names = tuple(r.name for r in layout.registers)
    for correction in all_pauli_strings(names):
        op = PauliOp(photon, correction.factors)
        (_, first), (_, second) = op.factors
        expected = np.kron(TEXTBOOK_PAULI[first], TEXTBOOK_PAULI[second])
        assert np.array_equal(element_to_dense(op, schema).matrix, expected), op
        foreign = ("D",) + kets[0][1:]
        assert ket_image(op, foreign, layout) is None


def test_pauli_op_validation():
    with pytest.raises(ValueError):
        PauliOp("B", (("pol", "sz"),))
    with pytest.raises(ValueError):
        PauliOp("B", (("pol", "sz"), ("freq", "sy")))
    with pytest.raises(ValueError, match="each register once"):
        PauliOp("B", (("pol", "sx"), ("pol", "sz")))


# ---------------------------------------------------------------------------
# shared element properties


@given(params=target_params(), phase=angles)
def test_elements_commute_with_phase_scaling(params, phase):
    scale = cmath.exp(1j * phase)
    state = make_hyper_bell(ProtocolKind.PF)
    scaled = StateVector.build(
        state.schema, {label: amp * scale for label, amp in state.amplitudes.items()}
    )
    element = PolarizationRotation("A", math.atan2(params.beta0, params.alpha0))
    left = element.apply(scaled)
    right = element.apply(state)
    for label in set(left.amplitudes) | set(right.amplitudes):
        assert abs(left.amplitude(label) - scale * right.amplitude(label)) < 1e-12


@given(params=target_params())
@settings(max_examples=25)
def test_sender_side_optics_do_not_touch_receiver_marginal(params):
    from hyper_rsp.protocols import build_circuit

    for kind in (ProtocolKind.PF, ProtocolKind.TB):
        state = make_hyper_bell(kind)
        before = bob_marginal(state)
        for element in build_circuit(kind, params):
            state = element.apply(state)
            after = bob_marginal(state)
            assert set(after) == set(before)
            for key, value in before.items():
                assert abs(after[key] - value) < 1e-10, element


# ---------------------------------------------------------------------------
# tables that are not isometries


def _state_on(paths, ket):
    schema = Schema((pol_register(), path_register(paths)), (pol_register(),))
    return StateVector.build(schema, {(ket, ("H",)): 1.0})


@pytest.mark.parametrize(
    "element, state",
    [
        # (H, a1) and (H, a2) both land on (H, k1)
        (
            PolarizingRouter("A", {("H", "a1"): "k1", ("V", "a1"): "k2",
                                   ("H", "a2"): "k1", ("V", "a2"): "k3"}),
            _state_on(("a1", "a2", "k1", "k2", "k3"), ("H", "a1")),
        ),
        # a repeated input can never reach the second splitter row
        (
            BalancedSplitter("A", ("k1", "k1"), ("kp1", "kp4")),
            _state_on(("k1", "k4", "kp1", "kp4"), ("H", "k1")),
        ),
        # both inputs collapse onto one output
        (
            BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp1")),
            _state_on(("k1", "k4", "kp1", "kp4"), ("H", "k1")),
        ),
        (
            UnbalancedSplitter("A", ("a1", "a1"), 0.7),
            _state_on(("a1", "a2"), ("H", "a1")),
        ),
    ],
    ids=["router-shared-image", "splitter-repeated-input", "splitter-repeated-output",
         "unbalanced-repeated-pair"],
)
def test_validate_rejects_non_isometric_tables(element, state):
    with pytest.raises(ValueError, match="same path|distinct"):
        element.validate(state.schema.layout("A"))
    with pytest.raises(ValueError, match="same path|distinct"):
        element.apply(state)


# ---------------------------------------------------------------------------
# the sparse lowering kept on each element, per schema

def reference_apply(element, state):
    """The element's map with one ``ket_image`` call per support label and no
    memo: what every ``apply`` must reproduce bit for bit."""
    schema = state.schema
    layout = schema.layout(element.photon)
    element.validate(layout)
    on_a = element.photon == "A"
    acc = {}
    for label, amp in state.amplitudes.items():
        ket, rest = label if on_a else label[::-1]
        images = ket_image(element, ket, layout)
        assert images is not None, label
        for image, coeff in images:
            new_label = (image, rest) if on_a else (rest, image)
            acc[new_label] = acc.get(new_label, 0j) + amp * coeff
    return StateVector.build(element.output_schema(schema), acc)


def exact(state):
    """Labels in order and amplitudes by ``repr``, so signed zeros count."""
    return state.schema, [(label, repr(amp)) for label, amp in state.amplitudes.items()]


def assert_memo_is_bit_identical(element, state):
    reference = exact(reference_apply(element, state))
    first = exact(element.apply(state))
    assert exact(element.apply(state)) == first == reference, element
    assert exact(replace(element).apply(state)) == reference, element


@pytest.mark.parametrize("kind", [ProtocolKind.PF, ProtocolKind.TB])
@pytest.mark.parametrize("params", MEMO_TARGETS)
def test_kept_ket_images_are_bit_identical(kind, params):
    state = make_hyper_bell(kind)
    for element in build_circuit(kind, params):
        assert_memo_is_bit_identical(element, state)
        state = element.apply(state)
    target = make_target(params, kind)
    corrections = all_pauli_strings(tuple(r.name for r in target.schema.photon_b))
    # the table holds the enumerated instances, so each keeps one lowering per schema
    for _, correction in protocols._corrections(kind).values():
        assert any(correction is op for op in corrections), correction
    for report in run_protocol(kind, params):
        assert any(report.correction is op for op in corrections), report.correction
        for op in corrections:
            assert_memo_is_bit_identical(op, report.bob_state_pre)


#: SHA-256 of every stage's and every branch's exact amplitudes at MEMO_TARGETS
BIT_EXACT_DIGEST = Path(__file__).parent / "golden" / "bit_exact.sha256"


def test_every_stage_and_branch_is_bit_exact():
    """Every label and amplitude ``repr`` of each circuit stage, and each
    branch's probability and receiver states, for both protocols, hashed: the
    12-digit goldens cannot see a last-ulp move in the norm step or in the
    projection's scaling, and ``reference_apply`` shares the norm step with
    ``apply``."""
    digest = hashlib.sha256()
    for kind in (ProtocolKind.PF, ProtocolKind.TB):
        for params in MEMO_TARGETS:
            state = make_hyper_bell(kind)
            digest.update(repr(exact(state)).encode())
            for element in build_circuit(kind, params):
                state = element.apply(state)
                digest.update(repr(exact(state)).encode())
            for report in run_protocol(kind, params):
                branch = (report.outcome, report.probability,
                          exact(report.bob_state_pre), exact(report.bob_state_post))
                digest.update(repr(branch).encode())
    assert digest.hexdigest() == BIT_EXACT_DIGEST.read_text().strip()


@pytest.mark.parametrize("kind", [ProtocolKind.PF, ProtocolKind.TB])
@pytest.mark.parametrize("params", MEMO_TARGETS)
def test_projections_of_one_state_match_a_fresh_state_bit_for_bit(kind, params):
    """The photon-A partition kept on a measured state serves every outcome, in
    any order and any number of times, as a freshly evolved state does; the
    empty outcomes included."""
    def projected(state, outcome):
        probability, bob = project_photon_a(state, outcome)
        return repr(probability), None if bob is None else exact(bob)

    final = evolve(kind, params)
    layout = final.schema.layout("A")
    outcomes = [Outcome(pol, path) for pol in layout.register("pol").values
                for path in layout.register("path").values]
    fresh = {outcome: projected(evolve(kind, params), outcome) for outcome in outcomes}
    assert sum(bob is not None for _, bob in fresh.values()) == len(outcome_registry(kind))
    for order in (outcomes, outcomes[::-1], [o for o in outcomes for _ in range(2)]):
        for outcome in order:
            assert projected(final, outcome) == fresh[outcome], outcome


def test_one_element_keeps_one_lowering_per_schema():
    plate = HalfWavePlate("A", ("a1",))
    plain = two_path_state({(("H", "a1"), ("H",)): 1.0})
    timed_schema = Schema(
        (pol_register(), path_register(("a1", "a2")), time_register()), (pol_register(),)
    )
    timed = StateVector.build(timed_schema, {(("H", "a1", 1), ("H",)): 1.0})
    for _ in range(2):
        for state in (plain, timed):
            assert exact(plate.apply(state)) == exact(reference_apply(plate, state))
    # one instance-dict entry holds both lowerings; the dense view is the same object
    assert set(vars(plate)) == {"photon", "paths", "_lowerings"}
    assert list(plate._lowerings) == [plain.schema, timed_schema]
    assert element_to_dense(plate, timed_schema) is plate.lowering(timed_schema)


# ---------------------------------------------------------------------------
# a rotation's angle-free pattern, shared per shape and schema


def reference_rotate(ket, position, pair, angle):
    """The rotation rule written ket by ket, cos and sin computed per call: the
    images that ``ket_image`` and the weighted kept slots of every rotation must
    match by ``repr``."""
    if ket[position] not in pair:
        return [(ket, 1.0 + 0j)]
    u, v = pair
    c, s = math.cos(angle), math.sin(angle)

    def at(value):
        return ket[:position] + (value,) + ket[position + 1 :]

    if ket[position] == u:
        return [(at(u), c), (at(v), s)]
    return [(at(u), -s), (at(v), c)]


def reference_rotation_image(element, ket, layout):
    if isinstance(element, UnbalancedSplitter):
        return reference_rotate(ket, layout.positions["path"], element.path_pair,
                                element.phi / 2.0)
    if element.paths is not None and ket[layout.positions["path"]] not in element.paths:
        return [(ket, 1.0 + 0j)]
    return reference_rotate(ket, layout.positions["pol"], ("H", "V"), element.theta)


def _walk(kind, params):
    """(element, input schema) along the circuit."""
    state = make_hyper_bell(kind)
    for element in build_circuit(kind, params):
        yield element, state.schema
        state = element.apply(state)


@pytest.mark.parametrize("kind", [ProtocolKind.PF, ProtocolKind.TB])
@pytest.mark.parametrize(
    "params",
    [MEMO_TARGETS[0], MEMO_TARGETS[2], TargetParams(1.0, -0.0, 1.0, -0.0, 1.0, -0.0)],
    ids=["generic", "on-axis", "signed-zero"],
)
def test_rotation_images_match_the_per_ket_rule(kind, params):
    for element, schema in _walk(kind, params):
        if isinstance(element, Rotation):
            layout = schema.layout(element.photon)
            pattern, weights = element.lowering(schema).pattern, element.weights
            for ket in layout.kets:
                reference = repr(reference_rotation_image(element, ket, layout))
                assert repr(ket_image(element, ket, layout)) == reference, (element, ket)
                kept = [(image, weights[slot]) for image, slot in pattern.slots[ket]]
                assert repr(kept) == reference, (element, ket)


def test_rotations_of_one_shape_share_one_pattern():
    schema = two_path_state({(("H", "a1"), ("H",)): 1.0}).schema
    shapes = (
        lambda angle: PolarizationRotation("A", angle, paths=("a1",)),
        lambda angle: PolarizationRotation("A", angle),
        lambda angle: UnbalancedSplitter("A", ("a1", "a2"), angle),
    )
    patterns = []
    for shape in shapes:
        first, second = (element_to_dense(shape(angle), schema) for angle in (0.3, 1.2))
        assert first.pattern is second.pattern and first is not second
        assert not np.array_equal(first.matrix, second.matrix)
        for dense in (first, second):
            gram = dense.matrix.conj().T @ dense.matrix
            assert dense.defect == float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        patterns.append(first.pattern)
    assert len({id(pattern) for pattern in patterns}) == len(shapes)
    # every target's circuit lowers each rotation stage over one pattern
    for kind in (ProtocolKind.PF, ProtocolKind.TB):
        for stages in zip(*(_walk(kind, params) for params in MEMO_TARGETS)):
            if isinstance(stages[0][0], Rotation):
                kept = {id(element.lowering(schema).pattern) for element, schema in stages}
                assert len(kept) == 1


def test_a_rotation_shape_first_lowered_at_zero_angle_is_never_flagged(monkeypatch):
    """At θ = 0 the weights (1, 1, 0, −0) are all ±1 or zero, but each u and v
    ket still has two images: the shape's one pattern is flagged once, not a
    signed permutation, and every later angle weighs that same pattern."""
    flags = []
    flag = elements._signed_permutation
    monkeypatch.setattr(elements, "_signed_permutation",
                        lambda *args: flags.append(flag(*args)) or flags[-1])
    # a path register no other test lowers a rotation on, so the shape is fresh
    schema = Schema((pol_register(), path_register(("z1", "z2"))), (pol_register(),))
    state = StateVector.build(schema, {(("H", "z1"), ("H",)): 0.6, (("V", "z2"), ("V",)): 0.8})
    first = PolarizationRotation("A", 0.0, paths=("z1",))
    assert repr(first.weights) == repr((1 + 0j, 1.0, 0.0, -0.0))
    pattern = first.lowering(schema).pattern
    assert first.apply(state) == state
    for theta in (0.3, math.pi / 2, -0.0, 2.0):
        rotation = PolarizationRotation("A", theta, paths=("z1",))
        assert rotation.lowering(schema).pattern is pattern
        assert pattern.relabels is False
        rotated = rotation.apply(state)
        c, s = math.cos(theta), math.sin(theta)
        assert rotated.amplitude((("H", "z1"), ("H",))) == pytest.approx(0.6 * c)
        assert rotated.amplitude((("V", "z1"), ("H",))) == pytest.approx(0.6 * s)
    assert flags == [False]


def test_the_routers_share_one_rule():
    """The wavelength router declares only its register and its required
    registry: its hooks are the polarizing router's, keyed on ``freq``."""
    hooks = ("validate", "output_registers", "ket_slots")
    for router in (WavelengthRouter, PolarizingRouter):
        assert not set(hooks) & set(vars(router)), router
        assert all(getattr(router, hook) is getattr(PolarizingRouter, hook) for hook in hooks)
    assert (WavelengthRouter.key, PolarizingRouter.key) == ("freq", "pol")
    assert not issubclass(WavelengthRouter, PolarizingRouter)
    with pytest.raises(TypeError, match="registry"):
        WavelengthRouter("A", {"w1": "a1", "w2": "a2"})


@pytest.mark.parametrize(
    "element",
    [PolarizationRotation("A", 0.3, paths=("a9",)), UnbalancedSplitter("A", ("a1", "a9"), 0.7)],
    ids=["plate", "splitter"],
)
def test_a_rotation_failing_validate_raises_every_time_and_keeps_nothing(element):
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    for _ in range(3):
        with pytest.raises(ValueError, match="value 'a9' not in register 'path'"):
            element.apply(state)
        with pytest.raises(ValueError, match="value 'a9' not in register 'path'"):
            element_to_dense(element, state.schema)
    assert element._lowerings == {}
    key = (type(element), "A", element.pair, element.paths, state.schema)
    assert key not in Rotation._patterns


@dataclass(frozen=True)
class Counted(Element):
    """The identity except on ``refused``, counting its hook calls; its
    ``validate`` fails on the first ``failures`` calls."""

    refused: tuple = ()
    failures: int = 0
    calls: Counter = field(default_factory=Counter, compare=False)

    def validate(self, layout):
        self.calls["validate"] += 1
        if self.calls["validate"] <= self.failures:
            raise SchemaMismatchError("not yet")

    def ket_slots(self, ket, layout):
        self.calls[ket] += 1
        return None if ket == self.refused else [(ket, 0)]


def test_a_failed_validate_is_not_kept():
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    element = Counted("A", failures=2)
    for _ in range(2):
        with pytest.raises(SchemaMismatchError, match="not yet"):
            element.apply(state)
    assert element.calls == Counter({"validate": 2})
    assert element.apply(state) == state
    assert element.apply(state) == state
    # validated once it passed, then every ket of the layout slotted once
    kets = state.schema.layout("A").kets
    assert element.calls == Counter({"validate": 3, **dict.fromkeys(kets, 1)})


def test_a_ket_outside_the_domain_raises_from_the_memo_too():
    refused = ("V", "a2")
    state = two_path_state({(("H", "a1"), ("H",)): 0.6, (refused, ("V",)): 0.8})
    element = Counted("A", refused=refused)
    message = r"Counted: ket \|V,a2>A\|V>B lies outside the element's legal domain"
    for _ in range(3):
        with pytest.raises(CorrelationError, match=message):
            element.apply(state)
    assert element.calls[refused] == 1
    # and on a real optic: the eraser with its correlation swapped
    routed = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2")).apply(
        make_hyper_bell(ProtocolKind.PF)
    )
    eraser = FrequencyEraser("A", {"a1": "w2", "a2": "w1"})
    for _ in range(2):
        with pytest.raises(CorrelationError, match="FrequencyEraser"):
            eraser.apply(routed)


@dataclass(frozen=True)
class Misimaged(Element):
    """The identity except that it sends ``ket`` to ``image``, counting its
    ``ket_slots`` calls per ket."""

    ket: tuple = ()
    image: tuple = ()
    calls: Counter = field(default_factory=Counter, compare=False)

    def ket_slots(self, ket, layout):
        self.calls[ket] += 1
        return [(self.image if ket == self.ket else ket, 0)]


@pytest.mark.parametrize(
    "photon, ket, image, message",
    [
        ("A", ("V", "a2"), ("D", "a2"), "value 'D' not allowed in register 'pol'"),
        ("A", ("V", "a2"), ("V",), "photon A label ('V',) has 1 entries, schema has 2 registers"),
        ("B", ("V",), ("X",), "value 'X' not allowed in register 'pol'"),
    ],
    ids=["A-value", "A-length", "B-value"],
)
def test_an_image_outside_the_output_register_raises_and_is_not_kept(photon, ket, image, message):
    state = two_path_state({(("H", "a1"), ("H",)): 0.6, (("V", "a2"), ("V",)): 0.8})
    element = Misimaged(photon, ket, image)
    for calls in (1, 2, 3):
        # nothing is kept, so each retry slots the ket again and raises again
        with pytest.raises(SchemaMismatchError) as raised:
            element.apply(state)
        assert str(raised.value) == message
        assert element.calls[ket] == calls
        assert element._lowerings == {}
    # the dense route reads the same images and meets the same check
    with pytest.raises(SchemaMismatchError) as raised:
        element_to_dense(element, state.schema)
    assert str(raised.value) == message
    assert element._lowerings == {}


@pytest.mark.parametrize(
    "router, state",
    [
        (WavelengthRouter("A", {"w1": "a1", "w2": "a9"}, ("a1", "a2")),
         make_hyper_bell(ProtocolKind.PF)),
        (PolarizingRouter("A", {"H": "a2", "V": "a9"}, registry=TB_PATHS),
         make_hyper_bell(ProtocolKind.TB)),
        (PolarizingRouter("A", {("H", "a1"): "a2", ("V", "a1"): "a9",
                                ("H", "a2"): "a1", ("V", "a2"): "a2"}),
         two_path_state({(("H", "a1"), ("H",)): 0.6, (("V", "a2"), ("V",)): 0.8})),
    ],
    ids=["wavelength", "entry-pbs", "crossing-pbs"],
)
def test_a_router_target_outside_the_path_register_raises_and_is_not_kept(router, state):
    """No router checks its targets itself: the pattern refuses the bad image."""
    message = "value 'a9' not allowed in register 'path'"
    for _ in range(2):
        with pytest.raises(SchemaMismatchError) as raised:
            router.apply(state)
        assert str(raised.value) == message
        assert router._lowerings == {}
    with pytest.raises(SchemaMismatchError) as raised:
        element_to_dense(router, state.schema)
    assert str(raised.value) == message
    assert router._lowerings == {}


def test_both_routes_reject_a_bad_image_off_the_support():
    """A bad image is a bad element even where the state holds no amplitude:
    each route, on a fresh element, raises the same error."""
    state = two_path_state({(("H", "a1"), ("H",)): 1.0})
    with pytest.raises(SchemaMismatchError) as sparse:
        Misimaged("A", ("V", "a2"), ("D", "a2")).apply(state)
    with pytest.raises(SchemaMismatchError) as dense:
        apply_dense(Misimaged("A", ("V", "a2"), ("D", "a2")), state_to_vector(state), state.schema)
    assert str(sparse.value) == str(dense.value) == "value 'D' not allowed in register 'pol'"


@pytest.mark.parametrize("kind", [ProtocolKind.PF, ProtocolKind.TB])
def test_exactly_the_signed_permutations_skip_the_norm_step(kind, monkeypatch):
    """Every fixed relabeling stage and all 16 corrections are flagged on their
    schema and apply without :meth:`StateVector.settle`; no rotation or splitter
    is flagged, the zero-angle rotation and the full-swap splitter included."""
    settled = []
    settle = StateVector.settle.__func__

    def counted(cls, *args, **kwargs):
        settled.append(args[0])
        return settle(cls, *args, **kwargs)

    monkeypatch.setattr(StateVector, "settle", classmethod(counted))
    params = MEMO_TARGETS[0]
    state = make_hyper_bell(kind)
    for element in build_circuit(kind, params):
        relabels = not isinstance(element, (Rotation, BalancedSplitter))
        assert element.lowering(state.schema).pattern.relabels == relabels, element
        before = len(settled)
        state = element.apply(state)
        assert (len(settled) == before) == relabels, element
    schema = two_path_state({(("H", "a1"), ("H",)): 1.0}).schema
    for still in (PolarizationRotation("A", 0.0), UnbalancedSplitter("A", ("a1", "a2"), math.pi)):
        assert not still.lowering(schema).pattern.relabels
    target = make_target(params, kind)
    corrections = all_pauli_strings(tuple(r.name for r in target.schema.photon_b))
    assert len(corrections) == 16
    for report in run_protocol(kind, params):
        for op in corrections:
            assert op.lowering(report.bob_state_pre.schema).pattern.relabels, op
            before = len(settled)
            op.apply(report.bob_state_pre)
            assert len(settled) == before, op


@dataclass(frozen=True)
class Halved(Element):
    """The identity with weight 0.5: one image per ket, none shared."""

    weights = (0.5 + 0j,)

    def ket_slots(self, ket, layout):
        return [(ket, 0)]


@pytest.mark.parametrize(
    "element",
    [Misimaged("A", ("V", "a2"), ("H", "a1")), Halved("A")],
    ids=["two-kets-one-image", "weight-one-half"],
)
def test_a_map_that_is_not_a_signed_permutation_is_not_flagged_and_still_settles(element):
    state = two_path_state({(("H", "a1"), ("H",)): 0.6, (("V", "a2"), ("H",)): 0.8})
    assert not element.lowering(state.schema).pattern.relabels
    for _ in range(2):
        with pytest.raises(ValueError, match="state norm²"):
            element.apply(state)
