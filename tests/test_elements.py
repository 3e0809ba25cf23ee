import cmath
import math

import pytest
from hypothesis import given, settings

from conftest import angles, assert_amplitudes_equal, target_params
from hyper_rsp.elements import (
    BalancedSplitter,
    CorrelationError,
    DropUniformRegister,
    FrequencyEraser,
    HalfWavePlate,
    LongArmDelay,
    PauliOp,
    PauliString,
    PockelsCell,
    PolarizationRotation,
    PolarizingRouter,
    UnbalancedSplitter,
    WavelengthRouter,
    all_pauli_strings,
)
from hyper_rsp.protocols import TB_PATHS
from hyper_rsp.states import (
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
    for (_, b_values), amp in state.items():
        marginal[b_values] = marginal.get(b_values, 0.0) + abs(amp) ** 2
    return marginal


# ---------------------------------------------------------------------------
# polarization rotation


def test_rotation_zero_is_identity():
    state = make_hyper_bell(ProtocolKind.PF)
    assert_amplitudes_equal(PolarizationRotation("A", 0.0).apply(state), dict(state.items()))


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
    assert_amplitudes_equal(out, dict(state.items()))


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
    assert_amplitudes_equal(cell.apply(state), dict(state.items()))


def test_pockels_twice_is_identity():
    state = _timed_state(
        {(("H", 0, "a2"), ("H",)): 1 / SQ2, (("V", 0, "a2"), ("H",)): 1 / SQ2}
    )
    cell = PockelsCell("A", paths=("a2",), time_value=0)
    assert_amplitudes_equal(cell.apply(cell.apply(state)), dict(state.items()))


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
    assert_amplitudes_equal(delayed, dict(state.items()))


@pytest.mark.parametrize(
    "element",
    [PockelsCell("A", ("a2",), time_value=7), LongArmDelay("A", "k2", "X")],
    ids=["pockels-time-bin", "delay-polarization"],
)
def test_validate_rejects_values_outside_the_registers(element):
    """A value the registers lack would leave every ket unchanged, silently."""
    schema = Schema(
        (pol_register(), time_register((0, 1, 2)), path_register(TB_PATHS)),
        (pol_register(), time_register()),
    )
    state = StateVector.build(schema, {(("V", 0, "a2"), ("H", 0)): 1.0})
    with pytest.raises(ValueError, match="not in register"):
        element.validate(schema.layout("A"))
    with pytest.raises(ValueError, match="not in register"):
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
    assert_amplitudes_equal(plate.apply(plate.apply(state)), dict(state.items()))


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
    op = PauliOp("B", PauliString((("pol", "I"), ("freq", "I"))))
    assert_amplitudes_equal(op.apply(target), dict(target.items()))


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
    corrected = PauliOp("B", PauliString((("pol", "sz"), ("freq", "sz")))).apply(mirrored)
    target = make_target(TargetParams(a0, b0, a1, b1), ProtocolKind.PF)
    assert_amplitudes_equal(corrected, dict(target.items()))


def test_pauli_isy_convention():
    # iσ_y on (β₂|e⟩-α₂|l⟩) gives exactly (α₂|e⟩+β₂|l⟩): x₀→x₁, x₁→-x₀
    a2, b2 = 0.6, 0.8
    schema = make_target(TargetParams(1, 0), ProtocolKind.TB).schema
    state = StateVector.build(
        schema, {((), ("H", 0)): b2, ((), ("H", 1)): -a2}
    )
    rotated = PauliOp("B", PauliString((("pol", "I"), ("time", "isy")))).apply(state)
    assert rotated.amplitude(((), ("H", 0))) == pytest.approx(a2)
    assert rotated.amplitude(((), ("H", 1))) == pytest.approx(b2)


def test_pauli_register_mismatch():
    target = make_target(TargetParams(1, 0), ProtocolKind.PF)
    with pytest.raises(SchemaMismatchError):
        PauliOp("B", PauliString((("pol", "sz"), ("time", "sz")))).apply(target)


def test_pauli_needs_a_two_valued_register_on_every_call():
    schema = Schema((pol_register(), path_register(TB_PATHS)), (pol_register(),))
    op = PauliOp("A", PauliString((("pol", "sz"), ("path", "sx"))))
    for _ in range(2):  # a failed table build is not cached
        with pytest.raises(SchemaMismatchError, match="'path' has 10 values"):
            op.validate(schema.layout("A"))
    with pytest.raises(SchemaMismatchError, match="'path' has 10 values"):
        op.apply(StateVector.build(schema, {(("H", "k1"), ("H",)): 1.0}))


@pytest.mark.parametrize(
    "schema, photon",
    [
        (receiver_schema(ProtocolKind.PF), "B"),
        (receiver_schema(ProtocolKind.TB), "B"),
        (hyper_bell_schema(ProtocolKind.PF), "A"),
    ],
    ids=["pf-receiver", "tb-receiver", "pf-channel-A"],
)
def test_pauli_images_match_the_per_ket_rule(schema, photon):
    layout = schema.layout(photon)
    kets = list(layout.kets)
    names = tuple(r.name for r in layout.registers)
    for string in all_pauli_strings(names):
        op = PauliOp(photon, string)
        images = [op.ket_image(ket, layout) for ket in kets]
        assert images == [op.ket_rule(ket, layout) for ket in kets]
        assert sorted(image[0][0] for image in images) == sorted(kets)
        assert {image[0][1] for image in images} <= {1.0, -1.0}
        foreign = ("D",) + kets[0][1:]
        with pytest.raises(ValueError):
            op.ket_image(foreign, layout)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString((("pol", "sz"),))
    with pytest.raises(ValueError):
        PauliString((("pol", "sz"), ("freq", "sy")))
    with pytest.raises(ValueError, match="each register once"):
        PauliString((("pol", "sx"), ("pol", "sz")))


# ---------------------------------------------------------------------------
# shared element properties


@given(params=target_params(), phase=angles)
def test_elements_commute_with_phase_scaling(params, phase):
    scale = cmath.exp(1j * phase)
    state = make_hyper_bell(ProtocolKind.PF)
    scaled = StateVector.build(
        state.schema, {label: amp * scale for label, amp in state.items()}
    )
    element = PolarizationRotation("A", math.atan2(params.beta0, params.alpha0))
    left = element.apply(scaled)
    right = element.apply(state)
    for label in left.support() | right.support():
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
