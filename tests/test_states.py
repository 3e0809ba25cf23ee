import cmath
import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import angles, assert_states_close, target_params
from hyper_rsp.efficiency import EfficiencyInput
from hyper_rsp.elements import (
    DropUniformRegister,
    FrequencyEraser,
    PolarizationRotation,
    PolarizingRouter,
    UnbalancedSplitter,
    WavelengthRouter,
)
from hyper_rsp.protocols import build_circuit
from hyper_rsp.runtime import (
    BranchSampler,
    ChannelMessage,
    chunk_generator,
    decode_outcome,
    message_from_bytes,
    message_to_bytes,
    sample_with_loss,
)
from hyper_rsp.states import (
    POLARIZATION,
    Outcome,
    ProtocolKind,
    Register,
    Schema,
    SchemaMismatchError,
    StateVector,
    TargetParams,
    UnknownDetectorError,
    fidelity,
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


# ---------------------------------------------------------------------------
# shared channel state


def test_hyper_bell_pf_amplitudes():
    state = make_hyper_bell(ProtocolKind.PF)
    assert state.amplitude((("H", "w1"), ("H", "w1"))) == pytest.approx(0.5)
    assert state.amplitude((("V", "w2"), ("V", "w2"))) == pytest.approx(0.5)
    assert state.amplitude((("H", "w1"), ("V", "w1"))) == 0
    assert len(state.amplitudes) == 4


def test_hyper_bell_tb_amplitudes():
    state = make_hyper_bell(ProtocolKind.TB)
    assert state.amplitude((("V", 1), ("V", 1))) == pytest.approx(0.5)
    assert state.amplitude((("H", 0), ("H", 0))) == pytest.approx(0.5)
    assert len(state.amplitudes) == 4


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_hyper_bell_is_one_read_only_state_per_protocol(kind):
    state = make_hyper_bell(kind)
    assert make_hyper_bell(kind) is state
    assert state.schema is hyper_bell_schema(kind)
    # settle boxes the float ½ once, as an exact complex
    assert all(type(amp) is complex for amp in state.amplitudes.values())
    label = next(iter(state.amplitudes))
    with pytest.raises(TypeError):
        state.amplitudes[label] = 1.0
    with pytest.raises(TypeError):
        del state.amplitudes[label]
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.amplitudes = {}
    assert state.amplitudes[label] == 0.5


# ---------------------------------------------------------------------------
# target construction


def test_target_basis_case():
    target = make_target(TargetParams(1, 0, 1, 0), ProtocolKind.PF)
    assert target.amplitude(((), ("H", "w1"))) == pytest.approx(1.0)
    assert len(target.amplitudes) == 1


def test_target_forced_superposition():
    params = TargetParams(1 / SQ2, 1 / SQ2, alpha2=0.0, beta2=1.0)
    target = make_target(params, ProtocolKind.TB)
    assert target.amplitude(((), ("H", 1))) == pytest.approx(1 / SQ2)
    assert target.amplitude(((), ("V", 1))) == pytest.approx(1 / SQ2)
    assert target.amplitude(((), ("H", 0))) == 0


@given(params=target_params(), kind=st.sampled_from(list(ProtocolKind)))
def test_target_norm_by_direct_summation(params, kind):
    target = make_target(params, kind)
    norm_sq = sum(abs(a) ** 2 for _, a in target.amplitudes.items())  # independent summation
    assert abs(norm_sq - 1.0) < 1e-12


@pytest.mark.parametrize(
    "pair, message",
    [
        (dict(alpha0=0.5, beta0=0.5), "pol pair .* not normalized"),
        (dict(alpha0=1.0, beta0=0.0, alpha1=0.9, beta1=0.9), "freq pair .* not normalized"),
        (dict(alpha0=1.2, beta0=0.0), r"pol coefficient 1.2 outside \[-1, 1\]"),
        (dict(alpha0=1.0, beta0=0.0, alpha2=-1.5, beta2=0.0), r"time coefficient -1.5 outside"),
        # a bool would pass as 0 or 1, a string or a complex fail on comparison
        (dict(alpha0=True, beta0=False), "^alpha0 must be a real number, got True$"),
        (dict(alpha1=np.True_, beta1=np.False_), "^alpha1 must be a real number, got "),
        (dict(alpha0=0.6, beta0=0.8, alpha2=1.0, beta2=False), "^beta2 must be a real number, "),
        (dict(alpha0="0.6", beta0=0.8), "^alpha0 must be a real number, got '0.6'$"),
        (dict(alpha0=1 + 0j), r"^alpha0 must be a real number, got \(1\+0j\)$"),
    ],
)
def test_params_rejected(pair, message):
    with pytest.raises(ValueError, match=message):
        TargetParams(**{"alpha0": 1.0, "beta0": 0.0, **pair})


@pytest.mark.parametrize("text", [3, None, b"pf", "xx"])
def test_an_unknown_protocol_is_a_value_error(text):
    with pytest.raises(ValueError, match=f"^unknown protocol {re.escape(repr(text))}; expected"):
        ProtocolKind.parse(text)


# ---------------------------------------------------------------------------
# fidelity


@given(params=target_params(), kind=st.sampled_from(list(ProtocolKind)))
def test_fidelity_self_is_one(params, kind):
    target = make_target(params, kind)
    assert fidelity(target, target) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_states():
    h = make_target(TargetParams(1, 0), ProtocolKind.PF)
    v = make_target(TargetParams(0, 1), ProtocolKind.PF)
    assert fidelity(h, v) == 0.0


@given(params=target_params(), phase=angles)
def test_fidelity_kills_global_phase(params, phase):
    target = make_target(params, ProtocolKind.TB)
    rotated = StateVector.build(
        target.schema,
        {label: amp * cmath.exp(1j * phase) for label, amp in target.amplitudes.items()},
    )
    assert fidelity(rotated, target) == pytest.approx(1.0, abs=1e-12)


@given(p1=target_params(), p2=target_params())
def test_fidelity_symmetric(p1, p2):
    s = make_target(p1, ProtocolKind.PF)
    t = make_target(p2, ProtocolKind.PF)
    assert abs(fidelity(s, t) - fidelity(t, s)) < 1e-15


def test_fidelity_schema_mismatch():
    pf = make_target(TargetParams(1, 0), ProtocolKind.PF)
    tb = make_target(TargetParams(1, 0), ProtocolKind.TB)
    with pytest.raises(SchemaMismatchError):
        fidelity(pf, tb)


# ---------------------------------------------------------------------------
# state vector container


def test_norm_enforced():
    schema = Schema((), (pol_register(),))
    with pytest.raises(ValueError):
        StateVector.build(schema, {((), ("H",)): 0.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_norm_rejected(bad):
    schema = Schema((), (pol_register(),))
    with pytest.raises(ValueError, match="not finite"):
        StateVector.build(schema, {((), ("H",)): 1.0, ((), ("V",)): bad})


def test_nan_rotation_rejected():
    with pytest.raises(ValueError, match="not finite"):
        PolarizationRotation("A", math.nan).apply(make_hyper_bell(ProtocolKind.PF))


def test_norm_sq_sums_in_insertion_order():
    """``norm_sq`` adds |a|² term by term, as ``settle`` does: ``sum()`` of floats
    is compensated from Python 3.12 on and moves some stage norms by one ulp."""
    for kind in ProtocolKind:
        state = make_hyper_bell(kind)
        for element in build_circuit(kind, TargetParams.from_angles(0.3, 1.1, 2.0)):
            state = element.apply(state)
            in_order = 0.0
            for amp in state.amplitudes.values():
                in_order += abs(amp) ** 2
            assert repr(state.norm_sq()) == repr(in_order), element


def test_tiny_amplitudes_pruned():
    schema = Schema((), (pol_register(),))
    state = StateVector.build(schema, {((), ("H",)): 1.0, ((), ("V",)): 1e-16})
    assert set(state.amplitudes) == {((), ("H",))}


def test_label_validation():
    schema = Schema((), (pol_register(),))
    with pytest.raises(SchemaMismatchError):
        StateVector.build(schema, {((), ("D",)): 1.0})
    with pytest.raises(SchemaMismatchError):
        StateVector.build(schema, {((), ("H", "w1")): 1.0})
    # A label outside the schema is refused even when its amplitude would be pruned.
    bell = make_hyper_bell(ProtocolKind.PF)
    with pytest.raises(SchemaMismatchError, match="value 'w9' not allowed in register 'freq'"):
        StateVector.build(bell.schema, {**bell.amplitudes, (("H", "w9"), ("H", "w1")): 1e-15})


def test_label_validation_after_the_cache_is_warm():
    schema = receiver_schema(ProtocolKind.TB)
    for label in schema.canonical_labels:
        schema.validate_label(label)
    with pytest.raises(SchemaMismatchError, match=r"label \('H',\) has 1 entries, schema has 2"):
        schema.validate_label(((), ("H",)))
    with pytest.raises(SchemaMismatchError, match="value 'D' not allowed in register 'pol'"):
        schema.validate_label(((), ("D", 0)))
    with pytest.raises(SchemaMismatchError, match="value 2 not allowed in register 'time'"):
        schema.validate_label(((), ("H", 2)))


def test_equal_layouts_share_one_schema():
    built = Schema((pol_register(), freq_register()), (pol_register(), freq_register()))
    assert built is hyper_bell_schema(ProtocolKind.PF)
    assert hyper_bell_schema(ProtocolKind.TB) is hyper_bell_schema(ProtocolKind.TB)
    assert receiver_schema(ProtocolKind.TB) is Schema((), (pol_register(), time_register()))
    router = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2"))
    grown = router.output_schema(built)
    assert grown is router.output_schema(built)
    assert grown is Schema(built.photon_a + (path_register(("a1", "a2")),), built.photon_b)
    assert DropUniformRegister("A", "path", "a1").output_schema(grown) is built
    erased = FrequencyEraser("A", {"a1": "w1", "a2": "w2"}).output_schema(grown)
    assert erased is FrequencyEraser("A", {"a1": "w1", "a2": "w2"}).output_schema(grown)
    assert PolarizationRotation("A", 0.3).output_schema(built) is built
    state = _measured_state()
    assert project_photon_a(state, Outcome("H", "a1"))[1].schema is receiver_schema(
        ProtocolKind.PF
    )
    assert copy.deepcopy(built) is built
    assert pickle.loads(pickle.dumps(built)) is built
    rebuilt = Schema((pol_register(), freq_register()), (pol_register(), freq_register()))
    assert {built: "kept"}[rebuilt] == "kept"  # a dict keyed by schema finds an equal layout


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        Register("path", ("a1", "a1"))


@pytest.mark.parametrize(
    "values, message",
    [
        pytest.param((False, True), "^time-bin delay must be an integer, got False$", id="values0"),
        pytest.param((0, True), "^time-bin delay must be an integer, got True$", id="values1"),
        pytest.param((-1, 0), "^time-bin delays must be non-negative integers$", id="values2"),
        pytest.param((0, 1.0), "^time-bin delay must be an integer, got 1.0$", id="values3"),
    ],
)
def test_time_register_takes_only_non_negative_int_delays(values, message):
    with pytest.raises(ValueError, match=message):
        time_register(values)
    assert time_register((0, 1)).values == (0, 1)


def test_canonical_label_order():
    schema = Schema((pol_register(),), (freq_register(),))
    assert schema.canonical_labels == (
        (("H",), ("w1",)),
        (("H",), ("w2",)),
        (("V",), ("w1",)),
        (("V",), ("w2",)),
    )


def test_schema_transforms_are_explicit():
    schema = Schema((pol_register(),), ())
    entry = PolarizingRouter("A", {"H": "a1", "V": "a2"}, registry=("a1", "a2"))
    grown = entry.output_schema(schema)
    assert "path" in grown.layout("A").positions
    with pytest.raises(SchemaMismatchError):
        entry.validate(grown.layout("A"))
    with pytest.raises(ValueError, match="duplicate register names"):
        entry.output_schema(grown)
    assert DropUniformRegister("A", "path", "a1").output_schema(grown) == schema
    on_b = Schema((), (pol_register(),))
    entry_b = PolarizingRouter("B", {"H": "a1", "V": "a2"}, registry=("a1", "a2"))
    grown_b = entry_b.output_schema(on_b)
    assert grown_b is Schema((), (pol_register(), path_register(("a1", "a2"))))
    assert DropUniformRegister("B", "path", "a1").output_schema(grown_b) is on_b


# ---------------------------------------------------------------------------
# projective measurement (on a hand-built measured-stage state)


def _measured_state():
    """(|H,a1> + |V,a2>)/√2 on A, with B following in polarization."""
    schema = Schema(
        (pol_register(), path_register(("a1", "a2"))),
        (pol_register(), freq_register()),
    )
    amps = {
        (("H", "a1"), ("H", "w1")): 1 / SQ2,
        (("V", "a2"), ("V", "w2")): 1 / SQ2,
    }
    return StateVector.build(schema, amps)


def test_projection_probability_and_residual():
    state = _measured_state()
    probability, bob = project_photon_a(state, Outcome("H", "a1"))
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert bob.amplitude(((), ("H", "w1"))) == pytest.approx(1.0)
    assert bob.schema.photon_a == ()


def test_projection_completeness():
    state = _measured_state()
    total = 0.0
    for pol in POLARIZATION:
        for path in ("a1", "a2"):
            probability, _ = project_photon_a(state, Outcome(pol, path))
            total += probability
    assert abs(total - 1.0) < 1e-10


def test_projection_zero_branch_flagged():
    state = _measured_state()
    probability, bob = project_photon_a(state, Outcome("V", "a1"))
    assert probability == 0.0
    assert bob is None


def test_projection_unknown_detector():
    state = _measured_state()
    with pytest.raises(UnknownDetectorError):
        project_photon_a(state, Outcome("H", "a9"))


def test_projection_needs_measurement_schema():
    with pytest.raises(SchemaMismatchError):
        project_photon_a(make_hyper_bell(ProtocolKind.PF), Outcome("H", "a1"))


def test_projection_checks_raise_on_every_call():
    """A failed check keeps nothing: it raises again, also once other outcomes
    on the same schema, or the same outcome on another schema, have been kept."""
    state = _measured_state()
    bell = make_hyper_bell(ProtocolKind.PF)
    for _ in range(3):
        with pytest.raises(UnknownDetectorError):
            project_photon_a(state, Outcome("H", "a9"))
        with pytest.raises(UnknownDetectorError):
            project_photon_a(state, Outcome("D", "a1"))
        with pytest.raises(SchemaMismatchError):
            project_photon_a(bell, Outcome("H", "a1"))
        assert project_photon_a(state, Outcome("H", "a1"))[0] == pytest.approx(0.5)


@given(params=target_params())
def test_hyper_bell_global_phase_freedom(params):
    # fidelity of a state with itself under any relabeling-free phase is 1
    state = make_target(params, ProtocolKind.PF)
    assert_states_close(state, state)


# ---------------------------------------------------------------------------
# the two rules for numbers from outside: integers and (real or complex) numbers

INTEGER, REAL, COMPLEX = "an integer", "a real number", "a complex number"
FRAME = "bytes or a bytearray"
PARAMS = TargetParams(0.6, 0.8, 0.28, 0.96)
POL_ONLY = Schema((), (pol_register(),))


def _draw_many(detected):
    state = np.random.RandomState(chunk_generator(3, 0).bit_generator)
    return BranchSampler(ProtocolKind.PF, PARAMS).draw_many(state, detected)


#: Each entry point that takes a number from outside: the kind of value it
#: requires, the name its error gives, and a call passing the value there.
ENTRY_POINTS = {
    "chunk_generator seed": (INTEGER, "seed", lambda v: chunk_generator(v, 0)),
    "chunk_generator index": (INTEGER, "chunk index", lambda v: chunk_generator(0, v)),
    "sample_with_loss trials": (
        INTEGER, "trials", lambda v: sample_with_loss(ProtocolKind.PF, PARAMS, 0.5, v, 3)),
    "sample_with_loss seed": (
        INTEGER, "seed", lambda v: sample_with_loss(ProtocolKind.PF, PARAMS, 0.5, 10, v)),
    "sample_with_loss eta_d": (
        REAL, "eta_d", lambda v: sample_with_loss(ProtocolKind.PF, PARAMS, v, 10, 3)),
    "draw_many": (INTEGER, "detected count", _draw_many),
    "decode_outcome": (
        INTEGER, "outcome code", lambda v: decode_outcome(ChannelMessage(1, ProtocolKind.PF, v))),
    "message_to_bytes version": (
        INTEGER, "wire version", lambda v: message_to_bytes(ChannelMessage(v, ProtocolKind.PF, 0))),
    "message_to_bytes code": (
        INTEGER, "outcome code", lambda v: message_to_bytes(ChannelMessage(1, ProtocolKind.TB, v))),
    "message_from_bytes": (FRAME, "frame", message_from_bytes),
    "time_register": (INTEGER, "time-bin delay", lambda v: time_register((0, v))),
    "EfficiencyInput transmitted": (
        INTEGER, "transmitted_qubits", lambda v: EfficiencyInput(v, 4, 2)),
    "EfficiencyInput channel": (INTEGER, "channel_qubits", lambda v: EfficiencyInput(2, v, 2)),
    "EfficiencyInput classical": (INTEGER, "classical_bits", lambda v: EfficiencyInput(2, 4, v)),
    "TargetParams alpha0": (REAL, "alpha0", lambda v: TargetParams(v, 0.8)),
    "TargetParams beta2": (REAL, "beta2", lambda v: TargetParams(1.0, 0.0, 1.0, 0.0, 1.0, v)),
    "from_angles theta_p": (REAL, "theta_p", lambda v: TargetParams.from_angles(v, 0.0, 0.0)),
    "from_angles theta_f": (REAL, "theta_f", lambda v: TargetParams.from_angles(0.0, v, 0.0)),
    "from_angles theta_t": (REAL, "theta_t", lambda v: TargetParams.from_angles(0.0, 0.0, v)),
    "PolarizationRotation theta": (REAL, "theta", lambda v: PolarizationRotation("A", v)),
    "UnbalancedSplitter phi": (REAL, "phi", lambda v: UnbalancedSplitter("A", ("a1", "a2"), v)),
    "StateVector amplitude": (
        COMPLEX, "amplitude", lambda v: StateVector.build(POL_ONLY, {((), ("H",)): v})),
}

#: Every entry point meets each value that is no number (``complex()`` would
#: read "1" and "1+0j" as 1, and ``True`` is 1 to arithmetic); 1.5 meets those
#: that want an integer, the frame reader included, where it would be truncated.
BOUNDARY = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (kind, _, _) in ENTRY_POINTS.items()
    for value in (True, np.True_, "1", "1+0j", None) + ((1.5,) if kind in (INTEGER, FRAME) else ())
]


@pytest.mark.parametrize("entry, value", BOUNDARY)
def test_every_entry_point_refuses_what_its_rule_refuses(entry, value):
    kind, name, call = ENTRY_POINTS[entry]
    shown = type(value).__name__ if kind == FRAME else repr(value)
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(shown)}$"):
        call(value)


def test_numpy_numbers_pass_where_python_ones_do():
    counts = EfficiencyInput(2, 4, np.int64(2))
    assert counts == EfficiencyInput(2, 4, 2)
    assert type(counts.classical_bits) is int
    register = time_register((0, np.int64(1)))
    assert register == time_register((0, 1))
    assert [type(v) for v in register.values] == [int, int]
    eta_d, trials, seed = np.float64(0.8), np.int64(20000), np.uint64(7)
    stats = sample_with_loss(ProtocolKind.TB, PARAMS, eta_d, trials, seed)
    assert stats == sample_with_loss(ProtocolKind.TB, PARAMS, 0.8, 20000, 7)
    assert type(stats.trials) is int
    assert TargetParams(np.float64(0.6), np.float64(0.8)) == TargetParams(0.6, 0.8)


@pytest.mark.parametrize("amp", [1, 1.0, np.float64(1.0), np.complex128(1), 1 + 0j])
def test_an_amplitude_is_any_complex_number(amp):
    state = StateVector.build(POL_ONLY, {((), ("H",)): amp})
    assert state.amplitudes == {((), ("H",)): 1 + 0j}
    assert type(state.amplitude(((), ("H",)))) is complex
