import cmath
import copy
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import angles, assert_states_close, target_params
from hyper_rsp.elements import (
    DropUniformRegister,
    FrequencyEraser,
    PolarizationRotation,
    PolarizingRouter,
    WavelengthRouter,
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
    assert len(state.support()) == 4


def test_hyper_bell_tb_amplitudes():
    state = make_hyper_bell(ProtocolKind.TB)
    assert state.amplitude((("V", 1), ("V", 1))) == pytest.approx(0.5)
    assert state.amplitude((("H", 0), ("H", 0))) == pytest.approx(0.5)
    assert len(state.support()) == 4


# ---------------------------------------------------------------------------
# target construction


def test_target_basis_case():
    target = make_target(TargetParams(1, 0, 1, 0), ProtocolKind.PF)
    assert target.amplitude(((), ("H", "w1"))) == pytest.approx(1.0)
    assert len(target.support()) == 1


def test_target_forced_superposition():
    params = TargetParams(1 / SQ2, 1 / SQ2, alpha2=0.0, beta2=1.0)
    target = make_target(params, ProtocolKind.TB)
    assert target.amplitude(((), ("H", 1))) == pytest.approx(1 / SQ2)
    assert target.amplitude(((), ("V", 1))) == pytest.approx(1 / SQ2)
    assert target.amplitude(((), ("H", 0))) == 0


@given(params=target_params(), kind=st.sampled_from(list(ProtocolKind)))
def test_target_norm_by_direct_summation(params, kind):
    target = make_target(params, kind)
    norm_sq = sum(abs(a) ** 2 for _, a in target.items())  # independent summation
    assert abs(norm_sq - 1.0) < 1e-12


@pytest.mark.parametrize(
    "pair",
    [
        dict(alpha0=0.5, beta0=0.5),
        dict(alpha0=1.0, beta0=0.0, alpha1=0.9, beta1=0.9),
        dict(alpha0=1.2, beta0=0.0),
        dict(alpha0=1.0, beta0=0.0, alpha2=-1.5, beta2=0.0),
    ],
)
def test_params_rejected(pair):
    with pytest.raises(ValueError):
        TargetParams(**{"alpha0": 1.0, "beta0": 0.0, **pair})


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
        {label: amp * cmath.exp(1j * phase) for label, amp in target.items()},
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
@pytest.mark.parametrize("normalize", [False, True])
def test_non_finite_norm_rejected(bad, normalize):
    schema = Schema((), (pol_register(),))
    with pytest.raises(ValueError, match="not finite"):
        StateVector.build(schema, {((), ("H",)): 1.0, ((), ("V",)): bad}, normalize=normalize)


def test_nan_rotation_rejected():
    with pytest.raises(ValueError, match="not finite"):
        PolarizationRotation("A", math.nan).apply(make_hyper_bell(ProtocolKind.PF))


def test_tiny_amplitudes_pruned():
    schema = Schema((), (pol_register(),))
    state = StateVector.build(schema, {((), ("H",)): 1.0, ((), ("V",)): 1e-16})
    assert state.support() == {((), ("H",))}


def test_label_validation():
    schema = Schema((), (pol_register(),))
    with pytest.raises(SchemaMismatchError):
        StateVector.build(schema, {((), ("D",)): 1.0})
    with pytest.raises(SchemaMismatchError):
        StateVector.build(schema, {((), ("H", "w1")): 1.0})


def test_label_validation_after_the_cache_is_warm():
    schema = receiver_schema(ProtocolKind.TB)
    for label in schema.labels():
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


def test_returned_labels_are_copies():
    schema = receiver_schema(ProtocolKind.PF)
    labels = schema.labels()
    schema.labels().clear()
    schema.labels().append(((), ("D", "w1")))
    assert schema.labels() == labels
    assert len(labels) == 4
    with pytest.raises(SchemaMismatchError):
        schema.validate_label(((), ("D", "w1")))


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        Register("path", ("a1", "a1"))


def test_canonical_label_order():
    schema = Schema((pol_register(),), (freq_register(),))
    assert schema.labels() == [
        (("H",), ("w1",)),
        (("H",), ("w2",)),
        (("V",), ("w1",)),
        (("V",), ("w2",)),
    ]


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


@given(params=target_params())
def test_hyper_bell_global_phase_freedom(params):
    # fidelity of a state with itself under any relabeling-free phase is 1
    state = make_target(params, ProtocolKind.PF)
    assert_states_close(state, state)
