"""End-to-end circuit checks against independently frozen stage expansions.

Every checkpointed intermediate state of both circuits is reconstructed here as
an explicit amplitude dictionary, worked out by hand from the element
definitions rather than produced by the element code, and compared stage by
stage.  The collapsed receiver states and the correction map are checked the
same way: hard tables on one side, the exhaustive 16-operator search as oracle
on the other.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    angles,
    assert_amplitudes_equal,
    assert_states_close,
    protocol_kinds,
    target_params,
)
from hyper_rsp import protocols
from hyper_rsp.cli import verify_report
from hyper_rsp.elements import PauliOp, all_pauli_strings
from hyper_rsp.protocols import (
    CorrectionNotFoundError,
    build_circuit,
    correction_table,
    derive_correction,
    evolve,
    outcome_registry,
    run_protocol,
)
from hyper_rsp.runtime import encode_outcome
from hyper_rsp.states import (
    PARAM_TOL,
    Outcome,
    ProtocolKind,
    Schema,
    SchemaMismatchError,
    StateVector,
    TargetParams,
    UnknownDetectorError,
    fidelity,
    make_hyper_bell,
    make_target,
    pol_register,
    receiver_schema,
)

PF = ProtocolKind.PF
TB = ProtocolKind.TB

HALF_SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


def eta_pairs(params):
    """Post-rotation polarization pairs: η = (α₀, -β₀), η⊥ = (β₀, α₀)."""
    return (params.alpha0, -params.beta0), (params.beta0, params.alpha0)


# ---------------------------------------------------------------------------
# frozen stage expansions, polarization-frequency circuit


def pf_stage_rotated(p):
    eta, eta_perp = eta_pairs(p)
    amps = {}
    for f in ("w1", "w2"):
        for j, pol_b in enumerate(("H", "V")):
            amps[(("H", f), (pol_b, f))] = eta[j] / 2
            amps[(("V", f), (pol_b, f))] = eta_perp[j] / 2
    return amps


def pf_stage_routed(p):
    path_of = {"w1": "a1", "w2": "a2"}
    return {
        ((pol_a, f, path_of[f]), b): amp
        for ((pol_a, f), b), amp in pf_stage_rotated(p).items()
    }


def pf_stage_erased(p):
    return {
        ((pol_a, path), b): amp
        for ((pol_a, _, path), b), amp in pf_stage_routed(p).items()
    }


def pf_stage_final(p):
    """Four branches of weight ½: pol pair by sender result, freq pair by path."""
    eta, eta_perp = eta_pairs(p)
    pol_by_sender = {"H": eta, "V": eta_perp}
    freq_by_path = {"a1": (p.alpha1, -p.beta1), "a2": (p.beta1, p.alpha1)}
    amps = {}
    for pol_a, pol_pair in pol_by_sender.items():
        for path, freq_pair in freq_by_path.items():
            for j, pol_b in enumerate(("H", "V")):
                for k, f in enumerate(("w1", "w2")):
                    amps[((pol_a, path), (pol_b, f))] = pol_pair[j] * freq_pair[k] / 2
    return amps


PF_STAGES = {0: pf_stage_rotated, 1: pf_stage_routed, 2: pf_stage_erased, 3: pf_stage_final}


# ---------------------------------------------------------------------------
# frozen stage expansions, polarization-time-bin circuit
#
# The raw builders track sender terms as {(pol, time, path): (pol pair, bin)}
# where the value describes the receiver branch riding along; _expand_b
# multiplies the weights out into full amplitude dictionaries.


def _expand_b(raw, weight_map):
    amps = {}
    for sender, (pol_pair, t_b) in raw.items():
        for j, pol_b in enumerate(("H", "V")):
            amps[(sender, (pol_b, t_b))] = weight_map[sender] * pol_pair[j]
    return amps


def tb_raw_after_cells(p):
    """Early components vertical, late horizontal, branches on their entry paths."""
    eta, eta_perp = eta_pairs(p)
    return {
        ("V", 0, "a2"): (eta, 0),
        ("H", 1, "a2"): (eta, 1),
        ("V", 0, "a1"): (eta_perp, 0),
        ("H", 1, "a1"): (eta_perp, 1),
    }


def tb_raw_crossed(p):
    """The crossing router swaps the paths of the horizontal components."""
    swap = {"a1": "a2", "a2": "a1"}
    return {
        (pol, t, swap[path] if pol == "H" else path): value
        for (pol, t, path), value in tb_raw_after_cells(p).items()
    }


def tb_raw_in_arms(p):
    routing = {("H", "a1"): "k1", ("V", "a1"): "k2", ("H", "a2"): "k4", ("V", "a2"): "k3"}
    return {
        (pol, t, routing[(pol, path)]): value
        for (pol, t, path), value in tb_raw_crossed(p).items()
    }


def tb_raw_delayed(p):
    return {
        (pol, t + 1 if pol == "V" and path in ("k2", "k3") else t, path): value
        for (pol, t, path), value in tb_raw_in_arms(p).items()
    }


def tb_raw_rotated_arms(p):
    """Every arm now carries (α₂|H⟩ + β₂|V⟩); weights split accordingly."""
    raw = {}
    for (_, t, path), value in tb_raw_delayed(p).items():
        raw[("H", t, path)] = (value, p.alpha2)
        raw[("V", t, path)] = (value, p.beta2)
    return raw


def tb_raw_recombined(p):
    cross = {"k1": "k2", "k2": "k1", "k3": "k4", "k4": "k3"}
    return {
        (pol, t, path if pol == "H" else cross[path]): value
        for (pol, t, path), value in tb_raw_rotated_arms(p).items()
    }


def tb_raw_flipped(p):
    raw = {}
    for (pol, t, path), value in tb_raw_recombined(p).items():
        if path in ("k1", "k2"):
            pol = "V" if pol == "H" else "H"
        raw[(pol, t, path)] = value
    return raw


def _uniform_half(raw):
    return _expand_b(raw, {sender: 0.5 for sender in raw})


def _split_by_arm(raw):
    weights = {sender: 0.5 * factor for sender, (_, factor) in raw.items()}
    return _expand_b({s: v for s, (v, _) in raw.items()}, weights)


def tb_stage_rotated(p):
    eta, eta_perp = eta_pairs(p)
    amps = {}
    for t in (0, 1):
        for j, pol_b in enumerate(("H", "V")):
            amps[(("H", t), (pol_b, t))] = eta[j] / 2
            amps[(("V", t), (pol_b, t))] = eta_perp[j] / 2
    return amps


def tb_stage_entry(p):
    path_of = {"H": "a2", "V": "a1"}
    return {
        ((pol_a, t, path_of[pol_a]), b): amp
        for ((pol_a, t), b), amp in tb_stage_rotated(p).items()
    }


def tb_stage_time_dropped(p):
    amps = {}
    for ((pol, _, path), b), amp in _split_by_arm(tb_raw_recombined(p)).items():
        amps[((pol, path), b)] = amp
    return amps


def tb_stage_flipped(p):
    amps = {}
    for ((pol, _, path), b), amp in _split_by_arm(tb_raw_flipped(p)).items():
        amps[((pol, path), b)] = amp
    return amps


def tb_stage_final(p):
    """Eight detector branches with weight 1/(2√2) each."""
    amps = {}
    for (pol_a, path), (pol_pair, time_pair) in branch_table(TB, p).items():
        for j, pol_b in enumerate(("H", "V")):
            for k, t in enumerate((0, 1)):
                amps[((pol_a, path), (pol_b, t))] = (
                    HALF_SQRT2 * pol_pair[j] * time_pair[k]
                )
    return amps


TB_STAGES = {
    0: tb_stage_rotated,
    1: tb_stage_entry,
    3: lambda p: _uniform_half(tb_raw_after_cells(p)),
    4: lambda p: _uniform_half(tb_raw_crossed(p)),
    6: lambda p: _uniform_half(tb_raw_in_arms(p)),
    8: lambda p: _uniform_half(tb_raw_delayed(p)),
    10: lambda p: _split_by_arm(tb_raw_rotated_arms(p)),
    12: lambda p: _split_by_arm(tb_raw_recombined(p)),
    13: tb_stage_time_dropped,
    15: tb_stage_flipped,
    17: tb_stage_final,
}


# Receiver-state table: (sender polarization, path) -> (pol pair, second pair).
def branch_table(kind, p):
    eta, eta_perp = eta_pairs(p)
    if kind is PF:
        return {
            ("H", "a1"): (eta, (p.alpha1, -p.beta1)),
            ("H", "a2"): (eta, (p.beta1, p.alpha1)),
            ("V", "a1"): (eta_perp, (p.alpha1, -p.beta1)),
            ("V", "a2"): (eta_perp, (p.beta1, p.alpha1)),
        }
    a2, b2 = p.alpha2, p.beta2
    return {
        ("H", "kp1"): (eta_perp, (b2, a2)),
        ("H", "kp2"): (eta, (a2, b2)),
        ("H", "kp3"): (eta, (-a2, b2)),
        ("H", "kp4"): (eta_perp, (b2, -a2)),
        ("V", "kp1"): (eta, (b2, a2)),
        ("V", "kp2"): (eta_perp, (a2, b2)),
        ("V", "kp3"): (eta_perp, (a2, -b2)),
        ("V", "kp4"): (eta, (-b2, a2)),
    }


def tabulated_receiver_state(kind, outcome, p):
    pol_pair, other_pair = branch_table(kind, p)[(outcome.polarization, outcome.path)]
    second_values = ("w1", "w2") if kind is PF else (0, 1)
    amps = {
        ((), (pol_b, x)): pol_pair[j] * other_pair[k]
        for j, pol_b in enumerate(("H", "V"))
        for k, x in enumerate(second_values)
    }
    return StateVector.build(receiver_schema(kind), amps)


# ---------------------------------------------------------------------------
# circuit construction


def test_pf_identity_rotation_when_alpha0_is_one():
    circuit = build_circuit(PF, TargetParams(1, 0, 1, 0))
    assert circuit[0].theta == 0.0


def test_pf_balanced_splitter_angle():
    r = 1 / math.sqrt(2)
    circuit = build_circuit(PF, TargetParams(1, 0, r, r))
    assert circuit[-1].phi == pytest.approx(math.pi / 2)


def test_tb_arm_rotation_angles():
    circuit = build_circuit(TB, TargetParams(1, 0, 1, 0, 1, 0))
    thetas = [el.theta for el in circuit if hasattr(el, "theta") and el.paths]
    assert thetas[0] == pytest.approx(0.0)
    assert thetas[1] == pytest.approx(-math.pi / 2)


@given(params=target_params())
def test_rotation_angle_reaches_negative_coefficients(params):
    circuit = build_circuit(PF, params)
    theta = circuit[0].theta
    assert math.cos(theta) == pytest.approx(params.alpha0, abs=1e-12)
    assert math.sin(theta) == pytest.approx(params.beta0, abs=1e-12)


# ---------------------------------------------------------------------------
# stage-by-stage evolution


@given(params=target_params())
@settings(max_examples=30)
def test_pf_stage_expansions(params):
    state = make_hyper_bell(PF)
    for index, element in enumerate(build_circuit(PF, params)):
        state = element.apply(state)
        assert_amplitudes_equal(state, PF_STAGES[index](params), tol=1e-12)


@given(params=target_params())
@settings(max_examples=15)
def test_tb_stage_expansions(params):
    state = make_hyper_bell(TB)
    for index, element in enumerate(build_circuit(TB, params)):
        state = element.apply(state)
        if index in TB_STAGES:
            assert_amplitudes_equal(state, TB_STAGES[index](params), tol=1e-12)


@given(params=target_params())
@settings(max_examples=30)
def test_norm_conserved_at_every_stage(params):
    for kind in (PF, TB):
        state = make_hyper_bell(kind)
        for element in build_circuit(kind, params):
            state = element.apply(state)
            assert abs(state.norm_sq() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# branch enumeration


@given(params=target_params())
@settings(max_examples=30)
def test_branch_probabilities_param_free(params):
    # Oracle: squared branch norms of the frozen final expansions.
    for kind, expected in ((PF, 0.25), (TB, 0.125)):
        final = pf_stage_final(params) if kind is PF else tb_stage_final(params)
        reports = run_protocol(kind, params)
        assert len(reports) == (4 if kind is PF else 8)
        total = 0.0
        for report in reports:
            sector = sum(
                abs(amp) ** 2
                for ((pol_a, path), _), amp in final.items()
                if (pol_a, path) == (report.outcome.polarization, report.outcome.path)
            )
            assert abs(sector - expected) < 1e-12
            assert abs(report.probability - expected) < 1e-12
            total += report.probability
        assert abs(total - 1.0) < 1e-10


@given(params=target_params())
@settings(max_examples=30)
def test_collapsed_states_match_table_and_corrections_close(params):
    for kind in (PF, TB):
        target = make_target(params, kind)
        for report in run_protocol(kind, params):
            tabulated = tabulated_receiver_state(kind, report.outcome, params)
            assert_states_close(report.bob_state_pre, tabulated)
            assert report.fidelity_post >= 1.0 - 1e-10
            assert fidelity(report.bob_state_post, target) >= 1.0 - 1e-10


def test_basis_target_prepared_exactly():
    reports = run_protocol(PF, TargetParams(1, 0, 1, 0))
    for report in reports:
        assert report.bob_state_post.amplitude(((), ("H", "w1"))) == pytest.approx(1.0)
        assert len(report.bob_state_post.support()) == 1


# ---------------------------------------------------------------------------
# correction table and its search oracle


#: The paper's correction table, typed by hand, keyed by (polarization, detector
#: path) in classical-message code order; the code derives it from the circuit.
PAPER_TABLE = {
    PF: {
        ("H", "a1"): (("pol", "sz"), ("freq", "sz")),
        ("H", "a2"): (("pol", "sz"), ("freq", "sx")),
        ("V", "a1"): (("pol", "sx"), ("freq", "sz")),
        ("V", "a2"): (("pol", "sx"), ("freq", "sx")),
    },
    TB: {
        ("H", "kp1"): (("pol", "sx"), ("time", "sx")),
        ("H", "kp2"): (("pol", "sz"), ("time", "I")),
        ("H", "kp3"): (("pol", "sz"), ("time", "sz")),
        ("H", "kp4"): (("pol", "sx"), ("time", "isy")),
        ("V", "kp1"): (("pol", "sz"), ("time", "sx")),
        ("V", "kp2"): (("pol", "sx"), ("time", "I")),
        ("V", "kp3"): (("pol", "sx"), ("time", "sz")),
        ("V", "kp4"): (("pol", "sz"), ("time", "isy")),
    },
}


@pytest.mark.parametrize(
    "kind,outcome,expected",
    [
        (kind, Outcome(*key), factors)
        for kind, table in PAPER_TABLE.items()
        for key, factors in table.items()
    ],
)
def test_correction_table_entries(kind, outcome, expected):
    assert correction_table(kind, outcome) == PauliOp("B", expected)


def test_correction_table_unknown_outcome():
    with pytest.raises(UnknownDetectorError):
        correction_table(PF, Outcome("H", "kp1"))


def test_search_rederives_full_table_uniquely(generic_params):
    for kind in (PF, TB):
        target = make_target(generic_params, kind)
        for report in run_protocol(kind, generic_params):
            search = derive_correction(report.bob_state_pre, target)
            assert len(search.matches) == 1
            assert search.matches[0] == correction_table(kind, report.outcome)


def test_search_reports_degeneracy():
    params = TargetParams(0.6, 0.8, 1.0, 0.0)  # α₁ = 1 makes σ_z^f act trivially
    target = make_target(params, PF)
    report = run_protocol(PF, params)[0]
    search = derive_correction(report.bob_state_pre, target)
    assert len(search.matches) > 1
    assert correction_table(PF, report.outcome) in search.matches


def test_search_identity_among_matches_for_matching_state(generic_params):
    target = make_target(generic_params, PF)
    search = derive_correction(target, target)
    identity = PauliOp("B", (("pol", "I"), ("freq", "I")))
    assert identity in search.matches


def test_search_fails_on_unreachable_state(generic_params):
    entangled = StateVector.build(
        receiver_schema(PF),
        {((), ("H", "w1")): 1 / math.sqrt(2), ((), ("V", "w2")): 1 / math.sqrt(2)},
    )
    target = make_target(generic_params, PF)
    assert derive_correction(entangled, target).matches == ()


def test_search_rejects_mismatched_schemas_as_schema_errors(generic_params):
    pf_target, tb_target = make_target(generic_params, PF), make_target(generic_params, TB)
    with pytest.raises(SchemaMismatchError, match="share one schema"):
        derive_correction(pf_target, tb_target)
    one_register = StateVector.build(Schema((), (pol_register(),)), {((), ("H",)): 1.0})
    with pytest.raises(SchemaMismatchError, match="two-register receiver"):
        derive_correction(one_register, one_register)


AXIS_PAIRS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@st.composite
def edge_pair(draw):
    """A pair whose α²+β² sits just inside 1 ± PARAM_TOL."""
    theta = draw(angles)
    scale = math.sqrt(1.0 + draw(st.sampled_from((-0.99, 0.99))) * PARAM_TOL)
    alpha, beta = scale * math.cos(theta), scale * math.sin(theta)
    assume(abs(alpha) <= 1.0 and abs(beta) <= 1.0)
    return alpha, beta


degenerate_pairs = st.one_of(st.sampled_from(AXIS_PAIRS), edge_pair())


@given(kind=protocol_kinds, pairs=st.tuples(degenerate_pairs, degenerate_pairs, degenerate_pairs))
@settings(max_examples=40)
def test_degenerate_targets_search_deterministically(kind, pairs):
    params = TargetParams(*(v for pair in pairs for v in pair))
    target = make_target(params, kind)
    candidates = all_pauli_strings(tuple(r.name for r in target.schema.photon_b))
    for report in run_protocol(kind, params):
        matches = derive_correction(report.bob_state_pre, target).matches
        assert matches == tuple(c for c in candidates if c in matches)
        assert derive_correction(report.bob_state_pre, target).matches == matches
        assert report.correction in matches
    assert verify_report(kind, params)["all_pass"]


# ---------------------------------------------------------------------------
# registries


def test_outcome_registries():
    # The message-code order, pinned: codes are on the wire.
    assert outcome_registry(PF) == (
        Outcome("H", "a1"), Outcome("H", "a2"), Outcome("V", "a1"), Outcome("V", "a2"),
    )
    assert outcome_registry(TB) == tuple(
        Outcome(pol, f"kp{i}") for pol in ("H", "V") for i in range(1, 5)
    )
    for kind, table in PAPER_TABLE.items():
        assert outcome_registry(kind) == tuple(Outcome(*key) for key in table)


_TARGET = TargetParams(0.6, 0.8, 0.28, 0.96, 0.28, 0.96)


@pytest.mark.parametrize(
    "entry",
    [
        outcome_registry,
        lambda kind: evolve(kind, _TARGET),
        lambda kind: make_target(_TARGET, kind),
        lambda kind: run_protocol(kind, _TARGET),
        lambda kind: build_circuit(kind, _TARGET),
        lambda kind: encode_outcome(kind, Outcome("H", "a1")),
    ],
    ids=["outcome_registry", "evolve", "make_target", "run_protocol", "build_circuit",
         "encode_outcome"],
)
@pytest.mark.parametrize("kind", ["pf", "tb", None])
def test_registry_rejects_a_kind_that_is_not_a_protocol(kind, entry):
    with pytest.raises(ValueError, match=r"^unknown protocol .*; expected a ProtocolKind$"):
        entry(kind)


@pytest.fixture
def underived():
    """Clear the derived tables before and after, so a patched derivation runs
    afresh and is not kept."""
    protocols._corrections.cache_clear()
    yield
    protocols._corrections.cache_clear()


@pytest.mark.parametrize("kind,first", [(PF, "H@a1"), (TB, "H@kp1")])
def test_derivation_refuses_an_ambiguous_generic_target(kind, first, underived, monkeypatch):
    # On the pol axis σ_z acts trivially on the target, so every branch has
    # two matching corrections and the derivation must not pick one.
    monkeypatch.setattr(protocols, "_GENERIC_TARGET", TargetParams(1.0, 0.0, 0.6, 0.8, 0.6, 0.8))
    with pytest.raises(CorrectionNotFoundError, match=f"^2 corrections for outcome {first}$"):
        outcome_registry(kind)


@pytest.mark.parametrize("kind,first", [(PF, "H@a1"), (TB, "H@kp1")])
def test_derivation_refuses_a_branch_no_correction_reaches(kind, first, underived, monkeypatch):
    # An unreachable fidelity bar empties every search; the table, not the
    # search, is what refuses it.
    monkeypatch.setattr(protocols, "FIDELITY_TOL", -1e-9)
    with pytest.raises(CorrectionNotFoundError, match=f"^0 corrections for outcome {first}$"):
        outcome_registry(kind)


@given(params=target_params())
@settings(max_examples=10)
def test_final_schema_is_measurement_ready(params):
    for kind in (PF, TB):
        final = evolve(kind, params)
        names = sorted(r.name for r in final.schema.photon_a)
        assert names == ["path", "pol"]
