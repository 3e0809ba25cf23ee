"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here as constants; nothing is deferred to calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from test_protocols import tabulated_receiver_state
from hyper_rsp.dense import apply_dense, max_deviation, state_to_vector, unitarity_defect
from hyper_rsp.efficiency import protocol_efficiency, protocol_inputs
from hyper_rsp.protocols import (
    build_circuit,
    correction_table,
    derive_correction,
    outcome_registry,
    run_protocol,
)
from hyper_rsp.runtime import (
    decode_outcome,
    encode_outcome,
    message_from_bytes,
    message_to_bytes,
    sample_with_loss,
)
from hyper_rsp.states import (
    ProtocolKind,
    TargetParams,
    fidelity,
    make_hyper_bell,
    make_target,
    project_photon_a,
)

PF = ProtocolKind.PF
TB = ProtocolKind.TB

STATE_MATCH_TOL = 1e-10      # branch states vs. table, up to global phase
FIDELITY_TOL = 1e-10         # post-correction fidelity against the target
PROBABILITY_TOL = 1e-12      # branch probabilities vs. 1/4 and 1/8
DENSE_TOL = 1e-10            # sparse vs. dense amplitude deviation
UNITARITY_TOL = 1e-12        # max |U†U - I| per element
NORM_TOL = 1e-10             # norm conservation and projector completeness

TABLE_SWEEP = 1000
DENSE_SWEEP = 100

GENERIC = TargetParams(0.6, 0.8, 0.28, 0.96, 0.6, 0.8)


def sampled_params(count, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return [TargetParams.from_angles(*rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(count)]


def _passed(line):
    print(f"ACCEPTANCE PASS  {line}")


@pytest.fixture(scope="module")
def pf_sweep():
    params = sampled_params(TABLE_SWEEP, key=101)
    start = time.monotonic()
    reports = [run_protocol(PF, p) for p in params]
    return params, reports, time.monotonic() - start


@pytest.fixture(scope="module")
def tb_sweep():
    params = sampled_params(TABLE_SWEEP, key=202)
    start = time.monotonic()
    reports = [run_protocol(TB, p) for p in params]
    return params, reports, time.monotonic() - start


def _check_table_reproduction(kind, params_list, reports_list):
    for params, reports in zip(params_list, reports_list):
        target = make_target(params, kind)
        for report in reports:
            tabulated = tabulated_receiver_state(kind, report.outcome, params)
            assert 1.0 - fidelity(report.bob_state_pre, tabulated) <= STATE_MATCH_TOL
            assert report.correction == correction_table(kind, report.outcome)
            assert 1.0 - fidelity(report.bob_state_post, target) <= FIDELITY_TOL


def test_criterion_1_table_pf_reproduction(pf_sweep):
    params_list, reports_list, sweep_seconds = pf_sweep
    start = time.monotonic()
    _check_table_reproduction(PF, params_list, reports_list)
    elapsed = sweep_seconds + (time.monotonic() - start)
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s"
    _passed(
        f"[1] four-detector table reproduced for {TABLE_SWEEP} parameter sets "
        f"(state match {STATE_MATCH_TOL}, fidelity {FIDELITY_TOL}, {elapsed:.2f} s)"
    )


def test_criterion_2_table_tb_reproduction(tb_sweep):
    params_list, reports_list, sweep_seconds = tb_sweep
    start = time.monotonic()
    _check_table_reproduction(TB, params_list, reports_list)
    elapsed = sweep_seconds + (time.monotonic() - start)
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f} s"
    _passed(
        f"[2] eight-detector table reproduced for {TABLE_SWEEP} parameter sets "
        f"(state match {STATE_MATCH_TOL}, fidelity {FIDELITY_TOL}, {elapsed:.2f} s)"
    )


def test_criterion_3_branch_probabilities(pf_sweep, tb_sweep):
    for (_, reports_list, _), expected in ((pf_sweep, 0.25), (tb_sweep, 0.125)):
        for reports in reports_list:
            for report in reports:
                assert abs(report.probability - expected) <= PROBABILITY_TOL
    _passed(
        f"[3] branch probabilities exactly 1/4 and 1/8 within {PROBABILITY_TOL} "
        f"across {2 * TABLE_SWEEP} runs"
    )


def test_criterion_4_correction_rederivation():
    rows = 0
    for kind in (PF, TB):
        target = make_target(GENERIC, kind)
        for report in run_protocol(kind, GENERIC):
            search = derive_correction(report.bob_state_pre, target)
            assert len(search.matches) == 1, f"{report.outcome}: {search.matches}"
            assert search.matches[0] == correction_table(kind, report.outcome)
            rows += 1
    assert rows == 12
    _passed("[4] exhaustive 16-way search re-derives all 12 table rows uniquely")


def test_criterion_5_efficiency_fractions():
    assert protocol_efficiency(PF) == Fraction(1, 3)
    assert protocol_efficiency(TB) == Fraction(2, 7)
    for kind, bits in ((PF, 2), (TB, 3)):
        size = len(outcome_registry(kind))
        assert protocol_inputs(kind).classical_bits == math.ceil(math.log2(size)) == bits
    _passed("[5] efficiencies exactly 1/3 and 2/7; classical bit costs 2 and 3")


def test_criterion_6_detector_loss():
    eta, trials, seed = 0.8, 100000, 7
    start = time.monotonic()
    stats = sample_with_loss(PF, GENERIC, eta_d=eta, trials=trials, seed=seed)
    elapsed = time.monotonic() - start
    p = eta * eta
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(stats.success_rate - p) <= 3 * sigma
    assert stats.detected > 0
    # every detected trial carries its branch fidelity; all branches are ideal
    branch_fidelities = [r.fidelity_post for r in run_protocol(PF, GENERIC)]
    assert min(branch_fidelities) >= 1.0 - FIDELITY_TOL
    assert abs(stats.mean_fidelity_on_detected - 1.0) <= FIDELITY_TOL
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f} s"
    _passed(
        f"[6] detection rate {stats.success_rate:.4f} within 3σ of {p:.2f} at "
        f"η_d={eta}; conditional fidelity 1 ({elapsed:.2f} s)"
    )


def test_criterion_7_dense_oracle_equivalence():
    worst = 0.0
    for kind in (PF, TB):
        for params in sampled_params(DENSE_SWEEP, key=303):
            state = make_hyper_bell(kind)
            vec = state_to_vector(state)
            schema = state.schema
            for element in build_circuit(kind, params):
                state = element.apply(state)
                vec, schema = apply_dense(element, vec, schema)
                worst = max(worst, max_deviation(state, vec))
    assert worst < DENSE_TOL
    _passed(
        f"[7] sparse rewrites equal dense matrix evolution for {DENSE_SWEEP} "
        f"parameter sets per circuit (max deviation {worst:.2e})"
    )


def test_criterion_8_invariant_suite():
    # unitarity and norm conservation along both circuits
    for kind in (PF, TB):
        for params in sampled_params(10, key=404):
            state = make_hyper_bell(kind)
            for element in build_circuit(kind, params):
                assert unitarity_defect(element, state.schema) < UNITARITY_TOL
                state = element.apply(state)
                assert abs(state.norm_sq() - 1.0) < NORM_TOL
            # projector completeness on the final state
            total = sum(
                project_photon_a(state, outcome)[0]
                for outcome in outcome_registry(kind)
            )
            assert abs(total - 1.0) < NORM_TOL
    # channel codec round trip
    for kind in (PF, TB):
        for outcome in outcome_registry(kind):
            message = encode_outcome(kind, outcome)
            assert decode_outcome(message_from_bytes(message_to_bytes(message))) == outcome
    # seed determinism, bit-identical
    a = sample_with_loss(TB, GENERIC, eta_d=0.9, trials=20000, seed=42)
    b = sample_with_loss(TB, GENERIC, eta_d=0.9, trials=20000, seed=42)
    assert a == b
    _passed(
        "[8] unitarity, norm conservation, projector completeness, codec round "
        "trip, and bit-identical seeded reruns all hold"
    )
