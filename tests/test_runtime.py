"""Channel codec, seeded sampling, and the detector-loss model."""

import bisect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyper_rsp.runtime import (
    CHUNK_TRIALS,
    PAYLOAD_BITS,
    BranchSampler,
    ChannelMessage,
    SampleStats,
    chunk_generator,
    chunk_uniforms,
    decode_outcome,
    encode_outcome,
    message_from_bytes,
    message_to_bytes,
    sample_with_loss,
)
from hyper_rsp.cli import random_params
from hyper_rsp.protocols import outcome_registry, run_protocol
from hyper_rsp.states import Outcome, ProtocolKind, TargetParams, UnknownDetectorError

PF = ProtocolKind.PF
TB = ProtocolKind.TB


# ---------------------------------------------------------------------------
# classical channel


def test_encode_first_registry_element_is_zero():
    assert encode_outcome(PF, Outcome("H", "a1")).outcome_code == 0


def test_encode_tb_example():
    assert encode_outcome(TB, Outcome("V", "kp3")).outcome_code == 6


def test_encode_matches_registry_order():
    for kind in (PF, TB):
        for i, outcome in enumerate(outcome_registry(kind)):
            assert encode_outcome(kind, outcome).outcome_code == i


def test_codec_round_trip_all_outcomes():
    for kind in (PF, TB):
        for outcome in outcome_registry(kind):
            message = encode_outcome(kind, outcome)
            assert decode_outcome(message) == outcome
            assert message_from_bytes(message_to_bytes(message)) == message


def test_payload_bits_match_registry_sizes():
    for kind in (PF, TB):
        size = len(outcome_registry(kind))
        assert PAYLOAD_BITS[kind] == math.ceil(math.log2(size))
        # every code fits in the declared payload width
        for outcome in outcome_registry(kind):
            assert encode_outcome(kind, outcome).outcome_code < 2 ** PAYLOAD_BITS[kind]


def test_frame_is_three_bytes():
    frame = message_to_bytes(encode_outcome(TB, Outcome("V", "kp4")))
    assert len(frame) == 3
    assert frame[0] == 1  # wire version


def test_decode_rejects_out_of_range_code():
    with pytest.raises(ValueError):
        decode_outcome(ChannelMessage(1, PF, 4))


def test_frame_rejects_bad_version_and_length():
    with pytest.raises(ValueError):
        message_from_bytes(bytes((9, 0, 0)))
    with pytest.raises(ValueError):
        message_from_bytes(bytes((1, 7, 0)))
    with pytest.raises(ValueError):
        message_from_bytes(b"\x01\x00")


def test_encode_unknown_outcome():
    with pytest.raises(UnknownDetectorError):
        encode_outcome(PF, Outcome("H", "kp1"))


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_outcome_frequencies_within_three_sigma(kind, generic_params):
    trials = 40000
    sampler = BranchSampler(kind, generic_params)
    rng = np.random.Generator(np.random.Philox(key=97))
    counts = {outcome: 0 for outcome in outcome_registry(kind)}
    uniforms = rng.random(trials)
    for index in sampler.draw_many(uniforms):
        counts[sampler.branches[index].outcome] += 1
    p = 1 / len(counts)
    sigma = math.sqrt(p * (1 - p) / trials)
    for outcome, count in counts.items():
        assert abs(count / trials - p) < 3 * sigma, outcome


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_draw_many_matches_running_sum_bisect(kind, generic_params, rng):
    """Reference: a bisect over the branch probabilities summed one by one,
    probed at every edge (the last one exercises the clamp) and just below it."""
    sampler = BranchSampler(kind, generic_params)
    edges, total = [], 0.0
    for branch in sampler.branches:
        total += branch.probability
        edges.append(total)
    probes = np.array(edges + [np.nextafter(1.0, 0.0)])
    uniforms = np.concatenate([probes, np.nextafter(probes, 0.0), rng.random(1000)])
    expected = [min(bisect.bisect_right(edges, u), len(edges) - 1) for u in uniforms]
    assert sampler.draw_many(uniforms).tolist() == expected


def reference_sample(kind, params, eta_d, trials, seed):
    """Reference sampling loop: a clamped ``searchsorted`` outcome draw and a
    boolean gather of branch fidelities, chunk by chunk.  Returns the run's
    stats and each chunk's outcome counts."""
    branches = run_protocol(kind, params)
    cumulative = np.cumsum([branch.probability for branch in branches])
    fidelities = np.array([branch.fidelity_post for branch in branches])
    detected, fidelity_sum, chunk_counts = 0, 0.0, []
    for chunk_index in range(math.ceil(trials / CHUNK_TRIALS)):
        u = chunk_uniforms(seed, trials, chunk_index)
        indices = np.minimum(
            np.searchsorted(cumulative, u[:, 0], side="right"), len(branches) - 1
        )
        clicks = (u[:, 1] < eta_d) & (u[:, 2] < eta_d)
        detected += int(clicks.sum())
        fidelity_sum += float(fidelities[indices[clicks]].sum())
        chunk_counts.append(np.bincount(indices, minlength=len(branches)))
    stats = SampleStats(
        protocol=kind,
        eta_d=eta_d,
        trials=trials,
        detected=detected,
        success_rate=detected / trials,
        mean_fidelity_on_detected=fidelity_sum / detected if detected else float("nan"),
        seed=seed,
    )
    return stats, chunk_counts


@pytest.mark.parametrize("eta_d", [0.0, 0.37, 0.8, 1.0])
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_sample_with_loss_equals_reference_loop(kind, eta_d):
    """Bit-identical stats and per-chunk outcome counts, short last chunk
    included, on a target whose branch fidelities are not all exactly 1.0."""
    params, seed, trials = random_params(5), 41, 2 * CHUNK_TRIALS + 77
    sampler = BranchSampler(kind, params)
    assert any(branch.fidelity_post != 1.0 for branch in sampler.branches)
    expected, expected_counts = reference_sample(kind, params, eta_d, trials, seed)
    stats = sample_with_loss(kind, params, eta_d, trials, seed)
    if expected.detected == 0:
        assert math.isnan(stats.mean_fidelity_on_detected)
        stats = replace(stats, mean_fidelity_on_detected=expected.mean_fidelity_on_detected)
    assert stats == expected
    for chunk_index, counts in enumerate(expected_counts):
        outcomes = chunk_uniforms(seed, trials, chunk_index)[:, 0]
        drawn = np.bincount(sampler.draw_many(outcomes), minlength=len(sampler.branches))
        assert drawn.tolist() == counts.tolist()


def test_chunk_generator_seed_range():
    assert chunk_generator(2**64 - 1, 0).random() != chunk_generator(0, 0).random()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            chunk_generator(seed, 0)


# ---------------------------------------------------------------------------
# detector loss


def test_perfect_detectors_never_lose(generic_params):
    stats = sample_with_loss(PF, generic_params, eta_d=1.0, trials=1000, seed=5)
    assert stats.success_rate == 1.0
    assert stats.detected == 1000


def test_dead_detectors_detect_nothing(generic_params):
    stats = sample_with_loss(PF, generic_params, eta_d=0.0, trials=1000, seed=5)
    assert stats.detected == 0
    assert math.isnan(stats.mean_fidelity_on_detected)


def test_loss_rate_matches_squared_efficiency(generic_params):
    trials = 100000
    eta = 0.8
    stats = sample_with_loss(TB, generic_params, eta_d=eta, trials=trials, seed=7)
    p = eta * eta
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(stats.success_rate - p) < 3 * sigma
    assert abs(stats.mean_fidelity_on_detected - 1.0) < 1e-10


@given(eta=st.floats(min_value=0.05, max_value=1.0), seed=st.integers(0, 2**32))
@settings(max_examples=10)
def test_post_selection_keeps_fidelity_regardless_of_loss(eta, seed):
    params = TargetParams(0.6, 0.8, 0.28, 0.96, 0.6, 0.8)
    stats = sample_with_loss(PF, params, eta_d=eta, trials=4000, seed=seed)
    if stats.detected:
        assert abs(stats.mean_fidelity_on_detected - 1.0) < 1e-10


def test_seed_determinism_bit_identical(generic_params):
    a = sample_with_loss(PF, generic_params, eta_d=0.73, trials=30000, seed=123)
    b = sample_with_loss(PF, generic_params, eta_d=0.73, trials=30000, seed=123)
    assert a == b


def test_different_seeds_differ(generic_params):
    a = sample_with_loss(PF, generic_params, eta_d=0.73, trials=30000, seed=123)
    b = sample_with_loss(PF, generic_params, eta_d=0.73, trials=30000, seed=124)
    assert a.detected != b.detected or a.success_rate != b.success_rate


def test_chunked_streams_merge_independent_of_order(generic_params):
    """Per-chunk detections drawn in reverse chunk order merge to the run's count."""
    eta = 0.8
    trials = CHUNK_TRIALS * 2 + 1234
    stats = sample_with_loss(PF, generic_params, eta_d=eta, trials=trials, seed=55)
    detected = 0
    for chunk_index in reversed(range(math.ceil(trials / CHUNK_TRIALS))):
        u = chunk_uniforms(55, trials, chunk_index)
        detected += int(((u[:, 1] < eta) & (u[:, 2] < eta)).sum())
    assert detected == stats.detected


def test_short_last_chunk_is_the_documented_philox_stream():
    seed, trials = 2**64 - 3, CHUNK_TRIALS * 3 + 77
    key = np.array([seed, 3], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).random((77, 3))
    assert np.array_equal(chunk_uniforms(seed, trials, 3), expected)


def test_chunk_bounds():
    assert chunk_uniforms(7, CHUNK_TRIALS, 0).shape == (CHUNK_TRIALS, 3)
    assert chunk_uniforms(7, CHUNK_TRIALS + 1, 1).shape == (1, 3)
    for chunk_index in (-1, 1):
        with pytest.raises(ValueError, match="chunk"):
            chunk_uniforms(7, CHUNK_TRIALS, chunk_index)


def test_loss_validation(generic_params):
    with pytest.raises(ValueError):
        sample_with_loss(PF, generic_params, eta_d=1.5, trials=10, seed=1)
    with pytest.raises(ValueError):
        sample_with_loss(PF, generic_params, eta_d=0.5, trials=0, seed=1)
