"""Channel codec, seeded sampling, and the detector-loss model."""

import bisect
import itertools
import math
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyper_rsp import runtime
from hyper_rsp.runtime import (
    CHUNK_TRIALS,
    BranchSampler,
    ChannelMessage,
    SampleStats,
    chunk_generator,
    chunk_uniforms,
    chunk_words,
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


@pytest.mark.parametrize(
    "message, error",
    [
        (ChannelMessage(9, PF, 0), "unsupported wire version 9"),
        (ChannelMessage(1, PF, 7), "outcome code 7 out of range"),
        (ChannelMessage(1, TB, 8), "outcome code 8 out of range"),
        (ChannelMessage(1, "pf", 0), "unknown protocol 'pf'; expected a ProtocolKind"),
    ],
)
def test_writer_refuses_a_frame_the_reader_rejects(message, error):
    with pytest.raises(ValueError, match=error):
        message_to_bytes(message)


def test_encode_unknown_outcome():
    with pytest.raises(UnknownDetectorError):
        encode_outcome(PF, Outcome("H", "kp1"))


# ---------------------------------------------------------------------------
# sampling


def limit_word(x):
    """The least word whose uniform (w >> 11)·2⁻⁵³ is not below ``x``, in exact
    rational arithmetic: 2**11 times the least integer m with m·2⁻⁵³ ≥ x."""
    return math.ceil(Fraction(x) * 2**53) << 11


def uniform(word):
    """The float a raw Philox word stands for, as ``Generator.random`` makes it."""
    return (int(word) >> 11) * 2**-53


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_outcome_frequencies_within_three_sigma(kind, generic_params):
    trials = 40000
    sampler = BranchSampler(kind, generic_params)
    rng = np.random.Generator(np.random.Philox(key=97))
    counts = {outcome: 0 for outcome in outcome_registry(kind)}
    words = rng.bit_generator.random_raw(trials)
    for index in sampler.draw_many(words):
        counts[sampler.branches[index].outcome] += 1
    p = 1 / len(counts)
    sigma = math.sqrt(p * (1 - p) / trials)
    for outcome, count in counts.items():
        assert abs(count / trials - p) < 3 * sigma, outcome


#: hand-made branch tables for the edges no protocol has
SYNTHETIC_TABLES = {
    # an edge of exactly 1.0 before the last one: no word reaches it
    "edge-at-1": (0.37, 0.63, 0.0, 0.0),
    # an edge whose limit word is 2**11: only the words 0..2047 lie below it
    "tiny-edge": (2**-60, 0.5, 0.5 - 2**-60),
}


def table_sampler(table, generic_params, monkeypatch):
    """``pf``/``tb`` on the generic target, ``<kind>-random-5`` on the target of
    seed 5 (edges that are not multiples of 2⁻⁵³ among them), or a synthetic
    table of ``SYNTHETIC_TABLES`` put in place of ``run_protocol``."""
    if table in SYNTHETIC_TABLES:
        branches = tuple(SimpleNamespace(probability=p) for p in SYNTHETIC_TABLES[table])
        monkeypatch.setattr(runtime, "run_protocol", lambda kind, params: branches)
        return BranchSampler(PF, generic_params)
    kind, _, target = table.partition("-")
    params = random_params(5) if target else generic_params
    return BranchSampler(ProtocolKind.parse(kind), params)


@pytest.mark.parametrize("table", ["pf", "tb", "pf-random-5", "tb-random-5", *SYNTHETIC_TABLES])
def test_draw_many_matches_running_sum_bisect(table, generic_params, monkeypatch, rng):
    """Reference: a bisect over the branch probabilities summed one by one, on
    each word's uniform.  Probes: every edge's limit word and the word just
    below it, and the top word (the last edge is left out, so it exercises the
    clamp); an edge of 1.0 or above has no limit word."""
    sampler = table_sampler(table, generic_params, monkeypatch)
    edges, total = [], 0.0
    for branch in sampler.branches:
        total += branch.probability
        edges.append(total)
    if table == "edge-at-1":
        assert edges[1] == 1.0
    if table == "pf-random-5":
        assert limit_word(edges[0]) != math.floor(Fraction(edges[0]) * 2**53) << 11
    limits = [limit_word(edge) for edge in edges if edge < 1.0]
    probes = [word for limit in limits for word in (limit, limit - 1) if word >= 0]
    words = np.concatenate([
        np.array(probes + [2**64 - 1], dtype=np.uint64), rng.bit_generator.random_raw(1000)
    ])
    expected = [min(bisect.bisect_right(edges, uniform(w)), len(edges) - 1) for w in words]
    assert sampler.draw_many(words).tolist() == expected


def reference_sample(kind, params, eta_d, trials, seed):
    """Reference sampling loop: a clamped ``searchsorted`` outcome draw over
    every trial and a boolean gather of the detected trials' branch fidelities,
    chunk by chunk.  Returns the run's stats, each chunk's outcome counts and
    each chunk's detection count."""
    branches = run_protocol(kind, params)
    cumulative = np.cumsum([branch.probability for branch in branches])
    fidelities = np.array([branch.fidelity_post for branch in branches])
    fidelity_sum, chunk_counts, chunk_detected = 0.0, [], []
    for chunk_index in range(math.ceil(trials / CHUNK_TRIALS)):
        u = chunk_uniforms(seed, trials, chunk_index)
        indices = np.minimum(
            np.searchsorted(cumulative, u[:, 0], side="right"), len(branches) - 1
        )
        clicks = (u[:, 1] < eta_d) & (u[:, 2] < eta_d)
        chunk_detected.append(int(clicks.sum()))
        fidelity_sum += float(fidelities[indices[clicks]].sum())
        chunk_counts.append(np.bincount(indices, minlength=len(branches)))
    detected = sum(chunk_detected)
    stats = SampleStats(
        protocol=kind,
        eta_d=eta_d,
        trials=trials,
        detected=detected,
        success_rate=detected / trials,
        mean_fidelity_on_detected=fidelity_sum / detected if detected else math.nan,
        seed=seed,
    )
    return stats, chunk_counts, chunk_detected


@pytest.mark.parametrize(
    "eta_d, trials",
    [(eta_d, 2 * CHUNK_TRIALS + 77) for eta_d in (0.0, 0.37, 0.8, 1.0, 2**-60, 1 - 2**-53)]
    + [(0.01, 2 * CHUNK_TRIALS + 3), (0.8, 777), (0.8, 2 * CHUNK_TRIALS),
       (0.8, 8 * CHUNK_TRIALS + 77)],
    ids=["0.0", "0.37", "0.8", "1.0", "2**-60", "1-2**-53", "0.01-last-chunk-of-3",
         "0.8-1-chunk", "0.8-2-chunks", "0.8-9-chunks"],
)
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_sample_with_loss_equals_reference_loop(kind, eta_d, trials, monkeypatch):
    """Bit-identical stats (equal under ``==``, a run with no detection
    included) and per-chunk outcome counts, short last chunk included, on a
    target whose branch fidelities are not all exactly 1.0.  At η_d = 0.01
    some chunks detect trials and the 3-trial last one detects none; 2⁻⁶⁰
    (limit word 2**11) and 1 − 2⁻⁵³ (the top 53-bit uniform is not below it)
    are the word thresholds' boundaries.  Each of 1, 2 and 3 workers gives the
    same stats: with more chunks than workers the calling thread tallies the
    first contiguous slice and helper threads the rest, otherwise it tallies
    every chunk."""
    params, seed = random_params(5), 41
    sampler = BranchSampler(kind, params)
    assert any(branch.fidelity_post != 1.0 for branch in sampler.branches)
    expected, expected_counts, chunk_detected = reference_sample(
        kind, params, eta_d, trials, seed
    )
    if eta_d == 0.01:
        assert chunk_detected[-1] == 0 and any(chunk_detected)
    chunks, tallied_by = len(expected_counts), {}

    def spy(seed, trials, chunk_index):
        tallied_by[chunk_index] = threading.get_ident()
        return chunk_words(seed, trials, chunk_index)

    monkeypatch.setattr(runtime, "chunk_words", spy)
    for workers in (1, 2, 3):
        monkeypatch.setattr(runtime, "_WORKERS", workers)
        tallied_by.clear()
        assert sample_with_loss(kind, params, eta_d, trials, seed) == expected, workers
        own = chunks // workers if chunks > workers else chunks
        assert sorted(tallied_by) == list(range(chunks))
        assert [tallied_by[c] == threading.get_ident() for c in range(chunks)] == (
            [True] * own + [False] * (chunks - own)
        ), workers
    for chunk_index, counts in enumerate(expected_counts):
        outcomes = chunk_words(seed, trials, chunk_index)[:, 0]
        drawn = np.bincount(sampler.draw_many(outcomes), minlength=len(sampler.branches))
        assert drawn.tolist() == counts.tolist()


@pytest.mark.parametrize("workers", [2, 3])
def test_slices_join_in_chunk_order(workers, monkeypatch):
    """The slices' tallies come back in chunk order.  A float sum depends on
    the order of its terms, but the near-1 branch fidelities above give the
    same sums in most orders, so the order is pinned here on chunk indices."""
    monkeypatch.setattr(runtime, "_WORKERS", workers)
    assert runtime._spread(list, range(9)) == list(range(9))


def test_concurrent_runs_on_more_workers_than_cpus_match_the_serial_runs(
    generic_params, monkeypatch
):
    """Four callers at once, each run on five workers, with the thread switch
    interval cut to a microsecond: each still gets its serial run's stats."""
    trials = 9 * CHUNK_TRIALS - 5
    monkeypatch.setattr(runtime, "_WORKERS", 1)
    serial = [sample_with_loss(TB, generic_params, 0.8, trials, seed) for seed in range(4)]
    monkeypatch.setattr(runtime, "_WORKERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            runs = [callers.submit(sample_with_loss, TB, generic_params, 0.8, trials, seed)
                    for seed in range(4)]
            assert [run.result(timeout=60) for run in runs] == serial
    finally:
        sys.setswitchinterval(interval)


def test_no_helper_outlives_a_run_that_raised(monkeypatch):
    """When the calling thread's slice raises, the helpers' slices still end
    before the error reaches the caller."""
    monkeypatch.setattr(runtime, "_WORKERS", 2)
    finished = []

    def tally(chunks):
        if chunks[0] == 0:
            raise ValueError("the calling thread's slice failed")
        time.sleep(0.05)
        finished.append(chunks)
        return list(chunks)

    with pytest.raises(ValueError, match="calling thread"):
        runtime._spread(tally, range(4))
    assert finished == [range(2, 4)]


@pytest.mark.parametrize(
    "eta_d", [0.0, 2**-60, 0.1, 0.37, 1 - 2**-53, 1.0],
    ids=["0.0", "2**-60", "0.1", "0.37", "1-2**-53", "1.0"],
)
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_click_mask_at_the_limit_words_equals_reference_loop(kind, eta_d, monkeypatch, rng):
    """One crafted chunk: every pair of detector words from η_d's limit word,
    the word just below it, 0 and the top word, each trial with a random
    outcome word.  The word-domain run equals the float reference loop, which
    detects exactly the pairs that lie below the limit."""
    limit = limit_word(eta_d)
    detector_words = sorted({w for w in (0, limit - 1, limit, 2**64 - 1) if 0 <= w < 2**64})
    pairs = list(itertools.product(detector_words, repeat=2))
    outcomes = rng.bit_generator.random_raw(len(pairs)).tolist()
    words = np.array([(o, s, r) for o, (s, r) in zip(outcomes, pairs)], dtype=np.uint64)
    monkeypatch.setattr(runtime, "chunk_words", lambda seed, trials, chunk_index: words)
    params = random_params(5)
    expected, _, chunk_detected = reference_sample(kind, params, eta_d, len(pairs), 0)
    assert chunk_detected == [sum(s < limit and r < limit for s, r in pairs)]
    assert sample_with_loss(kind, params, eta_d, len(pairs), 0) == expected


@pytest.mark.parametrize("eta_d", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_sample_with_loss_draws_once_per_chunk_and_only_detected(
    kind, eta_d, generic_params, monkeypatch
):
    """The call graph the traced benchmark fixes: one ``draw_many`` per chunk,
    given exactly the detected trials, and still called with an empty array
    when a chunk detects nothing."""
    sizes = []
    draw_many = BranchSampler.draw_many

    def spy(self, words):
        sizes.append(words.size)
        return draw_many(self, words)

    monkeypatch.setattr(BranchSampler, "draw_many", spy)
    trials = 2 * CHUNK_TRIALS + 77
    stats = sample_with_loss(kind, generic_params, eta_d, trials, seed=41)
    assert len(sizes) == math.ceil(trials / CHUNK_TRIALS)
    assert sum(sizes) == stats.detected
    if eta_d == 0.0:
        assert sizes == [0, 0, 0]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_a_forked_child_samples_after_its_parent(generic_params, monkeypatch):
    """A child forked after its parent ran helper threads starts its own
    and gets the parent's stats, not waiting forever on a helper that does
    not exist; no helper is left at the fork to make it warn."""
    monkeypatch.setattr(runtime, "_WORKERS", 2)
    trials = 3 * CHUNK_TRIALS
    parent = sample_with_loss(PF, generic_params, 0.8, trials, seed=9)
    assert threading.active_count() == 1, threading.enumerate()
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=lambda: send.send(sample_with_loss(PF, generic_params, 0.8, trials, seed=9))
    )
    child.start()
    try:
        assert receive.poll(20), "the forked child did not finish sampling within 20 s"
        assert receive.recv() == parent
        child.join(20)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(5)


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_draw_many_of_no_uniforms_is_empty(kind, generic_params):
    sampler = BranchSampler(kind, generic_params)
    indices = sampler.draw_many(np.empty(0, dtype=np.uint64))
    assert indices.shape == (0,)
    assert indices.dtype == sampler.draw_many(np.array([1 << 63], dtype=np.uint64)).dtype


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_draw_many_refuses_anything_but_words(kind, generic_params):
    """A float uniform compared with a limit word would count no edge."""
    sampler = BranchSampler(kind, generic_params)
    for values in (np.array([0.9]), np.array([2**62], dtype=np.int64)):
        with pytest.raises(TypeError, match="uint64 Philox words"):
            sampler.draw_many(values)


def test_chunk_generator_seed_range(generic_params):
    assert chunk_generator(2**64 - 1, 0).random() != chunk_generator(0, 0).random()
    assert chunk_generator(np.uint64(5), np.int64(2)).random() == chunk_generator(5, 2).random()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            chunk_generator(seed, 0)
    for chunk_index in (-1, 2**64):
        with pytest.raises(ValueError, match=r"chunk index must lie in \[0, 2\*\*64\)"):
            chunk_generator(5, chunk_index)
    # a non-integer would alias the stream of its integer part
    with pytest.raises(ValueError, match="chunk index must be an integer, got 1.5"):
        chunk_generator(5, 1.5)
    for seed in (1.5, "5"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            chunk_generator(seed, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_with_loss(PF, generic_params, eta_d=0.5, trials=10, seed=seed)


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
    # the undefined mean is the one math.nan, so an identical run compares equal
    assert stats == sample_with_loss(PF, generic_params, eta_d=0.0, trials=1000, seed=5)


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
    words = chunk_words(seed, trials, 3)
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.random.Philox(key=key).random_raw(3 * 77).reshape(77, 3))
    assert np.array_equal(chunk_uniforms(seed, trials, 3), (words >> 11) * 2.0**-53)


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
    # a fractional count is refused here, not by numpy's TypeError deep in the draw
    for trials in (1.5, 16384.5):
        with pytest.raises(ValueError, match=f"trials must be an integer, got {trials}"):
            sample_with_loss(PF, generic_params, eta_d=0.5, trials=trials, seed=1)
