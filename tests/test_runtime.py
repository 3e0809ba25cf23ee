"""Channel codec, seeded sampling, and the detector-loss model."""

import math
import multiprocessing
import os
import re
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
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
    decode_outcome,
    encode_outcome,
    message_from_bytes,
    message_to_bytes,
    sample_with_loss,
)
from hyper_rsp.cli import PARAMS_STREAM, random_params
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


@pytest.mark.parametrize(
    "code, error",
    [
        (4, "^outcome code 4 out of range$"),
        # a bool would pass as 0 or 1, a float fails on indexing
        (True, "^outcome code must be an integer, got True$"),
        (np.True_, "^outcome code must be an integer, got "),
        (1.0, "^outcome code must be an integer, got 1.0$"),
    ],
)
def test_decode_rejects_out_of_range_code(code, error):
    with pytest.raises(ValueError, match=error):
        decode_outcome(ChannelMessage(1, PF, code))


def test_frame_rejects_bad_version_and_length():
    with pytest.raises(ValueError):
        message_from_bytes(bytes((9, 0, 0)))
    with pytest.raises(ValueError):
        message_from_bytes(bytes((1, 7, 0)))
    with pytest.raises(ValueError):
        message_from_bytes(b"\x01\x00")
    # any other sequence would alias a byte with a bool or a float
    for frame in ([True, 0.0, 1], (1.0, 1, 2), [1, 0, 1], "abc"):
        kind = type(frame).__name__
        with pytest.raises(ValueError, match=f"^frame must be bytes or a bytearray, got {kind}$"):
            message_from_bytes(frame)
    assert message_from_bytes(bytearray(b"\x01\x00\x01")) == ChannelMessage(1, PF, 1)


@pytest.mark.parametrize(
    "message, error",
    [
        (ChannelMessage(9, PF, 0), "unsupported wire version 9"),
        (ChannelMessage(1, PF, 7), "outcome code 7 out of range"),
        (ChannelMessage(1, TB, 8), "outcome code 8 out of range"),
        (ChannelMessage(1, "pf", 0), "unknown protocol 'pf'; expected a ProtocolKind"),
        # a bool would pass as 0 or 1, a float fails on indexing
        (ChannelMessage(True, TB, 3), "^wire version must be an integer, got True$"),
        (ChannelMessage(1, PF, True), "^outcome code must be an integer, got True$"),
        (ChannelMessage(1, TB, np.False_), "^outcome code must be an integer, got "),
        (ChannelMessage(1, PF, 1.0), "^outcome code must be an integer, got 1.0$"),
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


def reference_chunk(seed, trials, chunk_index, eta_d, weights):
    """Chunk ``chunk_index``'s outcome counts, straight from the documented
    contract: a ``RandomState`` over ``Philox(key=[seed, chunk_index])`` draws
    the chunk's detected count, then its outcome counts."""
    size = min(CHUNK_TRIALS, trials - chunk_index * CHUNK_TRIALS)
    key = np.array([seed, chunk_index], dtype=np.uint64)
    state = np.random.RandomState(np.random.Philox(key=key))
    return state.multinomial(state.binomial(size, eta_d * eta_d), weights).tolist()


def reference_stats(kind, params, eta_d, trials, seed, chunk_counts):
    """The run's stats from its chunks' outcome counts, added in any order:
    integer sums, then Σ count · fidelity over the branches in registry order."""
    branches = run_protocol(kind, params)
    counts = tuple(sum(column) for column in zip(*chunk_counts))
    detected = sum(counts)
    fidelity_sum = sum(count * branch.fidelity_post for count, branch in zip(counts, branches))
    return SampleStats(
        protocol=kind,
        eta_d=eta_d,
        trials=trials,
        detected=detected,
        success_rate=detected / trials,
        mean_fidelity_on_detected=fidelity_sum / detected if detected else math.nan,
        seed=seed,
        outcome_counts=counts,
    )


def probabilities(kind, params):
    return [branch.probability for branch in run_protocol(kind, params)]


def spy_draws(monkeypatch):
    """Record each ``draw_many`` call's detected count and returned counts."""
    calls = []
    draw_many = BranchSampler.draw_many

    def spy(self, state, detected):
        counts = draw_many(self, state, detected)
        calls.append((detected, counts.tolist()))
        return counts

    monkeypatch.setattr(BranchSampler, "draw_many", spy)
    return calls


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_outcome_frequencies_within_three_sigma(kind, generic_params):
    trials = 40000
    stats = sample_with_loss(kind, generic_params, eta_d=1.0, trials=trials, seed=97)
    p = 1 / len(outcome_registry(kind))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert len(stats.outcome_counts) == len(outcome_registry(kind))
    for outcome, count in zip(outcome_registry(kind), stats.outcome_counts):
        assert abs(count / trials - p) < 3 * sigma, outcome


#: Chunk counts of a 3-chunk-and-77-trial run at seed 2**64 - 3 and η_d = 0.8:
#: chunk 0 (full) and chunk 3 (the short last one), in registry order.
PINNED_CHUNKS = {
    PF: {0: [2637, 2669, 2645, 2613], 3: [11, 10, 11, 13]},
    TB: {0: [1317, 1343, 1332, 1269, 1272, 1330, 1334, 1367], 3: [6, 5, 5, 2, 5, 7, 5, 10]},
}


def test_short_last_chunk_is_the_documented_philox_stream(generic_params, monkeypatch):
    """A full chunk's and the short last chunk's counts, as the run draws them,
    are the documented stream's and are pinned exactly."""
    seed, trials = 2**64 - 3, CHUNK_TRIALS * 3 + 77
    calls = spy_draws(monkeypatch)
    for kind, pins in PINNED_CHUNKS.items():
        calls.clear()
        sample_with_loss(kind, generic_params, 0.8, trials, seed)
        weights = probabilities(kind, generic_params)
        for chunk_index, pinned in pins.items():
            drawn = calls[chunk_index][1]
            assert drawn == pinned, (kind, chunk_index)
            assert drawn == reference_chunk(seed, trials, chunk_index, 0.8, weights)


@pytest.mark.parametrize(
    "eta_d, trials",
    [(eta_d, 2 * CHUNK_TRIALS + 77) for eta_d in (0.0, 0.37, 0.8, 1.0, 2**-60, 1 - 2**-53)]
    + [(0.01, 2 * CHUNK_TRIALS + 3), (0.8, 777), (0.8, 2 * CHUNK_TRIALS),
       (0.8, 8 * CHUNK_TRIALS + 77)],
    ids=["0.0", "0.37", "0.8", "1.0", "2**-60", "1-2**-53", "0.01-last-chunk-of-3",
         "0.8-1-chunk", "0.8-2-chunks", "0.8-9-chunks"],
)
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_sample_with_loss_equals_reference_loop(kind, eta_d, trials):
    """Equal stats (under ``==``, a run with no detection included) to the
    documented per-chunk draws added in reverse chunk order, short last chunk
    included, on a target whose branch fidelities are not all exactly 1.0.
    At η_d = 0.01 some chunks detect trials and the 3-trial last one none."""
    params, seed = random_params(5), 41
    assert any(branch.fidelity_post != 1.0 for branch in run_protocol(kind, params))
    chunks = range(math.ceil(trials / CHUNK_TRIALS))
    chunk_counts = [reference_chunk(seed, trials, chunk_index, eta_d, probabilities(kind, params))
                    for chunk_index in reversed(chunks)]
    if eta_d == 0.01:
        assert sum(chunk_counts[0]) == 0 and any(map(sum, chunk_counts))
    expected = reference_stats(kind, params, eta_d, trials, seed, chunk_counts)
    assert sample_with_loss(kind, params, eta_d, trials, seed) == expected


def test_chunked_streams_merge_independent_of_order(generic_params):
    """Chunks drawn by two worker processes, merged as they finish, give the
    run's stats: a chunk depends on (seed, chunk index) alone."""
    eta_d, trials, seed = 0.8, CHUNK_TRIALS * 5 + 1234, 55
    weights = probabilities(TB, generic_params)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context) as workers:
        futures = [workers.submit(reference_chunk, seed, trials, chunk_index, eta_d, weights)
                   for chunk_index in range(math.ceil(trials / CHUNK_TRIALS))]
        chunk_counts = [future.result(timeout=120) for future in as_completed(futures)]
    expected = reference_stats(TB, generic_params, eta_d, trials, seed, chunk_counts)
    assert sample_with_loss(TB, generic_params, eta_d, trials, seed) == expected


def test_concurrent_runs_on_more_workers_than_cpus_match_the_serial_runs(generic_params):
    """One caller more than there are usable CPUs, all at once, with the
    thread switch interval cut to a microsecond: each still gets its serial
    run's stats."""
    trials = 9 * CHUNK_TRIALS - 5
    seeds = range(len(os.sched_getaffinity(0)) + 1)
    serial = [sample_with_loss(TB, generic_params, 0.8, trials, seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(seeds)) as callers:
            runs = [callers.submit(sample_with_loss, TB, generic_params, 0.8, trials, seed)
                    for seed in seeds]
            assert [run.result(timeout=60) for run in runs] == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 3])
def test_slices_join_in_chunk_order(workers, generic_params, monkeypatch):
    """The run draws its chunks in chunk order: cut into ``workers``
    contiguous slices, each drawn on its own from the documented contract and
    joined in order, the chunks are the run's draws one by one, and the
    slices' column sums add up to the run's counts."""
    eta_d, trials, seed = 0.8, 7 * CHUNK_TRIALS + 77, 13
    weights = probabilities(TB, generic_params)
    chunks = range(math.ceil(trials / CHUNK_TRIALS))
    slices = [chunks[w * len(chunks) // workers:(w + 1) * len(chunks) // workers]
              for w in range(workers)]
    drawn = [[reference_chunk(seed, trials, c, eta_d, weights) for c in part] for part in slices]
    calls = spy_draws(monkeypatch)
    stats = sample_with_loss(TB, generic_params, eta_d, trials, seed)
    assert [counts for _, counts in calls] == [counts for part in drawn for counts in part]
    slice_sums = [[sum(column) for column in zip(*part)] for part in drawn]
    assert stats.outcome_counts == tuple(map(sum, zip(*slice_sums)))


def test_no_helper_outlives_a_run_that_raised(generic_params, monkeypatch):
    """A draw that raises stops the run at its chunk: the error reaches the
    caller, no later chunk is drawn, and no thread is left behind."""
    threads = threading.enumerate()
    drawn = []

    def draw_many(self, state, detected):
        drawn.append(detected)
        if len(drawn) == 2:
            raise ValueError("the second chunk's draw failed")
        return np.zeros(len(self.branches), dtype=np.int64)

    monkeypatch.setattr(BranchSampler, "draw_many", draw_many)
    with pytest.raises(ValueError, match="second chunk"):
        sample_with_loss(PF, generic_params, 0.8, 4 * CHUNK_TRIALS, seed=3)
    assert len(drawn) == 2
    assert threading.enumerate() == threads


@pytest.mark.parametrize("eta_d", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_sample_with_loss_draws_once_per_chunk_and_only_detected(
    kind, eta_d, generic_params, monkeypatch
):
    """The call graph the traced benchmark fixes: one ``draw_many`` per chunk,
    handed the chunk's detected count, and still called when a chunk detects
    nothing; the run's counts are the draws' sums."""
    calls = spy_draws(monkeypatch)
    trials = 2 * CHUNK_TRIALS + 77
    stats = sample_with_loss(kind, generic_params, eta_d, trials, seed=41)
    assert len(calls) == math.ceil(trials / CHUNK_TRIALS)
    assert [sum(counts) for _, counts in calls] == [detected for detected, _ in calls]
    assert stats.outcome_counts == tuple(map(sum, zip(*(counts for _, counts in calls))))
    assert sum(stats.outcome_counts) == stats.detected
    if eta_d == 0.0:
        assert [detected for detected, _ in calls] == [0, 0, 0]
    if eta_d == 1.0:
        assert [detected for detected, _ in calls] == [CHUNK_TRIALS, CHUNK_TRIALS, 77]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_a_forked_child_samples_after_its_parent(generic_params):
    """A child forked after its parent sampled gets the parent's stats, and the
    parent's run leaves no Python thread running.  ``threading.active_count()``
    counts Python threads only, not those of numpy's BLAS pool, so this does not
    show that the process is single-threaded when it forks."""
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


#: hand-made branch tables for the edges no protocol has
SYNTHETIC_TABLES = {
    # the running sum reaches exactly 1.0 before the last branch
    "edge-at-1": (0.37, 0.63, 0.0, 0.0),
    # a branch far below one trial's weight, then the rest split in two
    "tiny-edge": (2**-60, 0.5, 0.5 - 2**-60),
}


def table_sampler(table, generic_params, monkeypatch):
    """``pf``/``tb`` on the generic target, ``<kind>-random-5`` on the target of
    seed 5 (branch probabilities that are not exact quarters or eighths), or a
    synthetic table of ``SYNTHETIC_TABLES`` put in place of ``run_protocol``."""
    if table in SYNTHETIC_TABLES:
        branches = tuple(SimpleNamespace(probability=p) for p in SYNTHETIC_TABLES[table])
        monkeypatch.setattr(runtime, "run_protocol", lambda kind, params: branches)
        return BranchSampler(PF, generic_params)
    kind, _, target = table.partition("-")
    params = random_params(5) if target else generic_params
    return BranchSampler(ProtocolKind.parse(kind), params)


def running_sum_counts(state, detected, weights):
    """Reference multinomial: branch by branch, a binomial draw of the trials
    not yet placed, at the branch's probability over what the running sum of
    the branches before it leaves; the last branch takes the remainder."""
    counts, left, remaining = [0] * len(weights), detected, 1.0
    for branch, weight in enumerate(weights[:-1]):
        if left == 0:
            break
        counts[branch] = int(state.binomial(left, weight / remaining))
        left -= counts[branch]
        remaining -= weight
    counts[-1] += left
    return counts


@pytest.mark.parametrize("table", ["pf", "tb", "pf-random-5", "tb-random-5", *SYNTHETIC_TABLES])
def test_draw_many_matches_running_sum_bisect(table, generic_params, monkeypatch):
    """``draw_many`` is the running-sum draw over the branch probabilities in
    registry order, count for count and leaving the stream where the
    reference leaves it, at a few detected counts up to a full chunk; a
    branch of probability 0 never counts a trial."""
    sampler = table_sampler(table, generic_params, monkeypatch)
    weights = [branch.probability for branch in sampler.branches]
    for chunk_index, detected in enumerate((1, 5, 1000, CHUNK_TRIALS)):
        state, reference = (np.random.RandomState(chunk_generator(17, chunk_index).bit_generator)
                            for _ in range(2))
        counts = sampler.draw_many(state, detected).tolist()
        assert counts == running_sum_counts(reference, detected, weights), detected
        assert state.random_sample() == reference.random_sample()
        assert sum(counts) == detected
        assert all(count == 0 for count, weight in zip(counts, weights) if weight == 0)


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_draw_many_of_no_uniforms_is_empty(kind, generic_params):
    """Nothing detected: a zero count per branch, and nothing drawn."""
    sampler = BranchSampler(kind, generic_params)
    state, fresh = (np.random.RandomState(chunk_generator(3, 0).bit_generator) for _ in range(2))
    assert sampler.draw_many(state, 0).tolist() == [0] * len(outcome_registry(kind))
    assert state.random_sample() == fresh.random_sample()


@pytest.mark.parametrize("kind", [PF, TB], ids=["pf", "tb"])
def test_draw_many_refuses_anything_but_words(kind, generic_params):
    """The detected count must be an integer: ``multinomial`` would truncate
    2.5 to 2 trials, and an array count would draw a batch."""
    sampler = BranchSampler(kind, generic_params)
    state = np.random.RandomState(chunk_generator(3, 0).bit_generator)
    for detected in (2.5, np.float64(3.0), np.array([3])):
        with pytest.raises(ValueError, match="detected count must be an integer"):
            sampler.draw_many(state, detected)
    assert sum(sampler.draw_many(state, np.int64(3))) == 3


@pytest.mark.parametrize(
    "seed, chunk_index",
    [(0, 0), (2**64 - 1, 2**64 - 1), (7, PARAMS_STREAM), (0x0123456789ABCDEF, 2**40 + 3)],
)
def test_chunk_key_gives_the_philox_keyed_stream(seed, chunk_index):
    """The key words reach Philox as they are: each call's raw stream is
    ``Philox(key=[seed, chunk_index])``'s, from its own generator."""
    expected = np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)).random_raw(64)
    first, second = (chunk_generator(seed, chunk_index) for _ in range(2))
    assert first is not second and first.bit_generator is not second.bit_generator
    assert first.bit_generator.seed_seq is not second.bit_generator.seed_seq
    for generator in (first, second):
        assert generator.bit_generator.random_raw(64).tolist() == expected.tolist()


def test_chunk_generator_seed_range(generic_params):
    assert chunk_generator(2**64 - 1, 0).random() != chunk_generator(0, 0).random()
    assert chunk_generator(np.uint64(5), np.int64(2)).random() == chunk_generator(5, 2).random()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            chunk_generator(seed, 0)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            sample_with_loss(PF, generic_params, eta_d=0.5, trials=10, seed=seed)
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
    assert stats.detected == sum(stats.outcome_counts) == 1000


def test_dead_detectors_detect_nothing(generic_params):
    stats = sample_with_loss(PF, generic_params, eta_d=0.0, trials=1000, seed=5)
    assert stats.detected == 0
    assert stats.outcome_counts == (0, 0, 0, 0)
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


def test_chunk_bounds(monkeypatch):
    """Every chunk holds ``CHUNK_TRIALS`` trials except a shorter last one:
    with perfect detectors each chunk detects exactly its trials."""
    calls = spy_draws(monkeypatch)
    for trials, sizes in [(CHUNK_TRIALS, [CHUNK_TRIALS]), (CHUNK_TRIALS + 1, [CHUNK_TRIALS, 1]),
                          (5, [5])]:
        calls.clear()
        sample_with_loss(PF, TargetParams(0.6, 0.8, 0.28, 0.96, 0.6, 0.8), 1.0, trials, 7)
        assert [detected for detected, _ in calls] == sizes, trials


def test_loss_validation(generic_params):
    with pytest.raises(ValueError):
        sample_with_loss(PF, generic_params, eta_d=1.5, trials=10, seed=1)
    with pytest.raises(ValueError):
        sample_with_loss(PF, generic_params, eta_d=0.5, trials=0, seed=1)
    # a fractional count is refused here, not by numpy's TypeError deep in the draw
    for trials in (1.5, 16384.5):
        with pytest.raises(ValueError, match=f"trials must be an integer, got {trials}"):
            sample_with_loss(PF, generic_params, eta_d=0.5, trials=trials, seed=1)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_sampling_input(flag, generic_params):
    """``True`` would be taken as 1 (η_d = 1, one trial, seed 1's stream, Philox
    key word 1) and ``False`` as 0: each is refused by the argument's name."""
    for eta_d in (flag, np.bool_(flag)):
        message = f"^eta_d must be a real number, got {re.escape(repr(eta_d))}$"
        with pytest.raises(ValueError, match=message):
            sample_with_loss(PF, generic_params, eta_d, 10, 3)
    with pytest.raises(ValueError, match=f"^trials must be an integer, got {flag}$"):
        sample_with_loss(PF, generic_params, 0.5, flag, 3)
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {flag}$"):
        sample_with_loss(PF, generic_params, 0.5, 10, flag)
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {flag}$"):
        chunk_generator(flag, 0)
    with pytest.raises(ValueError, match=f"^chunk index must be an integer, got {flag}$"):
        chunk_generator(0, flag)
