"""Stochastic execution: sampled outcomes, detector loss, and the classical channel.

The classical message carries the measurement outcome as its code, the
outcome's position in the protocol's table (``protocols._corrections``): 2
payload bits for the four-detector protocol, 3 for the eight-detector one.  On
the wire a message is a fixed 3-byte little-endian frame
[version][protocol][code]; the 2-/3-bit payload width is the accounting figure
the efficiency module reads off the same table.

Randomness contract: all sampling uses numpy's Philox 4x64 counter-based
generator.  Trials are processed in fixed chunks of ``CHUNK_TRIALS``; chunk
``c`` of a run seeded with ``s`` draws from ``Philox(key=[s, c])``, so every
chunk's trials are a pure function of (seed, chunk index).  A run of more
chunks than the process has usable CPUs (its affinity set) is cut into one
contiguous slice of chunks per CPU: the calling thread tallies the first slice
and helper threads the others, while numpy's raw draw runs without the GIL.
Each chunk's detections and fidelity sum are then added in chunk order, the
additions the serial loop makes, so results are identical across platforms and
bit-identical for any CPU count.  Each trial consumes three 64-bit words, in
column order: outcome draw, sender's detector, receiver's detector.  A word w
stands for the uniform u = (w >> 11)·2⁻⁵³ that ``Generator.random`` would
return, and the sampler compares words, not floats: u < x exactly when w <
``word_limit(x)``.  Only detected trials have their outcome drawn (an index
depends on its own word alone, so each gets the index a draw over every trial
would give it).  Seeds and chunk indices are integers in [0, 2^64).

numpy is imported on first use, inside each function that computes with it and
never at module level, so the codec (all that ``verify`` uses of this module)
loads without it; ``concurrent.futures`` is imported when helpers first start.
"""

from __future__ import annotations

import math
import operator
import os
from _thread import allocate_lock  # threading's own lock, without importing threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .protocols import BranchReport, _corrections, outcome_registry, run_protocol
from .states import Outcome, ProtocolKind, TargetParams, UnknownDetectorError, unknown_protocol

if TYPE_CHECKING:
    import numpy as np

WIRE_VERSION = 1
CHUNK_TRIALS = 1 << 14

PROTOCOL_CODES = {ProtocolKind.PF: 0, ProtocolKind.TB: 1}
_CODE_TO_PROTOCOL = {code: kind for kind, code in PROTOCOL_CODES.items()}


@dataclass(frozen=True)
class ChannelMessage:
    """One classical announcement from sender to receiver."""

    version: int
    protocol: ProtocolKind
    outcome_code: int


@dataclass(frozen=True)
class SampleStats:
    """Aggregate of one post-selected sampling run."""

    protocol: ProtocolKind
    eta_d: float
    trials: int
    detected: int
    success_rate: float
    mean_fidelity_on_detected: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.detected <= self.trials:
            raise ValueError(f"detected {self.detected} outside [0, {self.trials}]")
        if self.success_rate != self.detected / self.trials:
            raise ValueError("success_rate must equal detected/trials")


def encode_outcome(kind: ProtocolKind, outcome: Outcome) -> ChannelMessage:
    """The outcome's index in :func:`outcome_registry` becomes its code."""
    try:
        code, _ = _corrections(kind)[outcome]
    except KeyError:
        raise UnknownDetectorError(f"outcome {outcome} not in the {kind.value} registry") from None
    return ChannelMessage(WIRE_VERSION, kind, code)


def decode_outcome(message: ChannelMessage) -> Outcome:
    registry = outcome_registry(message.protocol)
    if not 0 <= message.outcome_code < len(registry):
        raise ValueError(f"outcome code {message.outcome_code} out of range")
    return registry[message.outcome_code]


def message_to_bytes(message: ChannelMessage) -> bytes:
    """Fixed 3-byte little-endian frame [version][protocol][outcome_code]; a
    frame that :func:`message_from_bytes` would reject is refused."""
    try:
        protocol_code = PROTOCOL_CODES[message.protocol]
    except KeyError:
        raise unknown_protocol(message.protocol) from None
    frame = bytes((message.version, protocol_code, message.outcome_code))
    message_from_bytes(frame)
    return frame


def message_from_bytes(frame: bytes) -> ChannelMessage:
    if len(frame) != 3:
        raise ValueError(f"expected a 3-byte frame, got {len(frame)} bytes")
    version, protocol_code, outcome_code = frame
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version}")
    if protocol_code not in _CODE_TO_PROTOCOL:
        raise ValueError(f"unknown protocol code {protocol_code}")
    kind = _CODE_TO_PROTOCOL[protocol_code]
    message = ChannelMessage(version, kind, outcome_code)
    decode_outcome(message)  # range check
    return message


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """The documented per-chunk stream: Philox keyed by (seed, chunk index),
    each an integer in [0, 2**64); anything else raises ``ValueError``."""
    import numpy as np

    key = []
    for name, value in (("seed", seed), ("chunk index", chunk_index)):
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
        key.append(value)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def chunk_words(seed: int, trials: int, chunk_index: int) -> np.ndarray:
    """The (count, 3) raw uint64 Philox words of chunk ``chunk_index`` of a
    ``trials``-trial run; every chunk holds ``CHUNK_TRIALS`` trials except a
    shorter last one."""
    start = chunk_index * CHUNK_TRIALS
    if not 0 <= start < trials:
        raise ValueError(f"chunk {chunk_index} outside a run of {trials} trials")
    count = min(CHUNK_TRIALS, trials - start)
    return chunk_generator(seed, chunk_index).bit_generator.random_raw(3 * count).reshape(count, 3)


def chunk_uniforms(seed: int, trials: int, chunk_index: int) -> np.ndarray:
    """The float view of :func:`chunk_words`: u = (w >> 11)·2⁻⁵³ for each word w,
    the uniforms ``chunk_generator(seed, chunk_index).random((count, 3))`` gives."""
    return (chunk_words(seed, trials, chunk_index) >> 11) * 2.0**-53


def word_limit(x: float) -> int:
    """The least word whose uniform is not below ``x`` in [0, 1], so u < x
    exactly when w < word_limit(x); 2**64 (past every word) when x = 1.

    u = m·2⁻⁵³ with the integer m = w >> 11, so u < x ⟺ m < x·2⁵³ ⟺
    m < ⌈x·2⁵³⌉, and x·2⁵³ is exact: scaling by a power of two rounds nothing.
    """
    return math.ceil(x * 2**53) << 11


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: Threads that tally a run's chunks: the calling thread and ``_WORKERS - 1`` helpers.
_WORKERS = _usable_cpus()
_helpers = None
_helpers_lock = allocate_lock()


def _drop_helpers() -> None:
    """A forked child inherits the pool but not its threads: build a new one."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, allocate_lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


def _spread(tally, chunks: range) -> list:
    """``tally(chunks)``, computed over contiguous slices of ``chunks``: the
    calling thread tallies the first slice and helper threads the others, each
    slice's list joined in chunk order.  Helpers start only when there are more
    chunks than workers, so a one-CPU process never starts a thread."""
    global _helpers
    if _WORKERS < 2 or len(chunks) <= _WORKERS:
        return tally(chunks)
    from concurrent.futures import ThreadPoolExecutor, wait

    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="hyper-rsp-tally")
    bounds = [len(chunks) * k // _WORKERS for k in range(_WORKERS + 1)]
    futures = [_helpers.submit(tally, chunks[start:stop])
               for start, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        tallies = tally(chunks[: bounds[1]])
    finally:
        wait(futures)  # no helper outlives the call, not even when the calling thread raised
    for future in futures:
        tallies += future.result()
    return tallies


class BranchSampler:
    """Exact branch table of one protocol, ready for repeated outcome draws."""

    def __init__(self, kind: ProtocolKind, params: TargetParams):
        import numpy as np

        self.branches: tuple[BranchReport, ...] = run_protocol(kind, params)
        cumulative = np.cumsum([branch.probability for branch in self.branches])
        # an edge at 1.0 or above has a limit of 2**64 or more: no word reaches it
        self._edge_words = [np.uint64(word_limit(e)) for e in cumulative[:-1] if e < 1.0]
        self._index_dtype = np.min_scalar_type(len(self.branches) - 1)

    def draw_many(self, words: np.ndarray) -> np.ndarray:
        """Vectorized branch indices for an array of raw Philox words.

        A word's index is the number of cumulative branch edges ≤ its uniform
        u, the last edge left out: ``min(searchsorted(cumulative, u,
        side="right"), B - 1)`` for B branches.  An edge e ≤ u exactly when
        the word is ≥ ``word_limit(e)``, so the count runs on the words and
        every index is the one the float draw gives.  A float array would
        compare wrongly, so any dtype but uint64 raises ``TypeError``.
        """
        import numpy as np

        words = np.ascontiguousarray(words)
        if words.dtype != np.uint64:
            raise TypeError(f"draw_many takes uint64 Philox words, got {words.dtype}")
        indices = np.zeros(words.shape, dtype=self._index_dtype)
        for edge in self._edge_words:
            indices += edge <= words
        return indices


def sample_with_loss(
    kind: ProtocolKind,
    params: TargetParams,
    eta_d: float,
    trials: int,
    seed: int,
) -> SampleStats:
    """Post-selected sampling with detector efficiency ``eta_d``.

    A trial is detected only when both parties' detectors fire, two independent
    Bernoulli(η_d) draws, so the detection rate estimates η_d².  Conditioned on
    detection the protocol is unchanged: the recorded fidelity per detected
    trial is the exact branch fidelity, which is 1 for the ideal circuits.
    The click mask comes first and only the detected trials' outcome words,
    in trial order, are drawn: the same indices and fidelity sum as a draw
    over the whole chunk followed by post-selection.  Both run on the raw
    words: a detector fires when its word is below ``word_limit(eta_d)``, the
    same decision as its uniform below η_d.
    """
    import numpy as np

    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"detector efficiency must lie in [0, 1], got {eta_d}")
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    sampler = BranchSampler(kind, params)
    fidelities = np.array([b.fidelity_post for b in sampler.branches])
    # η_d = 1 has the limit 2**64, past every word: every trial clicks
    click_limit = np.uint64(word_limit(eta_d)) if eta_d < 1.0 else None

    def tally(chunks: range) -> list[tuple[int, float]]:
        """Each chunk's detections and fidelity sum, in chunk order."""
        tallies = []
        for chunk_index in chunks:
            outcome, sender, receiver = chunk_words(seed, trials, chunk_index).T
            if click_limit is not None:
                outcome = outcome.compress(np.maximum(sender, receiver) < click_limit)
            indices = sampler.draw_many(outcome)
            tallies.append((indices.size, float(fidelities.take(indices).sum())))
        return tallies

    detected = 0
    fidelity_sum = 0.0
    for chunk_detected, chunk_fidelity in _spread(tally, range(math.ceil(trials / CHUNK_TRIALS))):
        detected += chunk_detected
        fidelity_sum += chunk_fidelity
    # the math.nan singleton, so that two runs with no detection compare equal
    mean_fidelity = fidelity_sum / detected if detected else math.nan
    return SampleStats(
        protocol=kind,
        eta_d=eta_d,
        trials=trials,
        detected=detected,
        success_rate=detected / trials,
        mean_fidelity_on_detected=mean_fidelity,
        seed=seed,
    )
