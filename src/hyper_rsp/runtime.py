"""Stochastic execution: sampled outcomes, detector loss, and the classical channel.

The classical message carries the measurement outcome as its code, the
outcome's position in the protocol's table (``protocols._corrections``): 2
payload bits for the four-detector protocol, 3 for the eight-detector one.  On
the wire a message is a fixed 3-byte little-endian frame
[version][protocol][code]; the 2-/3-bit payload width is the accounting figure
the efficiency module reads off the same table.

Randomness contract, version 2: a run of ``trials`` trials seeded with ``s`` is
cut into chunks of ``CHUNK_TRIALS`` trials, the last one shorter when
``trials`` is not a multiple.  Chunk ``c`` of ``n`` trials wraps
``Philox(key=[s, c])`` in a ``numpy.random.RandomState`` and makes two draws
from it: its detected count ``d = binomial(n, η_d²)``, then its outcome counts
``multinomial(d, p)`` over the branch probabilities in registry order.  That is
the joint law of n independent trials, each detected when both detectors fire
and then landing on a branch, so a chunk costs the same for any n.  A chunk's
counts are a pure function of (seed, chunk index), and a run adds them as
integers, so its statistics do not depend on the order or the process in which
its chunks are drawn.  ``RandomState`` is numpy's frozen legacy stream (NEP 19):
for a fixed bit generator it gives the same values in every numpy release, up
to roundoff error.  Seeds and chunk indices are integers in [0, 2^64); they,
the counts and the wire codes pass the integer rule of :mod:`hyper_rsp.states`.
:func:`chunk_generator` hands Philox the key words through a small seed sequence
of its own instead of ``Philox(key=...)``, which would first fill an unused
``SeedSequence`` from OS entropy; the stream is the same.  So the generator's
``bit_generator.seed_seq`` is that key holder, and ``bit_generator.spawn``
raises ``TypeError``, as it cannot spawn.

numpy is imported on first use, inside each function that computes with it and
never at module level, so the codec (all that ``verify`` uses of this module)
loads without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .protocols import BranchReport, _corrections, outcome_registry, run_protocol
from .states import Outcome, ProtocolKind, TargetParams, UnknownDetectorError, unknown_protocol
from .states import _integer, _number

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
    #: detections per outcome, in registry (message-code) order
    outcome_counts: tuple[int, ...]

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
    code = _integer("outcome code", message.outcome_code)
    if not 0 <= code < len(registry):
        raise ValueError(f"outcome code {code} out of range")
    return registry[code]


def message_to_bytes(message: ChannelMessage) -> bytes:
    """Fixed 3-byte little-endian frame [version][protocol][outcome_code]; a
    frame that :func:`message_from_bytes` would reject is refused."""
    try:
        protocol_code = PROTOCOL_CODES[message.protocol]
    except KeyError:
        raise unknown_protocol(message.protocol) from None
    version = _integer("wire version", message.version)
    frame = bytes((version, protocol_code, _integer("outcome code", message.outcome_code)))
    message_from_bytes(frame)
    return frame


def message_from_bytes(frame: bytes) -> ChannelMessage:
    if not isinstance(frame, (bytes, bytearray)):
        raise ValueError(f"frame must be bytes or a bytearray, got {type(frame).__name__}")
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
        value = _integer(name, value)
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
        key.append(value)
    words = _chunk_key_type()(np.array(key, dtype=np.uint64))
    return np.random.Generator(np.random.Philox(words, counter=np.zeros(4, np.uint64)))


@functools.cache
def _chunk_key_type() -> type:
    """A seed sequence that hands Philox its two key words as they are, so no
    ``SeedSequence`` reads OS entropy first; defined on first use, like every
    use of numpy here."""
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class ChunkKey(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a chunk key is exactly two 64-bit words")
            return self.words

    return ChunkKey


class BranchSampler:
    """Exact branch table of one protocol, ready for repeated outcome draws."""

    def __init__(self, kind: ProtocolKind, params: TargetParams):
        self.branches: tuple[BranchReport, ...] = run_protocol(kind, params)
        self._probabilities = [branch.probability for branch in self.branches]

    def draw_many(self, state: np.random.RandomState, detected: int) -> np.ndarray:
        """The outcome counts of ``detected`` trials, in registry order: one
        multinomial draw over the branch probabilities.  ``detected`` must be
        an integer, a bool excepted, or ``ValueError`` is raised: ``multinomial``
        would draw 2 trials for 2.5 and one for ``True``."""
        return state.multinomial(_integer("detected count", detected), self._probabilities)


def sample_with_loss(
    kind: ProtocolKind,
    params: TargetParams,
    eta_d: float,
    trials: int,
    seed: int,
) -> SampleStats:
    """Post-selected sampling with detector efficiency ``eta_d``.

    A trial is detected only when both parties' detectors fire, two independent
    Bernoulli(η_d) events, so the detection rate estimates η_d².  Conditioned
    on detection the protocol is unchanged: each detected trial lands on a
    branch with the branch's exact probability and scores the branch's exact
    fidelity, which is 1 for the ideal circuits.  Each chunk draws its detected
    count and then its outcome counts, as the module docstring states; the mean
    fidelity is Σ count · fidelity over the branches in registry order, divided
    by the detected count, once per run.
    """
    import numpy as np

    _number("eta_d", eta_d)
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"detector efficiency must lie in [0, 1], got {eta_d}")
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    sampler = BranchSampler(kind, params)
    detection = eta_d * eta_d
    counts = np.zeros(len(sampler.branches), dtype=np.int64)
    for chunk_index, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        state = np.random.RandomState(chunk_generator(seed, chunk_index).bit_generator)
        chunk_detected = state.binomial(min(CHUNK_TRIALS, trials - start), detection)
        counts += sampler.draw_many(state, chunk_detected)
    outcome_counts = tuple(counts.tolist())
    detected = sum(outcome_counts)
    fidelity_sum = sum(count * branch.fidelity_post
                       for count, branch in zip(outcome_counts, sampler.branches))
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
        outcome_counts=outcome_counts,
    )
