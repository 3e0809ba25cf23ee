"""Stochastic execution: sampled outcomes, detector loss, and the classical channel.

The classical message carries the measurement outcome as a small code: 2 payload
bits for the four-detector protocol, 3 for the eight-detector one.  On the wire
a message is a fixed 3-byte little-endian frame [version][protocol][code]; the
2-/3-bit payload width is the accounting figure used by the efficiency module.

Randomness contract: all sampling uses numpy's Philox 4x64 counter-based
generator.  Trials are processed in fixed chunks of ``CHUNK_TRIALS``; chunk
``c`` of a run seeded with ``s`` draws from ``Philox(key=[s, c])``, so every
chunk's trials are a pure function of (seed, chunk index).  Results are
identical across platforms and independent of how chunks are distributed over
workers.  Each trial consumes three uniforms, in column order: outcome draw,
sender's detector, receiver's detector.  Seeds lie in [0, 2^64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import BranchReport, outcome_registry, run_protocol
from .states import Outcome, ProtocolKind, TargetParams, UnknownDetectorError

WIRE_VERSION = 1
CHUNK_TRIALS = 1 << 14

PROTOCOL_CODES = {ProtocolKind.PF: 0, ProtocolKind.TB: 1}
_CODE_TO_PROTOCOL = {code: kind for kind, code in PROTOCOL_CODES.items()}

#: outcome code = index in the protocol's detector registry
_OUTCOME_CODES = {
    kind: {outcome: code for code, outcome in enumerate(outcome_registry(kind))}
    for kind in ProtocolKind
}

#: payload bits per message: ceil(log2(registry size))
PAYLOAD_BITS = {kind: math.ceil(math.log2(len(codes))) for kind, codes in _OUTCOME_CODES.items()}


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
    code = _OUTCOME_CODES[kind].get(outcome)
    if code is None:
        raise UnknownDetectorError(f"outcome {outcome} not in the {kind.value} registry")
    return ChannelMessage(WIRE_VERSION, kind, code)


def decode_outcome(message: ChannelMessage) -> Outcome:
    registry = outcome_registry(message.protocol)
    if not 0 <= message.outcome_code < len(registry):
        raise ValueError(f"outcome code {message.outcome_code} out of range")
    return registry[message.outcome_code]


def message_to_bytes(message: ChannelMessage) -> bytes:
    """Fixed 3-byte little-endian frame [version][protocol][outcome_code]."""
    return bytes((message.version, PROTOCOL_CODES[message.protocol], message.outcome_code))


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
    """The documented per-chunk stream: Philox keyed by (seed, chunk index)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_uniforms(seed: int, trials: int, chunk_index: int) -> np.ndarray:
    """The (count, 3) uniforms of chunk ``chunk_index`` of a ``trials``-trial run;
    every chunk holds ``CHUNK_TRIALS`` trials except a shorter last one."""
    start = chunk_index * CHUNK_TRIALS
    if not 0 <= start < trials:
        raise ValueError(f"chunk {chunk_index} outside a run of {trials} trials")
    return chunk_generator(seed, chunk_index).random((min(CHUNK_TRIALS, trials - start), 3))


class BranchSampler:
    """Exact branch table of one protocol, ready for repeated outcome draws."""

    def __init__(self, kind: ProtocolKind, params: TargetParams):
        self.branches: tuple[BranchReport, ...] = run_protocol(kind, params)
        self._cumulative = np.cumsum([branch.probability for branch in self.branches])
        self._index_dtype = np.min_scalar_type(len(self.branches) - 1)

    def draw_many(self, uniforms: np.ndarray) -> np.ndarray:
        """Vectorized branch indices for an array of uniforms in [0, 1).

        A uniform's index is the number of cumulative branch edges ≤ u, the
        last edge left out.  Because the cumulative table never decreases,
        that count is ``min(searchsorted(cumulative, u, side="right"), B - 1)``
        for B branches: the same draw, without the binary search.
        """
        uniforms = np.ascontiguousarray(uniforms)
        indices = np.zeros(uniforms.shape, dtype=self._index_dtype)
        for edge in self._cumulative[:-1]:
            indices += edge <= uniforms
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
    """
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"detector efficiency must lie in [0, 1], got {eta_d}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    sampler = BranchSampler(kind, params)
    fidelities = np.array([b.fidelity_post for b in sampler.branches])
    detected = 0
    fidelity_sum = 0.0
    for chunk_index in range(math.ceil(trials / CHUNK_TRIALS)):
        outcome, sender, receiver = chunk_uniforms(seed, trials, chunk_index).T
        indices = sampler.draw_many(outcome)
        clicks = (sender < eta_d) & (receiver < eta_d)
        detected += int(np.count_nonzero(clicks))
        fidelity_sum += float(fidelities[indices[clicks]].sum())
    mean_fidelity = fidelity_sum / detected if detected else float("nan")
    return SampleStats(
        protocol=kind,
        eta_d=eta_d,
        trials=trials,
        detected=detected,
        success_rate=detected / trials,
        mean_fidelity_on_detected=mean_fidelity,
        seed=seed,
    )
