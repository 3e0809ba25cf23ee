import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

from hyper_rsp.states import ProtocolKind, StateVector, TargetParams, fidelity

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

GLOBAL_PHASE_TOL = 1e-10

angles = st.floats(
    min_value=0.0, max_value=2.0 * math.pi, allow_nan=False, allow_infinity=False
)


@st.composite
def target_params(draw) -> TargetParams:
    """Uniform angles on the real parameter circle, covering negative pairs."""
    return TargetParams.from_angles(draw(angles), draw(angles), draw(angles))


protocol_kinds = st.sampled_from([ProtocolKind.PF, ProtocolKind.TB])

#: A generic target, then degenerate ones: β = 0, and every pair on an axis.
MEMO_TARGETS = (
    TargetParams.from_angles(0.3, 1.1, 2.0),
    TargetParams(1.0, 0.0, 0.6, 0.8, 0.28, 0.96),
    TargetParams(0.0, 1.0, -1.0, 0.0, 0.0, -1.0),
)


def assert_states_close(s: StateVector, t: StateVector, tol: float = GLOBAL_PHASE_TOL):
    """Equality up to global phase, via fidelity."""
    gap = 1.0 - fidelity(s, t)
    assert gap <= tol, f"states differ (1 - fidelity = {gap:.3e}):\n  {s}\n  {t}"


def assert_amplitudes_equal(state: StateVector, expected: dict, tol: float = 1e-12):
    """Exact amplitude comparison (no phase freedom), label by label."""
    labels = set(expected) | set(state.amplitudes)
    for label in labels:
        got = state.amplitude(label)
        want = complex(expected.get(label, 0.0))
        assert abs(got - want) <= tol, (
            f"amplitude mismatch at {label}: got {got}, expected {want}"
        )


def ket_image(element, ket: tuple, layout) -> list | None:
    """The per-ket rule: ``ket``'s images under ``element`` as (ket, coefficient)
    pairs, each slot of ``ket_slots`` weighed by ``element.weights``; ``None``
    outside the domain."""
    slots = element.ket_slots(ket, layout)
    return None if slots is None else [(image, element.weights[slot]) for image, slot in slots]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240831))


@pytest.fixture
def generic_params() -> TargetParams:
    """Pythagorean pairs with no degeneracies; corrections are unique here."""
    return TargetParams(0.6, 0.8, 0.28, 0.96, 0.6, 0.8)
