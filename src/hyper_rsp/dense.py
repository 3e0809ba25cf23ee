"""Dense matrix route: the independent check against the sparse label rewrites.

Every element acts on one photon and is lowered on that photon alone: one pass
of ``ket_image`` over the photon's canonical kets gives both the element's legal
domain (the kets whose image is not ``None``) and its matrix M, assembled
column-by-column from those images.  A canonical vector is read as a
(dim A, dim B) grid, and M acts on its rows (photon A) or columns (photon B).
This is exact by the element interface: ``ket_image`` is handed only the
photon's own ket and layout, and the canonical order puts photon A's registers
first, so the full two-photon matrix is M ⊗ I (photon A) or I ⊗ M (photon B) on
the domain, and max|(M†M ⊗ I) − I| = max|M†M − I| gives the same isometry
defect.  Agreement with the sparse application, and unitarity of every matrix,
are the verification currency of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import Element
from .states import Schema, StateVector

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class DenseElement:
    """An element lowered to an explicit matrix on its own photon.

    ``in_kets`` are the photon's domain kets (value tuples), ordered
    canonically; ``out_schema`` is the full two-photon schema after the element.
    """

    matrix: np.ndarray
    in_kets: list[tuple]
    out_schema: Schema


def state_to_vector(state: StateVector) -> np.ndarray:
    """Amplitudes in canonical lexicographic order: label (a, b) sits at
    i_A(a) · dim B + i_B(b)."""
    a_index, b_index = state.schema.layout("A").index, state.schema.layout("B").index
    vec = np.zeros(state.schema.dimension(), dtype=complex)
    for (a, b), amp in state.items():
        vec[a_index[a] * len(b_index) + b_index[b]] = amp
    return vec


def vector_to_state(vec: np.ndarray, schema: Schema) -> StateVector:
    labels = schema.labels()
    return StateVector.build(schema, {labels[i]: vec[i] for i in np.flatnonzero(np.abs(vec))})


def element_to_dense(element: Element, schema: Schema) -> DenseElement:
    """Lower one element to its matrix over its own photon's domain kets."""
    layout = schema.layout(element.photon)
    element.validate(layout)
    out_schema = element.output_schema(schema)
    out_layout = out_schema.layout(element.photon)
    columns = [
        (ket, images)
        for ket in layout.kets
        if (images := element.ket_image(ket, layout)) is not None
    ]
    matrix = np.zeros((len(out_layout.kets), len(columns)), dtype=complex)
    for j, (_, images) in enumerate(columns):
        for image, coeff in images:
            matrix[out_layout.index[image], j] += coeff
    return DenseElement(matrix, [ket for ket, _ in columns], out_schema)


def unitarity_defect(element: Element, schema: Schema) -> float:
    """max |U†U - I| over the element's domain; 0 for an exact isometry."""
    dense = element_to_dense(element, schema)
    gram = dense.matrix.conj().T @ dense.matrix
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def is_signed_permutation(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every column holds exactly one entry of magnitude one."""
    for column in matrix.T:
        magnitudes = np.abs(column)
        big = magnitudes > tol
        if big.sum() != 1 or abs(magnitudes[big][0] - 1.0) > tol:
            return False
    return True


def apply_dense(element: Element, vec: np.ndarray, schema: Schema) -> tuple[np.ndarray, Schema]:
    """Evolve a canonical amplitude vector through one element's matrix.

    The vector is read as a (dim A, dim B) grid, and the element's factor acts
    on the grid's rows (photon A) or columns (photon B).  The vector must be
    supported on the element's domain; amplitude outside it means a
    precondition was violated upstream.
    """
    dense = element_to_dense(element, schema)
    grid = vec.reshape(len(schema.layout("A").kets), -1)
    if element.photon == "B":
        grid = grid.T
    own_index = schema.layout(element.photon).index
    domain_positions = [own_index[ket] for ket in dense.in_kets]
    keep = np.zeros(len(own_index), dtype=bool)
    keep[domain_positions] = True
    stray = np.abs(grid[~keep])
    if stray.size and stray.max() > SUPPORT_TOL:
        raise ValueError("state has amplitude outside the element's legal domain")
    out = dense.matrix @ grid[domain_positions]
    if element.photon == "B":
        out = out.T
    return out.reshape(-1), dense.out_schema


def evolve_dense(elements, state: StateVector) -> tuple[np.ndarray, Schema]:
    """Run a whole circuit on the dense route, starting from a sparse state."""
    vec = state_to_vector(state)
    schema = state.schema
    for element in elements:
        vec, schema = apply_dense(element, vec, schema)
    return vec, schema


def max_deviation(state: StateVector, vec: np.ndarray) -> float:
    """Entrywise gap between a sparse state and a canonical dense vector."""
    return float(np.max(np.abs(state_to_vector(state) - vec)))
