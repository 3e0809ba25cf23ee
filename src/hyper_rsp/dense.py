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

The dense view is kept on the element's one
:class:`~hyper_rsp.elements.Lowering` per schema, the same one the sparse route
keeps its ket images on, and is built from those images on first request: the
read-only matrix, domain positions and out-of-domain mask, and the isometry
defect.  It lives as long as its element, and it cannot go stale: elements are
frozen and ``ket_image`` is a pure function of (element, layout).

numpy is imported on first use, inside each function that computes with it and
never at module level, so importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .elements import Element, Lowering
from .states import Schema, SchemaMismatchError, StateVector

if TYPE_CHECKING:
    import numpy as np

SUPPORT_TOL = 1e-12


def state_to_vector(state: StateVector) -> np.ndarray:
    """Amplitudes in canonical lexicographic order: label (a, b) sits at
    i_A(a) · dim B + i_B(b)."""
    import numpy as np

    a_index, b_index = state.schema.layout("A").index, state.schema.layout("B").index
    vec = np.zeros(state.schema.dimension(), dtype=complex)
    for (a, b), amp in state.items():
        vec[a_index[a] * len(b_index) + b_index[b]] = amp
    return vec


def vector_to_state(vec: np.ndarray, schema: Schema) -> StateVector:
    import numpy as np

    labels = schema.labels()
    return StateVector.build(schema, {labels[i]: vec[i] for i in np.flatnonzero(np.abs(vec))})


def element_to_dense(element: Element, schema: Schema) -> Lowering:
    """Lower one element to its matrix over its own photon's domain kets.

    The dense view is built once per element instance and schema, from the
    images kept on the element's :class:`~hyper_rsp.elements.Lowering`, and
    kept there: every later call returns the same lowering, read-only.
    """
    lowering = element.lowering(schema)
    if lowering.matrix is not None:
        return lowering
    import numpy as np

    layout = lowering.layout
    out_index = lowering.out_schema.layout(element.photon).index
    element.keep_images(lowering, layout.kets)
    memo = lowering.images
    columns = [(ket, memo[ket]) for ket in layout.kets if memo[ket] is not None]
    matrix = np.zeros((len(out_index), len(columns)), dtype=complex)
    for j, (_, images) in enumerate(columns):
        for image, coeff in images:
            matrix[out_index[image], j] += coeff
    positions = np.array([layout.index[ket] for ket, _ in columns], dtype=np.intp)
    outside = np.ones(len(layout.kets), dtype=bool)
    outside[positions] = False
    for array in (matrix, positions, outside):
        array.flags.writeable = False
    # max |M†M − I| is the isometry defect; the matrix goes last, as it marks the view built
    gram = matrix.conj().T @ matrix
    lowering.defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    lowering.in_kets = tuple(ket for ket, _ in columns)
    lowering.positions, lowering.outside, lowering.matrix = positions, outside, matrix
    return lowering


def unitarity_defect(element: Element, schema: Schema) -> float:
    """max |U†U - I| over the element's domain; 0 for an exact isometry."""
    return element_to_dense(element, schema).defect


def is_signed_permutation(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every column holds exactly one entry of magnitude one."""
    import numpy as np

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
    import numpy as np

    dense = element_to_dense(element, schema)
    grid = vec.reshape(len(schema.layout("A").kets), -1)
    if element.photon == "B":
        grid = grid.T
    stray = np.abs(grid[dense.outside])
    if stray.size and stray.max() > SUPPORT_TOL:
        raise ValueError("state has amplitude outside the element's legal domain")
    out = dense.matrix @ grid[dense.positions]
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
    """Entrywise gap between a sparse state and a canonical dense vector.

    Raises :class:`SchemaMismatchError` unless ``vec`` is one-dimensional with
    the schema's dimension, so a wrong-length vector is never broadcast.
    """
    import numpy as np

    expected = (state.schema.dimension(),)
    if np.shape(vec) != expected:
        raise SchemaMismatchError(f"vector of shape {np.shape(vec)}, expected {expected}")
    return float(np.max(np.abs(state_to_vector(state) - vec)))
