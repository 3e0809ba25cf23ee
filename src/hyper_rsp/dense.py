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

Each element instance is lowered once per schema, and the lowering is kept in
the element's instance ``__dict__`` (as :func:`functools.cached_property` does):
the read-only matrix, domain positions and out-of-domain mask, and the isometry
defect, computed on first use.  It lives as long as its element, and it cannot
go stale: elements are frozen and ``ket_image`` is a pure function of
(element, layout).

numpy is imported on first use, inside each function that computes with it and
never at module level, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .elements import Element
from .states import Schema, SchemaMismatchError, StateVector

if TYPE_CHECKING:
    import numpy as np

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class DenseElement:
    """An element lowered to an explicit, read-only matrix on its own photon.

    ``in_kets`` are the photon's domain kets (value tuples), ordered
    canonically; ``out_schema`` is the full two-photon schema after the element.
    """

    matrix: np.ndarray
    in_kets: tuple[tuple, ...]
    out_schema: Schema
    #: read-only: the domain kets' canonical positions, and the mask of the rest
    positions: np.ndarray
    outside: np.ndarray

    @cached_property
    def defect(self) -> float:
        """max |M†M − I| over the domain: the isometry defect, computed once."""
        import numpy as np

        gram = self.matrix.conj().T @ self.matrix
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


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


def element_to_dense(element: Element, schema: Schema) -> DenseElement:
    """Lower one element to its matrix over its own photon's domain kets.

    One lowering per element instance and schema: the first call builds it and
    keeps it on the element, every later call returns the same read-only
    object.  Elements are frozen and ``ket_image`` is a pure function of
    (element, layout), so the kept lowering cannot go stale.
    """
    lowerings = element.__dict__.setdefault("_dense_lowerings", {})
    lowering = lowerings.get(schema)
    if lowering is not None:
        return lowering
    import numpy as np

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
    in_kets = tuple(ket for ket, _ in columns)
    positions = np.array([layout.index[ket] for ket in in_kets], dtype=np.intp)
    outside = np.ones(len(layout.kets), dtype=bool)
    outside[positions] = False
    for array in (matrix, positions, outside):
        array.flags.writeable = False
    lowering = DenseElement(matrix, in_kets, out_schema, positions, outside)
    lowerings[schema] = lowering
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
