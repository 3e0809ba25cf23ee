"""Dense matrix route: the independent check against the sparse label rewrites.

Every element acts on one photon and is lowered on that photon alone: one pass
of ``ket_slots`` over the photon's canonical kets gives both the element's legal
domain (the kets whose image is not ``None``) and its matrix M, assembled
column-by-column from those images.  A canonical vector is read as a
(dim A, dim B) grid, and M acts on its rows (photon A) or columns (photon B).
This is exact by the element interface: ``ket_slots`` is handed only the
photon's own ket and layout, and the canonical order puts photon A's registers
first, so the full two-photon matrix is M ⊗ I (photon A) or I ⊗ M (photon B) on
the domain, and max|(M†M ⊗ I) − I| = max|M†M − I| gives the same isometry
defect.  Agreement with the sparse application, and unitarity of every matrix,
are the verification currency of the test suite.

Every element takes one route.  Its :class:`~hyper_rsp.elements.Pattern`, filled
over every ket of the photon's layout when the element is lowered (the sparse
route reads the same slots), keeps the dense domain (domain kets, their
read-only positions and out-of-domain rows) and the (row, col, weight slot)
cells, once per fixed optic or rotation shape and schema, built on first
request.  The element's one :class:`~hyper_rsp.elements.Lowering` per schema
keeps what its own ``weights`` decide: the read-only matrix, the pattern's
cells weighed by them, and its isometry defect.  Nothing goes stale: elements
are frozen and ``ket_slots`` is a pure function of (element, layout).

Most stages' domain is the photon's whole layout; their patterns keep no
out-of-domain rows, and :func:`apply_dense` multiplies the grid as it is.  On a
partial domain it reads the out-of-domain rows, takes their largest magnitude
only when one is non-zero, and multiplies the domain rows.

numpy is imported on first use, inside each function that computes with it and
never at module level, so importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .elements import CorrelationError, Element, Lowering, Pattern
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
    for (a, b), amp in state.amplitudes.items():
        vec[a_index[a] * len(b_index) + b_index[b]] = amp
    return vec


def _index(pattern: Pattern) -> None:
    """Keep ``pattern``'s slots as dense arrays on it: the domain kets
    ``in_kets``, their read-only ``positions`` and out-of-domain rows
    ``outside_rows`` (``None`` for a whole domain), then ``cells``, the matrix
    shape, (rows, cols) cells and weight slots, set last as they mark the index
    built."""
    import numpy as np

    layout, memo = pattern.layout, pattern.slots
    out_index = pattern.out_schema.layout(layout.photon).index
    in_kets = tuple(ket for ket in layout.kets if memo[ket] is not None)
    cells = [(out_index[image], col, slot)
             for col, ket in enumerate(in_kets) for image, slot in memo[ket]]
    rows, cols, slots = map(np.array, zip(*cells))
    positions = np.array([layout.index[ket] for ket in in_kets], dtype=np.intp)
    outside = [layout.index[ket] for ket in layout.kets if memo[ket] is None]
    outside_rows = np.array(outside, dtype=np.intp) if outside else None
    for array in (positions, outside_rows):
        if array is not None:
            array.flags.writeable = False
    pattern.in_kets, pattern.positions, pattern.outside_rows = in_kets, positions, outside_rows
    pattern.cells = (len(out_index), len(in_kets)), (rows, cols), slots


def element_to_dense(element: Element, schema: Schema) -> Lowering:
    """Lower one element to its matrix over its own photon's domain kets.

    The matrix is built once per element instance and schema and kept on the
    element's :class:`~hyper_rsp.elements.Lowering`, the domain once per
    pattern: every later call returns the same lowering, read-only.  An element
    with no domain kets on ``schema`` raises
    :class:`~hyper_rsp.elements.CorrelationError`.
    """
    lowering = element.lowering(schema)
    if lowering.matrix is not None:
        return lowering
    import numpy as np

    pattern = lowering.pattern
    if pattern.cells is None:
        if all(slots is None for slots in pattern.slots.values()):
            raise CorrelationError(f"{type(element).__name__}: the element's domain is empty")
        _index(pattern)
    shape, cells, slots = pattern.cells
    matrix = np.zeros(shape, dtype=complex)
    # onto complex zeros in image order, as entry-by-entry += would: 0j + −0.0 is 0.0
    np.add.at(matrix, cells, np.array(element.weights)[slots])
    matrix.flags.writeable = False
    # max |M†M − I| is the isometry defect, with I taken off the Gram's diagonal in
    # place; the matrix goes last, as it marks the view built
    gram = matrix.conj().T @ matrix
    gram.flat[:: shape[1] + 1] -= 1
    lowering.defect = float(np.max(np.abs(gram)))
    lowering.matrix = matrix
    return lowering


def unitarity_defect(element: Element, schema: Schema) -> float:
    """max |U†U - I| over the element's domain; 0 for an exact isometry."""
    return element_to_dense(element, schema).defect


def apply_dense(element: Element, vec: np.ndarray, schema: Schema) -> tuple[np.ndarray, Schema]:
    """Evolve a canonical amplitude vector through one element's matrix.

    The vector is read as a (dim A, dim B) grid, and the element's factor acts
    on the grid's rows (photon A) or columns (photon B).  The vector must be
    supported on the element's domain; amplitude outside it means a
    precondition was violated upstream.
    """
    import numpy as np

    dense = element_to_dense(element, schema)
    pattern = dense.pattern
    grid = vec.reshape(len(schema.layout("A").kets), -1)
    if element.photon == "B":
        grid = grid.T
    if pattern.outside_rows is None:  # a whole domain: the grid is the domain's rows
        out = dense.matrix @ grid
    else:
        stray = grid[pattern.outside_rows]
        if stray.any() and np.abs(stray).max() > SUPPORT_TOL:
            raise ValueError("state has amplitude outside the element's legal domain")
        out = dense.matrix @ grid[pattern.positions]
    if element.photon == "B":
        out = out.T
    return out.reshape(-1), pattern.out_schema


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
