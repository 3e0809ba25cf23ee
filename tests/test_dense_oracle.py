"""Sparse label rewrites against explicit dense matrices in canonical ordering."""

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import MEMO_TARGETS, ket_image, target_params
from hyper_rsp.dense import (
    SUPPORT_TOL,
    apply_dense,
    element_to_dense,
    evolve_dense,
    max_deviation,
    state_to_vector,
    unitarity_defect,
)
from hyper_rsp.elements import (
    BalancedSplitter,
    CorrelationError,
    DropUniformRegister,
    Element,
    FrequencyEraser,
    HalfWavePlate,
    LongArmDelay,
    PockelsCell,
    PolarizationRotation,
    PolarizingRouter,
    Rotation,
    UnbalancedSplitter,
    WavelengthRouter,
    all_pauli_strings,
)
from hyper_rsp.protocols import TB_PATHS, build_circuit, run_protocol
from hyper_rsp.states import (
    PARAM_TOL,
    ProtocolKind,
    Schema,
    SchemaMismatchError,
    StateVector,
    TargetParams,
    hyper_bell_schema,
    make_hyper_bell,
    path_register,
    pol_register,
    receiver_schema,
    time_register,
)

PF = ProtocolKind.PF
TB = ProtocolKind.TB

ROUTING_KINDS = (
    WavelengthRouter,
    FrequencyEraser,
    PolarizingRouter,
    PockelsCell,
    HalfWavePlate,
    DropUniformRegister,
)


def walk_circuit(kind, params):
    """Yield (element, input schema) along the evolving circuit."""
    state = make_hyper_bell(kind)
    for element in build_circuit(kind, params):
        yield element, state.schema
        state = element.apply(state)


@given(params=target_params())
@settings(max_examples=20)
def test_every_element_matrix_is_an_isometry(params):
    for kind in (PF, TB):
        for element, schema in walk_circuit(kind, params):
            assert unitarity_defect(element, schema) < 1e-12, element


def is_signed_permutation(matrix, tol=1e-12):
    """True when every column holds exactly one entry of magnitude one."""
    for column in matrix.T:
        magnitudes = np.abs(column)
        big = magnitudes > tol
        if big.sum() != 1 or abs(magnitudes[big][0] - 1.0) > tol:
            return False
    return True


@given(params=target_params())
@settings(max_examples=20)
def test_routing_elements_are_signed_permutations(params):
    for kind in (PF, TB):
        for element, schema in walk_circuit(kind, params):
            if isinstance(element, ROUTING_KINDS):
                dense = element_to_dense(element, schema)
                assert is_signed_permutation(dense.matrix), element


@given(params=target_params())
@settings(max_examples=20)
def test_sparse_equals_dense_stage_by_stage(params):
    for kind in (PF, TB):
        state = make_hyper_bell(kind)
        vec = state_to_vector(state)
        schema = state.schema
        for element in build_circuit(kind, params):
            state = element.apply(state)
            vec, schema = apply_dense(element, vec, schema)
            assert state.schema == schema
            assert max_deviation(state, vec) < 1e-10


def vector_to_state(vec, schema):
    labels = schema.canonical_labels
    return StateVector.build(schema, {labels[i]: vec[i] for i in np.flatnonzero(np.abs(vec))})


@given(params=target_params())
@settings(max_examples=10)
def test_whole_circuit_dense_route(params):
    for kind in (PF, TB):
        initial = make_hyper_bell(kind)
        sparse = initial
        for element in build_circuit(kind, params):
            sparse = element.apply(sparse)
        vec, schema = evolve_dense(build_circuit(kind, params), initial)
        assert max_deviation(sparse, vec) < 1e-10
        roundtrip = vector_to_state(vec, schema)
        assert roundtrip.schema == sparse.schema


@pytest.mark.parametrize(
    "vec", [np.array([0.25 + 0j]), np.zeros((16, 1), dtype=complex)], ids=["length-1", "2-d"]
)
def test_max_deviation_rejects_a_vector_of_another_shape(vec):
    with pytest.raises(SchemaMismatchError, match="shape"):
        max_deviation(make_hyper_bell(PF), vec)


def test_dense_vector_canonical_layout():
    state = make_hyper_bell(PF)
    vec = state_to_vector(state)
    labels = state.schema.canonical_labels
    assert vec[labels.index((("H", "w1"), ("H", "w1")))] == 0.5
    assert np.count_nonzero(vec) == 4
    assert vec.shape == (state.schema.dimension(),)


def test_dense_apply_rejects_off_domain_support():
    params = TargetParams(0.6, 0.8, 0.28, 0.96)
    state = make_hyper_bell(PF)
    circuit = build_circuit(PF, params)
    routed = circuit[1].apply(circuit[0].apply(state))
    # Swap the frequency eraser's correlation so the state sits off-domain.
    bad = FrequencyEraser("A", {"a1": "w2", "a2": "w1"})
    vec = state_to_vector(routed)
    try:
        apply_dense(bad, vec, routed.schema)
    except ValueError:
        return
    raise AssertionError("off-domain support must be rejected")


def own_ket(element, label):
    """The element's photon's half of a two-photon label."""
    return label[0] if element.photon == "A" else label[1]


def assert_routes_agree_ket_by_ket(element, schema):
    """Every basis ket alone: both routes accept it exactly on the domain, and agree."""
    layout = schema.layout(element.photon)
    own_domain = {ket for ket in layout.kets if ket_image(element, ket, layout) is not None}
    basis = np.eye(schema.dimension())
    for i, label in enumerate(schema.canonical_labels):
        try:
            sparse = element.apply(StateVector.build(schema, {label: 1.0}))
        except CorrelationError:
            sparse = None
        try:
            vec, out_schema = apply_dense(element, basis[i], schema)
        except ValueError:
            vec = None
        in_domain = own_ket(element, label) in own_domain
        assert (sparse is not None) == (vec is not None) == in_domain, (element, label)
        if sparse is not None:
            assert out_schema == sparse.schema
            assert max_deviation(sparse, vec) < 1e-10, (element, label)


@given(params=target_params())
@settings(max_examples=2)
def test_routes_accept_and_reject_the_same_kets(params):
    for kind in (PF, TB):
        for element, schema in walk_circuit(kind, params):
            assert_routes_agree_ket_by_ket(element, schema)


def _path_schema(*registers):
    return Schema((pol_register(), *registers, path_register(TB_PATHS)), (pol_register(),))


@pytest.mark.parametrize(
    "element, schema, ket",
    [
        # an unused input port of the interferometer entry: (H, a1) is sent to k1
        (PolarizingRouter("A", {("H", "a1"): "k1", ("V", "a1"): "k2"}),
         _path_schema(), ("H", "k1")),
        # a fresh output port of the final 50:50 splitter
        (BalancedSplitter("A", ("k1", "k4"), ("kp1", "kp4")),
         _path_schema(), ("H", "kp1")),
        # the long arm of a ket already in the last time bin
        (LongArmDelay("A", "k2", "V"),
         _path_schema(time_register((0, 1))), ("V", 1, "k2")),
    ],
    ids=["router-unused-port", "splitter-unused-port", "delay-last-bin"],
)
def test_both_routes_reject_an_off_domain_ket(element, schema, ket):
    state = StateVector.build(schema, {(ket, ("H",)): 1.0})
    message = f"{type(element).__name__}: ket .* outside the element's legal domain"
    with pytest.raises(CorrelationError, match=message):
        element.apply(state)
    with pytest.raises(ValueError, match="outside the element's legal domain"):
        apply_dense(element, state_to_vector(state), schema)
    assert_routes_agree_ket_by_ket(element, schema)


def full_space_lowering(element, schema):
    """Reference: the element's matrix over the whole two-photon (domain) basis,
    assembled label by label from the per-ket rule; the domain is every label
    whose own ket has an image."""
    layout = schema.layout(element.photon)
    element.validate(layout)
    on_a = element.photon == "A"
    in_labels = [
        label
        for label in schema.canonical_labels
        if ket_image(element, own_ket(element, label), layout) is not None
    ]
    out_labels = element.output_schema(schema).canonical_labels
    out_index = {label: i for i, label in enumerate(out_labels)}
    matrix = np.zeros((len(out_labels), len(in_labels)), dtype=complex)
    for j, label in enumerate(in_labels):
        ket, rest = label if on_a else label[::-1]
        for image, coeff in ket_image(element, ket, layout):
            matrix[out_index[(image, rest) if on_a else (rest, image)], j] += coeff
    return matrix, in_labels


def assert_factor_is_exact(element, schema):
    """The one-photon factor, embedded as M ⊗ I or I ⊗ M, is the full lowering."""
    reference, reference_domain = full_space_lowering(element, schema)
    dense = element_to_dense(element, schema)
    if element.photon == "A":
        others = schema.layout("B").kets
        embedded = np.kron(dense.matrix, np.eye(len(others)))
        domain = [(a, b) for a in dense.pattern.in_kets for b in others]
    else:
        others = schema.layout("A").kets
        embedded = np.kron(np.eye(len(others)), dense.matrix)
        domain = [(a, b) for a in others for b in dense.pattern.in_kets]
    assert domain == reference_domain, element
    assert np.array_equal(embedded, reference), element
    assert dense.pattern.out_schema == element.output_schema(schema)
    gram = reference.conj().T @ reference
    reference_defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    assert abs(unitarity_defect(element, schema) - reference_defect) <= 1e-14, element


@given(params=target_params())
@settings(max_examples=5)
def test_one_photon_factor_equals_full_space_lowering(params):
    for kind in (PF, TB):
        for element, schema in walk_circuit(kind, params):
            assert_factor_is_exact(element, schema)


def test_pockels_cell_is_a_half_wave_plate_switched_on_in_one_bin():
    params = TargetParams(0.6, 0.8, 0.28, 0.96)
    schema = next(s for e, s in walk_circuit(TB, params) if isinstance(e, PockelsCell))
    layout = schema.layout("A")
    i_time = layout.positions["time"]
    identity = np.eye(len(layout.kets))
    for paths in (("a1",), ("a2",), ("a1", "a2")):
        plate = element_to_dense(HalfWavePlate("A", paths), schema)
        for t in layout.register("time").values:
            cell = element_to_dense(PockelsCell("A", paths, t), schema)
            assert cell.pattern.in_kets == plate.pattern.in_kets == tuple(layout.kets)
            for j, ket in enumerate(layout.kets):
                expected = plate.matrix[:, j] if ket[i_time] == t else identity[:, j]
                assert np.array_equal(cell.matrix[:, j], expected), (paths, t, ket)


@pytest.mark.parametrize(
    "schema",
    [receiver_schema(PF), receiver_schema(TB), hyper_bell_schema(PF), hyper_bell_schema(TB)],
    ids=["receiver-pf", "receiver-tb", "channel-pf", "channel-tb"],
)
def test_receiver_corrections_factor_exactly(schema):
    names = tuple(reg.name for reg in schema.photon_b)
    for op in all_pauli_strings(names):
        assert_factor_is_exact(op, schema)


@dataclass(frozen=True)
class PolarizeToH(Element):
    """Seeded defect: sends both polarizations to |H>, which is no isometry."""

    def ket_slots(self, ket, layout):
        i_pol = layout.positions["pol"]
        return [(ket[:i_pol] + ("H",) + ket[i_pol + 1 :], 0)]


@dataclass(frozen=True)
class KeepV(Element):
    """A partial map: the identity on |V⟩ kets, undefined on |H⟩ kets."""

    def ket_slots(self, ket, layout):
        if ket[layout.positions["pol"]] == "H":
            return None
        return [(ket, 0)]


@pytest.mark.parametrize("photon", ["A", "B"])
@pytest.mark.parametrize("kind", [PF, TB])
def test_both_routes_reject_exactly_where_the_ket_map_is_undefined(kind, photon):
    element, schema = KeepV(photon), hyper_bell_schema(kind)
    layout = schema.layout(photon)
    defined = tuple(ket for ket in layout.kets if ket[layout.positions["pol"]] == "V")
    assert element_to_dense(element, schema).pattern.in_kets == defined
    basis = np.eye(schema.dimension())
    for i, label in enumerate(schema.canonical_labels):
        state = StateVector.build(schema, {label: 1.0})
        if own_ket(element, label) in defined:
            assert element.apply(state) == state
            vec, _ = apply_dense(element, basis[i], schema)
            assert max_deviation(state, vec) == 0.0
            continue
        message = (
            f"KeepV: ket {re.escape(schema.format_label(label))} lies outside the "
            "element's legal domain"
        )
        with pytest.raises(CorrelationError, match=f"^{message}$"):
            element.apply(state)
        with pytest.raises(ValueError, match="outside the element's legal domain"):
            apply_dense(element, basis[i], schema)


@pytest.mark.parametrize("photon", ["A", "B"])
@pytest.mark.parametrize("kind", [PF, TB])
def test_factor_defect_of_a_non_isometry_is_the_full_space_defect(kind, photon):
    element, schema = PolarizeToH(photon), hyper_bell_schema(kind)
    assert_factor_is_exact(element, schema)
    assert unitarity_defect(element, schema) == 1.0


@pytest.mark.parametrize("kind", [PF, TB])
def test_dense_photon_b_correction_matches_sparse(kind):
    state = make_hyper_bell(kind)
    names = tuple(reg.name for reg in state.schema.photon_b)
    for op in all_pauli_strings(names):
        vec, schema = apply_dense(op, state_to_vector(state), state.schema)
        sparse = op.apply(state)
        assert schema == sparse.schema
        assert max_deviation(sparse, vec) < 1e-10, op


def test_dense_photon_b_domain_rejects_off_domain_support():
    state = make_hyper_bell(TB)  # photon B holds both time bins
    drop = DropUniformRegister("B", "time", 0)
    with pytest.raises(ValueError, match="outside the element's legal domain"):
        apply_dense(drop, state_to_vector(state), state.schema)
    # Restricted to the early bin, the same drop applies on both routes.
    early = StateVector.build(  # the early half holds norm² 1/2
        state.schema,
        {label: amp * math.sqrt(2.0)
         for label, amp in state.amplitudes.items() if label[1][-1] == 0},
    )
    vec, schema = apply_dense(drop, state_to_vector(early), early.schema)
    sparse = drop.apply(early)
    assert schema == sparse.schema
    assert max_deviation(sparse, vec) < 1e-10


@dataclass(frozen=True)
class Spy(Element):
    """The identity, recording every ket and layout its rule is handed."""

    imaged: list = field(default_factory=list, compare=False)

    def ket_slots(self, ket, layout):
        self.imaged.append((ket, layout))
        return [(ket, 0)]


@pytest.mark.parametrize("photon", ["A", "B"])
@pytest.mark.parametrize("kind", [PF, TB])
def test_rules_are_handed_only_their_own_photon(kind, photon):
    """Each route hands a rule every ket of its own photon's layout once, in
    canonical order, with that layout, and never a ket of the other photon."""
    state = make_hyper_bell(kind)
    layout = state.schema.layout(photon)
    sparse_spy, dense_spy = Spy(photon), Spy(photon)
    sparse = sparse_spy.apply(state)
    vec, schema = apply_dense(dense_spy, state_to_vector(state), state.schema)
    for spy in (sparse_spy, dense_spy):
        assert [ket for ket, _ in spy.imaged] == list(layout.kets)
        assert all(given is layout for _, given in spy.imaged)
    # the kept pattern serves the other route: no ket is handed over again
    sparse_spy.imaged.clear()
    again, _ = apply_dense(sparse_spy, state_to_vector(state), state.schema)
    assert sparse_spy.imaged == []
    assert np.array_equal(again, vec)
    assert schema == sparse.schema
    assert max_deviation(sparse, vec) < 1e-10
    assert max_deviation(state, vec) < 1e-10


# ---------------------------------------------------------------------------
# one lowering per element instance and schema


def test_each_lowering_is_built_once_and_read_only():
    plate = HalfWavePlate("A", ("k1",))
    schema = _path_schema()
    timed = _path_schema(time_register((0, 1)))
    dense = element_to_dense(plate, schema)
    assert element_to_dense(plate, schema) is dense
    other = element_to_dense(plate, timed)
    assert other is not dense and other.matrix.shape != dense.matrix.shape
    assert element_to_dense(plate, timed) is other
    assert isinstance(dense.pattern.in_kets, tuple)
    with pytest.raises(ValueError, match="read-only"):
        dense.matrix[0, 0] = 1.0


ROTATIONS = (PolarizationRotation, UnbalancedSplitter)


def crosscheck(kind, params):
    """Dense route against the sparse one, and the isometry defect of every element."""
    start = make_hyper_bell(kind)
    circuit = build_circuit(kind, params)
    vec, schema = evolve_dense(circuit, start)
    sparse = start
    defects = []
    for element in circuit:
        defects.append(unitarity_defect(element, sparse.schema))
        sparse = element.apply(sparse)
    assert schema == sparse.schema
    return max_deviation(sparse, vec), defects


_EDGE = math.sqrt(1.0 + 0.99 * PARAM_TOL)
#: A generic target first, then degenerate ones.
TARGETS_IN_TURN = (
    TargetParams.from_angles(0.3, 1.1, 2.0),
    TargetParams(0.0, 1.0, -1.0, 0.0, 0.0, -1.0),  # every pair on an axis
    TargetParams(1.0, 0.0, 0.6, 0.8, 0.28, 0.96),  # β = 0
    TargetParams(_EDGE * math.cos(0.7), _EDGE * math.sin(0.7), 0.6, -0.8, -0.28, 0.96),
)


def test_no_lowering_goes_stale_across_targets():
    """A generic target first, then degenerate ones: every op of the crosscheck
    must read its own rotations, not a lowering left by an earlier target."""
    for kind, fixed in ((PF, 2), (TB, 15)):
        first = build_circuit(kind, TARGETS_IN_TURN[0])
        for params in TARGETS_IN_TURN:
            deviation, defects = crosscheck(kind, params)
            assert deviation <= 1e-10, (kind, params)
            assert max(defects) < 1e-12, (kind, params)
            circuit = build_circuit(kind, params)
            shared = [a is b for a, b in zip(first, circuit)]
            assert shared == [not isinstance(e, ROTATIONS) for e in circuit]
            assert sum(shared) == fixed


def test_label_tables_hold_only_their_schemas_labels():
    """After both circuits at every target, each pattern's one label table holds
    labels of its input schema only, at most one entry per label, each kept in
    its pattern's form: one (image, weight) pair on a signed permutation, (image,
    weight slot) pairs on any other map, every image a label of the output schema."""
    for kind in (PF, TB):
        for params in TARGETS_IN_TURN:
            crosscheck(kind, params)
            for element in build_circuit(kind, params):
                for schema, lowering in element._lowerings.items():
                    pattern = lowering.pattern
                    table, images = pattern.labels, set(pattern.out_schema.canonical_labels)
                    assert set(table) <= set(schema.canonical_labels), element
                    assert len(table) <= schema.dimension(), element
                    for kept in table.values():
                        if pattern.relabels:
                            image, weight = kept
                            assert weight in element.weights, element
                            kept = [(image, element.weights.index(weight))]
                        for image, slot in kept:
                            assert image in images and type(slot) is int, element


@pytest.mark.parametrize("relabels", [True, False], ids=["lowering", "pattern"])
def test_an_out_of_domain_label_is_never_kept(relabels):
    """A label outside the domain raises on every call and enters no table; the
    support labels met before it keep their entries."""
    registry = ("a1", "a2", "a3", "a4")
    state = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, registry).apply(make_hyper_bell(PF))
    if relabels:  # frequency anti-correlated with path: (H, w1, a1) is illegal
        element = FrequencyEraser("A", {p: "w2" if p == "a1" else "w1" for p in registry})
    else:  # a2 is a fresh output port: (H, w2, a2) is illegal
        element = BalancedSplitter("A", ("a1", "a3"), ("a2", "a4"))
    pattern = element.lowering(state.schema).pattern
    assert pattern.relabels == relabels
    table = pattern.labels
    first, second = list(state.amplitudes)[:2]
    bad = first if relabels else second
    for _ in range(2):
        with pytest.raises(CorrelationError, match="outside the element's legal domain"):
            element.apply(state)
        assert bad not in table
        assert list(table) == ([] if relabels else [first])


#: SHA-256 of every stage's dense matrix, domain kets, positions and out-of-domain mask
DENSE_EXACT_DIGEST = Path(__file__).parent / "golden" / "dense_exact.sha256"


def test_every_dense_lowering_is_bit_exact():
    """Each stage's matrix bytes and domain arrays, for both protocols at
    MEMO_TARGETS and at a target whose β are all −0.0, hashed: a fill that
    writes −0.0 where accumulation onto 0j writes 0.0 moves the digest.  The
    out-of-domain mask is derived from the positions and the layout size.  The
    defect and evolved vectors come from BLAS, whose bits depend on its
    kernel, so they are left out."""
    digest = hashlib.sha256()
    for kind in (PF, TB):
        for params in MEMO_TARGETS + (TargetParams(1.0, -0.0, 1.0, -0.0, 1.0, -0.0),):
            for element, schema in walk_circuit(kind, params):
                dense = element_to_dense(element, schema)
                pattern = dense.pattern
                outside = np.ones(len(schema.layout(element.photon).kets), dtype=bool)
                outside[pattern.positions] = False
                digest.update(dense.matrix.tobytes())
                digest.update(repr(pattern.in_kets).encode())
                digest.update(pattern.positions.tobytes())
                digest.update(outside.tobytes())
    assert digest.hexdigest() == DENSE_EXACT_DIGEST.read_text().strip()


@pytest.mark.parametrize("kind", [PF, TB])
def test_kept_defect_positions_and_outside_rows(kind):
    """Every element's kept isometry defect is the Gram computation on its kept
    matrix, and its pattern's domain positions and out-of-domain rows are
    read-only and split the layout's rows between them."""
    whole = []
    for element, schema in walk_circuit(kind, TargetParams.from_angles(0.3, 1.1, 2.0)):
        dense = element_to_dense(element, schema)
        gram = dense.matrix.conj().T @ dense.matrix
        assert dense.defect == float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        assert unitarity_defect(element, schema) == dense.defect
        pattern, index = dense.pattern, schema.layout(element.photon).index
        assert pattern.positions.tolist() == [index[ket] for ket in pattern.in_kets]
        assert pattern.positions.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            pattern.positions[0] = pattern.positions[-1]
        # the out-of-domain rows apply_dense reads: none on a whole domain
        outside = [i for ket, i in index.items() if ket not in pattern.in_kets]
        if outside:
            assert pattern.outside_rows.tolist() == outside
            assert pattern.outside_rows.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                pattern.outside_rows[0] = 0
        else:
            assert pattern.outside_rows is None
        whole.append(pattern.outside_rows is None)
    # the stages that apply_dense multiplies without a gather
    assert (sum(whole), len(whole)) == {PF: (3, 4), TB: (11, 18)}[kind]


@pytest.mark.parametrize("photon", ["A", "B"])
def test_a_partial_domain_drops_stray_amplitude_up_to_the_support_tolerance(photon):
    """On a partial domain, amplitude at an out-of-domain row of at most
    ``SUPPORT_TOL`` is left out of the product; twice that raises."""
    router = WavelengthRouter(photon, {"w1": "p1", "w2": "p2"}, ("p1", "p2"))
    routed = router.apply(make_hyper_bell(PF))
    eraser = FrequencyEraser(photon, {"p1": "w1", "p2": "w2"})
    outside_rows = element_to_dense(eraser, routed.schema).pattern.outside_rows
    assert outside_rows is not None
    clean = state_to_vector(routed)
    expected, _ = apply_dense(eraser, clean, routed.schema)
    grid_shape = (len(routed.schema.layout("A").kets), len(routed.schema.layout("B").kets))
    row = outside_rows[-1]
    cell = np.ravel_multi_index((row, 0) if photon == "A" else (0, row), grid_shape)
    for stray, accepted in ((0.5 * SUPPORT_TOL, True), (2 * SUPPORT_TOL, False)):
        vec = clean.copy()
        vec[cell] = stray
        if accepted:
            out, _ = apply_dense(eraser, vec, routed.schema)
            assert np.array_equal(out, expected)
        else:
            with pytest.raises(ValueError, match="outside the element's legal domain"):
                apply_dense(eraser, vec, routed.schema)


def test_kept_outside_rows_still_reject_stray_amplitude():
    routed = WavelengthRouter("A", {"w1": "a1", "w2": "a2"}, ("a1", "a2")).apply(
        make_hyper_bell(PF)
    )
    bad = FrequencyEraser("A", {"a1": "w2", "a2": "w1"})
    assert element_to_dense(bad, routed.schema).pattern.outside_rows is not None
    for _ in range(2):  # the rows are read from the kept pattern both times
        with pytest.raises(ValueError, match="outside the element's legal domain"):
            apply_dense(bad, state_to_vector(routed), routed.schema)


@dataclass(frozen=True)
class Nowhere(Element):
    """A map defined on no ket at all."""

    def ket_slots(self, ket, layout):
        return None


@pytest.mark.parametrize("photon", ["A", "B"])
def test_an_element_with_an_empty_domain_has_no_matrix(photon):
    element, state = Nowhere(photon), make_hyper_bell(PF)
    for _ in range(2):  # nothing half-built is kept
        with pytest.raises(CorrelationError, match="^Nowhere: the element's domain is empty$"):
            element_to_dense(element, state.schema)
        with pytest.raises(CorrelationError, match="^Nowhere: ket .* outside"):
            element.apply(state)
    assert element.lowering(state.schema).matrix is None


def _element_classes(cls=Element):
    for sub in cls.__subclasses__():
        yield sub
        yield from _element_classes(sub)


def test_warmed_runs_slot_no_ket(monkeypatch):
    """After one sparse and one dense run of each protocol, a new target's
    ``run_protocol`` and ``evolve_dense`` call no element's ``ket_slots``: the
    fixed optics, the corrections' PauliOps and every rotation shape reuse their
    kept patterns, each filled over every ket of its layout when first lowered."""
    warm, fresh = TargetParams.from_angles(0.3, 1.1, 2.0), TargetParams.from_angles(0.9, 0.4, 1.7)
    for kind in (PF, TB):
        run_protocol(kind, warm)
        evolve_dense(build_circuit(kind, warm), make_hyper_bell(kind))
    calls = Counter()
    for cls in {sub for sub in _element_classes() if "ket_slots" in vars(sub)}:

        def counted(self, ket, layout, rule=vars(cls)["ket_slots"]):
            calls[type(self).__name__] += 1
            return rule(self, ket, layout)

        monkeypatch.setattr(cls, "ket_slots", counted)
    for kind in (PF, TB):
        run_protocol(kind, fresh)
        evolve_dense(build_circuit(kind, fresh), make_hyper_bell(kind))
    assert calls == Counter()
    # the count does see calls: a copy of each fixed optic keeps its own pattern
    for kind in (PF, TB):
        circuit = build_circuit(kind, fresh)
        evolve_dense([replace(element) for element in circuit], make_hyper_bell(kind))
        fixed = {type(e).__name__ for e in circuit if not isinstance(e, Rotation)}
        assert set(calls) == fixed, kind
        calls.clear()
