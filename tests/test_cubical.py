"""Cube subcomplexes: closure, symmetries, links, serialization."""

import ast
import inspect
import json
import pickle
import struct
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import composite, integers, lists, permutations, randoms, sampled_from, tuples

from cuspforge import cubical
from cuspforge.chains import chain_complex_of
from cuspforge.cubical import CubicalComplex
from cuspforge.errors import BudgetError, CuspforgeError, ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices
from cuspforge.gf2 import vector_from_indices
from cuspforge.isomorphism import find_isomorphism
from cuspforge.lattice import polygon_lattice
from cuspforge.moment_angle import (
    Colouring,
    colour_manifold,
    manifold_check,
    real_moment_angle,
)
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cycle_complex,
    octahedron_boundary,
    two_points,
)

from dense_oracles import (
    CubicalCellsOracle,
    cell_set,
    chain_data_from_entries,
    cubical_entry_oracle,
    entry_rows,
    face_table_per_run_oracle,
    from_rzk1_per_cell_oracle,
    links_by_corner_scan_oracle,
    submasks,
    verify_dd_zero_oracle,
)


def _link_by_scan(Z, vertex):
    """Reference vertex link: one scan over every cell per vertex."""
    support, signs = vertex
    found = []
    for d in range(1, Z.dim + 1):
        for sup, sg in Z.cells_of_dim(d):
            if signs & ~vector_from_indices(sup) == sg:
                found.append(sup)
    if not found:
        raise ValidationError("vertex is isolated; its link is empty")
    maximal = [s for s in found if not any(set(s) < set(t) for t in found)]
    return build_simplicial(sorted(maximal), Z.ambient)


# ---------------------------------------------------------------------------
# per-cell oracles: the earlier implementations, kept verbatim
# ---------------------------------------------------------------------------


def _check_closure_oracle(Z):
    cells = cell_set(Z)
    for d in range(1, Z.dim + 1):
        for support, signs in Z.cells_of_dim(d):
            for i in support:
                rest = tuple(x for x in support if x != i)
                if (rest, signs) not in cells:
                    raise ValidationError(f"missing -1 face of {(support, signs)} at {i}")
                if (rest, signs | (1 << i)) not in cells:
                    raise ValidationError(f"missing +1 face of {(support, signs)} at {i}")


def _refusal(check, *args):
    """The ValidationError message of a check, or None if it passes."""
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def _verdict_by_scan(Z, vertex, K):
    try:
        return find_isomorphism(_link_by_scan(Z, vertex), K) is not None
    except ValidationError:
        return False


def _t2_vertex_star():
    """Closed star of one vertex of the distinct-coloured torus, read from
    JSON: four squares whose vertex links are a 4-cycle, paths and edges."""
    T2 = colour_manifold(polygon_lattice(4), Colouring.distinct(4))
    signs = T2.vertices()[0][1]
    incident = [(sup, sg) for d in range(1, T2.dim + 1) for sup, sg in T2.cells_of_dim(d)
                if signs & ~vector_from_indices(sup) == sg]
    star = [[list(tau), t] for d in range(T2.dim + 1) for tau, t in T2.cells_of_dim(d)
            if any(set(tau) <= set(sup) and t & ~vector_from_indices(sup) == sg
                   for sup, sg in incident)]
    return CubicalComplex.from_json(json.dumps({"type": "cubical", "ambient": 4, "cells": star}))


LINK_CASES = {
    "disc": (real_moment_angle(build_simplicial([(0, 1)])), build_simplicial([(0, 1)])),
    "3-torus": (real_moment_angle(octahedron_boundary()), octahedron_boundary()),
    "torus vertex star": (_t2_vertex_star(), cycle_complex(4)),
}


def _filled_p4():
    P = ideal_dual(gosset(4))
    filled = dehn_fill(P, next(enumerate_filling_choices(P)))
    return colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))


def _sharing(links):
    """Each vertex's link, named by the first vertex holding the same object."""
    first = {}
    return [first.setdefault(id(link), v) for v, link in links.items()]


def _assert_per_run_oracles_agree(Z):
    """The per-dimension face tables and the links read off them equal the
    per-run search and the corner scan: dtype, shape, entries, the links in
    vertex order and which vertices share one frozenset."""
    for k in range(1, Z.dim + 1):
        table, oracle = Z.face_table(k), face_table_per_run_oracle(Z, k)
        assert (table.dtype, table.shape) == (oracle.dtype, oracle.shape)
        assert np.array_equal(table, oracle)
    links, oracle = Z.vertex_links(), links_by_corner_scan_oracle(Z)
    assert list(links.items()) == list(oracle.items())
    assert _sharing(links) == _sharing(oracle)


def _assert_refusals_agree(Z):
    """On a complex built without the closure check, each face table refuses
    as the per-run search does, and the links with the first refusal in
    dimension order; with none, the links equal the corner scan's."""
    refusals = [_refusal(face_table_per_run_oracle, Z, k) for k in range(1, Z.dim + 1)]
    assert [_refusal(Z.face_table, k) for k in range(1, Z.dim + 1)] == refusals
    first = next((r for r in refusals if r), None)
    assert _refusal(Z.vertex_links) == first
    if first is None:
        _assert_per_run_oracles_agree(Z)


def test_closure_validation():
    square = [((0, 1), 0), ((0,), 0), ((0,), 2), ((1,), 0), ((1,), 1),
              ((), 0), ((), 1), ((), 2), ((), 3)]
    CubicalComplex(2, square)
    with pytest.raises(ValidationError):
        CubicalComplex(2, square[:-1])  # missing a corner


def test_sign_bits_must_avoid_support():
    with pytest.raises(ValidationError):
        CubicalComplex(1, [((0,), 1)])


def test_vertex_count_equals_empty_support_cells():
    Z = real_moment_angle(boundary_of_simplex(2))
    assert len(Z.vertices()) == 8
    assert Z.cell_counts() == (8, 12, 6)  # the surface of the 3-cube
    assert Z.num_cells() == 26
    assert Z.euler_characteristic() == 2


def test_cell_count_formula():
    for K in (two_points(), boundary_of_simplex(2), octahedron_boundary()):
        Z = real_moment_angle(K)
        m = K.vertex_count
        expected = 1 << m
        for k in range(K.dim + 1):
            expected += len(K.faces_of_dim(k)) * (1 << (m - k - 1))
        assert Z.num_cells() == expected


def test_euler_characteristic_formula():
    # chi = sum over faces (and the empty face) of (-1)^|sigma| 2^(m-|sigma|)
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    m = K.vertex_count
    chi = 1 << m
    for k in range(K.dim + 1):
        chi += ((-1) ** (k + 1)) * len(K.faces_of_dim(k)) * (1 << (m - k - 1))
    assert Z.euler_characteristic() == chi == 0


def _flip(cell, axis):
    """Image of one cell under the reflection of coordinate ``axis``."""
    sup, signs = cell
    return sup, signs if axis in sup else signs ^ (1 << axis)


def _sign_flip(Z, axis):
    """Image under the reflection of coordinate ``axis``."""
    return CubicalComplex(Z.ambient, [_flip(cell, axis) for d in range(Z.dim + 1) for cell in Z.cells_of_dim(d)])


def test_sign_flips_are_automorphisms_and_transitive():
    Z = real_moment_angle(octahedron_boundary())
    for axis in range(6):
        assert _sign_flip(Z, axis) == Z
    # flips act transitively on vertices: the flips of the axes where a
    # vertex's signs differ from start's carry start to it
    start = ((), 0)
    vertices = list(Z.cells_of_dim(0))
    assert len(vertices) == 64 and start in vertices
    for target in vertices:
        v = start
        for axis in range(6):
            if (target[1] ^ start[1]) >> axis & 1:
                v = _flip(v, axis)
        assert v == target


def test_link_of_vertex_is_base_complex():
    K = boundary_of_simplex(2)
    Z = real_moment_angle(K)
    for v in Z.vertices():
        assert find_isomorphism(Z.link_of_vertex(v), K) is not None


@pytest.mark.parametrize("name", sorted(LINK_CASES))
def test_vertex_links_match_the_per_vertex_scan(name):
    Z, K = LINK_CASES[name]
    for v in Z.vertices():
        assert Z.link_of_vertex(v) == _link_by_scan(Z, v)
    expected = tuple((v, _verdict_by_scan(Z, v, K)) for v in Z.vertices())
    assert manifold_check(Z, K).vertex_results == expected


def test_vertex_star_has_differing_links():
    Z, K = LINK_CASES["torus vertex star"]
    assert Z.cell_counts() == (9, 12, 4)
    verdicts = [ok for _, ok in manifold_check(Z, K).vertex_results]
    assert verdicts.count(True) == 1
    assert len({Z.link_of_vertex(v).f_vector() for v in Z.vertices()}) == 3


@pytest.mark.parametrize("name", sorted(LINK_CASES) + ["filled P^4"])
def test_face_tables_and_links_match_the_per_run_oracles(name):
    Z = _filled_p4() if name == "filled P^4" else LINK_CASES[name][0]
    _assert_per_run_oracles_agree(Z)
    cells = [c for d in range(Z.dim + 1) for c in Z.cells_of_dim(d)]
    for d in range(Z.dim):  # one cell of each dimension below the top taken out
        gone = Z.cells_of_dim(d)[len(Z.cells_of_dim(d)) // 2]
        _assert_refusals_agree(CubicalComplex(Z.ambient, [c for c in cells if c != gone], validate=False))


def test_budget_enforced():
    with pytest.raises(BudgetError):
        real_moment_angle(octahedron_boundary(), budget=100)


def _cells_by_pattern(m, supports):
    """Every cell of [-1,1]^m on the supports, one sign pattern at a time."""
    full = (1 << m) - 1
    return [(sup, signs) for sup in supports for signs in submasks(full & ~vector_from_indices(sup))]


BUILT_AS_RUNS = {
    "3-torus": lambda: (real_moment_angle(octahedron_boundary()), [()] + octahedron_boundary().all_faces()),
    "RZ over the 5-cycle": lambda: (real_moment_angle(cycle_complex(5)), [()] + cycle_complex(5).all_faces()),
    "RZ over two points": lambda: (real_moment_angle(two_points()), [()] + two_points().all_faces()),
    "RZ over the 3-simplex boundary": lambda: (real_moment_angle(boundary_of_simplex(3)),
                                               [()] + boundary_of_simplex(3).all_faces()),
    "colour manifold of the pentagon": lambda: (
        colour_manifold(polygon_lattice(5), Colouring.distinct(5)),
        [tuple(sorted(s)) for _, s in polygon_lattice(5).faces] + [()]),
}


@pytest.mark.parametrize("name", sorted(BUILT_AS_RUNS))
@pytest.mark.parametrize("int64_ambient", [62, 2])
def test_complexes_born_as_runs_match_the_per_cell_constructor(monkeypatch, name, int64_ambient):
    """A cap of 2 stores these complexes' signs as exact Python ints, the
    sign arrays of ambient ranks above 62."""
    monkeypatch.setattr(cubical, "INT64_AMBIENT", int64_ambient)
    Z, supports = BUILT_AS_RUNS[name]()
    cells = _cells_by_pattern(Z.ambient, supports)
    per_cell = CubicalComplex(Z.ambient, cells)
    oracle = CubicalCellsOracle(Z.ambient, cells)
    assert all(signs.dtype == (object if int64_ambient < Z.ambient else np.int64)
               for d in range(Z.dim + 1) for _, _, signs in Z.support_runs(d))
    assert Z == per_cell and hash(Z) == hash(per_cell)
    for k in range(1, Z.dim + 1):
        assert np.array_equal(Z.face_table(k), per_cell.face_table(k))
        assert np.array_equal(Z.face_table(k), oracle.face_table(k))
    assert Z.to_json() == per_cell.to_json() == oracle.to_json()
    assert Z.to_rzk1() == per_cell.to_rzk1() == oracle.to_rzk1()
    _assert_per_run_oracles_agree(Z)


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the budget check")


def test_the_budget_refuses_before_any_sign_array_is_built(monkeypatch):
    monkeypatch.setattr(cubical, "np", _Untouchable())
    with pytest.raises(BudgetError, match="construction needs 512 cells, budget is 511"):
        real_moment_angle(octahedron_boundary(), budget=511)
    with pytest.raises(BudgetError, match="construction needs 152 cells, budget is 151"):
        colour_manifold(polygon_lattice(5), Colouring.distinct(5), budget=151)
    # ambient 70: 2^70 vertices alone
    with pytest.raises(BudgetError, match=f"construction needs {(1 << 70) + 70 * (1 << 69)} cells"):
        real_moment_angle(build_simplicial([(i,) for i in range(70)], 70))
    with pytest.raises(AssertionError, match="before the budget check"):
        real_moment_angle(octahedron_boundary(), budget=512)


def test_json_and_rzk1_roundtrip():
    Z = real_moment_angle(boundary_of_simplex(2))
    assert CubicalComplex.from_json(Z.to_json()) == Z
    blob = Z.to_rzk1()
    assert blob[:4] == b"RZK1"
    assert CubicalComplex.from_rzk1(blob) == Z


def test_rzk1_rejects_garbage():
    with pytest.raises(ValidationError):
        CubicalComplex.from_rzk1(b"NOPE" + b"\0" * 16)


RZK1_CUBE = real_moment_angle(boundary_of_simplex(2)).to_rzk1()  # ambient 3, 26 cells


def _with_cell(blob, index, mask, signs):
    """An RZK1 table with record ``index`` replaced."""
    at = 12 + cubical.RZK1_CELL.size * index
    return blob[:at] + cubical.RZK1_CELL.pack(mask, signs) + blob[at + cubical.RZK1_CELL.size:]


RZK1_FAULTS = {
    "magic": (b"RZK2" + RZK1_CUBE[4:], None),
    "header": (RZK1_CUBE[:9], None),
    "length": (RZK1_CUBE[:-1], None),
    "ambient cap": (b"RZK1" + struct.pack("<II", 33, 26) + RZK1_CUBE[12:], None),
    "range": (_with_cell(RZK1_CUBE, 25, 0b1001, 0), None),
    "sign on the support": (_with_cell(RZK1_CUBE, 25, 0b011, 0b001), None),
    "sign past ambient": (_with_cell(RZK1_CUBE, 25, 0b011, 0b1000), None),
    "sign past int64": (_with_cell(RZK1_CUBE, 0, 0, 1 << 63), None),
    "duplicates": (_with_cell(RZK1_CUBE, 1, *struct.unpack_from("<IQ", RZK1_CUBE, 12)), None),
    "closure": (_with_cell(RZK1_CUBE, 0, 0b111, 0), None),
    "budget": (RZK1_CUBE, 25),
}


@pytest.mark.parametrize("name", sorted(RZK1_FAULTS))
def test_rzk1_refusals_match_the_per_cell_reader(name):
    blob, budget = RZK1_FAULTS[name]
    refusal = _outcome(CubicalComplex.from_rzk1, blob, budget=budget)
    assert isinstance(refusal, tuple)
    assert refusal == _outcome(from_rzk1_per_cell_oracle, blob, budget=budget)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(flips=lists(tuples(integers(0, len(RZK1_CUBE) - 1), integers(0, 7)), min_size=1, max_size=3),
       budget=sampled_from((None, 25, 26)))
def test_rzk1_byte_flips_match_the_per_cell_reader(flips, budget):
    blob = bytearray(RZK1_CUBE)
    for at, bit in flips:
        blob[at] ^= 1 << bit
    outcome = _outcome(CubicalComplex.from_rzk1, bytes(blob), budget=budget)
    assert outcome == _outcome(from_rzk1_per_cell_oracle, bytes(blob), budget=budget)


def test_only_the_face_table_finds_faces_or_corners():
    """No sorted search, membership test or submask enumeration in
    ``cubical.py`` outside ``_face_table``: the face tables are the one
    place where faces and corners are found."""
    tree = ast.parse(inspect.getsource(cubical))
    searches = ("searchsorted", "submasks", "isin", "in1d", "intersect1d", "bisect", "bisect_left", "bisect_right")

    def found(node):
        return {id(n): n.lineno for n in ast.walk(node)
                if (n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None)) in searches}

    face_table = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_face_table")
    inside = found(face_table)
    assert inside
    assert [line for node, line in found(tree).items() if node not in inside] == []


def test_relabel_permutes_structure():
    Z = real_moment_angle(octahedron_boundary())
    perm = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}  # swap within antipodal pairs
    W = Z.relabel(perm)
    assert W.cell_counts() == Z.cell_counts()
    assert W == Z  # swapping a pair is a symmetry of the octahedron complex


SQUARE = [((0, 1), 0), ((0,), 0), ((0,), 2), ((1,), 0), ((1,), 1),
          ((), 0), ((), 1), ((), 2), ((), 3)]


@pytest.mark.parametrize("deleted,message", [
    # dimension first: the edge's missing corner before the square's missing edge
    ([((), 3), ((1,), 1)], "missing +1 face of ((0,), 2) at 0"),
    # then cell order: ((0,), 0) misses its +1 corner before ((0,), 2) its -1 corner
    ([((), 1), ((), 2)], "missing +1 face of ((0,), 0) at 0"),
    # then axis: the +1 face at axis 0 before the -1 face at axis 1
    ([((1,), 1), ((0,), 0)], "missing +1 face of ((0, 1), 0) at 0"),
    # then -1 before +1 on the same axis
    ([((1,), 0), ((1,), 1)], "missing -1 face of ((0, 1), 0) at 0"),
])
def test_closure_names_the_first_of_two_missing_faces(deleted, message):
    cells = [c for c in SQUARE if c not in deleted]
    with pytest.raises(ValidationError) as exc:
        CubicalComplex(2, cells)
    assert str(exc.value) == message
    assert _refusal(_check_closure_oracle, CubicalComplex(2, cells, validate=False)) == message


def _closure(cells):
    """Every face (sub, signs | t) of each cell: sub inside the support, t
    a sign pattern on the axes the face drops."""
    out = set()
    for sup, signs in cells:
        for r in range(len(sup) + 1):
            for sub in combinations(sup, r):
                dropped = vector_from_indices(x for x in sup if x not in sub)
                out.update((sub, signs | t) for t in submasks(dropped))
    return out


@composite
def closed_cube_complexes(draw):
    """Closure of up to five random cells on at most six active axes; the
    frozen signs of the other axes are one random pattern.  Ambient ranks
    of 63 and more give sign masks beyond int64; at 62 the face search keys
    (face run, signs) by the signs' ranks once a dimension has two runs."""
    ambient = draw(sampled_from((1, 2, 3, 4, 5, 6) * 3 + (62, 63, 64, 70)))
    axes = draw(permutations(range(ambient)))[:6]
    base = draw(integers(0, (1 << ambient) - 1)) & ~vector_from_indices(axes)
    cells = []
    for _ in range(draw(integers(1, 5))):
        sup = tuple(sorted(draw(lists(sampled_from(axes), unique=True, max_size=4))))
        frozen = draw(lists(sampled_from(axes), unique=True))
        cells.append((sup, base | (vector_from_indices(set(frozen)) & ~vector_from_indices(sup))))
    return ambient, sorted(_closure(cells))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(complex_=closed_cube_complexes(), pick=integers(min_value=0))
def test_face_tables_match_the_per_cell_oracles(complex_, pick):
    ambient, cells = complex_
    Z = CubicalComplex(ambient, cells)

    data = chain_complex_of(Z, "Z")
    cell_keys, entries = cubical_entry_oracle(Z)
    assert data.cell_keys == cell_keys
    assert entry_rows(data) == entries
    verify_dd_zero_oracle(data)
    if data.top_dim >= 2:
        # one flipped incidence: the flattened check and the oracle agree
        k = data.top_dim
        row = pick % data.size(k)
        boundaries = entry_rows(data)
        bad = list(boundaries[k])
        bad[row] = ((bad[row][0][0], -bad[row][0][1]),) + bad[row][1:]
        broken = chain_data_from_entries("Z", data.cell_keys, boundaries[:k] + [tuple(bad)])
        assert _refusal(broken.verify_dd_zero) == _refusal(verify_dd_zero_oracle, broken)
        assert _refusal(broken.verify_dd_zero) == f"dd != 0 in dimension {k}"

    links = Z.vertex_links()
    assert list(links) == [signs for _, signs in Z.vertices()]
    for v in Z.vertices():
        scan = {sup for d in range(1, Z.dim + 1) for sup, sg in Z.cells_of_dim(d)
                if v[1] & ~vector_from_indices(sup) == sg}
        assert links[v[1]] == frozenset(scan)
        if scan:
            assert Z.link_of_vertex(v) == _link_by_scan(Z, v)
        else:
            with pytest.raises(ValidationError):
                _link_by_scan(Z, v)
            with pytest.raises(ValidationError):
                Z.link_of_vertex(v)

    _assert_per_run_oracles_agree(Z)

    rest = cells[:pick % len(cells)] + cells[pick % len(cells) + 1:]
    expected = _refusal(_check_closure_oracle, CubicalComplex(ambient, rest, validate=False))
    assert _refusal(CubicalComplex, ambient, rest) == expected
    _assert_refusals_agree(CubicalComplex(ambient, rest, validate=False))


def test_links_are_computed_once(monkeypatch):
    Z = real_moment_angle(octahedron_boundary())  # validated, so every face table is cached
    calls = []
    for name in ("_links", "_face_table"):
        original = getattr(CubicalComplex, name)
        monkeypatch.setattr(CubicalComplex, name,
                            lambda self, *args, _f=original, _n=name: calls.append(_n) or _f(self, *args))
    Z.link_of_vertex(Z.vertices()[0])
    # one pass, reading the cached tables: no face table is built again
    assert calls == ["_links"]
    for v in Z.vertices():
        assert find_isomorphism(Z.link_of_vertex(v), octahedron_boundary()) is not None
    assert len({id(link) for link in Z.vertex_links().values()}) == 1
    assert calls == ["_links"]


def test_links_refuse_a_missing_face_with_the_face_table_message():
    # the square without its edge ((1,), 1); every vertex is still there
    Z = CubicalComplex(2, [c for c in SQUARE if c != ((1,), 1)], validate=False)
    with pytest.raises(ValidationError, match=r"^missing \+1 face of \(\(0, 1\), 0\) at 0$"):
        Z.vertex_links()
    with pytest.raises(ValidationError, match=r"^missing \+1 face of \(\(0, 1\), 0\) at 0$"):
        Z.link_of_vertex(((), 0))


def test_caches_stay_out_of_equality_hash_and_pickle():
    Z = real_moment_angle(octahedron_boundary())
    blob = pickle.dumps(Z)
    digest = hash(Z)
    fresh = CubicalComplex(Z.ambient, cell_set(Z), validate=False)
    links = Z.vertex_links()
    tables = [Z.face_table(k) for k in range(1, Z.dim + 1)]
    assert pickle.dumps(Z) == blob
    assert hash(Z) == digest == hash(fresh)
    assert Z == fresh
    W = pickle.loads(blob)
    assert W == Z and hash(W) == digest
    assert not W._views
    assert W.vertex_links() == links
    assert all((W.face_table(k) == t).all() for k, t in enumerate(tables, 1))


# ---------------------------------------------------------------------------
# the support runs against the per-cell constructor
# ---------------------------------------------------------------------------


def _outcome(build, *args, **kwargs):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return build(*args, **kwargs)
    except CuspforgeError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(complex_=closed_cube_complexes(), rng=randoms(use_true_random=False))
def test_runs_match_the_per_cell_constructor(complex_, rng):
    ambient, cells = complex_
    rng.shuffle(cells)
    Z = CubicalComplex(ambient, cells)
    oracle = CubicalCellsOracle(ambient, cells)
    assert Z.dim == oracle.dim and Z.num_cells() == oracle.num_cells()
    assert [Z.cells_of_dim(d) for d in range(-1, Z.dim + 2)] == [
        oracle.cells_of_dim(d) for d in range(-1, Z.dim + 2)]
    assert Z.cell_counts() == tuple(len(oracle.cells_of_dim(d)) for d in range(Z.dim + 1))
    assert cell_set(Z) == oracle._cell_set
    for k in range(1, Z.dim + 1):
        assert np.array_equal(Z.face_table(k), oracle.face_table(k))
    assert Z.to_json() == oracle.to_json()
    assert _outcome(Z.to_rzk1) == _outcome(oracle.to_rzk1)
    assert isinstance(_outcome(Z.to_rzk1), tuple) == (ambient > 32)
    assert CubicalComplex.from_json(Z.to_json()) == Z
    assert hash(CubicalComplex(ambient, reversed(cells))) == hash(Z)


def _add(*extra):
    return lambda ambient, cells: (cells + list(extra), None)


# one fault each; every one is refused before the closure check
FAULTS = {
    "support past ambient": lambda ambient, cells: (cells + [((ambient,), 0)], None),
    "negative support": _add(((-1,), 0)),
    "repeated index": _add(((0, 0), 0)),
    "sign on the support": _add(((0,), 1)),
    "sign past ambient": lambda ambient, cells: (cells + [((), 1 << ambient)], None),
    "sign past int64": _add(((), 1 << 70)),
    "negative sign": _add(((), -1)),
    "duplicate": lambda ambient, cells: (cells + [cells[-1]], None),
    "duplicate, reversed support": lambda ambient, cells: (
        cells + [(tuple(reversed(cells[-1][0])), cells[-1][1])], None),
    "budget": lambda ambient, cells: (cells, len(cells) - 1),
}


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(complex_=closed_cube_complexes(), fault=sampled_from(sorted(FAULTS)),
       second=sampled_from(sorted(FAULTS)), rng=randoms(use_true_random=False))
def test_refusals_match_the_per_cell_constructor(complex_, fault, second, rng):
    ambient, cells = complex_
    cells, budget = FAULTS[fault](ambient, cells)
    rng.shuffle(cells)
    refusal = _outcome(CubicalComplex, ambient, cells, budget=budget)
    assert refusal == _outcome(CubicalCellsOracle, ambient, cells, budget=budget)
    assert isinstance(refusal, tuple)
    # a second fault: both still refuse, perhaps naming a different one
    more, budget2 = FAULTS[second](ambient, cells)
    budget = budget if budget2 is None else budget2
    with pytest.raises(CuspforgeError):
        CubicalComplex(ambient, more, budget=budget)
    with pytest.raises(CuspforgeError):
        CubicalCellsOracle(ambient, more, budget=budget)


def test_a_sign_past_int64_is_a_validation_error():
    text = json.dumps({"type": "cubical", "ambient": 3, "cells": [[[], 1 << 70]]})
    with pytest.raises(ValidationError, match="sign bits overlap the support or exceed ambient"):
        CubicalComplex.from_json(text)
    with pytest.raises(ValidationError, match="sign bits overlap the support or exceed ambient"):
        CubicalComplex(62, [((), 0), ((), 1 << 63)])
