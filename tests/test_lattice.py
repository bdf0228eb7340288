"""Face lattices, duality, and the stock polytope lattices."""

import ast
import json
import pickle
import random
import re
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import booleans, composite, permutations, randoms, sampled_from

from cuspforge import filling, lattice
from cuspforge.errors import ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices
from cuspforge.isomorphism import find_isomorphism
from cuspforge.lattice import (
    IDEAL,
    REAL,
    FaceLattice,
    cube_face_rows,
    cube_lattice,
    dualize,
    polygon_lattice,
)
from cuspforge.moment_angle import cusp_census, truncate_ideal
from cuspforge.polytopes import CROSS, gosset, ideal_dual
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cross_polytope_boundary,
    cycle_complex,
    octahedron_boundary,
)

from dense_oracles import (
    FaceLatticeOracle, cube_faces, facet_vertex_sets, graded_faces, lattice_check_oracle, simplex_lattice,
)


def test_cube_lattice_counts():
    C = cube_lattice(3)
    assert C.f_vector() == (8, 12, 6)
    assert C.euler_characteristic() == 2
    assert C.is_simple()
    assert lattice_check_oracle(C)


def test_cube_faces_give_the_cube_f_vector():
    for n in range(1, 6):
        axes = np.array([[(2 * a, 2 * a + 1) for a in range(n)]])
        faces = [(c, frozenset(row)) for c in range(1, n + 1) for row in cube_face_rows(axes, c)[0].tolist()]
        assert len(set(fs for _, fs in faces)) == len(faces)
        # an n-cube has C(n, k) 2^(n-k) faces of dimension k, i.e. codimension n-k
        assert Counter(c for c, _ in faces) == {c: comb(n, c) << c for c in range(1, n + 1)}
        assert all(len(fs) == c for c, fs in faces)


def test_cube_face_rows_match_the_per_face_generator():
    """For a = 0..7 axes and k = 0..a, each row's codimension-k faces are
    the generator's, in combinations order of the axes and product order
    of the sides."""
    rng = np.random.default_rng(0)
    for a in range(8):
        pairs = rng.permutation(3 * 2 * a).reshape(3, a, 2)
        for k in range(a + 1):
            rows = cube_face_rows(pairs, k)
            assert rows.shape == (3, comb(a, k) << k, k)
            for pair_row, faces in zip(pairs.tolist(), rows.tolist()):
                want = [fs for c, fs in cube_faces([tuple(p) for p in pair_row]) if c == k] if k else [frozenset()]
                assert list(map(frozenset, faces)) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_cube_lattice_matches_the_per_face_constructor(n):
    axes = [(2 * a, 2 * a + 1) for a in range(n)]
    want = FaceLatticeOracle(n, 2 * n, [(n - c, fs) for c, fs in cube_faces(axes)])
    assert_matches_oracle(cube_lattice(n), want)


def _side_tables(tree):
    """The cube side tables built in ``tree``: ``product((0, 1), ...)``,
    ``product(*pairs)`` over a named sequence of pairs, bit tables
    ``... >> np.arange(...)`` and bit loops ``... >> i`` with ``i`` running
    over a ``range``, in a loop or a comprehension."""
    for node in ast.walk(tree):
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        bits = {loop.target.id for loop in loops if isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None) == "range"}
        yield from (shift for shift in ast.walk(node) if isinstance(shift, ast.BinOp)
                    and isinstance(shift.op, ast.RShift) and getattr(shift.right, "id", None) in bits)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "product":
            first = node.args[0] if node.args else None
            if (isinstance(first, ast.Tuple) and [getattr(e, "value", None) for e in first.elts] == [0, 1]
                    or isinstance(first, ast.Starred) and isinstance(first.value, ast.Name)):
                yield node
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) and isinstance(node.right, ast.Call)
                and getattr(node.right.func, "attr", None) == "arange"):
            yield node


def test_cube_face_rows_is_the_one_cube_face_enumeration():
    """No function in ``src/cuspforge`` but ``cube_face_rows`` (in
    ``simplicial``, below ``lattice``) builds a cube side table, the
    per-face generator and the per-facet views are gone, and the filling
    reads no per-face view."""
    sources = {path.name: ast.parse(path.read_text()) for path in Path(lattice.__file__).parent.glob("*.py")}
    assert {"lattice.py", "simplicial.py", "polytopes.py", "filling.py"} <= set(sources)
    assert list(_side_tables(ast.parse("[(s >> i) & 1 for s in range(8) for i in range(3)]")))
    one = next(node for node in ast.walk(sources["simplicial.py"])
               if isinstance(node, ast.FunctionDef) and node.name == "cube_face_rows")
    allowed = {id(node) for node in _side_tables(one)}
    assert allowed
    stray = [(name, node.lineno) for name, tree in sources.items()
             for node in _side_tables(tree) if id(node) not in allowed]
    assert stray == []
    defined = {node.name for tree in sources.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"cube_faces", "_per_facet"}
    assert [node.lineno for node in ast.walk(sources["filling.py"])
            if isinstance(node, ast.Attribute) and node.attr == "faces"] == []


def test_polygon_and_simplex():
    P = polygon_lattice(5)
    assert P.f_vector() == (5, 5)
    assert P.is_simple()
    S = simplex_lattice(3)
    assert S.f_vector() == (4, 6, 4)
    assert lattice_check_oracle(S)


def test_cube_dualizes_to_octahedron():
    K = dualize(cube_lattice(3))
    assert find_isomorphism(K, octahedron_boundary()) is not None


def test_prism_dualizes_to_bipyramid_complex():
    # incidence-transpose oracle: dual of the triangular prism boundary
    # has 5 vertices and 6 triangles (squares become degree-4 vertices)
    prism_facets = [(0, 1, 2), (0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5), (3, 4, 5)]
    transpose = [
        tuple(i for i, f in enumerate(prism_facets) if v in f) for v in range(6)
    ]
    expected = build_simplicial(transpose, 5)
    K = dualize(gosset(3).lattice)
    assert K == expected
    assert K.f_vector() == (5, 9, 6)
    assert max(len([f for f in K.facets if v in f]) for v in K.vertices()) == 4


def test_dualize_roundtrip_identity():
    assert dualize(cube_lattice(3)) == cross_polytope_boundary(3)
    assert dualize(cube_lattice(4)) == cross_polytope_boundary(4)
    assert dualize(polygon_lattice(6)) == cycle_complex(6)
    assert dualize(simplex_lattice(3)) == boundary_of_simplex(3)


def test_dualize_requires_simple():
    P = ideal_dual(gosset(3))  # bipyramid: ideal vertices lie in 4 facets
    assert not P.lattice.is_simple()
    with pytest.raises(ValidationError):
        dualize(P.lattice)


def test_dualize_refuses_a_face_on_no_vertex():
    # a triangle's vertices and a fourth edge that no vertex lies on
    L = FaceLattice(2, 4, [(0, {0, 1}), (0, {1, 2}), (0, {0, 2})] + [(1, {i}) for i in range(4)])
    assert L.is_simple()
    with pytest.raises(ValidationError, match=r"^face \[3\] has no dual simplex$"):
        dualize(L)


def test_bipyramid_simplicity_fails_exactly_at_ideal_vertices():
    P = ideal_dual(gosset(3)).lattice
    bad = [s for k, s in P.faces if len(s) != P.rank - k]
    assert len(bad) == 3
    assert all(len(s) == 4 for s in bad)  # ideal vertices lie in 4 > 3 facets


def test_lattice_json_roundtrip():
    P = ideal_dual(gosset(3)).lattice
    assert FaceLattice.from_json(P.to_json()) == P
    assert P.to_json() == FaceLattice.from_json(P.to_json()).to_json()


def test_lattice_validation_errors():
    with pytest.raises(ValidationError):
        FaceLattice(2, 3, [(0, {0, 1}), (1, {0}), (1, {1})])  # missing singleton {2}
    with pytest.raises(ValidationError):
        FaceLattice(2, 2, [(1, {0}), (1, {1}), (0, {0, 1}), (0, {0, 1})])


def test_euler_relation_for_generated_lattices():
    for n in (3, 4, 5):
        G = gosset(n)
        assert G.lattice.euler_characteristic() == 1 - (-1) ** n
        P = ideal_dual(G)
        assert P.lattice.euler_characteristic() == 1 - (-1) ** n


# -- the array store against the per-face constructor --------------------


def assert_matches_oracle(L, O):
    assert L.rank == O.rank and L.num_facets == O.num_facets
    assert L.faces == O.faces
    assert L.marks == O.marks
    assert L.to_json() == O.to_json()


def gosset_oracle(G):
    """G's lattice as the per-face producer listed it: each vertex by the
    facets through it (partial), or each listed face by the facets that
    hold its vertex set (full)."""
    fv = facet_vertex_sets(G)
    if G.face_rows is None:
        at = [set() for _ in range(G.num_vertices)]
        for i, f in enumerate(fv):
            for v in f:
                at[v].add(i)
        faces = [(0, s) for s in at] + [(G.n - 1, {i}) for i in range(len(fv))]
    else:
        faces = [(d, frozenset(i for i, f in enumerate(fv) if vs <= f)) for vs, d in graded_faces(G)]
    return FaceLatticeOracle(G.n, len(fv), faces)


def dual_oracle(G):
    """P's lattice as the per-face producer listed it, marked by a dict
    keyed by facet vertex sets."""
    n = G.n
    if G.face_rows is None:
        faces = [(0, fv) for fv in facet_vertex_sets(G)]
        faces += [(n - 1, frozenset({v})) for v in range(G.num_vertices)]
    else:
        faces = [(n - 1 - d, vs) for vs, d in graded_faces(G)]
    marks = {fv: IDEAL if kind == CROSS else REAL for fv, kind in zip(facet_vertex_sets(G), G.facet_types)}
    return FaceLatticeOracle(n, G.num_vertices, faces, marks)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_gosset_and_dual_lattices_match_the_per_face_constructor(n):
    G = gosset(n)
    P = ideal_dual(G)
    assert_matches_oracle(G.lattice, gosset_oracle(G))
    assert_matches_oracle(P.lattice, dual_oracle(G))


def test_census_path_builds_no_per_face_view():
    G = gosset(8)
    P = ideal_dual(G)
    cusp_census(P)
    G.lattice.to_json()
    P.lattice.to_json()
    for L in (G.lattice, P.lattice):
        assert "faces" not in L._views


@pytest.fixture
def twin(monkeypatch):
    """Every FaceLattice built while the fixture is active, by the
    constructor or by ``from_arrays``, is checked against the per-face
    constructor on the same face sets and marks; returns the list of
    checked lattices."""
    checked = []
    adopt = FaceLattice._adopt

    def checked_adopt(self, rank, num_facets, ranks, ptr, facets, ideal):
        adopt(self, rank, num_facets, ranks, ptr, facets, ideal)
        bounds, flat = np.asarray(ptr).tolist(), np.asarray(facets).tolist()
        rows = [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
        flags = [False] * len(rows) if ideal is None else np.asarray(ideal, dtype=bool).tolist()
        marks = {s: IDEAL for s, flag in zip(rows, flags) if flag}
        assert_matches_oracle(self, FaceLatticeOracle(rank, num_facets, zip(np.asarray(ranks).tolist(), rows), marks))
        checked.append(self)

    monkeypatch.setattr(FaceLattice, "_adopt", checked_adopt)
    return checked


def test_stock_lattices_match_the_per_face_constructor(twin):
    for n in range(1, 6):
        cube_lattice(n)
        simplex_lattice(n)
    for k in range(3, 9):
        polygon_lattice(k)
    assert len(twin) == 16


@pytest.mark.parametrize("n, count", [(3, 8), (4, 243)])
def test_every_filled_lattice_matches_the_per_face_constructor(twin, n, count):
    P = ideal_dual(gosset(n))
    before = len(twin)
    for choice in enumerate_filling_choices(P):
        dehn_fill(P, choice)
    assert len(twin) - before == count
    truncate_ideal(P)
    assert len(twin) - before == count + 1


STOCK = [cube_lattice(n) for n in (1, 2, 3, 4)] + [simplex_lattice(n) for n in (1, 2, 3, 4)]
STOCK += [polygon_lattice(k) for k in (3, 5, 7)] + [ideal_dual(gosset(3)).lattice]


@composite
def relabelled_lattices(draw):
    """A stock lattice with its facets relabelled, its faces shuffled and
    some faces given as lists with a repeated index; returns the
    constructor's arguments."""
    L = draw(sampled_from(STOCK))
    perm = draw(permutations(range(L.num_facets)))
    faces = [(k, [perm[i] for i in sorted(s)]) for k, s in L.faces]
    faces = [(k, fs + fs[:1]) if draw(booleans()) else (k, fs) for k, fs in faces]
    draw(randoms(use_true_random=False)).shuffle(faces)
    marks = {frozenset(perm[i] for i in s): IDEAL for s in L.ideal_vertices()}
    return L.rank, L.num_facets, faces, marks


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(args=relabelled_lattices())
def test_relabelled_lattices_match_the_per_face_constructor(args):
    L = FaceLattice(*args)
    assert_matches_oracle(L, FaceLatticeOracle(*args))
    assert FaceLattice.from_arrays(L.rank, L.num_facets, *L.arrays()) == L


def test_nested_rows_sort_as_tuples_and_marks_stay_at_rank_0():
    # no check refuses nested facet sets in one rank; a prefix sorts first
    faces = [(k, set(s)) for k, s in polygon_lattice(4).faces] + [(0, {0, 1, 2}), (0, {0, 3, 1})]
    marks = {frozenset(s): IDEAL for _, s in faces}
    O = FaceLatticeOracle(2, 4, faces, marks)
    assert_matches_oracle(FaceLattice(2, 4, faces, marks), O)
    L = FaceLattice(2, 4, faces)
    flagged = FaceLattice.from_arrays(2, 4, L._ranks, L._ptr, L._facets, np.ones(len(faces), dtype=bool))
    assert_matches_oracle(flagged, O)


# -- refusals: one fault, the per-face constructor's message ---------------

SQUARE = [(k, set(s)) for k, s in polygon_lattice(4).faces]
CUBE = [(k, set(s)) for k, s in cube_lattice(3).faces]

ONE_FAULT = {
    "rank not positive": (0, 4, SQUARE, None),
    "rank past int64": (1 << 70, 4, SQUARE, None),
    "facet count not positive": (2, 0, SQUARE, None),
    "face rank too high": (2, 4, SQUARE + [(2, {0, 2})], None),
    "face rank negative": (2, 4, SQUARE + [(-1, {0, 2})], None),
    "face rank past int64": (2, 4, SQUARE + [(1 << 70, {0, 2})], None),
    "empty face": (2, 4, SQUARE + [(0, set())], None),
    "facet index too high": (2, 4, SQUARE + [(0, {0, 9})], None),
    "facet index negative": (2, 4, SQUARE + [(0, {-1, 2})], None),
    "facet index past int64": (2, 4, SQUARE + [(0, {0, 1 << 70})], None),
    "duplicate within a rank": (2, 4, SQUARE + [(0, [1, 0])], None),
    "duplicate across ranks": (3, 6, CUBE + [(1, {0, 2, 4})], None),
    "missing singleton": (2, 3, [(0, {0, 1}), (1, {0}), (1, {1})], None),
    "non-singleton facet face": (2, 4, SQUARE + [(1, {0, 2})], None),
    "more facets than faces": (3, 50, CUBE, None),
    "unknown mark": (2, 4, SQUARE, {frozenset({0, 1}): "bogus"}),
    "unknown mark off the lattice": (2, 4, SQUARE, {frozenset({0, 2}): 7}),
}


def refusal(build, args):
    with pytest.raises(ValidationError) as err:
        build(*args)
    return str(err.value)


@pytest.mark.parametrize("name", sorted(ONE_FAULT))
def test_one_fault_gets_the_per_face_message(name):
    args = ONE_FAULT[name]
    assert refusal(FaceLattice, args) == refusal(FaceLatticeOracle, args)


def test_a_repeated_index_collapses():
    args = (2, 4, [(k, sorted(s) * 2) for k, s in SQUARE], {frozenset({0, 1}): IDEAL})
    L = FaceLattice(*args)
    assert_matches_oracle(L, FaceLatticeOracle(*args))
    assert L.faces == polygon_lattice(4).faces and L.ideal_vertices() == [frozenset({0, 1})]


# -- canonical order: rank blocks already in order are read, not sorted --------


def _random_faces(seed):
    """Faces (rank, facet tuple) on distinct facet sets of 1 to 6 of 12
    facets, in canonical order: by rank, then by tuple, a prefix first."""
    rng = random.Random(seed)
    by_set = {tuple(sorted(rng.sample(range(12), rng.randint(1, 6)))): rng.randrange(4) for _ in range(300)}
    return sorted((k, s) for s, k in by_set.items())


def _face_arrays(faces):
    ranks = np.array([k for k, _ in faces])
    ptr = np.cumsum([0] + [len(s) for _, s in faces])
    return ranks, ptr, np.array([i for _, s in faces for i in s])


@pytest.mark.parametrize("seed", range(5))
def test_canonical_order_reads_ascending_blocks_and_sorts_the_rest(monkeypatch, seed):
    faces = _random_faces(seed)
    shuffled = random.Random(seed).sample(faces, len(faces))
    ascending = lattice._ascending
    seen = []
    monkeypatch.setattr(lattice, "_ascending", lambda rows: seen.append(ascending(rows)) or seen[-1])
    order = lattice._canonical_order(*_face_arrays(faces))
    assert order.tolist() == list(range(len(faces))) and seen == [True] * 4
    seen.clear()
    assert [shuffled[i] for i in lattice._canonical_order(*_face_arrays(shuffled))] == faces
    assert seen == [False] * 4
    # the sorting branch gives the same order on the ascending blocks
    monkeypatch.setattr(lattice, "_ascending", lambda rows: False)
    assert lattice._canonical_order(*_face_arrays(faces)).tolist() == order.tolist()


@pytest.mark.parametrize("seed", range(5))
def test_a_repeat_in_sorted_position_gets_the_sorted_message(monkeypatch, seed):
    faces = _random_faces(seed)
    at = random.Random(seed).randrange(len(faces))
    repeated = faces[:at + 1] + faces[at:]
    message = f"duplicate facet set {list(faces[at][1])}"
    shuffled = random.Random(seed).sample(repeated, len(repeated))
    for rows in (repeated, shuffled):
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            lattice._canonical_order(*_face_arrays(rows))
    monkeypatch.setattr(lattice, "_ascending", lambda rows: False)
    with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
        lattice._canonical_order(*_face_arrays(repeated))


def test_from_json_refuses_an_unknown_mark():
    doc = json.loads(polygon_lattice(4).to_json())
    doc["faces"][0]["mark"] = ["bogus"]
    with pytest.raises(ValidationError) as err:
        FaceLattice.from_json(json.dumps(doc))
    faces = [(f["rank"], f["facet_set"]) for f in doc["faces"]]
    marks = {frozenset(doc["faces"][0]["facet_set"]): ["bogus"]}
    assert str(err.value) == refusal(FaceLatticeOracle, (2, 4, faces, marks))
    doc["faces"][0]["mark"] = IDEAL
    doc["faces"][-1]["mark"] = "bogus"  # a rank-1 face: its mark is checked too
    with pytest.raises(ValidationError) as err:
        FaceLattice.from_json(json.dumps(doc))
    assert str(err.value) == "unknown vertex mark 'bogus'" == refusal(
        FaceLatticeOracle, (2, 4, faces, {frozenset(doc["faces"][-1]["facet_set"]): "bogus"}))
    doc["faces"][-1]["mark"] = IDEAL  # ideal flags are read at rank 0 only
    assert FaceLattice.from_json(json.dumps(doc)).ideal_vertices() == [frozenset(doc["faces"][0]["facet_set"])]


@pytest.mark.parametrize("first", [["bogus"], "bogus", 0])
def test_from_json_names_the_first_unknown_mark_deep_in_a_document(first):
    """The document's marks are checked at once; the refusal names the
    first offender in document order, hashable or not, also when later
    faces hold other offenders."""
    doc = json.loads(gosset(4).lattice.to_json())
    faces = doc["faces"]
    deep = 2 * len(faces) // 3
    faces[deep]["mark"] = first
    faces[deep + 1]["mark"] = {"mark": IDEAL}
    faces[-1]["mark"] = "other"
    with pytest.raises(ValidationError, match=rf"^unknown vertex mark {re.escape(repr(first))}$"):
        FaceLattice.from_json(json.dumps(doc))
    faces[deep]["mark"] = faces[deep + 1]["mark"] = REAL
    with pytest.raises(ValidationError, match=r"^unknown vertex mark 'other'$"):
        FaceLattice.from_json(json.dumps(doc))
    faces[-1]["mark"] = REAL
    assert FaceLattice.from_json(json.dumps(doc)) == gosset(4).lattice


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize("field", ["facet_set", "rank"])
def test_from_json_names_the_first_non_integer(value, field):
    """The document's ranks and indices are type-checked at once; the
    refusal names the first offender a face-by-face read meets, also when
    later faces hold other offenders or miss a key."""
    doc = json.loads(gosset(4).lattice.to_json())
    faces = doc["faces"]
    deep = 2 * len(faces) // 3
    if field == "rank":
        faces[deep]["rank"] = value
    else:
        faces[deep]["facet_set"][-1] = value
    message = rf"^expected an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        FaceLattice.from_json(json.dumps(doc))
    faces[deep + 1]["facet_set"][0] = 2.5
    del faces[deep + 2]["rank"]
    with pytest.raises(ValidationError, match=message):
        FaceLattice.from_json(json.dumps(doc))
    del faces[deep - 1]["facet_set"]  # a missing key before the offenders
    with pytest.raises(ValidationError, match=r"^malformed face_lattice document: KeyError\('facet_set'\)$"):
        FaceLattice.from_json(json.dumps(doc))


# -- the one writer: rows_text against json.dumps ----------------------------


def json_oracle(L):
    """L's document as the per-face constructor's ``json.dumps`` writes it."""
    return FaceLatticeOracle(L.rank, L.num_facets, L.faces, {s: IDEAL for s in L.ideal_vertices()}).to_json()


@pytest.mark.parametrize("seed", range(4))
def test_rows_text_joins_each_row_and_appends_its_end_text(seed):
    rng = random.Random(seed)
    top = [0, 9, 10, 12345][seed]
    rows = [[rng.randint(0, top) for _ in range(rng.randint(1, 5))] for _ in range(40)]
    rows += [[0], [top], [0, top], [top] * 3]
    end_texts = [f"<{i}>" for i in range(rng.choice([1, 3, 128]))]
    ends = [rng.randrange(len(end_texts)) for _ in rows]
    values = np.array([0] * 3 + [i for row in rows for i in row])  # rows start at offset 3
    ptr = 3 + np.cumsum([0] + [len(row) for row in rows])
    want = "".join(",".join(map(str, row)) + end_texts[e] for row, e in zip(rows, ends))
    assert lattice.rows_text(values, ptr, np.array(ends), end_texts) == want
    with pytest.raises(ValueError):
        lattice.rows_text(values, ptr, np.array(ends), end_texts * 129)


DIGIT_BOUNDARIES = [FaceLattice(1, 1, [(0, {0})], {frozenset({0}): IDEAL})]
DIGIT_BOUNDARIES += [FaceLattice(2, m, polygon_lattice(m).faces, {frozenset({0, m - 1}): IDEAL})
                     for m in (10, 11, 100, 101, 1001)]


@pytest.mark.parametrize("L", DIGIT_BOUNDARIES, ids=lambda L: f"{L.num_facets} facets")
def test_json_at_digit_width_boundaries_matches_json_dumps(L):
    # rows {0} and {m - 1} hold only the least and the largest index
    assert L.to_json() == json_oracle(L)
    assert FaceLattice.from_json(L.to_json()) == L


def test_json_of_a_rank_40_lattice_matches_json_dumps():
    # 40 ranks present: the singletons at rank 39 and {0, k + 1} at rank k
    faces = [(39, {i}) for i in range(40)] + [(k, {0, k + 1}) for k in range(39)]
    marks = {frozenset({0, 1}): IDEAL}
    L = FaceLattice(40, 40, faces, marks)
    assert L.ranks_present() == list(range(40)) and L.ideal_vertices() == [frozenset({0, 1})]
    assert L.to_json() == FaceLatticeOracle(40, 40, faces, marks).to_json()
    assert FaceLattice.from_json(L.to_json()) == L


def test_json_of_full_and_filled_lattices_matches_json_dumps():
    G = gosset(7, full_lattice=True)
    P4 = ideal_dual(gosset(4))
    filled = dehn_fill(P4, filling.resolve_choice(P4, "auto"))
    for L in (G.lattice, ideal_dual(G).lattice, filled.lattice):
        assert L.to_json() == json_oracle(L)


# -- views: lookups, and kept out of the lattice's state -------------------


def test_views_stay_out_of_equality_hash_and_pickles():
    for L in (cube_lattice(3), ideal_dual(gosset(4)).lattice):
        blob, h = pickle.dumps(L), hash(L)
        L.faces
        assert "faces" in L._views
        assert pickle.dumps(L) == blob and hash(L) == h
        M = FaceLattice.from_json(L.to_json())
        assert not M._views and M == L and hash(M) == h
        back = pickle.loads(blob)
        assert back == L and hash(back) == h and back.to_json() == L.to_json()
    assert cube_lattice(3) != cube_lattice(4)
    P = ideal_dual(gosset(3)).lattice
    unmarked = FaceLattice(P.rank, P.num_facets, P.faces)
    assert unmarked != P and unmarked.faces == P.faces


def test_g8_lattice_pickles_without_views():
    L = gosset(8).lattice
    back = pickle.loads(pickle.dumps(L))
    assert back == L and hash(back) == hash(L)
    assert not back._views
