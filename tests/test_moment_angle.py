"""Moment-angle and colouring constructions, censuses, preimages, cusps."""

import ast
import pickle
import random
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis.strategies import integers, just, lists, tuples

from cuspforge import characteristic, cubical, gf2, moment_angle
from cuspforge.chains import chain_complex_of, homology, propagate_signs, subcomplex_selection
from cuspforge.characteristic import orientability, spin_obstruction
from cuspforge.cubical import CubicalComplex
from cuspforge.errors import BudgetError, ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices, resolve_choice
from cuspforge.isomorphism import cubical_isomorphism
from cuspforge.lattice import FaceLattice, cube_lattice, polygon_lattice
from cuspforge.moment_angle import (
    Colouring,
    CuspCensus,
    QuotientCellComplex,
    colour_manifold,
    cusp_census,
    manifold_check,
    preimage_components,
    _lattice_incidences,
    real_moment_angle,
    truncate_ideal,
    truncated_quotient,
)
from cuspforge.pipeline import census_json
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import (
    build_simplicial,
    boundary_of_simplex,
    cycle_complex,
    octahedron_boundary,
    two_points,
)

from dense_oracles import (
    axis_paired_colouring,
    census_json_oracle,
    closed_pseudomanifold_oracle,
    connected_oracle,
    cusp_census_oracle,
    drawn_colourings,
)


def test_two_points_give_the_square_boundary():
    Z = real_moment_angle(two_points())
    assert Z.cell_counts() == (4, 4)
    assert homology(chain_complex_of(Z, "Z")).betti == (1, 1)


def test_triangle_boundary_gives_cube_surface():
    Z = real_moment_angle(boundary_of_simplex(2))
    assert Z.num_cells() == 26
    assert homology(chain_complex_of(Z, "Z")).betti == (1, 0, 1)


def test_octahedron_gives_3_torus():
    Z = real_moment_angle(octahedron_boundary())
    assert len(Z.vertices()) == 64
    assert len(Z.cells_of_dim(3)) == 64
    assert homology(chain_complex_of(Z, "Z2")).betti == (1, 3, 3, 1)


def test_colouring_validation():
    with pytest.raises(ValidationError):
        Colouring(2, (0, 1))
    sq = polygon_lattice(4)
    bad = Colouring(2, (1, 1, 2, 2))  # adjacent facets share a colour
    with pytest.raises(ValidationError):
        colour_manifold(sq, bad)
    with pytest.raises(ValidationError, match="colouring size"):
        colour_manifold(sq, Colouring.distinct(3))


def test_real_moment_angle_checks_closure_once_and_keeps_the_tables():
    Z = real_moment_angle(octahedron_boundary())
    tables = {k: Z._views[("face_table", k)] for k in (1, 2, 3)}  # the closure check built every table
    chain_complex_of(Z, "Z2")
    assert all(Z.face_table(k) is tables[k] for k in tables)


def test_p5_colouring_refuses_before_listing_cells(monkeypatch):
    P = ideal_dual(gosset(5))
    filled = dehn_fill(P, next(enumerate_filling_choices(P)))

    class NoCells:
        def __getattr__(self, name):
            raise AssertionError("cells listed before the budget check")

    def no_cells(*args, **kwargs):
        raise AssertionError("cells listed before the budget check")

    # the sign arrays are built with numpy and stored by the one adoption routine
    monkeypatch.setattr(cubical, "np", NoCells())
    monkeypatch.setattr(CubicalComplex, "_adopt", no_cells)
    with pytest.raises(BudgetError, match="5046272 cells"):
        colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))


def test_distinct_coloured_cube_is_t3():
    C = cube_lattice(3)
    Z = colour_manifold(C, Colouring.distinct(6))
    assert len(Z.vertices()) == 64  # 2^6 copies of the cube
    T3 = real_moment_angle(octahedron_boundary())
    assert cubical_isomorphism(Z, T3) is not None


def test_distinct_coloured_square_is_t2():
    Z = colour_manifold(polygon_lattice(4), Colouring.distinct(4))
    assert Z.cell_counts() == (16, 32, 16)
    assert homology(chain_complex_of(Z, "Z")).betti == (1, 2, 1)


def test_klein_bottle_colouring():
    Z = colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    h = homology(chain_complex_of(Z, "Z"))
    assert h.betti == (1, 1, 0)
    assert h.torsion[1] == (2,)


def test_manifold_check_passes_on_torus():
    K = octahedron_boundary()
    report = manifold_check(real_moment_angle(K), K)
    assert report.passed
    assert len(report.vertex_results) == 64


def test_manifold_check_fails_on_disc():
    K = build_simplicial([(0, 1)])  # a single edge: RZ is the solid square
    Z = real_moment_angle(K)
    report = manifold_check(Z, K)
    assert not report.passed
    assert not report.target_closed
    assert any("sphere" in f for f in report.failures)


def test_census_small_cases():
    P3 = ideal_dual(gosset(3))
    census = cusp_census(P3)
    assert census.total == 12
    assert [e.components for e in census.entries] == [4, 4, 4]
    assert all(e.incident_facets == 4 for e in census.entries)
    assert all(e.section == "2-torus" for e in census.entries)

    P4 = ideal_dual(gosset(4))
    census4 = cusp_census(P4)
    assert census4.total == 80
    assert all(e.components == 16 for e in census4.entries)


def test_census_symbolic_p8():
    P8 = ideal_dual(gosset(8))
    census = cusp_census(P8)
    assert census.total == 2160 * 2 ** 226
    assert all(e.incident_facets == 14 for e in census.entries)
    assert census.magnitude() == "2.32e71"


def test_census_magnitude_has_no_empty_fraction():
    census = cusp_census(ideal_dual(gosset(3)), Colouring(2, (1, 2, 3, 1, 2, 3)))
    assert census.total == 3 and census.magnitude() == "3e0"
    twelve = cusp_census(ideal_dual(gosset(3)))
    assert twelve.total == 12 and twelve.magnitude() == "1.2e1"  # two digits and up: as before
    assert cusp_census(ideal_dual(gosset(4))).magnitude() == "8.0e1"


def test_cusp_ids_list_one_id_per_cusp_within_the_budget():
    census = cusp_census(ideal_dual(gosset(3)))
    ids = census.cusp_ids(budget=12)
    assert len(ids) == len(set(ids)) == 12
    assert ids[:2] == ["v(0, 1, 3, 4)#0", "v(0, 1, 3, 4)#1"]
    with pytest.raises(BudgetError, match="12 cusps"):
        census.cusp_ids(budget=11)


def test_census_with_non_distinct_colouring():
    P3 = ideal_dual(gosset(3))
    # colour the six facets into (Z/2)^3 properly: use vertex-disjoint
    # structure of the bipyramid dual; fall back to explicit span counts
    colouring = Colouring(6, tuple(1 << i for i in range(6)))
    assert cusp_census(P3, colouring).total == 12
    small = Colouring(4, (0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1011))
    census = cusp_census(P3, small)
    for e in census.entries:
        assert e.components == 1  # spans are full at every ideal vertex


def test_preimage_components_match_formula():
    for n in (3, 4):
        G = gosset(n)
        P = ideal_dual(G)
        choice = next(enumerate_filling_choices(P))
        filled = dehn_fill(P, choice)
        Z = colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))
        pairs = list(filled.filling_faces.values())
        f = P.num_facets
        total = 0
        for pr in pairs:
            rep = preimage_components(Z, tuple(sorted(pr)), pairs)
            assert rep.copies == 1 << (f - 2)
            assert all(c == 1 << (2 * n - 4) for c in rep.cells_per_component)
            total += rep.components
        assert total == cusp_census(P).total


def _fillings():
    P3 = ideal_dual(gosset(3))
    P4 = ideal_dual(gosset(4))
    for choice in enumerate_filling_choices(P3):
        yield P3, choice
    yield P4, resolve_choice(P4, "auto")
    yield P4, next(enumerate_filling_choices(P4))


def test_preimage_runs_match_the_per_cell_scans():
    from dense_oracles import preimage_components_oracle

    fillings = list(_fillings())
    assert len(fillings) == 10
    for P, choice in fillings:
        filled = dehn_fill(P, choice)
        Z = colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))
        pairs = list(filled.filling_faces.values())
        for pr in pairs:
            pair = tuple(sorted(pr))
            assert preimage_components(Z, pair, pairs) == preimage_components_oracle(Z, pair, pairs)
        # a pair with no cells on it: the same refusal
        missing = (0, P.num_facets - 1)
        if not any(sup == missing for sup, _ in Z.cells_of_dim(2)):
            for check in (preimage_components, preimage_components_oracle):
                with pytest.raises(ValidationError, match=re.escape(f"no cells supported on {missing}")):
                    check(Z, missing)


def test_preimage_rejects_non_filling_face():
    G = gosset(3)
    P = ideal_dual(G)
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    Z = colour_manifold(filled.lattice, Colouring.distinct(6))
    pairs = list(filled.filling_faces.values())
    ordinary_ridge = next(
        tuple(sorted(s)) for k, s in filled.lattice.faces
        if k == 1 and s not in set(map(frozenset, pairs))
    )
    with pytest.raises(ValidationError):
        preimage_components(Z, ordinary_ridge, pairs)


def test_truncated_quotient_structure():
    P = ideal_dual(gosset(3))
    cusped = truncated_quotient(P)
    Q = cusped.quotient
    assert Q.euler_characteristic() == 0
    assert len(cusped.components) == 12
    data = chain_complex_of(Q, "Z")
    from cuspforge.chains import subcomplex_selection

    for comp in cusped.components[:3]:
        sel = subcomplex_selection(data, comp.keys_per_dim)
        h = homology(sel.data)
        assert h.betti == (1, 2, 1)
        assert all(not t for t in h.torsion)


def test_quotient_matches_moment_angle_in_dimension_4():
    from cuspforge.filling import diagonals_from_filling, subdivide_cross_facets

    G = gosset(4)
    P = ideal_dual(G)
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    K = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
    Z1 = colour_manifold(filled.lattice, Colouring.distinct(10))
    Z2 = real_moment_angle(K)
    assert Z1.num_cells() == Z2.num_cells() == 23104
    assert cubical_isomorphism(Z1, Z2) is not None


def test_orientability_agrees_with_top_integral_homology():
    cases = [
        (real_moment_angle(boundary_of_simplex(2)), True),
        (colour_manifold(polygon_lattice(4), Colouring.distinct(4)), True),
        (colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10))), False),
        (colour_manifold(polygon_lattice(3), Colouring(2, (0b01, 0b10, 0b11))), False),
    ]
    for Z, expect in cases:
        data = chain_complex_of(Z, "Z")
        assert orientability(Z, data).orientable == expect
        h = homology(data)
        assert (h.betti[-1] == 1) == expect  # H_top = Z exactly when orientable


# ---------------------------------------------------------------------------
# incidence numbers of the quotient cells
# ---------------------------------------------------------------------------

# the 6-vertex real projective plane
RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5))


def dual_lattice(rank, tops):
    """The simple lattice dual to a pure complex: one face of rank
    ``rank - |s|`` per non-empty simplex s of the top simplices ``tops``."""
    simplices = sorted({c for t in tops for r in range(1, len(t) + 1) for c in combinations(t, r)})
    return FaceLattice(rank, 1 + max(map(max, tops)), [(rank - len(s), s) for s in simplices])


def cube_without(face):
    """The 3-cube's lattice with one face, named by its facet set, left out."""
    return FaceLattice(3, 6, [(k, s) for k, s in cube_lattice(3).faces if s != frozenset(face)])


@pytest.mark.parametrize("lattice,message", [
    (dual_lattice(3, RP2_TRIANGLES), "inconsistent orientation on a face boundary"),
    (dual_lattice(2, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))), "face boundary is not connected"),
    (cube_without({0, 2}), "boundary of a face is not a pseudomanifold"),
    (cube_without({0, 2, 4}), "edge without exactly two endpoints"),
    # a tetrahedron's dual on facets 2..5, and facets 0 and 1 with empty boundaries
    (dual_lattice(3, ((2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5), (0,), (1,))), "face boundary is not connected"),
], ids=["rp2-dual", "two-triangles-dual", "cube-without-edge", "cube-without-vertex", "empty-facets"])
def test_quotient_refuses_face_boundaries_that_do_not_orient(lattice, message):
    assert lattice.is_complete() and lattice.is_simple() and lattice.num_facets == 6
    with pytest.raises(ValidationError, match=f"^{message}$"):
        QuotientCellComplex(lattice, (1, 1, 2, 2, 4, 4), 3)


def _permuted_colouring(f, seed):
    perm = list(range(f))
    if seed:
        random.Random(seed).shuffle(perm)
    return Colouring(f, tuple(1 << p for p in perm))


def _assert_incidences_match_oracle(lattice, kid_ptr, kids, signs):
    """The CSR incidences, int64 and read back as dicts, are the per-face walk's."""
    from dense_oracles import lattice_incidences_oracle

    children, incidence = lattice_incidences_oracle(lattice)
    assert kid_ptr.dtype == kids.dtype == signs.dtype == np.int64
    assert len(kid_ptr) == len(children) + 1 and len(kids) == len(signs) == kid_ptr[-1]
    ptr, kids, signs = kid_ptr.tolist(), kids.tolist(), signs.tolist()
    spans = list(enumerate(zip(ptr, ptr[1:])))
    assert {gid: kids[a:b] for gid, (a, b) in spans} == children
    assert {(gid, kids[i]): signs[i] for gid, (a, b) in spans for i in range(a, b)} == incidence


def _assert_quotient_incidences_match_oracle(Q):
    _assert_incidences_match_oracle(Q.lattice, Q._kid_ptr, Q._kids, Q._kid_signs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_incidences_match_the_per_face_walk(n):
    _assert_quotient_incidences_match_oracle(
        QuotientCellComplex(cube_lattice(n), tuple(1 << (i // 2) for i in range(2 * n)), n))


@pytest.mark.parametrize("n", [3, 4])
def test_filled_incidences_match_the_per_face_walk(n):
    P = ideal_dual(gosset(n))
    filled = dehn_fill(P, resolve_choice(P, "auto")).lattice
    _assert_quotient_incidences_match_oracle(QuotientCellComplex(filled, Colouring.distinct(P.num_facets).vectors,
                                                                 P.num_facets))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_truncated_incidences_match_the_per_face_walk(n, seed):
    P = ideal_dual(gosset(n))
    _assert_quotient_incidences_match_oracle(
        truncated_quotient(P, _permuted_colouring(P.num_facets, seed)).quotient)


@pytest.mark.parametrize("kind,n", [("truncated", 5), ("truncated", 6), ("filled", 5)])
def test_large_lattice_incidences_match_the_per_face_walk(kind, n):
    """Past n = 4, where the quotients themselves are out of reach, the
    incidences of the lattices alone."""
    P = ideal_dual(gosset(n))
    choice = next(enumerate_filling_choices(P))
    lattice = truncate_ideal(P) if kind == "truncated" else dehn_fill(P, choice).lattice
    _assert_incidences_match_oracle(lattice, *_lattice_incidences(lattice))


def _named(tree, names):
    """Line numbers of the names, attributes, definitions and imports in
    ``tree`` called one of ``names``."""
    return [node.lineno for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) in names]


def _reductions(tree, functions):
    """Line numbers of ``normal_form`` and ``rep_of`` calls inside the
    functions named ``functions``."""
    bodies = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in functions]
    assert len(bodies) == len(functions)
    return [node.lineno for body in bodies for node in ast.walk(body) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("normal_form", "rep_of")]


def _per_face_reads(tree):
    """Line numbers of reads of a lattice's per-face views: the attributes
    ``faces``, ``marks`` and ``faces_of_rank``, and ``ideal_vertices()``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("faces", "marks", "faces_of_rank")
                  or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ideal_vertices")


def _lookups(tree, function):
    """Line numbers of ``frozenset`` and ``dict`` calls and of dict literals
    and comprehensions inside the function named ``function``."""
    (body,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function]
    return sorted(node.lineno for node in ast.walk(body) if isinstance(node, (ast.Dict, ast.DictComp))
                  or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("frozenset", "dict"))


def test_quotient_cells_are_placed_not_looked_up():
    """No entry-list converter or submask walk is left in ``src/cuspforge``,
    and neither ``to_chain_data`` nor ``truncated_quotient`` reduces a
    vector: every cell is placed by its face's table.  No face is looked
    up by its facet set either: outside ``lattice.py`` no module reads a
    lattice's per-face views, and ``_lattice_incidences`` builds no
    frozenset and no dict."""
    assert _named(ast.parse("from x import submasks\nChainComplexData.from_entries(0)"),
                  {"from_entries", "submasks"}) == [1, 2]
    assert _reductions(ast.parse("def f(q):\n    return q.rep_of(0, 1) or normal_form(1, {})"), ("f",)) == [2, 2]
    assert _per_face_reads(ast.parse("L.faces\nL.marks[0]\nL.faces_of_rank(1)\nL.ideal_vertices()\n"
                                     "P.ideal_vertices\nL.rows_of_rank(1)")) == [1, 2, 3, 4]
    assert _lookups(ast.parse("def f(s):\n    return {s: 1}, {x: 1 for x in s}, frozenset(s), dict(), set()"),
                    "f") == [2, 2, 2, 2]
    sources = {path.name: ast.parse(path.read_text()) for path in Path(moment_angle.__file__).parent.glob("*.py")}
    assert {"moment_angle.py", "chains.py", "gf2.py", "lattice.py", "polytopes.py"} <= set(sources)
    assert {name: lines for name, tree in sources.items()
            if (lines := _named(tree, {"from_entries", "submasks"}))} == {}
    assert _reductions(sources["moment_angle.py"], ("to_chain_data", "truncated_quotient")) == []
    assert {name: lines for name, tree in sources.items()
            if name != "lattice.py" and (lines := _per_face_reads(tree))} == {}
    assert _lookups(sources["moment_angle.py"], "_lattice_incidences") == []


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_colour_spans_pivot_on_the_highest_bit(seed):
    """Every colour span's pivot row has its highest bit at its key, and
    each cell is named by its coset's normal form."""
    P = ideal_dual(gosset(3))
    Q = truncated_quotient(P, _permuted_colouring(P.num_facets, seed)).quotient
    assert all(row.bit_length() - 1 == p for span in Q._pivots for p, row in span.items())
    assert all(gf2.normal_form(rep, Q._pivots[gid]) == rep for bucket in Q.cells for gid, rep in bucket)


def test_every_orientation_reaches_the_one_sign_propagation(monkeypatch):
    calls = []
    for module in (characteristic, moment_angle):
        monkeypatch.setattr(module, "propagate_signs", lambda *a: calls.append(1) or propagate_signs(*a))

    def count(read):
        calls.clear()
        read()
        return len(calls)

    cube = cube_lattice(3)
    assert count(lambda: QuotientCellComplex(cube, (1, 1, 2, 2, 4, 4), 3)) == 2  # ranks 2 and 3
    t3 = colour_manifold(cube, Colouring.distinct(6))
    data = chain_complex_of(t3, "Z")
    assert count(lambda: orientability(t3, data)) == 1
    assert count(lambda: spin_obstruction(t3, data)) == 0  # kept on the data


def test_proposition_isomorphism_holds_even_after_relabelling():
    from cuspforge.filling import diagonals_from_filling, subdivide_cross_facets

    G = gosset(3)
    P = ideal_dual(G)
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    K = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
    Z1 = colour_manifold(filled.lattice, Colouring.distinct(6))
    Z2 = real_moment_angle(K)
    assert cubical_isomorphism(Z1, Z2) is not None
    shuffled = Z2.relabel({5: 0, 0: 5, 1: 1, 2: 2, 3: 3, 4: 4})
    assert cubical_isomorphism(Z1, shuffled) is not None


# ---------------------------------------------------------------------------
# the link target's sphere properties, read off its chain complex
# ---------------------------------------------------------------------------


LINK_TARGETS = {
    # name: (complex, (pure, closed, connected, sphere betti))
    "two points": (two_points, (True, False, False, True)),
    "path": (lambda: build_simplicial([(0, 1), (1, 2)]), (True, False, True, False)),
    "triangle with a pendant edge": (lambda: build_simplicial([(0, 1, 2), (2, 3)]),
                                     (False, False, True, False)),
    "two disjoint circles": (lambda: build_simplicial([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                             (True, True, False, False)),
    "octahedron": (octahedron_boundary, (True, True, True, True)),
    "4-cycle": (lambda: cycle_complex(4), (True, True, True, True)),
    "two tetrahedron boundaries on a vertex": (
        lambda: build_simplicial([f for base in ((0, 1, 2, 3), (3, 4, 5, 6)) for f in combinations(base, 3)]),
        (True, True, True, False)),
    "three triangles on one edge": (lambda: build_simplicial([(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
                                    (True, False, True, False)),
}


@pytest.mark.parametrize("name", list(LINK_TARGETS))
def test_manifold_check_target_properties_match_the_oracles(name):
    build, expected = LINK_TARGETS[name]
    K = build()
    report = manifold_check(real_moment_angle(K), K)
    found = (report.target_pure, report.target_closed, report.target_connected, report.target_sphere_betti)
    assert found == expected
    assert report.target_closed == closed_pseudomanifold_oracle(K)
    assert report.target_connected == connected_oracle(K)
    d = K.dim
    sphere = (1,) + (0,) * (d - 1) + (1,) if d >= 1 else (2,)
    assert report.target_sphere_betti == (homology(chain_complex_of(K, "Z")).betti == sphere)
    assert report.links_match
    assert report.passed == all(expected)


# ---------------------------------------------------------------------------
# cusps are cosets of the colour span at each ideal vertex
# ---------------------------------------------------------------------------


def _section_labels(P, colouring):
    """(census label, the name b_1 over Z gives) per cusp section of the
    truncated quotient, or None for a colouring it refuses."""
    try:
        cusped = truncated_quotient(P, colouring)
    except ValidationError:
        return None
    data = chain_complex_of(cusped.quotient, "Z")
    label = {e.vertex: e.section for e in cusp_census(P, colouring).entries}
    names = {True: f"{P.n - 1}-torus", False: f"flat {P.n - 1}-manifold, not a torus"}
    return [(label[c.ideal_vertex],
             names[homology(subcomplex_selection(data, c.keys_per_dim).data).betti[1] == P.n - 1])
            for c in cusped.components]


def test_cusp_sections_are_tori_exactly_when_b1_is_n_minus_1():
    drawn = drawn_colourings()
    pairs = [pair for P, colouring in drawn for pair in _section_labels(P, colouring) or ()]
    assert all(label == name for label, name in pairs)
    # the sample holds tori and other flat manifolds (Klein bottles and their kin) in both dimensions
    assert {name for _, name in pairs} == {"2-torus", "flat 2-manifold, not a torus",
                                           "3-torus", "flat 3-manifold, not a torus"}


def test_distinct_census_ranks_each_ideal_vertex_once(monkeypatch):
    P = ideal_dual(gosset(4))
    calls = []
    rank = gf2.rank_of_rows
    monkeypatch.setattr(gf2, "rank_of_rows", lambda rows: calls.append(rows) or rank(rows))
    census = cusp_census(P)
    assert len(calls) == len(P.ideal_vertices) == len(census.entries)
    assert {e.section for e in census.entries} == {"3-torus"}


def _assert_census_matches_the_per_vertex_oracle(P, colouring=None):
    census = cusp_census(P, colouring)
    oracle = cusp_census_oracle(P, colouring)
    assert census.entries == oracle.entries
    assert census.total == oracle.total and census.magnitude() == oracle.magnitude()
    text = census_json(census)
    assert text == census_json_oracle(oracle) == census_json_oracle(census)
    return census


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_distinct_census_matches_the_per_vertex_oracle(n):
    census = _assert_census_matches_the_per_vertex_oracle(ideal_dual(gosset(n)))
    assert set(census.spans) == {2 * (n - 1)} and all(census.torus)


def test_drawn_census_matches_the_per_vertex_oracle():
    sections = set()
    for P, colouring in drawn_colourings():
        census = _assert_census_matches_the_per_vertex_oracle(P, colouring)
        sections.update(e.section for e in census.entries)
    assert sections == {"2-torus", "flat 2-manifold, not a torus", "3-torus", "flat 3-manifold, not a torus"}


def test_census_json_writes_every_span_and_section_pair():
    # rows of P^8's width w = 14 taking all 2 (w + 1) (span, section) pairs
    # in a seeded order: each row ends in one of 31 texts, the last in the tail
    rows = ideal_dual(gosset(8)).ideal_rows[:90]
    keys = [(span, torus) for span in range(15) for torus in (False, True)] * 3
    random.Random(0).shuffle(keys)
    spans, torus = zip(*keys)
    census = CuspCensus(8, 14, rows, spans, torus)
    assert census_json(census) == census_json_oracle(census)
    for size in (1, 2):
        cut = CuspCensus(8, 14, rows[:size], spans[:size], torus[:size])
        assert census_json(cut) == census_json_oracle(cut)


def test_census_views_stay_out_of_equality_hash_and_pickles():
    P = ideal_dual(gosset(4))
    census = cusp_census(P)
    blob, h = pickle.dumps(census), hash(census)
    assert not census._views
    census.entries
    assert census._views
    assert pickle.dumps(census) == blob and hash(census) == h
    back = pickle.loads(blob)
    assert not back._views and back == census and hash(back) == h
    assert back.entries == census.entries and back.total == census.total == 80
    assert cusp_census(P) == census and cusp_census(P, Colouring(10, (1, 2, 4, 8, 16, 3, 5, 6, 9, 10))) != census


def _assert_cusps_are_cosets(P, colouring, cusped):
    from dense_oracles import cusp_components_oracle

    oracle = cusp_components_oracle(cusped.quotient, cusped.quotient.lattice, P.ideal_rows)
    assert cusped.components == oracle
    assert len(cusped.components) == cusp_census(P, colouring).total


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(integers(3, 5).flatmap(
    lambda k: tuples(just(k), lists(integers(1, (1 << k) - 1), min_size=6, max_size=6))))
def test_cusp_tori_are_the_union_find_components_on_random_colourings(drawn):
    k, vectors = drawn
    P = ideal_dual(gosset(3))
    colouring = Colouring(k, tuple(vectors))
    try:
        cusped = truncated_quotient(P, colouring)
    except ValidationError:  # improper at some face of the truncated polytope
        assume(False)
    _assert_cusps_are_cosets(P, colouring, cusped)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_p4_cusp_tori_are_the_union_find_components(seed):
    P = ideal_dual(gosset(4))
    colouring = _permuted_colouring(P.num_facets, seed)
    _assert_cusps_are_cosets(P, colouring, truncated_quotient(P, colouring))


def test_axis_paired_p4_cusps_are_the_union_find_components():
    # k = 7: three colours shared across the axis pairs of one ideal vertex
    P = ideal_dual(gosset(4))
    colouring = axis_paired_colouring(P)
    assert colouring.k == 7
    cusped = truncated_quotient(P, colouring)
    assert cusped.quotient.cell_counts() == (680, 2400, 2880, 1280, 128)
    _assert_cusps_are_cosets(P, colouring, cusped)


def test_truncated_quotient_needs_no_union_find(monkeypatch):
    def refuse(*args):
        raise AssertionError("union-find called")

    monkeypatch.setattr(moment_angle, "_component_roots", refuse)
    cusped = truncated_quotient(ideal_dual(gosset(3)))
    assert len(cusped.components) == 12
    assert all(c.keys_per_dim and len(c.keys_per_dim[-1]) == 16 for c in cusped.components)
