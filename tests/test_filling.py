"""Dehn filling, cross-facet subdivision, and the duality consistency check."""

import re
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from cuspforge.errors import ValidationError
from cuspforge.filling import (
    DiagonalChoice,
    FillingChoice,
    auto_diagonals,
    dehn_fill,
    diagonals_from_filling,
    duality_check,
    enumerate_filling_choices,
    replace_ideal_vertices,
    subdivide_cross_facets,
)
from cuspforge.isomorphism import find_isomorphism
from cuspforge.lattice import FaceLattice, cube_lattice, dualize
from cuspforge.moment_angle import truncate_ideal
from cuspforge.pipeline import PipelineConfig, StageError, run_pipeline
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import cross_polytope_boundary, octahedron_boundary

from dense_oracles import duality_check_oracle, facet_vertex_sets, subdivide_cross_facets_oracle


def cross_ids(G):
    return np.flatnonzero(G.cross).tolist()


def test_bipyramid_has_eight_choices_two_cubes():
    G = gosset(3)
    P = ideal_dual(G)
    choices = list(enumerate_filling_choices(P))
    assert len(choices) == 8
    oct_b = octahedron_boundary()
    cubes = 0
    for c in choices:
        filled = dehn_fill(P, c)
        assert filled.lattice.is_simple()
        assert filled.lattice.num_facets == 6
        assert filled.lattice.f_vector() == (8, 12, 6)
        if find_isomorphism(dualize(filled.lattice), oct_b) is not None:
            cubes += 1
    assert cubes == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_per_vertex_choice_count_is_n_minus_one(n):
    P = ideal_dual(gosset(n))
    assert all(len(P.axes_of(v)) == n - 1 for v in P.ideal_vertices)


def test_filling_preserves_untouched_faces_and_adds_cubes():
    P = ideal_dual(gosset(4))
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    ideal = set(P.ideal_vertices)
    old_faces = {s for k, s in P.lattice.faces if not (k == 0 and s in ideal)}
    new_faces = {s for k, s in filled.lattice.faces} - old_faces
    assert old_faces <= {s for _, s in filled.lattice.faces}
    rank_of = {s: k for k, s in filled.lattice.faces}
    ranks = sorted(rank_of[s] for s in filled.filling_faces.values())
    assert ranks == [P.n - 2] * len(P.ideal_vertices)
    assert set(filled.filling_faces.values()) <= new_faces


def test_missing_and_invalid_choices_rejected():
    P = ideal_dual(gosset(3))
    first = sorted(P.ideal_vertices, key=sorted)[0]
    with pytest.raises(ValidationError, match=re.escape(f"missing filling choice at ideal vertex {sorted(first)}")):
        dehn_fill(P, FillingChoice({}))  # the first missing vertex in sorted order
    bad = FillingChoice({frozenset(v): 99 for v in P.ideal_vertices})
    with pytest.raises(ValidationError):
        dehn_fill(P, bad)


@pytest.mark.parametrize("n, count", [(3, 8), (4, 16), (5, 1)])
def test_one_rewrite_fills_and_truncates_as_the_separate_rewrites_did(n, count):
    from dense_oracles import dehn_fill_oracle, truncate_ideal_oracle

    P = ideal_dual(gosset(n))
    for choice in islice(enumerate_filling_choices(P), count):
        filled, want = dehn_fill(P, choice), dehn_fill_oracle(P, choice)
        assert filled.lattice.to_json() == want.lattice.to_json()
        assert filled.filling_faces == want.filling_faces
    trunc, want = truncate_ideal(P), truncate_ideal_oracle(P)
    assert trunc.to_json() == want.to_json()
    # ideal row t is cut off by facet num_facets + t: the facets meeting it are the row's
    for t, row in enumerate(P.ideal_rows.tolist()):
        cid = P.num_facets + t
        assert set().union(*(s for _, s in trunc.faces if cid in s)) == {cid, *row}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_array_rewrite_matches_the_per_face_rewrite(n):
    """Both callers' inputs: a filling's chosen pairs with the other pairs,
    and the truncation's new facets with every pair."""
    from dense_oracles import replace_ideal_vertices_oracle

    P = ideal_dual(gosset(n))
    f, m = P.num_facets, len(P.ideal_rows)
    chosen, others = P.axis_rows[:, -1], P.axis_rows[:, :-1]
    cases = [
        (f, chosen, others, [(frozenset(p), [tuple(q) for q in rest])
                             for p, rest in zip(chosen.tolist(), others.tolist())]),
        (f + m, np.arange(f, f + m).reshape(m, 1), P.axis_rows,
         [(frozenset({f + j}), P.axes_of(v)) for j, v in enumerate(P.ideal_vertices)]),
    ]
    for num_facets, base, axes, cubes in cases:
        L = replace_ideal_vertices(P, num_facets, base, axes, "test")
        assert L.to_json() == replace_ideal_vertices_oracle(P, num_facets, cubes, "test").to_json()


def cross_subdivision_tops(G, facet_id, pair_idx):
    d = DiagonalChoice({i: (pair_idx if i == facet_id else 0) for i in cross_ids(G)})
    K = subdivide_cross_facets(G, d)
    fv = facet_vertex_sets(G)[facet_id]
    return [f for f in K.facets if set(f) <= fv]


def test_square_splits_into_two_triangles():
    G = gosset(3)
    facet = cross_ids(G)[0]
    tris = cross_subdivision_tops(G, facet, 0)
    assert len(tris) == 2
    assert all(len(t) == 3 for t in tris)


def test_octahedron_splits_into_four_tetrahedra():
    G = gosset(4)
    facet = cross_ids(G)[0]
    tets = cross_subdivision_tops(G, facet, 0)
    assert len(tets) == 4
    assert all(len(t) == 4 for t in tets)


def simplex_volume(points):
    base = points[0]
    mat = [[Fraction(x - b) for x, b in zip(p, base)] for p in points[1:]]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return abs(det) / fact


def test_16_cell_splits_into_eight_simplexes_volume_oracle():
    # cross-polytope in R^4 on +-e_i; diagonal +-e_1; independent check
    # that the 2^(4-2)... times-two sign patterns of the remaining axes
    # tile the full volume 2^4/4!
    d = 4
    coords = {}
    for i in range(d):
        plus = tuple(1 if j == i else 0 for j in range(d))
        minus = tuple(-1 if j == i else 0 for j in range(d))
        coords[2 * i] = plus
        coords[2 * i + 1] = minus
    pieces = []
    for signs in product((0, 1), repeat=d - 1):
        verts = [coords[0], coords[1]]
        verts += [coords[2 * (i + 1) + s] for i, s in enumerate(signs)]
        pieces.append(verts)
    assert len(pieces) == 8
    total = sum(simplex_volume(p) for p in pieces)
    assert total == Fraction(2 ** d, 24)
    assert len({frozenset(p) for p in pieces}) == 8
    # the library's subdivision of a 16-cell facet of G^5 gives 8 simplexes
    G = gosset(5)
    facet = cross_ids(G)[0]
    tops = cross_subdivision_tops(G, facet, 0)
    assert len(tops) == 8
    assert all(len(t) == 5 for t in tops)


def test_subdivision_shares_chosen_diagonal():
    G = gosset(4)
    for facet, pairs in zip(cross_ids(G), G.pair_rows.tolist()):
        for idx in range(3):
            tops = cross_subdivision_tops(G, facet, idx)
            diag = set(pairs[idx])
            assert all(diag <= set(t) for t in tops)


def test_duality_grid_for_bipyramid():
    G = gosset(3)
    P = ideal_dual(G)
    choices = list(enumerate_filling_choices(P))
    hits = 0
    for c in choices:
        filled = dehn_fill(P, c)
        for combo in product(range(2), repeat=3):
            d = DiagonalChoice(dict(zip(cross_ids(G), combo)))
            K = subdivide_cross_facets(G, d)
            if duality_check(filled.lattice, K):
                hits += 1
    assert hits == 8  # exactly the corresponding pairs


def test_duality_check_matches_building_the_dual():
    """The check reads the given complex's facets and closure; building the
    dual and comparing gives the same verdict, true or false."""
    G = gosset(3)
    P = ideal_dual(G)
    cases = [(dehn_fill(P, c).lattice, subdivide_cross_facets(G, DiagonalChoice(dict(zip(cross_ids(G), combo)))))
             for c in islice(enumerate_filling_choices(P), 3) for combo in product(range(2), repeat=3)]
    cube, octahedron = cube_lattice(3), cross_polytope_boundary(3)
    # facets 0 and 1 are opposite walls: their edge has the right vertex rows but no dual simplex
    fake_edge = FaceLattice(3, 6, list(cube.faces) + [(1, {0, 1})])
    cases += [(cube, octahedron), (fake_edge, octahedron), (P.lattice, dualize(cube)),
              (cube, cross_polytope_boundary(4)), (cube_lattice(4), octahedron)]
    verdicts = [duality_check(pbar, K) for pbar, K in cases]
    assert verdicts == [duality_check_oracle(pbar, K) for pbar, K in cases]
    assert verdicts[-5:] == [True, False, False, False, False] and 0 < sum(verdicts) < len(verdicts) - 4


def test_duality_vertex_facet_count_identity():
    G = gosset(4)
    P = ideal_dual(G)
    c = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, c)
    K = subdivide_cross_facets(G, diagonals_from_filling(G, c))
    assert duality_check(filled.lattice, K)
    assert len(dualize(filled.lattice).facets) == len(K.facets)
    assert dualize(filled.lattice).vertex_count == K.vertex_count


@pytest.mark.parametrize("n", [4, 5])
def test_duality_holds_in_higher_dimensions(n):
    G = gosset(n)
    P = ideal_dual(G)
    choice = FillingChoice({frozenset(v): (n - 2) for v in P.ideal_vertices})
    filled = dehn_fill(P, choice)
    assert filled.lattice.is_simple()
    K = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
    assert duality_check(filled.lattice, K)


def test_all_p4_fillings_simple():
    P = ideal_dual(gosset(4))
    count = 0
    for c in enumerate_filling_choices(P):
        assert dehn_fill(P, c).lattice.is_simple()
        count += 1
    assert count == 3 ** 5


def test_auto_diagonals_cover_cross_facets():
    G = gosset(4)
    d = auto_diagonals(G)
    assert sorted(d.pair_index) == cross_ids(G)
    subdivide_cross_facets(G, d)
    bad = DiagonalChoice({int(np.flatnonzero(~G.cross)[0]): 0})
    with pytest.raises(ValidationError):
        subdivide_cross_facets(G, bad)


@pytest.mark.parametrize("n, count", [(3, 8), (4, 16), (5, 1), (6, 1), (7, 1)])
def test_subdivision_matches_the_per_facet_oracle(n, count):
    G = gosset(n)
    P = ideal_dual(G)
    for choice in islice(enumerate_filling_choices(P), count):
        d = diagonals_from_filling(G, choice)
        K, want = subdivide_cross_facets(G, d), subdivide_cross_facets_oracle(G, d)
        assert K == want and K.to_json() == want.to_json()


# -- typed refusals at the filling inputs ------------------------------------


def refused(fn, *args, match):
    with pytest.raises(ValidationError, match=match) as exc:
        fn(*args)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("index", [True, 1.0, "1", None])
def test_an_axis_index_that_is_not_an_int_is_refused(index):
    P = ideal_dual(gosset(3))
    choice = FillingChoice({v: 0 for v in P.ideal_vertices} | {P.ideal_vertices[1]: index})
    refused(dehn_fill, P, choice, match=re.escape(f"axis index {index!r} at {sorted(P.ideal_vertices[1])} is not"))


@pytest.mark.parametrize("index", [True, 1.0])
def test_a_diagonal_index_that_is_not_an_int_is_refused(index):
    G = gosset(4)
    facet = cross_ids(G)[2]
    d = DiagonalChoice({i: index if i == facet else 0 for i in cross_ids(G)})
    refused(subdivide_cross_facets, G, d, match=re.escape(f"diagonal index {index!r} for facet {facet} is not"))


def test_diagonals_from_a_choice_missing_a_vertex_are_refused():
    G = gosset(4)
    P = ideal_dual(G)
    last = P.ideal_vertices[-1]
    choice = FillingChoice({v: 0 for v in P.ideal_vertices[:-1]})
    refused(diagonals_from_filling, G, choice, match=re.escape(f"missing filling choice at ideal vertex {sorted(last)}"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_diagonal_key_past_the_facet_count_is_refused(n):
    G = gosset(n)
    for key in (len(G.cross), len(G.cross) + 7):
        d = DiagonalChoice({i: 0 for i in cross_ids(G)} | {key: 0})
        refused(subdivide_cross_facets, G, d, match=f"facet {key} is not a cross-polytope")


@pytest.mark.parametrize("n", [4, 5])
def test_a_negative_diagonal_key_is_refused_where_the_last_facet_is_a_cross_facet(n):
    G = gosset(n)
    assert G.cross[-1]
    d = DiagonalChoice({i: 0 for i in cross_ids(G)} | {-1: 0})
    refused(subdivide_cross_facets, G, d, match="facet -1 is not a cross-polytope")


def test_a_float_choice_fails_the_fill_stage_with_a_validation_exit():
    P = ideal_dual(gosset(3))
    choices = {tuple(sorted(v)): 0 for v in P.ideal_vertices}
    choices[tuple(sorted(P.ideal_vertices[0]))] = 0.0
    with pytest.raises(StageError) as exc:
        run_pipeline(PipelineConfig(n=3, choices=choices))
    assert exc.value.stage == "fill" and exc.value.exit_code == 2
    assert isinstance(exc.value.__cause__, ValidationError)
