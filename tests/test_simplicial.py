"""Simplicial complex construction, closure, links, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis.strategies import composite, integers, lists, permutations, sampled_from

from cuspforge.errors import ValidationError
from cuspforge.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    build_simplicial,
    cross_polytope_boundary,
    cycle_complex,
    octahedron_boundary,
    two_points,
)

from cuspforge.chains import chain_complex_of, homology

from dense_oracles import closed_pseudomanifold_oracle, maximal_facets_oracle


def test_triangle_cycle():
    K = build_simplicial([(1, 2), (2, 3), (1, 3)])
    assert K.f_vector() == (3, 3)
    assert K.euler_characteristic() == 0


def test_octahedron_counts():
    K = octahedron_boundary()
    assert K.f_vector() == (6, 12, 8)
    assert K.euler_characteristic() == 2
    assert closed_pseudomanifold_oracle(K)


def subdivided_prism_boundary():
    # prism boundary with each square split along a fixed diagonal
    tops = [(0, 1, 2), (3, 4, 5)]
    squares = [((0, 1), (3, 4)), ((1, 2), (4, 5)), ((0, 2), (3, 5))]
    tris = []
    for (a, b), (c, d) in squares:  # a-b top edge, c-d the shifted copy
        tris.append((a, b, d))
        tris.append((a, c, d))
    return build_simplicial(tops + tris)


def test_subdivided_prism_is_a_2_sphere():
    K = subdivided_prism_boundary()
    assert K.f_vector() == (6, 12, 8)
    assert K.euler_characteristic() == 2
    assert closed_pseudomanifold_oracle(K)


def test_closure_property():
    K = boundary_of_simplex(3)
    for f in K.all_faces():
        if len(f) > 1:
            for j in range(len(f)):
                assert K.has_face(f[:j] + f[j + 1:])


def test_facet_deduplication_and_maximality():
    K = build_simplicial([(0, 1, 2), (0, 1), (2, 1, 0), (3,)])
    assert K.facets == ((0, 1, 2), (3,))


@composite
def nested_facet_lists(draw):
    """Random facets on up to eight vertices, with repeats in another vertex
    order, faces of earlier facets, and several facets of one size."""
    m = draw(integers(1, 8))
    size = draw(integers(1, m))
    facets = [tuple(draw(lists(integers(0, m - 1), min_size=1, max_size=m)))
              for _ in range(draw(integers(1, 6)))]
    facets += [tuple(draw(permutations(range(m)))[:size]) for _ in range(draw(integers(0, 4)))]
    for _ in range(draw(integers(0, 6))):
        f = draw(sampled_from(facets))
        kind = draw(sampled_from(("repeat", "reversed", "face")))
        if kind == "face":
            f = f[:draw(integers(1, len(f)))]
        facets.append(tuple(reversed(f)) if kind == "reversed" else f)
    return m, draw(permutations(facets))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=nested_facet_lists())
def test_maximal_facets_match_the_quadratic_filter(case):
    m, facets = case
    K = SimplicialComplex(m, facets)
    assert K.facets == maximal_facets_oracle([tuple(sorted(set(f))) for f in facets])


def test_errors():
    with pytest.raises(ValidationError):
        build_simplicial([])
    with pytest.raises(ValidationError):
        build_simplicial([()])
    with pytest.raises(ValidationError):
        SimplicialComplex(2, [(0, 5)])


def test_link_of_octahedron_vertex_is_square():
    K = octahedron_boundary()
    link = K.link_of_vertex(0)
    assert link.f_vector() == (4, 4)
    assert link.euler_characteristic() == 0


def test_link_missing_vertex():
    with pytest.raises(ValidationError):
        two_points().link_of_vertex(5)


def test_cross_polytope_boundary_general():
    K = cross_polytope_boundary(4)
    assert K.f_vector() == (8, 24, 32, 16)
    assert K.euler_characteristic() == 0
    assert closed_pseudomanifold_oracle(K)


def test_full_subcomplex():
    K = octahedron_boundary()
    pair = K.full_subcomplex({0, 1})  # antipodal: two points
    assert pair is not None and pair.f_vector() == (2,)
    tri = K.full_subcomplex({0, 2, 4})
    assert tri.f_vector() == (3, 3, 1)


def test_json_roundtrip():
    K = octahedron_boundary()
    assert SimplicialComplex.from_json(K.to_json()) == K


def test_connectivity():
    assert homology(chain_complex_of(cycle_complex(6), "Z2")).betti[0] == 1
    assert homology(chain_complex_of(two_points(), "Z2")).betti[0] == 2
