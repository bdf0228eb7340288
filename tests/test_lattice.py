"""Face lattices, duality, and the stock polytope lattices."""

from collections import Counter
from math import comb

import pytest

from cuspforge.errors import ValidationError
from cuspforge.isomorphism import find_isomorphism
from cuspforge.lattice import (
    FaceLattice,
    cube_faces,
    cube_lattice,
    dualize,
    dualize_complex,
    polygon_lattice,
    simplex_lattice,
)
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import build_simplicial, octahedron_boundary


def test_cube_lattice_counts():
    C = cube_lattice(3)
    assert C.f_vector() == (8, 12, 6)
    assert C.euler_characteristic() == 2
    assert C.is_simple()
    assert C.lattice_check()


def test_cube_faces_give_the_cube_f_vector():
    for n in range(1, 6):
        axes = [(2 * a, 2 * a + 1) for a in range(n)]
        faces = list(cube_faces(axes))
        assert len(set(fs for _, fs in faces)) == len(faces)
        # an n-cube has C(n, k) 2^(n-k) faces of dimension k, i.e. codimension n-k
        assert Counter(c for c, _ in faces) == {c: comb(n, c) << c for c in range(1, n + 1)}
        assert all(len(fs) == c for c, fs in faces)


def test_polygon_and_simplex():
    P = polygon_lattice(5)
    assert P.f_vector() == (5, 5)
    assert P.is_simple()
    S = simplex_lattice(3)
    assert S.f_vector() == (4, 6, 4)
    assert S.lattice_check()


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
    for lat in (cube_lattice(3), cube_lattice(4), polygon_lattice(6), simplex_lattice(3)):
        K = dualize(lat)
        back = dualize_complex(K)
        assert back.faces == lat.faces
        assert dualize(back) == K


def test_dualize_requires_simple():
    P = ideal_dual(gosset(3))  # bipyramid: ideal vertices lie in 4 facets
    assert not P.lattice.is_simple()
    with pytest.raises(ValidationError):
        dualize(P.lattice)


def test_dualize_complex_requires_closed():
    path = build_simplicial([(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        dualize_complex(path)


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
