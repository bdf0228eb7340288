"""Isomorphism search on simplicial complexes and cube complexes."""

import random

from cuspforge.isomorphism import cubical_isomorphism, find_isomorphism
from cuspforge.moment_angle import real_moment_angle
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cycle_complex,
    octahedron_boundary,
)


def apply_iso(K, mapping):
    return build_simplicial(
        [tuple(mapping[v] for v in f) for f in K.facets], K.vertex_count
    )


def test_relabelled_simplex_boundaries_isomorphic():
    K = boundary_of_simplex(3)
    rng = random.Random(9)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        L = apply_iso(K, dict(enumerate(perm)))
        iso = find_isomorphism(K, L)
        assert iso is not None
        assert apply_iso(K, iso) == L


def test_triangle_vs_path_not_isomorphic():
    tri = build_simplicial([(0, 1), (1, 2), (0, 2)])
    path = build_simplicial([(0, 1), (1, 2), (2, 3)])
    assert find_isomorphism(tri, path) is None


def test_symmetric_and_reflexive():
    A = octahedron_boundary()
    B = apply_iso(A, {0: 3, 1: 2, 2: 5, 3: 4, 4: 0, 5: 1})
    assert find_isomorphism(A, A) is not None
    assert find_isomorphism(A, B) is not None and find_isomorphism(B, A) is not None


def test_deterministic_for_fixed_input():
    A = cycle_complex(6)
    B = apply_iso(A, {i: (i + 2) % 6 for i in range(6)})
    first = find_isomorphism(A, B)
    second = find_isomorphism(A, B)
    assert first == second


def test_all_64_links_isomorphic_to_base():
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    count = 0
    for v in Z.vertices():
        assert find_isomorphism(Z.link_of_vertex(v), K) is not None
        count += 1
    assert count == 64


def test_cubical_isomorphism_positive_and_negative():
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    perm = {0: 2, 1: 3, 2: 0, 3: 1, 4: 5, 5: 4}
    W = Z.relabel(perm)
    found = cubical_isomorphism(Z, W)
    assert found is not None
    other = real_moment_angle(boundary_of_simplex(2))
    assert cubical_isomorphism(Z, other) is None
