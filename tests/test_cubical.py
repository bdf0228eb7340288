"""Cube subcomplexes: closure, symmetries, links, serialization."""

import json

import pytest

from cuspforge.cubical import CubicalComplex
from cuspforge.errors import BudgetError, ValidationError
from cuspforge.gf2 import vector_from_indices
from cuspforge.isomorphism import find_isomorphism
from cuspforge.lattice import polygon_lattice
from cuspforge.moment_angle import (
    Colouring,
    colour_manifold,
    manifold_check,
    moment_angle_cell_count,
    real_moment_angle,
)
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cycle_complex,
    octahedron_boundary,
    two_points,
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
        assert Z.num_cells() == expected == moment_angle_cell_count(K)


def test_euler_characteristic_formula():
    # chi = sum over faces (and the empty face) of (-1)^|sigma| 2^(m-|sigma|)
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    m = K.vertex_count
    chi = 1 << m
    for k in range(K.dim + 1):
        chi += ((-1) ** (k + 1)) * len(K.faces_of_dim(k)) * (1 << (m - k - 1))
    assert Z.euler_characteristic() == chi == 0


def test_sign_flips_are_automorphisms_and_transitive():
    Z = real_moment_angle(octahedron_boundary())
    for axis in range(6):
        assert Z.sign_flip(axis) == Z
    # flips act transitively on vertices: any sign pattern is reachable
    start = ((), 0)
    target = ((), 0b101011)
    W = Z
    for i in range(6):
        if (target[1] >> i) & 1:
            W = W.sign_flip(i)
    assert W == Z
    assert target in Z.cell_set()


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


def test_budget_enforced():
    with pytest.raises(BudgetError):
        real_moment_angle(octahedron_boundary(), budget=100)


def test_json_and_rzk1_roundtrip():
    Z = real_moment_angle(boundary_of_simplex(2))
    assert CubicalComplex.from_json(Z.to_json()) == Z
    blob = Z.to_rzk1()
    assert blob[:4] == b"RZK1"
    assert CubicalComplex.from_rzk1(blob) == Z


def test_rzk1_rejects_garbage():
    with pytest.raises(ValidationError):
        CubicalComplex.from_rzk1(b"NOPE" + b"\0" * 16)


def test_relabel_permutes_structure():
    Z = real_moment_angle(octahedron_boundary())
    perm = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}  # swap within antipodal pairs
    W = Z.relabel(perm)
    assert W.cell_counts() == Z.cell_counts()
    assert W == Z  # swapping a pair is a symmetry of the octahedron complex
