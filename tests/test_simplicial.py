"""Simplicial complex construction, closure, links, serialization."""

import ast
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import composite, integers, lists, permutations, sampled_from, sets

from cuspforge import lattice, simplicial
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

from dense_oracles import SimplicialComplexOracle, closed_pseudomanifold_oracle, maximal_facets_oracle


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
    faces = set(K.all_faces())
    for f in faces:
        if len(f) > 1:
            for j in range(len(f)):
                assert f[:j] + f[j + 1:] in faces


def test_facet_deduplication_and_maximality():
    K = build_simplicial([(0, 1, 2), (0, 1), (2, 1, 0), (3,)])
    assert K.facets == ((0, 1, 2), (3,))


@composite
def nested_facet_lists(draw):
    """Random facets of mixed widths on up to ten of m vertices (m up to
    300), with repeats in another vertex order, faces of earlier facets,
    several facets of one size, and a vertex subset to restrict to."""
    m = draw(sampled_from((1, 2, 3, 4, 5, 6, 8, 12, 40, 300)))
    pool = sorted(draw(sets(integers(0, m - 1), min_size=1, max_size=10)))
    size = draw(integers(1, len(pool)))
    facets = [tuple(draw(lists(sampled_from(pool), min_size=1, max_size=len(pool))))
              for _ in range(draw(integers(1, 6)))]
    facets += [tuple(draw(permutations(pool))[:size]) for _ in range(draw(integers(0, 4)))]
    for _ in range(draw(integers(0, 6))):
        f = draw(sampled_from(facets))
        kind = draw(sampled_from(("repeat", "reversed", "face")))
        if kind == "face":
            f = f[:draw(integers(1, len(f)))]
        facets.append(tuple(reversed(f)) if kind == "reversed" else f)
    return m, draw(permutations(facets)), draw(sets(sampled_from(pool)))


def _outcome(build):
    """What ``build()`` returns, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


# 301^8 >= 2^64, so the width-8 rows are keyed by their ranks; packed mod
# 2^64, (83, ..., 90) would sort before (1, ..., 7, 300)
@example(case=(301, [tuple(range(83, 91)), (1, 2, 3, 4, 5, 6, 7, 300), tuple(range(293, 301)), (300, 0), (7,),
                     (0, 1, 2)], {0, 300, 7, 83}))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=nested_facet_lists())
def test_maximal_facets_match_the_quadratic_filter(case):
    """The row complex against the per-facet oracle on the same facets:
    facet order, faces, links, full subcomplexes, equality, hashes,
    pickles and JSON bytes."""
    m, facets, subset = case
    K, want = SimplicialComplex(m, facets), SimplicialComplexOracle(m, facets)
    assert K.facets == want.facets == maximal_facets_oracle([tuple(sorted(set(f))) for f in facets])
    assert [K.faces_of_dim(k) for k in range(-1, K.dim + 2)] == [want.faces_of_dim(k) for k in range(-1, K.dim + 2)]
    assert K.to_json() == want.to_json()
    for v in sorted(set(K.vertices()) | {0, m - 1}):
        link, want_link = _outcome(lambda: K.link_of_vertex(v)), _outcome(lambda: want.link_of_vertex(v))
        assert getattr(link, "facets", link) == getattr(want_link, "facets", want_link)
    sub, want_sub = K.full_subcomplex(subset), want.full_subcomplex(subset)
    assert getattr(sub, "facets", sub) == getattr(want_sub, "facets", want_sub)
    again = SimplicialComplex(m, list(reversed(want.facets)))
    assert again == K and hash(again) == hash(K)
    back = pickle.loads(pickle.dumps(K))
    assert back == K and hash(back) == hash(K) and back.f_vector() == K.f_vector()
    assert pickle.dumps(back) == pickle.dumps(K) and back.to_json() == K.to_json()
    fewer = facets[1:] or facets
    assert (SimplicialComplex(m, fewer) == K) == (SimplicialComplexOracle(m, fewer) == want)
    assert SimplicialComplex(m + 1, facets) != K


BAD_INPUT = {
    "float entry": lambda: SimplicialComplex(3, [(0, 1.5)]),
    "bool entry": lambda: SimplicialComplex(3, [(True, 2)]),
    "float vertex count": lambda: SimplicialComplex(3.5, [(0, 1)]),
    "bool vertex count": lambda: SimplicialComplex(True, [(0,)]),
    "integral float, inferred count": lambda: build_simplicial([(0, 1.0)]),
    "bool link vertex": lambda: octahedron_boundary().link_of_vertex(True),
    "float link vertex": lambda: octahedron_boundary().link_of_vertex(1.0),
    "float subset vertex": lambda: octahedron_boundary().full_subcomplex([0, 2.0]),
    "string facet": lambda: SimplicialComplex(3, ["01"]),
    "facet not iterable": lambda: SimplicialComplex(3, [5]),
    "index past int64": lambda: SimplicialComplex(1 << 64, [(0, 1 << 63)]),
    "index below int64": lambda: SimplicialComplex(3, [(0, -(1 << 63) - 1)]),
    "numpy index past int64": lambda: SimplicialComplex(1 << 64, [(0, np.uint64((1 << 64) - 1))]),
}


@pytest.mark.parametrize("case", [*BAD_INPUT, "numpy integers"])
def test_vertex_indices_are_ints(case):
    """Bools, floats, strings and indices outside int64 are refused with
    exit code 2; numpy integers are taken and stored as Python ints."""
    if case != "numpy integers":
        with pytest.raises(ValidationError) as info:
            BAD_INPUT[case]()
        assert info.value.exit_code == 2
        return
    K = SimplicialComplex(np.int64(3), [np.array([0, 2]), (np.int32(1), np.uint8(2))])
    assert K == SimplicialComplex(3, [(0, 2), (1, 2)])
    assert {type(v) for f in K.facets for v in f} == {int} and type(K.vertex_count) is int
    assert K.to_json() == json.dumps({"facets": [[0, 2], [1, 2]], "type": "simplicial", "vertices": 3},
                                     separators=(",", ":"))
    assert K.link_of_vertex(np.int64(2)).facets == ((0,), (1,))


def test_one_row_constructor_and_dualize_reads_rows():
    """``simplicial.py`` cleans no facet with a frozenset or ``sorted(set(``,
    and ``lattice.dualize`` reads no per-face view or face lookup."""
    tree = ast.parse(Path(simplicial.__file__).read_text())
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "frozenset"
             or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted" and node.args
             and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "set"]
    assert stray == []
    dualize = next(node for node in ast.walk(ast.parse(Path(lattice.__file__).read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "dualize")
    assert [node.attr for node in ast.walk(dualize)
            if isinstance(node, ast.Attribute) and node.attr in {"faces", "has_face", "vertex_faces"}] == []


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
    # indices far above the count of entries: the writer slots only the distinct ones
    big = SimplicialComplex(1 << 62, [(0, (1 << 62) - 1), (10 ** 12,)])
    assert big.to_json() == SimplicialComplexOracle(1 << 62, big.facets).to_json()
    assert SimplicialComplex.from_json(big.to_json()) == big


def test_connectivity():
    assert homology(chain_complex_of(cycle_complex(6), "Z2")).betti[0] == 1
    assert homology(chain_complex_of(two_points(), "Z2")).betti[0] == 2
