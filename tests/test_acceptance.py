"""Acceptance criteria, one test per criterion, exact values only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its headline numbers and timing.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from cuspforge.chains import (
    chain_complex_of,
    cohomology_z2_basis,
    homology,
    integral_homology_basis,
    subcomplex_selection,
)
from cuspforge.characteristic import (
    BOUNDING,
    LIE,
    bounding_filling_certificate,
    dirac_label,
    lie_cusp_certificate,
    orientability,
    spin_obstruction,
    spin_structures,
    summand_certificate,
)
from cuspforge.filling import (
    DiagonalChoice,
    dehn_fill,
    diagonals_from_filling,
    duality_check,
    enumerate_filling_choices,
    subdivide_cross_facets,
)
from cuspforge.isomorphism import cubical_isomorphism, find_isomorphism
from cuspforge.lattice import IDEAL, REAL, dualize
from cuspforge.moment_angle import (
    Colouring,
    colour_manifold,
    cusp_census,
    manifold_check,
    preimage_components,
    real_moment_angle,
    truncated_quotient,
)
from cuspforge.polytopes import (
    CROSS,
    SIMPLEX,
    abelianization_rank,
    gosset,
    ideal_dual,
    racg_data,
)
from cuspforge.simplicial import build_simplicial, octahedron_boundary

from dense_oracles import facet_vertex_sets


def report(criterion, elapsed, detail):
    print(f"criterion {criterion:>2}: PASS ({elapsed:.2f}s) {detail}")


@pytest.fixture(scope="module")
def p3_world():
    G = gosset(3)
    P = ideal_dual(G)
    target = octahedron_boundary()
    cube_choice = None
    for c in enumerate_filling_choices(P):
        filled = dehn_fill(P, c)
        if find_isomorphism(dualize(filled.lattice), target) is not None:
            cube_choice = c
            break
    filled = dehn_fill(P, cube_choice)
    K2 = subdivide_cross_facets(G, diagonals_from_filling(G, cube_choice))
    Z = colour_manifold(filled.lattice, Colouring.distinct(6))
    return {"G": G, "P": P, "choice": cube_choice, "filled": filled, "K2": K2, "Z": Z}


@pytest.fixture(scope="module")
def p4_world():
    G = gosset(4)
    P = ideal_dual(G)
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    K3 = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
    Z = colour_manifold(filled.lattice, Colouring.distinct(10))
    data_z2 = chain_complex_of(Z, "Z2")
    return {"G": G, "P": P, "choice": choice, "filled": filled, "K3": K3,
            "Z": Z, "data_z2": data_z2}


def test_criterion_01_bipyramid_and_cube_filling():
    t0 = time.monotonic()
    G = gosset(3)
    P = ideal_dual(G)
    assert P.num_facets == 6
    marks = [m for (k, _), m in zip(P.lattice.faces, P.lattice.marks) if k == 0]
    assert marks.count(IDEAL) == 3 and marks.count(REAL) == 2
    target = octahedron_boundary()
    cubes = 0
    simple = 0
    for c in enumerate_filling_choices(P):
        filled = dehn_fill(P, c)
        assert filled.lattice.is_simple()
        assert filled.lattice.num_facets == 6
        simple += 1
        if find_isomorphism(dualize(filled.lattice), target) is not None:
            cubes += 1
    elapsed = time.monotonic() - t0
    assert simple == 8 and cubes >= 1
    assert elapsed < 1.0
    report(1, elapsed, f"8/8 fillings simple, {cubes} combinatorial cubes")


def _simplex_volume(points):
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


def test_criterion_02_subdivision_counts():
    t0 = time.monotonic()
    counts = {}
    for n in (3, 4, 5):
        G = gosset(n)
        cross = np.flatnonzero(G.cross).tolist()
        facet = cross[0]
        d = DiagonalChoice({i: 0 for i in cross})
        K = subdivide_cross_facets(G, d)
        fv = facet_vertex_sets(G)[facet]
        counts[n] = len([f for f in K.facets if set(f) <= fv])
    assert counts == {3: 2, 4: 4, 5: 8}
    # independent enumeration oracle for the 16-cell: sign patterns on the
    # non-diagonal axes tile the full cross-polytope volume 2^4/4!
    coords = {}
    for i in range(4):
        coords[2 * i] = tuple(1 if j == i else 0 for j in range(4))
        coords[2 * i + 1] = tuple(-1 if j == i else 0 for j in range(4))
    pieces = []
    for signs in product((0, 1), repeat=3):
        pieces.append([coords[0], coords[1]] +
                      [coords[2 * (i + 1) + s] for i, s in enumerate(signs)])
    assert len({frozenset(p) for p in pieces}) == 8
    assert sum(_simplex_volume(p) for p in pieces) == Fraction(16, 24)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, elapsed, "square->2, octahedron->4, 16-cell->8 (volume oracle)")


def test_criterion_03_three_torus_complex():
    t0 = time.monotonic()
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    assert len(Z.vertices()) == 64
    assert len(Z.cells_of_dim(3)) == 64
    assert Z.euler_characteristic() == 0
    check = manifold_check(Z, K)
    assert check.passed and len(check.vertex_results) == 64
    betti_z = homology(chain_complex_of(Z, "Z"))
    betti_2 = homology(chain_complex_of(Z, "Z2"))
    assert betti_z.betti == (1, 3, 3, 1)
    assert all(not t for t in betti_z.torsion)
    assert betti_2.betti == (1, 3, 3, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, elapsed, "64 vertices, 64 cubes, links match, Betti (1,3,3,1)")


def test_criterion_04_proposition_isomorphism(p3_world):
    t0 = time.monotonic()
    Z1 = p3_world["Z"]
    Z2 = real_moment_angle(p3_world["K2"])
    assert duality_check(p3_world["filled"].lattice, p3_world["K2"])
    perm = cubical_isomorphism(Z1, Z2)
    assert perm is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(4, elapsed, "coloured filling and moment-angle complex isomorphic")


def test_criterion_05_censuses(p3_world, p4_world):
    t0 = time.monotonic()
    census3 = cusp_census(p3_world["P"])
    assert census3.total == 12
    pairs3 = list(p3_world["filled"].filling_faces.values())
    total3 = 0
    for pr in pairs3:
        rep = preimage_components(p3_world["Z"], tuple(sorted(pr)), pairs3)
        assert all(c == 4 for c in rep.cells_per_component)  # 2^(2n-4), n=3
        total3 += rep.components
    assert total3 == 12

    census4 = cusp_census(p4_world["P"])
    assert census4.total == 80
    pairs4 = list(p4_world["filled"].filling_faces.values())
    total4 = 0
    for pr in pairs4:
        rep = preimage_components(p4_world["Z"], tuple(sorted(pr)), pairs4)
        assert all(c == 16 for c in rep.cells_per_component)
        total4 += rep.components
    assert total4 == 80

    P8 = ideal_dual(gosset(8))
    census8 = cusp_census(P8)
    assert census8.total == 2160 * 2 ** 226
    assert census8.magnitude() == "2.32e71"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(5, elapsed, "12 and 80 match union-find; M8 total 2160*2^226 ~ 2.32e71")


def test_criterion_06_abelianization():
    t0 = time.monotonic()
    assert abelianization_rank(racg_data(ideal_dual(gosset(3)))) == 6
    assert abelianization_rank(racg_data(ideal_dual(gosset(8)))) == 240
    elapsed = time.monotonic() - t0
    report(6, elapsed, "ranks 6 and 240")


def test_criterion_07_stiefel_whitney_vanishing(p3_world, p4_world):
    t0 = time.monotonic()
    # dimension 3: the coloured filling of the bipyramid (a 3-torus)
    Z3 = p3_world["Z"]
    orient3 = orientability(Z3)
    wu3 = spin_obstruction(Z3)
    assert orient3.orientable and wu3.vanishes is True
    # dimension 4: the filled manifold on ~23k cells
    Z4 = p4_world["Z"]
    assert Z4.num_cells() == 23104
    check = manifold_check(Z4, p4_world["K3"])
    assert check.passed
    orient4 = orientability(Z4)
    assert orient4.orientable
    wu4 = spin_obstruction(Z4, p4_world["data_z2"])
    assert wu4.vanishes is True
    assert wu4.diagonal == (0,) * wu4.b2
    assert wu4.wu_class_coords == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(7, elapsed, f"w1=w2=0 in dims 3 and 4 (b2={wu4.b2}, even form)")


def test_criterion_08_bounding_chain(p3_world, p4_world):
    t0 = time.monotonic()
    results = {}
    for n, world in ((3, p3_world), (4, p4_world)):
        Z = world["Z"]
        orient = orientability(Z)
        wu = spin_obstruction(Z)
        spin = spin_structures(Z, None, orient, wu)
        census = cusp_census(world["P"])
        ids = [f"v{e.vertex}#{i}" for e in census.entries for i in range(e.components)]
        labels = bounding_filling_certificate(ids, orient, wu)
        assert len(labels) == census.total
        assert all(c.label == BOUNDING for c in labels)
        assert all("spin-verified filling" in c.provenance for c in labels)
        verdict = dirac_label([c.label for c in labels])
        assert verdict == "Discrete"
        results[n] = (census.total, spin.structure_count, verdict)
    elapsed = time.monotonic() - t0
    report(8, elapsed,
           f"n=3: {results[3][0]} cusps Bounding; n=4: {results[4][0]} cusps Bounding; dirac Discrete")


def test_criterion_09_summand_implies_lie(p3_world):
    t0 = time.monotonic()
    instances = []

    # coordinate subtorus of the 3-torus
    Z = real_moment_angle(octahedron_boundary())
    data = chain_complex_of(Z, "Z")
    allowed = {0, 1, 2, 3}
    frozen = [i for i in range(6) if i not in allowed]
    keys = [[], [], []]
    for d in range(3):
        for sup, sg in Z.cells_of_dim(d):
            if set(sup) <= allowed and all((sg >> i) & 1 for i in frozen):
                keys[d].append((sup, sg))
    instances.append((data, subcomplex_selection(data, keys), None))

    # all 12 cusp tori of the cusped 3-manifold
    cusped = truncated_quotient(p3_world["P"])
    mdata = chain_complex_of(cusped.quotient, "Z")
    parent_h1 = integral_homology_basis(mdata, 1)
    parent_coh = cohomology_z2_basis(mdata, 1)
    for comp in cusped.components:
        sel = subcomplex_selection(mdata, comp.keys_per_dim)
        instances.append((mdata, sel, (parent_h1, parent_coh)))

    checked = 0
    positives = 0
    for _data, sel, reuse in instances:
        ph1, pcoh = reuse if reuse else (None, None)
        cert = summand_certificate(sel, parent_basis=ph1)
        lie = lie_cusp_certificate(sel, parent_basis=pcoh)
        if cert.ok:
            positives += 1
            assert lie.ok, "summand certificate must imply Lie-achievability"
        checked += 1
    assert positives >= 1

    # injecting a Lie label flips the spectrum verdict
    labels = [BOUNDING] * 12
    assert dirac_label(labels) == "Discrete"
    labels[5] = LIE
    assert dirac_label(labels) == "Real"
    elapsed = time.monotonic() - t0
    report(9, elapsed,
           f"{positives}/{checked} certified summands all Lie-achievable; label flip works")


def test_criterion_10_negative_controls():
    t0 = time.monotonic()
    from cuspforge.lattice import polygon_lattice

    klein = colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    assert not orientability(klein).orientable

    mobius = build_simplicial([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])
    mdata = chain_complex_of(mobius, "Z")
    boundary_edges = sorted(
        e for e in mdata.cell_keys[1]
        if sum(1 for f in mobius.facets if set(e) <= set(f)) == 1
    )
    verts = sorted({(v,) for e in boundary_edges for v in e})
    sel = subcomplex_selection(mdata, [verts, boundary_edges])
    cert = summand_certificate(sel, expected_rank=1)
    assert not cert.ok and cert.invariant_factors == (2,)

    edge = build_simplicial([(0, 1)])
    bad = manifold_check(real_moment_angle(edge), edge)
    assert not bad.passed and not bad.target_closed
    elapsed = time.monotonic() - t0
    report(10, elapsed, "Klein not orientable; index-2 circle rejected; disc rejected")


def _hull_facets(points):
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq, 6))
        groups.setdefault(key, set()).update(int(i) for i in simplex)
    return sorted(sorted(g) for g in groups.values())


def test_criterion_11_gosset_generators():
    t0 = time.monotonic()
    expected_types = {3: (2, 3), 4: (5, 5), 5: (16, 10)}
    for n, (n_simplex, n_cross) in expected_types.items():
        G = gosset(n)
        assert G.facet_types.count(SIMPLEX) == n_simplex
        assert G.facet_types.count(CROSS) == n_cross
        coords = np.array(G.vertex_coordinates)
        if n == 4:
            coords = coords[:, :4]
        assert _hull_facets(coords) == sorted(sorted(f) for f in facet_vertex_sets(G))
    G6 = gosset(6)
    assert (G6.facet_types.count(SIMPLEX), G6.facet_types.count(CROSS)) == (72, 27)
    small = time.monotonic() - t0
    assert small < 60.0

    t8 = time.monotonic()
    G8 = gosset(8)
    P8 = ideal_dual(G8)
    assert len(P8.ideal_vertices) == 2160
    assert P8.num_facets == 240
    big = time.monotonic() - t8
    assert big < 60.0
    report(11, small + big,
           f"n<=6 hull/orbit oracles agree ({small:.1f}s); n=8 counts 2160/240 ({big:.1f}s)")
