"""Orientability, spin obstruction, certificates, spectrum labels."""

import random

import pytest

from cuspforge.chains import (
    ChainComplexData,
    SubcomplexSelection,
    chain_complex_of,
    cohomology_z2_basis,
    homology,
    integral_homology_basis,
    subcomplex_selection,
)
from cuspforge.characteristic import (
    BOUNDING,
    LIE,
    UNDETERMINED,
    bounding_filling_certificate,
    dirac_label,
    intersection_form,
    lie_cusp_certificate,
    orientability,
    spin_obstruction,
    spin_structures,
    summand_certificate,
)
from cuspforge.errors import CertificateError, ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices
from cuspforge.gf2 import rank_of_rows
from cuspforge.lattice import cube_lattice, polygon_lattice
from cuspforge.moment_angle import Colouring, colour_manifold, real_moment_angle, truncated_quotient
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cycle_complex,
    octahedron_boundary,
)

from dense_oracles import cup_product, entry_rows, gf2_rows_oracle, intersection_form_oracle


def klein_complex():
    return colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))


def test_orientability_standard_cases():
    assert orientability(real_moment_angle(octahedron_boundary())).orientable
    assert orientability(real_moment_angle(boundary_of_simplex(2))).orientable
    assert not orientability(klein_complex()).orientable


def test_orientability_reads_the_integral_incidences_of_z2_chain_data():
    # the pipeline hands its Z/2-tagged chain data to orientability
    for X in (real_moment_angle(octahedron_boundary()), klein_complex()):
        assert orientability(X, chain_complex_of(X, "Z2")) == orientability(X)


def test_orientability_rejects_non_closed():
    disc = real_moment_angle(build_simplicial([(0, 1)]))
    with pytest.raises(ValidationError):
        orientability(disc)


def _filled_p4():
    P = ideal_dual(gosset(4))
    filled = dehn_fill(P, next(enumerate_filling_choices(P)))
    return colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))


ORIENTABLE = {
    "RZ over the 4-cycle": lambda: real_moment_angle(cycle_complex(4)),
    "3-torus": lambda: real_moment_angle(octahedron_boundary()),
    "4-torus": lambda: colour_manifold(cube_lattice(4), Colouring.distinct(8)),
    "filled P^4": _filled_p4,
    "colour quotient of the 4-cube": lambda: colour_manifold(cube_lattice(4), Colouring(4, (1, 1, 2, 2, 4, 4, 8, 8))),
}


@pytest.mark.parametrize("name", sorted(ORIENTABLE))
def test_orientation_vector_is_certified(name):
    """The signs certify themselves: sum of sign * incidence over d_top is
    zero at every ridge, summed here from the entries."""
    X = ORIENTABLE[name]()
    data = chain_complex_of(X, "Z")
    res = orientability(X, data)
    n = data.top_dim
    assert res.orientable and res.top_cells == data.size(n) == len(res.orientation)
    assert set(res.orientation) <= {-1, 1}
    ptr, faces, coeffs = data.incidences[n]
    boundary = [0] * data.size(n - 1)
    for c in range(data.size(n)):
        for p in range(ptr[c], ptr[c + 1]):
            boundary[faces[p]] += res.orientation[c] * int(coeffs[p])
    assert not any(boundary)
    assert not orientability(klein_complex()).orientable


def test_spin_obstruction_by_dimension():
    t3 = real_moment_angle(octahedron_boundary())
    wu3 = spin_obstruction(t3)
    assert wu3.vanishes is True and "dimension-forced" in wu3.provenance
    s2 = real_moment_angle(boundary_of_simplex(2))
    assert spin_obstruction(s2).vanishes is True
    rp2 = colour_manifold(polygon_lattice(3), Colouring(2, (0b01, 0b10, 0b11)))
    assert spin_obstruction(rp2).vanishes is False  # chi odd

    t4 = colour_manifold(cube_lattice(4), Colouring.distinct(8))
    wu4 = spin_obstruction(t4)
    assert wu4.vanishes is True
    assert wu4.b2 == 6
    assert wu4.diagonal == (0,) * 6

    from cuspforge.simplicial import cross_polytope_boundary

    t5 = real_moment_angle(cross_polytope_boundary(5))
    wu5 = spin_obstruction(t5)
    assert wu5.vanishes is None
    assert "not computed" in wu5.provenance


def test_spin_obstruction_refuses_non_closed_complexes():
    # the cusped P^3 quotient has boundary tori: orientability and the spin
    # obstruction refuse it in the same words
    quotient = truncated_quotient(ideal_dual(gosset(3))).quotient
    data = chain_complex_of(quotient, "Z2")
    for check in (orientability, spin_obstruction):
        with pytest.raises(ValidationError) as refusal:
            check(quotient, data)
        assert str(refusal.value) == "complex is not closed: ridge 192 lies in 1 top cells"
        assert refusal.value.exit_code == 2
    disc = real_moment_angle(build_simplicial([(0, 1)]))
    with pytest.raises(ValidationError, match="^complex is not closed: "):
        spin_obstruction(disc)


def test_spin_obstruction_refuses_non_orientable_complexes():
    # w2 = v2 + w1^2: in dimensions 3 and 4 the obstruction finds v2 alone.
    # RP^2 x S^1 is closed with H_1 = Z + Z/2 and not spin; K x T^2 is 4-dimensional
    rp2_s1 = colour_manifold(gosset(3).lattice, Colouring(3, (4, 1, 2, 3, 4)))
    assert homology(chain_complex_of(rp2_s1, "Z")).torsion[1] == (2,)
    klein_t2 = colour_manifold(cube_lattice(4), Colouring(4, (1, 3, 2, 2, 4, 4, 8, 8)))
    for X, n in ((rp2_s1, 3), (klein_t2, 4)):
        data = chain_complex_of(X, "Z2")
        with pytest.raises(ValidationError) as refusal:
            spin_obstruction(X, data)
        assert str(refusal.value) == (f"spin obstruction in dimension {n} needs an orientable complex; "
                                      "this one is not orientable")
        assert refusal.value.exit_code == 2
        assert data._orientability == orientability(X) and not data._orientability.orientable


def test_spin_obstruction_invariant_under_relabelling():
    t4 = colour_manifold(cube_lattice(4), Colouring.distinct(8))
    perm = {i: (i + 2) % 8 for i in range(8)}
    relabelled = t4.relabel(perm)
    a = spin_obstruction(t4)
    b = spin_obstruction(relabelled)
    assert a.vanishes == b.vanishes and a.b2 == b.b2


def test_cup_products_refuse_non_cubical_cells():
    # a non-distinct colouring gives polytopal cells keyed (face id, coset)
    Q = colour_manifold(cube_lattice(4), Colouring(4, (1, 1, 2, 2, 4, 4, 8, 8)))
    data = chain_complex_of(Q, "Z2")
    with pytest.raises(ValidationError):
        cup_product(data, 0, 0, 1, 1)
    with pytest.raises(ValidationError):
        spin_obstruction(Q, data)


def _intersection_form_oracle(data):
    """Reference form: every basis pair summed over every splitting, one bit at a time."""
    basis = cohomology_z2_basis(data, 2)
    reps = basis.representatives
    b2 = len(reps)
    idx2 = {key: i for i, key in enumerate(data.cell_keys[2])}
    splittings = []
    from itertools import combinations as _comb

    for support, signs in data.cell_keys[4]:
        for front in _comb(support, 2):
            fi = idx2.get((front, signs))
            back_support = tuple(x for x in support if x not in front)
            back_signs = signs | (1 << front[0]) | (1 << front[1])
            bi = idx2.get((back_support, back_signs))
            if fi is not None and bi is not None:
                splittings.append((fi, bi))
    rows = [0] * b2
    diag = [0] * b2
    for i in range(b2):
        a = reps[i]
        for j in range(i, b2):
            b = reps[j]
            total = 0
            for fi, bi in splittings:
                total ^= ((a >> fi) & 1) & ((b >> bi) & 1)
            if total:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            if i == j:
                diag[i] = total
    return rows, diag


def _join(A, B):
    m = A.vertex_count
    tops = [a + tuple(m + x for x in b) for a in A.facets for b in B.facets]
    return build_simplicial(tops, m + B.vertex_count)


@pytest.fixture(scope="module")
def closed_4_manifolds():
    t4 = colour_manifold(cube_lattice(4), Colouring.distinct(8))
    # T^2 x (genus-5 surface), b2 = 22
    t2_sigma5 = real_moment_angle(_join(cycle_complex(4), cycle_complex(5)))
    out = {}
    for name, Z in (("t4", t4), ("t2_sigma5", t2_sigma5)):
        m = Z.ambient
        out[name] = chain_complex_of(Z, "Z2")
        out[name + "_relabelled"] = chain_complex_of(
            Z.relabel({i: (5 * i + 1) % m for i in range(m)}), "Z2"
        )
    return out


def test_bit_sliced_intersection_form_matches_pairwise_oracle(closed_4_manifolds):
    for name, data in closed_4_manifolds.items():
        rows, diag = intersection_form(data)
        assert (rows, diag) == _intersection_form_oracle(data), name
    assert len(intersection_form(closed_4_manifolds["t2_sigma5"])[0]) == 22


def test_gathered_intersection_form_matches_the_transposed_one(closed_4_manifolds):
    """The bit slices gathered from the unpacked representatives against
    the three transposes they replaced, past one 64-bit word of b2 too."""
    filled = chain_complex_of(_filled_p4(), "Z2")
    for name, data in [("filled P^4", filled)] + sorted(closed_4_manifolds.items()):
        assert intersection_form(data) == intersection_form_oracle(data), name
    assert len(intersection_form(filled)[0]) == 122


def test_homology_and_cohomology_bases_agree_in_dimension(closed_4_manifolds):
    """dim H^k = n_k - rank d_k - rank d_(k+1), the ranks taken on the
    boundary rows by the per-cell oracle, not on the coboundary reduction."""
    for name, data in closed_4_manifolds.items():
        entries = entry_rows(data)
        ranks = [rank_of_rows(gf2_rows_oracle(rows)) for rows in entries[1:]]
        ranks = [0] + ranks + [0]
        for k in range(data.top_dim + 1):
            h = data.size(k) - ranks[k] - ranks[k + 1]
            assert h == cohomology_z2_basis(data, k).dimension, (name, k)


def test_spin_structure_counts():
    t3 = real_moment_angle(octahedron_boundary())
    assert spin_structures(t3).structure_count == 8
    s2 = real_moment_angle(boundary_of_simplex(2))
    assert spin_structures(s2).structure_count == 1


@pytest.mark.parametrize("tag", ["Z", "Z2"])
def test_spin_structures_read_given_data_whatever_its_tag(monkeypatch, tag):
    from cuspforge import characteristic

    builds = []

    def counting(X, coeff="Z2"):
        builds.append(coeff)
        return chain_complex_of(X, coeff)

    monkeypatch.setattr(characteristic, "chain_complex_of", counting)
    for X, count in ((real_moment_angle(octahedron_boundary()), 8),
                     (colour_manifold(cube_lattice(4), Colouring.distinct(8)), 16)):
        data = chain_complex_of(X, tag)
        b1 = homology(chain_complex_of(X, "Z2")).betti[1]
        spin = spin_structures(X, data)
        assert builds == []
        assert spin.b1_mod2 == b1 and spin.structure_count == count == 1 << b1
    # without data the complex is built once, for every reader
    assert spin_structures(real_moment_angle(octahedron_boundary())).structure_count == 8
    assert builds == ["Z2"]


def test_spin_structures_require_orientability():
    with pytest.raises(CertificateError):
        spin_structures(klein_complex())


def coordinate_subtorus_selection(Z, data, axes):
    allowed = set(axes)
    frozen = [i for i in range(Z.ambient) if i not in allowed]
    keys = []
    for d in range(len(axes) // 2 + 1):
        bucket = []
        for sup, sg in Z.cells_of_dim(d):
            if set(sup) <= allowed and all((sg >> i) & 1 for i in frozen):
                bucket.append((sup, sg))
        keys.append(bucket)
    return subcomplex_selection(data, keys)


def test_summand_and_lie_on_subtorus_of_t3():
    Z = real_moment_angle(octahedron_boundary())
    data = chain_complex_of(Z, "Z")
    sel = coordinate_subtorus_selection(Z, data, (0, 1, 2, 3))
    cert = summand_certificate(sel, expected_rank=2)
    assert cert.ok
    assert cert.invariant_factors == (1, 1)
    lie = lie_cusp_certificate(sel)
    assert lie.ok and lie.target_dim == 2


def test_every_cusp_of_the_cusped_p4_quotient_is_a_lie_summand(monkeypatch):
    """The cusped P^4 quotient (distinct colours) through the public API:
    H_*(Z) = (Z, Z^55, Z^197, Z^79, 0), and each of its 80 cusp 3-tori
    injects into H_1 as a summand (invariant factors 1, 1, 1) whose Z/2
    cohomology restriction is onto (rank 3 of 3).  The 80 sections are
    equal as chain data, so all of them together run one smith(1) and one
    smith(2)."""
    cusped = truncated_quotient(ideal_dual(gosset(4)))
    data = chain_complex_of(cusped.quotient, "Z")
    result = homology(data)
    assert result.betti == (1, 55, 197, 79, 0) and result.torsion == ((),) * 5
    ph1, pcoh = integral_homology_basis(data, 1), cohomology_z2_basis(data, 1)
    assert len(cusped.components) == 80
    built = []
    smith = ChainComplexData.smith

    def counting(self, k):
        if k not in self._smith:
            built.append(k)
        return smith(self, k)

    monkeypatch.setattr(ChainComplexData, "smith", counting)
    for comp in cusped.components:
        sel = subcomplex_selection(data, comp.keys_per_dim)
        cert = summand_certificate(sel, expected_rank=3, parent_basis=ph1)
        assert cert.ok and cert.invariant_factors == (1, 1, 1)
        lie = lie_cusp_certificate(sel, parent_basis=pcoh)
        assert lie.ok and (lie.restriction_rank, lie.target_dim) == (3, 3)
    assert sorted(built) == [1, 2]


@pytest.mark.parametrize("seed, classes", [(0, 1), (1, 3), (3, 3)])
def test_sections_that_share_eliminations_certify_like_fresh_ones(seed, classes):
    """Every cusp certificate of the cusped P^3 quotient, colours permuted
    by the seed, equals the one computed on a fresh copy of its section's
    chain data, which shares no cache; and the sections hold one set of
    elimination caches per class of equal CSR arrays."""
    P = ideal_dual(gosset(3))
    perm = list(range(P.num_facets))
    if seed:
        random.Random(seed).shuffle(perm)
    cusped = truncated_quotient(P, Colouring(P.num_facets, tuple(1 << p for p in perm)))
    data = chain_complex_of(cusped.quotient, "Z")
    ph1, pcoh = integral_homology_basis(data, 1), cohomology_z2_basis(data, 1)
    caches, arrays = set(), set()
    for comp in cusped.components:
        sel = subcomplex_selection(data, comp.keys_per_dim)
        own = sel.data
        fresh = SubcomplexSelection(data, sel.indices, ChainComplexData(own.coeff, own.cell_keys, own.incidences))
        assert summand_certificate(sel, parent_basis=ph1) == summand_certificate(fresh, parent_basis=ph1)
        assert lie_cusp_certificate(sel, parent_basis=pcoh) == lie_cusp_certificate(fresh, parent_basis=pcoh)
        caches.add((id(own._smith), id(own._gf2_coreduction), id(own._integral_bases)))
        arrays.add(tuple(tuple(a.tolist()) for incidence in own.incidences for a in incidence))
    assert len(caches) == len(arrays) == classes


def test_summand_fails_on_mobius_boundary():
    M = build_simplicial([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])
    data = chain_complex_of(M, "Z")
    boundary_edges = sorted(
        e for e in data.cell_keys[1]
        if sum(1 for f in M.facets if set(e) <= set(f)) == 1
    )
    verts = sorted({(v,) for e in boundary_edges for v in e})
    sel = subcomplex_selection(data, [verts, boundary_edges])
    cert = summand_certificate(sel, expected_rank=1)
    assert not cert.ok
    assert cert.invariant_factors == (2,)


def test_identity_selection_is_a_summand():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z")
    keys = [list(data.cell_keys[k]) for k in range(data.top_dim + 1)]
    sel = subcomplex_selection(data, keys)
    assert summand_certificate(sel).ok
    assert lie_cusp_certificate(sel).ok


def test_lie_requires_spinnable_flag():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z")
    keys = [list(data.cell_keys[k]) for k in range(data.top_dim + 1)]
    sel = subcomplex_selection(data, keys)
    with pytest.raises(CertificateError):
        lie_cusp_certificate(sel, spinnable=False)


def test_bounding_certificate_requires_verified_filling():
    t3 = real_moment_angle(octahedron_boundary())
    orient = orientability(t3)
    wu = spin_obstruction(t3)
    labels = bounding_filling_certificate(["c0", "c1"], orient, wu)
    assert [c.label for c in labels] == [BOUNDING, BOUNDING]
    klein = klein_complex()
    bad = orientability(klein)
    with pytest.raises(CertificateError):
        bounding_filling_certificate(["c0"], bad, wu)


def test_dirac_label_cases():
    assert dirac_label([LIE, BOUNDING, BOUNDING]) == "Real"
    assert dirac_label([BOUNDING] * 12) == "Discrete"
    assert dirac_label([UNDETERMINED, BOUNDING]) == "Unknown"
    assert dirac_label([]) == "Unknown"
    # a pure function of the multiset of labels
    assert dirac_label([BOUNDING, LIE]) == dirac_label([LIE, BOUNDING])
