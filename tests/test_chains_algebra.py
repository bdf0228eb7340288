"""Chain complexes, homology oracles, cup products, induced maps."""

import random
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from cuspforge import chains, gf2
from cuspforge.chains import (
    ChainComplexData,
    Z2QuotientBasis,
    _splittings,
    chain_complex_of,
    coboundary,
    cohomology_z2_basis,
    homology,
    integral_homology_basis,
    subcomplex_selection,
)
from cuspforge.characteristic import intersection_form, lie_cusp_certificate, summand_certificate
from cuspforge.cubical import CubicalComplex
from cuspforge.errors import BudgetError, ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices
from cuspforge.lattice import cube_lattice, polygon_lattice
from cuspforge.moment_angle import Colouring, colour_manifold, real_moment_angle, truncated_quotient
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import (
    boundary_of_simplex,
    build_simplicial,
    cycle_complex,
    octahedron_boundary,
)
from cuspforge.snf import smith_normal_form

from dense_oracles import (
    DenseSNF,
    apply_matrix,
    axis_paired_colouring,
    chain_data_from_entries,
    cubical_entry_oracle,
    cup_product,
    dense_boundary,
    dense_snf,
    drawn_colourings,
    entry_rows,
    gather_cochain_oracle,
    gf2_corows_array_oracle,
    gf2_corows_oracle,
    gf2_rows_oracle,
    is_cocycle,
    kernel_basis,
    left_kernel_basis,
    pair_with_fundamental_class,
    quotient_entry_oracle,
    quotient_representatives_oracle,
    reduce_rows,
    relation_rows,
    replay_project,
    simplicial_entry_oracle,
    solve_rows,
    sparse_rows_oracle,
    splittings_oracle,
    subcomplex_oracle,
    transpose_rows,
    verify_dd_zero_oracle,
)


def test_dd_zero_verified_on_build():
    for K in (boundary_of_simplex(3), octahedron_boundary()):
        chain_complex_of(K, "Z").verify_dd_zero()
        Z = real_moment_angle(K) if K.vertex_count <= 6 else None
        if Z is not None:
            chain_complex_of(Z, "Z").verify_dd_zero()


class _HandBuilt:
    """A complex object supplying its own chain data through to_chain_data."""

    def __init__(self, cell_keys, boundaries):
        self.cell_keys = cell_keys
        self.boundaries = boundaries

    def to_chain_data(self, coeff):
        return chain_data_from_entries(coeff, self.cell_keys, self.boundaries)


def _tetrahedron(signs):
    """The boundary of the 3-simplex plus one 3-cell on its four triangles,
    with the given incidence numbers."""
    sphere = chain_complex_of(boundary_of_simplex(3), "Z")
    top = (tuple(enumerate(signs)),)
    return _HandBuilt(sphere.cell_keys + [((0, 1, 2, 3),)], entry_rows(sphere) + [top])


def _flip_last(data, k):
    """The same chain data with the first incidence of the last k-cell negated."""
    boundaries = entry_rows(data)
    rows = list(boundaries[k])
    (face, c), *rest = rows[-1]
    rows[-1] = ((face, -c), *rest)
    return _HandBuilt(data.cell_keys, boundaries[:k] + [tuple(rows)] + boundaries[k + 1:])


@pytest.mark.parametrize("block_rows", [1, 3, 2048])
def test_dd_nonzero_is_refused(monkeypatch, block_rows):
    monkeypatch.setattr(chains, "DD_BLOCK_ROWS", block_rows)
    # the 3-simplex: triangles 012, 013, 023, 123 with signs -1, 1, -1, 1
    assert chain_complex_of(_tetrahedron((-1, 1, -1, 1)), "Z").sizes() == (4, 6, 4, 1)
    with pytest.raises(ValidationError, match=r"^dd != 0 in dimension 3$"):
        chain_complex_of(_tetrahedron((1, 1, 1, 1)), "Z")
    # a 2-cell bounded by one edge: d(d(f)) = d(e) = b - a
    with pytest.raises(ValidationError, match=r"^dd != 0 in dimension 2$"):
        chain_complex_of(_HandBuilt([("a", "b"), ("e",), ("f",)],
                                    [((), ()), (((0, -1), (1, 1)),), (((0, 1),),)]), "Z2")
    # the offending cell is the last one, in the last block
    torus = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z")
    for k in (2, 3):
        with pytest.raises(ValidationError, match=rf"^dd != 0 in dimension {k}$"):
            chain_complex_of(_flip_last(torus, k), "Z")


@pytest.mark.parametrize("name, complex_, message", [
    ("face index past the faces", _HandBuilt([("a", "b"), ("e",)], [((), ()), (((0, -1), (2, 1)),)]),
     r"^d_1 names a face outside the 2 \(0\)-cells$"),
    ("negative face index", _HandBuilt([("a", "b"), ("e",)], [((), ()), (((0, -1), (-1, 1)),)]),
     r"^d_1 names a face outside the 2 \(0\)-cells$"),
    ("fewer rows than cells", _HandBuilt([("a", "b"), ("e", "f")], [((), ()), (((0, -1), (1, 1)),)]),
     r"^d_1 needs one row per 1-cell: got 1 for 2$"),
])
def test_malformed_chain_data_is_refused(name, complex_, message):
    for coeff in ("Z", "Z2"):
        with pytest.raises(ValidationError, match=message) as info:
            chain_complex_of(complex_, coeff)
        assert info.value.exit_code == 2, name


@pytest.mark.parametrize("big", [1 << 32, 1 << 64])
def test_dd_check_is_exact_beyond_int64(big):
    # d(d(f)) = big^2 a: 2^64 a wraps to 0 in int64 products, 2^64 itself
    # does not fit an int64 incidence
    ok = _HandBuilt([("a",), ("e",), ("f",)], [((),), (((0, big),),), (((0, big), (0, -big)),)])
    chain_complex_of(ok, "Z")
    off = _HandBuilt([("a",), ("e",), ("f",)], [((),), (((0, big),),), (((0, big),),)])
    with pytest.raises(ValidationError, match=r"^dd != 0 in dimension 2$"):
        chain_complex_of(off, "Z")


def test_triangle_boundary_rank():
    d = chain_complex_of(boundary_of_simplex(2), "Z2")
    assert gf2.rank_of_rows(gf2_rows_oracle(entry_rows(d)[1])) == 2
    assert d.sizes() == (3, 3)


def reduced_betti_z2(K):
    d = chain_complex_of(K, "Z2")
    betti = list(homology(d).betti)
    betti[0] -= 1
    return betti


def full_subcomplex_betti_oracle(K, dim):
    """Independent Betti oracle: b_k(RZ_K) is the sum over vertex subsets
    J of the reduced (k-1)-st Betti number of the full subcomplex K_J."""
    m = K.vertex_count
    total = [0] * (dim + 1)
    total[0] = 1
    for mask in range(1, 1 << m):
        J = {i for i in range(m) if (mask >> i) & 1}
        sub = K.full_subcomplex(J)
        if sub is None:
            continue
        # number of vertices of sub not in any higher face is handled by
        # the complex itself; isolated chosen vertices outside sub count too
        used = set(sub.vertices())
        isolated = len(J - used)
        rb = reduced_betti_z2(sub)
        comps = rb[0] + 1 + isolated
        contributions = [comps - 1] + rb[1:]
        for k, b in enumerate(contributions):
            if k + 1 <= dim:
                total[k + 1] += b
    return tuple(total)


def test_bbcg_style_oracle_matches_engine_on_t3():
    K = octahedron_boundary()
    Z = real_moment_angle(K)
    engine = homology(chain_complex_of(Z, "Z2")).betti
    oracle = full_subcomplex_betti_oracle(K, 3)
    assert engine == oracle == (1, 3, 3, 1)


def test_bbcg_style_oracle_matches_engine_on_sphere():
    K = boundary_of_simplex(2)
    Z = real_moment_angle(K)
    assert homology(chain_complex_of(Z, "Z2")).betti == full_subcomplex_betti_oracle(K, 2) == (1, 0, 1)


def test_torus_homology_z_and_z2_agree_when_torsion_free():
    Z = real_moment_angle(cycle_complex(4))
    hz = homology(chain_complex_of(Z, "Z"))
    h2 = homology(chain_complex_of(Z, "Z2"))
    assert hz.betti == h2.betti == (1, 2, 1)
    assert all(not t for t in hz.torsion)


def test_klein_bottle_invariant_factor_two():
    # independent row-reduction oracle for the boundary matrix over Z
    Q = colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    data = chain_complex_of(Q, "Z")
    d2 = dense_boundary(data, 2)
    snf = smith_normal_form(d2)
    assert 2 in snf.invariant_factors()
    hz = homology(data)
    assert hz.torsion[1] == (2,)


def crossing_cocycle(data, axis, antipode):
    bits = 0
    for i, (sup, sg) in enumerate(data.cell_keys[1]):
        if sup == (axis,) and (sg >> antipode) & 1:
            bits |= 1 << i
    return bits


def test_t2_cup_products():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    a = crossing_cocycle(data, 0, 2)
    b = crossing_cocycle(data, 1, 3)
    assert is_cocycle(data, a, 1) and is_cocycle(data, b, 1)
    assert pair_with_fundamental_class(data, cup_product(data, a, b, 1, 1)) == 1
    assert pair_with_fundamental_class(data, cup_product(data, a, a, 1, 1)) == 0
    assert pair_with_fundamental_class(data, cup_product(data, b, b, 1, 1)) == 0


def test_s2_has_no_h1_so_no_products():
    Z = real_moment_angle(boundary_of_simplex(2))
    data = chain_complex_of(Z, "Z2")
    assert cohomology_z2_basis(data, 1).dimension == 0


def test_t3_triple_product_is_one():
    Z = real_moment_angle(octahedron_boundary())
    data = chain_complex_of(Z, "Z2")
    g = [crossing_cocycle(data, 2 * i, 2 * i + 1) for i in range(3)]
    assert all(is_cocycle(data, x, 1) for x in g)
    g01 = cup_product(data, g[0], g[1], 1, 1)
    g012 = cup_product(data, g01, g[2], 2, 1)
    assert pair_with_fundamental_class(data, g012) == 1


def test_leibniz_rule_on_random_cochains():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    rng = random.Random(2024)
    n1 = data.size(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(25):
            a = rng.getrandbits(n1)
            b = rng.getrandbits(n1)
            lhs = coboundary(data, cup_product(data, a, b, 1, 1), 2)
            rhs = cup_product(data, coboundary(data, a, 1), b, 2, 1) ^ cup_product(
                data, a, coboundary(data, b, 1), 1, 2
            )
            assert lhs == rhs


def test_graded_commutativity_up_to_coboundary():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    basis = cohomology_z2_basis(data, 1)
    image_rows = transpose_rows(gf2_rows_oracle(entry_rows(data)[2]), data.size(1))
    for a in basis.representatives:
        for b in basis.representatives:
            diff = cup_product(data, a, b, 1, 1) ^ cup_product(data, b, a, 1, 1)
            assert solve_rows(image_rows, diff) is not None


def test_noncocycle_cup_warns():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    not_cocycle = 1  # a single edge is not closed here
    assert not is_cocycle(data, not_cocycle, 1)
    with pytest.warns(UserWarning):
        cup_product(data, not_cocycle, 0, 1, 1)


def test_poincare_duality_over_z2():
    for Z, n in ((real_moment_angle(cycle_complex(4)), 2),
                 (real_moment_angle(octahedron_boundary()), 3)):
        betti = homology(chain_complex_of(Z, "Z2")).betti
        assert all(betti[k] == betti[n - k] for k in range(n + 1))


def test_restriction_identity_and_point():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    keys = [list(data.cell_keys[k]) for k in range(data.top_dim + 1)]
    sel = subcomplex_selection(data, keys)
    assert lie_cusp_certificate(sel).matrix_rows == (0b01, 0b10)
    point = subcomplex_selection(data, [[data.cell_keys[0][0]]])
    h0map = lie_cusp_certificate(point)
    assert h0map.target_dim == 0 and all(r == 0 for r in h0map.matrix_rows)


def test_selection_must_be_closed():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z2")
    vertex, edge = data.cell_keys[0][0], data.cell_keys[1][0]
    for keys, message in (([[], [edge]], "selection is not closed under faces"),
                          ([[vertex, vertex]], "repeated cell in subcomplex selection"),
                          ([[vertex], [edge, edge]], "repeated cell in subcomplex selection"),
                          ([[("x",)]], "selection names a cell that is not in the complex"),
                          ([[vertex], [vertex]], "selection names a cell that is not in the complex"),
                          ([[]] * (data.top_dim + 2), "selection has more degrees than the complex")):
        for select in (subcomplex_selection, subcomplex_oracle):
            with pytest.raises(ValidationError, match=f"^{message}$") as info:
                select(data, keys)
            assert info.value.exit_code == 2


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (3, 3), (4, 0)])
def test_gathered_cochains_match_the_per_cell_shifts_on_every_cusp(n, seed):
    """A selection reads a parent cochain's bits once; the per-cell shifts
    it replaced give the same restriction on every cusp section of the
    cusped P^n quotient, colours permuted by the seed, in every degree:
    the parent's H^1 representatives, the empty and full cochains, and
    random ones with bits past the parent's cells."""
    P = ideal_dual(gosset(n))
    perm = list(range(P.num_facets))
    if seed:
        random.Random(seed).shuffle(perm)
    cusped = truncated_quotient(P, Colouring(P.num_facets, tuple(1 << p for p in perm)))
    data = chain_complex_of(cusped.quotient, "Z2")
    reps = cohomology_z2_basis(data, 1).representatives
    rng = random.Random(seed)
    for comp in cusped.components:
        sel = subcomplex_selection(data, comp.keys_per_dim)
        for k in range(data.top_dim + 2):
            size = data.size(k)
            for phi in [0, (1 << size) - 1, rng.getrandbits(size + 3)] + list(reps if k == 1 else []):
                assert sel.gather_cochain(phi, k) == gather_cochain_oracle(sel, phi, k)


def test_selections_refuse_negative_cochains_and_chains_of_the_wrong_length():
    data = chain_complex_of(real_moment_angle(cycle_complex(4)), "Z")
    point = subcomplex_selection(data, [[data.cell_keys[0][1]]])
    whole = subcomplex_selection(data, data.cell_keys)
    assert point.scatter_chain([5], 0) == [0, 5] + [0] * (data.size(0) - 2)
    assert whole.scatter_chain(list(range(data.size(1))), 1) == list(range(data.size(1)))
    for sel in (point, whole):
        for k in range(data.top_dim + 2):
            n = sel.data.size(k)
            for length in (n - 1, n + 1) if n else (1,):
                with pytest.raises(ValidationError, match=f"^chain has length {length}, expected {n}$"):
                    sel.scatter_chain([0] * length, k)
            with pytest.raises(ValidationError, match="^cochain must be a non-negative bitset$"):
                sel.gather_cochain(-1, k)


def mobius_strip_complex():
    return build_simplicial([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])


def test_mobius_boundary_is_index_two():
    # the boundary circle of the Moebius band maps by multiplication by 2
    # on H_1, so it is not a summand: invariant factor 2 shows up
    M = mobius_strip_complex()
    data = chain_complex_of(M, "Z")
    boundary_edges = [e for e in data.cell_keys[1]
                      if sum(1 for f in M.facets if set(e) <= set(f)) == 1]
    verts = sorted({(v,) for e in boundary_edges for v in e})
    sel = subcomplex_selection(data, [verts, sorted(boundary_edges)])
    cert = summand_certificate(sel)
    assert cert.torus_rank == 1 and len(cert.matrix) == 1  # H_1 of the band has rank 1
    snf = smith_normal_form(cert.matrix)
    assert snf.diag == [2] and cert.invariant_factors == (2,) and not cert.ok


def test_induced_map_both_directions():
    Z = real_moment_angle(octahedron_boundary())
    data = chain_complex_of(Z, "Z2")
    allowed = {0, 1, 2, 3}
    frozen = [i for i in range(6) if i not in allowed]
    keys = [[], [], []]
    for d in range(3):
        for sup, sg in Z.cells_of_dim(d):
            if set(sup) <= allowed and all((sg >> i) & 1 for i in frozen):
                keys[d].append((sup, sg))
    # H^1(T^3; Z/2) -> H^1(T^2; Z/2) is onto
    lie = lie_cusp_certificate(subcomplex_selection(data, keys))
    assert (len(lie.matrix_rows), lie.target_dim) == (3, 2)
    assert gf2.rank_of_rows(lie.matrix_rows) == lie.restriction_rank == lie.target_dim == 2 and lie.ok
    # H_1(T^2; Z) -> H_1(T^3; Z) on the free parts: a split injection
    cert = summand_certificate(subcomplex_selection(chain_complex_of(Z, "Z"), keys))
    assert (cert.torus_rank, len(cert.matrix)) == (2, 3)
    assert smith_normal_form(cert.matrix).diag == [1, 1] and cert.ok


def test_full_subcomplex_oracle_on_the_filled_4_manifold():
    # independent Betti oracle at the 23k-cell scale
    from cuspforge.filling import (
        dehn_fill,
        diagonals_from_filling,
        enumerate_filling_choices,
        subdivide_cross_facets,
    )
    from cuspforge.polytopes import gosset, ideal_dual

    G = gosset(4)
    P = ideal_dual(G)
    choice = next(enumerate_filling_choices(P))
    filled = dehn_fill(P, choice)
    K3 = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
    Z = colour_manifold(filled.lattice, Colouring.distinct(10))
    engine = homology(chain_complex_of(Z, "Z2")).betti
    oracle = full_subcomplex_betti_oracle(K3, 4)
    assert engine == oracle
    assert engine[0] == engine[4] == 1 and engine[1] == engine[3]


def test_integral_basis_projects_generators_to_unit_coords():
    Z = real_moment_angle(cycle_complex(4))
    data = chain_complex_of(Z, "Z")
    hb = integral_homology_basis(data, 1)
    assert hb.free_rank == 2 and not hb.torsion
    for j, g in enumerate(hb.free_generators):
        free, tors = hb.project(g)
        assert tors == []
        assert free[j] in (1, -1)
        assert all(free[i] == 0 for i in range(len(free)) if i != j)


# ---------------------------------------------------------------------------
# oracle: the integral basis built from a second SNF of the cycle matrix and
# one solve per boundary column (the earlier implementation, kept verbatim)
# ---------------------------------------------------------------------------


def _solve(snf: DenseSNF, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution of A x = b, or None if none exists."""
    if len(b) != snf.nrows:
        raise ValueError("rhs length mismatch")
    c = apply_matrix(snf.uinv, b)
    n = snf.ncols
    y = [0] * n
    for k in range(n):
        d = snf.diag[k] if k < len(snf.diag) else 0
        ck = c[k] if k < len(c) else 0
        if d == 0:
            if k < len(c) and ck != 0:
                return None
            continue
        if ck % d:
            return None
        y[k] = ck // d
    for k in range(n, snf.nrows):
        if c[k] != 0:
            return None
    return apply_matrix(snf.vinv, y)


@dataclass
class _OracleBasis:
    degree: int
    free_rank: int
    torsion: Tuple[int, ...]
    free_generators: List[List[int]]
    _cycle_snf: DenseSNF
    _uprime: List[List[int]]
    _dprime: List[int]
    _z: int

    def project(self, cycle: Sequence[int]) -> Tuple[List[int], List[int]]:
        y = _solve(self._cycle_snf, list(cycle))
        if y is None:
            raise ValidationError("vector is not an integral cycle")
        u = [sum(self._uprime[i][j] * y[j] for j in range(self._z)) for i in range(self._z)]
        free = [u[i] for i in range(self._z) if self._dprime[i] == 0]
        tors = [u[i] % self._dprime[i] for i in range(self._z) if self._dprime[i] not in (0, 1)]
        return free, tors


def _chained_snf(data, k: int) -> DenseSNF:
    """The SNF of d_k for k <= 1, and above of the relations R_k, the rows of
    V d_k past the rank of this SNF one degree down: the chain of
    eliminations that the library caches as ``smith(k)``."""
    rows = dense_boundary(data, k)
    if k > 1:
        rows = relation_rows(_chained_snf(data, k - 1), rows, data.size(k))
    return dense_snf(smith_normal_form(rows, nrows=len(rows), ncols=data.size(k)))


def _integral_basis_oracle(data, k: int) -> _OracleBasis:
    n_k = data.size(k)
    boundary_snf = _chained_snf(data, k)  # its kernel is the cycles of d_k
    cycles = kernel_basis(boundary_snf)  # each of length n_k
    z = len(cycles)
    # columns are the cycle basis; relations express boundaries in it
    K = [[cycles[j][i] for j in range(z)] for i in range(n_k)]
    k_snf = dense_snf(smith_normal_form(K, nrows=n_k, ncols=z))
    n_up = data.size(k + 1)
    relations: List[List[int]] = [[0] * n_up for _ in range(z)]
    if n_up:
        up = dense_boundary(data, k + 1)
        for j in range(n_up):
            col = [up[i][j] for i in range(n_k)]
            y = _solve(k_snf, col)
            if y is None:
                raise ValidationError("boundary is not a cycle; dd != 0")
            for i in range(z):
                relations[i][j] = y[i]
    r_snf = dense_snf(smith_normal_form(relations, nrows=z, ncols=n_up))
    # quotient coordinates live in u = U'^{-1} y; generator j has order diag_j
    dprime = list(r_snf.diag) + [0] * (z - len(r_snf.diag))
    new_gens = [[sum(cycles[t][i] * r_snf.u[t][j] for t in range(z)) for i in range(n_k)]
                for j in range(z)]
    free_gens = [new_gens[j] for j in range(z) if dprime[j] == 0]
    torsion = tuple(d for d in dprime if d not in (0, 1))
    return _OracleBasis(
        degree=k,
        free_rank=len(free_gens),
        torsion=torsion,
        free_generators=free_gens,
        _cycle_snf=k_snf,
        _uprime=r_snf.uinv,
        _dprime=dprime,
        _z=z,
    )


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_kernel_and_solve():
    rng = random.Random(2)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, m, n, -4, 4)
        res = dense_snf(smith_normal_form(a))
        for vec in kernel_basis(res):
            assert all(
                sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        y = _solve(res, b)
        assert y is not None
        assert [sum(a[i][j] * y[j] for j in range(n)) for i in range(m)] == b


def test_snf_detects_unsolvable():
    res = dense_snf(smith_normal_form([[2]]))
    assert _solve(res, [1]) is None
    assert _solve(res, [4]) == [2]


INTEGRAL_FIXTURES = {
    "klein bottle": lambda: colour_manifold(
        polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10))),
    "moebius strip": mobius_strip_complex,
    "torus": lambda: real_moment_angle(cycle_complex(4)),
    "octahedral 3-torus": lambda: real_moment_angle(octahedron_boundary()),
}


def _random_cycles(data, k, rng, count=20):
    """Seeded integral combinations of a kernel basis of d_k."""
    cycles = kernel_basis(dense_snf(smith_normal_form(dense_boundary(data, k), data.size(k - 1), data.size(k))))
    out = []
    for _ in range(count):
        x = [0] * data.size(k)
        for c in cycles:
            a = rng.randint(-3, 3)
            x = [xi + a * ci for xi, ci in zip(x, c)]
        out.append(x)
    return out


@pytest.mark.parametrize("name", sorted(INTEGRAL_FIXTURES))
def test_integral_basis_matches_oracle(name):
    data = chain_complex_of(INTEGRAL_FIXTURES[name](), "Z")
    rng = random.Random(11)
    for k in range(data.top_dim + 1):
        hb = integral_homology_basis(data, k)
        oracle = _integral_basis_oracle(data, k)
        assert (hb.free_rank, hb.torsion) == (oracle.free_rank, oracle.torsion)
        assert hb.free_generators == oracle.free_generators
        for x in _random_cycles(data, k, rng):
            assert hb.project(x) == oracle.project(x)
    if name == "klein bottle":
        assert integral_homology_basis(data, 1).torsion == (2,)


def _cycles_and_boundaries(data, k, hb, rng, count=10):
    """Seeded integral cycles of d_k: sums of the free generators and of a
    kernel basis (which reaches the torsion classes), plus boundaries of
    (k+1)-cells; and the boundaries alone."""
    kernel = kernel_basis(dense_snf(smith_normal_form(dense_boundary(data, k), data.size(k - 1), data.size(k))))
    up = dense_boundary(data, k + 1)
    columns = [[row[j] for row in up] for j in range(data.size(k + 1))]
    cycles, boundaries = [], []
    for _ in range(count):
        x, b = [0] * data.size(k), [0] * data.size(k)
        for c in hb.free_generators + kernel:
            a = rng.randint(-3, 3)
            x = [xi + a * ci for xi, ci in zip(x, c)]
        for c in rng.sample(columns, min(len(columns), 4)):
            a = rng.randint(-3, 3)
            b = [bi + a * ci for bi, ci in zip(b, c)]
        cycles.append([xi + bi for xi, bi in zip(x, b)])
        boundaries.append(b)
    return cycles, boundaries


def _assert_projection_matches_replay(data, k, hb, rng):
    cycles, boundaries = _cycles_and_boundaries(data, k, hb, rng)
    assert [hb.project(x) for x in cycles] == replay_project(hb, cycles)
    zero = ([0] * hb.free_rank, [0] * len(hb.torsion))
    assert [hb.project(b) for b in boundaries] == replay_project(hb, boundaries) == [zero] * len(boundaries)


@pytest.mark.parametrize("name", sorted(INTEGRAL_FIXTURES))
def test_covector_projection_matches_the_replay(name):
    data = chain_complex_of(INTEGRAL_FIXTURES[name](), "Z")
    rng = random.Random(5)
    for k in range(data.top_dim + 1):
        _assert_projection_matches_replay(data, k, integral_homology_basis(data, k), rng)
    if name == "klein bottle":
        hb = integral_homology_basis(data, 1)
        assert hb.torsion == (2,)
        # the torsion coordinate is reached, and taken mod 2
        cycles = _cycles_and_boundaries(data, 1, hb, rng)[0]
        assert {hb.project(x)[1][0] for x in cycles} == {0, 1}


def test_covector_projection_matches_the_replay_on_the_cusp_tori():
    cusped = truncated_quotient(ideal_dual(gosset(3)))
    parent = chain_complex_of(cusped.quotient, "Z")
    ph1 = integral_homology_basis(parent, 1)
    boundaries = dense_boundary(parent, 2)
    rng = random.Random(8)
    assert len(cusped.components) == 12
    for comp in cusped.components:
        sel = subcomplex_selection(parent, comp.keys_per_dim)
        for k in range(sel.data.top_dim + 1):
            _assert_projection_matches_replay(sel.data, k, integral_homology_basis(sel.data, k), rng)
        # the torus cycles in the parent, plus parent generators and boundaries
        torus = integral_homology_basis(sel.data, 1).free_generators
        assert len(torus) == 2
        cycles = []
        for _ in range(4):
            x = [0] * parent.size(1)
            for g in [sel.scatter_chain(t, 1) for t in torus] + ph1.free_generators[:3]:
                a = rng.randint(-3, 3)
                x = [xi + a * gi for xi, gi in zip(x, g)]
            for j in rng.sample(range(parent.size(2)), 3):
                x = [xi + row[j] for xi, row in zip(x, boundaries)]
            cycles.append(x)
        assert [ph1.project(x) for x in cycles] == replay_project(ph1, cycles)


@pytest.mark.parametrize("name", sorted(INTEGRAL_FIXTURES))
def test_project_refuses_non_cycles_and_wrong_lengths(name):
    data = chain_complex_of(INTEGRAL_FIXTURES[name](), "Z")
    for k in range(data.top_dim + 1):
        hb = integral_homology_basis(data, k)
        n = data.size(k)
        d = dense_boundary(data, k)
        for j in (j for j in range(n) if any(row[j] for row in d)):
            for project in (hb.project, lambda x: replay_project(hb, [x])):
                with pytest.raises(ValidationError, match="^vector is not an integral cycle$"):
                    project([int(i == j) for i in range(n)])
        for length in (n - 1, n + 1):
            for project in (hb.project, lambda x: replay_project(hb, [x])):
                with pytest.raises(ValidationError, match=f"^chain has length {length}, expected {n}$"):
                    project([0] * length)


def test_integral_eliminations_refuse_over_the_budget_on_what_they_hold(monkeypatch):
    """The budget caps what an integral elimination holds (non-zeros and
    logged moves), checked as it runs, not the shape of d_k: d_1 of the
    cusped P^3 quotient (208 x 528, 1056 non-zeros) is refused under a
    budget of 1000, and no elimination of that degree is kept."""
    cusped = truncated_quotient(ideal_dual(gosset(3))).quotient  # 1184 cells
    monkeypatch.setenv("CUSPFORGE_BUDGET", "1000")
    for consumer in (homology, lambda d: integral_homology_basis(d, 1)):
        data = chain_complex_of(cusped, "Z")
        with pytest.raises(BudgetError, match=r"^integral elimination holds 1056 entries "
                                              r"\(non-zeros and moves\), budget is 1000; use Z/2") as info:
            consumer(data)
        assert info.value.exit_code == 3 and 1 not in data._smith
    monkeypatch.delenv("CUSPFORGE_BUDGET")
    # 2001 x 2001 zero maps, refused by shape before: nothing to hold
    n = 2001
    data = chain_data_from_entries("Z", [tuple((i,) for i in range(n)), tuple((i, 0) for i in range(n))],
                                         [((),) * n, ((),) * n])
    assert homology(data).betti == (n, n)
    assert integral_homology_basis(data, 1).free_rank == n


def test_integral_eliminations_refuse_dd_nonzero():
    # chain data built without the d(d) check: a 2-cell bounded by one edge
    for consumer in (homology, lambda d: integral_homology_basis(d, 1)):
        data = chain_data_from_entries("Z", [(("a",), ("b",)), (("e",),), (("f",),)],
                                             [((), ()), (((0, -1), (1, 1)),), (((0, 1),),)])
        with pytest.raises(ValidationError, match=r"^dd != 0 in dimension 2$"):
            consumer(data)


UC_FIXTURES = {
    **INTEGRAL_FIXTURES,
    "distinct-coloured square": lambda: colour_manifold(polygon_lattice(4), Colouring.distinct(4)),
}


@pytest.mark.parametrize("name", sorted(UC_FIXTURES))
def test_universal_coefficients(name):
    # b_k(Z/2) = b_k(Z) + t_k + t_{k-1}, t_k = number of even invariant factors of H_k(Z)
    X = UC_FIXTURES[name]()
    hz = homology(chain_complex_of(X, "Z"))
    h2 = homology(chain_complex_of(X, "Z2"))
    t = [sum(1 for d in factors if d % 2 == 0) for factors in hz.torsion] + [0]  # t[-1] = 0
    assert all(h2.betti[k] == hz.betti[k] + t[k] + t[k - 1] for k in range(len(hz.betti)))
    if name == "klein bottle":
        assert (hz.betti, h2.betti) == ((1, 1, 0), (1, 2, 1))


# ---------------------------------------------------------------------------
# oracle: Z/2 cohomology bases from a fresh right kernel of d_{k+1} and the
# transposed d_k (the earlier implementation, kept verbatim)
# ---------------------------------------------------------------------------


def _right_kernel_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0} for the row-matrix M."""
    return left_kernel_basis(transpose_rows(rows, ncols))


def _odd_rows(entries, k: int) -> List[int]:
    """d_k mod 2 by the per-cell oracle, one bitset per k-cell (none past
    the top degree)."""
    return gf2_rows_oracle(entries[k]) if 0 <= k < len(entries) else []


def _cohomology_basis_oracle(data: ChainComplexData, k: int, entries) -> Z2QuotientBasis:
    """H^k(-; Z/2): the same quotient on the transposed boundary maps."""
    cocycles = _right_kernel_basis(_odd_rows(entries, k + 1), data.size(k))
    coboundaries = transpose_rows(_odd_rows(entries, k), data.size(k - 1))
    return Z2QuotientBasis(k, cocycles, reduce_rows(coboundaries))


def test_right_kernel_annihilated_by_matrix():
    rng = random.Random(3)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        for vec in _right_kernel_basis(rows, ncols):
            assert all((r & vec).bit_count() % 2 == 0 for r in rows)


def _filled_p4():
    P = ideal_dual(gosset(4))
    choice = next(enumerate_filling_choices(P))  # all zeros
    return colour_manifold(dehn_fill(P, choice).lattice, Colouring.distinct(P.num_facets))


COHOMOLOGY_FIXTURES = {
    "RP^2": lambda: colour_manifold(polygon_lattice(3), Colouring(2, (0b01, 0b10, 0b11))),
    "klein bottle": INTEGRAL_FIXTURES["klein bottle"],
    "3-torus": INTEGRAL_FIXTURES["octahedral 3-torus"],
    "4-torus": lambda: colour_manifold(cube_lattice(4), Colouring.distinct(8)),
    "cusped P^3 quotient": lambda: truncated_quotient(ideal_dual(gosset(3))).quotient,
    "filled P^4": _filled_p4,
}


def _pairing_matrix(data: ChainComplexData, reps: Sequence[int]) -> List[int]:
    """Rows of <a u b, [M]> over degree-2 cochains, one splitting at a time."""
    splittings = _splitting_triples(data, 2, 2)

    def faces(a, pick):
        return gf2.vector_from_indices(s for s, split in enumerate(splittings) if (a >> split[pick]) & 1)

    front = [faces(a, 1) for a in reps]
    back = [faces(b, 2) for b in reps]
    return [gf2.vector_from_indices(j for j, y in enumerate(back) if (x & y).bit_count() & 1)
            for x in front]


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_FIXTURES))
def test_cohomology_bases_match_oracle(name):
    data = chain_complex_of(COHOMOLOGY_FIXTURES[name](), "Z2")
    entries = entry_rows(data)
    for k in range(data.top_dim + 1):
        assert data.gf2_rank(k + 1) == gf2.rank_of_rows(_odd_rows(entries, k + 1)), k
        basis = cohomology_z2_basis(data, k)
        oracle = _cohomology_basis_oracle(data, k, entries)
        assert basis.dimension == oracle.dimension, k
        # the representatives of the oracle's reduction, int for int
        image = data.gf2_coreduction(k - 1)[0]
        assert basis.representatives == quotient_representatives_oracle(data.gf2_coreduction(k)[1], image), k
        assert all(is_cocycle(data, rep, k) for rep in basis.representatives)
        # the oracle's classes in the new basis: an invertible change of basis
        a = [basis.coordinates(rep) for rep in oracle.representatives]
        assert gf2.rank_of_rows(a) == basis.dimension, k
        if k == 2 and data.top_dim == 4:
            q_new = intersection_form(data)[0]
            aq = [0] * len(a)
            for i, row in enumerate(a):
                for p in gf2.indices_of_vector(row):
                    aq[i] ^= q_new[p]
            congruent = [gf2.vector_from_indices(j for j, y in enumerate(a) if (x & y).bit_count() & 1)
                         for x in aq]
            assert _pairing_matrix(data, oracle.representatives) == congruent
    if name == "filled P^4":
        assert [data.gf2_rank(k) for k in range(1, 5)] == [1023, 4067, 4771, 1599]
        assert [cohomology_z2_basis(data, k).dimension for k in range(5)] == [1, 30, 122, 30, 1]


@pytest.mark.parametrize("name,k", [("3-torus", 1), ("filled P^4", 2)])
def test_quotient_coordinates_refuse_what_is_not_a_cocycle_of_the_complex(name, k):
    """coordinates() writes each representative as its own unit vector and
    refuses a non-cocycle, a cocycle with a bit at n_k + 2, and -1."""
    data = chain_complex_of(COHOMOLOGY_FIXTURES[name](), "Z2")
    basis = cohomology_z2_basis(data, k)
    n = data.size(k)
    assert [basis.coordinates(rep) for rep in basis.representatives] == [1 << i for i in range(basis.dimension)]
    rep = basis.representatives[0]
    off = next(1 << j for j in range(n) if not is_cocycle(data, 1 << j, k))
    for vec in (off, rep | 1 << (n + 2), -1):
        with pytest.raises(ValidationError, match=r"^vector is not a \(co\)cycle of this complex$"):
            basis.coordinates(vec)


def test_quotient_basis_refuses_an_image_row_keyed_off_its_highest_bit():
    """Such a row would never clear the keyed bit, so the reduction would
    not end: it is refused before any reduction runs."""
    for image in ({1: 0b01}, {0: 0b11}, {0: 0}):
        with pytest.raises(ValidationError, match="^image rows must be keyed at their highest bit$") as info:
            Z2QuotientBasis(1, [0b10], image)
        assert info.value.exit_code == 2
    assert Z2QuotientBasis(1, [0b10, 0b11], {0: 0b01}).representatives == [0b10]


@pytest.mark.parametrize("name", ["cusped P^3 quotient", "filled P^4"])
def test_coreduction_matches_the_elimination_of_every_coboundary_row(name):
    """gf2_coreduction leaves the rows it skips unbuilt: its pivots, their
    order and its kernel tags are those of the elimination of all of
    delta^k's rows, as the array reader built them, with the same skips."""
    data = chain_complex_of(COHOMOLOGY_FIXTURES[name](), "Z2")
    skipped = 0
    for k in range(-1, data.top_dim + 2):
        skip = data.gf2_coreduction(k - 1)[0] if k > 0 else {}
        pivots, kernel = gf2.pivot_rows(gf2_corows_array_oracle(data, k), skip)
        reduced = data.gf2_coreduction(k)
        assert list(reduced[0].items()) == list(pivots.items()) and reduced[1] == kernel, k
        assert all(row.bit_length() - 1 == p for p, row in reduced[0].items()), k
        skipped += len(skip)
    assert skipped


COBOUNDARY_FIXTURES = {
    name: COHOMOLOGY_FIXTURES[name] for name in ("3-torus", "klein bottle", "cusped P^3 quotient")}
# one vertex, a loop whose two ends cancel, and 2-cells on it twice and three times
COBOUNDARY_FIXTURES["even and odd incidences"] = lambda: _HandBuilt(
    [("v",), ("a",), ("f", "g")], [((),), (((0, 1), (0, -1)),), (((0, 2),), ((0, 3),))])


@pytest.mark.parametrize("name", sorted(COBOUNDARY_FIXTURES))
def test_coboundary_is_the_xor_of_the_oracle_corows(name):
    """coboundary(phi) against the per-cell oracle: the XOR of the
    coboundary rows of the k-cells in phi, for random phi with bits at or
    above n_k set too (ignored), in every degree up to the top."""
    data = chain_complex_of(COBOUNDARY_FIXTURES[name](), "Z2")
    entries = entry_rows(data)
    rng = random.Random(23)
    for k in range(-1, data.top_dim + 1):
        n = data.size(k)
        corows = gf2_corows_oracle(entries[k + 1], n) if k < data.top_dim else [0] * n
        for phi in [0, (1 << n) - 1] + [rng.getrandbits(n) | rng.getrandbits(9) << n for _ in range(12)]:
            want = 0
            for j in gf2.indices_of_vector(phi & ((1 << n) - 1)):
                want ^= corows[j]
            assert coboundary(data, phi, k) == want, (k, phi)
            assert coboundary(data, phi | 1 << (n + 3), k) == want, k


def test_integral_homology_of_the_filled_p4_manifold():
    """H_*(-; Z) of the filled 4-manifold of the n=4 preset (axis 0 at
    every cusp) through homology(Z): the Betti numbers are the Z/2 ones and
    there is no torsion, so H_* = (Z, Z^30, Z^122, Z^30, Z)."""
    X = _filled_p4()
    data = chain_complex_of(X, "Z")
    result = homology(data)
    assert [data.smith(k).rank for k in range(1, 5)] == [1023, 4067, 4771, 1599]
    assert result.betti == homology(chain_complex_of(X, "Z2")).betti == (1, 30, 122, 30, 1)
    assert result.torsion == ((),) * 5


def _splitting_triples(data, k, l):
    """The library's splittings as (top cell, front cell, back cell) triples."""
    return list(zip(*(side.tolist() for side in _splittings(data, k, l))))


def _refusal_or_splittings(splittings, data, k, l):
    try:
        return splittings(data, k, l)
    except ValidationError as exc:
        return str(exc)


def _assert_splittings_match_oracle(data):
    for k in range(data.top_dim + 1):
        for l in range(data.top_dim + 1 - k):
            assert (_refusal_or_splittings(_splitting_triples, data, k, l)
                    == _refusal_or_splittings(splittings_oracle, data, k, l)), (k, l)


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_FIXTURES))
def test_splittings_read_off_the_face_tables_match_the_key_lookups(name):
    X = COHOMOLOGY_FIXTURES[name]()
    data = chain_complex_of(X, "Z2")
    _assert_splittings_match_oracle(data)
    if isinstance(X, CubicalComplex):
        assert len(_splitting_triples(data, 1, 1)) == 2 * data.size(2)
    else:
        with pytest.raises(ValidationError, match="cup products need cubical chain data"):
            _splittings(data, 1, 1)


def test_splittings_on_a_subtorus_selection_match_the_key_lookups():
    # the 2-torus over the 4-cycle {0, 2, 1, 3} of the octahedron, with the
    # signs of axes 4 and 5 frozen at (+1, -1): a closed selection
    data = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z2")
    keys = [[(sup, sg) for sup, sg in data.cell_keys[k]
             if set(sup) <= {0, 1, 2, 3} and (sg >> 4) & 3 == 0b01] for k in range(3)]
    sub = subcomplex_selection(data, keys).data
    assert sub.sizes() == (16, 32, 16)
    _assert_splittings_match_oracle(sub)
    assert len(_splitting_triples(sub, 1, 1)) == 2 * 16


def test_splittings_refuse_rows_that_are_not_cubical():
    data = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z2")
    ptr, faces, coeffs = data.incidences[2]
    # the same keys with each square's last face dropped
    keep = np.ones(len(faces), dtype=bool)
    keep[ptr[1:] - 1] = False
    short = ChainComplexData("Z2", data.cell_keys, data.incidences[:2] + [
        (ptr - np.arange(len(ptr)), faces[keep], coeffs[keep])] + data.incidences[3:])
    with pytest.raises(ValidationError, match="cup products need cubical chain data"):
        _splittings(short, 1, 1)
    assert _splitting_triples(short, 0, 1) == splittings_oracle(data, 0, 1)


# ---------------------------------------------------------------------------
# one incidence form: the arrays against the per-cell entry oracles
# ---------------------------------------------------------------------------


def _permuted_p3_quotient(seed):
    P = ideal_dual(gosset(3))
    perm = list(range(P.num_facets))
    random.Random(seed).shuffle(perm)
    return truncated_quotient(P, Colouring(P.num_facets, tuple(1 << p for p in perm))).quotient


def _axis_paired_p4_quotient():
    P = ideal_dual(gosset(4))
    return truncated_quotient(P, axis_paired_colouring(P)).quotient


def _drawn_p4_quotient():
    """The first seeded P^4 colouring into (Z/2)^5 that the truncation
    accepts: colour spans that are no coordinate subspaces."""
    for P, colouring in drawn_colourings():
        if P.n == 4:
            try:
                return truncated_quotient(P, colouring).quotient
            except ValidationError:
                continue


ENTRY_FIXTURES = {
    "3-simplex boundary": (lambda: boundary_of_simplex(3), simplicial_entry_oracle),
    "octahedron": (octahedron_boundary, simplicial_entry_oracle),
    "moebius strip": (mobius_strip_complex, simplicial_entry_oracle),
    "5-cycle": (lambda: cycle_complex(5), simplicial_entry_oracle),
    "torus": (INTEGRAL_FIXTURES["torus"], cubical_entry_oracle),
    "4-torus": (COHOMOLOGY_FIXTURES["4-torus"], cubical_entry_oracle),
    "klein bottle": (INTEGRAL_FIXTURES["klein bottle"], quotient_entry_oracle),
    "RP^2": (COHOMOLOGY_FIXTURES["RP^2"], quotient_entry_oracle),
    "cusped P^3 quotient": (COHOMOLOGY_FIXTURES["cusped P^3 quotient"], quotient_entry_oracle),
    "cusped P^3 quotient, colours shuffled": (lambda: _permuted_p3_quotient(1), quotient_entry_oracle),
    "cusped P^4 quotient, axis pairs sharing colours": (_axis_paired_p4_quotient, quotient_entry_oracle),
    "cusped P^4 quotient, drawn colours": (_drawn_p4_quotient, quotient_entry_oracle),
    # RP^2 on two vertices, its 2-cell running twice around a + b: repeated entries
    "RP^2, repeated entries": (lambda: _HandBuilt([("v", "w"), ("a", "b"), ("f",)], [
        ((), ()), (((0, -1), (1, 1)), ((1, -1), (0, 1))), (((0, 1), (1, 1), (0, 1), (1, 1)),)]),
        lambda X: (X.cell_keys, X.boundaries)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_FIXTURES))
def test_builders_and_readers_match_the_per_cell_entry_oracles(name):
    build, oracle = ENTRY_FIXTURES[name]
    X = build()
    data = chain_complex_of(X, "Z")
    cell_keys, entries = oracle(X)
    assert data.cell_keys == cell_keys
    assert entry_rows(data) == entries
    verify_dd_zero_oracle(data)
    top = data.top_dim
    for k in range(-1, top + 2):
        rows = entries[k] if 0 <= k <= top else ()
        upper = entries[k + 1] if 0 <= k + 1 <= top else ()
        # the rows that gf2_coreduction(k) skips, at the pivots of degree k - 1, stay 0
        skip = data.gf2_coreduction(k - 1)[0] if k > 0 else {}
        want = gf2_corows_oracle(upper, data.size(k))
        assert data.gf2_corows(k) == [0 if j in skip else row for j, row in enumerate(want)], k
        # the same entries in the same insertion order, which the elimination sees
        assert ([list(r.items()) for r in data._sparse_rows(k)]
                == [list(r.items()) for r in sparse_rows_oracle(rows, data.size(k - 1))]), k
    if top >= 2:
        # one flipped incidence: the array check and the oracle agree
        bad = list(entries[top])
        bad[-1] = ((bad[-1][0][0], -bad[-1][0][1]),) + bad[-1][1:]
        broken = chain_data_from_entries("Z", data.cell_keys, entries[:top] + [tuple(bad)])
        with pytest.raises(ValidationError, match=rf"^dd != 0 in dimension {top}$"):
            broken.verify_dd_zero()
        with pytest.raises(ValidationError, match=rf"^dd != 0 in dimension {top}$"):
            verify_dd_zero_oracle(broken)


def test_cusp_selections_match_the_per_entry_reindex():
    cusped = truncated_quotient(ideal_dual(gosset(3)))
    for coeff in ("Z", "Z2"):
        mdata = chain_complex_of(cusped.quotient, coeff)
        assert len(cusped.components) == 12
        for comp in cusped.components:
            sel = subcomplex_selection(mdata, comp.keys_per_dim)
            indices, cell_keys, entries = subcomplex_oracle(mdata, comp.keys_per_dim)
            assert sel.indices == indices
            assert sel.data.cell_keys == cell_keys
            assert entry_rows(sel.data) == entries
            assert sel.data.coeff == coeff
