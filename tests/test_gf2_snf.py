"""Exact linear algebra kernels: GF(2) bitsets and integer Smith form."""

import random
import re
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import booleans, composite, floats, integers, permutations, randoms, sets

from cuspforge import chains, gf2
from cuspforge.chains import (
    ChainComplexData, chain_complex_of, cohomology_z2_basis, homology, integral_homology_basis,
    subcomplex_selection,
)
from cuspforge.characteristic import (
    lie_cusp_certificate, spin_obstruction, spin_structures, summand_certificate,
)
from cuspforge.errors import BudgetError, ValidationError
from cuspforge.lattice import cube_lattice, polygon_lattice
from cuspforge.moment_angle import (
    Colouring, QuotientCellComplex, colour_manifold, real_moment_angle, truncated_quotient,
)
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.simplicial import octahedron_boundary
from cuspforge.snf import SNFResult, smith_normal_form

from dense_oracles import (
    DenseSNF, apply_matrix, chain_data_from_entries, dense_boundary, dense_snf, det_bareiss, left_kernel_basis,
    logged_transforms, matmul, reduce_rows, relation_rows, rref_normal_form, rref_pivots, solve_rows, submasks,
    tagged_pivots_oracle, transpose_rows, transpose_rows_by_bits,
)


def brute_rank_mod2(rows, ncols):
    mat = [[(r >> j) & 1 for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rank_matches_dense_elimination():
    rng = random.Random(42)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        assert gf2.rank_of_rows(rows) == brute_rank_mod2(rows, ncols)


def test_left_kernel_annihilates_rows():
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        kern = left_kernel_basis(rows)
        assert len(kern) == nrows - gf2.rank_of_rows(rows)
        for combo in kern:
            acc = 0
            for i in gf2.indices_of_vector(combo):
                acc ^= rows[i]
            assert acc == 0


def test_solve_rows_finds_combination():
    rng = random.Random(11)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        picks = rng.getrandbits(nrows)
        target = 0
        for i in gf2.indices_of_vector(picks):
            target ^= rows[i]
        x = solve_rows(rows, target)
        assert x is not None
        acc = 0
        for i in gf2.indices_of_vector(x):
            acc ^= rows[i]
        assert acc == target


def test_normal_form_is_canonical_on_cosets():
    rows = [0b0111, 0b1100]
    piv = {p: row for p, (row, _) in gf2._tagged_pivots(rows)[0].items()}
    v = 0b1010
    reps = {gf2.normal_form(v ^ combo, piv)
            for combo in (0, rows[0], rows[1], rows[0] ^ rows[1])}
    assert len(reps) == 1
    assert reps == {rref_normal_form(v, rref_pivots(reduce_rows(rows)))}


def test_submasks_walk_every_submask_once():
    rng = random.Random(5)
    for mask in [0, 1, 0b1011, 0b110100] + [rng.getrandbits(12) for _ in range(10)]:
        subs = list(submasks(mask))
        assert len(subs) == len(set(subs)) == 1 << bin(mask).count("1")
        assert all(v & ~mask == 0 for v in subs)
        assert 0 in subs and mask in subs


def test_transpose_roundtrip():
    rng = random.Random(5)
    rows = [rng.getrandbits(300) for _ in range(77)]
    back = transpose_rows(transpose_rows(rows, 300), 77)
    assert back == rows


def _xor_of(rows, mask):
    acc = 0
    for i in gf2.indices_of_vector(mask):
        acc ^= rows[i]
    return acc


@composite
def gf2_spans(draw):
    """Rows spanning a subspace of any rank from 0 to full, at widths up to
    130 bits: a basis with distinct lowest bits, mixed unitriangularly and
    padded with dependent rows, in shuffled order."""
    width = draw(integers(1, 130))
    rank = draw(integers(0, width))
    rng = draw(randoms(use_true_random=False))
    basis = [(1 << col) | (rng.getrandbits(width) >> (col + 1) << (col + 1))
             for col in rng.sample(range(width), rank)]
    rows = [_xor_of(basis, rng.getrandbits(i) | (1 << i)) for i in range(rank)]
    rows += [_xor_of(basis, rng.getrandbits(rank)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return width, rank, rows, rng


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=gf2_spans(), nrows=integers(0, 100), ncols=integers(0, 100))
def test_one_elimination_matches_the_oracles(case, nrows, ncols):
    width, rank, rows, rng = case
    pivots, _ = gf2._tagged_pivots(rows)
    assert len(pivots) == gf2.rank_of_rows(rows) == rank
    # coset representatives: every vector of a coset (64 of them past 2^6)
    # has the rref oracle's normal form
    rref = rref_pivots(reduce_rows(rows))
    untagged = {p: row for p, (row, _) in pivots.items()}
    v = rng.getrandbits(width)
    want = rref_normal_form(v, rref)
    combos = range(1 << len(rows)) if len(rows) <= 6 else [rng.getrandbits(len(rows)) for _ in range(64)]
    for combo in combos:
        assert gf2.normal_form(v ^ _xor_of(rows, combo), untagged) == want
    # rank, kernel tags and solve against every combination of a few rows
    small = [_xor_of(rows, rng.getrandbits(len(rows))) for _ in range(rng.randint(0, 9))]
    sums = {}
    for x in range(1 << len(small)):
        sums.setdefault(_xor_of(small, x), x)
    pivots, kernel = gf2._tagged_pivots(small)
    assert len(pivots) == brute_rank_mod2(small, width)
    assert len(kernel) == len(small) - len(pivots) == brute_rank_mod2(kernel, len(small))
    assert all(_xor_of(small, tag) == 0 for tag in kernel)
    for target in (rng.getrandbits(width), _xor_of(small, rng.getrandbits(len(small)))):
        residue, x = gf2.reduce_tagged(target, pivots)
        assert (residue == 0) == (target in sums)
        if not residue:
            assert _xor_of(small, x) == target
    # transposes on shapes both sides of 4096 entries (the old small-matrix cut-over)
    matrix = [rng.getrandbits(ncols) for _ in range(nrows)]
    columns = transpose_rows(matrix, ncols)
    assert columns == transpose_rows_by_bits(matrix, ncols)
    assert transpose_rows(columns, nrows) == matrix


@pytest.mark.parametrize("seed", range(6))
def test_pivot_loop_matches_the_reduce_tagged_loop(seed):
    """Same pivots, in the same insertion order, with the same tags and
    kernel tags, on rows past 64 bits with zero rows, repeated rows and
    skipped indices."""
    rng = random.Random(seed)
    for _ in range(40):
        width = rng.choice([1, 7, 64, 65, 130, 300])
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 40))]
        rows += [0] * rng.randint(0, 3) + rng.choices(rows, k=rng.randint(0, 5)) if rows else []
        rng.shuffle(rows)
        for skip in ((), set(rng.sample(range(len(rows)), len(rows) // 3)), range(0, len(rows), 2)):
            got, want = gf2._tagged_pivots(rows, skip), tagged_pivots_oracle(rows, skip)
            assert got == want
            assert list(got[0]) == list(want[0])


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 200])
def test_natural_rows_pivot_on_their_highest_bit(width):
    """At widths on both sides of byte and word boundaries, every stored
    pivot row has its highest set bit at its key, its tag xors the inputs
    to that row, the pivots count the brute-force rank, and a residue of
    ``reduce_tagged`` or ``normal_form`` carries no pivot column.  Bit c is
    column c: the unit row of column c is keyed at c."""
    rng = random.Random(width)
    for _ in range(30):
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 40))]
        rows += [0] * rng.randint(0, 3) + rng.choices(rows, k=rng.randint(0, 5)) if rows else []
        rng.shuffle(rows)
        for skip in ((), set(rng.sample(range(len(rows)), len(rows) // 3))):
            pivots, kernel = gf2._tagged_pivots(rows, skip)
            kept = [0 if i in skip else row for i, row in enumerate(rows)]
            assert len(pivots) == brute_rank_mod2(kept, width)
            assert len(kernel) == len(rows) - len(skip) - len(pivots)
            for p, (row, tag) in pivots.items():
                assert row.bit_length() - 1 == p < width and _xor_of(rows, tag) == row
            assert all(_xor_of(rows, tag) == 0 for tag in kernel)
            untagged = {p: row for p, (row, _) in pivots.items()}
            for v in [rng.getrandbits(width), _xor_of(kept, rng.getrandbits(len(rows)))]:
                residue, tag = gf2.reduce_tagged(v, pivots)
                assert residue.bit_length() - 1 not in pivots
                assert residue ^ _xor_of(rows, tag) == v
                assert not any((gf2.normal_form(v, untagged) >> p) & 1 for p in pivots)
    for col in range(width):
        assert list(gf2._tagged_pivots([1 << col])[0]) == [col]


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_reconstructs_and_is_unimodular():
    rng = random.Random(1)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        res = dense_snf(smith_normal_form(a))
        assert res.reconstruct() == a
        assert abs(det_bareiss(res.u)) == 1
        assert abs(det_bareiss(res.v)) == 1
        diag = [d for d in res.diag if d]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        assert all(d >= 0 for d in res.diag)


def test_snf_known_values():
    assert smith_normal_form([[2, 0], [0, 3]]).diag == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]).diag == [0, 0]
    assert smith_normal_form([[4]]).diag == [4]


def test_apply_matrix_matches_naive_product():
    rng = random.Random(13)
    for _ in range(60):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
        mat = [[x if rng.random() < density else 0 for x in row] for row in random_matrix(rng, m, n)]
        vec = [x if rng.random() < density else 0 for x in random_matrix(rng, 1, n)[0]]
        naive = [sum(mat[i][k] * vec[k] for k in range(n)) for i in range(m)]
        assert apply_matrix(mat, vec) == naive


def test_snf_and_det_refuse_bad_shapes_with_validation_error():
    for bad in (lambda: smith_normal_form([[1, 2], [3]]),
                lambda: smith_normal_form([[1]], nrows=2),
                lambda: smith_normal_form([[1, 2]], ncols=3),
                lambda: det_bareiss([[1, 2]])):
        with pytest.raises(ValidationError) as exc:
            bad()
        assert exc.value.exit_code == 2


@pytest.mark.parametrize("matrix, ncols", [
    ([[0.5, 1]], None),  # a float entry (read as the diagonal [0.5] before)
    ([[1, 0.0]], None),  # a float zero
    ([{0: 1.5}], 1),  # a float entry of a sparse row (diagonal [1.5] before)
    ([{"a": 1}], 2),  # a column key that is not an integer (a bare TypeError before)
    ([{0.0: 1}], 1),
    ([[Fraction(1)]], None),
])
def test_snf_refuses_entries_and_columns_that_are_not_integers(matrix, ncols):
    with pytest.raises(ValidationError, match="must be integers") as exc:
        smith_normal_form(matrix, ncols=ncols)
    assert exc.value.exit_code == 2


def test_snf_reads_numpy_integers_as_python_ints():
    dense = smith_normal_form(np.array([[2, 0], [0, 3]], dtype=np.int64))
    sparse = smith_normal_form([{np.int64(0): np.int32(2)}, {1: np.int64(3)}], ncols=2)
    for res in (dense, sparse):
        assert res.diag == [1, 6]
        assert all(type(d) is int for d in res.diag)


# ---------------------------------------------------------------------------
# oracle: the dense Smith normal form that the sparse one replaced, verbatim
# but for its pivot choice, which is a parameter: ``fewest_nonzeros_pivot``
# (the sparse rule, by a dense scan) or ``first_least_pivot`` (the rule the
# dense form had)
# ---------------------------------------------------------------------------


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def first_least_pivot(w, t: int, m: int, n: int) -> Optional[Tuple[int, int]]:
    """The first entry of least absolute value in rows and columns >= t,
    in row-major order."""
    best = None
    best_val = None
    for i in range(t, m):
        row = w[i]
        for j in range(t, n):
            x = row[j]
            if x != 0:
                ax = abs(x)
                if best_val is None or ax < best_val:
                    best, best_val = (i, j), ax
                    if ax == 1:
                        return best
    return best


def fewest_nonzeros_pivot(w, t: int, m: int, n: int) -> Optional[Tuple[int, int]]:
    """An entry of least absolute value in rows >= t: among the rows
    holding one, the one with the fewest non-zeros, ties to the lower row;
    in it the entry of that value whose column has the fewest non-zeros,
    ties to the lower column."""
    least = min((abs(x) for r in w[t:m] for x in r if x), default=None)
    if least is None:
        return None
    holding = [i for i in range(t, m) if least in map(abs, w[i])]
    i = min(holding, key=lambda r: (sum(1 for x in w[r] if x), r))
    j = min((c for c in range(n) if abs(w[i][c]) == least), key=lambda c: (sum(1 for r in w if r[c]), c))
    return i, j


def _smith_oracle(matrix: Sequence[Sequence[int]], nrows: int | None = None, ncols: int | None = None,
                  pivot=fewest_nonzeros_pivot) -> DenseSNF:
    """Compute the Smith normal form of an integer matrix.

    Accepts an empty matrix if nrows/ncols are given explicitly.
    """
    w = [list(row) for row in matrix]
    m = nrows if nrows is not None else len(w)
    n = ncols if ncols is not None else (len(w[0]) if w else 0)
    if len(w) != m or any(len(r) != n for r in w):
        raise ValueError("matrix shape mismatch")

    u = _identity(m)
    uinv = _identity(m)
    v = _identity(n)
    vinv = _identity(n)

    # Elementary moves, each keeping A = U W V and the tracked inverses exact.
    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in w:
            r[i], r[j] = r[j], r[i]
        for r in vinv:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def row_add(src, dst, c):
        # w[dst] += c * w[src]
        wd, ws = w[dst], w[src]
        for k in range(n):
            wd[k] += c * ws[k]
        ud, us = uinv[dst], uinv[src]
        for k in range(m):
            ud[k] += c * us[k]
        for r in u:
            r[src] -= c * r[dst]

    def col_add(src, dst, c):
        # w[:,dst] += c * w[:,src]
        for r in w:
            r[dst] += c * r[src]
        for r in vinv:
            r[dst] += c * r[src]
        vs, vd = v[src], v[dst]
        for k in range(n):
            vs[k] -= c * vd[k]

    def row_negate(i):
        w[i] = [-x for x in w[i]]
        uinv[i] = [-x for x in uinv[i]]
        for r in u:
            r[i] = -r[i]

    def find_pivot(t: int) -> Optional[Tuple[int, int]]:
        return pivot(w, t, m, n)

    t = 0
    limit = min(m, n)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        if pos != (t, t):
            if pos[0] != t:
                row_swap(t, pos[0])
            if pos[1] != t:
                col_swap(t, pos[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    if q:
                        row_add(t, i, -q)
                    if w[i][t]:
                        # remainder smaller than pivot: swap up and restart
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    if q:
                        col_add(t, j, -q)
                    if w[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            break
        if w[t][t] < 0:
            row_negate(t)
        # enforce divisibility: fold any non-multiple into row t and redo
        offender = None
        for i in range(t + 1, m):
            row = w[i]
            for j in range(t + 1, n):
                if row[j] % w[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(offender, t, 1)
            continue
        t += 1

    diag = [w[k][k] for k in range(min(m, n))]
    return DenseSNF(nrows=m, ncols=n, diag=diag, u=u, v=v, uinv=uinv, vinv=vinv)


SNF_FIELDS = ("nrows", "ncols", "diag", "u", "v", "uinv", "vinv")


def _oracle_with_both_rules(matrix, nrows=None, ncols=None) -> DenseSNF:
    """The oracle under the sparse rule, after checking that the former
    rule reaches the same diagonal (invariant factors are unique)."""
    want = _smith_oracle(matrix, nrows, ncols)
    assert _smith_oracle(matrix, nrows, ncols, first_least_pivot).diag == want.diag
    return want


def _assert_matches_oracle(matrix, nrows=None, ncols=None):
    got = dense_snf(smith_normal_form(matrix, nrows, ncols))
    want = _oracle_with_both_rules(matrix, nrows, ncols)
    for name in SNF_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    return got


def test_snf_transforms_match_oracle_on_small_and_edge_matrices():
    rng = random.Random(20)
    cases = [([[2, 0], [0, 3]],), ([[2, 4], [6, 8]],), ([[4]],), ([[0, 0, 0], [0, 0, 0]],),
             ([[0] * 5 for _ in range(4)],), ([], 0, 3), ([[], [], []], 3, 0), ([], 0, 0)]
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        lo, hi = rng.choice([(-9, 9), (-1, 1), (0, 6)])
        dense = random_matrix(rng, m, n, lo, hi)
        sparse = [[x if rng.random() < 0.3 else 0 for x in row] for row in dense]
        cases += [(dense,), (sparse,)]
    non_unit = 0
    for case in cases:
        res = _assert_matches_oracle(*case)
        non_unit += any(d > 1 for d in res.diag)
    assert non_unit >= 10  # the divisibility fix-ups and non-unit pivots are exercised


def test_snf_transforms_match_oracle_on_boundary_maps():
    klein = colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    data = chain_complex_of(klein, "Z")
    assert _assert_matches_oracle(dense_boundary(data, 2), data.size(1), data.size(2)).invariant_factors() == [2]
    quotient = truncated_quotient(ideal_dual(gosset(3)))
    cusped = chain_complex_of(quotient.quotient, "Z")
    assert (cusped.size(2), cusped.size(3)) == (384, 64)
    _assert_matches_oracle(dense_boundary(cusped, 3), cusped.size(2), cusped.size(3))
    # the sparse entry: ChainComplexData.smith(k) hands d_k (k <= 1) or the
    # relations R_k over as sparse rows, each degree chained on the one below
    t3 = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z")
    cusp_torus = subcomplex_selection(cusped, quotient.components[0].keys_per_dim).data
    assert cusp_torus.sizes() == (16, 32, 16)
    for d in (t3, data, cusp_torus):
        below = None
        for k in range(d.top_dim + 2):
            below = _check_chained_smith(d, k, below)
    # degree 3 of the full cusped quotient, chained on the library's degree 2
    # (d_1 and d_2 are left out: the oracle takes seconds on them)
    assert _check_chained_smith(cusped, 3, dense_snf(cusped.smith(2))).nrows == 384 - 309


def _check_chained_smith(d, k: int, below: Optional[DenseSNF]) -> DenseSNF:
    """``d.smith(k)`` against the dense oracle SNF of d_k (with no degree
    below) or of R_k, the rows of V d_k past the rank of ``below`` = U D V,
    the oracle of degree k-1; then densely d_k = V^-1 diag(I, U_k) [0; D_k]
    V_k.  Returns the oracle of degree k."""
    boundary = dense_boundary(d, k)
    rows = boundary if below is None else relation_rows(below, boundary, d.size(k))
    want = _oracle_with_both_rules(rows, len(rows), d.size(k))
    got = dense_snf(d.smith(k))
    for name in SNF_FIELDS:
        assert getattr(got, name) == getattr(want, name), (d.sizes(), k, name)
    assert (got.rank, got.invariant_factors()) == (want.rank, want.invariant_factors())
    if below is not None:
        # diag(I, U_k) [0; D_k] V_k is [0; U_k D_k V_k]
        lifted = [[0] * d.size(k) for _ in range(below.rank)] + got.reconstruct()
        assert matmul(below.vinv, lifted, d.size(k)) == boundary, (d.sizes(), k)
    return want


def test_unit_pivots_limit_fill_on_the_cusped_quotient():
    """The moves of the three eliminations of the cusped P^3 quotient (the
    pivot rule and the chaining alone fix them): 4082 with the
    fewest-non-zeros unit pivot on d_1 and then on the relations of d_2 and
    d_3.  Eliminating each d_k on its own took 6010 with that pivot and
    18813 with the first unit in row-major order."""
    data = chain_complex_of(truncated_quotient(ideal_dual(gosset(3))).quotient, "Z")
    moves = sum(len(data.smith(k)._row_moves) + len(data.smith(k)._col_moves) for k in (1, 2, 3))
    assert moves <= 4500


@pytest.mark.parametrize("k", [1, 2, 3])
def test_non_unit_pivots_limit_fill_on_the_doubled_cusped_quotient(k):
    """2 d_k has no unit, and the one pivot rule scales with it: its
    elimination makes exactly the moves of d_k's own (2091, 3290 and 629
    for k = 1, 2, 3), where the first least entry in row-major order made
    9930, 7367 and 1516."""
    data = chain_complex_of(truncated_quotient(ideal_dual(gosset(3))).quotient, "Z")
    rows = data._sparse_rows(k)
    plain = smith_normal_form(rows, len(rows), data.size(k))
    doubled = smith_normal_form([{j: 2 * x for j, x in r.items()} for r in rows], len(rows), data.size(k))
    assert doubled.diag == [2 * d for d in plain.diag]
    assert doubled._row_moves == plain._row_moves
    assert doubled._col_moves == plain._col_moves


def test_a_pivot_that_grows_is_still_scanned_and_folds():
    """The divisibility scan is skipped only after a repeated pivot: the
    second 2 repeats the first, so no scan follows it, but the next pivot,
    4, differs and its scan folds the row holding 6 into its own."""
    matrix = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 6]]
    got = _assert_matches_oracle(matrix)
    assert got.diag == [2, 2, 2, 12]
    assert smith_normal_form(matrix)._row_moves[0] == (3, 2, 1)  # the fold


def _held_at_refusal(matrix, budget, monkeypatch) -> Optional[int]:
    """The entries the elimination reports holding when it refuses under
    ``budget``, or None when it runs to the end."""
    monkeypatch.setenv("CUSPFORGE_BUDGET", str(budget))
    try:
        smith_normal_form(matrix)
    except BudgetError as exc:
        assert exc.exit_code == 3
        return int(re.match(r"^integral elimination holds (\d+) entries \(non-zeros and moves\), "
                            rf"budget is {budget}; use Z/2 coefficients at this scale$", str(exc))[1])
    finally:
        monkeypatch.delenv("CUSPFORGE_BUDGET")
    return None


@pytest.mark.parametrize("seed", range(8))
def test_snf_budget_counts_the_non_zeros_and_moves_it_holds(monkeypatch, seed):
    """A rank-deficient matrix's last budget check comes when no pivot is
    left, and sees its rank non-zeros (the diagonal) plus every logged move,
    so one entry less is refused.  Raising the budget to each refused count
    climbs to the peak, under which the elimination runs to the result it
    has with no budget, move for move."""
    rng = random.Random(seed)
    left, right = ([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)] for r, c in ((7, 4), (4, 9)))
    matrix = [[2 * sum(a * b for a, b in zip(row, col)) + (i == j == 0) for j, col in enumerate(zip(*right))]
              for i, row in enumerate(left)]
    free = smith_normal_form(matrix)
    last = free.rank + len(free._row_moves) + len(free._col_moves)
    assert 0 < free.rank < 7 and last > 1
    held = _held_at_refusal(matrix, last - 1, monkeypatch)
    assert held >= last
    while (higher := _held_at_refusal(matrix, held, monkeypatch)) is not None:
        assert higher > held
        held = higher
    monkeypatch.setenv("CUSPFORGE_BUDGET", str(held))
    got = smith_normal_form(matrix)
    assert (got.diag, got._row_moves, got._col_moves) == (free.diag, free._row_moves, free._col_moves)


def test_integral_budget_pins_the_peak_of_the_cusped_quotient(monkeypatch):
    """The three eliminations of the cusped P^3 quotient hold at most 2467
    entries (non-zeros plus logged moves) at a pivot step: a budget one
    below is refused at that count, and at it homology(Z) and the H_1
    basis are those of the default budget."""
    quotient = truncated_quotient(ideal_dual(gosset(3))).quotient
    want = chain_complex_of(quotient, "Z")
    want_homology, want_h1 = homology(want), integral_homology_basis(want, 1).free_generators
    monkeypatch.setenv("CUSPFORGE_BUDGET", "2466")
    with pytest.raises(BudgetError, match=r"^integral elimination holds 2467 entries "):
        homology(chain_complex_of(quotient, "Z"))
    monkeypatch.setenv("CUSPFORGE_BUDGET", "2467")
    data = chain_complex_of(quotient, "Z")
    assert homology(data) == want_homology
    assert integral_homology_basis(data, 1).free_generators == want_h1


def test_one_integral_elimination_per_degree(monkeypatch):
    """homology(Z) and the H_k bases of every degree share the eliminations:
    one per d_1 .. d_top, plus the empty relations of the top degree."""
    calls = []
    eliminate = chains.smith_normal_form
    monkeypatch.setattr(chains, "smith_normal_form", lambda *a: calls.append(a[1:]) or eliminate(*a))
    data = chain_complex_of(truncated_quotient(ideal_dual(gosset(3))).quotient, "Z")
    top = data.top_dim
    assert homology(data).betti == (1, 12, 11, 0)
    assert len(calls) == top
    bases = [integral_homology_basis(data, k) for k in range(1, top + 1)]
    assert [b.free_rank for b in bases] == [12, 11, 0]
    assert len(calls) == top + 1
    # d_1 itself, then the relations: each as many rows as the cycles below
    assert calls == [(208, 528), (528 - 207, 384), (384 - 309, 64), (64 - 64, 0)]


def test_second_z2_homology_runs_no_elimination(monkeypatch):
    calls = []
    reduce = gf2._tagged_pivots
    monkeypatch.setattr(gf2, "_tagged_pivots", lambda *a: calls.append(1) or reduce(*a))
    data = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z2")
    first = homology(data)
    assert first.betti == (1, 3, 3, 1) and len(calls) == 3  # one per coboundary map
    assert homology(data) == first
    assert len(calls) == 3


def _coordinate_subtorus_keys(Z, axes):
    """Cells of the coordinate subtorus on ``axes``, the other coordinates
    frozen at +1."""
    frozen = [i for i in range(Z.ambient) if i not in axes]
    return [[(sup, sg) for sup, sg in Z.cells_of_dim(d)
             if set(sup) <= set(axes) and all((sg >> i) & 1 for i in frozen)]
            for d in range(len(axes) // 2 + 1)]


def test_every_z2_reader_reaches_the_one_elimination(monkeypatch):
    calls = []
    reduce = gf2._tagged_pivots
    monkeypatch.setattr(gf2, "_tagged_pivots", lambda *a: calls.append(a[0]) or reduce(*a))

    def count(read):
        calls.clear()
        read()
        return len(calls)

    assert count(lambda: gf2.rank_of_rows([0b011, 0b110, 0b101])) == 1
    cube = cube_lattice(3)
    assert count(lambda: QuotientCellComplex(cube, (1, 1, 2, 2, 4, 4), 3)) == len(cube.faces)
    t4 = colour_manifold(cube_lattice(4), Colouring.distinct(8))
    data = chain_complex_of(t4, "Z2")
    assert count(lambda: cohomology_z2_basis(data, 2)) == 3  # delta^0, delta^1, delta^2
    # the Gram rows: rank and Wu class from one elimination, H^2 read off the cache
    assert count(lambda: spin_obstruction(t4, data)) == 1

    # every Z/2 reader of one fresh chain data, together: the parent's
    # coboundary rows of each degree are eliminated once
    data = chain_complex_of(t4, "Z2")
    top = data.top_dim
    selections = [subcomplex_selection(data, _coordinate_subtorus_keys(t4, axes))
                  for axes in ((0, 1, 2, 3), (4, 5, 6, 7))]
    calls.clear()
    assert homology(data).betti == (1, 4, 6, 4, 1)
    assert [cohomology_z2_basis(data, k).dimension for k in range(top + 1)] == [1, 4, 6, 4, 1]
    assert spin_structures(t4, data).structure_count == 16
    assert spin_obstruction(t4, data).vanishes is True
    assert [lie_cusp_certificate(sel).restriction_rank for sel in selections] == [2, 2]
    assert [sum(rows == data.gf2_corows(k) for rows in calls) for k in range(top + 1)] == [1] * (top + 1)
    # and the chain data keeps no other Z/2 form or elimination; _sections
    # only hands equal subcomplex selections the same three caches
    assert {f.name for f in fields(ChainComplexData) if f.name.startswith("_")} == {
        "_index", "_gf2_coreduction", "_smith", "_integral_bases", "_orientability", "_sections"}
    assert set(data._gf2_coreduction) == set(range(-1, top + 1))


def test_induced_maps_on_one_parent_eliminate_its_boundaries_once(monkeypatch):
    """Lie certificates of two cusp tori of one parent: the parent's delta^0
    and delta^1 are eliminated once each, and the second certificate reads
    them off the cache.  The two tori are equal as chain data, so the second
    also reads the first one's eliminations of delta^0 and delta^1.  Each
    certificate adds one elimination of its own, the rank of its
    restriction rows."""
    cusped = truncated_quotient(ideal_dual(gosset(3)))
    parent = chain_complex_of(cusped.quotient, "Z2")
    first, second = (subcomplex_selection(parent, c.keys_per_dim) for c in cusped.components[:2])
    assert second.data.cell_keys != first.data.cell_keys
    assert second.data._gf2_coreduction is first.data._gf2_coreduction
    seen = []
    reduce = gf2._tagged_pivots
    monkeypatch.setattr(gf2, "_tagged_pivots", lambda *a: seen.append(a[0]) or reduce(*a))
    certs = [lie_cusp_certificate(first)]
    section_rows = [second.data.gf2_corows(k) for k in (0, 1)]
    assert [sum(rows == r for r in seen) for rows in section_rows] == [1, 1]
    assert seen[-1] == certs[0].matrix_rows
    seen_first = len(seen)
    certs.append(lie_cusp_certificate(second))
    # the restriction rows' rank alone: neither the section's nor the parent's coboundaries again
    assert seen[seen_first:] == [certs[1].matrix_rows]
    parent_rows = [parent.gf2_corows(k) for k in (0, 1)]
    assert [sum(rows == r for r in seen) for rows in parent_rows] == [1, 1]  # delta^0, delta^1 once each
    assert all((len(c.matrix_rows), c.target_dim, c.restriction_rank) == (12, 2, 2) for c in certs)


def test_sections_share_eliminations_by_coefficient_value_past_int64():
    """Coefficients past int64 sit in object arrays, whose bytes are
    pointers: equal sections are keyed by value, and a section differing
    in one such coefficient gets eliminations of its own."""
    big = 2 ** 64
    edges = [(big, -big), (int(str(big)), -int(str(big))), (big + 1, -big)]
    keys = [[(v,) for v in range(6)], [(2 * e, 2 * e + 1) for e in range(3)]]
    data = chain_data_from_entries(
        "Z", keys, [[[] for _ in range(6)], [[(2 * e, a), (2 * e + 1, b)] for e, (a, b) in enumerate(edges)]])
    assert data.incidences[1][2].dtype == object
    first, equal, other = (subcomplex_selection(data, [[(2 * e,), (2 * e + 1,)], [(2 * e, 2 * e + 1)]])
                           for e in range(3))
    assert first.data.incidences[1][2].tobytes() != equal.data.incidences[1][2].tobytes()
    assert first.data._smith is equal.data._smith
    assert first.data._gf2_coreduction is equal.data._gf2_coreduction
    assert first.data._integral_bases is equal.data._integral_bases
    assert first.data.smith(1) is equal.data.smith(1)
    assert first.data.smith(1).diag == [big]
    assert other.data._smith is not first.data._smith
    assert other.data.smith(1).diag == [1]
    assert equal.data.cell_keys != first.data.cell_keys and equal.indices != first.indices


def test_integral_work_builds_only_the_transforms_it_reads(monkeypatch):
    replayed = []
    replay = SNFResult._replay
    monkeypatch.setattr(SNFResult, "_replay",
                        lambda self, transform, rows: replayed.append(transform) or replay(self, transform, rows))
    quotient = truncated_quotient(ideal_dual(gosset(3)))
    data = chain_complex_of(quotient.quotient, "Z")
    assert data.sizes() == (208, 528, 384, 64)
    assert homology(data).betti == (1, 12, 11, 0)
    # V of degrees 1 and 2 on the rows of d_2 and d_3, which the eliminations
    # of degrees 2 and 3 take; ranks and torsion read the diagonals only
    assert replayed == ["v", "v"]
    basis = integral_homology_basis(data, 1)
    # U' on the free unit columns, V^-1 on the generators; no elimination
    assert replayed == ["v", "v", "u", "vinv"]
    assert integral_homology_basis(data, 1) is basis
    assert homology(data).betti == (1, 12, 11, 0)
    assert replayed == ["v", "v", "u", "vinv"]  # a second call replays nothing
    replayed.clear()
    basis.project(basis.free_generators[0])
    assert replayed == ["uinvT", "vT"]  # the covectors, built once
    for g in basis.free_generators[:3]:
        replayed.clear()
        basis.project(g)
        assert replayed == []
    # no replay per selection, however many generators A has: a cusp torus
    # (2), a single vertex (0) and the whole complex (12)
    selections = [subcomplex_selection(data, quotient.components[0].keys_per_dim),
                  subcomplex_selection(data, [data.cell_keys[0][:1]]),
                  subcomplex_selection(data, data.cell_keys)]
    for sel, rank in zip(selections, (2, 0, 12)):
        assert integral_homology_basis(sel.data, 1).free_rank == rank
        replayed.clear()
        assert summand_certificate(sel, parent_basis=basis).torus_rank == rank
        assert replayed == []


@composite
def integer_matrices(draw):
    """Up to 9 x 9, entries -50..50 at a drawn density, some rows and
    columns zeroed; rows dense lists or sparse dicts."""
    m, n = draw(integers(0, 9)), draw(integers(0, 9))
    density = draw(floats(0.1, 1.0))
    rng = draw(randoms(use_true_random=False))
    zero_rows, zero_cols = draw(sets(integers(0, 8), max_size=3)), draw(sets(integers(0, 8), max_size=3))
    a = [[rng.randint(-50, 50) if i not in zero_rows and j not in zero_cols and rng.random() < density
          else 0 for j in range(n)] for i in range(m)]
    return a, m, n


@composite
def incidence_matrices(draw):
    """Up to 9 x 9 with entries in {-1, 0, 1}, shaped like a boundary map:
    each column (a cell) has up to four non-zero entries (its faces), so
    the unit rule, not the least-entry fallback, picks most pivots."""
    m, n = draw(integers(0, 9)), draw(integers(0, 9))
    rng = draw(randoms(use_true_random=False))
    a = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), rng.randint(0, min(m, 4))):
            a[i][j] = rng.choice((-1, 1))
    return a, m, n


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=integer_matrices(), unit_case=incidence_matrices(), sparse=booleans(),
       order=permutations(["u", "v", "uinv", "vinv"]))
def test_snf_matches_oracle_on_random_integer_matrices(case, unit_case, sparse, order):
    for a, m, n in (case, unit_case):
        rows = [{j: x for j, x in enumerate(r) if x} for r in a] if sparse else a
        res = smith_normal_form(rows, m, n)
        got = dense_snf(res)
        want = _oracle_with_both_rules(a, m, n)
        for name in ("nrows", "ncols", "diag", *order, *order):
            assert getattr(got, name) == getattr(want, name), name
        assert res.rank == sum(1 for d in want.diag if d)


# ---------------------------------------------------------------------------
# the replay of the move logs against the dense oracle's transforms
# ---------------------------------------------------------------------------


def _check_replay(a, m, n, rng) -> SNFResult:
    """Each of U, U^-1, V, V^-1 and their transposes replayed on a sparse
    random block B equals the oracle's dense product T B, the inverses
    cancel, and replay on identity rows agrees with the former two-identity
    replay."""
    res = smith_normal_form(a, m, n)
    want = _oracle_with_both_rules(a, m, n)
    for name, size in (("u", m), ("uinv", m), ("v", n), ("vinv", n)):
        dense = getattr(want, name)
        for transform, matrix in ((name, dense), (name + "T", [list(col) for col in zip(*dense)])):
            width = rng.randint(0, 4)
            block = [{j: x for j in range(width) if rng.random() < 0.4 and (x := rng.randint(-5, 5))}
                     for _ in range(size)]
            product = [[sum(row[k] * block[k].get(j, 0) for k in range(size)) for j in range(width)]
                       for row in matrix]
            got = res._replay(transform, [dict(r) for r in block])
            assert [[r.get(j, 0) for j in range(width)] for r in got] == product, transform
    for t, inv, size in (("u", "uinv", m), ("v", "vinv", n)):
        eye = [{i: 1} for i in range(size)]
        assert res._replay(t, res._replay(inv, [dict(r) for r in eye])) == eye
        assert res._replay(inv, res._replay(t, [dict(r) for r in eye])) == eye
    dense = dense_snf(res)
    assert logged_transforms(res) == {name: getattr(dense, name) for name in ("u", "uinv", "v", "vinv")}
    return res


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=integer_matrices(), unit_case=incidence_matrices(), rng=randoms(use_true_random=False))
def test_replay_applies_each_transform_as_the_dense_product(case, unit_case, rng):
    _check_replay(*case, rng)
    _check_replay(*unit_case, rng)


def test_replay_covers_swaps_negations_and_non_unit_pivots():
    rng = random.Random(3)
    cases = [[[2, 4], [6, 8]], [[0, 3], [-1, 0]], [[0, 0, -2], [0, 4, 6]], [[6, 10, 15]], [[-4]]]
    cases += [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -6, 6) for _ in range(30)]
    kinds = {"row swap": 0, "column swap": 0, "negation": 0, "non-unit pivot": 0}
    for a in cases:
        res = _check_replay(a, len(a), len(a[0]), rng)
        kinds["row swap"] += sum(len(move) == 2 for move in res._row_moves)
        kinds["column swap"] += sum(len(move) == 2 for move in res._col_moves)
        kinds["negation"] += sum(len(move) == 1 for move in res._row_moves)
        kinds["non-unit pivot"] += any(d > 1 for d in res.diag)
    assert all(count >= 5 for count in kinds.values()), kinds
