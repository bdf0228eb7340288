"""Exact linear algebra kernels: GF(2) bitsets and integer Smith form."""

import random

from cuspforge import gf2
from cuspforge.snf import det_bareiss, kernel_basis, smith_normal_form, solve


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
        kern = gf2.left_kernel_basis(rows)
        assert len(kern) == nrows - gf2.rank_of_rows(rows)
        for combo in kern:
            acc = 0
            for i in gf2.indices_of_vector(combo):
                acc ^= rows[i]
            assert acc == 0


def test_right_kernel_annihilated_by_matrix():
    rng = random.Random(3)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        for vec in gf2.right_kernel_basis(rows, ncols):
            assert all((r & vec).bit_count() % 2 == 0 for r in rows)


def test_solve_rows_finds_combination():
    rng = random.Random(11)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        picks = rng.getrandbits(nrows)
        target = 0
        for i in gf2.indices_of_vector(picks):
            target ^= rows[i]
        x = gf2.solve_rows(rows, target)
        assert x is not None
        acc = 0
        for i in gf2.indices_of_vector(x):
            acc ^= rows[i]
        assert acc == target


def test_normal_form_is_canonical_on_cosets():
    rows = [0b0111, 0b1100]
    piv = gf2.rref_pivots(gf2.reduce_rows(rows))
    v = 0b1010
    reps = {gf2.normal_form(v ^ combo, piv)
            for combo in (0, rows[0], rows[1], rows[0] ^ rows[1])}
    assert len(reps) == 1


def test_submasks_walk_every_submask_once():
    rng = random.Random(5)
    for mask in [0, 1, 0b1011, 0b110100] + [rng.getrandbits(12) for _ in range(10)]:
        subs = list(gf2.submasks(mask))
        assert len(subs) == len(set(subs)) == 1 << bin(mask).count("1")
        assert all(v & ~mask == 0 for v in subs)
        assert 0 in subs and mask in subs


def test_transpose_roundtrip():
    rng = random.Random(5)
    rows = [rng.getrandbits(300) for _ in range(77)]
    back = gf2.transpose_rows(gf2.transpose_rows(rows, 300), 77)
    assert back == rows


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_reconstructs_and_is_unimodular():
    rng = random.Random(1)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        res = smith_normal_form(a)
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


def test_snf_kernel_and_solve():
    rng = random.Random(2)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n, -4, 4)
        res = smith_normal_form(a)
        for vec in kernel_basis(res):
            assert all(
                sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        y = solve(res, b)
        assert y is not None
        assert [sum(a[i][j] * y[j] for j in range(n)) for i in range(m)] == b


def test_snf_detects_unsolvable():
    res = smith_normal_form([[2]])
    assert solve(res, [1]) is None
    assert solve(res, [4]) == [2]
