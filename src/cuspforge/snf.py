"""Integer Smith normal form with unimodular transforms.

Entries are Python ints, so there is no overflow to guard against; pivot
selection by minimal absolute value keeps coefficient growth tame on the
sparse incidence matrices this library produces.

Work is skipped without changing a single move or entry: when step t
starts, rows above t are finished (only their diagonal entry is
non-zero), so column moves, all on columns >= t, touch rows t..m-1 only;
a unit pivot divides every entry, so no divisibility scan follows it;
and additions skip zero multiplicands.  The transforms start as
identities and stay sparse, so they are held as rows of {column: entry},
U and V^-1 transposed so that every move on them is a row move.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ValidationError

Matrix = List[List[int]]


def _add_dense(dst: List[int], src: Sequence[int], c: int) -> None:
    """dst += c * src, over the non-zero entries of src."""
    for k in compress(range(len(src)), src):
        dst[k] += c * src[k]


def _add_sparse(dst: Dict[int, int], src: Dict[int, int], c: int) -> None:
    """dst += c * src on rows stored as {column: non-zero entry}; c != 0."""
    for k, x in src.items():
        y = dst[k] = dst.get(k, 0) + c * x
        if not y:
            del dst[k]


def _dense(rows: List[Dict[int, int]], transpose: bool = False) -> Matrix:
    """The square matrix of rows stored as {column: entry}, or its transpose."""
    out = [[0] * len(rows) for _ in rows]
    for i, r in enumerate(rows):
        for k, x in r.items():
            if transpose:
                out[k][i] = x
            else:
                out[i][k] = x
    return out


@dataclass
class SNFResult:
    """Decomposition A = U D V with U, V unimodular and D diagonal.

    ``diag`` holds the invariant factors d_1 | d_2 | ... (nonnegative,
    zeros trailing).  ``uinv`` and ``vinv`` are the inverses of U and V,
    kept so that coordinates can be read without re-elimination.
    """

    nrows: int
    ncols: int
    diag: List[int]
    u: Matrix
    v: Matrix
    uinv: Matrix
    vinv: Matrix

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)

    def invariant_factors(self) -> List[int]:
        return [d for d in self.diag if d not in (0, 1)]

    def reconstruct(self) -> Matrix:
        m, n = self.nrows, self.ncols
        d = self.diag
        ud = [[self.u[i][k] * d[k] if k < len(d) else 0 for k in range(n)] for i in range(m)]
        return [[sum(ud[i][k] * self.v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]


def smith_normal_form(matrix: Sequence[Sequence[int]], nrows: int | None = None, ncols: int | None = None) -> SNFResult:
    """Compute the Smith normal form of an integer matrix.

    Accepts an empty matrix if nrows/ncols are given explicitly.
    """
    w = [list(row) for row in matrix]
    m = nrows if nrows is not None else len(w)
    n = ncols if ncols is not None else (len(w[0]) if w else 0)
    if len(w) != m or any(len(r) != n for r in w):
        raise ValidationError("matrix shape mismatch")

    # sparse transforms, U and V^-1 transposed; t is the current step
    u_t = [{i: 1} for i in range(m)]
    uinv = [{i: 1} for i in range(m)]
    v = [{i: 1} for i in range(n)]
    vinv_t = [{i: 1} for i in range(n)]
    t = 0

    # Elementary moves, each keeping A = U W V and the tracked inverses exact.
    def row_swap(i, j):
        for mat in (w, uinv, u_t):
            mat[i], mat[j] = mat[j], mat[i]

    def col_swap(i, j):
        for r in w[t:]:  # rows above t are finished
            r[i], r[j] = r[j], r[i]
        for mat in (vinv_t, v):
            mat[i], mat[j] = mat[j], mat[i]

    def row_add(src, dst, c):
        # w[dst] += c * w[src]
        _add_dense(w[dst], w[src], c)
        _add_sparse(uinv[dst], uinv[src], c)
        _add_sparse(u_t[src], u_t[dst], -c)

    def col_add(src, dst, c):
        # w[:,dst] += c * w[:,src], below the finished rows
        rows = w[t:]
        for r in compress(rows, map(itemgetter(src), rows)):
            r[dst] += c * r[src]
        _add_sparse(vinv_t[dst], vinv_t[src], c)
        _add_sparse(v[src], v[dst], -c)

    def row_negate(i):
        w[i] = [-x for x in w[i]]
        for mat in (uinv, u_t):
            mat[i] = {k: -x for k, x in mat[i].items()}

    def find_pivot(t: int) -> Optional[Tuple[int, int]]:
        best = None
        best_val = None
        for i in range(t, m):
            row = w[i]
            for j in compress(range(t, n), row[t:]):
                ax = abs(row[j])
                if best_val is None or ax < best_val:
                    best, best_val = (i, j), ax
                    if ax == 1:
                        return best
        return best

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
        p = w[t][t]
        offender = None if p == 1 else next(
            (i for i in range(t + 1, m) if any(x % p for x in w[i][t + 1:])), None)
        if offender is not None:
            row_add(offender, t, 1)
            continue
        t += 1

    diag = [w[k][k] for k in range(min(m, n))]
    return SNFResult(nrows=m, ncols=n, diag=diag, u=_dense(u_t, True), v=_dense(v),
                     uinv=_dense(uinv), vinv=_dense(vinv_t, True))


def apply_matrix(mat: Matrix, vec: Sequence[int]) -> List[int]:
    """mat . vec, over the non-zero entries of vec and of each column it selects."""
    out = [0] * len(mat)
    rows = range(len(mat))
    for k in compress(range(len(vec)), vec):
        x = vec[k]
        for i in compress(rows, map(itemgetter(k), mat)):
            out[i] += mat[i][k] * x
    return out


def kernel_basis(snf: SNFResult) -> List[List[int]]:
    """Integer basis of {x : A x = 0}: the trailing columns of V^{-1}."""
    n = snf.ncols
    r = snf.rank
    return [[snf.vinv[i][j] for i in range(n)] for j in range(r, n)]


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination (square input)."""
    a = [list(r) for r in matrix]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValidationError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
