"""Integer Smith normal form with unimodular transforms.

Entries are Python ints, so there is no overflow to guard against; pivot
selection by minimal absolute value keeps coefficient growth tame on the
sparse incidence matrices this library produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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

    @property
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
    return SNFResult(nrows=m, ncols=n, diag=diag, u=u, v=v, uinv=uinv, vinv=vinv)


def apply_matrix(mat: Matrix, vec: Sequence[int]) -> List[int]:
    out = [0] * len(mat)
    for k, x in enumerate(vec):
        if x:
            for i, row in enumerate(mat):
                c = row[k]
                if c:
                    out[i] += c * x
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
        raise ValueError("determinant needs a square matrix")
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
