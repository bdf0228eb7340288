"""Dense oracles for the integral linear algebra.

The library keeps the Smith transforms as move logs and applies them by
replay on sparse blocks; nothing in it is dense.  The tests compare it
with dense matrices built here:

* ``dense_snf`` builds U, V, U^-1 and V^-1 of an ``SNFResult`` by
  replaying its logs on identity rows;
* ``logged_transforms`` builds them the way the library did before
  (both of a pair from one replay of a log on two identities), kept
  verbatim as a second, independent reading of the logs;
* ``apply_matrix``, ``kernel_basis``, ``det_bareiss``, ``reconstruct``
  and ``dense_boundary`` are the dense helpers the library dropped, kept
  verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from cuspforge.errors import ValidationError
from cuspforge.snf import Move, SNFResult, _add_sparse

Matrix = List[List[int]]


@dataclass
class DenseSNF:
    """A = U D V with every transform and inverse held as a dense matrix."""

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


def dense_snf(res: SNFResult) -> DenseSNF:
    """``res`` with U, V, U^-1 and V^-1 built by replay on identity rows."""

    def dense(transform: str, size: int) -> Matrix:
        rows = res._replay(transform, [{i: 1} for i in range(size)])
        return [[row.get(j, 0) for j in range(size)] for row in rows]

    m, n = res.nrows, res.ncols
    return DenseSNF(m, n, list(res.diag), dense("u", m), dense("v", n), dense("uinv", m), dense("vinv", n))


# ---------------------------------------------------------------------------
# the dense transforms as the library built them before, verbatim
# ---------------------------------------------------------------------------


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


def _replay(moves: Sequence[Move], size: int) -> Tuple[List[Dict[int, int]], List[Dict[int, int]]]:
    """Replay logged moves on two size x size identities, as sparse rows.

    ``same`` takes each move as a row move, ``other`` the transposed
    inverse of each move, so a row log gives (U^-1, U^T) and a column log
    gives ((V^-1)^T, V).
    """
    same = [{i: 1} for i in range(size)]
    other = [{i: 1} for i in range(size)]
    for move in moves:
        if len(move) == 3:
            src, dst, c = move
            _add_sparse(same[dst], same[src], c)
            _add_sparse(other[src], other[dst], -c)
        elif len(move) == 2:
            i, j = move
            for mat in (same, other):
                mat[i], mat[j] = mat[j], mat[i]
        else:
            i, = move
            for mat in (same, other):
                mat[i] = {k: -x for k, x in mat[i].items()}
    return same, other


def logged_transforms(res: SNFResult) -> Dict[str, Matrix]:
    """U, U^-1 from one replay of the row log, V, V^-1 from one of the
    column log (the former ``_row_transforms`` and ``_col_transforms``)."""
    uinv, u_t = _replay(res._row_moves, res.nrows)
    vinv_t, v = _replay(res._col_moves, res.ncols)
    return {"u": _dense(u_t, True), "uinv": _dense(uinv), "v": _dense(v), "vinv": _dense(vinv_t, True)}


# ---------------------------------------------------------------------------
# dense helpers, verbatim
# ---------------------------------------------------------------------------


def apply_matrix(mat: Matrix, vec: Sequence[int]) -> List[int]:
    """mat . vec, over the non-zero entries of vec and of each column it selects."""
    out = [0] * len(mat)
    rows = range(len(mat))
    for k in compress(range(len(vec)), vec):
        x = vec[k]
        for i in compress(rows, map(itemgetter(k), mat)):
            out[i] += mat[i][k] * x
    return out


def kernel_basis(snf: DenseSNF) -> List[List[int]]:
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


def dense_boundary(data, k: int) -> Matrix:
    """Integer matrix of d_k, shape (n_{k-1}, n_k)."""
    data.check_dense(k)
    n_rows = data.size(k - 1)
    n_cols = data.size(k)
    mat = [[0] * n_cols for _ in range(n_rows)]
    if 1 <= k <= data.top_dim:
        for j, entries in enumerate(data.boundaries[k]):
            for idx, coeff in entries:
                mat[idx][j] += coeff
    return mat
