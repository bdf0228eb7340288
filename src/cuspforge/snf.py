"""Integer Smith normal form with unimodular transforms.

Entries are Python ints, so there is no overflow to guard against; pivot
selection by minimal absolute value keeps coefficient growth tame on the
sparse incidence matrices this library produces.

The working matrix is held sparse: rows of {column: non-zero entry},
plus for each column the set of rows where it is non-zero, so a move
touches only the entries it changes and a scan skips zero rows.  When
step t starts, rows and columns above t are finished (only their
diagonal entry is non-zero), so every entry left lies in rows and
columns >= t.  The pivot is the first entry of least absolute value in
row-major order, column t is cleared below it, then row t right of it,
and a pivot that does not divide every entry left has the first
offending row folded into its row; a unit pivot divides every entry, so
no divisibility scan follows it.

The transforms are not tracked during the elimination.  Row moves and
column moves go to two logs; U and U^-1 are built on the first read of
either by replaying the row log on identities, V and V^-1 by replaying
the column log.  ``diag``, ``rank`` and the invariant factors need no
replay.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, islice
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ValidationError

Matrix = List[List[int]]
# A logged move: (i, j) swaps i and j, (src, dst, c) adds c times src to
# dst, (i,) negates i.
Move = Tuple[int, ...]


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


class SNFResult:
    """Decomposition A = U D V with U, V unimodular and D diagonal.

    ``diag`` holds the invariant factors d_1 | d_2 | ... (nonnegative,
    zeros trailing).  ``uinv`` and ``vinv`` are the inverses of U and V,
    kept so that coordinates can be read without re-elimination.

    ``smith_normal_form`` hands over its row and column move logs instead
    of the transforms: the first read of ``u`` or ``uinv`` builds both by
    one replay of the row log, the first read of ``v`` or ``vinv`` both by
    one replay of the column log.  Given directly, as in
    ``SNFResult(nrows=..., ncols=..., diag=..., u=..., v=..., uinv=...,
    vinv=...)``, the transforms are kept as given.
    """

    def __init__(self, nrows: int, ncols: int, diag: List[int],
                 u: Optional[Matrix] = None, v: Optional[Matrix] = None,
                 uinv: Optional[Matrix] = None, vinv: Optional[Matrix] = None,
                 row_moves: Sequence[Move] = (), col_moves: Sequence[Move] = ()):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self._row_moves = row_moves
        self._col_moves = col_moves
        if u is not None:
            self._row_transforms = (u, uinv)
        if v is not None:
            self._col_transforms = (v, vinv)

    @cached_property
    def _row_transforms(self) -> Tuple[Matrix, Matrix]:
        uinv, u_t = _replay(self._row_moves, self.nrows)
        return _dense(u_t, True), _dense(uinv)

    @cached_property
    def _col_transforms(self) -> Tuple[Matrix, Matrix]:
        vinv_t, v = _replay(self._col_moves, self.ncols)
        return _dense(v), _dense(vinv_t, True)

    @property
    def u(self) -> Matrix:
        return self._row_transforms[0]

    @property
    def uinv(self) -> Matrix:
        return self._row_transforms[1]

    @property
    def v(self) -> Matrix:
        return self._col_transforms[0]

    @property
    def vinv(self) -> Matrix:
        return self._col_transforms[1]

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


def smith_normal_form(matrix: Sequence[Union[Sequence[int], Dict[int, int]]],
                      nrows: int | None = None, ncols: int | None = None) -> SNFResult:
    """Compute the Smith normal form of an integer matrix.

    Each row is either dense (a sequence of entries) or sparse (a dict
    {column: entry}); sparse rows need ``ncols``.  Accepts an empty matrix
    if nrows/ncols are given explicitly.
    """
    matrix = list(matrix)
    m = nrows if nrows is not None else len(matrix)
    if ncols is not None:
        n = ncols
    elif matrix and isinstance(matrix[0], dict):
        raise ValidationError("sparse rows need ncols")
    else:
        n = len(matrix[0]) if matrix else 0
    rows: List[Dict[int, int]] = []
    for r in matrix:
        if isinstance(r, dict):
            if any(not 0 <= j < n for j in r):
                raise ValidationError("matrix shape mismatch")
            rows.append({j: x for j, x in r.items() if x})
        elif len(r) != n:
            raise ValidationError("matrix shape mismatch")
        else:
            rows.append(dict(compress(enumerate(r), r)))
    if len(rows) != m:
        raise ValidationError("matrix shape mismatch")
    cols: List[set] = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for j in r:
            cols[j].add(i)
    row_moves: List[Move] = []
    col_moves: List[Move] = []
    t = 0  # the current step

    # Elementary moves on the working matrix, each logged.
    def row_swap(i, j):
        ri, rj = rows[i], rows[j]
        for k in ri.keys() ^ rj.keys():  # columns holding exactly one of the two
            cols[k] ^= {i, j}
        rows[i], rows[j] = rj, ri
        row_moves.append((i, j))

    def col_swap(i, j):
        ci, cj = cols[i], cols[j]
        for r in ci | cj:
            row = rows[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        cols[i], cols[j] = cj, ci
        col_moves.append((i, j))

    def row_add(src, dst, c):
        # row dst += c * row src
        d = rows[dst]
        for k, x in rows[src].items():
            y = d.get(k, 0) + c * x
            if y:
                d[k] = y
                cols[k].add(dst)
            else:
                del d[k]
                cols[k].remove(dst)
        row_moves.append((src, dst, c))

    def col_add(src, dst, c):
        # column dst += c * column src
        col = cols[dst]
        for r in cols[src]:
            row = rows[r]
            y = row.get(dst, 0) + c * row[src]
            if y:
                row[dst] = y
                col.add(r)
            else:
                del row[dst]
                col.remove(r)
        col_moves.append((src, dst, c))

    def row_negate(i):
        rows[i] = {k: -x for k, x in rows[i].items()}
        row_moves.append((i,))

    def find_pivot() -> Optional[Tuple[int, int]]:
        best = None
        for i in compress(range(t, m), islice(rows, t, None)):
            ax, j = min((abs(x), j) for j, x in rows[i].items())
            if ax == 1:
                return i, j
            if best is None or ax < best[0]:
                best = (ax, i, j)
        return None if best is None else best[1:]

    limit = min(m, n)
    while t < limit:
        pos = find_pivot()
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in sorted(r for r in cols[t] if r != t):
                q = rows[i][t] // rows[t][t]
                if q:
                    row_add(t, i, -q)
                if t in rows[i]:
                    # remainder smaller than pivot: swap up and restart
                    row_swap(t, i)
                    dirty = True
            if dirty:
                continue
            for j in sorted(k for k in rows[t] if k != t):
                q = rows[t][j] // rows[t][t]
                if q:
                    col_add(t, j, -q)
                if j in rows[t]:
                    col_swap(t, j)
                    dirty = True
            if dirty:
                continue
            break
        if rows[t][t] < 0:
            row_negate(t)
        # enforce divisibility: fold any non-multiple into row t and redo
        p = rows[t][t]
        offender = None if p == 1 else next(
            (i for i in compress(range(t + 1, m), islice(rows, t + 1, None))
             if any(x % p for x in rows[i].values())), None)
        if offender is not None:
            row_add(offender, t, 1)
            continue
        t += 1

    diag = [rows[k].get(k, 0) for k in range(limit)]
    return SNFResult(nrows=m, ncols=n, diag=diag, row_moves=row_moves, col_moves=col_moves)


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
