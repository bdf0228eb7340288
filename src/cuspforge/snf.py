"""Integer Smith normal form with unimodular transforms.

Entries are Python ints (an entry or column index of any other type is
refused, numpy integers are converted), so there is no overflow to guard
against.

The working matrix is held sparse: rows of {column: non-zero entry},
plus for each column the set of rows where it is non-zero, so a move
touches only the entries it changes and a scan skips zero rows.  When
step t starts, rows and columns above t are finished (only their
diagonal entry is non-zero), so every entry left lies in rows and
columns >= t.  The pivot limits fill-in (Markowitz), one rule for
units and non-units: an entry of least absolute value, in the shortest
row >= t holding one, ties to the lower row, and in it the entry of that
value whose column has the fewest non-zeros, ties to the lower column.
The rows are found through a lazy heap of (bound, length, row): each
move that changes a row pushes it with bound 1, a lower bound on any
non-zero, and a row that comes to the top with its least entry above
its bound is pushed back with that value, so no step rescans every row.
Column t is cleared below the pivot, then row t right of it, and a pivot
that does not divide every entry left has the first offending row folded
into its row.  The moves only add integer multiples of entries, so every
entry left after a step stays a multiple of that step's pivot: the scan
for an offender runs only when the pivot differs from the last completed
step's, taken as 1 before the first step, so no scan follows a unit
pivot or a repeated one.

The transforms are not tracked during the elimination, and are never
built.  Row moves and column moves go to two logs, which are the only
form of U, U^-1, V and V^-1: a transform is applied to a block of
sparse rows by replaying its log on them (``SNFResult._replay``), at a
cost of the moves plus the fill-in, with no n x n object.  The same
replay, run backwards or forwards with each add transposed, applies the
transposes U^T, (U^-1)^T, V^T and (V^-1)^T, so rows of a product of
transforms are read off by replaying the transposes, in reverse order, on
unit vectors.  ``diag``, ``rank`` and the invariant factors need no
replay.

Before each pivot step, what the elimination holds (working non-zeros,
tracked by the length change of the row or column each add writes, plus
both logs) is checked against ``errors.cell_budget()``: BudgetError above.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, compress, islice
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BudgetError, ValidationError, cell_budget

# A logged move: (i, j) swaps i and j, (src, dst, c) adds c times src to
# dst, (i,) negates i.
Move = Tuple[int, ...]


def _add_sparse(dst: Dict[int, int], src: Dict[int, int], c: int) -> None:
    """dst += c * src on rows stored as {column: non-zero entry}; c != 0."""
    for k, x in src.items():
        y = dst[k] = dst.get(k, 0) + c * x
        if not y:
            del dst[k]


class SNFResult:
    """Decomposition A = U D V with U, V unimodular and D diagonal.

    ``diag`` holds the invariant factors d_1 | d_2 | ... (nonnegative,
    zeros trailing); ``rank`` and the invariant factors read it alone.
    U, U^-1, V and V^-1 exist only as the row and column move logs that
    ``smith_normal_form`` hands over, and are applied to sparse blocks by
    ``_replay``.
    """

    def __init__(self, nrows: int, ncols: int, diag: List[int],
                 row_moves: Sequence[Move] = (), col_moves: Sequence[Move] = ()):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self._row_moves = row_moves
        self._col_moves = col_moves

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)

    def invariant_factors(self) -> List[int]:
        return [d for d in self.diag if d not in (0, 1)]

    def _replay(self, transform: str, rows: List[Dict[int, int]]) -> List[Dict[int, int]]:
        """T B for T = ``transform`` ("u", "uinv", "v" or "vinv", or the
        transpose of one, named with a trailing "T": "uinvT" is (U^-1)^T)
        and B given by its sparse rows {column: entry}, one per column of T;
        B is overwritten and returned.

        With R_i the logged row moves and C_j the column moves,
        U^-1 = R_p ... R_1 and V^-1 = C_1 ... C_q.  So U^-1 B applies the
        row log forwards and U B undoes it backwards.  A column move is the
        transpose of the same row move, so V B applies the column log
        forwards with each add transposed and undone, V^-1 B backwards with
        each add transposed.  A transpose reverses the product and
        transposes each move, so it flips both the direction and the
        transposition (a swap and a negation are their own transposes).  A
        move whose source row of B is empty changes nothing and is skipped,
        so the cost is O(moves + fill).
        """
        base = transform.removesuffix("T")
        flip = base != transform
        moves = self._row_moves if base in ("u", "uinv") else self._col_moves
        forwards = (base in ("uinv", "v")) != flip
        transposed = (base in ("v", "vinv")) != flip
        sign = 1 if forwards != transposed else -1
        for move in moves if forwards else reversed(moves):
            if len(move) == 3:
                src, dst, c = move
                if transposed:
                    src, dst = dst, src
                if rows[src]:
                    _add_sparse(rows[dst], rows[src], sign * c)
            elif len(move) == 2:
                i, j = move
                rows[i], rows[j] = rows[j], rows[i]
            else:
                i, = move
                rows[i] = {k: -x for k, x in rows[i].items()}
        return rows


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
    # the types of every entry and column index, zeros included
    types = set(map(type, chain.from_iterable(r.values() if isinstance(r, dict) else r for r in matrix)))
    types.update(map(type, chain.from_iterable(r for r in matrix if isinstance(r, dict))))
    if not types <= {int}:
        if not all(issubclass(ty, Integral) for ty in types):
            raise ValidationError("matrix entries and column indices must be integers")
        matrix = [{int(j): int(x) for j, x in r.items()} if isinstance(r, dict) else [int(x) for x in r]
                  for r in matrix]
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
    cap = cell_budget()
    nnz = sum(map(len, rows))
    t = 0  # the current step
    # (bound, length, row) of every row as last changed; stale entries are skipped
    heap = [(1, len(r), i) for i, r in enumerate(rows) if r]
    heapify(heap)

    # Elementary moves on the working matrix, each logged.
    def row_swap(i, j):
        ri, rj = rows[i], rows[j]
        for k in ri.keys() ^ rj.keys():  # columns holding exactly one of the two
            cols[k] ^= {i, j}
        rows[i], rows[j] = rj, ri
        row_moves.append((i, j))
        if ri:  # i is t: see find_pivot
            heappush(heap, (1, len(ri), j))

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
        nonlocal nnz
        d = rows[dst]
        nnz -= len(d)
        for k, x in rows[src].items():
            y = d.get(k, 0) + c * x
            if y:
                d[k] = y
                cols[k].add(dst)
            else:
                del d[k]
                cols[k].remove(dst)
        nnz += len(d)
        row_moves.append((src, dst, c))
        if d:
            heappush(heap, (1, len(d), dst))

    def col_add(src, dst, c):
        # column dst += c * column src
        nonlocal nnz
        col = cols[dst]
        nnz -= len(col)
        for r in cols[src]:
            row = rows[r]
            y = row.get(dst, 0) + c * row[src]
            if y:
                row[dst] = y
                col.add(r)
            else:
                del row[dst]
                col.remove(r)
            if r != t and row:  # row t: see find_pivot
                heappush(heap, (1, len(row), r))
        nnz += len(col)
        col_moves.append((src, dst, c))

    def row_negate(i):
        rows[i] = {k: -x for k, x in rows[i].items()}
        row_moves.append((i,))

    def find_pivot() -> Optional[Tuple[int, int]]:
        # The least current heap entry (row >= t, length unchanged) whose
        # bound is its row's least |entry|.  Each move that changes a row
        # other than t pushes it with bound 1, so every row keeps a current
        # entry bounded by its least |entry|: an entry raised to that value
        # tops the heap only after every row with a lesser entry, or an
        # equal one in a shorter or lower row.  Row t is finished by its
        # step or reopened by the fold's row_add, which pushes it.
        while heap:
            bound, length, i = heap[0]
            row = rows[i]
            if i < t or length != len(row):
                heappop(heap)
                continue
            least = min(map(abs, row.values()))
            if least == bound:
                return i, min((len(cols[j]), j) for j, x in row.items() if abs(x) == least)[1]
            heapreplace(heap, (least, length, i))
        return None

    limit = min(m, n)
    last = 1  # the last completed step's pivot, which divides every entry left
    while t < limit:
        held = nnz + len(row_moves) + len(col_moves)
        if held > cap:
            raise BudgetError(f"integral elimination holds {held} entries (non-zeros and moves), "
                              f"budget is {cap}; use Z/2 coefficients at this scale")
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
        offender = None if p == last else next(
            (i for i in compress(range(t + 1, m), islice(rows, t + 1, None))
             if any(x % p for x in rows[i].values())), None)
        if offender is not None:
            row_add(offender, t, 1)
            continue
        last = p
        t += 1

    diag = [rows[k].get(k, 0) for k in range(limit)]
    return SNFResult(nrows=m, ncols=n, diag=diag, row_moves=row_moves, col_moves=col_moves)
