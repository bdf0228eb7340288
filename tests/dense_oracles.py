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

The chain data keeps each boundary map as flat arrays.  ``entry_rows``
reads them back as per-cell (face, incidence) tuples, the form the
builders once stored, and the per-entry readers the library replaced
(Z/2 rows and corows, sparse rows, subcomplex reindexing) are kept here
on that form, verbatim, as oracles.

The GF(2) helpers that the one tagged elimination (``gf2._tagged_pivots``)
replaced are kept verbatim: the untagged elimination, the rref pass with
its coset representative, the kernel, solve and identity helpers, and the
per-bit transpose of small matrices.

The library finds each cusp torus of the cusped model as a coset of the
colour span at its ideal vertex, and fills or truncates an ideal vertex
through one lattice rewrite.  The parent forms are kept verbatim at the
end: the cusp grouping that rescans the quotient per truncation facet and
joins cube copies with a union-find, and the separate ``dehn_fill`` and
``truncate_ideal`` rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from cuspforge import gf2
from cuspforge.errors import ValidationError
from cuspforge.filling import DehnFilling, FillingChoice
from cuspforge.lattice import FaceLattice, cube_faces
from cuspforge.moment_angle import (
    CuspComponent, QuotientCellComplex, TruncatedPolytope, VertexKey, _component_roots,
)
from cuspforge.polytopes import IdealPolytope
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
        for j, entries in enumerate(entry_rows(data)[k]):
            for idx, coeff in entries:
                mat[idx][j] += coeff
    return mat


# ---------------------------------------------------------------------------
# per-entry oracles of the chain data
# ---------------------------------------------------------------------------


Entries = Tuple[Tuple[Tuple[int, int], ...], ...]  # per cell, (face index, incidence)


def entry_rows(data) -> List[Entries]:
    """Every d_k of the chain data as per-cell (face, incidence) tuples."""
    out = []
    for ptr, faces, coeffs in data.incidences:
        pairs = list(zip(faces.tolist(), coeffs.tolist()))
        out.append(tuple(tuple(pairs[a:b]) for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())))
    return out


def simplicial_entry_oracle(K) -> Tuple[List[Tuple], List[Entries]]:
    """Cell keys and per-cell entries of a simplicial complex: on the j-th
    vertex of a sorted simplex, the face without it, with sign (-1)^j."""
    cell_keys: List[Tuple] = []
    out: List[Entries] = []
    index_prev: Dict = {}
    for k in range(K.dim + 1):
        faces = K.faces_of_dim(k)
        out.append(tuple(tuple((index_prev[f[:j] + f[j + 1:]], (-1) ** j) for j in range(len(f))) if k else ()
                         for f in faces))
        cell_keys.append(tuple(faces))
        index_prev = {f: i for i, f in enumerate(faces)}
    return cell_keys, out


def cubical_entry_oracle(Z) -> Tuple[List[Tuple], List[Entries]]:
    """Cell keys and per-cell entries of a cube complex: on the p-th axis of
    the support the +1 face with sign (-1)^p, then the -1 face."""
    cell_keys: List[Tuple] = []
    out: List[Entries] = []
    index_prev: Dict = {}
    for k in range(Z.dim + 1):
        cells = Z.cells_of_dim(k)
        rows = []
        for support, signs in cells:
            entries = []
            for pos, i in enumerate(support):
                rest = tuple(x for x in support if x != i)
                entries.append((index_prev[(rest, signs | (1 << i))], (-1) ** pos))
                entries.append((index_prev[(rest, signs)], -(-1) ** pos))
            rows.append(tuple(entries))
        cell_keys.append(tuple(cells))
        out.append(tuple(rows))
        index_prev = {c: i for i, c in enumerate(cells)}
    return cell_keys, out


def quotient_entry_oracle(Q) -> Tuple[List[Tuple], List[Entries]]:
    """Cell keys and per-cell entries of a quotient cell complex: each child
    face at its representative, with the lattice incidence."""
    index = [{cell: i for i, cell in enumerate(bucket)} for bucket in Q.cells]
    out: List[Entries] = []
    for d, bucket in enumerate(Q.cells):
        rows = []
        for gid, rep in bucket:
            entries = []
            for child in Q._children[gid] if d else ():
                entries.append((index[d - 1][(child, Q.rep_of(child, rep))], Q._incidence[(gid, child)]))
            rows.append(tuple(entries))
        out.append(tuple(rows))
    return [tuple(b) for b in Q.cells], out


def verify_dd_zero_oracle(data) -> None:
    """d_(k-1) d_k = 0, composed cell by cell."""
    boundaries = entry_rows(data)
    for k in range(2, data.top_dim + 1):
        for entries in boundaries[k]:
            acc: Dict[int, int] = {}
            for idx, coeff in entries:
                for idx2, coeff2 in boundaries[k - 1][idx]:
                    acc[idx2] = acc.get(idx2, 0) + coeff * coeff2
            if any(v != 0 for v in acc.values()):
                raise ValidationError(f"dd != 0 in dimension {k}")


def gf2_rows_oracle(rows: Entries) -> List[int]:
    """Boundary of each cell as a bitset over its faces."""
    out = []
    for entries in rows:
        acc = 0
        for idx, coeff in entries:
            if coeff & 1:
                acc ^= 1 << idx
        out.append(acc)
    return out


def gf2_corows_oracle(rows: Entries, n_faces: int) -> List[int]:
    """Coboundary of each face as a bitset over the cells."""
    out = [0] * n_faces
    for j, entries in enumerate(rows):
        for idx, coeff in entries:
            if coeff & 1:
                out[idx] ^= 1 << j
    return out


def sparse_rows_oracle(rows: Entries, n_faces: int) -> List[Dict[int, int]]:
    """One {cell: incidence} per face."""
    out: List[Dict[int, int]] = [{} for _ in range(n_faces)]
    for j, entries in enumerate(rows):
        for idx, coeff in entries:
            out[idx][j] = out[idx].get(j, 0) + coeff
    return out


def subcomplex_oracle(parent, keys_per_dim) -> Tuple[List[List[int]], List[Tuple], List[Entries]]:
    """Indices, cell keys and per-cell entries of a closed selection,
    reindexed entry by entry."""
    top = len(keys_per_dim) - 1
    if top > parent.top_dim:
        raise ValidationError("selection has more degrees than the complex")
    boundaries = entry_rows(parent)
    indices: List[List[int]] = []
    chosen_sets: List[set] = []
    for k in range(top + 1):
        if any(key not in parent.cell_keys[k] for key in keys_per_dim[k]):
            raise ValidationError("selection names a cell that is not in the complex")
        idx = sorted(parent.index_of(k, key) for key in keys_per_dim[k])
        if len(set(idx)) != len(keys_per_dim[k]):
            raise ValidationError("repeated cell in subcomplex selection")
        indices.append(idx)
        chosen_sets.append(set(idx))
    sub_index: List[Dict[int, int]] = [
        {par: i for i, par in enumerate(indices[k])} for k in range(top + 1)
    ]
    cell_keys = []
    out = []
    for k in range(top + 1):
        keys = tuple(parent.cell_keys[k][par] for par in indices[k])
        rows = []
        for par in indices[k]:
            entries = []
            for idx, coeff in boundaries[k][par]:
                if k > 0 and idx not in chosen_sets[k - 1]:
                    raise ValidationError("selection is not closed under faces")
                if k > 0:
                    entries.append((sub_index[k - 1][idx], coeff))
            rows.append(tuple(entries))
        cell_keys.append(keys)
        out.append(tuple(rows))
    return indices, cell_keys, out


# ---------------------------------------------------------------------------
# GF(2): the helpers the one tagged elimination replaced
# ---------------------------------------------------------------------------


def reduce_rows(rows: Iterable[int]) -> Dict[int, int]:
    """Row reduce; returns {pivot column: reduced row}."""
    pivots: Dict[int, int] = {}
    for row in rows:
        row = reduce_vector(row, pivots)
        if row:
            pivots[gf2.lowbit(row)] = row
    return pivots


def reduce_vector(v: int, pivots: Dict[int, int]) -> int:
    """Reduce v against a pivot dict (lowest-bit pivots)."""
    while v:
        p = gf2.lowbit(v)
        row = pivots.get(p)
        if row is None:
            return v
        v ^= row
    return v


def rref_pivots(pivots: Dict[int, int]) -> Dict[int, int]:
    """Inter-reduce pivot rows so each pivot bit appears in one row only."""
    out: Dict[int, int] = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in sorted(out):
            if q != p and (row >> q) & 1:
                row ^= out[q]
        out[p] = row
    return out


def rref_normal_form(v: int, rref: Dict[int, int]) -> int:
    """Canonical representative of v modulo the row space (rref rows)."""
    for q in rref:
        if (v >> q) & 1:
            v ^= rref[q]
    return v


def left_kernel_basis(rows: Sequence[int]) -> List[int]:
    """Basis of {x : sum of rows selected by x is 0}, one bitmask per vector."""
    return gf2._tagged_pivots(rows)[1]


def solve_rows(rows: Sequence[int], target: int) -> Optional[int]:
    """Find x (bitmask over rows) with xor of selected rows == target, or None."""
    residue, x = gf2.reduce_tagged(target, gf2._tagged_pivots(rows)[0])
    return None if residue else x


def identity_rows(n: int) -> List[int]:
    return [1 << i for i in range(n)]


def transpose_rows_by_bits(rows: Sequence[int], ncols: int) -> List[int]:
    """Transpose a bit-row matrix one set bit at a time."""
    out = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            j = gf2.lowbit(r)
            out[j] |= 1 << i
            r &= r - 1
    return out


# ---------------------------------------------------------------------------
# cusps and ideal vertices: the per-facet grouping and the two rewrites
# ---------------------------------------------------------------------------


def cells_over_facet(Q: QuotientCellComplex, facet: int) -> List[List[Tuple[int, int]]]:
    """Cells whose face lies in the given facet, per dimension."""
    out: List[List[Tuple[int, int]]] = [[] for _ in range(Q.dim + 1)]
    for d, bucket in enumerate(Q.cells):
        for gid, rep in bucket:
            if gid != Q.top_id and facet in Q.lattice.faces[gid][1]:
                out[d].append((gid, rep))
    return out


def cusp_components_oracle(Q: QuotientCellComplex, trunc: TruncatedPolytope) -> Tuple[CuspComponent, ...]:
    """The cusp tori of a truncated quotient: per truncation facet, the cube
    copies over it joined along the codimension-1 cells with one coloured
    facet, by union-find."""
    components: List[CuspComponent] = []
    for v in sorted(trunc.truncation_facet, key=sorted):
        cid = trunc.truncation_facet[v]
        cells = cells_over_facet(Q, cid)
        top_dim = Q.dim - 1
        tops = cells[top_dim]
        index = {c: i for i, c in enumerate(tops)}
        # two cube copies meet along each codim-1 boundary cell
        cube_gid = next(
            gid for gid, (k, s) in enumerate(trunc.lattice.faces)
            if k == Q.dim - 1 and s == frozenset({cid})
        )
        merges = []
        for gid, rep in cells[top_dim - 1]:
            s = trunc.lattice.faces[gid][1]
            coloured = [x for x in s if Q.colours[x] is not None]
            if len(coloured) != 1:
                continue
            lam = Q.colours[coloured[0]]
            a = index[(cube_gid, Q.rep_of(cube_gid, rep))]
            b = index[(cube_gid, Q.rep_of(cube_gid, rep ^ lam))]
            merges.append((a, b))
        root_of = _component_roots(len(tops), merges)
        roots: Dict[int, int] = {}
        for r in root_of:
            roots.setdefault(r, len(roots))
        buckets: List[List[List[Tuple[int, int]]]] = [
            [[] for _ in range(top_dim + 1)] for _ in roots
        ]
        for d in range(top_dim + 1):
            for gid, rep in cells[d]:
                comp = roots[root_of[index[(cube_gid, Q.rep_of(cube_gid, rep))]]]
                buckets[comp][d].append((gid, rep))
        for comp_id in range(len(roots)):
            components.append(CuspComponent(
                ideal_vertex=tuple(sorted(v)),
                keys_per_dim=tuple(tuple(sorted(b)) for b in buckets[comp_id]),
            ))
    return tuple(components)


def dehn_fill_oracle(P: IdealPolytope, choice: FillingChoice) -> DehnFilling:
    """Replace every ideal vertex of P^n with an (n-2)-cube face."""
    if not P.lattice.is_complete():
        raise ValidationError("dehn_fill needs a complete face lattice")
    n = P.lattice.rank
    ideal = set(P.ideal_vertices)
    for v in ideal:
        if frozenset(v) not in choice.axis_index:
            raise ValidationError(f"missing filling choice at ideal vertex {sorted(v)}")

    faces: List[Tuple[int, FrozenSet[int]]] = []
    for k, s in P.lattice.faces:
        if k == 0 and s in ideal:
            continue
        faces.append((k, s))

    filling_faces: Dict[VertexKey, FrozenSet[int]] = {}
    for v in sorted(ideal, key=sorted):
        axes = P.axes_of(v)
        idx = choice.axis_of(v)
        if not 0 <= idx < len(axes):
            raise ValidationError(f"axis index {idx} out of range at {sorted(v)}")
        chosen = frozenset(axes[idx])
        others = [axes[j] for j in range(len(axes)) if j != idx]
        filling_faces[v] = chosen
        faces.append((n - 2, chosen))
        faces.extend((n - 2 - t, chosen | fs) for t, fs in cube_faces(others))

    lattice = FaceLattice(n, P.lattice.num_facets, faces)
    if not lattice.is_simple():
        raise ValidationError("filled lattice failed the simplicity check")
    return DehnFilling(lattice=lattice, filling_faces=filling_faces)


def truncate_ideal_oracle(P: IdealPolytope) -> TruncatedPolytope:
    """Cut every ideal vertex off by a new cube facet."""
    if not P.lattice.is_complete():
        raise ValidationError("truncation needs a complete lattice")
    n = P.lattice.rank
    f = P.lattice.num_facets
    ideal = set(P.ideal_vertices)
    faces: List[Tuple[int, Iterable[int]]] = []
    for k, s in P.lattice.faces:
        if k == 0 and s in ideal:
            continue
        faces.append((k, s))
    trunc: Dict[VertexKey, int] = {}
    for t, v in enumerate(sorted(ideal, key=sorted)):
        cid = f + t
        trunc[v] = cid
        axes = P.axes_of(v)
        faces.append((n - 1, {cid}))
        faces.extend((n - 1 - c, fs | {cid}) for c, fs in cube_faces(axes))
    lattice = FaceLattice(n, f + len(ideal), faces)
    if not lattice.is_simple():
        raise ValidationError("truncated lattice failed the simplicity check")
    return TruncatedPolytope(lattice=lattice, truncation_facet=trunc)
