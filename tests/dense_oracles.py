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
  verbatim; ``matmul`` and ``relation_rows`` build the relations R_k, the
  rows of V d_k past the rank of the degree below, on which the library
  chains its elimination of degree k;
* ``replay_project`` is the projection of an integral H_k basis the
  library ran before it cached its covectors: V of degree k and U'^-1 of
  degree k+1 replayed on each batch of cycles, kept verbatim.

The chain data keeps each boundary map as flat arrays.  ``entry_rows``
reads them back as per-cell (face, incidence) tuples, the form the
builders once stored, and the per-entry readers the library replaced
(Z/2 rows and corows, sparse rows, subcomplex reindexing) are kept here
on that form, verbatim, as oracles.  A selection restricts a parent
cochain by reading its bits once; ``gather_cochain_oracle`` is the loop
it replaced, one shift per selected cell, kept verbatim.
``chain_data_from_entries`` is the library's former converter from that
form to arrays, kept for hand-built
and deliberately broken chain data, and ``submasks`` the submask walk
the quotient listed its cells by before it placed them by table.

The GF(2) helpers that the one tagged elimination (``gf2._tagged_pivots``)
replaced are kept, and so is that elimination as it was before it
inlined ``reduce_tagged``'s loop (``tagged_pivots_oracle``): the untagged
elimination, the rref pass with its coset representative, the kernel,
solve and identity helpers, and the per-bit transpose of small matrices.
``quotient_representatives_oracle`` is the cohomology basis's reduction,
written out on its own.  Each pivots on the highest set bit, the
library's one rule, and the rref pass inter-reduces in increasing pivot
order; they are otherwise verbatim.  ``transpose_rows``,
the bit-packing transpose, left the library when the intersection form
began to gather its bit slices; it is kept verbatim, and so is the
transpose-based form, ``intersection_form_oracle``, but for reading its
splittings off the key-lookup ``splittings_oracle`` (the library's are
index arrays now).

``drawn_colourings`` and ``axis_paired_colouring`` are the colourings
the cusp and chain tests share, the latter the distinct one with each
axis pair at one ideal vertex sharing a colour (k = m - n + 1).

The library finds each cusp torus of the cusped model as a coset of the
colour span at its ideal vertex, and fills or truncates an ideal vertex
through one lattice rewrite.  The parent forms are kept verbatim at the
end: the cusp grouping that rescans the quotient per truncation facet and
joins cube copies with a union-find, and the separate ``dehn_fill`` and
``truncate_ideal`` rewrites.  Cube faces have one enumeration in the
library, ``lattice.cube_face_rows`` on row arrays; the per-face generator
it replaced (``cube_faces``), the per-face ideal-vertex rewrite
(``replace_ideal_vertices_oracle``) and the per-facet subdivision
(``subdivide_cross_facets_oracle``) are kept verbatim, with G's per-facet
views that they read (``facet_vertex_sets``, ``antipodal_pairs``,
``graded_faces``) as functions of G's rows.

A cube complex keeps its cells as support runs only, and every cube face
is read off its face tables.  The parent forms are kept verbatim as
well: ``CubicalCellsOracle`` holds the per-cell constructor (a dict of
sorted cell tuples and their frozenset) with the face tables it derived
from them and the per-cell JSON and RZK1 writers, ``cell_set`` is the
complex's cells as a frozenset, ``splittings_oracle`` finds the cup-product faces by key
lookup, and ``preimage_components_oracle`` scans the cells for copies
and merges.  The library searches the faces of one dimension all at
once and reads the vertex links off the face tables; the parent forms are
kept verbatim: ``face_table_per_run_oracle`` (one search per support,
axis and side), ``links_by_corner_scan_oracle`` (every run's corners
enumerated and searched among the vertices) and
``from_rzk1_per_cell_oracle`` (the RZK1 reader that decoded one record
per cell).  ``maximal_facets_oracle`` is the quadratic maximality
filter of the simplicial constructor.

A simplicial complex is one store of facet rows, cleaned, filtered for
maximality and closed in one pass over its rows.
``SimplicialComplexOracle`` keeps the per-facet constructor it replaced
(a sorted set and a frozenset per facet, a scan of the rarest vertex's
facets, the closure as tuple sets and ``has_face`` on their frozenset),
with its links, full subcomplexes and ``json.dumps`` writer, verbatim.

A face lattice is one store of flat arrays, checked, ordered and written
once per face.  ``FaceLatticeOracle`` keeps the parent's constructor
(frozenset faces, a sort key per face, a mark per face and the facet-set
index) and its JSON writer verbatim.

Both readers of P^n end in ``ideal_dual``, whose antipodal and ridge
checks prove the vertex links.  ``validate_links_oracle`` is the second
link check they ran before, on the lattice alone: each vertex's link
counted through a facet-to-face incidence.

The Gosset generator carries each facet's vertex row through the reverse
search of its normal's orbit.  The route it replaced, one orbit of normals and
then the vertices maximizing each normal, is kept verbatim as
``orbit_facet_data`` and ``facets_by_maximization``.

``filling.duality_check`` compares a complex with a lattice's vertex rows
and looks the lattice's faces up in the complex's own closure; the
parent, which built the dual and compared, is ``duality_check_oracle``.

The quotient's children are found by one row-key search per rank of the
lattice and its incidence numbers by one sign propagation per rank, on
the disjoint union of the boundaries of the faces of that rank, and kept
as CSR arrays.  ``lattice_incidences_oracle`` is the parent's walk, which
looks each child up by its facet set and orients one face boundary at a
time, kept verbatim; ``quotient_entry_oracle`` reads its children and
signs from that walk, not from the CSR it checks.

``manifold_check`` reads closedness and connectedness of the link target
off its chain complex.  The ridge count over a dict and the depth-first
search over the 1-skeleton it ran before are kept verbatim as
``closed_pseudomanifold_oracle`` and ``connected_oracle``, and the
O(F^3) meet and join check of face lattices as ``lattice_check_oracle``.
``weyl_orbit`` lists the orbit that ``polytopes._orbit`` finds by reverse
search as tuples.  ``fundamental_weight_oracle`` is the generator's
former weight solve, exact Gauss-Jordan elimination over ``Fraction``,
kept verbatim.  ``orbit_per_round_oracle`` is the reverse search before
it read each child's root products off its parent's: it recomputes them
with one matrix product and a lattice check per round, kept verbatim.

The cusp census is read off P's ideal rows and keeps one span and one
torus flag per ideal vertex; its JSON is written from those rows.  The
per-vertex loop it replaced, one ``CuspEntry`` per ideal vertex, is kept
verbatim as ``cusp_census_oracle`` (with the census it returned,
``CuspCensusOracle``), and so is ``census_json_oracle``, the
``json.dumps`` writer.  ``gf2_corows_array_oracle`` is the chain data's
coboundary reader before it left the rows its elimination skips unbuilt.

The cochain-level cup product (``cup_product``, read off the library's
splittings), ``is_cocycle``, ``pair_with_fundamental_class`` and
``simplex_lattice`` are reached only by the tests and live here,
verbatim.
"""

from __future__ import annotations

import json
import random
import struct
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, groupby, product
from math import comb, gcd, isqrt
from operator import itemgetter
from typing import Container, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from cuspforge import gf2
from cuspforge.chains import ChainComplexData, _splittings, coboundary, cohomology_z2_basis
from cuspforge.cubical import INT64_AMBIENT, RZK1_CELL, RZK1_MAGIC, Cell, CubicalComplex, Run
from cuspforge.errors import ValidationError, check_budget
from cuspforge.filling import DehnFilling, FillingChoice
from cuspforge.lattice import IDEAL, REAL, Face, FaceLattice, dualize
from cuspforge.moment_angle import (
    Colouring, CuspComponent, CuspEntry, PreimageReport, QuotientCellComplex,
    _component_roots,
)
from cuspforge.polytopes import (
    _E_ROOTS_2X, _WEIGHT_NODES, CROSS, SIMPLEX, IdealPolytope, _dot, _fundamental_weight_vector, _key_places,
    _orbit, _root_products, gosset, ideal_dual,
)
from cuspforge.simplicial import SimplicialComplex
from cuspforge.store import Store
from cuspforge.snf import Move, SNFResult, _add_sparse

Matrix = List[List[int]]

# Entries of d_k (n_(k-1) x n_k) above which dense_boundary refuses to build it
DENSE_BOUNDARY_LIMIT = 4_000_000


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


def matmul(a: Matrix, b: Matrix, ncols: int) -> Matrix:
    """a . b, over the non-zero entries of a and of each row of b it selects;
    b has ncols columns (and a may have no rows)."""
    out = []
    for row in a:
        acc = [0] * ncols
        for k in compress(range(len(row)), row):
            x, brow = row[k], b[k]
            for j in compress(range(ncols), brow):
                acc[j] += x * brow[j]
        out.append(acc)
    return out


def relation_rows(below: DenseSNF, boundary: Matrix, ncols: int) -> Matrix:
    """R_k: the rows of V d_k past the rank of ``below`` = U D V, the SNF of
    degree k-1; the rows up to the rank must vanish (d d = 0)."""
    rows = matmul(below.v, boundary, ncols)
    assert not any(map(any, rows[:below.rank])), "dd != 0"
    return rows[below.rank:]


def replay_project(basis, cycles: Sequence[Sequence[int]]) -> List[Tuple[List[int], List[int]]]:
    """(free coords, torsion coords) of each cycle, by two replays for
    the batch: x is a cycle exactly when the first rank entries of V x
    vanish, the rest are y, and U'^-1 y holds its quotient coordinates."""
    snf = basis._boundary_snf
    rows: List[Dict[int, int]] = [{} for _ in range(snf.ncols)]
    for c, cycle in enumerate(cycles):
        if len(cycle) != snf.ncols:
            raise ValidationError(f"chain has length {len(cycle)}, expected {snf.ncols}")
        for i, x in enumerate(cycle):
            if x:
                rows[i][c] = x
    rows = snf._replay("v", rows)
    if any(rows[: snf.rank]):
        raise ValidationError("vector is not an integral cycle")
    coords = basis._relation_snf._replay("uinv", rows[snf.rank:])
    return [([coords[i].get(c, 0) for i, d in basis._quotient if d == 0],
             [coords[i].get(c, 0) % d for i, d in basis._quotient if d])
            for c in range(len(cycles))]


def dense_boundary(data, k: int) -> Matrix:
    """Integer matrix of d_k, shape (n_{k-1}, n_k), refused above
    DENSE_BOUNDARY_LIMIT entries: the only dense matrix the tests build."""
    n_rows = data.size(k - 1)
    n_cols = data.size(k)
    if n_rows * n_cols > DENSE_BOUNDARY_LIMIT:
        raise ValueError(f"dense_boundary refuses a {n_rows}x{n_cols} d_{k}")
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


def chain_data_from_entries(coeff: str, cell_keys: List[Tuple], entries: Sequence[Sequence[Sequence[Tuple[int, int]]]]
                            ) -> ChainComplexData:
    """Chain data from per-cell entry lists: ``entries[k][i]`` lists the
    (face index, incidence number) pairs of the i-th k-cell.  The
    library's converter from entries to arrays, kept verbatim for
    hand-built and deliberately broken chain data."""
    incidences = []
    for rows in entries:
        ptr = np.concatenate(([0], np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)))))
        faces = np.fromiter((idx for row in rows for idx, _ in row), np.int64, int(ptr[-1]))
        try:
            coeffs = np.fromiter((c for row in rows for _, c in row), np.int64, int(ptr[-1]))
        except OverflowError:
            coeffs = np.array([c for row in rows for _, c in row], dtype=object)
        incidences.append((ptr, faces, coeffs))
    return ChainComplexData(coeff, cell_keys, incidences)


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
    face at its representative, with the incidence of the per-face walk
    (``lattice_incidences_oracle``), not the CSR the complex holds."""
    children, incidence = lattice_incidences_oracle(Q.lattice)
    index = [{cell: i for i, cell in enumerate(bucket)} for bucket in Q.cells]
    out: List[Entries] = []
    for d, bucket in enumerate(Q.cells):
        rows = []
        for gid, rep in bucket:
            entries = []
            for child in children[gid] if d else ():
                entries.append((index[d - 1][(child, gf2.normal_form(rep, Q._pivots[child]))],
                                incidence[(gid, child)]))
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


def gf2_corows_array_oracle(data, k: int) -> List[int]:
    """Coboundary of each k-cell as a bitset over (k+1)-cells: bit i of
    row j is set when (k+1)-cell i has an odd number of odd entries on j.
    The chain data's reader before it left the rows its elimination skips
    unbuilt: every row, read off the arrays."""
    cells, faces, coeffs = data._entries(k + 1)
    odd = coeffs & 1 != 0
    out = [0] * data.size(k)
    for j, i in zip(faces[odd].tolist(), cells[odd].tolist()):
        out[j] ^= 1 << i
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


def gather_cochain_oracle(selection, phi: int, k: int) -> int:
    """Restrict a parent k-cochain to the subcomplex."""
    out = 0
    if k >= len(selection.indices):
        return 0
    for sub_i, par_i in enumerate(selection.indices[k]):
        if (phi >> par_i) & 1:
            out |= 1 << sub_i
    return out


# ---------------------------------------------------------------------------
# GF(2): the helpers the one tagged elimination replaced
# ---------------------------------------------------------------------------


def reduce_rows(rows: Iterable[int]) -> Dict[int, int]:
    """Row reduce; returns {pivot column: reduced row}."""
    pivots: Dict[int, int] = {}
    for row in rows:
        row = reduce_vector(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    return pivots


def reduce_vector(v: int, pivots: Dict[int, int]) -> int:
    """Reduce v against a pivot dict (highest-bit pivots)."""
    while v:
        p = v.bit_length() - 1
        row = pivots.get(p)
        if row is None:
            return v
        v ^= row
    return v


def rref_pivots(pivots: Dict[int, int]) -> Dict[int, int]:
    """Inter-reduce pivot rows so each pivot bit appears in one row only."""
    out: Dict[int, int] = {}
    for p in sorted(pivots):
        row = pivots[p]
        for q in sorted(out, reverse=True):
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


def submasks(mask: int) -> Iterable[int]:
    """Every v with v & ~mask == 0, in increasing order from 0 to mask."""
    v = 0
    while True:
        yield v
        if v == mask:
            return
        v = (v - mask) & mask


def tagged_pivots_oracle(
    rows: Iterable[int], skip: Container[int] = ()
) -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
    """Row reduce with tags (bit i = input row i): the pivots, in input
    order, and the tags of the rows that reduced to zero.  Rows whose index
    is in ``skip`` are left out, as if absent."""
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel: List[int] = []
    for i, row in enumerate(rows):
        if i in skip:
            continue
        row, tag = gf2.reduce_tagged(row, pivots, 1 << i)
        if row:
            pivots[row.bit_length() - 1] = (row, tag)
        else:
            kernel.append(tag)
    return pivots, kernel


def quotient_representatives_oracle(cycles: Sequence[int], image: Dict[int, int]) -> List[int]:
    """The representatives of ``Z2QuotientBasis``: each cycle reduced at
    its highest bit against the image {highest bit: row} and the earlier
    representatives, kept when non-zero."""
    pivots = {p: (row, 0) for p, row in image.items()}
    reps: List[int] = []
    for vec in cycles:
        red = gf2.reduce_tagged(vec, pivots)[0]
        if red:
            pivots[red.bit_length() - 1] = (red, 1 << len(reps))
            reps.append(red)
    return reps


def left_kernel_basis(rows: Sequence[int]) -> List[int]:
    """Basis of {x : sum of rows selected by x is 0}, one bitmask per vector."""
    return gf2._tagged_pivots(rows)[1]


def solve_rows(rows: Sequence[int], target: int) -> Optional[int]:
    """Find x (bitmask over rows) with xor of selected rows == target, or None."""
    residue, x = gf2.reduce_tagged(target, gf2._tagged_pivots(rows)[0])
    return None if residue else x


def identity_rows(n: int) -> List[int]:
    return [1 << i for i in range(n)]


def transpose_rows(rows: Sequence[int], ncols: int) -> List[int]:
    """Transpose a bit-row matrix through numpy's bit packing."""
    nbytes = (ncols + 7) // 8
    buf = np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    bits = np.unpackbits(buf, axis=1, bitorder="little")[:, :ncols]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(packed[j].tobytes(), "little") for j in range(ncols)]


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


def drawn_colourings() -> List[Tuple[IdealPolytope, Colouring]]:
    """Seeded colourings of P^3 into (Z/2)^3 and of P^4 into (Z/2)^5, with
    spans below the facet count and sections that are not tori."""
    P3, P4 = ideal_dual(gosset(3)), ideal_dual(gosset(4))
    drawn = [(P3, Colouring(3, vec))
             for vec in random.Random(0).sample(list(product(range(1, 8), repeat=6)), 300)]
    for seed in range(60):
        rng = random.Random(seed)
        drawn.append((P4, Colouring(5, tuple(rng.randrange(1, 32) for _ in range(P4.num_facets)))))
    return drawn


def axis_paired_colouring(P: IdealPolytope, j: int = 0) -> Colouring:
    """The distinct colouring of P with the second facet of each axis pair
    at ideal vertex j given the first one's colour: k = m - n + 1 unit
    vectors, in facet order of the facets that keep their own."""
    same = {b: a for a, b in P.axis_rows[j].tolist()}
    kept = [i for i in range(P.num_facets) if i not in same]
    unit = {i: 1 << p for p, i in enumerate(kept)}
    return Colouring(len(kept), tuple(unit[same.get(i, i)] for i in range(P.num_facets)))


def cusp_components_oracle(
    Q: QuotientCellComplex, lattice: FaceLattice, ideal_rows: np.ndarray
) -> Tuple[CuspComponent, ...]:
    """The cusp tori of a truncated quotient: per truncation facet, the cube
    copies over it joined along the codimension-1 cells with one coloured
    facet, by union-find.  Ideal row t of the polytope was cut off by the
    truncated lattice's facet ``num_facets - len(ideal_rows) + t``."""
    components: List[CuspComponent] = []
    rows = [frozenset(row) for row in ideal_rows.tolist()]
    for t in sorted(range(len(rows)), key=lambda t: sorted(rows[t])):
        v, cid = rows[t], lattice.num_facets - len(rows) + t
        cells = cells_over_facet(Q, cid)
        top_dim = Q.dim - 1
        tops = cells[top_dim]
        index = {c: i for i, c in enumerate(tops)}
        # two cube copies meet along each codim-1 boundary cell
        cube_gid = next(
            gid for gid, (k, s) in enumerate(lattice.faces)
            if k == Q.dim - 1 and s == frozenset({cid})
        )
        merges = []
        for gid, rep in cells[top_dim - 1]:
            s = lattice.faces[gid][1]
            coloured = [x for x in s if Q.colours[x] is not None]
            if len(coloured) != 1:
                continue
            lam = Q.colours[coloured[0]]
            a = index[(cube_gid, gf2.normal_form(rep, Q._pivots[cube_gid]))]
            b = index[(cube_gid, gf2.normal_form(rep ^ lam, Q._pivots[cube_gid]))]
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
                comp = roots[root_of[index[(cube_gid, gf2.normal_form(rep, Q._pivots[cube_gid]))]]]
                buckets[comp][d].append((gid, rep))
        for comp_id in range(len(roots)):
            components.append(CuspComponent(
                ideal_vertex=tuple(sorted(v)),
                keys_per_dim=tuple(tuple(sorted(b)) for b in buckets[comp_id]),
            ))
    return tuple(components)


def cube_faces(axes: Sequence[Tuple[int, int]]) -> Iterable[Tuple[int, FrozenSet[int]]]:
    """Every proper face of a cube whose opposite facet pairs are ``axes``,
    as (codimension, set of the facets containing it)."""
    for size in range(1, len(axes) + 1):
        for chosen in combinations(axes, size):
            for facets in product(*chosen):
                yield size, frozenset(facets)


def replace_ideal_vertices_oracle(
    P: IdealPolytope, num_facets: int,
    cubes: Sequence[Tuple[FrozenSet[int], Sequence[Tuple[int, int]]]], name: str,
) -> FaceLattice:
    """P's lattice with every ideal vertex dropped and, per (base, axes) in
    ``cubes``, the face on the facet set ``base`` added with the faces of
    the cube spanned by ``axes`` below it.  The result must be simple, so
    a face in j facets has rank n - j."""
    n = P.lattice.rank
    ideal = set(P.ideal_vertices)
    faces: List[Tuple[int, Iterable[int]]] = [
        (k, s) for k, s in P.lattice.faces if not (k == 0 and s in ideal)
    ]
    for base, axes in cubes:
        faces.append((n - len(base), base))
        faces.extend((n - len(base) - t, base | fs) for t, fs in cube_faces(axes))
    lattice = FaceLattice(n, num_facets, faces)
    if not lattice.is_simple():
        raise ValidationError(f"{name} lattice failed the simplicity check")
    return lattice


def facet_vertex_sets(G) -> Tuple[FrozenSet[int], ...]:
    """G's facets as vertex sets, in facet order."""
    out: List[FrozenSet[int]] = [frozenset()] * len(G.cross)
    for rows, ids in ((G.simplex_rows, np.flatnonzero(~G.cross)), (G.cross_rows, np.flatnonzero(G.cross))):
        for i, row in zip(ids.tolist(), rows.tolist()):
            out[i] = frozenset(row)
    return tuple(out)


def antipodal_pairs(G) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The diagonals of each facet of G, in facet order: an empty tuple
    for a simplex facet."""
    out: List[Tuple[Tuple[int, int], ...]] = [()] * len(G.cross)
    for i, pairs in zip(np.flatnonzero(G.cross).tolist(), G.pair_rows.tolist()):
        out[i] = tuple(map(tuple, pairs))
    return tuple(out)


def graded_faces(G) -> Optional[Tuple[Tuple[FrozenSet[int], int], ...]]:
    """Every face of G as a vertex set with its dimension, the facets
    last; None when the lattice is partial."""
    if G.face_rows is None:
        return None
    return tuple((frozenset(row), d) for d, rows in enumerate(G.face_rows) for row in rows.tolist()) + tuple(
        (f, G.n - 1) for f in facet_vertex_sets(G))


def subdivide_cross_facets_oracle(G, d) -> SimplicialComplex:
    """The sphere K^{n-1}: simplex facets kept, each cross facet split
    into 2^(n-2) simplexes sharing its chosen diagonal."""
    n = G.n
    tops: List[Tuple[int, ...]] = []
    for i, (fv, kind, pairs) in enumerate(zip(facet_vertex_sets(G), G.facet_types, antipodal_pairs(G))):
        if kind != CROSS:
            tops.append(tuple(sorted(fv)))
            continue
        if i not in d.pair_index:
            raise ValidationError(f"missing diagonal for cross facet {i}")
        idx = d.pair_index[i]
        if not 0 <= idx < len(pairs):
            raise ValidationError(f"diagonal index {idx} out of range for facet {i}")
        diagonal = pairs[idx]
        others = [p for j, p in enumerate(pairs) if j != idx]
        for signs in product(*others):
            tops.append(tuple(sorted(diagonal + signs)))
    for i in d.pair_index:
        if G.facet_types[i] != CROSS:
            raise ValidationError(f"facet {i} is not a cross-polytope")
    K = SimplicialComplex(G.num_vertices, tops)
    if not K.is_pure() or K.dim != n - 1:
        raise ValidationError("subdivision did not produce a pure (n-1)-complex")
    return K


def duality_check_oracle(pbar: FaceLattice, K: SimplicialComplex) -> bool:
    """Whether K is the dual of pbar, by building the dual and comparing,
    verbatim."""
    if pbar.num_facets != K.vertex_count:
        return False
    try:
        dual = dualize(pbar)
    except ValidationError:
        return False
    return dual == K


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

    filling_faces: Dict[FrozenSet[int], FrozenSet[int]] = {}
    for v in sorted(ideal, key=sorted):
        axes = P.axes_of(v)
        idx = choice.axis_index[frozenset(v)]
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


def truncate_ideal_oracle(P: IdealPolytope) -> FaceLattice:
    """Cut every ideal vertex off by a new cube facet, the t-th in sorted
    vertex order by facet ``P.num_facets + t``."""
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
    for t, v in enumerate(sorted(ideal, key=sorted)):
        cid = f + t
        axes = P.axes_of(v)
        faces.append((n - 1, {cid}))
        faces.extend((n - 1 - c, fs | {cid}) for c, fs in cube_faces(axes))
    lattice = FaceLattice(n, f + len(ideal), faces)
    if not lattice.is_simple():
        raise ValidationError("truncated lattice failed the simplicity check")
    return lattice


# ---------------------------------------------------------------------------
# cube complexes: the per-cell store, key-lookup splittings, per-cell scans
# ---------------------------------------------------------------------------


class CubicalCellsOracle:
    """The per-cell cube-complex store: its constructor, cell view, face
    tables and JSON and RZK1 writers, verbatim."""

    def __init__(self, ambient: int, cells: Iterable[Cell], budget: Optional[int] = None, validate: bool = True):
        if ambient < 0:
            raise ValidationError("ambient rank must be nonnegative")
        by_dim: Dict[int, Set[Cell]] = {}
        count = 0
        for support, signs in cells:
            sup = tuple(sorted(support))
            if sup and (sup[0] < 0 or sup[-1] >= ambient):
                raise ValidationError(f"support {sup} outside ambient {ambient}")
            if len(set(sup)) != len(sup):
                raise ValidationError(f"repeated index in support {sup}")
            if signs >> ambient or signs & gf2.vector_from_indices(sup):
                raise ValidationError("sign bits overlap the support or exceed ambient")
            count += 1
            by_dim.setdefault(len(sup), set()).add((sup, signs))
        check_budget(count, budget)
        self.ambient = ambient
        self.cells: Dict[int, Tuple[Cell, ...]] = {
            d: tuple(sorted(cs)) for d, cs in sorted(by_dim.items())
        }
        self._cell_set: FrozenSet[Cell] = frozenset(
            c for cs in self.cells.values() for c in cs
        )
        if len(self._cell_set) != count:
            raise ValidationError("duplicate cells")
        self._clear_caches()
        if validate:
            self._check_closure()

    def _clear_caches(self) -> None:
        self._runs: Dict[int, List[Run]] = {}
        self._face_tables: Dict[int, np.ndarray] = {}

    def _check_closure(self) -> None:
        """Every face table builds; the first missing face is reported in
        cell order (dimension, cell, axis, then -1 before +1)."""
        for d in range(1, self.dim + 1):
            self.face_table(d)

    @property
    def _sign_dtype(self):
        return np.int64 if self.ambient <= INT64_AMBIENT else object

    def support_runs(self, k: int) -> List[Run]:
        """The k-cells grouped by support, in cell order: (support, index of
        the run's first cell, its signs as a sorted array)."""
        runs = self._runs.get(k)
        if runs is None:
            runs = []
            start = 0
            for sup, group in groupby(self.cells_of_dim(k), key=itemgetter(0)):
                signs = np.array([sg for _, sg in group], dtype=self._sign_dtype)
                runs.append((sup, start, signs))
                start += len(signs)
            self._runs[k] = runs
        return runs

    def face_table(self, k: int) -> np.ndarray:
        """Face indices of the k-cells (k >= 1) into ``cells_of_dim(k - 1)``,
        shape (n_k, 2k): column 2p holds the +1 face on the p-th axis of the
        support, column 2p + 1 the -1 face.  Refuses a missing face."""
        table = self._face_tables.get(k)
        if table is not None:
            return table
        lower = {sup: (start, signs) for sup, start, signs in self.support_runs(k - 1)}
        empty = (0, np.zeros(0, dtype=self._sign_dtype))
        table = np.empty((len(self.cells_of_dim(k)), 2 * k), dtype=np.int64)
        for sup, start, signs in self.support_runs(k):
            rows = table[start:start + len(signs)]
            found = np.empty(rows.shape, dtype=bool)
            for p, i in enumerate(sup):
                first, face_signs = lower.get(sup[:p] + sup[p + 1:], empty)
                for col, target in ((2 * p, signs | (1 << i)), (2 * p + 1, signs)):
                    pos = np.searchsorted(face_signs, target)
                    hit = pos < len(face_signs)
                    hit[hit] = face_signs[pos[hit]] == target[hit]
                    rows[:, col] = first + pos
                    found[:, col] = hit
            if not found.all():
                r = int(np.flatnonzero(~found.all(axis=1))[0])
                p = int(np.flatnonzero(~found[r])[0]) // 2
                side = "-1" if not found[r, 2 * p + 1] else "+1"
                raise ValidationError(
                    f"missing {side} face of {self.cells_of_dim(k)[start + r]} at {sup[p]}")
        self._face_tables[k] = table
        return table

    @property
    def dim(self) -> int:
        return max(self.cells) if self.cells else -1

    def cells_of_dim(self, d: int) -> Tuple[Cell, ...]:
        return self.cells.get(d, ())

    def num_cells(self) -> int:
        return len(self._cell_set)

    def to_json(self) -> str:
        payload = {
            "type": "cubical",
            "ambient": self.ambient,
            "cells": [[list(sup), sg] for d in range(self.dim + 1)
                      for sup, sg in self.cells_of_dim(d)],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_rzk1(self) -> bytes:
        """Compact binary cell table: u32 support mask, u64 sign mask per cell."""
        if self.ambient > 32:
            raise ValidationError("RZK1 format caps the ambient rank at 32")
        out = [RZK1_MAGIC, struct.pack("<II", self.ambient, self.num_cells())]
        for d in range(self.dim + 1):
            for sup, sg in self.cells_of_dim(d):
                out.append(RZK1_CELL.pack(gf2.vector_from_indices(sup), sg))
        return b"".join(out)


def cell_set(Z) -> FrozenSet[Cell]:
    """Every cell of a cube complex, as a set of (support, signs) pairs."""
    return frozenset(c for d in range(Z.dim + 1) for c in Z.cells_of_dim(d))


def face_table_per_run_oracle(Z, k: int) -> np.ndarray:
    """The face table of the k-cells found one sorted search per (support,
    axis, side) in the face run's own signs, verbatim."""
    lower = {sup: (start, signs) for sup, start, signs in Z.support_runs(k - 1)}
    empty = (0, np.zeros(0, dtype=Z._sign_dtype))
    table = np.empty((sum(len(signs) for _, _, signs in Z.support_runs(k)), 2 * k), dtype=np.int64)
    for sup, start, signs in Z.support_runs(k):
        rows = table[start:start + len(signs)]
        found = np.empty(rows.shape, dtype=bool)
        for p, i in enumerate(sup):
            first, face_signs = lower.get(sup[:p] + sup[p + 1:], empty)
            for col, target in ((2 * p, signs | (1 << i)), (2 * p + 1, signs)):
                pos = np.searchsorted(face_signs, target)
                hit = pos < len(face_signs)
                hit[hit] = face_signs[pos[hit]] == target[hit]
                rows[:, col] = first + pos
                found[:, col] = hit
        if not found.all():
            r = int(np.flatnonzero(~found.all(axis=1))[0])
            p = int(np.flatnonzero(~found[r])[0]) // 2
            side = "-1" if not found[r, 2 * p + 1] else "+1"
            raise ValidationError(f"missing {side} face of {(sup, int(signs[r]))} at {sup[p]}")
    return table


def links_by_corner_scan_oracle(Z) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
    """The vertex links found by enumerating each run's corners signs | t,
    t inside the support, and searching them among the vertices, verbatim;
    it needs the vertices only, not the faces between."""
    runs = [run for d in range(1, Z.dim + 1) for run in Z.support_runs(d)]
    vertices = Z.support_runs(0)[0][2] if Z.support_runs(0) else np.zeros(0, Z._sign_dtype)
    corner_runs = [np.zeros(0, dtype=np.int64)]
    corner_vertices = [np.zeros(0, dtype=np.int64)]
    for r, (sup, _, signs) in enumerate(runs):
        t = np.array(list(submasks(gf2.vector_from_indices(sup))), dtype=signs.dtype)
        corners = (signs[:, None] | t[None, :]).ravel()
        idx = np.searchsorted(vertices, corners)
        if not (idx < len(vertices)).all() or not (vertices[idx] == corners).all():
            raise ValidationError(f"a vertex of a cell on support {sup} is missing")
        corner_vertices.append(idx)
        corner_runs.append(np.full(len(idx), r))
    # run ids grouped by vertex, in run order within each vertex
    vertex = np.concatenate(corner_vertices)
    run_ids = np.concatenate(corner_runs)[np.argsort(vertex, kind="stable")]
    ends = np.cumsum(np.bincount(vertex, minlength=len(vertices))).tolist()
    shared: Dict[bytes, FrozenSet[Tuple[int, ...]]] = {}
    links = {}
    for signs, begin, end in zip(vertices.tolist(), [0] + ends, ends):
        ids = run_ids[begin:end]
        link = shared.get(ids.tobytes())
        if link is None:
            link = shared[ids.tobytes()] = frozenset(runs[r][0] for r in ids.tolist())
        links[signs] = link
    return links


def from_rzk1_per_cell_oracle(blob: bytes, budget: Optional[int] = None):
    """The RZK1 reader that unpacks one record and decodes one support mask
    per cell before the per-cell constructor, verbatim."""
    if blob[:4] != RZK1_MAGIC:
        raise ValidationError("bad magic; not an RZK1 cell table")
    if len(blob) < 12:
        raise ValidationError("truncated RZK1 header")
    ambient, count = struct.unpack_from("<II", blob, 4)
    expected = 12 + RZK1_CELL.size * count
    if len(blob) != expected:
        raise ValidationError(
            f"RZK1 table of {count} cells needs {expected} bytes, got {len(blob)}")
    if ambient > 32:
        raise ValidationError("RZK1 format caps the ambient rank at 32")
    cells = [(tuple(gf2.indices_of_vector(mask)), sg)
             for mask, sg in RZK1_CELL.iter_unpack(blob[12:])]
    return CubicalComplex(ambient, cells, budget=budget)


def splittings_oracle(data, k: int, l: int) -> List[Tuple[int, int, int]]:
    """(top cell, front cell, back cell) indices of the cubical cup product.

    Each (k+l)-cell splits its support into a front set A (|A| = k) and
    its complement; the front face freezes the complement at -1, the back
    face freezes A at +1.  Only splittings with both faces present are
    listed.
    """
    vertices = data.cell_keys[0] if data.cell_keys else ()
    if not vertices or not isinstance(vertices[0][0], tuple):
        raise ValidationError("cup products need cubical chain data")
    if k + l > data.top_dim:
        return []
    idx_k = {key: i for i, key in enumerate(data.cell_keys[k])}
    idx_l = {key: i for i, key in enumerate(data.cell_keys[l])}
    out: List[Tuple[int, int, int]] = []
    for c, (support, signs) in enumerate(data.cell_keys[k + l]):
        for front in combinations(support, k):
            fi = idx_k.get((front, signs))
            back_signs = signs
            for x in front:
                back_signs |= 1 << x
            bi = idx_l.get((tuple(x for x in support if x not in front), back_signs))
            if fi is not None and bi is not None:
                out.append((c, fi, bi))
    return out


def intersection_form_oracle(data) -> Tuple[List[int], List[int]]:
    """Mod-2 intersection form on H^2 of a closed 4-complex.

    Returns (rows of the Gram matrix as bitmasks, diagonal entries).
    Pairings are evaluated at cochain level against the sum of all top
    cells; class-level well-definedness holds because the arguments are
    cocycles and the complex is closed.
    """
    splittings = splittings_oracle(data, 2, 2)
    reps = cohomology_z2_basis(data, 2).representatives
    b2 = len(reps)
    # bit-sliced: bit s of front[i] (back[i]) is reps[i] on splitting s's front (back) face
    cols = transpose_rows(reps, data.size(2))
    front = transpose_rows([cols[fi] for _, fi, _ in splittings], b2)
    back = transpose_rows([cols[bi] for _, _, bi in splittings], b2)
    rows = [0] * b2
    diag = [0] * b2
    for i in range(b2):
        for j in range(i, b2):
            if (front[i] & back[j]).bit_count() & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                if i == j:
                    diag[i] = 1
    return rows, diag


def preimage_components_oracle(
    Zbar,
    filling_pair: Iterable[int],
    filling_faces: Optional[Iterable[FrozenSet[int]]] = None,
) -> PreimageReport:
    """Connected components of the preimage of a filling cube.

    The copies of the rank-(n-2) face with facet pair {F1, F2} are the
    cells supported on that pair; two copies are merged when they bound
    a common cell supported on the pair plus one more facet.  Union-find
    over exactly these codimension-0/1 incidences.
    """
    pair = tuple(sorted(filling_pair))
    if len(pair) != 2:
        raise ValidationError("a filling face is named by its two facets")
    if filling_faces is not None and frozenset(pair) not in {frozenset(p) for p in filling_faces}:
        raise ValidationError(f"{pair} is not a filling face")
    copies = [c for c in Zbar.cells_of_dim(2) if c[0] == pair]
    if not copies:
        raise ValidationError(f"no cells supported on {pair}")
    index = {c: i for i, c in enumerate(copies)}
    merges = []
    for sup, signs in Zbar.cells_of_dim(3):
        if pair[0] in sup and pair[1] in sup:
            (extra,) = [x for x in sup if x not in pair]
            merges.append((index[(pair, signs)], index[(pair, signs | (1 << extra))]))
    per = tuple(sorted(Counter(_component_roots(len(copies), merges)).values()))
    return PreimageReport(copies=len(copies), components=len(per), cells_per_component=per)


def maximal_facets_oracle(cleaned: Sequence[Tuple[int, ...]]) -> Tuple[Tuple[int, ...], ...]:
    """The sorted, deduplicated facets contained in no other facet."""
    maximal = [
        f for f in cleaned
        if not any(set(f) < set(g) for g in cleaned)
    ]
    return tuple(sorted(set(maximal)))


class SimplicialComplexOracle(Store):
    """The per-facet SimplicialComplex: facets cleaned one at a time, the
    rarest vertex's facets scanned for a larger one, the closure a dict of
    tuple sets and ``has_face`` a frozenset lookup."""

    __slots__ = ("vertex_count", "facets", "_views")

    def __init__(self, vertex_count: int, facets: Sequence[Iterable[int]]):
        if vertex_count < 0:
            raise ValidationError("vertex_count must be nonnegative")
        if not facets:
            raise ValidationError("facet list is empty")
        cleaned: List[Tuple[int, ...]] = []
        for f in facets:
            fs = tuple(sorted(set(f)))
            if not fs:
                raise ValidationError("empty facet")
            if fs[0] < 0 or fs[-1] >= vertex_count:
                raise ValidationError(f"facet {fs} out of range for {vertex_count} vertices")
            cleaned.append(fs)
        # deduplicate, then drop each facet inside a strictly larger one,
        # which contains the facet's rarest vertex
        distinct = {f: frozenset(f) for f in cleaned}
        containing: Dict[int, List[Tuple[int, ...]]] = {}
        for f in distinct:
            for v in f:
                containing.setdefault(v, []).append(f)
        maximal = [f for f, fs in distinct.items() if not any(
            len(g) > len(f) and fs < distinct[g] for g in min(map(containing.get, f), key=len))]
        self.vertex_count = vertex_count
        self.facets: Tuple[Tuple[int, ...], ...] = tuple(sorted(maximal))

    def _faces_by_dim(self) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        return self._view("faces_by_dim", self._closure)

    def _closure(self) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        """The faces of each dimension, sorted: the downward closure of the facets."""
        by_dim: Dict[int, set] = {}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                by_dim.setdefault(k - 1, set()).update(combinations(f, k))
        return {d: tuple(sorted(faces)) for d, faces in by_dim.items()}

    def _face_set(self) -> FrozenSet[Tuple[int, ...]]:
        return self._view("face_set", lambda: frozenset(
            face for faces in self._faces_by_dim().values() for face in faces))

    @property
    def dim(self) -> int:
        return max(map(len, self.facets)) - 1

    def faces_of_dim(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        return self._faces_by_dim().get(k, ())

    def has_face(self, face: Iterable[int]) -> bool:
        return tuple(sorted(face)) in self._face_set()

    def vertices(self) -> Tuple[int, ...]:
        return tuple(v for (v,) in self.faces_of_dim(0))

    def link_of_vertex(self, v: int) -> "SimplicialComplexOracle":
        """Link of v: faces tau with v not in tau and tau + {v} a face."""
        if (v,) not in self._face_set():
            raise ValidationError(f"vertex {v} not in complex")
        candidates = [tuple(x for x in f if x != v) for f in self.facets if v in f]
        candidates = [c for c in candidates if c]
        if not candidates:
            raise ValidationError(f"vertex {v} is isolated; its link is empty")
        return SimplicialComplexOracle(self.vertex_count, candidates)

    def full_subcomplex(self, subset: Iterable[int]) -> Optional["SimplicialComplexOracle"]:
        """Restriction to a vertex subset; None if no face survives."""
        sub = set(subset)
        faces = []
        for f in self.facets:
            g = tuple(x for x in f if x in sub)
            if g:
                faces.append(g)
        if not faces:
            return None
        return SimplicialComplexOracle(self.vertex_count, faces)

    def to_json(self) -> str:
        return json.dumps(
            {"type": "simplicial", "vertices": self.vertex_count,
             "facets": [list(f) for f in self.facets]},
            sort_keys=True, separators=(",", ":"),
        )


class FaceLatticeOracle:
    """The per-face FaceLattice constructor and JSON writer."""

    def __init__(
        self,
        rank: int,
        num_facets: int,
        faces: Iterable[Tuple[int, Iterable[int]]],
        marks: Optional[Dict[FrozenSet[int], str]] = None,
    ):
        if rank < 1 or num_facets < 1:
            raise ValidationError("rank and facet count must be positive")
        seen: Dict[FrozenSet[int], int] = {}
        cleaned: List[Face] = []
        for k, fs in faces:
            s = frozenset(fs)
            if not (0 <= k < rank):
                raise ValidationError(f"face rank {k} outside 0..{rank - 1}")
            if not s:
                raise ValidationError("face with empty facet set")
            if min(s) < 0 or max(s) >= num_facets:
                raise ValidationError("facet index out of range")
            if s in seen:
                raise ValidationError(f"duplicate facet set {sorted(s)}")
            seen[s] = k
            cleaned.append((k, s))
        cleaned.sort(key=lambda fc: (fc[0], tuple(sorted(fc[1]))))
        singles = {s for k, s in cleaned if k == rank - 1}
        expected = {frozenset({i}) for i in range(num_facets)}
        if singles != expected:
            raise ValidationError("rank n-1 faces must be exactly the facet singletons")
        self.rank = rank
        self.num_facets = num_facets
        self.faces: Tuple[Face, ...] = tuple(cleaned)
        mk: List[str] = []
        for k, s in self.faces:
            if k == 0 and marks:
                mk.append(marks.get(s, REAL))
            else:
                mk.append(REAL)
        for s, label in (marks or {}).items():
            if label not in (REAL, IDEAL):
                raise ValidationError(f"unknown vertex mark {label!r}")
        self.marks: Tuple[str, ...] = tuple(mk)
        self._index: Dict[FrozenSet[int], int] = {s: i for i, (k, s) in enumerate(self.faces)}

    def to_json(self) -> str:
        payload = {
            "type": "face_lattice",
            "rank": self.rank,
            "facets": self.num_facets,
            "faces": [
                {"rank": k, "facet_set": sorted(s), "mark": self.marks[i]}
                for i, (k, s) in enumerate(self.faces)
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def validate_links_oracle(lattice: FaceLattice, ideal: set) -> None:
    """Cube links at ideal vertices, simplex links at real ones."""
    n = lattice.rank
    # facet to face incidence: the faces on facet f are ids[ptr[f]:ptr[f + 1]]
    order = np.argsort(lattice._facets, kind="stable")
    widths = np.diff(lattice._ptr)
    ids = np.repeat(np.arange(len(widths)), widths)[order]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(lattice._facets, minlength=lattice.num_facets))))
    faces = lattice.faces
    for s in lattice.faces_of_rank(0):
        # the faces above s, itself included, are named once for each of their facets
        hits = np.bincount(np.concatenate([ids[ptr[f]:ptr[f + 1]] for f in s]), minlength=len(widths))
        above = [faces[i][1] for i in np.flatnonzero(hits == widths).tolist() if faces[i][1] != s]
        if s in ideal:
            if len(s) != 2 * (n - 1):
                raise ValidationError("ideal vertex has wrong facet count")
            sizes = Counter(map(len, above))
            for k in range(1, n):
                if sizes[n - k] != comb(n - 1, n - k) * (1 << (n - k)):
                    raise ValidationError("ideal vertex link is not a cube")
        else:
            if len(s) != n:
                raise ValidationError("real vertex is not simple")
            if len(above) != (1 << n) - 2:
                raise ValidationError("real vertex link is not a simplex")


def facets_by_maximization(
    vertices: Sequence[Tuple[int, ...]], normals: Sequence[Tuple[int, ...]]
) -> List[FrozenSet[int]]:
    """Vertex set of the face maximizing each normal.

    By Cauchy-Schwarz every partial sum of an inner product is at most
    |v||u| in size, so the products run in the smallest integer type
    that holds that bound.
    """
    V = np.array(vertices, dtype=np.int64)
    U = np.array(normals, dtype=np.int64)
    bound = isqrt(int((V * V).sum(axis=1).max()) * int((U * U).sum(axis=1).max())) + 1
    dt = next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    prod = V.astype(dt) @ U.T.astype(dt)
    cols, rows = np.nonzero((prod == prod.max(axis=0)).T)
    rows = rows.tolist()
    ends = np.cumsum(np.bincount(cols, minlength=len(normals))).tolist()
    return [frozenset(rows[a:b]) for a, b in zip([0] + ends, ends)]


def fundamental_weight_oracle(roots: Sequence[Tuple[int, ...]], node: int) -> Tuple[int, ...]:
    """Integer vector positively proportional to a fundamental weight.

    Solves the Gram system <w, alpha_j> = delta_{ij} exactly and clears
    denominators without reducing, so the result stays in twice the
    weight lattice and reflections remain integral.
    """
    k = len(roots)
    gram = [[_dot(roots[i], roots[j]) // 4 for j in range(k)] for i in range(k)]
    rhs = [Fraction(1 if j == node - 1 else 0) for j in range(k)]
    a = [[Fraction(x) for x in row] for row in gram]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        rhs[col] *= inv
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                rhs[r] -= f * rhs[col]
    coeffs = rhs
    weight = [sum(coeffs[j] * roots[j][t] for j in range(k)) for t in range(8)]
    denom = 1
    for x in weight:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return tuple(int(x * denom) for x in weight)


def weyl_orbit(start: Tuple[int, ...], roots: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Orbit of a dominant vector under the simple reflections, by reverse
    search, sorted."""
    orbit, _ = _orbit(start, np.array(roots, dtype=np.int64))
    return list(map(tuple, orbit.tolist()))


def orbit_per_round_oracle(start: Sequence[int], R: np.ndarray, seed: Sequence[int] = (),
                           perms: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``polytopes._orbit`` with the products of every round recomputed
    as ``X @ R.T`` and checked to be multiples of 4."""
    bound = isqrt(_dot(start, start))
    place = _key_places(bound, R.shape[1])
    cartan = (R @ R.T) // 4
    frontier = np.array([start], dtype=np.int64)
    carried = np.array([seed], dtype=np.intp)
    D = _root_products(frontier, R)
    if (D < 0).any():
        raise ValidationError("orbit start is not dominant")
    parts, rows = [frontier], [carried]
    while len(frontier):
        src, root = np.nonzero(D > 0)
        step = D[src, root]
        # <y, R> for each child y = x - step / 4 * R[root] is
        # D[src] - step * cartan[root]; its root-th entry is -step < 0
        keep = np.argmax(D[src] - step[:, None] * cartan[root] < 0, axis=1) == root
        src, root, step = src[keep], root[keep], step[keep]
        frontier = frontier[src] - (step // 4)[:, None] * R[root]
        carried = carried[src] if perms is None else perms[root[:, None], carried[src]]
        parts.append(frontier)
        rows.append(carried)
        D = _root_products(frontier, R)
    X = np.concatenate(parts)
    order = np.argsort((X + bound) @ place)
    return X[order], np.concatenate(rows)[order]


def orbit_facet_data(n: int):
    roots = _E_ROOTS_2X[:n]
    v_node, c_node, s_node = _WEIGHT_NODES[n]
    vertices = weyl_orbit(_fundamental_weight_vector(roots, v_node), roots)
    facets: List[Tuple[FrozenSet[int], str]] = []
    for node in (c_node, s_node):
        normals = weyl_orbit(_fundamental_weight_vector(roots, node), roots)
        for fv in facets_by_maximization(vertices, normals):
            if len(fv) == n:
                facets.append((fv, SIMPLEX))
            elif len(fv) == 2 * (n - 1):
                facets.append((fv, CROSS))
            else:
                raise ValidationError(
                    f"weight-orbit facet has {len(fv)} vertices; expected {n} or {2 * (n - 1)}"
                )
    if len({fv for fv, _ in facets}) != len(facets):
        raise ValidationError("duplicate facets from distinct orbit normals")
    return [tuple(v) for v in vertices], facets


def lattice_incidences_oracle(lattice: FaceLattice) -> Tuple[Dict[int, List[int]], Dict[Tuple[int, int], int]]:
    """Children and incidence numbers of a complete simple lattice.

    The top face gets id len(faces).  Signs are fixed bottom-up by
    propagation around each face's boundary sphere, so that the signed
    boundary of a boundary vanishes.
    """
    if not lattice.is_complete():
        raise ValidationError("incidence numbers need a complete lattice")
    n = lattice.rank
    faces = list(lattice.faces)
    top_id = len(faces)
    by_set = {s: i for i, (k, s) in enumerate(faces)}
    children: Dict[int, List[int]] = {}
    for gid, (k, s) in enumerate(faces):
        if k == 0:
            children[gid] = []
            continue
        kids = []
        for x in range(lattice.num_facets):
            if x not in s:
                t = s | {x}
                j = by_set.get(frozenset(t))
                if j is not None and faces[j][0] == k - 1:
                    kids.append(j)
        children[gid] = sorted(kids)
    children[top_id] = sorted(by_set[frozenset({i})] for i in range(lattice.num_facets))

    incidence: Dict[Tuple[int, int], int] = {}

    def rank_of(gid: int) -> int:
        return n if gid == top_id else faces[gid][0]

    order = sorted(children, key=rank_of)
    for gid in order:
        k = rank_of(gid)
        kids = children[gid]
        if k == 0:
            continue
        if k == 1:
            if len(kids) != 2:
                raise ValidationError("edge without exactly two endpoints")
            incidence[(gid, kids[0])] = -1
            incidence[(gid, kids[1])] = 1
            continue
        # grandchild -> the two children it lies in
        shared: Dict[int, List[int]] = {}
        for c in kids:
            for gc in children[c]:
                shared.setdefault(gc, []).append(c)
        for gc, cs in shared.items():
            if len(cs) != 2:
                raise ValidationError("boundary of a face is not a pseudomanifold")
        sign: Dict[int, int] = {kids[0]: 1}
        queue = [kids[0]]
        while queue:
            c1 = queue.pop()
            for gc in children[c1]:
                c2 = [c for c in shared[gc] if c != c1][0]
                want = -sign[c1] * incidence[(c1, gc)] * incidence[(c2, gc)]
                if c2 in sign:
                    if sign[c2] != want:
                        raise ValidationError("inconsistent orientation on a face boundary")
                else:
                    sign[c2] = want
                    queue.append(c2)
        if len(sign) != len(kids):
            raise ValidationError("face boundary is not connected")
        for c, s in sign.items():
            incidence[(gid, c)] = s
    return children, incidence


# ---------------------------------------------------------------------------
# sphere checks of a simplicial complex and the lattice property, verbatim
# ---------------------------------------------------------------------------


def closed_pseudomanifold_oracle(K: SimplicialComplex) -> bool:
    """Pure, and every ridge lies in exactly two facets."""
    if not K.is_pure() or K.dim < 1:
        return False
    count: Dict[Tuple[int, ...], int] = {}
    for f in K.facets:
        for r in combinations(f, len(f) - 1):
            count[r] = count.get(r, 0) + 1
    return all(c == 2 for c in count.values())


def connected_oracle(K: SimplicialComplex) -> bool:
    verts = K.vertices()
    if not verts:
        return True
    adj: Dict[int, set] = {v: set() for v in verts}
    for e in K.faces_of_dim(1):
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def lattice_check_oracle(L: FaceLattice, max_pairs: Optional[int] = None) -> bool:
    """Meets and joins exist for face pairs (with bottom/top adjoined).

    Checks all pairs by default; ``max_pairs`` samples deterministically
    for large instances.
    """
    sets = [s for _, s in L.faces]
    all_f = frozenset(range(L.num_facets))
    universe = sets + [all_f, frozenset()]
    pairs = list(combinations(range(len(sets)), 2))
    if max_pairs is not None and len(pairs) > max_pairs:
        step = max(1, len(pairs) // max_pairs)
        pairs = pairs[::step][:max_pairs]
    for ia, ib in pairs:
        a, b = sets[ia], sets[ib]
        union = a | b
        lower = [s for s in universe if s >= union]
        meet = min(lower, key=len, default=None)
        if meet is None or any(not (meet <= s) for s in lower):
            return False
        inter = a & b
        upper = [s for s in universe if s <= inter]
        join = max(upper, key=len)
        if any(not (join >= s) for s in upper):
            return False
    return True


# ---------------------------------------------------------------------------
# the per-vertex cusp census and its json.dumps writer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuspCensusOracle:
    entries: Tuple[CuspEntry, ...]
    total: int

    def magnitude(self) -> str:
        """The total to three digits, truncated: "2.32e71", "1.0e1", "3e0"."""
        digits = str(self.total)
        lead = f"{digits[0]}.{digits[1:3]}" if len(digits) > 1 else digits
        return f"{lead}e{len(digits) - 1}"


def cusp_census_oracle(P: IdealPolytope, colouring: Optional[Colouring] = None) -> CuspCensusOracle:
    """Cusp count of the coloured quotient: one cusp per coset of the
    colour span at each ideal vertex.  Totals are exact integers.  A cusp
    section is a flat (n-1)-manifold, a torus iff b_1 = n-1 (Bieberbach): iff
    the colour span at v exceeds that of the axis sums lambda_a + lambda_b,
    (a, b) in ``P.axes_of(v)``, by n-1, as it does for independent colours."""
    if colouring is None:
        colouring = Colouring.distinct(P.num_facets)
    if len(colouring.vectors) != P.num_facets:
        raise ValidationError("colouring size does not match the facet count")
    colours = colouring.vectors
    names = {True: f"{P.n - 1}-torus", False: f"flat {P.n - 1}-manifold, not a torus"}
    entries = []
    total = 0
    for v in P.ideal_vertices:
        m_v = len(v)
        span = gf2.rank_of_rows([colours[i] for i in v])
        torus = span == m_v or span - gf2.rank_of_rows(
            [colours[a] ^ colours[b] for a, b in P.axes_of(v)]) == P.n - 1
        count = 1 << (colouring.k - span)
        entries.append(CuspEntry(
            vertex=tuple(sorted(v)),
            incident_facets=m_v,
            components=count,
            section=names[torus],
        ))
        total += count
    return CuspCensusOracle(entries=tuple(entries), total=total)


def census_json_oracle(census) -> str:
    return json.dumps(
        {
            "total": str(census.total),
            "magnitude": census.magnitude(),
            "entries": [
                {
                    "vertex": list(e.vertex),
                    "incident_facets": e.incident_facets,
                    "components": str(e.components),
                    "section": e.section,
                }
                for e in census.entries
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# API that only the tests reach
# ---------------------------------------------------------------------------


def is_cocycle(data: ChainComplexData, phi: int, k: int) -> bool:
    return coboundary(data, phi, k) == 0


def cup_product(data: ChainComplexData, a: int, b: int, k: int, l: int) -> int:
    """Cochain-level cup product on a cube complex.

    On each (k+l)-cell the product sums, over the splittings of the
    support into a front set A (|A| = k) and its complement, the value
    of ``a`` on the front face (complement frozen at -1) times ``b`` on
    the back face (A frozen at +1).  Satisfies the Leibniz rule; graded
    commutativity holds only after passing to cohomology classes.
    """
    splittings = _splittings(data, k, l)
    if k + l > data.top_dim:
        return 0
    if not is_cocycle(data, a, k):
        warnings.warn("cup factor of degree %d is not a cocycle" % k, stacklevel=2)
    if not is_cocycle(data, b, l):
        warnings.warn("cup factor of degree %d is not a cocycle" % l, stacklevel=2)
    out = 0
    for c, fi, bi in zip(*(side.tolist() for side in splittings)):
        if (a >> fi) & 1 and (b >> bi) & 1:
            out ^= 1 << c
    return out


def pair_with_fundamental_class(data: ChainComplexData, phi: int) -> int:
    """Evaluate a top-degree cochain on the sum of all top cells, mod 2."""
    mask = (1 << data.size(data.top_dim)) - 1
    return (phi & mask).bit_count() & 1


def simplex_lattice(n: int) -> FaceLattice:
    """Boundary lattice of the n-simplex with n+1 facets."""
    faces: List[Tuple[int, Iterable[int]]] = []
    for size in range(1, n + 1):
        for chosen in combinations(range(n + 1), size):
            faces.append((n - size, set(chosen)))
    return FaceLattice(n, n + 1, faces)
