"""Cellular chain complexes, exact homology, cubical cup-product
splittings, and subcomplex selections.

One ``ChainComplexData`` carries integer incidence data for any of the
cell-complex types in this library, each d_k once, as a flat CSR triple
of arrays that every builder hands over: cubical data off face tables,
simplicial off face rows, the quotient off place tables, and subcomplexes
reindex their parent's arrays.  Every reader works on the arrays: GF(2)
work reads them mod 2 as bit-packed coboundary rows, ``coboundary``
reads the odd entries directly, and d(d(x)) = 0 is verified at build
time by composing d_(k-1) d_k exactly in int64 arrays, a fixed block of
k-cells at a time.  Every Z/2 row, coboundary rows, cochains, cocycles
and representatives alike, puts cell c at bit c, and the one GF(2)
elimination pivots each row on its highest set bit, its highest coface.

Each degree is eliminated once per coefficient ring and cached on the
data: over Z one Smith normal form per degree, chained through the cycle
coordinates, over Z/2 one cleared reduction per coboundary map delta^k,
the only Z/2 elimination of chain data, which every Z/2 rank, cocycle
basis, cusp restriction and coboundary pivot is read from.
The Smith normal form of degree k is fed the relations of d_k, its
sparse rows put through V of degree k-1 with the rows on the boundaries
of degree k-1 dropped, and keeps its transforms as move logs, which are
replayed on the sparse blocks that need them and never built: integral
homology replays V once per degree from 2 up, an integral H_k basis reads
the eliminations of degrees k and k+1 and runs none of its own, and is
cached per degree as well.  The one integral budget check is in
``smith_normal_form``, on the entries each elimination holds as it runs.
Equal sections of one parent share one elimination: ``subcomplex_selection``
keys each section's chain data by ``store.by_value`` of its exact arrays,
and a section equal to an earlier one gets that one's caches, so the tori of a cusped quotient,
usually identical as chain data, are eliminated once per class.

``propagate_signs`` is the one sign propagation: it orients a closed
pseudomanifold given as (top cell, ridge, incidence) triples, for
``orientability`` and for the incidence numbers of colour quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .cubical import CubicalComplex
from .errors import ValidationError
from .simplicial import SimplicialComplex, drop_one, row_keys
from .snf import SNFResult, smith_normal_form
from .store import by_value

# d_k as (ptr, faces, coeffs), see ChainComplexData
Incidence = Tuple[np.ndarray, np.ndarray, np.ndarray]

# k-cells per block of the d(d) = 0 check
DD_BLOCK_ROWS = 2048


def _max_abs(values: np.ndarray) -> int:
    return max(abs(int(values.max())), abs(int(values.min()))) if values.size else 0


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    return np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


@dataclass(eq=False)
class ChainComplexData:
    """Ordered cell bases and boundary maps of a finite complex.

    ``incidences[k]`` is d_k as a CSR triple ``(ptr, faces, coeffs)``:
    k-cell i has the (k-1)-cells ``faces[ptr[i]:ptr[i+1]]``, with the
    integral incidence numbers ``coeffs`` beside them (int64, or Python
    ints in an object array past int64; d_0 has none).  The ``coeff`` tag
    records how downstream computations should interpret them ("Z" or
    "Z2").  Eliminations are cached beside the data: ``smith(k)`` over Z,
    one per degree, each on the relations left by the one below,
    ``gf2_coreduction(k)`` over Z/2, the integral H_k bases built on
    ``smith(k)`` and ``smith(k + 1)``, and the ``OrientabilityResult`` of
    ``characteristic.orientability``.  ``_sections`` holds, per class of
    equal subcomplex selections, the three elimination caches they share.
    """

    coeff: str
    cell_keys: List[Tuple[Hashable, ...]]
    incidences: List[Incidence]
    _index: List[Dict[Hashable, int]] = field(default_factory=list, repr=False)
    _gf2_coreduction: Dict[int, Tuple[Dict[int, int], List[int]]] = field(default_factory=dict, repr=False)
    _smith: Dict[int, SNFResult] = field(default_factory=dict, repr=False)
    _integral_bases: Dict[int, IntegralHomologyBasis] = field(default_factory=dict, repr=False)
    _orientability: Optional[object] = field(default=None, repr=False)
    _sections: Dict[Hashable, Tuple[dict, dict, dict]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.coeff not in ("Z", "Z2"):
            raise ValidationError("coefficients must be 'Z' or 'Z2'")
        if len(self.incidences) != len(self.cell_keys):
            raise ValidationError(f"{len(self.incidences)} boundary maps for "
                                  f"{len(self.cell_keys)} cell dimensions")
        for k, (ptr, faces, coeffs) in enumerate(self.incidences):
            if (len(ptr) != self.size(k) + 1 or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1])
                    or not ptr[-1] == len(faces) == len(coeffs)):
                raise ValidationError(f"d_{k} needs one row per {k}-cell: "
                                      f"got {len(ptr) - 1} for {self.size(k)}")
            if faces.size and (faces.min() < 0 or faces.max() >= self.size(k - 1)):
                raise ValidationError(f"d_{k} names a face outside the "
                                      f"{self.size(k - 1)} ({k - 1})-cells")

    @property
    def top_dim(self) -> int:
        return len(self.cell_keys) - 1

    def size(self, k: int) -> int:
        if 0 <= k <= self.top_dim:
            return len(self.cell_keys[k])
        return 0

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(keys) for keys in self.cell_keys)

    def index_of(self, k: int, key: Hashable) -> int:
        """Position of a k-cell key; the key index is built on first use."""
        if not self._index:
            self._index = [{key: i for i, key in enumerate(keys)} for keys in self.cell_keys]
        return self._index[k][key]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.sizes()))

    def _entries(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d_k entry by entry: the k-cell, face and incidence of each entry,
        in row order (empty outside 0 <= k <= top)."""
        if not 0 <= k <= self.top_dim:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        ptr, faces, coeffs = self.incidences[k]
        return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), faces, coeffs

    def gf2_corows(self, k: int) -> List[int]:
        """Coboundary of each k-cell as a bitset over (k+1)-cells: bit i of
        row j is set when (k+1)-cell i has an odd number of odd entries on j.
        The one Z/2 form of the chain data, as ``gf2_coreduction`` reduces
        it: the rows at the pivots of degree k-1, which it skips, are left
        0, their entries dropped before the XOR loop."""
        cells, faces, coeffs = self._entries(k + 1)
        keep = coeffs & 1 != 0
        if k > 0 and keep.any():
            skipped = np.zeros(self.size(k), dtype=bool)
            skipped[list(self.gf2_coreduction(k - 1)[0])] = True
            keep &= ~skipped[faces]
        out = [0] * self.size(k)
        for j, i in zip(faces[keep].tolist(), cells[keep].tolist()):
            out[j] ^= 1 << i
        return out

    def gf2_coreduction(self, k: int) -> Tuple[Dict[int, int], List[int]]:
        """The one Z/2 elimination of delta^k, computed once: the reduced
        coboundaries {highest coface: row} and a basis of the cocycles.

        Rows at the pivots of degree k-1 are cleared (skipped): each is the
        highest k-cell of a coboundary b with delta(b) = 0, so its row is a
        sum of rows of lower index.  The cocycles found are then supported
        off every coboundary's highest k-cell, so they are b_k classes
        independent modulo the coboundaries.  Below degree 0 both are empty.
        """
        if k not in self._gf2_coreduction:
            skip = self.gf2_coreduction(k - 1)[0] if k > 0 else {}
            self._gf2_coreduction[k] = gf2.pivot_rows(self.gf2_corows(k), skip)
        return self._gf2_coreduction[k]

    def gf2_rank(self, k: int) -> int:
        """Rank of d_k over Z/2, read off the reduction of delta^(k-1)."""
        return len(self.gf2_coreduction(k - 1)[0])

    def _sparse_rows(self, k: int) -> List[Dict[int, int]]:
        """d_k as sparse rows, one {k-cell: incidence} per (k-1)-cell
        (empty rows outside 1 <= k <= top)."""
        rows: List[Dict[int, int]] = [{} for _ in range(self.size(k - 1))]
        for j, idx, coeff in zip(*(a.tolist() for a in self._entries(k))):
            rows[idx][j] = rows[idx].get(j, 0) + coeff
        return rows

    def smith(self, k: int) -> SNFResult:
        """The one integral elimination of degree k, computed once.

        For k <= 1 it is the Smith normal form of d_k, handed its incidences
        as sparse rows.  Above, with smith(k-1) = U D V of rank r, the rows
        of V d_k on the r boundary coordinates vanish (d d = 0, refused
        otherwise) and the rest are the relations R_k, so smith(k) is the
        SNF U_k D_k V_k of R_k and d_k = V^-1 diag(I, U_k) [0; D_k] V_k: it
        has d_k's rank and invariant factors, and V_k gives its cycles.
        """
        if k not in self._smith:
            below = self.smith(k - 1) if k > 1 else None
            rows = self._sparse_rows(k)
            if below is not None:
                rows = below._replay("v", rows)
                if any(rows[:below.rank]):
                    raise ValidationError(f"dd != 0 in dimension {k}")
                rows = rows[below.rank:]
            self._smith[k] = smith_normal_form(rows, len(rows), self.size(k))
        return self._smith[k]

    def _check_closed(self) -> None:
        """Refuse a ridge outside exactly two top cells: the count of
        ``propagate_signs`` over the non-zero entries of d_top."""
        _, faces, coeffs = self.incidences[self.top_dim]
        _refuse_open(faces[coeffs != 0], self.size(self.top_dim - 1))

    def verify_dd_zero(self) -> None:
        """d_(k-1) d_k = 0 for every k, composed exactly DD_BLOCK_ROWS k-cells
        at a time: each entry (face j, c) of a k-cell expands into c times
        the entries of d_(k-1) on j, and the products are summed per
        (k-cell, (k-2)-cell) after one sort."""
        for k in range(2, self.top_dim + 1):
            ptr, faces, coeffs = self.incidences[k]
            ptr1, faces1, coeffs1 = self.incidences[k - 1]
            widths = np.diff(ptr)
            widths1 = np.diff(ptr1)
            bound = (_max_abs(coeffs) * _max_abs(coeffs1)
                     * int(widths.max(initial=0)) * int(widths1.max(initial=0)))
            dtype = np.int64 if bound < 2 ** 63 else object
            n_low = max(self.size(k - 2), 1)
            for a in range(0, self.size(k), DD_BLOCK_ROWS):
                b = min(a + DD_BLOCK_ROWS, self.size(k))
                lo, hi = int(ptr[a]), int(ptr[b])
                face = faces[lo:hi]
                count = widths1[face]
                # positions in d_(k-1) of the expanded entries, row by row
                pos = _spans(ptr1[face], count)
                cell = np.repeat(np.repeat(np.arange(b - a), widths[a:b]), count)
                key = cell * n_low + faces1[pos]
                value = (np.repeat(coeffs[lo:hi], count).astype(dtype, copy=False)
                         * coeffs1[pos].astype(dtype, copy=False))
                order = np.argsort(key, kind="stable")
                key = key[order]
                heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                if key.size and np.count_nonzero(np.add.reduceat(value[order], heads)):
                    raise ValidationError(f"dd != 0 in dimension {k}")


def _refuse_open(ridges: np.ndarray, n_ridges: int) -> None:
    """Refuse a ridge that does not occur exactly twice in ``ridges``."""
    hits = np.bincount(ridges, minlength=n_ridges)
    bad = np.flatnonzero(hits != 2)
    if bad.size:
        raise ValidationError(f"complex is not closed: ridge {bad[0]} lies in {hits[bad[0]]} top cells")


def propagate_signs(cells: np.ndarray, ridges: np.ndarray, coeffs: np.ndarray,
                    n_cells: int, n_ridges: int) -> Tuple[Optional[List[int]], int]:
    """The one sign propagation over a closed pseudomanifold given as flat
    (top cell, ridge, incidence) triples.  Zero incidences are dropped; a
    ridge that does not hold exactly two of the rest is refused.  Each
    component is seeded +1 at its lowest cell, and a sign s crosses a ridge
    with incidences c_1 (its side) and c_2 as -s c_1 c_2.  Returns the signs,
    or None once a cell is reached with two signs, and the components seeded.
    """
    live = coeffs != 0
    # masked copies die at once: held beside the lists below, they stay resident
    _refuse_open(ridges[live], n_ridges)
    cell_of, coeff = cells[live].tolist(), coeffs[live].tolist()
    # each ridge holds exactly two entries: adjacent after one stable sort
    order = ridges[live].argsort(kind="stable").tolist()
    partner = [0] * len(order)
    for a, b in zip(order[::2], order[1::2]):
        partner[a], partner[b] = b, a
    rows: List[List[int]] = [[] for _ in range(n_cells)]
    for e, c in enumerate(cell_of):
        rows[c].append(e)
    sign = [0] * n_cells
    components = 0
    for seed in (c for c in range(n_cells) if not sign[c]):
        components += 1
        sign[seed], stack = 1, [seed]
        while stack:
            c1 = stack.pop()
            for e in rows[c1]:
                c2 = cell_of[partner[e]]
                want = -sign[c1] * coeff[e] * coeff[partner[e]]
                if sign[c2] == 0:
                    sign[c2] = want
                    stack.append(c2)
                elif sign[c2] != want:
                    return None, components
    return sign, components


def chain_complex_of(X, coeff: str = "Z2") -> ChainComplexData:
    """Build the cellular chain complex of a complex object.

    Simplicial boundaries use the alternating-sign convention on sorted
    vertices; cubical ones alternate over the ordered support, with the
    +1 face positive.  Other complex types supply their own incidence
    data via ``to_chain_data``.
    """
    if isinstance(X, SimplicialComplex):
        data = _simplicial_chain_data(X, coeff)
    elif isinstance(X, CubicalComplex):
        data = _cubical_chain_data(X, coeff)
    elif hasattr(X, "to_chain_data"):
        data = X.to_chain_data(coeff)
    else:
        raise ValidationError(f"no chain-complex builder for {type(X).__name__}")
    data.verify_dd_zero()
    return data


def _simplicial_chain_data(K: SimplicialComplex, coeff: str) -> ChainComplexData:
    """d_k read off K's face rows: on the j-th vertex of a sorted k-simplex
    the face without it, with sign (-1)^j, found by one sorted search per
    dimension among the exact keys (``row_keys``) of the (k-1)-faces."""
    cell_keys = [K.faces_of_dim(k) for k in range(K.dim + 1)]
    empty = np.zeros(0, dtype=np.int64)
    incidences = [(np.zeros(len(cell_keys[0]) + 1, dtype=np.int64), empty, empty)]
    for k in range(1, K.dim + 1):
        n = len(cell_keys[k])
        faces, drops = row_keys(K.rows_of_dim(k - 1), drop_one(K.rows_of_dim(k)).reshape(n * (k + 1), k))
        incidences.append((np.arange(n + 1, dtype=np.int64) * (k + 1), np.searchsorted(faces, drops),
                           np.tile((-1) ** np.arange(k + 1, dtype=np.int64), n)))
    return ChainComplexData(coeff, cell_keys, incidences)


def _cubical_chain_data(Z: CubicalComplex, coeff: str) -> ChainComplexData:
    """d_k read off ``Z.face_table(k)``: on the p-th axis of the support the
    +1 face with sign (-1)^p, then the -1 face with the opposite sign."""
    cell_keys = [Z.cells_of_dim(k) for k in range(Z.dim + 1)]
    empty = np.zeros(0, dtype=np.int64)
    incidences = [(np.zeros(len(cell_keys[0]) + 1, dtype=np.int64), empty, empty)] if cell_keys else []
    for k in range(1, Z.dim + 1):
        n = len(cell_keys[k])
        signs = np.array([(-1) ** p * s for p in range(k) for s in (1, -1)], dtype=np.int64)
        incidences.append((np.arange(n + 1, dtype=np.int64) * 2 * k, Z.face_table(k).reshape(-1),
                           np.tile(signs, n)))
    return ChainComplexData(coeff, cell_keys, incidences)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    coeff: str
    betti: Tuple[int, ...]
    torsion: Tuple[Tuple[int, ...], ...]  # invariant factors > 1, per degree

    def __str__(self) -> str:
        parts = []
        for k, b in enumerate(self.betti):
            t = "".join(f" + Z/{d}" for d in self.torsion[k])
            parts.append(f"H_{k} = Z^{b}{t}")
        return "; ".join(parts)


def homology(data: ChainComplexData) -> HomologyResult:
    """Betti numbers (and torsion over Z) from the boundary maps: over Z the
    rank and invariant factors of d_k are those of ``smith(k)``, read off
    its diagonal."""
    top = data.top_dim
    degrees = range(1, top + 1)
    if data.coeff == "Z2":
        ranks = [data.gf2_rank(k) for k in degrees]
        torsion = tuple(() for _ in range(top + 1))
    else:
        ranks = [data.smith(k).rank for k in degrees]
        torsion = tuple(tuple(data.smith(k + 1).invariant_factors()) if k < top else ()
                        for k in range(top + 1))
    ranks = [0] + ranks + [0]
    betti = tuple(data.size(k) - ranks[k] - ranks[k + 1] for k in range(top + 1))
    return HomologyResult(data.coeff, betti, torsion)


# ---------------------------------------------------------------------------
# integral homology with explicit bases (for inclusions and certificates)
# ---------------------------------------------------------------------------


@dataclass
class IntegralHomologyBasis:
    """H_k over Z with cycle representatives and a projection map.

    ``free_generators`` are cycle vectors generating the free part;
    ``project`` sends any integral cycle to (free coords, torsion coords).
    """

    degree: int
    free_rank: int
    torsion: Tuple[int, ...]
    free_generators: List[List[int]]
    _boundary: Tuple[List[int], List[int], List[int]]  # d_k as CSR lists
    _boundary_snf: SNFResult  # smith(k) = U D V
    _relation_snf: SNFResult  # smith(k + 1) = U' D' V', on the relations
    _quotient: List[Tuple[int, int]]  # (row of U'^-1 y, its order) for orders != 1

    @cached_property
    def _covectors(self) -> List[Dict[int, int]]:
        """The coordinate functionals, held by k-cell: entry c of row j is
        the value on cell j of the covector of ``_quotient[c]``, row i of
        U'^-1 P V with P dropping the first rank entries.  Built once, as
        V^T P^T (U'^-1)^T on the unit vectors: two transposed replays."""
        units: List[Dict[int, int]] = [{} for _ in range(self._relation_snf.nrows)]
        for c, (i, _) in enumerate(self._quotient):
            units[i][c] = 1
        tail = self._relation_snf._replay("uinvT", units)
        return self._boundary_snf._replay("vT", [{} for _ in range(self._boundary_snf.rank)] + tail)

    def project(self, cycle: Sequence[int]) -> Tuple[List[int], List[int]]:
        """(free coords, torsion coords) of a cycle: d_k x = 0 is checked
        exactly on the incidences, then each coordinate is the sparse dot
        product of x with its covector, over the non-zero entries of x,
        taken mod its order on a torsion coordinate."""
        ptr, faces, coeffs = self._boundary
        n = len(ptr) - 1
        if len(cycle) != n:
            raise ValidationError(f"chain has length {len(cycle)}, expected {n}")
        support = list(compress(range(n), cycle))
        image: Dict[int, int] = {}
        for j in support:
            for p in range(ptr[j], ptr[j + 1]):
                image[faces[p]] = image.get(faces[p], 0) + coeffs[p] * cycle[j]
        if any(image.values()):
            raise ValidationError("vector is not an integral cycle")
        coords = [0] * len(self._quotient)
        covectors = self._covectors
        for j in support:
            for c, x in covectors[j].items():
                coords[c] += x * cycle[j]
        return ([y for y, (_, d) in zip(coords, self._quotient) if d == 0],
                [y % d for y, (_, d) in zip(coords, self._quotient) if d])


def integral_homology_basis(data: ChainComplexData, k: int) -> IntegralHomologyBasis:
    """H_k over Z from the eliminations of degrees k and k+1, with none of
    its own: the cycles of smith(k) = U D V are V^-1 (0 + y), and
    smith(k+1) = U' D' V' is the SNF of the relations, so generator j is
    V^-1 (0 + U' e_j), of order D'_j.  Two replays, with no dense matrix:
    U' on the free unit columns, V^-1 on those.  Computed once per degree
    and cached on the data."""
    if k in data._integral_bases:
        return data._integral_bases[k]
    r_snf = data.smith(k + 1)
    snf = data.smith(k)
    r, z = snf.rank, data.size(k) - snf.rank
    orders = list(r_snf.diag) + [0] * (z - len(r_snf.diag))
    free = [j for j, d in enumerate(orders) if d == 0]
    units: List[Dict[int, int]] = [{} for _ in range(z)]
    for f, j in enumerate(free):
        units[j][f] = 1
    gens = snf._replay("vinv", [{} for _ in range(r)] + r_snf._replay("u", units))
    basis = data._integral_bases[k] = IntegralHomologyBasis(
        degree=k,
        free_rank=len(free),
        torsion=tuple(d for d in orders if d not in (0, 1)),
        free_generators=[[row.get(f, 0) for row in gens] for f in range(len(free))],
        _boundary=(tuple(a.tolist() for a in data.incidences[k]) if 0 <= k <= data.top_dim
                   else ([0], [], [])),
        _boundary_snf=snf,
        _relation_snf=r_snf,
        _quotient=[(i, d) for i, d in enumerate(orders) if d != 1],
    )
    return basis


# ---------------------------------------------------------------------------
# GF(2) cohomology with representatives
# ---------------------------------------------------------------------------


class Z2QuotientBasis:
    """Basis of a Z/2 quotient space cocycles / coboundaries.

    Representatives are bitsets over the k-cells; ``coordinates`` writes
    any cocycle of the same complex in this basis modulo the image.  The
    image comes in reduced, as pivot rows of the one GF(2) elimination,
    each keyed at its highest bit; an entry keyed elsewhere is refused
    with ``ValidationError``.  Built by ``cohomology_z2_basis``.
    """

    def __init__(self, k: int, cycles: Sequence[int], image: Dict[int, int]):
        if any(row.bit_length() - 1 != p for p, row in image.items()):
            raise ValidationError("image rows must be keyed at their highest bit")
        self.degree = k
        # the image as reduced rows {highest bit: row}, tagged 0; each cycle
        # left non-zero by it and the earlier representatives is the next
        # representative, tagged by its place so coordinates() is dual to it
        self._pivots: Dict[int, Tuple[int, int]] = {p: (row, 0) for p, row in image.items()}
        reps: List[int] = []
        for vec in cycles:
            red = gf2.reduce_tagged(vec, self._pivots)[0]
            if red:
                self._pivots[red.bit_length() - 1] = (red, 1 << len(reps))
                reps.append(red)
        self.representatives = reps
        self.dimension = len(reps)

    def coordinates(self, cycle: int) -> int:
        """Coefficient bitmask of a cocycle in this basis, mod the image."""
        if cycle >= 0:
            red, tag = gf2.reduce_tagged(cycle, self._pivots)
            if not red:
                return tag
        raise ValidationError("vector is not a (co)cycle of this complex")


def cohomology_z2_basis(data: ChainComplexData, k: int) -> Z2QuotientBasis:
    """H^k(-; Z/2): cocycles modulo coboundaries, both read off the cached
    reductions of delta^k and delta^(k-1)."""
    return Z2QuotientBasis(k, data.gf2_coreduction(k)[1], data.gf2_coreduction(k - 1)[0])


def coboundary(data: ChainComplexData, phi: int, k: int) -> int:
    """delta(phi) as a bitset over (k+1)-cells, read off d_(k+1)'s
    incidences: bit i is the parity of the odd entries of (k+1)-cell i on
    the k-cells in phi.  Bits of phi at or above n_k are ignored."""
    n = data.size(k)
    cells, faces, coeffs = data._entries(k + 1)
    held = np.unpackbits(np.frombuffer((phi & ((1 << n) - 1)).to_bytes(-(-n // 8), "little"), np.uint8),
                         bitorder="little")
    parity = np.bincount(cells[(coeffs & 1 != 0) & (held[faces] != 0)], minlength=data.size(k + 1)) & 1
    return int.from_bytes(np.packbits(parity.astype(np.uint8), bitorder="little").tobytes(), "little")


# ---------------------------------------------------------------------------
# cubical cup-product splittings
# ---------------------------------------------------------------------------


def _splittings(data: ChainComplexData, k: int, l: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top, front and back cell index arrays of the cubical cup product's splittings.

    Each (k+l)-cell splits its support into a front set A (|A| = k) and
    its complement; the front face freezes the complement at -1, the back
    face freezes A at +1.  Both are read off the rows of d, each a cube's
    face-table row (+1 face, then -1 face, per axis of the support),
    dropping positions highest first so that the lower ones stay put.
    """
    vertices = data.cell_keys[0] if data.cell_keys else ()
    if not vertices or not isinstance(vertices[0][0], tuple):
        raise ValidationError("cup products need cubical chain data")
    j = k + l
    if j > data.top_dim:
        return (np.zeros(0, dtype=np.int64),) * 3
    rows: Dict[int, np.ndarray] = {}
    for d in range(1, j + 1):
        ptr, faces, _ = data.incidences[d]
        if not np.array_equal(ptr, np.arange(len(ptr)) * 2 * d):
            raise ValidationError("cup products need cubical chain data")
        rows[d] = faces.reshape(-1, 2 * d)

    def face(drop: Iterable[int], column: int) -> np.ndarray:
        cells = np.arange(data.size(j))
        for d, p in zip(range(j, 0, -1), sorted(drop, reverse=True)):
            cells = rows[d][cells, 2 * p + column]
        return cells

    splits = [(face(set(range(j)) - set(front), 1), face(front, 0)) for front in combinations(range(j), k)]
    fronts, backs = (np.stack(side, axis=1).ravel() for side in zip(*splits))
    return np.repeat(np.arange(data.size(j)), len(splits)), fronts, backs


# ---------------------------------------------------------------------------
# subcomplex selections
# ---------------------------------------------------------------------------


@dataclass
class SubcomplexSelection:
    """A closed selection of parent cells, with its own chain data."""

    parent: ChainComplexData
    indices: List[List[int]]  # per dim, sub index -> parent index
    data: ChainComplexData

    def gather_cochain(self, phi: int, k: int) -> int:
        """Restrict a parent k-cochain to the subcomplex: phi's bits are
        read once, as text with bit c at place c, at the selected cells."""
        if phi < 0:
            raise ValidationError("cochain must be a non-negative bitset")
        idx = self.indices[k] if k < len(self.indices) else []
        bits = format(phi, "b")[::-1].ljust(self.parent.size(k), "0")
        return int("".join([bits[i] for i in reversed(idx)]) or "0", 2)

    def scatter_chain(self, vec: Sequence[int], k: int) -> List[int]:
        """Push a subcomplex k-chain into the parent's basis."""
        idx = self.indices[k] if k < len(self.indices) else []
        if len(vec) != len(idx):
            raise ValidationError(f"chain has length {len(vec)}, expected {len(idx)}")
        out = [0] * self.parent.size(k)
        for par_i, x in zip(idx, vec):
            out[par_i] = x
        return out


def subcomplex_selection(parent: ChainComplexData, keys_per_dim: Sequence[Sequence[Hashable]]) -> SubcomplexSelection:
    """Validate closure of a cell selection and reindex its chain data: the
    parent's rows of d_k are gathered, and their faces sent through one
    lookup array (parent index -> sub index, -1 off the selection).  A
    section whose arrays equal an earlier section's of the same parent
    shares its elimination caches; its cell keys and indices stay its own."""
    if len(keys_per_dim) > parent.top_dim + 1:
        raise ValidationError("selection has more degrees than the complex")
    indices: List[List[int]] = []
    for k, keys in enumerate(keys_per_dim):
        try:
            idx = sorted(parent.index_of(k, key) for key in keys)
        except KeyError:
            raise ValidationError("selection names a cell that is not in the complex") from None
        if len(set(idx)) != len(keys):
            raise ValidationError("repeated cell in subcomplex selection")
        indices.append(idx)
    incidences = []
    lookup = np.zeros(0, dtype=np.int64)  # no cells below degree 0
    for k, idx in enumerate(indices):
        ptr, faces, coeffs = parent.incidences[k]
        rows = np.array(idx, dtype=np.int64)
        counts = ptr[rows + 1] - ptr[rows]
        pos = _spans(ptr[rows], counts)
        sub_faces = lookup[faces[pos]]
        if np.any(sub_faces < 0):
            raise ValidationError("selection is not closed under faces")
        incidences.append((np.concatenate(([0], np.cumsum(counts))), sub_faces, coeffs[pos]))
        lookup = np.full(parent.size(k), -1, dtype=np.int64)
        lookup[rows] = np.arange(len(idx))
    cell_keys = [tuple(parent.cell_keys[k][i] for i in idx) for k, idx in enumerate(indices)]
    data = ChainComplexData(parent.coeff, cell_keys, incidences)
    data._gf2_coreduction, data._smith, data._integral_bases = parent._sections.setdefault(
        by_value((parent.coeff, incidences)), (data._gf2_coreduction, data._smith, data._integral_bases))
    return SubcomplexSelection(parent=parent, indices=indices, data=data)
