"""Real moment-angle complexes, colouring quotients, cusp censuses.

Three manifold models appear here:

* ``real_moment_angle(K)``: the union of coordinate subcubes of
  [-1,1]^m indexed by the faces of K, as a ``CubicalComplex``.
* ``colour_manifold(P, colouring)``: the facet-colouring quotient of a
  simple polytope.  With all-distinct standard colours the result is
  the dual cube complex in (support, signs) form, cell-for-cell
  comparable with a real moment-angle complex; a general colouring
  yields the polytopal quotient cell structure (``QuotientCellComplex``)
  of the same manifold, its incidences found by one row-key search and
  signed by one ``chains.propagate_signs`` per face rank, its cells placed
  by one GF(2)-linear table per face and its chain data gathered as arrays.
* ``truncated_quotient(P, colouring)``: the compact cusped model, the
  colouring quotient of the vertex-truncated polytope with uncoloured
  truncation facets; its boundary components are the cusp sections,
  closed flat manifolds that need not be tori.  ``truncate_ideal`` gives
  the truncated lattice: ideal row t is cut off by facet num_facets + t.

Cusps are cosets: the cusps over an ideal vertex v are the cosets of
(Z/2)^k modulo the span of the colours on v's facets.  ``cusp_census``
counts them and names each section a torus or not, walking P's ideal
rows and keeping one span and one torus flag per row (the per-vertex
``entries`` are a view), and ``truncated_quotient`` puts each boundary
cell on the section of its coset, placed by the span's table as the
cells are.  A coset is named by its normal form, the member with every
pivot column of the span cleared, where the span's rows pivot on their
highest set bit, as every GF(2) elimination here does.  The union-find
of ``preimage_components`` counts the same cusps independently, as the
components of the filling cubes' preimages in the filled manifold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .chains import ChainComplexData, _spans, chain_complex_of, homology, propagate_signs
from .cubical import Cell, CubicalComplex
from .errors import BudgetError, ValidationError, cell_budget, check_budget
from .isomorphism import find_isomorphism
from .filling import replace_ideal_vertices
from .lattice import FaceLattice
from .polytopes import IdealPolytope
from .simplicial import SimplicialComplex, build_simplicial, drop_one, row_keys
from .store import Store


# ---------------------------------------------------------------------------
# real moment-angle complex
# ---------------------------------------------------------------------------


def real_moment_angle(K: SimplicialComplex, budget: Optional[int] = None) -> CubicalComplex:
    """The cube subcomplex of [-1,1]^m with one cell (sigma, signs) per
    face sigma of K (empty face included) and sign pattern off sigma."""
    return CubicalComplex.from_supports(K.vertex_count, [()] + K.all_faces(), budget)


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Colouring:
    """Assignment of nonzero vectors in (Z/2)^k to the facets."""

    k: int
    vectors: Tuple[int, ...]

    def __post_init__(self):
        for v in self.vectors:
            if v == 0 or v >> self.k:
                raise ValidationError("colour vectors must be nonzero and fit the target rank")

    @classmethod
    def distinct(cls, f: int) -> "Colouring":
        return cls(f, tuple(1 << i for i in range(f)))

    @classmethod
    def from_bit_lists(cls, k: int, rows: Sequence[Sequence[int]]) -> "Colouring":
        return cls(k, tuple(gf2.vector_from_indices(r) for r in rows))

    def is_distinct_standard(self) -> bool:
        return self.k == len(self.vectors) and all(
            v == 1 << i for i, v in enumerate(self.vectors)
        )


# ---------------------------------------------------------------------------
# polytopal colouring quotient
# ---------------------------------------------------------------------------


def _key_ids(keys: np.ndarray) -> np.ndarray:
    """``np.unique``'s inverse by one stable sort, which loads no numpy code the quotient does not run already."""
    order = np.argsort(keys, kind="stable")
    ids = np.empty_like(order)
    ids[order] = np.cumsum(np.concatenate(([False], keys[order[1:]] != keys[order[:-1]])))
    return ids


def _lattice_incidences(lattice: FaceLattice) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children and incidence numbers of a complete simple lattice as CSR
    arrays (kid_ptr, kids, signs); the top face, id len(faces), has the
    facets.  A rank-(k - 1) face is a child of the rank-k faces that are its
    row less one column, found among their exact keys (``row_keys``).  An
    edge runs from its first endpoint (-1) to its second (+1).  The signs of
    rank k >= 2 come from one ``propagate_signs`` over the boundaries of all
    rank-k faces side by side: cells (face, child) in CSR order, so each
    face's first child is seeded +1, and ridges (face, grandchild)."""
    ranks, ptr, facets, _ = lattice.arrays()
    n, top_id = lattice.rank, len(ranks)
    block = np.concatenate(([0], np.cumsum(np.bincount(ranks, minlength=n)), [top_id + 1]))  # rank k's first id
    parents, kids = [np.full(top_id - block[n - 1], top_id)], [np.arange(block[n - 1], top_id)]
    for k in range(1, n):
        rows, below = (facets[ptr[block[r]]:ptr[block[r + 1]]].reshape(-1, n - r) for r in (k, k - 1))
        ids = _key_ids(np.concatenate(row_keys(rows, drop_one(below).reshape(-1, n - k))))
        face_of = np.full(len(ids), -1)
        face_of[ids[:len(rows)]] = np.arange(block[k], block[k + 1])
        at = face_of[ids[len(rows):]]
        parents.append(at[at >= 0])
        kids.append(block[k - 1] + np.flatnonzero(at >= 0) // (n - k + 1))
    order = np.argsort(np.concatenate(parents), kind="stable")  # each rank's children ascend already
    parent, kids = np.concatenate(parents)[order], np.concatenate(kids)[order]
    counts = np.bincount(parent, minlength=top_id + 1)
    kid_ptr = np.concatenate(([0], np.cumsum(counts)))
    if (counts[block[1]:block[2]] != 2).any():
        raise ValidationError("edge without exactly two endpoints")
    signs = np.resize(np.array([-1, 1], dtype=np.int64), len(kids))  # the edges' children first, then set below
    for k in range(2, n + 1):
        lo, hi = kid_ptr[block[k]], kid_ptr[block[k + 1]]
        at = _spans(kid_ptr[kids[lo:hi]], counts[kids[lo:hi]])
        cell = np.repeat(np.arange(hi - lo), counts[kids[lo:hi]])
        ridge = _key_ids(parent[lo + cell] * (top_id + 1) + kids[at])
        try:
            rank_signs, components = propagate_signs(cell, ridge, signs[at], hi - lo, int(ridge.max(initial=-1)) + 1)
        except ValidationError:
            raise ValidationError("boundary of a face is not a pseudomanifold") from None
        if rank_signs is None:
            raise ValidationError("inconsistent orientation on a face boundary")
        # one component per face, and none without a boundary
        if components != block[k + 1] - block[k] or not counts[block[k]:block[k + 1]].all():
            raise ValidationError("face boundary is not connected")
        signs[lo:hi] = rank_signs
    return kid_ptr, kids, signs


def _place_row(pivots: Dict[int, int], k: int) -> List[int]:
    """The place of each e_0 .. e_(k-1) among the normal forms modulo the
    span of {pivot column: row}, ascending: its normal form with the pivot
    bits dropped, which keeps their order.  Places are GF(2)-linear."""
    free = [c for c in range(k) if c not in pivots]
    forms = [gf2.normal_form(1 << i, pivots) for i in range(k)]
    return [sum(1 << j for j, c in enumerate(free) if form & (1 << c)) for form in forms]


def _xor_rows(table: np.ndarray, rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The XOR of ``table[rows[i], b]`` over the set bits b of ``vectors[i]``."""
    out = np.zeros(len(rows), dtype=np.int64)
    for b, column in enumerate(table.T):
        out ^= np.where(vectors & (1 << b), column[rows], 0)
    return out


class QuotientCellComplex:
    """Colouring quotient of a simple polytope, in polytopal cells.

    A cell is (face id, coset) where the coset of the face's colour
    span is named by its canonical (fully reduced) representative; the
    top face contributes the 2^k polytope copies.  Facets with colour
    ``None`` are mirrors left unglued, so they become boundary.  Face F's
    cells, from cell ``_first[F]`` of its rank on, are 0 .. 2^(k - r) - 1
    laid onto F's non-pivot columns; (F, g) is ``_first[F]`` + g's place.
    """

    def __init__(self, lattice: FaceLattice, colours: Sequence[Optional[int]], k: int,
                 budget: Optional[int] = None):
        if len(colours) != lattice.num_facets:
            raise ValidationError("one colour slot per facet required")
        if not lattice.is_complete():
            raise ValidationError("quotient needs a complete lattice")
        if not lattice.is_simple():
            raise ValidationError("quotient needs a simple lattice")
        self.lattice, self.colours, self.k = lattice, tuple(colours), k
        self.top_id = len(lattice.arrays()[0])
        self._kid_ptr, self._kids, self._kid_signs = _lattice_incidences(lattice)
        # colour-span pivots per face id, the top face's empty
        self._pivots: List[Dict[int, int]] = []
        flat, bounds = lattice.arrays()[2].tolist(), lattice.arrays()[1].tolist()
        for a, b in zip(bounds, bounds[1:]):
            vecs = [colours[i] for i in flat[a:b] if colours[i] is not None]
            piv = gf2.pivot_rows(vecs)[0]
            if len(piv) != len(vecs):
                raise ValidationError("improper colouring: dependent colours at a face")
            self._pivots.append(piv)
        self._pivots.append({})
        check_budget(sum(1 << (k - len(piv)) for piv in self._pivots), budget)
        self._places = np.array([_place_row(piv, k) for piv in self._pivots], dtype=np.int64).reshape(-1, k)
        # the unit vector of each face's j-th non-pivot column
        spread = np.array([[1 << c for c in range(k) if c not in piv] + [0] * len(piv) for piv in self._pivots],
                          dtype=np.int64).reshape(-1, k)
        ranks = np.append(lattice.arrays()[0], lattice.rank)
        counts = 1 << (k - np.array([len(piv) for piv in self._pivots], dtype=np.int64))
        self._first = np.zeros(len(ranks), dtype=np.int64)
        self._gids, self._reps = [], []
        for d in range(lattice.rank + 1):
            ids = np.flatnonzero(ranks == d)
            self._first[ids] = np.cumsum(counts[ids]) - counts[ids]
            gids = np.repeat(ids, counts[ids])
            self._gids.append(gids)
            self._reps.append(_xor_rows(spread, gids, np.arange(len(gids)) - self._first[gids]))
        self.cells = [list(zip(gids.tolist(), reps.tolist())) for gids, reps in zip(self._gids, self._reps)]

    @property
    def dim(self) -> int:
        return self.lattice.rank

    def cell_counts(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self.cells)

    def num_cells(self) -> int:
        return sum(len(b) for b in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(b) for d, b in enumerate(self.cells))

    def to_chain_data(self, coeff: str = "Z2") -> ChainComplexData:
        """Cell (F, g) meets each child c of F at c's cell of g."""
        incidences = []
        for gids, reps in zip(self._gids, self._reps):
            counts = self._kid_ptr[gids + 1] - self._kid_ptr[gids]
            at = _spans(self._kid_ptr[gids], counts)
            kids = self._kids[at]
            faces = self._first[kids] + _xor_rows(self._places, kids, np.repeat(reps, counts))
            incidences.append((np.concatenate(([0], np.cumsum(counts))), faces, self._kid_signs[at]))
        return ChainComplexData(coeff, [tuple(b) for b in self.cells], incidences)


def colour_manifold(P: FaceLattice, colouring: Colouring, budget: Optional[int] = None):
    """Closed manifold complex from a properly coloured simple polytope.

    Distinct standard colours give the dual cube complex: one cell per
    (face, coset of the facet-coordinate subspace), written as
    (support, signs) inside [-1,1]^f; they are proper on any simple
    polytope.  Other colourings return the polytopal
    ``QuotientCellComplex``, which checks the polytope and the colouring.
    """
    if len(colouring.vectors) != P.num_facets:
        raise ValidationError("colouring size does not match the facet count")
    if not colouring.is_distinct_standard():
        return QuotientCellComplex(P, colouring.vectors, colouring.k, budget=budget)
    if not P.is_simple():
        raise ValidationError("colouring quotients need a simple polytope")
    if not P.is_complete():
        raise ValidationError("colouring quotients need a complete lattice")
    flat, ptr = P.arrays()[2].tolist(), P.arrays()[1].tolist()
    return CubicalComplex.from_supports(P.num_facets, [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])] + [()], budget)


# ---------------------------------------------------------------------------
# manifold check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldReport:
    """Per-vertex link comparisons plus sphere-likeness of the target."""

    vertex_results: Tuple[Tuple[Cell, bool], ...]
    links_match: bool
    target_pure: bool
    target_closed: bool
    target_connected: bool
    target_sphere_betti: bool
    passed: bool
    failures: Tuple[str, ...]


def manifold_check(Z: CubicalComplex, K: SimplicialComplex) -> ManifoldReport:
    """Check that every vertex link of Z is isomorphic to K and that K
    itself is a plausible sphere: pure, closed (dimension >= 1 and
    ``ChainComplexData._check_closed``), connected (b_0 = 1) and with sphere
    Betti numbers, all read off K's one Z/2 chain complex.  Vertices with
    the same labelled link share one isomorphism test."""
    failures: List[str] = []
    results = []
    links = Z.vertex_links()
    verdicts: Dict[FrozenSet[Tuple[int, ...]], bool] = {}
    for v in Z.vertices():
        link = links[v[1]]
        if link not in verdicts:
            try:
                simplices = build_simplicial(sorted(link), Z.ambient)
                verdicts[link] = find_isomorphism(simplices, K) is not None
            except ValidationError:
                verdicts[link] = False
        ok = verdicts[link]
        results.append((v, ok))
        if not ok:
            failures.append(f"link mismatch at vertex {v}")
    links_match = all(ok for _, ok in results)
    pure = K.is_pure()
    data = chain_complex_of(K, "Z2")
    betti = homology(data).betti
    closed = pure and K.dim >= 1
    if closed:
        try:
            data._check_closed()
        except ValidationError:
            closed = False
    connected = betti[0] == 1
    sphere_betti = betti == ((1,) + (0,) * (K.dim - 1) + (1,) if K.dim >= 1 else (2,))
    for name, ok in (("pure", pure), ("closed", closed), ("connected", connected),
                     ("sphere betti", sphere_betti)):
        if not ok:
            failures.append(f"link target is not a sphere: fails {name}")
    passed = links_match and pure and closed and connected and sphere_betti
    return ManifoldReport(
        vertex_results=tuple(results),
        links_match=links_match,
        target_pure=pure,
        target_closed=closed,
        target_connected=connected,
        target_sphere_betti=sphere_betti,
        passed=passed,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# cusp census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuspEntry:
    vertex: Tuple[int, ...]
    incident_facets: int
    components: int
    section: str


class CuspCensus(Store):
    """Cusps of a coloured quotient of P^n, one row per ideal vertex.

    ``vertex_rows[j]`` holds the facets of ideal vertex j, ``spans[j]``
    the rank of the colour span there, so that 2^(k - spans[j]) cusps lie
    over it, and ``torus[j]`` whether their section is an (n-1)-torus.
    The views ``total``, summed once per distinct span, and ``entries``,
    one per vertex, are built on first read and kept out of ``==``,
    ``hash`` and pickles.
    """

    __slots__ = ("n", "k", "vertex_rows", "spans", "torus", "_views")

    def __init__(self, n: int, k: int, vertex_rows: np.ndarray, spans: Tuple[int, ...],
                 torus: Tuple[bool, ...]):
        self.n, self.k, self.vertex_rows, self.spans, self.torus = n, k, vertex_rows, spans, torus

    @property
    def total(self) -> int:
        return self._view("total", lambda: sum(
            count << (self.k - span) for span, count in Counter(self.spans).items()))

    def section(self, torus: bool) -> str:
        return f"{self.n - 1}-torus" if torus else f"flat {self.n - 1}-manifold, not a torus"

    @property
    def entries(self) -> Tuple[CuspEntry, ...]:
        return self._view("entries", lambda: tuple(
            CuspEntry(tuple(row), len(row), 1 << (self.k - span), self.section(torus))
            for row, span, torus in zip(self.vertex_rows.tolist(), self.spans, self.torus)))

    def magnitude(self) -> str:
        """The total to three digits, truncated: "2.32e71", "1.0e1", "3e0"."""
        digits = str(self.total)
        lead = f"{digits[0]}.{digits[1:3]}" if len(digits) > 1 else digits
        return f"{lead}e{len(digits) - 1}"

    def cusp_ids(self, budget: Optional[int] = None) -> List[str]:
        """One id ``v<vertex>#<i>`` per cusp.  A total over the cell budget
        is refused before any id is built."""
        cap = cell_budget(budget)
        if self.total > cap:
            raise BudgetError(f"listing {self.total} cusps exceeds the cell budget {cap}")
        return [f"v{tuple(row)}#{i}" for row, span in zip(self.vertex_rows.tolist(), self.spans)
                for i in range(1 << (self.k - span))]


def cusp_census(P: IdealPolytope, colouring: Optional[Colouring] = None) -> CuspCensus:
    """Cusp count of the coloured quotient: one cusp per coset of the
    colour span at each ideal vertex, read off ``P.ideal_rows``.  Totals
    are exact integers.  A cusp section is a flat (n-1)-manifold, a torus
    iff b_1 = n-1 (Bieberbach): iff the colour span at v exceeds that of
    the axis sums lambda_a + lambda_b, (a, b) in v's row of
    ``P.axis_rows``, by n-1, as it does for independent colours."""
    if colouring is None:
        colouring = Colouring.distinct(P.num_facets)
    if len(colouring.vectors) != P.num_facets:
        raise ValidationError("colouring size does not match the facet count")
    colours = colouring.vectors
    spans, torus = [], []
    for j, row in enumerate(P.ideal_rows.tolist()):
        span = gf2.rank_of_rows([colours[i] for i in row])
        spans.append(span)
        torus.append(span == len(row) or span - gf2.rank_of_rows(
            [colours[a] ^ colours[b] for a, b in P.axis_rows[j].tolist()]) == P.n - 1)
    return CuspCensus(P.n, colouring.k, P.ideal_rows, tuple(spans), tuple(torus))


# ---------------------------------------------------------------------------
# preimages of filling faces
# ---------------------------------------------------------------------------


def _component_roots(n: int, merges: Iterable[Tuple[int, int]]) -> List[int]:
    """Union-find over 0..n-1: the class representative of each element
    after merging every pair in ``merges``."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in merges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return [find(i) for i in range(n)]


@dataclass(frozen=True)
class PreimageReport:
    copies: int
    components: int
    cells_per_component: Tuple[int, ...]


def preimage_components(
    Zbar: CubicalComplex,
    filling_pair: Iterable[int],
    filling_faces: Optional[Iterable[FrozenSet[int]]] = None,
) -> PreimageReport:
    """Connected components of the preimage of a filling cube.

    The copies of the rank-(n-2) face with facet pair {F1, F2} are the
    run of cells supported on that pair; two copies are merged when they
    are the -1 and +1 faces of a cell supported on the pair plus one more
    facet, on that facet's axis, as its face table gives them.
    Union-find over exactly these codimension-0/1 incidences.
    """
    pair = tuple(sorted(filling_pair))
    if len(pair) != 2:
        raise ValidationError("a filling face is named by its two facets")
    if filling_faces is not None and frozenset(pair) not in {frozenset(p) for p in filling_faces}:
        raise ValidationError(f"{pair} is not a filling face")
    run = next((run for run in Zbar.support_runs(2) if run[0] == pair), None)
    if run is None:
        raise ValidationError(f"no cells supported on {pair}")
    _, first, copies = run
    merges = []
    for sup, start, signs in Zbar.support_runs(3):
        if pair[0] in sup and pair[1] in sup:
            (p,) = [p for p, x in enumerate(sup) if x not in pair]
            faces = Zbar.face_table(3)[start:start + len(signs), [2 * p + 1, 2 * p]] - first
            merges.extend(faces.tolist())
    per = tuple(sorted(Counter(_component_roots(len(copies), merges)).values()))
    return PreimageReport(copies=len(copies), components=len(per), cells_per_component=per)


# ---------------------------------------------------------------------------
# truncated (cusped) model
# ---------------------------------------------------------------------------


def truncate_ideal(P: IdealPolytope) -> FaceLattice:
    """Vertex truncation of an ideal polytope, a simple polytope's lattice:
    ideal row t is cut off by the new cube facet ``P.num_facets + t``."""
    if not P.lattice.is_complete():
        raise ValidationError("truncation needs a complete lattice")
    f, m = P.num_facets, len(P.ideal_rows)
    return replace_ideal_vertices(P, f + m, np.arange(f, f + m).reshape(m, 1), P.axis_rows, "truncated")


@dataclass
class CuspComponent:
    """One cusp section of the cusped model, as a cell selection."""

    ideal_vertex: Tuple[int, ...]
    keys_per_dim: Tuple[Tuple[Tuple[int, int], ...], ...]


@dataclass
class CuspedComplex:
    """Compact cusped manifold model with its cusp sections."""

    quotient: QuotientCellComplex
    components: Tuple[CuspComponent, ...]


def truncated_quotient(
    P: IdealPolytope, colouring: Optional[Colouring] = None, budget: Optional[int] = None
) -> CuspedComplex:
    """Colouring quotient of the truncated polytope, with its cusp sections.

    Original facets keep their colours; truncation facets are left
    uncoloured, so the quotient is a manifold with boundary.  Over the
    truncation facet of an ideal vertex v lie the 2^k copies of v's cube
    link, glued along the colours of v's facets: the cusps over v are the
    cosets of (Z/2)^k modulo their span, as ``cusp_census`` counts them.
    So each boundary cell (face, rep) lies on the section of rep's coset,
    placed by the ``_place_row`` of v's span (possibly dependent), a
    closed flat manifold that is a torus only where ``cusp_census`` says so.
    Sections are listed by vertex, then by normal form, their least member.
    """
    if colouring is None:
        colouring = Colouring.distinct(P.num_facets)
    lattice, k = truncate_ideal(P), colouring.k
    colours = list(colouring.vectors) + [None] * len(P.ideal_rows)
    Q = QuotientCellComplex(lattice, colours, k, budget=budget)
    vertices = [tuple(sorted(row)) for row in P.ideal_rows.tolist()]
    spans = [gf2.pivot_rows([colours[i] for i in row])[0] for row in vertices]
    places = np.array([_place_row(span, k) for span in spans], dtype=np.int64).reshape(-1, k)
    first, sections = np.zeros(len(vertices), dtype=np.int64), []
    for j in sorted(range(len(vertices)), key=vertices.__getitem__):
        first[j] = len(sections)
        sections += [(vertices[j], [[] for _ in Q.cells[:-1]]) for _ in range(1 << (k - len(spans[j])))]
    # the ideal row whose truncation facet, a face's last facet, holds the face, or < 0
    _, ptr, facets, _ = lattice.arrays()
    over = facets[ptr[1:] - 1] - P.num_facets
    for d, (bucket, gids, reps) in enumerate(zip(Q.cells[:-1], Q._gids, Q._reps)):
        rows = over[gids]
        hit = rows >= 0
        at = first[rows[hit]] + _xor_rows(places, rows[hit], reps[hit])
        for s, cell in zip(at.tolist(), compress(bucket, hit.tolist())):
            sections[s][1][d].append(cell)
    return CuspedComplex(Q, tuple(CuspComponent(vertex, tuple(map(tuple, cells))) for vertex, cells in sections))
