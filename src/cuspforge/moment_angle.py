"""Real moment-angle complexes, colouring quotients, cusp censuses.

Three manifold models appear here:

* ``real_moment_angle(K)``: the union of coordinate subcubes of
  [-1,1]^m indexed by the faces of K, as a ``CubicalComplex``.
* ``colour_manifold(P, colouring)``: the facet-colouring quotient of a
  simple polytope.  With all-distinct standard colours the result is
  the dual cube complex in (support, signs) form, cell-for-cell
  comparable with a real moment-angle complex; a general colouring
  yields the polytopal quotient cell structure (``QuotientCellComplex``)
  of the same manifold.
* ``truncated_quotient(P, colouring)``: the compact cusped model, the
  colouring quotient of the vertex-truncated polytope with uncoloured
  truncation facets; its boundary components are the cusp tori.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .chains import ChainComplexData, chain_complex_of, homology
from .cubical import Cell, CubicalComplex
from .errors import ValidationError, check_budget
from .isomorphism import find_isomorphism
from .lattice import FaceLattice, cube_faces
from .polytopes import IdealPolytope
from .simplicial import SimplicialComplex, build_simplicial

VertexKey = FrozenSet[int]


# ---------------------------------------------------------------------------
# real moment-angle complex
# ---------------------------------------------------------------------------


def moment_angle_cell_count(K: SimplicialComplex) -> int:
    m = K.vertex_count
    total = 1 << m
    for k in range(K.dim + 1):
        total += len(K.faces_of_dim(k)) * (1 << (m - k - 1))
    return total


def _cube_cells(supports: Iterable[Tuple[int, ...]], m: int) -> List[Cell]:
    """The cells (sup, signs) of [-1,1]^m on the given supports: every
    sign pattern off each support."""
    full = (1 << m) - 1
    return [(sup, signs) for sup in supports
            for signs in gf2.submasks(full & ~gf2.vector_from_indices(sup))]


def real_moment_angle(K: SimplicialComplex, budget: Optional[int] = None) -> CubicalComplex:
    """The cube subcomplex of [-1,1]^m with one cell (sigma, signs) per
    face sigma of K (empty face included) and sign pattern off sigma."""
    m = K.vertex_count
    check_budget(moment_angle_cell_count(K), budget)
    cells = _cube_cells([()] + K.all_faces(), m)
    return CubicalComplex(m, cells, budget=budget, validate=False)


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

    def proper_for(self, lattice: FaceLattice) -> bool:
        """Colours of the facets at every face are linearly independent."""
        if len(self.vectors) != lattice.num_facets:
            raise ValidationError("colouring size does not match the facet count")
        for _, s in lattice.faces:
            vecs = [self.vectors[i] for i in s]
            if gf2.rank_of_rows(vecs) != len(vecs):
                return False
        return True


# ---------------------------------------------------------------------------
# polytopal colouring quotient
# ---------------------------------------------------------------------------


def _lattice_incidences(lattice: FaceLattice) -> Tuple[Dict[int, List[int]], Dict[Tuple[int, int], int]]:
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


class QuotientCellComplex:
    """Colouring quotient of a simple polytope, in polytopal cells.

    A cell is (face id, coset) where the coset of the face's colour
    span is named by its canonical (fully reduced) representative; the
    top face contributes the 2^k polytope copies.  Facets with colour
    ``None`` are mirrors left unglued, so they become boundary.
    """

    def __init__(
        self,
        lattice: FaceLattice,
        colours: Sequence[Optional[int]],
        k: int,
        budget: Optional[int] = None,
    ):
        if len(colours) != lattice.num_facets:
            raise ValidationError("one colour slot per facet required")
        if not lattice.is_complete():
            raise ValidationError("quotient needs a complete lattice")
        if not lattice.is_simple():
            raise ValidationError("quotient needs a simple lattice")
        self.lattice = lattice
        self.colours = tuple(colours)
        self.k = k
        self.top_id = len(lattice.faces)
        self._children, self._incidence = _lattice_incidences(lattice)
        # colour-span pivots per face id, fully inter-reduced for canonical reps
        self._pivots: List[Dict[int, int]] = []
        total = 0
        for _, s in lattice.faces:
            vecs = [colours[i] for i in s if colours[i] is not None]
            piv = gf2.reduce_rows(vecs)
            if len(piv) != len(vecs):
                raise ValidationError("improper colouring: dependent colours at a face")
            self._pivots.append(gf2.rref_pivots(piv))
            total += 1 << (k - len(piv))
        self._pivots.append({})  # top face: no facets contain it
        total += 1 << k
        check_budget(total, budget)
        self.cells: List[List[Tuple[int, int]]] = [[] for _ in range(lattice.rank + 1)]
        for gid, (rank, _) in enumerate(lattice.faces):
            self.cells[rank].extend(self._cells_of_face(gid))
        self.cells[lattice.rank].extend(self._cells_of_face(self.top_id))
        for bucket in self.cells:
            bucket.sort()

    def _cells_of_face(self, gid: int) -> List[Tuple[int, int]]:
        free = ((1 << self.k) - 1) & ~gf2.vector_from_indices(self._pivots[gid])
        return [(gid, rep) for rep in gf2.submasks(free)]

    def rep_of(self, gid: int, g: int) -> int:
        return gf2.normal_form(g, self._pivots[gid])

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
        index: List[Dict[Tuple[int, int], int]] = [
            {cell: i for i, cell in enumerate(bucket)} for bucket in self.cells
        ]
        boundaries: List[Tuple] = []
        for d, bucket in enumerate(self.cells):
            rows = []
            for gid, rep in bucket:
                if d == 0:
                    rows.append(())
                    continue
                entries = []
                for child in self._children[gid]:
                    child_rep = self.rep_of(child, rep)
                    entries.append((index[d - 1][(child, child_rep)], self._incidence[(gid, child)]))
                rows.append(tuple(entries))
            boundaries.append(tuple(rows))
        return ChainComplexData(coeff, [tuple(b) for b in self.cells], boundaries)

    def cells_over_facet(self, facet: int) -> List[List[Tuple[int, int]]]:
        """Cells whose face lies in the given facet, per dimension."""
        out: List[List[Tuple[int, int]]] = [[] for _ in range(self.dim + 1)]
        for d, bucket in enumerate(self.cells):
            for gid, rep in bucket:
                if gid != self.top_id and facet in self.lattice.faces[gid][1]:
                    out[d].append((gid, rep))
        return out


def colour_manifold(P: FaceLattice, colouring: Colouring, budget: Optional[int] = None):
    """Closed manifold complex from a properly coloured simple polytope.

    Distinct standard colours give the dual cube complex: one cell per
    (face, coset of the facet-coordinate subspace), written as
    (support, signs) inside [-1,1]^f.  Other colourings return the
    polytopal ``QuotientCellComplex``.
    """
    if not P.is_simple():
        raise ValidationError("colouring quotients need a simple polytope")
    if not P.is_complete():
        raise ValidationError("colouring quotients need a complete lattice")
    if not colouring.proper_for(P):
        raise ValidationError("improper colouring")
    if not colouring.is_distinct_standard():
        return QuotientCellComplex(P, colouring.vectors, colouring.k, budget=budget)
    f = P.num_facets
    total = 1 << f
    for _, s in P.faces:
        total += 1 << (f - len(s))
    check_budget(total, budget)
    supports = [tuple(sorted(s)) for _, s in P.faces] + [()]
    return CubicalComplex(f, _cube_cells(supports, f), budget=budget)


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
    itself is a plausible sphere (pure, closed, connected, sphere Betti
    numbers over Z/2).  Vertices with the same labelled link share one
    isomorphism test."""
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
    closed = K.is_closed_pseudomanifold()
    connected = K.is_connected()
    d = K.dim
    expect = tuple([1] + [0] * (d - 1) + [1]) if d >= 1 else (2,)
    sphere_betti = homology(chain_complex_of(K, "Z2")).betti == expect
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


@dataclass(frozen=True)
class CuspCensus:
    entries: Tuple[CuspEntry, ...]
    total: int

    def magnitude(self) -> str:
        digits = len(str(self.total)) - 1
        lead = str(self.total)[:3]
        return f"{lead[0]}.{lead[1:]}e{digits}"


def cusp_census(P: IdealPolytope, colouring: Optional[Colouring] = None) -> CuspCensus:
    """Cusp count of the coloured quotient: one cusp per coset of the
    colour span at each ideal vertex.  Totals are exact integers."""
    if colouring is None:
        colouring = Colouring.distinct(P.num_facets)
    if len(colouring.vectors) != P.num_facets:
        raise ValidationError("colouring size does not match the facet count")
    entries = []
    total = 0
    for v in P.ideal_vertices:
        m_v = len(v)
        span = gf2.rank_of_rows([colouring.vectors[i] for i in v])
        count = 1 << (colouring.k - span)
        entries.append(CuspEntry(
            vertex=tuple(sorted(v)),
            incident_facets=m_v,
            components=count,
            section=f"{P.n - 1}-torus",
        ))
        total += count
    return CuspCensus(entries=tuple(entries), total=total)


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


# ---------------------------------------------------------------------------
# truncated (cusped) model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedPolytope:
    """Vertex truncation of an ideal polytope: every ideal vertex is cut
    off by a new cube facet; the result is simple."""

    lattice: FaceLattice
    truncation_facet: Dict[VertexKey, int]  # ideal vertex -> new facet id


def truncate_ideal(P: IdealPolytope) -> TruncatedPolytope:
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


@dataclass
class CuspComponent:
    """One boundary torus of the cusped model, as a cell selection."""

    ideal_vertex: Tuple[int, ...]
    keys_per_dim: Tuple[Tuple[Tuple[int, int], ...], ...]


@dataclass
class CuspedComplex:
    """Compact cusped manifold model with its boundary tori."""

    quotient: QuotientCellComplex
    truncated: TruncatedPolytope
    components: Tuple[CuspComponent, ...]


def truncated_quotient(
    P: IdealPolytope, colouring: Optional[Colouring] = None, budget: Optional[int] = None
) -> CuspedComplex:
    """Colouring quotient of the truncated polytope.

    Original facets keep their colours; truncation facets are left
    uncoloured, so the quotient is a manifold with boundary and the
    boundary components over each truncation facet are the cusp
    cross-sections.
    """
    if colouring is None:
        colouring = Colouring.distinct(P.num_facets)
    trunc = truncate_ideal(P)
    colours: List[Optional[int]] = list(colouring.vectors) + [None] * len(trunc.truncation_facet)
    Q = QuotientCellComplex(trunc.lattice, colours, colouring.k, budget=budget)
    components: List[CuspComponent] = []
    for v in sorted(trunc.truncation_facet, key=sorted):
        cid = trunc.truncation_facet[v]
        cells = Q.cells_over_facet(cid)
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
    return CuspedComplex(quotient=Q, truncated=trunc, components=tuple(components))
