"""Abstract polytope boundaries as ranked face lattices.

A face of an n-polytope is encoded by the set of facets containing it
(facet-incidence encoding).  For simple polytopes this encoding is
faithful and the partial order is reverse inclusion of facet sets; the
encoding also carries the non-simple ideal vertices that appear before
Dehn filling.  Ranks run 0 (vertices) to n-1 (facets); the empty face
and the whole polytope stay implicit.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ValidationError, json_document, json_int
from .simplicial import SimplicialComplex, build_simplicial

REAL = "real"
IDEAL = "ideal"

Face = Tuple[int, FrozenSet[int]]


class FaceLattice:
    """Ranked face list of an abstract polytope boundary.

    ``faces`` holds (rank, facet_set) pairs, sorted; ``marks`` tags each
    rank-0 face as real or ideal.  Lattices generated for n >= 7 may be
    partial (vertices and facets only); ``is_complete`` distinguishes.
    """

    __slots__ = ("rank", "num_facets", "faces", "marks", "_index")

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

    # -- queries ---------------------------------------------------------

    def faces_of_rank(self, k: int) -> List[FrozenSet[int]]:
        return [s for r, s in self.faces if r == k]

    def vertex_faces(self) -> List[FrozenSet[int]]:
        return self.faces_of_rank(0)

    def mark_of(self, facet_set: FrozenSet[int]) -> str:
        return self.marks[self._index[frozenset(facet_set)]]

    def ideal_vertices(self) -> List[FrozenSet[int]]:
        return [s for i, (k, s) in enumerate(self.faces) if k == 0 and self.marks[i] == IDEAL]

    def rank_of(self, facet_set: Iterable[int]) -> int:
        return self.faces[self._index[frozenset(facet_set)]][0]

    def has_face(self, facet_set: Iterable[int]) -> bool:
        return frozenset(facet_set) in self._index

    def ranks_present(self) -> List[int]:
        return sorted({k for k, _ in self.faces})

    def is_complete(self) -> bool:
        return self.ranks_present() == list(range(self.rank))

    def f_vector(self) -> Tuple[int, ...]:
        if not self.is_complete():
            raise ValidationError("f-vector needs a complete lattice")
        counts = [0] * self.rank
        for k, _ in self.faces:
            counts[k] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """Alternating sum over the boundary faces; 1 - (-1)^n for spheres."""
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_simple(self) -> bool:
        """True iff each rank-(n-k) face lies in exactly k facets."""
        return all(len(s) == self.rank - k for k, s in self.faces)

    def faces_containing(self, facet_set: Iterable[int]) -> List[Face]:
        """Faces above the given one (smaller facet sets), itself included."""
        base = frozenset(facet_set)
        return [(k, s) for k, s in self.faces if s <= base]

    # -- structural checks -------------------------------------------------

    def lattice_check(self, max_pairs: Optional[int] = None) -> bool:
        """Meets and joins exist for face pairs (with bottom/top adjoined).

        Checks all pairs by default; ``max_pairs`` samples deterministically
        for large instances.
        """
        sets = [s for _, s in self.faces]
        all_f = frozenset(range(self.num_facets))
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

    # -- serialization ----------------------------------------------------

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

    @classmethod
    def from_json(cls, text: str) -> "FaceLattice":
        data = json_document(text, "face_lattice")
        faces = []
        marks: Dict[FrozenSet[int], str] = {}
        try:
            rank, num_facets = json_int(data["rank"]), json_int(data["facets"])
            for item in data["faces"]:
                k, s = json_int(item["rank"]), frozenset(map(json_int, item["facet_set"]))
                faces.append((k, s))
                if k == 0:
                    marks[s] = item.get("mark", REAL)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed face_lattice document: {exc!r}") from exc
        return cls(rank, num_facets, faces, marks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaceLattice)
            and self.rank == other.rank
            and self.num_facets == other.num_facets
            and self.faces == other.faces
            and self.marks == other.marks
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.num_facets, self.faces))

    def __repr__(self) -> str:
        return f"FaceLattice(rank={self.rank}, facets={self.num_facets}, faces={len(self.faces)})"


# -- duality ---------------------------------------------------------------


def dualize(P: FaceLattice) -> SimplicialComplex:
    """Dual simplicial complex of a simple polytope boundary.

    Facets of P become vertices; the facet set of each P-vertex becomes a
    top simplex.  Requires P simple (vertices in exactly n facets).
    """
    if not P.is_simple():
        raise ValidationError("dualize needs a simple lattice")
    tops = [tuple(sorted(s)) for s in P.vertex_faces()]
    K = build_simplicial(tops, P.num_facets)
    for k, s in P.faces:
        if not K.has_face(tuple(sorted(s))):
            raise ValidationError(f"face {sorted(s)} has no dual simplex")
    return K


def dualize_complex(K: SimplicialComplex) -> FaceLattice:
    """Inverse of :func:`dualize` on closed pseudo-manifold spheres."""
    if not K.is_pure():
        raise ValidationError("dual lattice needs a pure complex")
    if not K.is_closed_pseudomanifold():
        raise ValidationError("dual lattice needs a closed pseudo-manifold")
    n = K.dim + 1
    if len(K.vertices()) != K.vertex_count:
        raise ValidationError("complex has unused vertex slots")
    faces = []
    for d in range(K.dim + 1):
        for tau in K.faces_of_dim(d):
            faces.append((n - 1 - d, frozenset(tau)))
    return FaceLattice(n, K.vertex_count, faces)


# -- stock lattices ----------------------------------------------------------


def polygon_lattice(k: int) -> FaceLattice:
    """Boundary lattice of a k-gon; facet i is the edge from vertex i-1 to i."""
    if k < 3:
        raise ValidationError("polygon needs at least 3 edges")
    faces: List[Tuple[int, Iterable[int]]] = [(1, {i}) for i in range(k)]
    faces += [(0, {(i - 1) % k, i}) for i in range(k)]
    return FaceLattice(2, k, faces)


def cube_faces(axes: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, FrozenSet[int]]]:
    """Every proper face of a cube whose opposite facet pairs are ``axes``,
    as (codimension, set of the facets containing it)."""
    for size in range(1, len(axes) + 1):
        for chosen in combinations(axes, size):
            for facets in product(*chosen):
                yield size, frozenset(facets)


def cube_lattice(n: int) -> FaceLattice:
    """Boundary lattice of the n-cube; facet 2i+b is the wall x_i = (-1)^(1-b)."""
    if n < 1:
        raise ValidationError("cube dimension must be positive")
    axes = [(2 * a, 2 * a + 1) for a in range(n)]
    return FaceLattice(n, 2 * n, [(n - c, fs) for c, fs in cube_faces(axes)])


def simplex_lattice(n: int) -> FaceLattice:
    """Boundary lattice of the n-simplex with n+1 facets."""
    faces: List[Tuple[int, Iterable[int]]] = []
    for size in range(1, n + 1):
        for chosen in combinations(range(n + 1), size):
            faces.append((n - size, set(chosen)))
    return FaceLattice(n, n + 1, faces)
