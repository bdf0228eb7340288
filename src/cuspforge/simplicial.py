"""Finite abstract simplicial complexes.

A complex is a store (``store.Store``) of its inclusion-maximal faces
(facets) over vertices 0..vertex_count-1; all lower faces are a view,
generated by downward closure on first read and kept in sorted order so
that derived data is reproducible byte for byte.
Connectedness and closedness are read off the chain complex
(``chains.chain_complex_of``), as b_0 and the ridge count of d_top.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError, json_document, json_int
from .store import Store


class SimplicialComplex(Store):
    """Immutable abstract simplicial complex.

    Faces of dimension k are exposed as sorted tuples of k+1 vertex
    indices.  The empty face is implicit and never listed.
    """

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

    # -- basic queries -------------------------------------------------

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

    def all_faces(self) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []
        for k in range(self.dim + 1):
            out.extend(self.faces_of_dim(k))
        return out

    def has_face(self, face: Iterable[int]) -> bool:
        return tuple(sorted(face)) in self._face_set()

    def vertices(self) -> Tuple[int, ...]:
        return tuple(v for (v,) in self.faces_of_dim(0))

    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(self.faces_of_dim(k)) for k in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        return len(set(map(len, self.facets))) == 1

    # -- derived complexes ---------------------------------------------

    def link_of_vertex(self, v: int) -> "SimplicialComplex":
        """Link of v: faces tau with v not in tau and tau + {v} a face."""
        if (v,) not in self._face_set():
            raise ValidationError(f"vertex {v} not in complex")
        candidates = [tuple(x for x in f if x != v) for f in self.facets if v in f]
        candidates = [c for c in candidates if c]
        if not candidates:
            raise ValidationError(f"vertex {v} is isolated; its link is empty")
        return SimplicialComplex(self.vertex_count, candidates)

    def full_subcomplex(self, subset: Iterable[int]) -> Optional["SimplicialComplex"]:
        """Restriction to a vertex subset; None if no face survives."""
        sub = set(subset)
        faces = []
        for f in self.facets:
            g = tuple(x for x in f if x in sub)
            if g:
                faces.append(g)
        if not faces:
            return None
        return SimplicialComplex(self.vertex_count, faces)

    # -- io ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"SimplicialComplex(vertices={self.vertex_count}, facets={len(self.facets)}, dim={self.dim})"

    def to_json(self) -> str:
        return json.dumps(
            {"type": "simplicial", "vertices": self.vertex_count,
             "facets": [list(f) for f in self.facets]},
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        data = json_document(text, "simplicial")
        try:
            vertex_count = json_int(data["vertices"])
            facets = [tuple(map(json_int, f)) for f in data["facets"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed simplicial document: {exc!r}") from exc
        return cls(vertex_count, facets)


def build_simplicial(facet_list: Sequence[Iterable[int]], vertex_count: Optional[int] = None) -> SimplicialComplex:
    """Build a complex from facets, inferring the vertex count if omitted."""
    if not facet_list:
        raise ValidationError("facet list is empty")
    if vertex_count is None:
        vertex_count = 1 + max((max(f) for f in facet_list if f), default=-1)
    return SimplicialComplex(vertex_count, facet_list)


# -- standard examples used throughout the test-bed ---------------------

def boundary_of_simplex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on n+1 vertices (an (n-1)-sphere)."""
    verts = range(n + 1)
    return build_simplicial(list(combinations(verts, n)), n + 1)


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope on vertices 0..2d-1.

    Vertex 2i and 2i+1 are the antipodal pair along axis i; facets pick
    one vertex from each pair.  d=3 is the octahedron.
    """
    facets = []
    for signs in range(1 << d):
        facets.append(tuple(2 * i + ((signs >> i) & 1) for i in range(d)))
    return build_simplicial(facets, 2 * d)


def octahedron_boundary() -> SimplicialComplex:
    return cross_polytope_boundary(3)


def cycle_complex(k: int) -> SimplicialComplex:
    """Boundary of a k-gon: the cycle 0-1-...-(k-1)-0."""
    if k < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return build_simplicial([(i, (i + 1) % k) for i in range(k)], k)


def two_points() -> SimplicialComplex:
    """S^0: two isolated vertices."""
    return build_simplicial([(0,), (1,)], 2)
