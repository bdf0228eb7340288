"""Abstract polytope boundaries as ranked face lattices.

A face of an n-polytope is encoded by the set of facets containing it
(facet-incidence encoding).  For simple polytopes this encoding is
faithful and the partial order is reverse inclusion of facet sets; the
encoding also carries the non-simple ideal vertices that appear before
Dehn filling.  Ranks run 0 (vertices) to n-1 (facets); the empty face
and the whole polytope stay implicit.

A lattice is stored once, as flat arrays: the rank of each face, the
offsets of its facet row and the facet indices, sorted within each row,
with faces in canonical order (by rank, then by sorted facet tuple) and
one ideal flag per face.  Producers that hold rows hand them over as
arrays (``FaceLattice.from_arrays``); the constructor converts (rank,
facet set) pairs to the same arrays, and both end in one check that runs
each test once over the arrays.  A rank block whose rows already ascend
is adopted in its order after one pass over neighbouring rows, which
also proves it free of repeats; only other blocks are sorted.  The JSON
document is written from the arrays by ``rows_text``, the one writer of
index rows as text, which also writes the census and simplicial
documents.  Readers take
the rows of one rank (``rows_of_rank``) or every face at once
(``arrays``, the arrays ``from_arrays`` takes); no face is looked up by
its facet set.  The per-face view ``faces`` is a store view
(``store.Store``), kept out of ``==``, ``hash`` and pickles.
``cube_face_rows``, the one enumeration of cube faces, and the other row
helpers live in ``simplicial``, below this module.

Duality runs one way: ``dualize`` builds the dual simplicial complex on
a simple lattice's vertex rows and looks up the facet rows of every rank
among its faces of the same width by exact row keys, with no per-face
view (``missing_dual_face``, also run by ``filling.duality_check``).
Meets and joins of face pairs are not checked here: that O(F^3)
check is a test oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, json_document, json_int
from .simplicial import SimplicialComplex, cube_face_rows, row_keys, rows_text, sorted_rows
from .store import Store

REAL = "real"
IDEAL = "ideal"

Face = Tuple[int, FrozenSet[int]]


class FaceLattice(Store):
    """Ranked face list of an abstract polytope boundary.

    The store is ``_ranks`` (per face), ``_ptr`` (row offsets), ``_facets``
    (the rows) and ``_ideal`` (per face, only at rank 0).  ``faces`` holds
    (rank, facet_set) pairs in order and ``marks`` tags each face as real
    or ideal; both are read off the store.  Lattices generated for n >= 7
    may be partial (vertices and facets only); ``is_complete``
    distinguishes.
    """

    __slots__ = ("rank", "num_facets", "_ranks", "_ptr", "_facets", "_ideal", "_views")

    def __init__(
        self,
        rank: int,
        num_facets: int,
        faces: Iterable[Tuple[int, Iterable[int]]],
        marks: Optional[Dict[FrozenSet[int], str]] = None,
    ):
        ranks: List[int] = []
        rows: List[Tuple[int, ...]] = []
        for k, fs in faces:
            ranks.append(k)
            rows.append(tuple(fs))
        ideal = None
        if marks:
            wanted = {frozenset(s) for s, flag in zip(marks, _ideal_flags(list(marks.values()))) if flag}
            if wanted:
                ideal = [k == 0 and frozenset(fs) in wanted for k, fs in zip(ranks, rows)]
        self._adopt(rank, num_facets, *_face_arrays(ranks, rows), ideal)

    @classmethod
    def from_arrays(cls, rank: int, num_facets: int, ranks: np.ndarray, ptr: np.ndarray,
                    facets: np.ndarray, ideal: Optional[np.ndarray] = None) -> "FaceLattice":
        """A lattice from arrays, faces in any order: face i has rank
        ``ranks[i]`` and the facets ``facets[ptr[i]:ptr[i + 1]]``, and it is
        an ideal vertex where ``ideal[i]`` (default none).  Checked and
        ordered as the constructor does, which ends here."""
        self = cls.__new__(cls)
        self._adopt(rank, num_facets, ranks, ptr, facets, ideal)
        return self

    def _adopt(self, rank, num_facets, ranks, ptr, facets, ideal) -> None:
        """Check, order and store the faces.  Each check runs once over the
        arrays, in this order: ranks, empty rows, facet range, duplicate
        facet sets, the facet singletons."""
        if rank < 1 or num_facets < 1:
            raise ValidationError("rank and facet count must be positive")
        ranks, ptr, facets = np.asarray(ranks), np.asarray(ptr, dtype=np.int64), np.asarray(facets)
        if len(ptr) != len(ranks) + 1 or ptr[0] != 0 or ptr[-1] != len(facets) or (np.diff(ptr) < 0).any():
            raise ValidationError("face arrays need one facet row per face")
        bad = np.flatnonzero((ranks < 0) | (ranks >= rank))
        if len(bad):
            raise ValidationError(f"face rank {ranks[bad[0]]} outside 0..{rank - 1}")
        widths = np.diff(ptr)
        if (widths == 0).any():
            raise ValidationError("face with empty facet set")
        if len(facets) and (facets.min() < 0 or facets.max() >= num_facets):
            raise ValidationError("facet index out of range")
        if num_facets > len(ranks):
            raise ValidationError("rank n-1 faces must be exactly the facet singletons")
        try:
            ranks, facets = ranks.astype(np.int64), facets.astype(np.int64)
        except OverflowError:
            raise ValidationError(f"face ranks of a rank-{rank} lattice exceed int64") from None
        ptr, facets = sorted_rows(ptr, facets)  # a repeated index collapses
        widths = np.diff(ptr)
        order = _canonical_order(ranks, ptr, facets)
        widths = widths[order]
        start = np.concatenate(([0], np.cumsum(widths)))
        self.rank, self.num_facets = rank, num_facets
        self._ranks = ranks[order]
        self._ptr = start
        self._facets = facets[np.repeat(ptr[:-1][order] - start[:-1], widths) + np.arange(start[-1])]
        top = self._ranks == rank - 1  # the last block, sorted by facet
        if not (np.count_nonzero(top) == num_facets and (widths[top] == 1).all()
                and np.array_equal(self._facets[start[:-1][top]], np.arange(num_facets))):
            raise ValidationError("rank n-1 faces must be exactly the facet singletons")
        self._ideal = np.zeros(len(order), dtype=bool) if ideal is None else np.asarray(ideal, dtype=bool)[order]
        self._ideal &= self._ranks == 0

    # -- views -------------------------------------------------------------

    def _sets(self, lo: int, hi: int) -> List[FrozenSet[int]]:
        """The facet sets of faces lo..hi-1."""
        flat = self._facets[self._ptr[lo]:self._ptr[hi]].tolist()
        bounds = (self._ptr[lo:hi + 1] - self._ptr[lo]).tolist()
        return [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    @property
    def faces(self) -> Tuple[Face, ...]:
        """(rank, facet set) per face, in order; built on first use."""
        return self._view("faces", lambda: tuple(zip(self._ranks.tolist(), self._sets(0, len(self._ranks)))))

    @property
    def marks(self) -> Tuple[str, ...]:
        return tuple(map((REAL, IDEAL).__getitem__, self._ideal.tolist()))

    # -- queries ---------------------------------------------------------

    def faces_of_rank(self, k: int) -> List[FrozenSet[int]]:
        lo, hi = np.searchsorted(self._ranks, [k, k + 1]).tolist()
        return self._sets(lo, hi)

    def rows_of_rank(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The faces of rank k as arrays (ptr, facets): face i's facets are
        ``facets[ptr[i]:ptr[i + 1]]``, ascending."""
        lo, hi = np.searchsorted(self._ranks, [k, k + 1])
        return self._ptr[lo:hi + 1] - self._ptr[lo], self._facets[self._ptr[lo]:self._ptr[hi]]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every face as the arrays ``from_arrays`` takes: (ranks, ptr,
        facets, ideal), in canonical order."""
        return self._ranks, self._ptr, self._facets, self._ideal

    def ideal_vertices(self) -> List[FrozenSet[int]]:
        flat, ptr = self._facets.tolist(), self._ptr.tolist()
        return [frozenset(flat[ptr[i]:ptr[i + 1]]) for i in np.flatnonzero(self._ideal).tolist()]

    def ranks_present(self) -> List[int]:
        return self._ranks[np.flatnonzero(np.diff(self._ranks, prepend=-1))].tolist()

    def is_complete(self) -> bool:
        return len(self.ranks_present()) == self.rank

    def f_vector(self) -> Tuple[int, ...]:
        if not self.is_complete():
            raise ValidationError("f-vector needs a complete lattice")
        return tuple(np.bincount(self._ranks, minlength=self.rank).tolist())

    def euler_characteristic(self) -> int:
        """Alternating sum over the boundary faces; 1 - (-1)^n for spheres."""
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_simple(self) -> bool:
        """True iff each rank-(n-k) face lies in exactly k facets."""
        return bool((np.diff(self._ptr) == self.rank - self._ranks).all())

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The compact sorted-key JSON document, written from the store by
        ``rows_text``, one rank block per call.  A face's row ends in the
        rest of its object, which depends only on its rank and mark, and
        the head of the next face's object, or after the last face the
        tail of the document."""
        tail = f'],"facets":{self.num_facets},"rank":{self.rank},"type":"face_lattice"}}'
        parts = ['{"faces":[{"facet_set":[']
        for k in self.ranks_present():
            lo, hi = np.searchsorted(self._ranks, [k, k + 1]).tolist()
            rest = [f'],"mark":"{m}","rank":{k}}}' for m in (REAL, IDEAL)]
            ends = self._ideal[lo:hi].astype(np.int64)
            end_texts = [r + ',{"facet_set":[' for r in rest]
            if hi == len(self._ranks):
                end_texts.append(rest[ends[-1]] + tail)
                ends[-1] = 2
            parts.append(rows_text(self._facets, self._ptr[lo:hi + 1], ends, end_texts))
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "FaceLattice":
        """The ranks and facet indices are type-checked once over the
        document; a failing one is read face by face to name the first
        offender."""
        data = json_document(text, "face_lattice")
        try:
            ranks = [item["rank"] for item in data["faces"]]
            rows = [item["facet_set"] for item in data["faces"]]
            labels = [item.get("mark", REAL) for item in data["faces"]]
            ints = set(map(type, ranks)) | set(map(type, chain.from_iterable(rows))) <= {int}
        except (KeyError, TypeError):
            ints = False
        try:
            rank, num_facets = json_int(data["rank"]), json_int(data["facets"])
            for item in [] if ints else data["faces"]:
                json_int(item["rank"])
                list(map(json_int, item["facet_set"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed face_lattice document: {exc!r}") from exc
        return cls.from_arrays(rank, num_facets, *_face_arrays(ranks, rows), _ideal_flags(labels))

    def __repr__(self) -> str:
        return f"FaceLattice(rank={self.rank}, facets={self.num_facets}, faces={len(self._ranks)})"


def _int_array(values: List[int]) -> np.ndarray:
    """Python ints as int64, or as objects where one does not fit, so that
    the range checks can name it."""
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(values, dtype=object)


def _face_arrays(ranks: List[int], rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, ...]:
    """Per-face ranks and facet lists as unchecked arrays: ranks, offsets
    and the flat facet indices."""
    ptr = np.concatenate(([0], np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)))))
    return _int_array(ranks), ptr, _int_array(list(chain.from_iterable(rows)))


def _ideal_flags(labels: Sequence) -> np.ndarray:
    """True for each ideal mark.  The marks are checked at once, as a set;
    the first other mark, hashable or not, is refused by name."""
    try:
        if set(labels) <= {REAL, IDEAL}:
            return np.array(labels, dtype=object) == IDEAL
    except TypeError:  # an unhashable mark
        pass
    raise ValidationError(f"unknown vertex mark {next(x for x in labels if x not in (REAL, IDEAL))!r}")


def _padded_rows(ptr: np.ndarray, facets: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """The facet rows of the faces ``sel``, padded with -1 to the widest."""
    width = ptr[sel + 1] - ptr[sel]
    cols = np.arange(width.max())
    if width.min() == len(cols):
        return facets[ptr[sel][:, None] + cols]
    inside = cols < width[:, None]
    return np.where(inside, facets[np.where(inside, ptr[sel][:, None] + cols, 0)], -1)


def _refuse_repeats(rows: np.ndarray) -> None:
    """Refuse equal neighbours among sorted rows."""
    same = (rows[1:] == rows[:-1]).all(axis=1)
    if same.any():
        row = rows[int(np.argmax(same))]
        raise ValidationError(f"duplicate facet set {row[row >= 0].tolist()}")


def _ascending(rows: np.ndarray) -> bool:
    """True iff each row is lexicographically above the one before it:
    at the first column where two neighbours differ, the later is larger."""
    differ = rows[1:] != rows[:-1]
    first = np.argmax(differ, axis=1)[:, None]
    above = np.take_along_axis(rows[1:], first, 1) > np.take_along_axis(rows[:-1], first, 1)
    return bool((np.take_along_axis(differ, first, 1) & above).all())


def _canonical_order(ranks: np.ndarray, ptr: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """The face order by rank, then by sorted facet tuple (padding with -1
    sorts a prefix first).  A rank block whose rows already ascend, each
    above the one before it, is in order and holds no repeat; any other is
    sorted.  A facet set listed twice is refused: within a rank it sorts
    next to itself, and across ranks it can only occur at a width that
    several ranks share, whose rows are sorted once more."""
    widths = np.diff(ptr)
    by_rank = np.argsort(ranks, kind="stable")
    order, ranks_of_width = [], np.zeros(widths.max() + 1, dtype=np.int64)
    for sel in np.split(by_rank, np.flatnonzero(np.diff(ranks[by_rank])) + 1):
        rows = _padded_rows(ptr, facets, sel)
        if not _ascending(rows):
            by_row = np.lexsort(rows.T[::-1])
            _refuse_repeats(rows[by_row])
            sel = sel[by_row]
        order.append(sel)
        ranks_of_width += np.bincount(widths[sel], minlength=len(ranks_of_width)) > 0
    for w in np.flatnonzero(ranks_of_width > 1).tolist():
        rows = facets[ptr[:-1][widths == w][:, None] + np.arange(w)]
        _refuse_repeats(rows[np.lexsort(rows.T[::-1])])
    return np.concatenate(order)


# -- duality ---------------------------------------------------------------


def dualize(P: FaceLattice) -> SimplicialComplex:
    """Dual simplicial complex of a simple polytope boundary.

    Facets of P become vertices; the facet row of each P-vertex becomes a
    top simplex.  Requires P simple (a rank-k face in exactly n - k
    facets); a facet row that is no face of the dual is refused.
    """
    if not P.is_simple():
        raise ValidationError("dualize needs a simple lattice")
    K = SimplicialComplex.from_arrays(P.num_facets, *P.rows_of_rank(0))
    if (missing := missing_dual_face(P, K)) is not None:
        raise ValidationError(f"face {missing} has no dual simplex")
    return K


def missing_dual_face(P: FaceLattice, K: SimplicialComplex) -> Optional[List[int]]:
    """The first facet row of the simple lattice P, by rank, that is no
    face of K (which has faces of every width P's rows have), or None."""
    for k in P.ranks_present():
        rows = P.rows_of_rank(k)[1].reshape(-1, P.rank - k)
        have, want = row_keys(K.rows_of_dim(P.rank - k - 1), rows)
        missing = np.flatnonzero(have[np.searchsorted(have, want).clip(max=len(have) - 1)] != want)
        if len(missing):
            return rows[missing[0]].tolist()
    return None


# -- stock lattices ----------------------------------------------------------


def polygon_lattice(k: int) -> FaceLattice:
    """Boundary lattice of a k-gon; facet i is the edge from vertex i-1 to i."""
    if k < 3:
        raise ValidationError("polygon needs at least 3 edges")
    faces: List[Tuple[int, Iterable[int]]] = [(1, {i}) for i in range(k)]
    faces += [(0, {(i - 1) % k, i}) for i in range(k)]
    return FaceLattice(2, k, faces)


def cube_lattice(n: int) -> FaceLattice:
    """Boundary lattice of the n-cube; facet 2i+b is the wall x_i = (-1)^(1-b)."""
    if n < 1:
        raise ValidationError("cube dimension must be positive")
    rows = [cube_face_rows(np.arange(2 * n).reshape(1, n, 2), c)[0] for c in range(1, n + 1)]
    widths = np.repeat(np.arange(1, n + 1), [len(r) for r in rows])
    return FaceLattice.from_arrays(n, 2 * n, n - widths, np.concatenate(([0], np.cumsum(widths))),
                                   np.concatenate([r.ravel() for r in rows]))
