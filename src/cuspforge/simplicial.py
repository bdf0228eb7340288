"""Finite abstract simplicial complexes, stored as facet rows.

A complex is a store (``store.Store``) of its inclusion-maximal faces
(facets) over the vertices 0..vertex_count-1, as int64 rows in the layout
of ``lattice.FaceLattice``: row offsets ``_ptr`` and vertices ``_flat``,
each row ascending, the rows in tuple order.  The one constructor
(``__init__``, or ``from_arrays`` for rows in arrays) refuses an entry
that is not an int, sorts each row, collapses a repeated vertex, and runs
one pass (``_closure``) down the widths: the faces of width w are the
distinct rows, by exact keys (``row_keys``), of the given rows of width w
and of the faces of width w + 1 less one column, and a given row is a
facet exactly when it is not among the latter.  The closure is a view;
every query, the chain complex and the JSON writer read these rows.

The row helpers that ``lattice`` shares live here, below it.
Connectedness and closedness are read off the chain complex
(``chains.chain_complex_of``), as b_0 and the ridge count of d_top.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, json_document, json_int
from .store import Store


class SimplicialComplex(Store):
    """Immutable abstract simplicial complex.

    Faces of dimension k are exposed as sorted tuples of k+1 vertex
    indices (``faces_of_dim``) or as the rows of an array
    (``rows_of_dim``); ``facets`` is the tuple view of the facet rows.
    The empty face is implicit and never listed.
    """

    __slots__ = ("vertex_count", "_ptr", "_flat", "_views")

    def __init__(self, vertex_count: int, facets: Sequence[Iterable[int]]):
        self._adopt(vertex_count, *_facet_arrays(facets))

    @classmethod
    def from_arrays(cls, vertex_count: int, ptr: np.ndarray, flat: np.ndarray) -> "SimplicialComplex":
        """A complex from facet rows in arrays, in any order: facet i is
        ``flat[ptr[i]:ptr[i + 1]]``.  Checked and cleaned as the constructor
        does, which ends here."""
        self = cls.__new__(cls)
        self._adopt(vertex_count, np.asarray(ptr, dtype=np.int64), np.asarray(flat))
        return self

    def _adopt(self, vertex_count, ptr: np.ndarray, flat: np.ndarray) -> None:
        vertex_count = int(_vertex_indices([vertex_count], "vertex_count")[0])
        if vertex_count < 0:
            raise ValidationError("vertex_count must be nonnegative")
        if (flat.dtype.kind not in "iu" or len(ptr) < 1 or ptr[0] != 0 or ptr[-1] != len(flat)
                or (np.diff(ptr) < 0).any()):
            raise ValidationError("facet arrays need integer vertices, one row per facet")
        if len(ptr) == 1:
            raise ValidationError("facet list is empty")
        if not np.diff(ptr).all():
            raise ValidationError("empty facet")
        flat, owner = flat.astype(np.int64), _owners(ptr)
        bad = np.flatnonzero((flat < 0) | (flat >= vertex_count))
        if len(bad):
            facet = tuple(np.unique(flat[owner == owner[bad[0]]]).tolist())
            raise ValidationError(f"facet {facet} out of range for {vertex_count} vertices")
        faces, facets = _closure(*sorted_rows(ptr, flat))
        # the facets in tuple order: padding with -1 sorts a prefix first
        rows = np.concatenate([np.concatenate((f, np.full((len(f), len(faces) - f.shape[1]), -1)), axis=1)
                               for f in facets])
        rows = rows[np.lexsort(rows.T[::-1])]
        self.vertex_count, self._flat = vertex_count, rows[rows >= 0]
        self._ptr = np.concatenate(([0], np.cumsum(np.count_nonzero(rows >= 0, axis=1)))).astype(np.int64)
        self._views["faces"] = faces

    # -- basic queries -------------------------------------------------

    def _faces(self) -> List[np.ndarray]:
        """The faces of each dimension as rows, ascending: the closure."""
        return self._view("faces", lambda: _closure(self._ptr, self._flat)[0])

    @property
    def facets(self) -> Tuple[Tuple[int, ...], ...]:
        def build():
            flat, bounds = self._flat.tolist(), self._ptr.tolist()
            return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._view("facets", build)

    @property
    def dim(self) -> int:
        return int(np.diff(self._ptr).max()) - 1

    def rows_of_dim(self, k: int) -> np.ndarray:
        """The k-faces as the rows of an (f_k, k + 1) array, ascending."""
        faces = self._faces()
        return faces[k] if 0 <= k < len(faces) else np.zeros((0, max(k + 1, 0)), dtype=np.int64)

    def faces_of_dim(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        return self._view(("faces_of_dim", k), lambda: tuple(map(tuple, self.rows_of_dim(k).tolist())))

    def all_faces(self) -> List[Tuple[int, ...]]:
        return [face for k in range(self.dim + 1) for face in self.faces_of_dim(k)]

    def vertices(self) -> Tuple[int, ...]:
        return tuple(self.rows_of_dim(0).ravel().tolist())

    def f_vector(self) -> Tuple[int, ...]:
        return tuple(map(len, self._faces()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        return bool(np.ptp(np.diff(self._ptr)) == 0)

    # -- derived complexes ---------------------------------------------

    def link_of_vertex(self, v: int) -> "SimplicialComplex":
        """Link of v: faces tau with v not in tau and tau + {v} a face, the
        facets through v without it."""
        v = int(_vertex_indices([v])[0])
        owner = _owners(self._ptr)
        keep = np.isin(owner, owner[self._flat == v])  # the entries of the facets through v
        if not keep.any():
            raise ValidationError(f"vertex {v} not in complex")
        keep &= self._flat != v
        if not keep.any():
            raise ValidationError(f"vertex {v} is isolated; its link is empty")
        return self._restricted(keep)

    def full_subcomplex(self, subset: Iterable[int]) -> Optional["SimplicialComplex"]:
        """Restriction to a vertex subset; None if no face survives."""
        keep = np.isin(self._flat, _vertex_indices(list(subset)))
        if not keep.any():
            return None
        return self._restricted(keep)

    def _restricted(self, keep: np.ndarray) -> "SimplicialComplex":
        """The complex on the entries ``keep`` of the facet rows; a row that
        keeps none is dropped."""
        widths = np.bincount(_owners(self._ptr)[keep], minlength=len(self._ptr) - 1)
        widths = widths[widths > 0]
        return SimplicialComplex.from_arrays(self.vertex_count, np.concatenate(([0], np.cumsum(widths))),
                                             self._flat[keep])

    # -- io ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"SimplicialComplex(vertices={self.vertex_count}, facets={len(self._ptr) - 1}, dim={self.dim})"

    def to_json(self) -> str:
        """The compact sorted-key JSON document, its facet rows written by
        ``rows_text``."""
        ends = np.zeros(len(self._ptr) - 1, dtype=np.int64)
        ends[-1] = 1
        tail = f']],"type":"simplicial","vertices":{self.vertex_count}}}'
        return '{"facets":[[' + rows_text(self._flat, self._ptr, ends, ["],[", tail])

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        data = json_document(text, "simplicial")
        try:
            vertex_count = json_int(data["vertices"])
            facets = [tuple(map(json_int, f)) for f in data["facets"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed simplicial document: {exc!r}") from exc
        return cls(vertex_count, facets)


def _vertex_indices(values: list, what: str = "vertex index") -> np.ndarray:
    """Vertex indices as int64.  Each must be an int or a numpy integer
    (not a bool) within int64."""
    for kind in set(map(type, values)):
        if not (kind is int or issubclass(kind, np.integer)):
            raise ValidationError(f"{what} {next(v for v in values if type(v) is kind)!r} is not an integer")
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        raise ValidationError(f"{what} {next(v for v in values if not -1 << 63 <= v < 1 << 63)} "
                              "does not fit int64") from None


def _facet_arrays(facets: Sequence[Iterable[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """A sequence of facets as the row offsets and the checked vertices."""
    try:
        rows = [tuple(f) for f in facets]
    except TypeError as exc:
        raise ValidationError(f"facets must be sequences of vertex indices: {exc}") from None
    ptr = np.concatenate(([0], np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)))))
    return ptr, _vertex_indices(list(chain.from_iterable(rows)))


def _closure(ptr: np.ndarray, flat: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The faces of each width, distinct and ascending, and the facets
    among them, of the ascending rows (ptr, flat), in one pass down the
    widths: the faces of width w are the given rows of width w and the
    faces of width w + 1 less one column, and a given row is a facet
    exactly when it is not among the latter."""
    widths = np.diff(ptr)
    faces: List[np.ndarray] = []
    facets: List[np.ndarray] = []
    dropped = np.zeros((0, int(widths.max())), dtype=np.int64)
    for w in range(dropped.shape[1], 0, -1):
        given = widths == w
        rows = np.concatenate((dropped, flat[np.repeat(given, widths)].reshape(-1, w))) if given.any() else dropped
        keys = row_keys(rows)[0]
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        faces.append(rows[order[starts]])
        # a facet: a given row that no dropped row equals
        facets.append(faces[-1][np.minimum.reduceat(order, starts) >= len(dropped)])
        del rows, keys, order, dropped  # before the next width's rows are made
        dropped = drop_one(faces[-1]).reshape(len(starts) * w, w - 1)
    return faces[::-1], facets[::-1]


def build_simplicial(facet_list: Sequence[Iterable[int]], vertex_count: Optional[int] = None) -> SimplicialComplex:
    """Build a complex from facets, inferring the vertex count if omitted."""
    ptr, flat = _facet_arrays(facet_list)
    if vertex_count is None:
        vertex_count = 1 + int(flat.max(initial=-1))
    return SimplicialComplex.from_arrays(vertex_count, ptr, flat)


# -- row helpers, shared with lattice -------------------------------------


def sorted_rows(ptr: np.ndarray, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows (ptr, flat) each sorted, a repeated entry collapsed; rows
    that already ascend strictly are returned as they are."""
    owner = _owners(ptr)
    fresh = np.ones(len(flat), dtype=bool)
    fresh[1:] = owner[1:] != owner[:-1]
    if (fresh[1:] | (flat[1:] > flat[:-1])).all():
        return ptr, flat
    flat = flat[np.lexsort((flat, owner))]
    fresh[1:] |= flat[1:] != flat[:-1]
    return np.concatenate(([0], np.cumsum(np.bincount(owner[fresh], minlength=len(ptr) - 1)))), flat[fresh]


def row_keys(*blocks: np.ndarray) -> List[np.ndarray]:
    """Exact keys of the rows of equal-width blocks of non-negative ints:
    two rows share a key iff they are equal, and keys ascend as the rows do
    in tuple order.  A row is read as digits in base (largest entry + 1)
    while base^width < 2^64, packed into uint64 by ``np.dot`` (``@`` would
    load an integer loop just for this); past that, its key is its rank
    among the distinct rows of all the blocks (``np.unique``)."""
    width = blocks[0].shape[1]
    base = 1 + max((int(rows.max()) for rows in blocks if rows.size), default=0)
    if base ** width < 1 << 64:
        weights = np.array([base ** p for p in range(width - 1, -1, -1)], dtype=np.uint64)
        return [np.dot(rows.astype(np.int64, copy=False).view(np.uint64), weights) for rows in blocks]
    ranks = np.unique(np.concatenate(blocks), axis=0, return_inverse=True)[1].reshape(-1)
    return np.split(ranks, np.cumsum([len(rows) for rows in blocks])[:-1])


def _owners(ptr: np.ndarray) -> np.ndarray:
    """The row of each entry of the rows ``ptr`` delimits."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def drop_one(rows: np.ndarray) -> np.ndarray:
    """Each row without each of its columns in turn: entry [i, j] of the
    (m, w, w - 1) result is row i without column j."""
    w = rows.shape[1]
    return np.take(rows, np.nonzero(~np.eye(w, dtype=bool))[1].reshape(w, w - 1), axis=1)


def rows_text(values: np.ndarray, ptr: np.ndarray, ends: np.ndarray, end_texts: Sequence[str]) -> str:
    """Rows of non-negative integers as text: row i, ``values[ptr[i]:ptr[i + 1]]``
    (non-empty), written as its indices joined by commas and then
    ``end_texts[ends[i]]``.  Each number up to the largest (or each distinct
    number, where the largest is above the count of entries) has one slot
    of fixed width, its digits right-aligned behind zero bytes and then a
    comma; the rows' slots are gathered, each row's last comma becomes the
    marker byte of its end text, the zero bytes are dropped and each
    marker is replaced by its text.  Markers are the bytes 128 and up, so
    they never occur in digits, commas or the ASCII end texts."""
    if len(end_texts) > 128:
        raise ValueError("rows_text takes at most 128 end texts")
    lo, hi = int(ptr[0]), int(ptr[-1])
    values = values[lo:hi]
    if int(values.max()) < hi - lo:
        numbers = np.arange(int(values.max()) + 1)
    else:
        numbers, values = np.unique(values, return_inverse=True)
    width = len(str(int(numbers[-1])))
    slots = np.full((len(numbers), width + 1), ord(","), dtype=np.uint8)
    for place in range(width):
        scale = 10 ** (width - 1 - place)
        slots[:, place] = (numbers // scale % 10 + ord("0")) * ((numbers >= scale) | (scale == 1))
    text = slots[values].ravel()
    text[(ptr[1:] - lo) * (width + 1) - 1] = 128 + ends
    data = text[text != 0].tobytes()
    for marker, end in enumerate(end_texts):
        data = data.replace(bytes((128 + marker,)), end.encode("ascii"))
    return data.decode("ascii")


def cube_face_rows(pairs: np.ndarray, k: int) -> np.ndarray:
    """The codimension-k faces of the cubes whose axes (opposite facet
    pairs) are the rows of ``pairs``, (m, a, 2): k axes in ``combinations``
    order, one side of each in ``product`` order, as the chosen entries,
    shape (m, C(a, k) 2^k, k)."""
    a = pairs.shape[1]
    axes = np.array(list(combinations(range(a), k)), dtype=np.intp).reshape(comb(a, k), k)
    sides = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return pairs[:, np.repeat(axes, 1 << k, axis=0), np.tile(sides, (len(axes), 1))]


# -- standard examples used throughout the test-bed ---------------------

def boundary_of_simplex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on n+1 vertices (an (n-1)-sphere)."""
    verts = range(n + 1)
    return build_simplicial(list(combinations(verts, n)), n + 1)


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope on vertices 0..2d-1.

    Vertex 2i and 2i+1 are the antipodal pair along axis i; facets pick
    one vertex from each pair, the vertices of a d-cube on these axes.
    d=3 is the octahedron.
    """
    if d < 1:
        raise ValidationError("cross-polytope dimension must be positive")
    facets = cube_face_rows(np.arange(2 * d).reshape(1, d, 2), d)[0]
    return SimplicialComplex.from_arrays(2 * d, np.arange(len(facets) + 1) * d, facets.ravel())


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
