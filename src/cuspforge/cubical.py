"""Cube subcomplexes of [-1,1]^m.

A cell is a pair (support, signs): the coordinates in ``support`` run
over the whole interval, the rest are frozen at +1 or -1.  ``signs`` is
an int whose bit i gives the frozen value of coordinate i (1 for +1);
bits inside the support are kept at zero so keys are canonical.

The support runs are the only cell store.  The constructor groups the
cells by sorted support, ``from_supports`` builds each support's signs
as one array, and both hand them to one adoption routine: each support
becomes a run (support, index of its first cell, sorted sign array),
int64 up to ambient 62 and exact Python ints (dtype object) above, and
every input check runs once per run.  Cells of one dimension are ordered
by support, then signs.  The faces of a run on one axis all lie in the
run of the smaller support, so ``face_table(k)`` finds every face index
of the k-cells with one sorted search per (support, axis), and it is the
one routine that finds cube faces: the closure check, the cubical chain
complex (and through its rows the cup-product splittings), the preimage
merges and the vertex links all read it.  The tables, the links and the
per-cell view ``cells_of_dim`` are store views (``store.Store``), ignored
by ``==``, ``hash``, pickles and both writers, which read the runs.
``relabel`` permutes the ambient axes; it is the image
``cubical_isomorphism`` checks.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .errors import ValidationError, check_budget, json_document, json_int
from .simplicial import SimplicialComplex, build_simplicial
from .store import Store

Cell = Tuple[Tuple[int, ...], int]
Run = Tuple[Tuple[int, ...], int, np.ndarray]  # (support, first index, sorted signs)

# sign masks of ambient rank up to this many bits (plus one set bit) fit in int64
INT64_AMBIENT = 62

RZK1_MAGIC = b"RZK1"
RZK1_CELL = struct.Struct("<IQ")


class CubicalComplex(Store):
    """Immutable cube subcomplex, closed under the two face maps per axis."""

    __slots__ = ("ambient", "_runs", "_views")

    def __init__(self, ambient: int, cells: Iterable[Cell], budget: Optional[int] = None, validate: bool = True):
        given: Dict[Tuple[int, ...], List[int]] = {}
        for support, signs in cells:
            given.setdefault(tuple(support), []).append(signs)
        by_support: Dict[Tuple[int, ...], List[int]] = {}
        for support, signs in given.items():
            by_support.setdefault(tuple(sorted(support)), []).extend(signs)
        self._adopt(ambient, by_support, budget, validate)

    @classmethod
    def from_supports(cls, ambient: int, supports: Sequence[Tuple[int, ...]], budget: Optional[int] = None):
        """Every cell of [-1,1]^ambient on the given sorted supports, one run
        per support: the bits of 0, 1, ..., 2^r - 1 written onto its r free
        axes.  Their count meets the budget before any sign array is built."""
        check_budget(sum(1 << (ambient - len(sup)) for sup in supports), budget)
        self = cls.__new__(cls)
        self.ambient, runs = ambient, {}
        for sup in supports:
            free = [i for i in range(ambient) if i not in sup]
            patterns = np.arange(1 << len(free)).astype(self._sign_dtype)
            runs[sup] = np.zeros(len(patterns), dtype=self._sign_dtype)
            for j, axis in enumerate(free):
                runs[sup] |= (patterns >> j & 1) << axis
        self._adopt(ambient, runs, budget, True)
        return self

    def _adopt(self, ambient: int, by_support: Dict[Tuple[int, ...], Sequence[int]], budget, validate) -> None:
        """One run per sorted support, after its range, repeat and sign-bit
        checks; then the budget, duplicate and (if ``validate``) closure checks."""
        if ambient < 0:
            raise ValidationError("ambient rank must be nonnegative")
        self.ambient = ambient
        self._runs: Dict[int, List[Run]] = {}
        for sup in sorted(by_support, key=lambda s: (len(s), s)):
            if sup and (sup[0] < 0 or sup[-1] >= ambient):
                raise ValidationError(f"support {sup} outside ambient {ambient}")
            if len(set(sup)) != len(sup):
                raise ValidationError(f"repeated index in support {sup}")
            try:
                signs = np.sort(np.asarray(by_support[sup], dtype=self._sign_dtype))
            except OverflowError:  # beyond int64, so beyond an ambient rank of 62
                signs = None
            if signs is None or (signs >> ambient).any() or (signs & gf2.vector_from_indices(sup)).any():
                raise ValidationError("sign bits overlap the support or exceed ambient")
            runs = self._runs.setdefault(len(sup), [])
            runs.append((sup, runs[-1][1] + len(runs[-1][2]) if runs else 0, signs))
        check_budget(self.num_cells(), budget)
        for runs in self._runs.values():
            if any((signs[1:] == signs[:-1]).any() for _, _, signs in runs):
                raise ValidationError("duplicate cells")
        if validate:
            self._check_closure()

    def _check_closure(self) -> None:
        """Every face table builds; the first missing face is reported in
        cell order (dimension, cell, axis, then -1 before +1)."""
        for d in range(1, self.dim + 1):
            self.face_table(d)

    # -- face index structure ----------------------------------------------

    @property
    def _sign_dtype(self):
        return np.int64 if self.ambient <= INT64_AMBIENT else object

    def support_runs(self, k: int) -> List[Run]:
        """The k-cells grouped by support, in cell order: (support, index of
        the run's first cell, its signs as a sorted array)."""
        return self._runs.get(k, [])

    def face_table(self, k: int) -> np.ndarray:
        """Face indices of the k-cells (k >= 1) into ``cells_of_dim(k - 1)``,
        shape (n_k, 2k): column 2p holds the +1 face on the p-th axis of the
        support, column 2p + 1 the -1 face.  Refuses a missing face."""
        return self._view(("face_table", k), lambda: self._face_table(k))

    def _face_table(self, k: int) -> np.ndarray:
        lower = {sup: (start, signs) for sup, start, signs in self.support_runs(k - 1)}
        empty = (0, np.zeros(0, dtype=self._sign_dtype))
        table = np.empty((sum(len(signs) for _, _, signs in self.support_runs(k)), 2 * k), dtype=np.int64)
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
                raise ValidationError(f"missing {side} face of {(sup, int(signs[r]))} at {sup[p]}")
        return table

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._runs) if self._runs else -1

    def cells_of_dim(self, d: int) -> Tuple[Cell, ...]:
        """The d-cells in order, as (support, signs) pairs: a view of the
        runs, built on first use and cached."""
        return self._view(("cells", d), lambda: tuple(
            (sup, sg) for sup, _, signs in self.support_runs(d) for sg in signs.tolist()))

    def num_cells(self) -> int:
        return sum(self.cell_counts())

    def cell_counts(self) -> Tuple[int, ...]:
        return tuple(sum(len(signs) for _, _, signs in self.support_runs(d)) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.cell_counts()))

    def vertices(self) -> Tuple[Cell, ...]:
        return self.cells_of_dim(0)

    def support_complex(self) -> SimplicialComplex:
        """Simplicial complex of the nonempty supports appearing in cells."""
        supports = [sup for d in range(1, self.dim + 1) for sup, _, _ in self.support_runs(d)]
        if not supports:
            raise ValidationError("complex has no positive-dimensional cells")
        return build_simplicial(supports, self.ambient)

    def vertex_links(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        """Sign pattern of each vertex -> supports of the cells incident to it.

        The cells of a support run are incident to the vertices signs | t
        for every t inside the support, so one pass over the runs of every
        positive dimension gives all labelled links, pure or not.  Vertices
        with equal links share one frozenset; an isolated vertex maps to
        the empty set.
        """
        return dict(self._link_map())

    def _link_map(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        """The vertex links, computed on first use and cached."""
        return self._view("links", self._links)

    def _links(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        runs = [run for d in range(1, self.dim + 1) for run in self.support_runs(d)]
        vertices = self.support_runs(0)[0][2] if self.support_runs(0) else np.zeros(0, self._sign_dtype)
        corner_runs = [np.zeros(0, dtype=np.int64)]
        corner_vertices = [np.zeros(0, dtype=np.int64)]
        for r, (sup, _, signs) in enumerate(runs):
            t = np.array(list(gf2.submasks(gf2.vector_from_indices(sup))), dtype=signs.dtype)
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

    def link_of_vertex(self, vertex: Cell) -> SimplicialComplex:
        """Supports of the cells incident to a vertex, as a complex."""
        support, signs = vertex
        found = None if support else self._link_map().get(signs)
        if found is None:
            raise ValidationError(f"{vertex} is not a vertex of the complex")
        if not found:
            raise ValidationError("vertex is isolated; its link is empty")
        return build_simplicial(sorted(found), self.ambient)

    # -- symmetries ----------------------------------------------------------

    def relabel(self, perm: Dict[int, int]) -> "CubicalComplex":
        """Image under a permutation of the ambient coordinates."""
        if sorted(perm) != list(range(self.ambient)) or sorted(perm.values()) != list(range(self.ambient)):
            raise ValidationError("relabel needs a permutation of the ambient axes")
        new_cells = [(tuple(perm[i] for i in sup),
                      gf2.vector_from_indices(perm[i] for i in gf2.indices_of_vector(signs)))
                     for d in range(self.dim + 1) for sup, signs in self.cells_of_dim(d)]
        return CubicalComplex(self.ambient, new_cells, validate=False)

    # -- io --------------------------------------------------------------------

    def to_json(self) -> str:
        """Sorted keys, no spaces; one text prefix per run, joined over its signs."""
        runs = [(f"[[{','.join(map(str, sup))}],", signs) for rs in self._runs.values() for sup, _, signs in rs]
        cells = ",".join(p + ("]," + p).join(map(str, signs.tolist())) + "]" for p, signs in runs)
        return f'{{"ambient":{self.ambient},"cells":[{cells}],"type":"cubical"}}'

    @classmethod
    def from_json(cls, text: str, budget: Optional[int] = None) -> "CubicalComplex":
        data = json_document(text, "cubical")
        try:
            ambient = json_int(data["ambient"])
            cells = [(tuple(map(json_int, sup)), json_int(sg)) for sup, sg in data["cells"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed cubical document: {exc!r}") from exc
        return cls(ambient, cells, budget=budget)

    def to_rzk1(self) -> bytes:
        """Compact binary cell table: u32 support mask, u64 sign mask per cell."""
        if self.ambient > 32:
            raise ValidationError("RZK1 format caps the ambient rank at 32")
        out = [RZK1_MAGIC, struct.pack("<II", self.ambient, self.num_cells())]
        for runs in self._runs.values():
            for sup, _, signs in runs:
                table = np.empty(len(signs), dtype="<u4,<u8")  # one RZK1_CELL per row
                table["f0"], table["f1"] = gf2.vector_from_indices(sup), signs
                out.append(table.tobytes())
        return b"".join(out)

    @classmethod
    def from_rzk1(cls, blob: bytes, budget: Optional[int] = None) -> "CubicalComplex":
        """Read a cell table; its length must be exactly 12 + 12 * count."""
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
        return cls(ambient, cells, budget=budget)

    def __repr__(self) -> str:
        return f"CubicalComplex(ambient={self.ambient}, cells={self.num_cells()}, dim={self.dim})"

