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
by support, then signs, so keying a cell by (its run, its signs) gives
keys that ascend in cell order, and ``face_table(k)`` finds every face
index of the k-cells with one sorted search of those keys per dimension.
It is the one routine that finds cube faces or corners: the closure
check, the cubical chain complex (and through its rows the cup-product
splittings), the preimage merges and the vertex links all read it; a
k-cell's vertices are those of its two faces on its first axis.  The
tables, the links and the per-cell view ``cells_of_dim`` are store views
(``store.Store``), ignored by ``==``, ``hash``, pickles and both writers,
which read the runs.
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
        axes, one shift and mask per block of consecutive free axes.  Their
        count meets the budget before any sign array is built."""
        check_budget(sum(1 << (ambient - len(sup)) for sup in supports), budget)
        self = cls.__new__(cls)
        self.ambient, runs = ambient, {}
        for sup in supports:
            patterns = np.arange(1 << (ambient - len(sup))).astype(self._sign_dtype)
            runs[sup] = np.zeros(len(patterns), dtype=self._sign_dtype)
            # the free axes lo + 1 .. hi - 1 after j support axes read pattern bits lo + 1 - j on
            for j, (lo, hi) in enumerate(zip((-1,) + sup, sup + (ambient,))):
                if hi > lo + 1:
                    runs[sup] |= (patterns >> (lo + 1 - j) & (1 << (hi - lo - 1)) - 1) << (lo + 1)
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
        # One search of every face of every k-cell among the (k-1)-cells, keyed
        # (face run, signs): the keys of the (k-1)-cells ascend in cell order,
        # so a hit's position is the face index.  Column by column, the
        # targets ascend within each run.
        lower, upper = self.support_runs(k - 1), self.support_runs(k)
        run_of = {sup: r for r, (sup, _, _) in enumerate(lower)}
        # per run, columns 2p and 2p + 1: the face run on its p-th axis (-1 if
        # absent) and the bit that the +1 face sets; then the same per k-cell,
        # one row per column
        face_runs = np.array([run_of.get(sup[:p] + sup[p + 1:], -1) for sup, _, _ in upper
                              for p in range(k) for _ in "+-"], dtype=np.int64).reshape(-1, 2 * k)
        bits = np.array([b for sup, _, _ in upper for i in sup for b in (1 << i, 0)],
                        dtype=self._sign_dtype).reshape(-1, 2 * k)
        lengths = [len(signs) for _, _, signs in upper]
        # the kept table before the temporaries, so that it does not sit on top of them in the heap
        table = np.empty((sum(lengths), 2 * k), dtype=np.int64)
        signs = self._signs(k)
        wanted, targets = np.repeat(face_runs.T, lengths, axis=1), np.repeat(bits.T, lengths, axis=1)
        targets |= signs
        low_runs = np.repeat(np.arange(len(lower)), [len(low) for _, _, low in lower])
        low_signs = self._signs(k - 1)
        if self._sign_dtype is np.int64 and len(lower) << self.ambient < 1 << 63:
            keys = low_runs << self.ambient | low_signs
            wanted <<= self.ambient
            wanted |= targets
        else:  # the signs' ranks among every sign involved keep the keys int64
            values, rank = np.unique(np.concatenate((low_signs, targets.ravel())), return_inverse=True)
            keys = low_runs * len(values) + rank[:len(low_signs)]
            wanted *= len(values)
            wanted += rank[len(low_signs):].reshape(targets.shape)
        pos = np.searchsorted(keys, wanted.ravel()).reshape(wanted.shape)
        # past the last key, the last key is less than the target
        found = np.take(keys, pos, mode="clip") == wanted if len(keys) else np.zeros(pos.shape, dtype=bool)
        if not found.all():
            missing = ~found.T
            r = int(np.flatnonzero(missing.any(axis=1))[0])
            p = int(np.flatnonzero(missing[r])[0]) // 2
            sup = next(sup for sup, start, _ in reversed(upper) if start <= r)
            side = "-1" if missing[r, 2 * p + 1] else "+1"
            raise ValidationError(f"missing {side} face of {(sup, int(signs[r]))} at {sup[p]}")
        table[...] = pos.T
        return table

    def _signs(self, k: int) -> np.ndarray:
        """The signs of the k-cells in cell order, as one array."""
        return np.concatenate([signs for _, _, signs in self.support_runs(k)] + [np.zeros(0, self._sign_dtype)])

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

        The vertex indices of each k-cell are read off the face tables,
        those of its +1 and -1 faces on its first axis, and one stable sort
        groups every (vertex, run) incidence by vertex, so one pass gives
        all labelled links, pure or not.  A missing face is refused with the
        face table's message.  Vertices with equal links share one
        frozenset; an isolated vertex maps to the empty set.
        """
        return dict(self._link_map())

    def _link_map(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        """The vertex links, computed on first use and cached."""
        return self._view("links", self._links)

    def _links(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        vertices = self._signs(0)
        runs = [run for d in range(1, self.dim + 1) for run in self.support_runs(d)]
        # each k-cell's vertex indices: those of its two faces on its first axis
        corners = np.arange(len(vertices), dtype=np.min_scalar_type(max(len(vertices) - 1, 0)))[:, None]
        vertex, counts = [corners[:0, 0]], []
        for k in range(1, self.dim + 1):
            table = self.face_table(k)
            corners = np.concatenate((corners[table[:, 0]], corners[table[:, 1]]), axis=1)
            vertex.append(corners.ravel())
            counts += [len(signs) << k for _, _, signs in self.support_runs(k)]
        # run ids grouped by vertex, in run order within each vertex
        vertex = np.concatenate(vertex)
        run_ids = np.repeat(np.arange(len(runs), dtype=np.min_scalar_type(len(runs))), counts)
        run_ids = run_ids[np.argsort(vertex, kind="stable")]
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
        """Read a cell table; its length must be exactly 12 + 12 * count.  The
        records are read as one array and grouped by support mask."""
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
        # one run per support mask; a sign of 2^63 or more turns negative and exceeds ambient
        table = np.frombuffer(blob, dtype="<u4,<u8", offset=12, count=count)
        order = np.argsort(table["f0"], kind="stable")
        masks, firsts = np.unique(table["f0"][order], return_index=True)
        runs = np.split(table["f1"][order].astype(np.int64), firsts[1:])
        self = cls.__new__(cls)
        self._adopt(ambient, {tuple(gf2.indices_of_vector(m)): run for m, run in zip(masks.tolist(), runs)},
                    budget, True)
        return self

    def __repr__(self) -> str:
        return f"CubicalComplex(ambient={self.ambient}, cells={self.num_cells()}, dim={self.dim})"

