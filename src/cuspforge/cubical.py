"""Cube subcomplexes of [-1,1]^m.

A cell is a pair (support, signs): the coordinates in ``support`` run
over the whole interval, the rest are frozen at +1 or -1.  ``signs`` is
an int whose bit i gives the frozen value of coordinate i (1 for +1);
bits inside the support are kept at zero so keys are canonical.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from . import gf2
from .errors import ValidationError, check_budget, json_document, json_int
from .simplicial import SimplicialComplex, build_simplicial

Cell = Tuple[Tuple[int, ...], int]

RZK1_MAGIC = b"RZK1"
RZK1_CELL = struct.Struct("<IQ")


class CubicalComplex:
    """Immutable cube subcomplex, closed under the two face maps per axis."""

    __slots__ = ("ambient", "cells", "_cell_set")

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
        if validate:
            self._check_closure()

    def _check_closure(self) -> None:
        for d, cs in self.cells.items():
            if d == 0:
                continue
            for support, signs in cs:
                for i in support:
                    rest = tuple(x for x in support if x != i)
                    if (rest, signs) not in self._cell_set:
                        raise ValidationError(f"missing -1 face of {(support, signs)} at {i}")
                    if (rest, signs | (1 << i)) not in self._cell_set:
                        raise ValidationError(f"missing +1 face of {(support, signs)} at {i}")

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.cells) if self.cells else -1

    def cells_of_dim(self, d: int) -> Tuple[Cell, ...]:
        return self.cells.get(d, ())

    def cell_set(self) -> FrozenSet[Cell]:
        return self._cell_set

    def num_cells(self) -> int:
        return len(self._cell_set)

    def cell_counts(self) -> Tuple[int, ...]:
        return tuple(len(self.cells_of_dim(d)) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.cell_counts()))

    def vertices(self) -> Tuple[Cell, ...]:
        return self.cells_of_dim(0)

    def support_complex(self) -> SimplicialComplex:
        """Simplicial complex of the nonempty supports appearing in cells."""
        supports = {sup for d in range(1, self.dim + 1) for sup, _ in self.cells_of_dim(d)}
        if not supports:
            raise ValidationError("complex has no positive-dimensional cells")
        return build_simplicial(sorted(supports), self.ambient)

    def vertex_links(self) -> Dict[int, FrozenSet[Tuple[int, ...]]]:
        """Sign pattern of each vertex -> supports of the cells incident to it.

        Cell (support, signs) is incident to the vertices signs | t for
        every t inside the support, so one pass over the cells of every
        positive dimension gives all labelled links, pure or not.  An
        isolated vertex maps to the empty set.
        """
        found: Dict[int, Set[Tuple[int, ...]]] = {signs: set() for _, signs in self.vertices()}
        for d in range(1, self.dim + 1):
            for sup, signs in self.cells_of_dim(d):
                for t in gf2.submasks(gf2.vector_from_indices(sup)):
                    found[signs | t].add(sup)
        return {v: frozenset(sups) for v, sups in found.items()}

    def link_of_vertex(self, vertex: Cell) -> SimplicialComplex:
        """Supports of the cells incident to a vertex, as a complex."""
        support, signs = vertex
        if support or vertex not in self._cell_set:
            raise ValidationError(f"{vertex} is not a vertex of the complex")
        found = self.vertex_links()[signs]
        if not found:
            raise ValidationError("vertex is isolated; its link is empty")
        return build_simplicial(sorted(found), self.ambient)

    # -- symmetries ----------------------------------------------------------

    def sign_flip(self, axis: int) -> "CubicalComplex":
        """Image under the reflection of coordinate ``axis``."""
        if not (0 <= axis < self.ambient):
            raise ValidationError("axis out of range")
        bit = 1 << axis
        new_cells = []
        for cs in self.cells.values():
            for support, signs in cs:
                if axis in support:
                    new_cells.append((support, signs))
                else:
                    new_cells.append((support, signs ^ bit))
        return CubicalComplex(self.ambient, new_cells, validate=False)

    def relabel(self, perm: Dict[int, int]) -> "CubicalComplex":
        """Image under a permutation of the ambient coordinates."""
        if sorted(perm) != list(range(self.ambient)) or sorted(perm.values()) != list(range(self.ambient)):
            raise ValidationError("relabel needs a permutation of the ambient axes")
        new_cells = []
        for cs in self.cells.values():
            for support, signs in cs:
                sup = tuple(sorted(perm[i] for i in support))
                sg = gf2.vector_from_indices(perm[i] for i in gf2.indices_of_vector(signs))
                new_cells.append((sup, sg))
        return CubicalComplex(self.ambient, new_cells, validate=False)

    # -- io --------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "type": "cubical",
            "ambient": self.ambient,
            "cells": [[list(sup), sg] for d in range(self.dim + 1)
                      for sup, sg in self.cells_of_dim(d)],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

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
        for d in range(self.dim + 1):
            for sup, sg in self.cells_of_dim(d):
                out.append(RZK1_CELL.pack(gf2.vector_from_indices(sup), sg))
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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CubicalComplex)
            and self.ambient == other.ambient
            and self._cell_set == other._cell_set
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self._cell_set))

    def __repr__(self) -> str:
        return f"CubicalComplex(ambient={self.ambient}, cells={self.num_cells()}, dim={self.dim})"

