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

from .errors import ValidationError, check_budget
from .simplicial import SimplicialComplex, build_simplicial

Cell = Tuple[Tuple[int, ...], int]

RZK1_MAGIC = b"RZK1"


def support_mask(support: Iterable[int]) -> int:
    mask = 0
    for i in support:
        mask |= 1 << i
    return mask


class CubicalComplex:
    """Immutable cube subcomplex, closed under the two face maps per axis."""

    __slots__ = ("ambient", "cells", "_cell_set")

    def __init__(self, ambient: int, cells: Iterable[Cell], budget: Optional[int] = None, validate: bool = True):
        if ambient < 0:
            raise ValidationError("ambient rank must be nonnegative")
        full = (1 << ambient) - 1
        by_dim: Dict[int, Set[Cell]] = {}
        count = 0
        for support, signs in cells:
            sup = tuple(sorted(support))
            if sup and (sup[0] < 0 or sup[-1] >= ambient):
                raise ValidationError(f"support {sup} outside ambient {ambient}")
            if len(set(sup)) != len(sup):
                raise ValidationError(f"repeated index in support {sup}")
            mask = support_mask(sup)
            if signs & ~full or signs & mask:
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
        supports = {sup for sup in
                    (c[0] for cs in self.cells.values() for c in cs) if sup}
        maximal = [s for s in supports if not any(set(s) < set(t) for t in supports)]
        if not maximal:
            raise ValidationError("complex has no positive-dimensional cells")
        return build_simplicial(sorted(maximal), self.ambient)

    def link_of_vertex(self, vertex: Cell) -> SimplicialComplex:
        """Supports of the cells incident to a vertex, as a complex."""
        support, signs = vertex
        if support or vertex not in self._cell_set:
            raise ValidationError(f"{vertex} is not a vertex of the complex")
        found = []
        for d in range(1, self.dim + 1):
            for sup, sg in self.cells_of_dim(d):
                if signs & ~support_mask(sup) == sg:
                    found.append(sup)
        if not found:
            raise ValidationError("vertex is isolated; its link is empty")
        maximal = [s for s in found if not any(set(s) < set(t) for t in found)]
        return build_simplicial(sorted(maximal), self.ambient)

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
                sg = 0
                for i in range(self.ambient):
                    if i not in support and (signs >> i) & 1:
                        sg |= 1 << perm[i]
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
        data = json.loads(text)
        if data.get("type") != "cubical":
            raise ValidationError("not a cubical-complex document")
        cells = [(tuple(sup), int(sg)) for sup, sg in data["cells"]]
        return cls(int(data["ambient"]), cells, budget=budget)

    def to_rzk1(self) -> bytes:
        """Compact binary cell table: u32 support mask, u64 sign mask per cell."""
        if self.ambient > 32:
            raise ValidationError("RZK1 format caps the ambient rank at 32")
        out = [RZK1_MAGIC, struct.pack("<II", self.ambient, self.num_cells())]
        for d in range(self.dim + 1):
            for sup, sg in self.cells_of_dim(d):
                out.append(struct.pack("<IQ", support_mask(sup), sg))
        return b"".join(out)

    @classmethod
    def from_rzk1(cls, blob: bytes, budget: Optional[int] = None) -> "CubicalComplex":
        if blob[:4] != RZK1_MAGIC:
            raise ValidationError("bad magic; not an RZK1 cell table")
        ambient, count = struct.unpack_from("<II", blob, 4)
        cells = []
        offset = 12
        for _ in range(count):
            mask, sg = struct.unpack_from("<IQ", blob, offset)
            offset += 12
            support = tuple(i for i in range(ambient) if (mask >> i) & 1)
            cells.append((support, sg))
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


def link_of_vertex(X, v) -> SimplicialComplex:
    """Vertex link, for simplicial or cubical input.

    Simplicial: the usual link.  Cubical: the complex of supports of the
    cells incident to the vertex (pass the vertex cell or its sign int).
    """
    if isinstance(X, SimplicialComplex):
        return X.link_of_vertex(v)
    if isinstance(X, CubicalComplex):
        if isinstance(v, int):
            v = ((), v)
        return X.link_of_vertex(v)
    raise ValidationError(f"no link operation for {type(X).__name__}")
