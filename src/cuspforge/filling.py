"""Combinatorial Dehn filling of ideal vertices and the dual subdivision.

Filling rewrites the face lattice directly: every ideal vertex is
removed and replaced by the face poset of an (n-2)-cube spanned by the
non-chosen axes of its cube link, in one rewrite of P's face and axis
rows that truncation shares.  The dual route subdivides each cross facet
of the Gosset polytope, read off G's rows, along a chosen diagonal;
``duality_check`` verifies that the two routes produce dual objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from .errors import ValidationError
from .isomorphism import find_isomorphism
from .lattice import FaceLattice, cube_face_rows, dualize, missing_dual_face
from .polytopes import GossetPolytope, IdealPolytope, ideal_dual
from .simplicial import SimplicialComplex, octahedron_boundary
from .store import by_value

VertexKey = FrozenSet[int]


@dataclass(frozen=True)
class FillingChoice:
    """One filling axis per ideal vertex, as an index into its axis list."""

    axis_index: Dict[VertexKey, int]


@dataclass(frozen=True)
class DiagonalChoice:
    """One diagonal per cross-polytope facet, as an index into its pair list."""

    pair_index: Dict[int, int]


@dataclass(frozen=True)
class DehnFilling:
    """Filled lattice plus the new cube faces, keyed by the old ideal vertex."""

    lattice: FaceLattice
    filling_faces: Dict[VertexKey, FrozenSet[int]]


def enumerate_filling_choices(P: IdealPolytope) -> Iterator[FillingChoice]:
    """All filling choices, in lexicographic order over the ideal vertices
    in row order, which is sorted order."""
    verts = P.ideal_vertices
    for combo in product(range(P.axis_rows.shape[1]), repeat=len(verts)):
        yield FillingChoice(dict(zip(verts, combo)))


def replace_ideal_vertices(
    P: IdealPolytope, num_facets: int, base: np.ndarray, axes: np.ndarray, name: str,
) -> FaceLattice:
    """P's lattice with every ideal vertex dropped and, for ideal row j, the
    face on the facets ``base[j]`` added with the faces of the cube that the
    axis pairs ``axes[j]`` span below it, each the base joined to one cube
    face.  The result must be simple, so a face on w facets has rank n - w."""
    n = P.lattice.rank
    ranks, ptr, facets, ideal = P.lattice.arrays()
    new = [_joined(base, axes, t) for t in range(axes.shape[1] + 1)]
    widths = np.concatenate([np.diff(ptr)[~ideal], *(np.full(len(rows), rows.shape[1]) for rows in new)])
    lattice = FaceLattice.from_arrays(
        n, num_facets, np.concatenate([ranks[~ideal], n - widths[np.count_nonzero(~ideal):]]),
        np.concatenate(([0], np.cumsum(widths))),
        np.concatenate([facets[np.repeat(~ideal, np.diff(ptr))], *(rows.ravel() for rows in new)]))
    if not lattice.is_simple():
        raise ValidationError(f"{name} lattice failed the simplicity check")
    return lattice


def _joined(base: np.ndarray, axes: np.ndarray, t: int) -> np.ndarray:
    """Rows ``base[j]`` joined to each codimension-t face of the cube on the
    axis pairs ``axes[j]``, for each j in turn, in ``cube_face_rows`` order."""
    cube = cube_face_rows(axes, t)
    rows = np.concatenate([np.broadcast_to(base[:, None], cube.shape[:2] + base.shape[1:]), cube], axis=2)
    return rows.reshape(-1, rows.shape[2])


def _choices_at(choice: FillingChoice, rows: np.ndarray) -> list:
    """The axis index that ``choice`` gives each ideal vertex, a facet row of
    ``rows``, in row order; a vertex without one is refused."""
    keys = list(map(frozenset, rows.tolist()))
    missing = [v for v in keys if v not in choice.axis_index]
    if missing:
        raise ValidationError(f"missing filling choice at ideal vertex {sorted(missing[0])}")
    return [choice.axis_index[v] for v in keys]


def _split(pairs: np.ndarray, idx: List, what: str, where: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pair ``idx[j]`` of each row j of ``pairs`` (m, a, 2), and the other
    a - 1 pairs of the row in order.  An index that is not an int in
    0..a-1 is refused, booleans and integral floats included, as the
    ``what`` index ``where[j]``."""
    m, a = pairs.shape[:2]
    for i, at in zip(idx, where):
        if type(i) is not int:
            raise ValidationError(f"{what} index {i!r} {at} is not an integer")
        if not 0 <= i < a:
            raise ValidationError(f"{what} index {i} out of range {at}")
    idx = np.array(idx, dtype=np.intp)
    return pairs[np.arange(m), idx], pairs[np.arange(a) != idx[:, None]].reshape(m, a - 1, 2)


def dehn_fill(P: IdealPolytope, choice: FillingChoice) -> DehnFilling:
    """Replace every ideal vertex of P^n with an (n-2)-cube face.

    The facets are unchanged; at a filled vertex the two facets of the
    chosen axis become adjacent across the new cube, whose subfaces are
    spanned by sign choices on the remaining axes.
    """
    if not P.lattice.is_complete():
        raise ValidationError("dehn_fill needs a complete face lattice")
    verts = P.ideal_vertices
    chosen, others = _split(P.axis_rows, _choices_at(choice, P.ideal_rows), "axis",
                            [f"at {sorted(v)}" for v in verts])
    lattice = replace_ideal_vertices(P, P.num_facets, chosen, others, "filled")
    return DehnFilling(lattice=lattice, filling_faces=dict(zip(verts, map(frozenset, chosen.tolist()))))


def resolve_choice(P: IdealPolytope, spec) -> FillingChoice:
    """A filling choice from a {vertex: axis index} mapping or "auto".

    "auto" picks the cube filling (the one dual to the octahedron) in
    dimension 3 and axis 0 at every ideal vertex otherwise.
    """
    if isinstance(spec, dict):
        by_vertex = {frozenset(k): v for k, v in spec.items()}
        return FillingChoice(by_vertex)
    if spec != "auto":
        raise ValidationError(f"unknown choice spec {spec!r}")
    if P.n == 3:
        # prefer a filling whose dual is the octahedron (the cube filling)
        target = octahedron_boundary()
        for c in enumerate_filling_choices(P):
            filled = dehn_fill(P, c)
            if find_isomorphism(dualize(filled.lattice), target) is not None:
                return c
    return FillingChoice({frozenset(v): 0 for v in P.ideal_vertices})


def auto_diagonals(G: GossetPolytope) -> DiagonalChoice:
    """The diagonals dual to the "auto" filling choice of G's ideal dual."""
    return diagonals_from_filling(G, resolve_choice(ideal_dual(G), "auto"))


def diagonals_from_filling(G: GossetPolytope, choice: FillingChoice) -> DiagonalChoice:
    """Transport a filling choice through the facet/vertex duality.

    The facets of the cube link at an ideal vertex are the vertices of
    the dual cross-polytope facet, so an axis (opposite facet pair) is
    literally a diagonal (antipodal vertex pair); the shared pair index
    fixes the bijection.
    """
    return DiagonalChoice(dict(zip(np.flatnonzero(G.cross).tolist(), _choices_at(choice, G.cross_rows))))


def subdivide_cross_facets(G: GossetPolytope, d: DiagonalChoice) -> SimplicialComplex:
    """The sphere K^{n-1}: simplex facets kept, each cross facet split
    into 2^(n-2) simplexes sharing its chosen diagonal, one per choice of
    an end of each other diagonal."""
    n = G.n
    for i in d.pair_index:
        if type(i) is not int or not 0 <= i < len(G.cross) or not G.cross[i]:
            raise ValidationError(f"facet {i} is not a cross-polytope")
    cross = np.flatnonzero(G.cross).tolist()
    missing = [i for i in cross if i not in d.pair_index]
    if missing:
        raise ValidationError(f"missing diagonal for cross facet {missing[0]}")
    diagonal, others = _split(G.pair_rows, [d.pair_index[i] for i in cross], "diagonal",
                              [f"for facet {i}" for i in cross])
    tops = np.concatenate((G.simplex_rows, _joined(diagonal, others, n - 2)))
    K = SimplicialComplex.from_arrays(G.num_vertices, np.arange(len(tops) + 1) * n, tops.ravel())
    if not K.is_pure() or K.dim != n - 1:
        raise ValidationError("subdivision did not produce a pure (n-1)-complex")
    return K


def duality_check(pbar: FaceLattice, K: SimplicialComplex) -> bool:
    """Whether the filled polytope and the subdivided sphere are dual.

    Facet i of the filled polytope corresponds to vertex i of K by
    construction (both index the dual pair through the Gosset polytope),
    so the comparison is on labelled complexes; abstractly isomorphic
    complexes from non-corresponding choices still return False.  K equals
    ``dualize(pbar)``, whose store is pbar's vertex rows, iff its store is
    too and every face of pbar is in K's own closure: no second is built.
    """
    if not pbar.is_simple() or by_value(K.__getstate__()) != by_value((pbar.num_facets, *pbar.rows_of_rank(0))):
        return False
    return missing_dual_face(pbar, K) is None
