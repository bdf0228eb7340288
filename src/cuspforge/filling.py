"""Combinatorial Dehn filling of ideal vertices and the dual subdivision.

Filling rewrites the face lattice directly: every ideal vertex is
removed and replaced by the face poset of an (n-2)-cube spanned by the
non-chosen axes of its cube link.  The dual route subdivides each
cross-polytope facet of the Gosset polytope along a chosen diagonal;
``duality_check`` verifies that the two routes produce dual objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .errors import ValidationError
from .isomorphism import find_isomorphism
from .lattice import FaceLattice, cube_faces, dualize
from .polytopes import CROSS, GossetPolytope, IdealPolytope, ideal_dual
from .simplicial import SimplicialComplex, build_simplicial, octahedron_boundary

VertexKey = FrozenSet[int]


@dataclass(frozen=True)
class FillingChoice:
    """One filling axis per ideal vertex, as an index into its axis list."""

    axis_index: Dict[VertexKey, int]

    def axis_of(self, vertex: VertexKey) -> int:
        return self.axis_index[frozenset(vertex)]


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
    """All filling choices, in lexicographic order over sorted ideal vertices."""
    verts = sorted(P.ideal_vertices, key=sorted)
    counts = [len(P.axes_of(v)) for v in verts]
    for combo in product(*(range(c) for c in counts)):
        yield FillingChoice(dict(zip(verts, combo)))


def dehn_fill(P: IdealPolytope, choice: FillingChoice) -> DehnFilling:
    """Replace every ideal vertex of P^n with an (n-2)-cube face.

    The facets are unchanged; at a filled vertex the two facets of the
    chosen axis become adjacent across the new cube, whose subfaces are
    spanned by sign choices on the remaining axes.
    """
    if not P.lattice.is_complete():
        raise ValidationError("dehn_fill needs a complete face lattice")
    n = P.lattice.rank
    ideal = set(P.ideal_vertices)
    for v in ideal:
        if frozenset(v) not in choice.axis_index:
            raise ValidationError(f"missing filling choice at ideal vertex {sorted(v)}")

    faces: List[Tuple[int, FrozenSet[int]]] = []
    for k, s in P.lattice.faces:
        if k == 0 and s in ideal:
            continue
        faces.append((k, s))

    filling_faces: Dict[VertexKey, FrozenSet[int]] = {}
    for v in sorted(ideal, key=sorted):
        axes = P.axes_of(v)
        idx = choice.axis_of(v)
        if not 0 <= idx < len(axes):
            raise ValidationError(f"axis index {idx} out of range at {sorted(v)}")
        chosen = frozenset(axes[idx])
        others = [axes[j] for j in range(len(axes)) if j != idx]
        filling_faces[v] = chosen
        faces.append((n - 2, chosen))
        faces.extend((n - 2 - t, chosen | fs) for t, fs in cube_faces(others))

    lattice = FaceLattice(n, P.lattice.num_facets, faces)
    if not lattice.is_simple():
        raise ValidationError("filled lattice failed the simplicity check")
    return DehnFilling(lattice=lattice, filling_faces=filling_faces)


def is_simple(P: FaceLattice) -> bool:
    """Each rank-(n-k) face lies in exactly k facets."""
    return P.is_simple()


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
    pair_index = {}
    for i, (fv, kind) in enumerate(zip(G.facet_vertex_sets, G.facet_types)):
        if kind == CROSS:
            pair_index[i] = choice.axis_of(fv)
    return DiagonalChoice(pair_index)


def subdivide_cross_facets(G: GossetPolytope, d: DiagonalChoice) -> SimplicialComplex:
    """The sphere K^{n-1}: simplex facets kept, each cross facet split
    into 2^(n-2) simplexes sharing its chosen diagonal."""
    n = G.n
    tops: List[Tuple[int, ...]] = []
    for i, (fv, kind) in enumerate(zip(G.facet_vertex_sets, G.facet_types)):
        if kind != CROSS:
            tops.append(tuple(sorted(fv)))
            continue
        if i not in d.pair_index:
            raise ValidationError(f"missing diagonal for cross facet {i}")
        pairs = G.antipodal_pairs[i]
        idx = d.pair_index[i]
        if not 0 <= idx < len(pairs):
            raise ValidationError(f"diagonal index {idx} out of range for facet {i}")
        diagonal = pairs[idx]
        others = [p for j, p in enumerate(pairs) if j != idx]
        for signs in product(*others):
            tops.append(tuple(sorted(diagonal + signs)))
    for i in d.pair_index:
        if G.facet_types[i] != CROSS:
            raise ValidationError(f"facet {i} is not a cross-polytope")
    K = build_simplicial(tops, G.num_vertices)
    if not K.is_pure() or K.dim != n - 1:
        raise ValidationError("subdivision did not produce a pure (n-1)-complex")
    return K


def duality_check(pbar: FaceLattice, K: SimplicialComplex) -> bool:
    """Whether the filled polytope and the subdivided sphere are dual.

    Facet i of the filled polytope corresponds to vertex i of K by
    construction (both index the dual pair through the Gosset polytope),
    so the comparison is on labelled complexes; abstractly isomorphic
    complexes from non-corresponding choices still return False.
    """
    if pbar.num_facets != K.vertex_count:
        return False
    try:
        dual = dualize(pbar)
    except ValidationError:
        return False
    return dual == K
