"""Gosset polytopes G^n (3 <= n <= 8), their ideal duals P^n, and
reflection-group abelianization data.

G^3, G^4, G^5 are built from explicit integer coordinates (triangular
prism, rectified 4-simplex, 5-demicube).  For n in {6,7,8} the facets
are located by the weight-orbit method: enumerate the orbit of a
fundamental-weight direction under the simple reflections by closure,
then collect the vertices maximizing the inner product against each
orbit vector.  All arithmetic is exact integer arithmetic on scaled
root coordinates; the full reflection group is never materialized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .lattice import (
    IDEAL,
    REAL,
    FaceLattice,
    faces_from_facet_vertex_sets,
)

SIMPLEX = "simplex"
CROSS = "cross"

# Simple roots of the E series in doubled Bourbaki coordinates (norm^2 = 8).
# The first 6 rows generate E6, the first 7 generate E7.
_E_ROOTS_2X: Tuple[Tuple[int, ...], ...] = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

# (vertex node, cross-facet node, simplex-facet node), 1-based Bourbaki.
_WEIGHT_NODES = {6: (1, 6, 2), 7: (7, 1, 2), 8: (8, 1, 2)}


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class GossetPolytope:
    """Combinatorics of G^n: facet vertex sets, facet types, face lattice.

    ``antipodal_pairs[i]`` lists the diagonals of cross-polytope facet i
    (empty tuple for simplex facets).  ``graded_faces`` carries every
    face as a vertex set with its dimension when the lattice is complete.
    """

    n: int
    num_vertices: int
    facet_vertex_sets: Tuple[FrozenSet[int], ...]
    facet_types: Tuple[str, ...]
    antipodal_pairs: Tuple[Tuple[Tuple[int, int], ...], ...]
    lattice: FaceLattice
    graded_faces: Optional[Tuple[Tuple[FrozenSet[int], int], ...]]
    vertex_coordinates: Optional[Tuple[Tuple[int, ...], ...]] = None

    def cross_facet_ids(self) -> List[int]:
        return [i for i, t in enumerate(self.facet_types) if t == CROSS]

    def simplex_facet_ids(self) -> List[int]:
        return [i for i, t in enumerate(self.facet_types) if t == SIMPLEX]


@dataclass(frozen=True)
class IdealPolytope:
    """P^n: facet-incidence lattice with ideal vertices and their cube-link axes.

    Facet i of P is dual to vertex i of G; the facet set of an ideal
    vertex is the vertex set of the dual cross-polytope facet, and its
    axes are that facet's diagonals.
    """

    n: int
    lattice: FaceLattice
    ideal_vertices: Tuple[FrozenSet[int], ...]
    axes: Dict[FrozenSet[int], Tuple[Tuple[int, int], ...]]
    facet_adjacency: Optional[FrozenSet[FrozenSet[int]]] = None

    @property
    def num_facets(self) -> int:
        return self.lattice.num_facets

    def axes_of(self, vertex: FrozenSet[int]) -> Tuple[Tuple[int, int], ...]:
        return self.axes[frozenset(vertex)]


@dataclass(frozen=True)
class RACGData:
    """Reflection-group presentation data: one involution per facet,
    commuting exactly for adjacent facets."""

    facet_count: int
    commuting_pairs: Optional[FrozenSet[FrozenSet[int]]] = None


def racg_data(P: IdealPolytope) -> RACGData:
    return RACGData(P.num_facets, P.facet_adjacency)


def abelianization_rank(R: RACGData) -> int:
    """Rank of the abelianized reflection group.

    Each generator is an involution, so the abelianization is an
    elementary abelian 2-group; the commutator relations kill nothing
    further, leaving one Z/2 factor per facet.
    """
    return R.facet_count


# ---------------------------------------------------------------------------
# built-in constructions, n = 3, 4, 5
# ---------------------------------------------------------------------------


def _prism_data():
    coords = [(0, 0, 0), (4, 0, 0), (2, 3, 0), (0, 0, 3), (4, 0, 3), (2, 3, 3)]
    facets = [
        (frozenset({0, 1, 2}), SIMPLEX),
        (frozenset({3, 4, 5}), SIMPLEX),
        (frozenset({0, 1, 3, 4}), CROSS),
        (frozenset({1, 2, 4, 5}), CROSS),
        (frozenset({0, 2, 3, 5}), CROSS),
    ]
    return coords, facets


def _rectified_simplex_data():
    pairs = sorted(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    coords = []
    for p in pairs:
        v = [0] * 5
        v[p[0]] = 1
        v[p[1]] = 1
        coords.append(tuple(v))
    facets = []
    for i in range(5):
        facets.append((frozenset(index[p] for p in pairs if i in p), SIMPLEX))
    for i in range(5):
        facets.append((frozenset(index[p] for p in pairs if i not in p), CROSS))
    return coords, facets


def _demicube_data():
    coords = sorted(v for v in product((-1, 1), repeat=5) if v.count(-1) % 2 == 0)
    index = {v: i for i, v in enumerate(coords)}
    facets = []
    for axis in range(5):
        for s in (-1, 1):
            facets.append((frozenset(i for v, i in index.items() if v[axis] == s), CROSS))
    for odd in product((-1, 1), repeat=5):
        if odd.count(-1) % 2 == 0:
            continue
        members = set()
        for v, i in index.items():
            if sum(1 for a, b in zip(v, odd) if a != b) == 1:
                members.add(i)
        facets.append((frozenset(members), SIMPLEX))
    return coords, facets


_BUILTIN = {3: _prism_data, 4: _rectified_simplex_data, 5: _demicube_data}


# ---------------------------------------------------------------------------
# weight-orbit generator, n = 6, 7, 8
# ---------------------------------------------------------------------------


def _fundamental_weight_vector(roots: Sequence[Tuple[int, ...]], node: int) -> Tuple[int, ...]:
    """Integer vector positively proportional to a fundamental weight.

    Solves the Gram system <w, alpha_j> = delta_{ij} exactly and clears
    denominators without reducing, so the result stays in twice the
    weight lattice and reflections remain integral.
    """
    k = len(roots)
    gram = [[_dot(roots[i], roots[j]) // 4 for j in range(k)] for i in range(k)]
    rhs = [Fraction(1 if j == node - 1 else 0) for j in range(k)]
    a = [[Fraction(x) for x in row] for row in gram]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        rhs[col] *= inv
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                rhs[r] -= f * rhs[col]
    coeffs = rhs
    weight = [sum(coeffs[j] * roots[j][t] for j in range(k)) for t in range(8)]
    denom = 1
    for x in weight:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return tuple(int(x * denom) for x in weight)


def weyl_orbit(start: Tuple[int, ...], roots: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Orbit of a vector under the simple reflections, by closure."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for a in roots:
                d = _dot(x, a)
                if d % 4:
                    raise ValidationError("orbit vector left the reflection lattice")
                if d == 0:
                    continue
                q = d // 4
                y = tuple(x[t] - q * a[t] for t in range(8))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _facets_by_maximization(
    vertices: Sequence[Tuple[int, ...]], normals: Sequence[Tuple[int, ...]]
) -> List[FrozenSet[int]]:
    V = np.array(vertices, dtype=np.int64)
    U = np.array(normals, dtype=np.int64)
    prod = V @ U.T
    mx = prod.max(axis=0)
    out = []
    for j in range(len(normals)):
        idx = np.nonzero(prod[:, j] == mx[j])[0]
        out.append(frozenset(int(i) for i in idx))
    return out


def _orbit_facet_data(n: int):
    roots = _E_ROOTS_2X[:n]
    v_node, c_node, s_node = _WEIGHT_NODES[n]
    vertices = weyl_orbit(_fundamental_weight_vector(roots, v_node), roots)
    facets: List[Tuple[FrozenSet[int], str]] = []
    for node in (c_node, s_node):
        normals = weyl_orbit(_fundamental_weight_vector(roots, node), roots)
        for fv in _facets_by_maximization(vertices, normals):
            if len(fv) == n:
                facets.append((fv, SIMPLEX))
            elif len(fv) == 2 * (n - 1):
                facets.append((fv, CROSS))
            else:
                raise ValidationError(
                    f"weight-orbit facet has {len(fv)} vertices; expected {n} or {2 * (n - 1)}"
                )
    if len({fv for fv, _ in facets}) != len(facets):
        raise ValidationError("duplicate facets from distinct orbit normals")
    return [tuple(v) for v in vertices], facets


# ---------------------------------------------------------------------------
# assembly and validation
# ---------------------------------------------------------------------------


def _antipodal_pairs(
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    num_vertices: int,
) -> List[Tuple[Tuple[int, int], ...]]:
    """Diagonals of each cross facet: vertex pairs whose only common facet
    is that facet.  Validates the perfect-matching (cube-dual) structure."""
    at: List[set] = [set() for _ in range(num_vertices)]
    for i, fv in enumerate(facet_vertex_sets):
        for v in fv:
            at[v].add(i)
    out: List[Tuple[Tuple[int, int], ...]] = []
    for i, (fv, kind) in enumerate(zip(facet_vertex_sets, facet_types)):
        if kind != CROSS:
            out.append(())
            continue
        partner: Dict[int, int] = {}
        pairs = []
        for v, w in combinations(sorted(fv), 2):
            common = len(at[v] & at[w])
            if common < 1:
                raise ValidationError("cross facet vertices share no facet")
            if common == 1:
                if v in partner or w in partner:
                    raise ValidationError(f"facet {i}: vertex in two antipodal pairs")
                partner[v] = w
                partner[w] = v
                pairs.append((v, w))
        if len(partner) != len(fv):
            raise ValidationError(f"facet {i}: antipodal pairs do not form a matching")
        out.append(tuple(sorted(pairs)))
    return out


def _ridge_check(
    n: int,
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    antipodal: Sequence[Tuple[Tuple[int, int], ...]],
) -> int:
    """Every ridge of every facet must be shared by exactly two facets.

    This is the completeness oracle for the facet list: a missing facet
    would leave some ridge covered once.  Returns the ridge count.
    """
    count: Dict[FrozenSet[int], int] = {}
    for i, (fv, kind) in enumerate(zip(facet_vertex_sets, facet_types)):
        if kind == SIMPLEX:
            for v in fv:
                r = fv - {v}
                count[r] = count.get(r, 0) + 1
        else:
            for ridge in product(*antipodal[i]):
                r = frozenset(ridge)
                count[r] = count.get(r, 0) + 1
    bad = [r for r, c in count.items() if c != 2]
    if bad:
        raise ValidationError(f"{len(bad)} ridges not shared by exactly two facets")
    return len(count)


def _assemble(
    n: int,
    num_vertices: int,
    facets: List[Tuple[FrozenSet[int], str]],
    coords: Optional[Sequence[Tuple[int, ...]]],
    full_lattice: bool,
) -> GossetPolytope:
    facets = sorted(facets, key=lambda ft: tuple(sorted(ft[0])))
    fv_sets = [f for f, _ in facets]
    types = [t for _, t in facets]
    antipodal = _antipodal_pairs(fv_sets, types, num_vertices)
    _ridge_check(n, fv_sets, types, antipodal)
    covered = set().union(*fv_sets)
    if covered != set(range(num_vertices)):
        raise ValidationError("some vertex lies on no facet")

    graded: Optional[Tuple[Tuple[FrozenSet[int], int], ...]] = None
    if full_lattice:
        graded = tuple(faces_from_facet_vertex_sets(fv_sets))
        faces = []
        for vset, d in graded:
            fs = frozenset(i for i, f in enumerate(fv_sets) if vset <= f)
            faces.append((d, fs))
        lattice = FaceLattice(n, len(fv_sets), faces)
    else:
        at: List[set] = [set() for _ in range(num_vertices)]
        for i, f in enumerate(fv_sets):
            for v in f:
                at[v].add(i)
        faces = [(0, frozenset(s)) for s in at]
        faces += [(n - 1, frozenset({i})) for i in range(len(fv_sets))]
        lattice = FaceLattice(n, len(fv_sets), faces)
    return GossetPolytope(
        n=n,
        num_vertices=num_vertices,
        facet_vertex_sets=tuple(fv_sets),
        facet_types=tuple(types),
        antipodal_pairs=tuple(antipodal),
        lattice=lattice,
        graded_faces=graded,
        vertex_coordinates=tuple(tuple(c) for c in coords) if coords else None,
    )


def gosset(n: int, full_lattice: Optional[bool] = None, data_dir: Optional[str] = None) -> GossetPolytope:
    """The Gosset polytope G^n for 3 <= n <= 8.

    ``full_lattice`` defaults to True for n <= 6; for n in {7, 8} only
    vertices and facets are materialized unless it is forced on.  If a
    pre-computed lattice file ``gosset{n}.json`` exists under
    ``data_dir`` (or $CUSPFORGE_DATA), it is ingested and validated
    instead of running the generator.
    """
    if not 3 <= n <= 8:
        raise ValidationError("gosset polytopes exist for 3 <= n <= 8 only")
    if full_lattice is None:
        full_lattice = n <= 6
    directory = data_dir if data_dir is not None else os.environ.get("CUSPFORGE_DATA")
    if directory:
        path = os.path.join(directory, f"gosset{n}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return ingest_gosset(fh.read(), n)
    if n in _BUILTIN:
        coords, facets = _BUILTIN[n]()
        return _assemble(n, len(coords), facets, coords, full_lattice=True)
    vertices, facets = _orbit_facet_data(n)
    return _assemble(n, len(vertices), facets, vertices, full_lattice=full_lattice)


def ingest_gosset(text: str, n: int) -> GossetPolytope:
    """Validate and adopt an externally computed face-lattice file for G^n."""
    lat = FaceLattice.from_json(text)
    if lat.rank != n:
        raise ValidationError(f"ingested lattice has rank {lat.rank}, expected {n}")
    vertex_sets = lat.vertex_faces()  # vertices encoded by their facet sets
    num_vertices = len(vertex_sets)
    order = {s: i for i, s in enumerate(vertex_sets)}
    fv_sets: List[set] = [set() for _ in range(lat.num_facets)]
    for s, v in order.items():
        for f in s:
            fv_sets[f].add(v)
    facets = []
    for f in fv_sets:
        size = len(f)
        if size == n:
            facets.append((frozenset(f), SIMPLEX))
        elif size == 2 * (n - 1):
            facets.append((frozenset(f), CROSS))
        else:
            raise ValidationError(f"ingested facet has {size} vertices; expected {n} or {2 * (n - 1)}")
    return _assemble(n, num_vertices, facets, None, full_lattice=lat.is_complete())


# ---------------------------------------------------------------------------
# ideal dual
# ---------------------------------------------------------------------------


def ideal_dual(G: GossetPolytope) -> IdealPolytope:
    """P^n: the dual with cross-polytope facets of G^n read as ideal vertices."""
    n = G.n
    faces: List[Tuple[int, FrozenSet[int]]] = []
    marks: Dict[FrozenSet[int], str] = {}
    if G.graded_faces is not None:
        for vset, d in G.graded_faces:
            faces.append((n - 1 - d, vset))
    else:
        faces = [(0, fv) for fv in G.facet_vertex_sets]
        faces += [(n - 1, frozenset({v})) for v in range(G.num_vertices)]
    for fv, kind in zip(G.facet_vertex_sets, G.facet_types):
        marks[fv] = IDEAL if kind == CROSS else REAL
    lattice = FaceLattice(n, G.num_vertices, faces, marks)

    ideal = []
    axes: Dict[FrozenSet[int], Tuple[Tuple[int, int], ...]] = {}
    for i, (fv, kind) in enumerate(zip(G.facet_vertex_sets, G.facet_types)):
        if kind == CROSS:
            if len(fv) != 2 * (n - 1):
                raise ValidationError("ideal vertex without a cube link")
            ideal.append(fv)
            axes[fv] = G.antipodal_pairs[i]
    adjacency = None
    if lattice.is_complete():
        adjacency = frozenset(
            frozenset(s) for k, s in lattice.faces if k == n - 2
        )
        _validate_links(lattice, set(ideal))
    return IdealPolytope(
        n=n,
        lattice=lattice,
        ideal_vertices=tuple(sorted(ideal, key=sorted)),
        axes=axes,
        facet_adjacency=adjacency,
    )


def ideal_polytope_from_lattice(lattice: FaceLattice) -> IdealPolytope:
    """Rebuild an IdealPolytope from a marked face-lattice document.

    On complete lattices the cube-link axes at an ideal vertex are the
    facet pairs that span no face: opposite cube facets meet only at the
    vertex itself.  Partial lattices keep the census data but no axes.
    """
    n = lattice.rank
    ideal = [s for s in lattice.ideal_vertices()]
    axes: Dict[FrozenSet[int], Tuple[Tuple[int, int], ...]] = {}
    adjacency = None
    if lattice.is_complete():
        for v in ideal:
            if len(v) != 2 * (n - 1):
                raise ValidationError("ideal vertex has wrong facet count")
            partner: Dict[int, int] = {}
            pairs = []
            for a, b in combinations(sorted(v), 2):
                if not lattice.has_face({a, b}):
                    if a in partner or b in partner:
                        raise ValidationError("ideal vertex link is not a cube")
                    partner[a] = b
                    partner[b] = a
                    pairs.append((a, b))
            if len(partner) != len(v):
                raise ValidationError("ideal vertex link is not a cube")
            axes[v] = tuple(sorted(pairs))
        adjacency = frozenset(frozenset(s) for k, s in lattice.faces if k == n - 2)
        _validate_links(lattice, set(ideal))
    return IdealPolytope(
        n=n,
        lattice=lattice,
        ideal_vertices=tuple(sorted(ideal, key=sorted)),
        axes=axes,
        facet_adjacency=adjacency,
    )


def _validate_links(lattice: FaceLattice, ideal: set) -> None:
    """Cube links at ideal vertices, simplex links at real ones."""
    n = lattice.rank
    for s in lattice.vertex_faces():
        above = [fs for k, fs in lattice.faces_containing(s) if fs != s]
        if s in ideal:
            if len(s) != 2 * (n - 1):
                raise ValidationError("ideal vertex has wrong facet count")
            for k in range(1, n):
                want = comb(n - 1, n - k) * (1 << (n - k))
                got = sum(1 for fs in above if len(fs) == n - k)
                if got != want:
                    raise ValidationError("ideal vertex link is not a cube")
        else:
            if len(s) != n:
                raise ValidationError("real vertex is not simple")
            if len(above) != (1 << n) - 2:
                raise ValidationError("real vertex link is not a simplex")
