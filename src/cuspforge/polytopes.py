"""Gosset polytopes G^n (3 <= n <= 8), their ideal duals P^n, and
reflection-group abelianization data.

G^3, G^4, G^5 are built from explicit integer coordinates (triangular
prism, rectified 4-simplex, 5-demicube).  For n in {6,7,8} the facets
are located by the weight-orbit method: enumerate the orbit of a
fundamental-weight direction under the simple reflections by closure,
then collect the vertices maximizing the inner product against each
orbit vector.  All arithmetic is exact integer arithmetic on scaled
root coordinates; the full reflection group is never materialized.

Every facet list is checked on integer arrays of vertex indices: one
count over packed vertex-pair keys finds the antipodal pairs of the
cross facets, one sort of the sorted ridge rows checks that each ridge
lies on exactly two facets, and the full face lattice is listed facet
by facet from the vertex subsets that those checks prove to be faces.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb, gcd, isqrt
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .lattice import FaceLattice

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
    """Orbit of a vector under the simple reflections, by closure.

    Each round reflects the whole frontier in every simple root at once,
    in int64.  Reflections preserve the norm, so every entry lies within
    ``bound`` = isqrt(norm) of zero and the arithmetic is exact.  Shifted
    by ``bound`` and read as digits in base 2 * bound + 1, a vector packs
    into one int64 key that sorts like the vector; frontiers are
    deduplicated on those keys.
    """
    R = np.array(roots, dtype=np.int64)
    bound = isqrt(_dot(start, start))
    base, dim = 2 * bound + 1, R.shape[1]
    if base**dim > np.iinfo(np.int64).max:
        raise ValidationError("orbit vector too long for int64 keys")
    place = base ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    parts, keys = [frontier], [(frontier + bound) @ place]
    while len(frontier):
        D = frontier @ R.T
        if (D % 4).any():
            raise ValidationError("orbit vector left the reflection lattice")
        Y = (frontier[:, None, :] - (D // 4)[:, :, None] * R).reshape(-1, dim)
        k, first = np.unique((Y + bound) @ place, return_index=True)
        # reflections are involutions: a frontier's images lie in the
        # frontier, the one before it, or the next one
        new = ~np.isin(k, np.concatenate(keys[-2:]))
        frontier = Y[first[new]]
        parts.append(frontier)
        keys.append(k[new])
    orbit = np.concatenate(parts)[np.argsort(np.concatenate(keys))]
    return list(map(tuple, orbit.tolist()))


def _facets_by_maximization(
    vertices: Sequence[Tuple[int, ...]], normals: Sequence[Tuple[int, ...]]
) -> List[FrozenSet[int]]:
    """Vertex set of the face maximizing each normal.

    By Cauchy-Schwarz every partial sum of an inner product is at most
    |v||u| in size, so the products run in the smallest integer type
    that holds that bound.
    """
    V = np.array(vertices, dtype=np.int64)
    U = np.array(normals, dtype=np.int64)
    bound = isqrt(int((V * V).sum(axis=1).max()) * int((U * U).sum(axis=1).max())) + 1
    dt = next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    prod = V.astype(dt) @ U.T.astype(dt)
    cols, rows = np.nonzero((prod == prod.max(axis=0)).T)
    rows = rows.tolist()
    ends = np.cumsum(np.bincount(cols, minlength=len(normals))).tolist()
    return [frozenset(rows[a:b]) for a, b in zip([0] + ends, ends)]


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
#
# The checks work on integer arrays: the facets of one type all have the
# same size (n for simplices, 2(n-1) for cross-polytopes, as every caller
# checks), so their sorted vertex indices form one matrix per type, held
# in the smallest unsigned dtype that fits.


def _vertex_rows(sets: Sequence[FrozenSet[int]], dtype) -> np.ndarray:
    """Sorted vertex indices of equal-size sets, one row per set."""
    width = len(sets[0]) if sets else 0
    flat = np.fromiter(chain.from_iterable(sets), dtype, len(sets) * width)
    return np.sort(flat.reshape(len(sets), width), axis=1)


def _row_runs(R: np.ndarray, *minor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of R lexicographically (ties broken
    by the ``minor`` keys) and the start of each run of equal rows in it."""
    order = np.lexsort([*minor, *R.T[::-1]])
    R = R[order]
    fresh = np.ones(len(R), dtype=bool)
    fresh[1:] = (R[1:] != R[:-1]).any(axis=1)
    return order, np.flatnonzero(fresh)


def _antipodal_pairs(
    facet_vertex_sets: Sequence[FrozenSet[int]], facet_types: Sequence[str]
) -> List[Tuple[Tuple[int, int], ...]]:
    """Diagonals of each cross facet: vertex pairs whose only common facet
    is that facet.  Validates the perfect-matching (cube-dual) structure.

    Each in-facet pair v < w is keyed v * nv + w, nv past the largest
    vertex; one count of the keys of every facet gives each pair's number
    of common facets.
    """
    cross = [i for i, t in enumerate(facet_types) if t == CROSS]
    nv = 1 + max(map(max, facet_vertex_sets))
    dt, kd = np.min_scalar_type(nv), np.min_scalar_type(nv * nv)

    def pair_keys(rows: np.ndarray) -> np.ndarray:
        a, b = np.triu_indices(rows.shape[1], 1)  # combinations order
        return rows[:, a].astype(kd) * kd.type(nv) + rows[:, b]

    C = _vertex_rows([facet_vertex_sets[i] for i in cross], dt)
    S = _vertex_rows([f for f, t in zip(facet_vertex_sets, facet_types) if t != CROSS], dt)
    keys = pair_keys(C)
    distinct, counts = np.unique(
        np.concatenate([keys.ravel(), pair_keys(S).ravel()]), return_counts=True
    )
    one = counts[np.searchsorted(distinct, keys)] == 1
    a, b = np.triu_indices(C.shape[1], 1)
    touch = np.zeros((len(a), C.shape[1]), dtype=np.uint8)
    touch[np.arange(len(a)), a] = touch[np.arange(len(a)), b] = 1
    degree = one @ touch  # antipodal pairs at each vertex of each cross facet
    two = (degree > 1).any(axis=1)
    bad = two | (degree == 0).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if two[k]:
            raise ValidationError(f"facet {cross[k]}: vertex in two antipodal pairs")
        raise ValidationError(f"facet {cross[k]}: antipodal pairs do not form a matching")
    pairs = np.stack([C[:, a], C[:, b]], axis=2)[one]
    pairs = pairs.reshape(len(C), C.shape[1] // 2, 2).tolist()
    out: List[Tuple[Tuple[int, int], ...]] = [()] * len(facet_types)
    for i, p in zip(cross, pairs):
        out[i] = tuple(map(tuple, p))
    return out


def _ridge_check(
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    antipodal: Sequence[Tuple[Tuple[int, int], ...]],
) -> int:
    """Every ridge of every facet must be shared by exactly two facets.

    This is the completeness oracle for the facet list: a missing facet
    would leave some ridge covered once.  Each ridge becomes the row of
    its sorted vertex indices, and one sort of the rows counts them.
    Returns the ridge count.
    """
    dt = np.min_scalar_type(max(map(max, facet_vertex_sets)))
    S = _vertex_rows([f for f, t in zip(facet_vertex_sets, facet_types) if t == SIMPLEX], dt)
    pairs = np.array([p for p, t in zip(antipodal, facet_types) if t == CROSS], dtype=dt)
    m = S.shape[1]
    drop = np.array([[j for j in range(m) if j != i] for i in range(m)], dtype=np.intp)
    ridges = [S[:, drop].reshape(len(S) * m, m - 1)] if m else []
    if len(pairs):
        k = pairs.shape[1]
        side = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        ridges.append(np.sort(pairs[:, np.arange(k), side], axis=2).reshape(-1, k))
    R = np.concatenate(ridges)
    _, starts = _row_runs(R)
    bad = int(np.count_nonzero(np.diff(np.append(starts, len(R))) != 2))
    if bad:
        raise ValidationError(f"{bad} ridges not shared by exactly two facets")
    return len(starts)


def _graded_faces(
    n: int,
    facet_vertex_sets: Sequence[FrozenSet[int]],
    facet_types: Sequence[str],
    antipodal: Sequence[Tuple[Tuple[int, int], ...]],
) -> List[Tuple[FrozenSet[int], int, FrozenSet[int]]]:
    """Every face as (vertex set, dimension, facets containing it), by
    dimension and then sorted vertex tuple.

    After the antipodal and ridge checks the faces (the intersections of
    facets) are exactly the facets, the nonempty proper subsets of
    simplex facets, and the nonempty subsets of cross facets that take at
    most one vertex of each diagonal.  Such a subset of k vertices has
    dimension k - 1, and its facets are the facets that list it.

    Why, for distinct facets: no two facets share a diagonal, so no facet
    holds another, an intersection of facets is listed, and a cross facet
    through a listed set lists it.  If every facet through a listed set F
    held some w outside F, a ridge through F avoiding w (through w's
    partner, in a cross facet) would have a second facet holding F and w,
    hence a whole facet or a diagonal of the first.  So F is an
    intersection of facets, its faces are its subsets, and grading by
    longest chains gives k - 1 without refusal.  If two facets share a
    vertex set, no face lies on one of them alone and FaceLattice refuses
    the lattice.
    """
    dt = np.min_scalar_type(max(map(max, facet_vertex_sets)))
    simplex = np.array([i for i, t in enumerate(facet_types) if t == SIMPLEX], dtype=np.int64)
    cross = np.array([i for i, t in enumerate(facet_types) if t == CROSS], dtype=np.int64)
    S = _vertex_rows([facet_vertex_sets[i] for i in simplex], dt).reshape(-1, n)
    P = np.array([antipodal[i] for i in cross], dtype=dt).reshape(-1, n - 1, 2)
    out = []
    for k in range(1, n):
        pick = np.array(list(combinations(range(n), k)))
        axes = np.repeat(np.array(list(combinations(range(n - 1), k))), 1 << k, axis=0)
        side = np.tile(np.array(list(product((0, 1), repeat=k))), (len(axes) >> k, 1))
        R = np.concatenate([S[:, pick].reshape(-1, k),
                            np.sort(P[:, axes, side], axis=2).reshape(-1, k)])
        owner = np.concatenate([np.repeat(simplex, len(pick)), np.repeat(cross, len(axes))])
        order, starts = _row_runs(R, owner)
        owner = owner[order].tolist()
        ends = np.append(starts[1:], len(R)).tolist()
        for row, a, b in zip(R[order[starts]].tolist(), starts.tolist(), ends):
            out.append((frozenset(row), k - 1, frozenset(owner[a:b])))
    listing: Dict[FrozenSet[int], List[int]] = {}
    for i, f in enumerate(facet_vertex_sets):
        listing.setdefault(f, []).append(i)
    out += [(f, n - 1, frozenset(ids)) for f, ids in listing.items()]
    return out


def _assemble(
    n: int,
    num_vertices: int,
    facets: List[Tuple[FrozenSet[int], str]],
    coords: Optional[Sequence[Tuple[int, ...]]],
    full_lattice: bool,
) -> GossetPolytope:
    """Sort, check and adopt a facet list.  Simplex facets must have n
    vertices and cross facets 2(n-1), as every caller checks."""
    dt = np.min_scalar_type(num_vertices)
    # facets in order of their sorted vertex tuples: rows of v + 1, 0-padded
    padded = np.zeros((len(facets), 2 * (n - 1)), dtype=dt)
    for kind in (SIMPLEX, CROSS):
        ids = [i for i, (_, t) in enumerate(facets) if t == kind]
        rows = _vertex_rows([facets[i][0] for i in ids], dt)
        padded[ids, : rows.shape[1]] = rows + 1
    order = _row_runs(padded)[0]
    facets = [facets[i] for i in order.tolist()]
    fv_sets = [f for f, _ in facets]
    types = [t for _, t in facets]
    padded = padded[order]
    owner, col = np.nonzero(padded)
    verts = padded[owner, col] - 1
    counts = np.bincount(verts, minlength=num_vertices)
    antipodal = _antipodal_pairs(fv_sets, types)
    _ridge_check(fv_sets, types, antipodal)
    if not counts.all():
        raise ValidationError("some vertex lies on no facet")

    graded: Optional[Tuple[Tuple[FrozenSet[int], int], ...]] = None
    if full_lattice:
        faces = _graded_faces(n, fv_sets, types, antipodal)
        graded = tuple((vs, d) for vs, d, _ in faces)
        lattice = FaceLattice(n, len(fv_sets), [(d, fs) for _, d, fs in faces])
    else:  # each vertex's facets, in order, then the facet singletons
        nf = len(fv_sets)
        lattice = FaceLattice.from_arrays(
            n, nf, np.repeat([0, n - 1], [num_vertices, nf]),
            np.cumsum(np.concatenate(([0], counts, np.ones(nf, dtype=counts.dtype)))),
            np.concatenate((owner[np.argsort(verts, kind="stable")], np.arange(nf))),
        )
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
    """P^n: the dual with cross-polytope facets of G^n read as ideal vertices.

    The lattice is built from row arrays of G-vertex indices: the vertices
    of P are G's simplex facets and, marked ideal, its cross facets; the
    other faces are G's vertices as facet singletons or, on a full
    lattice, G's lower faces, one array per dimension.
    """
    n = G.n
    ideal = []
    axes: Dict[FrozenSet[int], Tuple[Tuple[int, int], ...]] = {}
    for i, (fv, kind) in enumerate(zip(G.facet_vertex_sets, G.facet_types)):
        if kind == CROSS:
            if len(fv) != 2 * (n - 1):
                raise ValidationError("ideal vertex without a cube link")
            ideal.append(fv)
            axes[fv] = G.antipodal_pairs[i]
    dt = np.min_scalar_type(G.num_vertices)
    simplices = [fv for fv, kind in zip(G.facet_vertex_sets, G.facet_types) if kind != CROSS]
    blocks = [(0, _vertex_rows(simplices, dt), False), (0, _vertex_rows(ideal, dt), True)]
    if G.graded_faces is None:
        blocks.append((n - 1, np.arange(G.num_vertices).reshape(-1, 1), False))
    else:
        by_dim: Dict[int, List[FrozenSet[int]]] = {d: [] for d in range(n - 1)}
        for vs, d in G.graded_faces:
            if d < n - 1:
                by_dim[d].append(vs)
        blocks += [(n - 1 - d, _vertex_rows(vsets, dt).reshape(len(vsets), d + 1), False)
                   for d, vsets in by_dim.items()]
    sizes = [len(rows) for _, rows, _ in blocks]
    widths = np.repeat([rows.shape[1] for _, rows, _ in blocks], sizes)
    lattice = FaceLattice.from_arrays(
        n, G.num_vertices, np.repeat([k for k, _, _ in blocks], sizes),
        np.concatenate(([0], np.cumsum(widths))),
        np.concatenate([rows.ravel() for _, rows, _ in blocks]),
        np.repeat([mark for _, _, mark in blocks], sizes),
    )
    adjacency = None
    if lattice.is_complete():
        adjacency = frozenset(lattice.faces_of_rank(n - 2))
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
        adjacency = frozenset(lattice.faces_of_rank(n - 2))
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
            sizes = Counter(map(len, above))
            for k in range(1, n):
                if sizes[n - k] != comb(n - 1, n - k) * (1 << (n - k)):
                    raise ValidationError("ideal vertex link is not a cube")
        else:
            if len(s) != n:
                raise ValidationError("real vertex is not simple")
            if len(above) != (1 << n) - 2:
                raise ValidationError("real vertex link is not a simplex")
