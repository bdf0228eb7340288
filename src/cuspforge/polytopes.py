"""Gosset polytopes G^n (3 <= n <= 8), their ideal duals P^n, and
reflection-group abelianization data.

G^3, G^4, G^5 are built from explicit integer coordinates (triangular
prism, rectified 4-simplex, 5-demicube).  For n in {6,7,8} the facets
come from Wythoff's construction: the facets of one type are the orbit
of one seed facet under the reflection group.  The vertices are the
orbit of a fundamental weight, and each simple reflection permutes
them.  A reverse search lists the orbit of another fundamental weight, a
facet normal, as a tree: each orbit vector is found once, from its one
parent, and carries its normal's facet along as a row of vertex indices
(reflecting a normal maps its row through that reflection's vertex
permutation).  Only the seed facet is found by maximizing an inner
product.  All arithmetic is exact integer arithmetic on scaled root
coordinates; the full reflection group is never materialized.

From the generator to the ideal dual a facet list is two integer arrays
of sorted vertex indices, simplex rows n wide and cross rows 2(n-1)
wide.  One count over packed vertex-pair keys finds the antipodal pairs
of the cross facets, one sort of packed ridge keys checks that each
ridge lies on exactly two facets, and the full face lattice is listed as
one row array per dimension from the vertex subsets that those checks
prove to be faces.

The ideal dual P^n adopts G's facet order: P's vertices are G's facets,
numbered in order of their sorted vertex tuples, which is the lattice's
canonical vertex order, so no block of P's lattice is sorted again.  P
keeps its ideal vertices as rows, G's cross rows and their diagonals, and
readers take the rows; G's facet types and P's ideal vertex sets and axis
dict are store views (``store.Store``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, isqrt
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, read_file
from .lattice import FaceLattice, cube_face_rows
from .store import Store

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

# (vertices, simplex facets, cross facets) of G^n.
_GOSSET_COUNTS = {3: (6, 2, 3), 4: (10, 5, 5), 5: (16, 16, 10), 6: (27, 72, 27),
                  7: (56, 576, 126), 8: (240, 17280, 2160)}


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


class GossetPolytope(Store):
    """Combinatorics of G^n: facet rows, facet types, face lattice.

    Facets are numbered in order of their sorted vertex tuples, and
    ``cross[i]`` says whether facet i is a cross-polytope.  The rows of
    ``simplex_rows`` and ``cross_rows`` are the sorted vertex indices of
    the simplex and of the cross facets, each in facet order, and
    ``pair_rows[j]`` lists the diagonals of cross facet j, sorted.  On a
    complete lattice ``face_rows[d]`` holds the sorted vertex rows of the
    d-faces for d < n - 1, in sorted order.  Readers take these rows; the
    one per-facet view, ``facet_types`` (simplex or cross, per facet), is
    built on first read and kept out of ``==``, ``hash`` and pickles.
    """

    __slots__ = ("n", "num_vertices", "cross", "simplex_rows", "cross_rows", "pair_rows",
                 "lattice", "face_rows", "vertex_coordinates", "_views")

    def __init__(self, n: int, num_vertices: int, cross: np.ndarray, simplex_rows: np.ndarray,
                 cross_rows: np.ndarray, pair_rows: np.ndarray, lattice: FaceLattice,
                 face_rows: Optional[Tuple[np.ndarray, ...]] = None,
                 vertex_coordinates: Optional[Tuple[Tuple[int, ...], ...]] = None):
        self.n, self.num_vertices, self.cross = n, num_vertices, cross
        self.simplex_rows, self.cross_rows, self.pair_rows = simplex_rows, cross_rows, pair_rows
        self.lattice, self.face_rows, self.vertex_coordinates = lattice, face_rows, vertex_coordinates

    @property
    def facet_types(self) -> Tuple[str, ...]:
        return self._view("facet_types", lambda: tuple((SIMPLEX, CROSS)[c] for c in self.cross.tolist()))


class IdealPolytope(Store):
    """P^n: facet-incidence lattice with ideal vertices and their cube-link axes.

    Facet i of P is dual to vertex i of G, and P's vertices are G's
    facets.  ``ideal_rows`` holds the facet rows of the ideal vertices,
    G's cross rows, in order, and ``axis_rows[j]`` the axes of ideal
    vertex j, the diagonals of that cross facet.  The views
    ``ideal_vertices`` (the rows as facet sets, in row order) and ``axes``
    ({ideal vertex: its axes}) are built on first read and kept out of
    ``==``, ``hash`` and pickles.
    """

    __slots__ = ("n", "lattice", "ideal_rows", "axis_rows", "_views")

    def __init__(self, n: int, lattice: FaceLattice, ideal_rows: np.ndarray, axis_rows: np.ndarray):
        self.n, self.lattice, self.ideal_rows, self.axis_rows = n, lattice, ideal_rows, axis_rows

    @property
    def num_facets(self) -> int:
        return self.lattice.num_facets

    @property
    def ideal_vertices(self) -> Tuple[FrozenSet[int], ...]:
        return self._view("ideal_vertices", lambda: tuple(map(frozenset, self.ideal_rows.tolist())))

    @property
    def axes(self) -> Dict[FrozenSet[int], Tuple[Tuple[int, int], ...]]:
        return self._view("axes", lambda: dict(zip(
            self.ideal_vertices, (tuple(map(tuple, p)) for p in self.axis_rows.tolist()))))

    def axes_of(self, vertex: FrozenSet[int]) -> Tuple[Tuple[int, int], ...]:
        return self.axes[frozenset(vertex)]


@dataclass(frozen=True)
class RACGData:
    """Reflection-group presentation data: one involution per facet,
    commuting exactly for adjacent facets."""

    facet_count: int
    commuting_pairs: Optional[FrozenSet[FrozenSet[int]]] = None


def racg_data(P: IdealPolytope) -> RACGData:
    """Facets commute where they meet, at the rank n-2 faces of a complete
    lattice; a partial lattice gives None."""
    ridges = P.lattice.rows_of_rank(P.n - 2)[1].reshape(-1, 2).tolist()
    return RACGData(P.num_facets, frozenset(map(frozenset, ridges)) if P.lattice.is_complete() else None)


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
#
# Each returns the vertex coordinates and the sorted vertex tuples of the
# simplex facets and of the cross facets.


def _prism_data():
    coords = [(0, 0, 0), (4, 0, 0), (2, 3, 0), (0, 0, 3), (4, 0, 3), (2, 3, 3)]
    return coords, [(0, 1, 2), (3, 4, 5)], [(0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5)]


def _rectified_simplex_data():
    pairs = sorted(combinations(range(5), 2))
    coords = [tuple(int(i in p) for i in range(5)) for p in pairs]
    simplices = [tuple(j for j, p in enumerate(pairs) if i in p) for i in range(5)]
    crosses = [tuple(j for j, p in enumerate(pairs) if i not in p) for i in range(5)]
    return coords, simplices, crosses


def _demicube_data():
    coords = sorted(v for v in product((-1, 1), repeat=5) if v.count(-1) % 2 == 0)
    crosses = [tuple(i for i, v in enumerate(coords) if v[axis] == s)
               for axis in range(5) for s in (-1, 1)]
    simplices = [tuple(i for i, v in enumerate(coords) if sum(a != b for a, b in zip(v, odd)) == 1)
                 for odd in product((-1, 1), repeat=5) if odd.count(-1) % 2]
    return coords, simplices, crosses


_BUILTIN = {3: _prism_data, 4: _rectified_simplex_data, 5: _demicube_data}


# ---------------------------------------------------------------------------
# Wythoff generator, n = 6, 7, 8
# ---------------------------------------------------------------------------


def _fundamental_weight_vector(roots: Sequence[Tuple[int, ...]], node: int) -> Tuple[int, ...]:
    """Integer vector positively proportional to a fundamental weight.

    With C the Cartan matrix (<alpha_i, alpha_j> / 4), the weight is
    sum_j C^-1[j][node - 1] alpha_j, that is w / det C for w = sum_j
    adj(C)[j][node - 1] alpha_j.  Fraction-free Gauss-Jordan elimination
    (Bareiss) of [C | e_node] leaves det C on the diagonal and that column
    of adj(C) on the right; C is positive definite, so no pivot is zero.
    The result is w / gcd(det C, w): the weight with its denominators
    cleared but not reduced, so it stays in twice the weight lattice and
    reflections remain integral.
    """
    k = len(roots)
    a = [[_dot(roots[i], roots[j]) // 4 for j in range(k)] + [int(i == node - 1)] for i in range(k)]
    prev = 1
    for col in range(k):
        p = a[col]
        for r in range(k):
            if r != col:
                f = a[r][col]
                a[r] = [(p[col] * x - f * y) // prev for x, y in zip(a[r], p)]
        prev = p[col]
    adj = [row[k] for row in a]
    w = [sum(adj[j] * roots[j][t] for j in range(k)) for t in range(8)]
    g = gcd(prev, *w)
    return tuple(x // g for x in w)


def _key_places(bound: int, dim: int) -> np.ndarray:
    """Place values that pack a vector of ``dim`` entries in [-bound,
    bound], shifted by ``bound`` and read as digits in base 2 * bound + 1,
    into one int64 key that sorts like the vector."""
    base = 2 * bound + 1
    if base**dim > np.iinfo(np.int64).max:
        raise ValidationError("orbit vector too long for int64 keys")
    return base ** np.arange(dim - 1, -1, -1, dtype=np.int64)


def _root_products(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """<X[i], R[j]> for every row and simple root, each a multiple of 4
    (the roots have norm^2 8, so X[i] - <X[i], R[j]> / 4 * R[j] is X[i]
    reflected in R[j])."""
    D = X @ R.T
    if (D % 4).any():
        raise ValidationError("orbit vector left the reflection lattice")
    return D


def _orbit_rounds(start: Sequence[int], R: np.ndarray, seed: Sequence[int] = (),
                  perms: Optional[np.ndarray] = None):
    """The reverse search of ``_orbit`` by rounds: each round's orbit
    vectors, the rows they carry and their products with ``R``.

    The orbit is a tree rooted at ``start``: the parent of any other
    vector y is y reflected in the first simple root alpha_j with
    <y, alpha_j> < 0.  Each round lists the children of the whole
    frontier at once, in int64: x reflected in every alpha_j with
    <x, alpha_j> > 0, kept when j is that child's first negative root, so
    every orbit vector is listed once and no round deduplicates.  <y, R>
    for y = x - step / 4 * R[j] is <x, R> - step * <R[j], R> / 4, exact
    and a multiple of 4 when the start's products and the Gram entries
    are, so the lattice is checked once.
    """
    frontier = np.array([start], dtype=np.int64)
    carried = np.array([seed], dtype=np.intp)
    D = _root_products(np.concatenate([frontier, R]), R)  # the start's products, then the Gram matrix
    D, cartan = D[:1], D[1:] // 4
    if (D < 0).any():
        raise ValidationError("orbit start is not dominant")
    while len(frontier):
        yield frontier, carried, D
        src, root = np.nonzero(D > 0)
        step = D[src, root]
        D = D[src] - step[:, None] * cartan[root]  # the children's; each root-th entry is -step < 0
        keep = np.argmax(D < 0, axis=1) == root
        D, src, root, step = D[keep], src[keep], root[keep], step[keep]
        frontier = frontier[src] - (step // 4)[:, None] * R[root]
        carried = carried[src] if perms is None else perms[root[:, None], carried[src]]


def _orbit(start: Sequence[int], R: np.ndarray, seed: Sequence[int] = (),
           perms: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """The orbit of the dominant vector ``start`` under the simple
    reflections ``R``, as int64 rows in key order, and the row that each
    orbit vector carries: ``seed`` at ``start``, taken through ``perms[j]``
    by reflection j (an empty row without ``perms``).  Reflections keep
    the norm, so entries lie within isqrt(norm) of zero and pack into keys.
    """
    bound = isqrt(_dot(start, start))
    place = _key_places(bound, R.shape[1])
    parts, rows = [], []
    for frontier, carried, _ in _orbit_rounds(start, R, seed, perms):
        parts.append(frontier)
        rows.append(carried)
    X = np.concatenate(parts)
    order = np.argsort((X + bound) @ place)
    return X[order], np.concatenate(rows)[order]


def _reflection_perms(V: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``perms[j][i]`` is the index in V of V[i] reflected in R[j]: found
    by key lookup among the packed keys of V and checked entry by entry.
    A vertex set that the reflections do not map onto itself is refused."""
    bound = int(np.abs(V).max())
    place = _key_places(bound, V.shape[1])
    keys = (V + bound) @ place
    order = np.argsort(keys)
    # row i * len(R) + j of Y is V[i] reflected in R[j]
    Y = (V[:, None, :] - (_root_products(V, R) // 4)[:, :, None] * R).reshape(-1, V.shape[1])
    at = order[np.searchsorted(keys[order], (Y + bound) @ place).clip(max=len(V) - 1)]
    if not np.array_equal(V[at], Y):
        raise ValidationError("vertex set not closed under the reflections")
    return at.reshape(len(V), len(R)).T


def _orbit_facet_rows(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices of G^n (n in 6..8) and its simplex and cross rows.

    A facet type is the orbit of one facet normal, a fundamental weight;
    the seed facet, the vertices maximizing the inner product with it, is
    carried through the closure as a row of vertex indices.
    """
    roots = _E_ROOTS_2X[:n]
    R = np.array(roots, dtype=np.int64)
    v_node, c_node, s_node = _WEIGHT_NODES[n]
    V, _ = _orbit(_fundamental_weight_vector(roots, v_node), R)
    perms = _reflection_perms(V, R)
    rows: Dict[int, List[np.ndarray]] = {n: [], 2 * (n - 1): []}
    for node in (c_node, s_node):
        normal = _fundamental_weight_vector(roots, node)
        height = V @ np.array(normal, dtype=np.int64)
        seed = np.flatnonzero(height == height.max())
        if len(seed) not in rows:
            raise ValidationError(
                f"weight-orbit facet has {len(seed)} vertices; expected {n} or {2 * (n - 1)}"
            )
        rows[len(seed)].append(_orbit(normal, R, seed, perms)[1])
    dt = np.min_scalar_type(len(V))
    S, C = (np.sort(np.concatenate(r), axis=1).astype(dt) if r else np.empty((0, w), dt)
            for w, r in rows.items())
    if any(len(_row_runs(F)[1]) < len(F) for F in (S, C)):
        raise ValidationError("duplicate facets from distinct orbit normals")
    return V, S, C


# ---------------------------------------------------------------------------
# assembly and validation
# ---------------------------------------------------------------------------
#
# The checks work on the two row arrays: simplex facets have n vertices
# and cross facets 2(n-1), as every caller checks, and the rows hold their
# sorted vertex indices in the smallest unsigned dtype that fits.


def _row_runs(R: np.ndarray, *minor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of R lexicographically (ties broken
    by the ``minor`` keys) and the start of each run of equal rows in it."""
    order = np.lexsort([*minor, *R.T[::-1]])
    R = R[order]
    fresh = np.ones(len(R), dtype=bool)
    fresh[1:] = (R[1:] != R[:-1]).any(axis=1)
    return order, np.flatnonzero(fresh)


def _antipodal_pairs(simplex_rows: np.ndarray, cross_rows: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Diagonals of each cross facet: vertex pairs whose only common facet
    is that facet, one row of n - 1 sorted pairs per cross facet.
    Validates the perfect-matching (cube-dual) structure; refusals name
    the facet by its index among all facets, ``cross`` marking the cross
    facets.

    Each in-facet pair v < w is keyed v * nv + w, nv past the largest
    vertex; the counts of the cross facets' keys and of each simplex
    column pair's, added into one nv^2 array, give each pair's number of
    common facets.
    """
    S, C = simplex_rows, cross_rows
    nv = 1 + max(int(S.max(initial=0)), int(C.max(initial=0)))
    a, b = np.triu_indices(C.shape[1], 1)  # combinations order
    keys = C[:, a].astype(np.intp) * nv + C[:, b]
    counts = np.bincount(keys.ravel(), minlength=nv * nv)
    for i, j in combinations(range(S.shape[1]), 2):
        counts += np.bincount(S[:, i].astype(np.intp) * nv + S[:, j], minlength=nv * nv)
    owner, pair = np.nonzero(counts[keys] == 1)
    ends = np.concatenate([owner * C.shape[1] + a[pair], owner * C.shape[1] + b[pair]])
    degree = np.bincount(ends, minlength=C.size).reshape(C.shape)  # antipodal pairs at each vertex
    two = (degree > 1).any(axis=1)
    bad = two | (degree == 0).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        facet = np.flatnonzero(cross)[k]
        if two[k]:
            raise ValidationError(f"facet {facet}: vertex in two antipodal pairs")
        raise ValidationError(f"facet {facet}: antipodal pairs do not form a matching")
    return np.stack([C[owner, a[pair]], C[owner, b[pair]]], axis=1).reshape(len(C), C.shape[1] // 2, 2)


def _ridge_check(simplex_rows: np.ndarray, pair_rows: np.ndarray) -> int:
    """Every ridge of every facet must be shared by exactly two facets.

    This is the completeness oracle for the facet list: a missing facet
    would leave some ridge covered once.  A simplex facet's ridges drop
    one vertex; a cross facet's take one vertex of each diagonal, sorted
    by an odd-even transposition network on the columns.  Each ridge's
    sorted vertices pack by Horner's rule, in place, into one int64 key
    below nv^(n-1), nv past the largest vertex.  Sorted in place, the keys
    must come in equal pairs with unequal neighbouring pairs; the bad
    ridges are counted only to refuse.  Returns the ridge count.  This
    packing is kept beside ``simplicial.row_keys``, whose uint64 copy of
    every ridge row took 20 ms and a 23 MiB traced peak on G^8's rows
    against 11 ms and 11.6 MiB.
    """
    S, P = simplex_rows, pair_rows
    k = S.shape[1] - 1
    nv = 1 + max(int(S.max(initial=0)), int(P.max(initial=0)))
    if nv**k > np.iinfo(np.int64).max:
        raise ValidationError("ridge rows too long for int64 keys")
    cols = list(np.moveaxis(cube_face_rows(P, k), 2, 0))  # one end of each diagonal, as columns
    for r in range(k):
        for i in range(r % 2, k - 1, 2):
            cols[i], cols[i + 1] = np.minimum(cols[i], cols[i + 1]), np.maximum(cols[i], cols[i + 1])
    ns = len(S)
    keys = np.empty(ns * (k + 1) + cols[0].size, dtype=np.int64)

    def pack(key: np.ndarray, cols: List[np.ndarray]) -> None:
        key[...] = cols[0]
        for col in cols[1:]:
            key *= nv
            key += col

    pack(keys[ns * (k + 1):].reshape(cols[0].shape), cols)
    for i in range(k + 1):
        pack(keys[i * ns:(i + 1) * ns], [S[:, j] for j in range(k + 1) if j != i])
    keys.sort()
    if len(keys) % 2 or (keys[0::2] != keys[1::2]).any() or (keys[1:-1:2] == keys[2::2]).any():
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        bad = int(np.count_nonzero(np.diff(np.append(starts, len(keys))) != 2))
        raise ValidationError(f"{bad} ridges not shared by exactly two facets")
    return len(keys) // 2


def _graded_faces(
    n: int, simplex_rows: np.ndarray, pair_rows: np.ndarray, cross: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """The faces of dimension d < n - 1, one array each per dimension: the
    sorted vertex rows of the d-faces in sorted order, and the widths and
    flat ids of their facet rows, the facets that hold each face.

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
    simplex, cross_ids = np.flatnonzero(~cross), np.flatnonzero(cross)
    rows, widths, owners = [], [], []
    for k in range(1, n):
        pick = np.array(list(combinations(range(n), k)))
        ends = np.sort(cube_face_rows(pair_rows, k), axis=2)
        R = np.concatenate([simplex_rows[:, pick].reshape(-1, k), ends.reshape(-1, k)])
        owner = np.concatenate([np.repeat(simplex, len(pick)), np.repeat(cross_ids, ends.shape[1])])
        order, starts = _row_runs(R, owner)
        rows.append(R[order[starts]])
        widths.append(np.diff(np.append(starts, len(R))))
        owners.append(owner[order])
    return rows, widths, owners


def _assemble(
    n: int,
    num_vertices: int,
    simplex_rows: np.ndarray,
    cross_rows: np.ndarray,
    coords: Optional[Sequence[Sequence[int]]],
    full_lattice: bool,
) -> GossetPolytope:
    """Sort, check and adopt a facet list given as sorted vertex rows, n
    wide for the simplex facets and 2(n-1) wide for the cross facets."""
    dt = np.min_scalar_type(num_vertices)
    S, C = simplex_rows.astype(dt, copy=False), cross_rows.astype(dt, copy=False)
    ns = len(S)
    # facets in order of their sorted vertex tuples: rows of v + 1, 0-padded
    padded = np.zeros((ns + len(C), 2 * (n - 1)), dtype=dt)
    padded[:ns, :n] = S + 1
    padded[ns:] = C + 1
    order, starts = _row_runs(padded)
    cross = order >= ns
    S, C = S[order[~cross]], C[order[cross] - ns]
    pairs = _antipodal_pairs(S, C, cross)
    _ridge_check(S, pairs)
    counts = np.bincount(S.ravel(), minlength=num_vertices) + np.bincount(C.ravel(), minlength=num_vertices)
    if not counts.all():
        raise ValidationError("some vertex lies on no facet")

    nf = len(order)
    face_rows = None
    if full_lattice:
        face_rows, widths, owners = _graded_faces(n, S, pairs, cross)
        # the facets last, one face per vertex set: a facet set {i, j} if
        # facets i and j share one
        widths.append(np.diff(np.append(starts, nf)))
        owners.append(np.arange(nf))
        ranks = np.repeat(np.arange(n), [len(w) for w in widths])
        lattice = FaceLattice.from_arrays(n, nf, ranks, np.cumsum(np.concatenate([[0], *widths])),
                                          np.concatenate(owners))
        face_rows = tuple(face_rows)
    else:  # each vertex's facets, in order, then the facet singletons; the
        # facets by one sort of the keys vertex * nf + facet, as small as fit
        facet = np.arange(nf, dtype=np.min_scalar_type(-len(counts) * nf))
        flat = np.concatenate([(F.astype(facet.dtype) * nf + facet[at, None]).ravel()
                               for F, at in ((S, ~cross), (C, cross))] + [facet])
        flat[:-nf].sort()
        flat[:-nf] %= nf
        lattice = FaceLattice.from_arrays(
            n, nf, np.repeat([0, n - 1], [num_vertices, nf]),
            np.cumsum(np.concatenate(([0], counts, np.ones(nf, dtype=counts.dtype)))), flat)
    return GossetPolytope(
        n, num_vertices, cross, S, C, pairs, lattice, face_rows,
        tuple(tuple(c) for c in coords) if coords else None,
    )


def gosset(n: int, full_lattice: Optional[bool] = None) -> GossetPolytope:
    """The Gosset polytope G^n for 3 <= n <= 8.

    ``full_lattice`` defaults to True for n <= 6; for n in {7, 8} only
    vertices and facets are materialized unless it is forced on.  If a
    pre-computed lattice file ``gosset{n}.json`` exists under
    $CUSPFORGE_DATA, it is ingested and validated instead of running the
    generator; a path there that cannot be read as UTF-8 text is refused.
    """
    if not 3 <= n <= 8:
        raise ValidationError("gosset polytopes exist for 3 <= n <= 8 only")
    if full_lattice is None:
        full_lattice = n <= 6
    directory = os.environ.get("CUSPFORGE_DATA")
    if directory:
        path = os.path.join(directory, f"gosset{n}.json")
        if os.path.exists(path):
            return ingest_gosset(read_file(path), n)
    if n in _BUILTIN:
        coords, simplices, crosses = _BUILTIN[n]()
        dt = np.min_scalar_type(len(coords))
        return _assemble(n, len(coords), np.array(simplices, dtype=dt), np.array(crosses, dtype=dt),
                         coords, full_lattice=full_lattice)
    V, S, C = _orbit_facet_rows(n)
    return _assemble(n, len(V), S, C, V.tolist(), full_lattice=full_lattice)


def ingest_gosset(text: str, n: int) -> GossetPolytope:
    """Validate and adopt an externally computed face-lattice file for G^n."""
    lat = FaceLattice.from_json(text)
    if lat.rank != n:
        raise ValidationError(f"ingested lattice has rank {lat.rank}, expected {n}")
    return gosset_from_lattice(lat)


def gosset_from_lattice(lat: FaceLattice) -> GossetPolytope:
    """Read G^n from its face lattice, n its rank.

    The vertices, read by the facets through them, must lie on simplex
    facets of n vertices and cross facets of 2(n-1), and their numbers
    must be G^n's."""
    n = lat.rank
    if n not in _GOSSET_COUNTS:
        raise ValidationError("gosset polytopes exist for 3 <= n <= 8 only")
    ptr, facets = lat.rows_of_rank(0)
    num_vertices = len(ptr) - 1
    sizes = np.bincount(facets, minlength=lat.num_facets)
    bad = (sizes != n) & (sizes != 2 * (n - 1))
    if bad.any():
        size = sizes[np.argmax(bad)]
        raise ValidationError(f"ingested facet has {size} vertices; expected {n} or {2 * (n - 1)}")
    found = (num_vertices, int(np.count_nonzero(sizes == n)), int(np.count_nonzero(sizes != n)))
    if found != _GOSSET_COUNTS[n]:
        raise ValidationError("ingested lattice has {} vertices, {} simplex and {} cross facets; "
                              "G^{} has {}, {} and {}".format(*found, n, *_GOSSET_COUNTS[n]))
    # each facet's vertices, ascending: the vertex of each incidence, by facet
    verts = np.repeat(np.arange(num_vertices), np.diff(ptr))[np.argsort(facets, kind="stable")]
    start = np.cumsum(sizes) - sizes
    S, C = (verts[start[sizes == w][:, None] + np.arange(w)] for w in (n, 2 * (n - 1)))
    return _assemble(n, num_vertices, S, C, None, full_lattice=lat.is_complete())


# ---------------------------------------------------------------------------
# ideal dual
# ---------------------------------------------------------------------------


def ideal_dual(G: GossetPolytope) -> IdealPolytope:
    """P^n: the dual with cross-polytope facets of G^n read as ideal vertices.

    The lattice is built from G's row arrays: the vertices of P are G's
    facets in G's facet order, n or 2(n-1) wide, marked ideal where G's
    facet is a cross facet; the other faces are G's vertices as facet
    singletons or, on a full lattice, G's lower faces, one array per
    dimension.  G's facets are numbered in order of their sorted vertex
    tuples, which is the lattice's canonical vertex order, so every block
    arrives in order and none is sorted again.  The ideal rows are G's
    cross rows, already in that order.
    """
    n = G.n
    if G.cross_rows.shape[1] != 2 * (n - 1):
        raise ValidationError("ideal vertex without a cube link")
    width = np.where(G.cross, 2 * (n - 1), n)
    padded = np.zeros((len(G.cross), 2 * (n - 1)), dtype=G.cross_rows.dtype)
    padded[~G.cross, :n] = G.simplex_rows
    padded[G.cross] = G.cross_rows
    blocks = ([(n - 1, np.arange(G.num_vertices).reshape(-1, 1))] if G.face_rows is None
              else [(n - 1 - d, rows) for d, rows in enumerate(G.face_rows)])
    sizes = [len(G.cross)] + [len(rows) for _, rows in blocks]
    widths = np.concatenate([width, *(np.full(len(rows), rows.shape[1]) for _, rows in blocks)])
    lattice = FaceLattice.from_arrays(
        n, G.num_vertices, np.repeat([0] + [k for k, _ in blocks], sizes),
        np.concatenate(([0], np.cumsum(widths))),
        np.concatenate([padded[np.arange(padded.shape[1]) < width[:, None]],
                        *(rows.ravel() for _, rows in blocks)]),
        np.concatenate([G.cross, np.zeros(len(widths) - len(G.cross), dtype=bool)]),
    )
    return IdealPolytope(n, lattice, G.cross_rows, G.pair_rows)


def ideal_polytope_from_lattice(lattice: FaceLattice) -> IdealPolytope:
    """Read P^n from a marked face-lattice document.

    The vertex rows of P are the facet rows of G: an ideal vertex, 2(n-1)
    facets wide, is a cross facet and a real vertex, n wide, a simplex
    facet.  They pass the checks of a generated facet list (antipodal
    matching, ridges, vertex coverage), and the lattice is refused unless
    it is the ideal dual of the G they assemble, which is returned.
    """
    n = lattice.rank
    if n not in _GOSSET_COUNTS:
        raise ValidationError("ideal polytopes P^n exist for 3 <= n <= 8 only")
    ptr, facets = lattice.rows_of_rank(0)
    widths = np.diff(ptr)
    ideal = lattice.arrays()[3][:len(widths)]  # vertices come first
    if (widths[ideal] != 2 * (n - 1)).any():
        raise ValidationError("ideal vertex has wrong facet count")
    if (widths[~ideal] != n).any():
        raise ValidationError("real vertex is not simple")
    at_ideal = np.repeat(ideal, widths)
    G = _assemble(n, lattice.num_facets, facets[~at_ideal].reshape(-1, n),
                  facets[at_ideal].reshape(-1, 2 * (n - 1)), None, full_lattice=lattice.is_complete())
    P = ideal_dual(G)
    if P.lattice != lattice:
        raise ValidationError("lattice is not the ideal dual of its vertex rows")
    return P
