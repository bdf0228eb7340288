"""Isomorphism testing for simplicial complexes and cube subcomplexes.

Canonical-labelling by iterative colour refinement plus backtracking.
Instances in this library are small (a few hundred vertices), so the
worst-case cost of backtracking is acceptable; determinism comes from
processing everything in sorted order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .simplicial import SimplicialComplex


def _refined_colours(K: SimplicialComplex) -> Dict[int, Tuple]:
    verts = K.vertices()
    facets_at: Dict[int, List[Tuple[int, ...]]] = {v: [] for v in verts}
    for f in K.facets:
        for v in f:
            facets_at[v].append(f)
    colour: Dict[int, Tuple] = {
        v: tuple(sorted(len(f) for f in facets_at[v])) for v in verts
    }
    while True:
        classes = {}
        for v in verts:
            sig = (
                colour[v],
                tuple(sorted(
                    (len(f), tuple(sorted(colour[w] for w in f if w != v)))
                    for f in facets_at[v]
                )),
            )
            classes[v] = sig
        # compress signatures to dense ranks for cheap comparison
        ranks = {sig: i for i, sig in enumerate(sorted(set(classes.values())))}
        new_colour = {v: (ranks[classes[v]],) for v in verts}
        if len(set(new_colour.values())) == len(set(colour.values())):
            return new_colour
        colour = new_colour


def find_isomorphisms(A: SimplicialComplex, B: SimplicialComplex) -> Iterator[Dict[int, int]]:
    """Yield facet-preserving bijections of used vertices, in sorted order."""
    if A.f_vector() != B.f_vector():
        return
    colA = _refined_colours(A)
    colB = _refined_colours(B)
    if sorted(colA.values()) != sorted(colB.values()):
        return
    vertsA = sorted(A.vertices())
    b_facets: FrozenSet[FrozenSet[int]] = frozenset(frozenset(f) for f in B.facets)
    b_facet_list = [frozenset(f) for f in B.facets]
    a_facets_at: Dict[int, List[Tuple[int, ...]]] = {v: [] for v in vertsA}
    for f in A.facets:
        for v in f:
            a_facets_at[v].append(f)

    # order vertices so each new one touches as many mapped ones as possible
    order: List[int] = []
    placed = set()
    remaining = set(vertsA)
    while remaining:
        def score(v):
            return (-sum(1 for f in a_facets_at[v] for w in f if w in placed), v)
        v = min(remaining, key=score)
        order.append(v)
        placed.add(v)
        remaining.remove(v)

    candidates = {
        v: tuple(sorted(w for w in B.vertices() if colB[w] == colA[v]))
        for v in vertsA
    }

    mapping: Dict[int, int] = {}
    used: set = set()

    def consistent(v: int) -> bool:
        for f in a_facets_at[v]:
            image = [mapping[w] for w in f if w in mapping]
            img = frozenset(image)
            if len(image) == len(f):
                if img not in b_facets:
                    return False
            else:
                if not any(len(bf) == len(f) and img <= bf for bf in b_facet_list):
                    return False
        return True

    def extend(idx: int) -> Iterator[Dict[int, int]]:
        if idx == len(order):
            yield dict(mapping)
            return
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            mapping[v] = w
            used.add(w)
            if consistent(v):
                yield from extend(idx + 1)
            del mapping[v]
            used.remove(w)

    yield from extend(0)


def find_isomorphism(A: SimplicialComplex, B: SimplicialComplex) -> Optional[Dict[int, int]]:
    """First facet-preserving vertex bijection, or None."""
    for iso in find_isomorphisms(A, B):
        return iso
    return None


def cubical_isomorphism(Z1, Z2) -> Optional[Dict[int, int]]:
    """Ambient-coordinate permutation identifying two cube subcomplexes.

    Searches vertex bijections of the support complexes, extends each to
    a permutation of the ambient coordinates, and verifies that it maps
    the cell set of Z1 onto the cell set of Z2 exactly.
    """
    if Z1.ambient != Z2.ambient or Z1.cell_counts() != Z2.cell_counts():
        return None
    m = Z1.ambient
    for iso in find_isomorphisms(Z1.support_complex(), Z2.support_complex()):
        perm = dict(iso)
        left = sorted(set(range(m)) - set(perm))
        right = sorted(set(range(m)) - set(perm.values()))
        perm.update(zip(left, right))
        if Z1.relabel(perm) == Z2:
            return perm
    return None
