"""GF(2) linear algebra on int bitsets.

A matrix is a list of rows; each row is a Python int whose bit j is the
entry in column j.  One elimination builds every set of pivots:
``_tagged_pivots`` reduces the rows in order at their highest set bit,
which ``int.bit_length`` reads in O(1), keys each pivot by that column,
and tags each reduced row with the input rows it sums.  Every stored
pivot row has its highest bit at its key.  Ranks are its pivot counts,
kernels its zero rows' tags, a solve is one ``reduce_tagged`` against its
pivots, and a coset representative one ``normal_form`` sweep over them.
Every routine is deterministic for a fixed input ordering.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Tuple


def lowbit(x: int) -> int:
    """Index of the lowest set bit (x must be nonzero)."""
    return (x & -x).bit_length() - 1


def reduce_tagged(v: int, pivots: Dict[int, Tuple[int, int]], tag: int = 0) -> Tuple[int, int]:
    """Reduce v against {pivot column: (row, tag)} (highest-bit pivots).

    Returns (residue, tag xor the tags of every row used), so a tag
    records which combination of inputs the residue differs from v by.
    """
    while v:
        hit = pivots.get(v.bit_length() - 1)
        if hit is None:
            break
        v ^= hit[0]
        tag ^= hit[1]
    return v, tag


def _tagged_pivots(
    rows: Iterable[int], skip: Container[int] = ()
) -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
    """Row reduce with tags (bit i = input row i): the pivots, in input
    order, and the tags of the rows that reduced to zero.  Rows whose index
    is in ``skip`` are left out, as if absent.  The loop is
    ``reduce_tagged``'s, inlined so that each step reads the row's highest
    bit once, and that bit keys the new pivot."""
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel: List[int] = []
    get = pivots.get
    for i, row in enumerate(rows):
        if i in skip:
            continue
        tag = 1 << i
        while row:
            top = row.bit_length() - 1
            hit = get(top)
            if hit is None:
                pivots[top] = (row, tag)
                break
            row ^= hit[0]
            tag ^= hit[1]
        else:
            kernel.append(tag)
    return pivots, kernel


def pivot_rows(rows: Iterable[int], skip: Container[int] = ()) -> Tuple[Dict[int, int], List[int]]:
    """``_tagged_pivots`` with the pivots' tags dropped: {pivot column: row}
    and the kernel tags."""
    pivots, kernel = _tagged_pivots(rows, skip)
    return {p: row for p, (row, _) in pivots.items()}, kernel


def rank_of_rows(rows: Iterable[int]) -> int:
    return len(_tagged_pivots(rows)[0])


def normal_form(v: int, pivots: Dict[int, int]) -> int:
    """Canonical representative of v modulo the span of {pivot column: row}.

    One sweep in decreasing column order clears each pivot column of v,
    and no row touches a column above its own pivot.  The pivot columns
    of a span do not depend on which basis was reduced, so neither does
    the result.
    """
    for q in sorted(pivots, reverse=True):
        if (v >> q) & 1:
            v ^= pivots[q]
    return v


def vector_from_indices(indices: Iterable[int]) -> int:
    acc = 0
    for i in indices:
        acc |= 1 << i
    return acc


def indices_of_vector(v: int) -> List[int]:
    out = []
    while v:
        out.append(lowbit(v))
        v &= v - 1
    return out
