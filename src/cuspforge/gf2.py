"""GF(2) linear algebra on int bitsets.

A matrix is a list of rows; each row is a Python int whose bit j is the
entry in column j.  Pivots are always chosen at the lowest set bit, so
every routine is deterministic for a fixed input ordering.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def lowbit(x: int) -> int:
    """Index of the lowest set bit (x must be nonzero)."""
    return (x & -x).bit_length() - 1


def reduce_rows(rows: Iterable[int]) -> Dict[int, int]:
    """Row reduce; returns {pivot column: reduced row}."""
    pivots: Dict[int, int] = {}
    for row in rows:
        row = reduce_vector(row, pivots)
        if row:
            pivots[lowbit(row)] = row
    return pivots


def reduce_vector(v: int, pivots: Dict[int, int]) -> int:
    """Reduce v against a pivot dict (lowest-bit pivots)."""
    while v:
        p = lowbit(v)
        row = pivots.get(p)
        if row is None:
            return v
        v ^= row
    return v


def rref_pivots(pivots: Dict[int, int]) -> Dict[int, int]:
    """Inter-reduce pivot rows so each pivot bit appears in one row only."""
    out: Dict[int, int] = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in sorted(out):
            if q != p and (row >> q) & 1:
                row ^= out[q]
        out[p] = row
    return out


def normal_form(v: int, rref: Dict[int, int]) -> int:
    """Canonical representative of v modulo the row space (rref rows)."""
    for q in rref:
        if (v >> q) & 1:
            v ^= rref[q]
    return v


def rank_of_rows(rows: Iterable[int]) -> int:
    return len(reduce_rows(rows))


def reduce_tagged(v: int, pivots: Dict[int, Tuple[int, int]], tag: int = 0) -> Tuple[int, int]:
    """Reduce v against {pivot column: (row, tag)} (lowest-bit pivots).

    Returns (residue, tag xor the tags of every row used), so a tag
    records which combination of inputs the residue differs from v by.
    """
    while v:
        hit = pivots.get(lowbit(v))
        if hit is None:
            break
        v ^= hit[0]
        tag ^= hit[1]
    return v, tag


def _tagged_pivots(
    rows: Sequence[int], skip: Container[int] = ()
) -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
    """Row reduce with tags (bit i = input row i): the pivots, and the tags
    of the rows that reduced to zero.  Rows whose index is in ``skip`` are
    left out, as if absent."""
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel: List[int] = []
    for i, row in enumerate(rows):
        if i in skip:
            continue
        row, tag = reduce_tagged(row, pivots, 1 << i)
        if row:
            pivots[lowbit(row)] = (row, tag)
        else:
            kernel.append(tag)
    return pivots, kernel


def left_kernel_basis(rows: Sequence[int]) -> List[int]:
    """Basis of {x : sum of rows selected by x is 0}, one bitmask per vector."""
    return _tagged_pivots(rows)[1]


def solve_rows(rows: Sequence[int], target: int) -> Optional[int]:
    """Find x (bitmask over rows) with xor of selected rows == target, or None."""
    residue, x = reduce_tagged(target, _tagged_pivots(rows)[0])
    return None if residue else x


def transpose_rows(rows: Sequence[int], ncols: int) -> List[int]:
    """Transpose a bit-row matrix; numpy-packed for anything non-tiny."""
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return [0] * ncols
    if nrows * ncols <= 4096:
        out = [0] * ncols
        for i, r in enumerate(rows):
            while r:
                j = lowbit(r)
                out[j] |= 1 << i
                r &= r - 1
        return out
    nbytes = (ncols + 7) // 8
    buf = np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    ).reshape(nrows, nbytes)
    bits = np.unpackbits(buf, axis=1, bitorder="little")[:, :ncols]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(packed[j].tobytes(), "little") for j in range(ncols)]


def identity_rows(n: int) -> List[int]:
    return [1 << i for i in range(n)]


def vector_from_indices(indices: Iterable[int]) -> int:
    acc = 0
    for i in indices:
        acc |= 1 << i
    return acc


def submasks(mask: int) -> Iterator[int]:
    """Every v with v & ~mask == 0, in increasing order from 0 to mask."""
    v = 0
    while True:
        yield v
        if v == mask:
            return
        v = (v - mask) & mask


def indices_of_vector(v: int) -> List[int]:
    out = []
    while v:
        out.append(lowbit(v))
        v &= v - 1
    return out
