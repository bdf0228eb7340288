"""Orientability, the spin obstruction, and cusp spin-type certificates.

Orientability is ``chains.propagate_signs`` over the top boundary map.
The propagation checks each ridge from both sides, which forces its two
incidences to be +-1 and the signed ones to cancel there, so the signs
it returns are an orientation with no further check.

The two cusp labels are certificate-based: a cusp is Bounding when the
filled-in closed manifold is verified spinnable (a spin structure there
restricts and extends over the filling solid tori), and Lie-achievable
when first cohomology of the big manifold surjects onto that of the
cusp torus, so any torus spin structure is realized by restriction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .chains import (
    ChainComplexData,
    SubcomplexSelection,
    _splittings,
    chain_complex_of,
    cohomology_z2_basis,
    integral_homology_basis,
    propagate_signs,
)
from .errors import CertificateError, ValidationError
from .snf import smith_normal_form

BOUNDING = "Bounding"
LIE = "Lie"
UNDETERMINED = "Undetermined"

REAL_SPECTRUM = "Real"
DISCRETE_SPECTRUM = "Discrete"
UNKNOWN_SPECTRUM = "Unknown"


# ---------------------------------------------------------------------------
# orientability (w1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientabilityResult:
    orientable: bool
    top_cells: int
    orientation: Optional[Tuple[int, ...]]  # +-1 per top cell when orientable

    def __bool__(self) -> bool:
        return self.orientable


def orientability(X, data: Optional[ChainComplexData] = None) -> OrientabilityResult:
    """w1 = 0 test: the top integral homology is Z.

    ``propagate_signs`` over d_top refuses a complex that is not closed and
    signs the top cells.  A ridge with incidences a (cell c) and b (cell c')
    is checked from both sides, s' = -s a b and s = -s' a b, so (a b)^2 = 1
    and s a + s' b = 0: the signed top boundary vanishes exactly once the
    propagation completes.  Linear-time, unlike rank arguments on the
    Smith form.  The result is kept on ``data``, so the spin obstruction
    reads it without a second propagation.
    """
    if data is None:
        data = chain_complex_of(X, "Z")
    if data._orientability is None:
        n = data.top_dim
        if n < 1:
            raise ValidationError("orientability needs positive dimension")
        n_top = data.size(n)
        cells, faces, coeffs = data._entries(n)
        sign, _ = propagate_signs(cells, faces, coeffs, n_top, data.size(n - 1))
        data._orientability = OrientabilityResult(sign is not None, n_top,
                                                  None if sign is None else tuple(sign))
    return data._orientability


# ---------------------------------------------------------------------------
# spin obstruction (w2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WuReport:
    vanishes: Optional[bool]  # None = undetermined
    provenance: str
    dimension: int
    b2: Optional[int] = None
    diagonal: Optional[Tuple[int, ...]] = None
    wu_class_coords: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(self.vanishes)


def intersection_form(data: ChainComplexData) -> Tuple[List[int], List[int]]:
    """Mod-2 intersection form on H^2 of a closed 4-complex.

    Returns (rows of the Gram matrix as bitmasks, diagonal entries).
    Pairings are evaluated at cochain level against the sum of all top
    cells; class-level well-definedness holds because the arguments are
    cocycles and the complex is closed.
    """
    _, fronts, backs = _splittings(data, 2, 2)
    reps = cohomology_z2_basis(data, 2).representatives
    b2 = len(reps)
    # bit-sliced: bit s of front[i] (back[i]) is reps[i] on splitting s's front (back) face
    nbytes = -(-data.size(2) // 8)
    bits = np.unpackbits(np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in reps), np.uint8),
                         bitorder="little").reshape(b2, 8 * nbytes)
    front, back = ([int.from_bytes(row.tobytes(), "little") for row in
                    np.packbits(np.take(bits, c, axis=1), 1, bitorder="little")] for c in (fronts, backs))
    rows = [0] * b2
    diag = [0] * b2
    for i in range(b2):
        for j in range(i, b2):
            if (front[i] & back[j]).bit_count() & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                if i == j:
                    diag[i] = 1
    return rows, diag


def spin_obstruction(Z, data: Optional[ChainComplexData] = None) -> WuReport:
    """w2 = 0 test for closed orientable complexes of dimension <= 4.

    A complex that is not closed (a ridge outside exactly two top cells)
    is refused with ``ValidationError``, in the words of ``orientability``.
    Dimension 2 reads w2 as the Euler characteristic mod 2.  Dimensions 3
    and 4 find v2, and w2 = v2 + w1^2, so a complex that is not orientable
    is refused with ``ValidationError``.  Dimension 3 is forced (orientable
    3-manifolds carry spin structures).  Dimension 4 computes the mod-2
    intersection form and checks evenness; the characteristic-vector
    equation Q v = diag(Q) is solved as the degree-2 Wu class.
    Dimension >= 5 is reported Undetermined: the vanishing holds for
    every sphere-based real moment-angle manifold in this pipeline, but
    is not recomputed here.
    """
    if data is None:
        data = chain_complex_of(Z, "Z2")
    n = data.top_dim
    if n in (3, 4):
        if not orientability(Z, data):
            raise ValidationError(f"spin obstruction in dimension {n} needs an orientable complex; "
                                  "this one is not orientable")
    elif n >= 1:
        data._check_closed()
    if n == 2:
        even = data.euler_characteristic() % 2 == 0
        return WuReport(even, "Euler characteristic parity", 2)
    if n == 3:
        return WuReport(True, "dimension-forced: closed orientable 3-manifolds are spin", 3)
    if n >= 5:
        return WuReport(None, "not computed in dimension >= 5; expected to vanish for "
                              "sphere-based moment-angle manifolds", n)
    if n != 4:
        raise ValidationError("spin obstruction defined for dimensions 2, 3, 4")
    rows, diag = intersection_form(data)
    b2 = len(rows)
    # one elimination of the Gram rows gives the rank and solves for Wu
    pivots = gf2._tagged_pivots(rows)[0]
    if len(pivots) != b2:
        raise ValidationError("intersection form is degenerate; not a closed manifold?")
    diag_bits = gf2.vector_from_indices(i for i, d in enumerate(diag) if d)
    residue, wu = gf2.reduce_tagged(diag_bits, pivots)
    if residue:
        raise ValidationError("characteristic-vector equation unsolvable")
    vanishes = diag_bits == 0
    provenance = "even intersection form" if vanishes else "odd intersection form"
    return WuReport(vanishes, provenance, 4, b2=b2, diagonal=tuple(diag), wu_class_coords=wu)


# ---------------------------------------------------------------------------
# spin structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinStructureSet:
    spinnable: bool
    structure_count: Optional[int]
    b1_mod2: Optional[int]
    note: str = "structures form an affine space over H^1(M; Z/2)"


def spin_structures(Z, data: Optional[ChainComplexData] = None,
                    orient: Optional[OrientabilityResult] = None,
                    wu: Optional[WuReport] = None) -> SpinStructureSet:
    """Count spin structures: 2^(dim H^1(M; Z/2)) once w1 = w2 = 0."""
    if data is None:
        data = chain_complex_of(Z, "Z2")
    if orient is None:
        orient = orientability(Z, data)
    if not orient.orientable:
        raise CertificateError("spin structures requested on a non-orientable complex")
    if wu is None:
        wu = spin_obstruction(Z, data)
    if wu.vanishes is not True:
        raise CertificateError("spin structures requested without a vanished obstruction")
    b1 = len(data.gf2_coreduction(1)[1])  # the Z/2 cocycle basis of degree 1, whatever the tag
    return SpinStructureSet(True, 1 << b1, b1)


# ---------------------------------------------------------------------------
# cusp certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummandCertificate:
    ok: bool
    matrix: Tuple[Tuple[int, ...], ...]
    invariant_factors: Tuple[int, ...]
    torus_rank: int
    torus_torsion: Tuple[int, ...]


def summand_certificate(
    selection: SubcomplexSelection,
    expected_rank: Optional[int] = None,
    parent_basis=None,
) -> SummandCertificate:
    """Split-injection test for H_1(T; Z) -> H_1(M; Z).

    The inclusion has an integral left inverse iff the matrix of the
    free parts has full rank with all invariant factors 1; homomorphisms
    from finite groups to Z vanish, so torsion plays no role.
    """
    ha = integral_homology_basis(selection.data, 1)
    if ha.torsion:
        raise ValidationError("subcomplex does not have torsion-free H_1")
    if expected_rank is not None and ha.free_rank != expected_rank:
        raise ValidationError(
            f"subcomplex H_1 has rank {ha.free_rank}, expected {expected_rank}"
        )
    hx = parent_basis if parent_basis is not None else integral_homology_basis(selection.parent, 1)
    # column j: T's free generator j pushed into M, in M's free coordinates
    cols = [hx.project(selection.scatter_chain(g, 1))[0] for g in ha.free_generators]
    matrix = tuple(tuple(col[i] for col in cols) for i in range(hx.free_rank))
    snf = smith_normal_form(matrix, nrows=len(matrix), ncols=ha.free_rank)
    ok = snf.rank == ha.free_rank and all(d == 1 for d in snf.diag[: snf.rank])
    return SummandCertificate(
        ok=ok,
        matrix=matrix,
        invariant_factors=tuple(snf.diag[: snf.rank]),
        torus_rank=ha.free_rank,
        torus_torsion=ha.torsion,
    )


@dataclass(frozen=True)
class LieCertificate:
    ok: bool
    restriction_rank: int
    target_dim: int
    matrix_rows: Tuple[int, ...]


def lie_cusp_certificate(
    selection: SubcomplexSelection,
    spinnable: Optional[bool] = None,
    parent_basis=None,
) -> LieCertificate:
    """Lie-achievability: H^1(M; Z/2) surjects onto H^1(T; Z/2).

    When the restriction is onto, every spin structure of the cusp
    torus, the Lie one included, is the restriction of one on M.
    """
    if spinnable is False:
        raise CertificateError("Lie certificate needs a spinnable ambient manifold")
    basis_m = parent_basis if parent_basis is not None else cohomology_z2_basis(selection.parent, 1)
    basis_t = cohomology_z2_basis(selection.data, 1)
    # row i: M's basis class i restricted to T, as a coefficient bitmask in T's basis
    rows = tuple(basis_t.coordinates(selection.gather_cochain(rep, 1)) for rep in basis_m.representatives)
    rank = gf2.rank_of_rows(rows)  # one elimination: onto exactly when it is the target's dimension
    return LieCertificate(
        ok=rank == basis_t.dimension,
        restriction_rank=rank,
        target_dim=basis_t.dimension,
        matrix_rows=rows,
    )


@dataclass(frozen=True)
class CuspType:
    cusp_id: str
    label: str
    provenance: str


def bounding_filling_certificate(
    cusp_ids: Sequence[str],
    filled_orientable: OrientabilityResult,
    filled_wu: WuReport,
) -> Tuple[CuspType, ...]:
    """All-Bounding labels backed by a spin-verified filling.

    A spin structure on the filled manifold restricts to the cusped one
    and extends over each filling solid torus, so every cusp section
    inherits the bounding structure; existence of such a structure is
    equivalent to having a spinnable filling at all.
    """
    if not filled_orientable.orientable:
        raise CertificateError("filling is not orientable; certificate unavailable")
    if filled_wu.vanishes is not True:
        raise CertificateError("filling spin obstruction not verified to vanish")
    provenance = "extends over the spin-verified filling (%s)" % filled_wu.provenance
    return tuple(CuspType(cid, BOUNDING, provenance) for cid in cusp_ids)


def dirac_label(labels: Sequence[str]) -> str:
    """Spectrum type from the cusp labels: Real if any Lie cusp,
    Discrete if all cusps bound, Unknown otherwise."""
    if any(label == LIE for label in labels):
        return REAL_SPECTRUM
    if labels and all(label == BOUNDING for label in labels):
        return DISCRETE_SPECTRUM
    return UNKNOWN_SPECTRUM


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinReport:
    spinnable: bool
    structure_count: Optional[int]
    cusps: Tuple[CuspType, ...]
    dirac: str
    filling_summary: Optional[Dict] = None

    def to_json(self) -> str:
        payload = {
            "spinnable": self.spinnable,
            "structure_count": str(self.structure_count) if self.structure_count is not None else None,
            "cusps": [
                {"id": c.cusp_id, "label": c.label, "provenance": c.provenance}
                for c in self.cusps
            ],
            "dirac": self.dirac,
        }
        if self.filling_summary is not None:
            payload["filling"] = self.filling_summary
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spin_report(Z, cusp_ids: Sequence[str], data: Optional[ChainComplexData] = None,
                **summary) -> SpinReport:
    """The all-Bounding report of a filling Z: its orientability, spin
    obstruction and spin structures, read off one Z/2 chain complex
    (``data``, built here when not given), back the labels of ``cusp_ids``.
    The filling summary holds Z's cell count, its orientability, the w2
    provenance and the ``summary`` fields."""
    if data is None:
        data = chain_complex_of(Z, "Z2")
    orient = orientability(Z, data)
    wu = spin_obstruction(Z, data)
    spin = spin_structures(Z, data, orient, wu)
    labels = bounding_filling_certificate(cusp_ids, orient, wu)
    return SpinReport(
        spinnable=True,
        structure_count=spin.structure_count,
        cusps=labels,
        dirac=dirac_label([c.label for c in labels]),
        filling_summary={"cells": Z.num_cells(), "orientable": orient.orientable, "w2": wu.provenance,
                         **summary},
    )
