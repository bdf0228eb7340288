"""End-to-end presets and verification suites.

``run_pipeline`` chains generator, dual, filling, subdivision, duality
check, colouring, manifold check, homology, characteristic classes,
census, and the bounding certificate into one deterministic run,
writing every intermediate artifact when an output directory is given.
Artifacts carry no timestamps, so re-runs are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .characteristic import (
    SpinReport,
    WuReport,
    bounding_filling_certificate,
    dirac_label,
    lie_cusp_certificate,
    orientability,
    spin_obstruction,
    spin_structures,
    summand_certificate,
)
from .chains import chain_complex_of, homology, subcomplex_selection
from .cubical import CubicalComplex
from .errors import CuspforgeError, ValidationError
from .filling import (
    DehnFilling,
    dehn_fill,
    diagonals_from_filling,
    duality_check,
    enumerate_filling_choices,
    resolve_choice,
    subdivide_cross_facets,
)
from .isomorphism import find_isomorphism
from .lattice import cube_lattice, polygon_lattice
from .moment_angle import (
    Colouring,
    CuspCensus,
    cusp_census,
    colour_manifold,
    manifold_check,
    preimage_components,
    real_moment_angle,
)
from .polytopes import gosset, ideal_dual
from .simplicial import (
    boundary_of_simplex,
    cycle_complex,
    octahedron_boundary,
    two_points,
)


class StageError(CuspforgeError):
    """Failure of a named pipeline stage; carries the exit code of its cause."""

    def __init__(self, stage: str, cause: CuspforgeError):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.exit_code = cause.exit_code


@dataclass
class PipelineConfig:
    """Preset parameters: dimension, choice seeds, colour mode, budget."""

    n: int
    choices: str | Dict[Tuple[int, ...], int] = "auto"
    colour_mode: str = "distinct"
    budget: Optional[int] = None
    outdir: Optional[str] = None
    census_only: bool = False

    def __post_init__(self):
        if not 3 <= self.n <= 8:
            raise ValidationError("pipeline dimension must be 3..8")
        if self.n >= 5:
            self.census_only = True
        if self.colour_mode != "distinct":
            raise ValidationError("pipeline presets run with distinct colours")


@dataclass
class PipelineResult:
    config: PipelineConfig
    census: "CuspCensus"
    report: Optional[SpinReport]
    facts: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)


def _write(outdir: Optional[str], name: str, payload: str, artifacts: Dict[str, str]) -> None:
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")
    artifacts[name] = path


def census_json(census) -> str:
    return json.dumps(
        {
            "total": str(census.total),
            "magnitude": census.magnitude(),
            "entries": [
                {
                    "vertex": list(e.vertex),
                    "incident_facets": e.incident_facets,
                    "components": str(e.components),
                    "section": e.section,
                }
                for e in census.entries
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute the preset for dimension n and return census + spin report.

    For n <= 4 the full chain runs and the report certifies an
    all-Bounding spin structure through the verified filling; for
    n >= 5 only the symbolic census is produced.
    """
    artifacts: Dict[str, str] = {}
    facts: Dict[str, object] = {}

    def stage(name: str, fn):
        try:
            return fn()
        except CuspforgeError as exc:
            raise StageError(name, exc) from exc

    n = cfg.n
    G = stage("gosset", lambda: gosset(n))
    _write(cfg.outdir, f"g{n}.json", G.lattice.to_json(), artifacts)
    P = stage("dual", lambda: ideal_dual(G))
    _write(cfg.outdir, f"p{n}.json", P.lattice.to_json(), artifacts)
    census = stage("census", lambda: cusp_census(P))
    _write(cfg.outdir, "census.json", census_json(census), artifacts)
    facts["cusp_total"] = census.total
    facts["facets"] = P.num_facets
    facts["ideal_vertices"] = len(P.ideal_vertices)

    if cfg.census_only:
        return PipelineResult(cfg, census, None, facts, artifacts)

    choice = stage("choices", lambda: resolve_choice(P, cfg.choices))
    filled: DehnFilling = stage("fill", lambda: dehn_fill(P, choice))
    _write(cfg.outdir, f"p{n}bar.json", filled.lattice.to_json(), artifacts)
    K = stage("subdivide", lambda: subdivide_cross_facets(G, diagonals_from_filling(G, choice)))
    _write(cfg.outdir, f"k{n - 1}.json", K.to_json(), artifacts)

    def check_duality():
        if not duality_check(filled.lattice, K):
            raise ValidationError("filled polytope and subdivided sphere are not dual")
        return True

    stage("duality_check", check_duality)

    colouring = Colouring.distinct(P.num_facets)
    Z = stage("colour", lambda: colour_manifold(filled.lattice, colouring, budget=cfg.budget))
    _write(cfg.outdir, f"m{n}bar.json", Z.to_json(), artifacts)
    if cfg.outdir is not None and Z.ambient <= 32:
        path = os.path.join(cfg.outdir, f"m{n}bar.rzk1")
        with open(path, "wb") as fh:
            fh.write(Z.to_rzk1())
        artifacts[f"m{n}bar.rzk1"] = path
    facts["filled_cells"] = Z.num_cells()

    def check_manifold():
        report = manifold_check(Z, K)
        if not report.passed:
            raise ValidationError("; ".join(report.failures) or "manifold check failed")
        return report

    stage("manifold_check", check_manifold)

    data_z2 = chain_complex_of(Z, "Z2")
    betti = stage("homology", lambda: homology(data_z2)).betti
    facts["filling_betti_z2"] = betti

    orient = stage("orientability", lambda: orientability(Z))
    wu: WuReport = stage("spin_obstruction", lambda: spin_obstruction(Z, data_z2))
    spin = stage("spin_structures", lambda: spin_structures(Z, data_z2, orient, wu))
    facts["filling_spin_structures"] = spin.structure_count

    def check_preimages():
        pairs = list(filled.filling_faces.values())
        total = 0
        per_f = 1 << (2 * n - 4)
        for pr in pairs:
            rep = preimage_components(Z, tuple(sorted(pr)), pairs)
            if any(c != per_f for c in rep.cells_per_component):
                raise ValidationError("filling torus has the wrong tessellation count")
            total += rep.components
        if total != census.total:
            raise ValidationError(
                f"union-find count {total} disagrees with census {census.total}"
            )
        return total

    stage("preimage_check", check_preimages)

    cusp_ids = [
        f"v{e.vertex}#{i}" for e in census.entries for i in range(e.components)
    ]
    labels = stage(
        "bounding_certificate",
        lambda: bounding_filling_certificate(cusp_ids, orient, wu),
    )
    label_values = [c.label for c in labels]
    report = SpinReport(
        spinnable=True,
        structure_count=spin.structure_count,
        cusps=tuple(labels),
        dirac=dirac_label(label_values),
        filling_summary={
            "cells": Z.num_cells(),
            "betti_z2": list(betti),
            "orientable": orient.orientable,
            "w2": wu.provenance,
        },
    )
    _write(cfg.outdir, "report.json", report.to_json(), artifacts)
    return PipelineResult(cfg, census, report, facts, artifacts)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_links() -> List[Tuple[str, bool]]:
    out = []
    for name, K in (("boundary of triangle", boundary_of_simplex(2)),
                    ("octahedron", octahedron_boundary()),
                    ("two points", two_points())):
        ok = manifold_check(real_moment_angle(K), K).links_match
        out.append((f"links of RZ over {name} match the base complex", ok))
    oct_link = octahedron_boundary().link_of_vertex(0)
    out.append(("octahedron vertex link is a 4-cycle",
                find_isomorphism(oct_link, cycle_complex(4)) is not None))
    return out


def _suite_duality() -> List[Tuple[str, bool]]:
    out = []
    G = gosset(3)
    P = ideal_dual(G)
    all_simple = True
    all_dual = True
    for c in enumerate_filling_choices(P):
        filled = dehn_fill(P, c)
        all_simple &= filled.lattice.is_simple()
        all_dual &= duality_check(
            filled.lattice, subdivide_cross_facets(G, diagonals_from_filling(G, c))
        )
    out.append(("all 8 fillings of the bipyramid are simple", all_simple))
    out.append(("duality holds for all corresponding choices", all_dual))
    G4 = gosset(4)
    P4 = ideal_dual(G4)
    c4 = next(enumerate_filling_choices(P4))
    filled4 = dehn_fill(P4, c4)
    out.append((
        "duality holds for the first filling in dimension 4",
        duality_check(filled4.lattice,
                      subdivide_cross_facets(G4, diagonals_from_filling(G4, c4))),
    ))
    return out


def _suite_homology() -> List[Tuple[str, bool]]:
    out = []
    sq = polygon_lattice(4)
    t2 = chain_complex_of(colour_manifold(sq, Colouring.distinct(4)), "Z")
    out.append(("distinct-coloured square is a torus", homology(t2).betti == (1, 2, 1)))
    klein = colour_manifold(sq, Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    hk = homology(chain_complex_of(klein, "Z"))
    out.append(("Klein-bottle quotient has H1 = Z + Z/2",
                hk.betti == (1, 1, 0) and hk.torsion[1] == (2,)))
    t3 = chain_complex_of(real_moment_angle(octahedron_boundary()), "Z")
    out.append(("RZ over the octahedron has torus Betti numbers",
                homology(t3).betti == (1, 3, 3, 1)))
    s2 = chain_complex_of(real_moment_angle(boundary_of_simplex(2)), "Z")
    out.append(("RZ over the triangle boundary is a 2-sphere",
                homology(s2).betti == (1, 0, 1)))
    return out


def _suite_census() -> List[Tuple[str, bool]]:
    out = []
    for n, expected in ((3, 12), (4, 80)):
        G = gosset(n)
        P = ideal_dual(G)
        census = cusp_census(P)
        out.append((f"census total for dimension {n} is {expected}",
                    census.total == expected))
        choice = resolve_choice(P, "auto")
        filled = dehn_fill(P, choice)
        Z = colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))
        pairs = list(filled.filling_faces.values())
        total = sum(
            preimage_components(Z, tuple(sorted(pr)), pairs).components for pr in pairs
        )
        out.append((f"union-find count matches the formula in dimension {n}",
                    total == census.total))
    return out


def _suite_characteristic() -> List[Tuple[str, bool]]:
    out = []
    t3 = real_moment_angle(octahedron_boundary())
    orient = orientability(t3)
    out.append(("3-torus complex is orientable", orient.orientable))
    wu = spin_obstruction(t3)
    out.append(("3-torus spin obstruction vanishes", wu.vanishes is True))
    klein = colour_manifold(polygon_lattice(4), Colouring(2, (0b01, 0b10, 0b11, 0b10)))
    out.append(("Klein-bottle quotient is not orientable",
                not orientability(klein).orientable))
    t4 = colour_manifold(cube_lattice(4), Colouring.distinct(8))
    wu4 = spin_obstruction(t4)
    out.append(("4-torus intersection form is even", wu4.vanishes is True))
    t2_keys = _coordinate_subtorus_keys(t3)
    sel = subcomplex_selection(chain_complex_of(t3, "Z"), t2_keys)
    cert = summand_certificate(sel, expected_rank=2)
    lie = lie_cusp_certificate(sel)
    out.append(("coordinate 2-torus in the 3-torus is a summand", cert.ok))
    out.append(("summand implies Lie-achievable on the same instance",
                (not cert.ok) or lie.ok))
    out.append(("label folding distinguishes Real from Discrete",
                dirac_label(["Lie", "Bounding"]) == "Real"
                and dirac_label(["Bounding"] * 3) == "Discrete"
                and dirac_label(["Undetermined", "Bounding"]) == "Unknown"))
    return out


def _coordinate_subtorus_keys(Z: CubicalComplex):
    """Cells of the subtorus spanned by the first two antipodal pairs,
    with the remaining coordinates frozen at +1."""
    m = Z.ambient
    allowed = {0, 1, 2, 3}
    frozen = [i for i in range(m) if i not in allowed]
    keys = [[] for _ in range(3)]
    for d in range(min(2, Z.dim) + 1):
        for sup, sg in Z.cells_of_dim(d):
            if set(sup) <= allowed and all((sg >> i) & 1 for i in frozen):
                keys[d].append((sup, sg))
    return keys


_SUITES = {
    "links": _suite_links,
    "duality": _suite_duality,
    "homology": _suite_homology,
    "census": _suite_census,
    "characteristic": _suite_characteristic,
}


def verify(suite: str) -> Tuple[bool, List[Tuple[str, bool]]]:
    """Run a named invariant suite; returns (all passed, result lines)."""
    if suite not in _SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    lines = _SUITES[suite]()
    return all(ok for _, ok in lines), lines
