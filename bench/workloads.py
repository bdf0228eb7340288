"""The benchmark's three workloads: inputs from a seed, the timed public
call, exact-output collection and checking, and a traced replay.

Every workload calls cuspforge only through public functions.  Nothing
here imports cuspforge at module level, so that the set-up time
(import plus input generation) can be measured by the caller.

Why these three:

* ``pipeline-n4``: the full n=4 preset.  Most of its time is the P^4
  intersection form and the per-vertex manifold check, over Z/2 on a
  23104-cell complex.
* ``census-n8``: the n=8 census preset.  Nearly all of its time is
  assembling and validating G^8; no chain-complex code runs.
* ``cusped-p3``: the cusped 3-manifold chain behind the integral cusp
  certificates.  Its time is integer Smith normal form on a small
  complex, the opposite use of ``chains`` from ``pipeline-n4``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
from contextlib import nullcontext
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(outdir: str, name: str, payload, artifacts: Dict[str, str]) -> None:
    """Write an artifact the way ``run_pipeline`` does (text gets a newline)."""
    path = os.path.join(outdir, name)
    if isinstance(payload, bytes):
        with open(path, "wb") as fh:
            fh.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    artifacts[name] = path


def _digests(artifacts: Dict[str, str]) -> Dict[str, str]:
    return {name: _sha256(path) for name, path in sorted(artifacts.items())}


def _stage(tracer, name: str):
    return tracer.span(f"stage.{name}")


# ---------------------------------------------------------------------------
# pipeline-n4
# ---------------------------------------------------------------------------


class PipelineN4:
    """``run_pipeline(n=4)`` with a filling choice drawn from the seed.

    The draw is over the choices whose filled manifold has b2 = 122,
    like the preset's all-zeros choice (seed 0).  The intersection form
    costs b2^2 pair steps, so drawing across b2 classes (102..122 at
    the recording commit) would make the run time follow the seed
    rather than the code.  Within the class the seed still changes the
    filling, the cocycle bases and the elimination order.
    """

    name = "pipeline-n4"
    f_vector = (1024, 5120, 8960, 6400, 1600)
    euler = 64
    b2 = 122
    census_total = 80
    torus_cells = 16  # 2^(2n-4) squares tile each filling torus

    def setup(self, seed: int) -> dict:
        from cuspforge import gosset, ideal_dual

        P = ideal_dual(gosset(4))
        verts = sorted(P.ideal_vertices, key=sorted)
        radix = [len(P.axes_of(v)) for v in verts]
        b2 = EXPECTED[self.name]["b2_by_choice"]
        pool = [i for i, b in enumerate(b2) if b == self.b2]
        index = 0 if seed == 0 else random.Random(seed).choice(pool)
        digits = []
        rest = index
        for r in reversed(radix):
            digits.append(rest % r)
            rest //= r
        digits.reverse()
        choices = {tuple(sorted(v)): d for v, d in zip(verts, digits)}
        pairs = [tuple(sorted(P.axes_of(v)[d])) for v, d in zip(verts, digits)]
        return {"seed": seed, "index": index, "choices": choices, "filling_pairs": pairs}

    def call(self, inputs: dict, outdir: str):
        from cuspforge import PipelineConfig, run_pipeline

        return run_pipeline(PipelineConfig(n=4, choices=inputs["choices"], outdir=outdir))

    def collect(self, inputs: dict, result, outdir: str) -> dict:
        return self._outputs(inputs, result.facts, result.artifacts)

    def _outputs(self, inputs: dict, facts: dict, artifacts: Dict[str, str]) -> dict:
        with open(artifacts["report.json"], encoding="utf-8") as fh:
            report = json.load(fh)
        with open(artifacts["m4bar.rzk1"], "rb") as fh:
            cells = _rzk1_cells(fh.read())
        f_vector = [0] * 5
        for mask, _ in cells:
            f_vector[bin(mask).count("1")] += 1
        return {
            "facts": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(facts.items())},
            "digests": _digests(artifacts),
            "report": report,
            "f_vector": f_vector,
            "preimage_components": _preimage_component_sizes(cells, inputs["filling_pairs"]),
        }

    def check(self, inputs: dict, out: dict) -> List[str]:
        bad = []
        if tuple(out["f_vector"]) != self.f_vector:
            bad.append(f"f-vector {out['f_vector']}")
        facts = out["facts"]
        if facts.get("filled_cells") != sum(self.f_vector):
            bad.append(f"filled_cells {facts.get('filled_cells')}")
        betti = facts.get("filling_betti_z2")
        if (not betti or len(betti) != 5 or betti != betti[::-1]
                or sum((-1) ** k * b for k, b in enumerate(betti)) != self.euler):
            bad.append(f"betti {betti}")
        elif betti[2] != self.b2:
            bad.append(f"b2 {betti[2]} outside the drawn class")
        report = out["report"]
        if report.get("filling", {}).get("betti_z2") != betti:
            bad.append("report betti differs from the facts")
        if facts.get("cusp_total") != self.census_total:
            bad.append(f"census total {facts.get('cusp_total')}")
        cusps = report.get("cusps", [])
        if len(cusps) != self.census_total or any(c["label"] != "Bounding" for c in cusps):
            bad.append("report does not label every cusp Bounding")
        if report.get("dirac") != "Discrete" or report.get("spinnable") is not True:
            bad.append("report verdict")
        if betti and report.get("structure_count") != str(1 << betti[1]):
            bad.append("spin structure count is not 2^b1")
        components = out["preimage_components"]
        if len(components) != self.census_total or set(components) != {self.torus_cells}:
            bad.append(f"union-find count {len(components)}, sizes {sorted(set(components))}")
        if out["digests"] != EXPECTED[self.name]["digests_by_choice"][str(inputs["index"])]:
            bad.append("artifact digests differ from the recorded ones")
        return bad

    def traced(self, inputs: dict, outdir: str, tracer) -> dict:
        """``run_pipeline``'s stages, in its order, through the same public calls."""
        from cuspforge import (
            Colouring, FillingChoice, SpinReport, bounding_filling_certificate,
            chain_complex_of, colour_manifold, cusp_census, dehn_fill,
            diagonals_from_filling, dirac_label, duality_check, gosset, homology,
            ideal_dual, manifold_check, orientability, preimage_components,
            spin_obstruction, spin_structures, subdivide_cross_facets,
        )
        from cuspforge.pipeline import census_json

        n = 4
        artifacts: Dict[str, str] = {}
        facts: Dict[str, object] = {}
        with _stage(tracer, "gosset"):
            G = gosset(n)
            _write(outdir, f"g{n}.json", G.lattice.to_json(), artifacts)
        with _stage(tracer, "dual"):
            P = ideal_dual(G)
            _write(outdir, f"p{n}.json", P.lattice.to_json(), artifacts)
        with _stage(tracer, "census"):
            census = cusp_census(P)
            _write(outdir, "census.json", census_json(census), artifacts)
        facts["cusp_total"] = census.total
        facts["facets"] = P.num_facets
        facts["ideal_vertices"] = len(P.ideal_vertices)
        with _stage(tracer, "choices"):
            choice = FillingChoice({frozenset(k): v for k, v in inputs["choices"].items()})
        with _stage(tracer, "fill"):
            filled = dehn_fill(P, choice)
            _write(outdir, f"p{n}bar.json", filled.lattice.to_json(), artifacts)
        with _stage(tracer, "subdivide"):
            K = subdivide_cross_facets(G, diagonals_from_filling(G, choice))
            _write(outdir, f"k{n - 1}.json", K.to_json(), artifacts)
        with _stage(tracer, "duality_check"):
            if not duality_check(filled.lattice, K):
                raise RuntimeError("filled polytope and subdivided sphere are not dual")
        with _stage(tracer, "colour"):
            Z = colour_manifold(filled.lattice, Colouring.distinct(P.num_facets))
            _write(outdir, f"m{n}bar.json", Z.to_json(), artifacts)
            _write(outdir, f"m{n}bar.rzk1", Z.to_rzk1(), artifacts)
        facts["filled_cells"] = Z.num_cells()
        with _stage(tracer, "manifold_check"):
            if not manifold_check(Z, K).passed:
                raise RuntimeError("manifold check failed")
        with _stage(tracer, "chain_complex"):
            data_z2 = chain_complex_of(Z, "Z2")
        with _stage(tracer, "homology"):
            betti = homology(data_z2).betti
        facts["filling_betti_z2"] = betti
        with _stage(tracer, "orientability"):
            orient = orientability(Z)
        with _stage(tracer, "spin_obstruction"):
            wu = spin_obstruction(Z, data_z2)
        with _stage(tracer, "spin_structures"):
            spin = spin_structures(Z, data_z2, orient, wu)
        facts["filling_spin_structures"] = spin.structure_count
        with _stage(tracer, "preimage_check"):
            pairs = list(filled.filling_faces.values())
            total = 0
            for pr in pairs:
                rep = preimage_components(Z, tuple(sorted(pr)), pairs)
                if any(c != self.torus_cells for c in rep.cells_per_component):
                    raise RuntimeError("filling torus has the wrong tessellation count")
                total += rep.components
            if total != census.total:
                raise RuntimeError(f"union-find count {total} disagrees with census")
        with _stage(tracer, "bounding_certificate"):
            cusp_ids = [f"v{e.vertex}#{i}" for e in census.entries for i in range(e.components)]
            labels = bounding_filling_certificate(cusp_ids, orient, wu)
            report = SpinReport(
                spinnable=True,
                structure_count=spin.structure_count,
                cusps=tuple(labels),
                dirac=dirac_label([c.label for c in labels]),
                filling_summary={
                    "cells": Z.num_cells(),
                    "betti_z2": list(betti),
                    "orientable": orient.orientable,
                    "w2": wu.provenance,
                },
            )
            _write(outdir, "report.json", report.to_json(), artifacts)
        return self._outputs(inputs, facts, artifacts)


def _rzk1_cells(blob: bytes) -> List[tuple]:
    """(support mask, sign mask) per cell of an RZK1 table, read independently
    of the library: magic, u32 ambient, u32 count, then u32 + u64 per cell."""
    if blob[:4] != b"RZK1":
        raise ValueError("not an RZK1 table")
    _ambient, count = struct.unpack_from("<II", blob, 4)
    if len(blob) != 12 + 12 * count:
        raise ValueError("RZK1 table has the wrong length")
    return [struct.unpack_from("<IQ", blob, 12 + 12 * i) for i in range(count)]


def _preimage_component_sizes(cells, pairs) -> List[int]:
    """Cell counts of the components of the preimage of every filling
    square, found here from the cell table: the copies of a square are
    the 2-cells on its facet pair, merged across each 3-cell that
    contains the pair."""
    sizes: List[int] = []
    for a, b in pairs:
        pm = (1 << a) | (1 << b)
        parent = {sg: sg for mask, sg in cells if mask == pm}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for mask, sg in cells:
            if mask & pm == pm and bin(mask).count("1") == 3:
                ra, rb = find(sg), find(sg | (mask ^ pm))
                if ra != rb:
                    parent[rb] = ra
        counts: Dict[int, int] = {}
        for x in parent:
            r = find(x)
            counts[r] = counts.get(r, 0) + 1
        sizes.extend(sorted(counts.values()))
    return sizes


# ---------------------------------------------------------------------------
# census-n8
# ---------------------------------------------------------------------------


class CensusN8:
    """``run_pipeline(n=8, census_only=True)``.  It has no free input: the
    seed is recorded and otherwise unused."""

    name = "census-n8"
    total = 2160 * 2 ** 226

    def setup(self, seed: int) -> dict:
        import cuspforge  # noqa: F401  (set-up is the import alone)

        return {"seed": seed}

    def call(self, inputs: dict, outdir: str):
        from cuspforge import PipelineConfig, run_pipeline

        return run_pipeline(PipelineConfig(n=8, census_only=True, outdir=outdir))

    def collect(self, inputs: dict, result, outdir: str) -> dict:
        facts = {k: result.facts[k] for k in ("cusp_total", "facets", "ideal_vertices")}
        return {"facts": {k: str(v) for k, v in facts.items()},
                "digests": _digests(result.artifacts)}

    def check(self, inputs: dict, out: dict) -> List[str]:
        bad = []
        want = {"cusp_total": str(self.total), "facets": "240", "ideal_vertices": "2160"}
        if out["facts"] != want:
            bad.append(f"facts {out['facts']}")
        if out["digests"] != EXPECTED[self.name]["digests"]:
            bad.append("artifact digests differ from the recorded ones")
        return bad

    def traced(self, inputs: dict, outdir: str, tracer):
        from cuspforge import cusp_census, gosset, ideal_dual
        from cuspforge.pipeline import census_json

        artifacts: Dict[str, str] = {}
        with _stage(tracer, "gosset"):
            G = gosset(8)
            _write(outdir, "g8.json", G.lattice.to_json(), artifacts)
        with _stage(tracer, "dual"):
            P = ideal_dual(G)
            _write(outdir, "p8.json", P.lattice.to_json(), artifacts)
        with _stage(tracer, "census"):
            census = cusp_census(P)
            _write(outdir, "census.json", census_json(census), artifacts)
        facts = {"cusp_total": census.total, "facets": P.num_facets,
                 "ideal_vertices": len(P.ideal_vertices)}
        return {"facts": {k: str(v) for k, v in facts.items()},
                "digests": _digests(artifacts)}

    def probe(self, inputs: dict, outdir: str, tracer) -> List[str]:
        """Assembly and validation alone: ingest G^8 from its own JSON."""
        from cuspforge import ingest_gosset

        with open(os.path.join(outdir, "g8.json"), encoding="utf-8") as fh:
            text = fh.read()
        with tracer.span("polytopes.ingest_gosset"):
            G = ingest_gosset(text, 8)
        kinds = sorted(G.facet_types)
        if (G.num_vertices, kinds.count("cross"), kinds.count("simplex")) != (240, 2160, 17280):
            return ["ingested G^8 has the wrong vertex or facet counts"]
        return []


# ---------------------------------------------------------------------------
# cusped-p3
# ---------------------------------------------------------------------------


class CuspedP3:
    """The cusped P^3 chain: truncated quotient, integral homology with
    bases, and both cusp certificates on all 12 cusp tori.  The seed
    permutes the distinct colour vectors (seed 0 keeps them in order),
    which reorders cells and pivots but not the answer."""

    name = "cusped-p3"
    sizes = [208, 528, 384, 64]
    betti = [1, 12, 11, 0]
    cusps = 12

    def setup(self, seed: int) -> dict:
        from cuspforge import Colouring, gosset, ideal_dual

        P = ideal_dual(gosset(3))
        perm = list(range(P.num_facets))
        if seed:
            random.Random(seed).shuffle(perm)
        colouring = Colouring(P.num_facets, tuple(1 << p for p in perm))
        return {"seed": seed, "P": P, "colouring": colouring}

    def call(self, inputs: dict, outdir: str, tracer=None):
        from cuspforge import (
            chain_complex_of, cohomology_z2_basis, homology, integral_homology_basis,
            lie_cusp_certificate, subcomplex_selection, summand_certificate,
            truncated_quotient,
        )

        def stage(name):
            return _stage(tracer, name) if tracer is not None else nullcontext()

        with stage("truncated_quotient"):
            cusped = truncated_quotient(inputs["P"], inputs["colouring"])
        with stage("chain_complex"):
            mdata = chain_complex_of(cusped.quotient, "Z")
        with stage("homology"):
            h = homology(mdata)
        with stage("integral_homology_basis"):
            ph1 = integral_homology_basis(mdata, 1)
        with stage("cohomology_z2_basis"):
            pcoh = cohomology_z2_basis(mdata, 1)
        certs = []
        with stage("certificates"):
            for comp in cusped.components:
                sel = subcomplex_selection(mdata, comp.keys_per_dim)
                cert = summand_certificate(sel, parent_basis=ph1)
                lie = lie_cusp_certificate(sel, parent_basis=pcoh)
                certs.append((cert, lie))
        return {"sizes": list(mdata.sizes()), "homology": h, "certs": certs}

    def collect(self, inputs: dict, result, outdir: str) -> dict:
        h = result["homology"]
        return {
            "sizes": result["sizes"],
            "betti": list(h.betti),
            "torsion": [list(t) for t in h.torsion],
            "certs": [
                {"summand": c.ok, "factors": list(c.invariant_factors),
                 "lie": l.ok, "restriction_rank": l.restriction_rank}
                for c, l in result["certs"]
            ],
        }

    def check(self, inputs: dict, out: dict) -> List[str]:
        bad = []
        if out["sizes"] != self.sizes:
            bad.append(f"cell counts {out['sizes']}")
        if out["betti"] != self.betti:
            bad.append(f"betti {out['betti']}")
        if any(out["torsion"]):
            bad.append(f"torsion {out['torsion']}")
        certs = out["certs"]
        if len(certs) != self.cusps:
            bad.append(f"{len(certs)} cusp components")
        if not any(c["summand"] for c in certs):
            bad.append("no certified summand")
        if any(c["summand"] and not c["lie"] for c in certs):
            bad.append("a certified summand is not Lie-achievable")
        return bad

    def traced(self, inputs: dict, outdir: str, tracer) -> dict:
        return self.collect(inputs, self.call(inputs, outdir, tracer), outdir)


WORKLOADS = {w.name: w for w in (PipelineN4(), CensusN8(), CuspedP3())}


def budget_refusal(tracer) -> List[str]:
    """``colour_manifold`` on the first filling of P^5 must refuse under the
    default cell budget (5,046,272 cells > 4,194,304) before allocating."""
    from tracing import maxrss_mb
    from cuspforge import (
        BudgetError, Colouring, colour_manifold, dehn_fill, enumerate_filling_choices,
        gosset, ideal_dual,
    )

    P = ideal_dual(gosset(5))
    filled = dehn_fill(P, next(enumerate_filling_choices(P)))
    colouring = Colouring.distinct(P.num_facets)
    with tracer.span("moment_angle.budget_refusal", rss_before_mb=maxrss_mb()) as span:
        try:
            colour_manifold(filled.lattice, colouring)
        except BudgetError as exc:
            span.attrs["refusal"] = str(exc)
            return []
    return ["colour_manifold on P^5 did not raise BudgetError"]
