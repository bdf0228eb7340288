"""cuspforge command-line interface.

Exit codes: 0 success, 2 validation failure, 3 cell budget exceeded,
4 certificate failure.  CUSPFORGE_BUDGET overrides the cell cap and
CUSPFORGE_DATA points at a directory of ingested lattice files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from .characteristic import (
    SpinReport,
    bounding_filling_certificate,
    dirac_label,
    orientability,
    spin_obstruction,
    spin_structures,
)
from .chains import chain_complex_of, homology
from .cubical import CubicalComplex
from .errors import CuspforgeError, ValidationError, json_document
from .filling import (
    DiagonalChoice,
    FillingChoice,
    auto_diagonals,
    dehn_fill,
    resolve_choice,
    subdivide_cross_facets,
)
from .lattice import FaceLattice
from .moment_angle import Colouring, colour_manifold, cusp_census, real_moment_angle
from .pipeline import PipelineConfig, census_json, run_pipeline, verify
from .polytopes import gosset, ideal_dual, ideal_polytope_from_lattice, ingest_gosset
from .simplicial import SimplicialComplex


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(path: Optional[str], payload: str) -> None:
    if path is None or path == "-":
        print(payload)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")


def _load_cubical(path: str) -> CubicalComplex:
    if path.endswith(".rzk1"):
        with open(path, "rb") as fh:
            return CubicalComplex.from_rzk1(fh.read())
    return CubicalComplex.from_json(_read(path))


def _load_complex(path: str):
    """A cubical complex (RZK1 or JSON) or a simplicial complex (JSON)."""
    if path.endswith(".rzk1"):
        return _load_cubical(path)
    text = _read(path)
    if json_document(text, "cubical", "simplicial")["type"] == "cubical":
        return CubicalComplex.from_json(text)
    return SimplicialComplex.from_json(text)


def _cmd_gosset(args) -> int:
    G = gosset(args.n, full_lattice=args.full_lattice or None)
    if args.dual:
        payload = ideal_dual(G).lattice.to_json()
    else:
        payload = G.lattice.to_json()
    _write_out(args.out, payload)
    return 0


def _parse_choice_spec(spec: str, P) -> FillingChoice:
    if spec == "auto":
        return resolve_choice(P, "auto")
    mapping: Dict = {}
    verts = sorted(P.ideal_vertices, key=sorted)
    for item in spec.split(","):
        key, _, value = item.partition(":")
        if not key.startswith("v"):
            raise ValidationError(f"bad choice item {item!r}; expected v<index>:<axis>")
        mapping[frozenset(verts[int(key[1:])])] = int(value)
    return FillingChoice(mapping)


def _cmd_fill(args) -> int:
    lattice = FaceLattice.from_json(_read(args.infile))
    P = ideal_polytope_from_lattice(lattice)
    choice = _parse_choice_spec(args.choices, P)
    filled = dehn_fill(P, choice)
    _write_out(args.out, filled.lattice.to_json())
    return 0


def _cmd_subdivide(args) -> int:
    lattice = FaceLattice.from_json(_read(args.infile))
    G = ingest_gosset(lattice.to_json(), lattice.rank)
    if args.diagonals == "auto":
        d = auto_diagonals(G)
    else:
        pair_index = {}
        for item in args.diagonals.split(","):
            key, _, value = item.partition(":")
            pair_index[int(key)] = int(value)
        d = DiagonalChoice(pair_index)
    K = subdivide_cross_facets(G, d)
    _write_out(args.out, K.to_json())
    return 0


def _cmd_rzk(args) -> int:
    K = SimplicialComplex.from_json(_read(args.infile))
    Z = real_moment_angle(K, budget=args.budget)
    if args.binary:
        if args.out is None or args.out == "-":
            raise ValidationError("--binary needs an output path")
        with open(args.out, "wb") as fh:
            fh.write(Z.to_rzk1())
        return 0
    _write_out(args.out, Z.to_json())
    return 0


def _cmd_colour(args) -> int:
    lattice = FaceLattice.from_json(_read(args.infile))
    if args.colours == "distinct":
        colouring = Colouring.distinct(lattice.num_facets)
    else:
        rows = json.loads(args.colours)
        colouring = Colouring.from_bit_lists(max(max(r) for r in rows) + 1, rows)
    Z = colour_manifold(lattice, colouring, budget=args.budget)
    if isinstance(Z, CubicalComplex):
        _write_out(args.out, Z.to_json())
    else:
        data = chain_complex_of(Z, "Z2")
        _write_out(args.out, json.dumps(
            {"type": "quotient_summary", "cells": list(Z.cell_counts()),
             "euler": Z.euler_characteristic(),
             "betti_z2": list(homology(data).betti)},
            sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_homology(args) -> int:
    X = _load_complex(args.infile)
    coeff = "Z2" if args.coeff.lower() in ("z2", "gf2") else "Z"
    result = homology(chain_complex_of(X, coeff))
    payload = {"betti": list(result.betti),
               "torsion": [list(t) for t in result.torsion]}
    _write_out(args.out, json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_census(args) -> int:
    lattice = FaceLattice.from_json(_read(args.infile))
    P = ideal_polytope_from_lattice(lattice)
    census = cusp_census(P)
    _write_out(args.out, census_json(census))
    return 0


def _cmd_spin_report(args) -> int:
    lattice = FaceLattice.from_json(_read(args.manifold))
    P = ideal_polytope_from_lattice(lattice)
    census = cusp_census(P)
    Z = _load_cubical(args.filling)
    data = chain_complex_of(Z, "Z2")
    orient = orientability(Z)
    wu = spin_obstruction(Z, data)
    spin = spin_structures(Z, data, orient, wu)
    cusp_ids = [f"v{e.vertex}#{i}" for e in census.entries for i in range(e.components)]
    labels = bounding_filling_certificate(cusp_ids, orient, wu)
    report = SpinReport(
        spinnable=True,
        structure_count=spin.structure_count,
        cusps=tuple(labels),
        dirac=dirac_label([c.label for c in labels]),
        filling_summary={"cells": Z.num_cells(), "orientable": orient.orientable,
                         "w2": wu.provenance},
    )
    _write_out(args.out, report.to_json())
    return 0


def _cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        n=args.n,
        choices="auto",
        budget=args.budget,
        outdir=args.outdir,
        census_only=args.census_only,
    )
    result = run_pipeline(cfg)
    print(f"census total: {result.census.total} (~{result.census.magnitude()})")
    for key, value in sorted(result.facts.items()):
        print(f"{key}: {value}")
    if result.report is not None:
        labels = {c.label for c in result.report.cusps}
        print(f"cusps: {len(result.report.cusps)} labelled {sorted(labels)}")
        print(f"dirac: {result.report.dirac}")
    if result.artifacts:
        print("artifacts:", ", ".join(sorted(result.artifacts)))
    return 0


def _cmd_verify(args) -> int:
    passed, lines = verify(args.suite)
    for name, ok in lines:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if passed else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cuspforge",
        description="Exact combinatorics of right-angled polytope fillings, "
                    "moment-angle complexes, and spin certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gosset", help="generate a Gosset polytope lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dual", action="store_true", help="emit the ideal dual P^n")
    p.add_argument("--full-lattice", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gosset)

    p = sub.add_parser("fill", help="Dehn fill an ideal polytope lattice")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--choices", default="auto", help='e.g. "v0:0,v1:1,v2:0" or auto')
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fill)

    p = sub.add_parser("subdivide", help="subdivide cross facets of a Gosset lattice")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--diagonals", default="auto", help='e.g. "1:0,2:1" or auto')
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_subdivide)

    p = sub.add_parser("rzk", help="real moment-angle complex of a simplicial sphere")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--binary", action="store_true", help="write the RZK1 cell table")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_rzk)

    p = sub.add_parser("colour", help="colouring quotient of a simple polytope")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--colours", default="distinct",
                   help='"distinct" or a JSON list of bit lists')
    p.add_argument("--out")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_colour)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a complex file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coeff", default="z2", choices=["z2", "z"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("census", help="cusp census of a marked ideal polytope")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("spin-report", help="bounding certificate from a verified filling")
    p.add_argument("--manifold", required=True, help="ideal polytope lattice JSON")
    p.add_argument("--filling", required=True, help="filled cubical complex (JSON or RZK1)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_spin_report)

    p = sub.add_parser("pipeline", help="run the preset chain for a dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outdir")
    p.add_argument("--census-only", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=["links", "duality", "homology", "census", "characteristic"])
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CuspforgeError as exc:
        print(json.dumps({"error": str(exc), "code": exc.exit_code},
                         sort_keys=True), file=sys.stderr)
        if hasattr(exc, "stage"):
            print(json.dumps({"stage": exc.stage}, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
