#!/usr/bin/env python3
"""Record the exact outputs the benchmark checks against (bench/expected.json).

    python3 bench/record.py

Run it at the commit whose outputs are the reference; it takes about
three quarters of an hour on one core.  It records

* ``pipeline-n4.b2_by_choice``: b2 of the filled P^4 manifold for each of
  the 243 filling choices, in ``enumerate_filling_choices`` order;
* ``pipeline-n4.digests_by_choice``: sha256 of every artifact of
  ``run_pipeline(n=4)`` for each choice with b2 = 122, the class the
  benchmark draws from (keyed by choice index; 0 is all zeros);
* ``census-n8.digests``: sha256 of every artifact of the n=8 census.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")


def run_digests(cfg) -> dict:
    from cuspforge import run_pipeline

    cfg.outdir = WORK
    shutil.rmtree(WORK, ignore_errors=True)
    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    print(f"  run_pipeline took {time.perf_counter() - t0:.2f} s", flush=True)
    out = {}
    for name, path in sorted(result.artifacts.items()):
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("CUSPFORGE_BUDGET", None)
    os.environ.pop("CUSPFORGE_DATA", None)
    from cuspforge import (
        Colouring, PipelineConfig, chain_complex_of, colour_manifold, dehn_fill,
        enumerate_filling_choices, gosset, homology, ideal_dual,
    )

    P = ideal_dual(gosset(4))
    choices = list(enumerate_filling_choices(P))
    b2 = []
    for choice in choices:
        Z = colour_manifold(dehn_fill(P, choice).lattice, Colouring.distinct(P.num_facets))
        b2.append(homology(chain_complex_of(Z, "Z2")).betti[2])
        print(f"choice {len(b2) - 1}: b2 = {b2[-1]}", flush=True)
    try:
        by_choice = {}
        for i, choice in enumerate(choices):
            if b2[i] == 122:
                print(f"choice {i}: run_pipeline(n=4)", flush=True)
                spec = {tuple(sorted(v)): a for v, a in choice.axis_index.items()}
                by_choice[str(i)] = run_digests(PipelineConfig(n=4, choices=spec))
        print("run_pipeline(n=8, census_only=True)", flush=True)
        census = run_digests(PipelineConfig(n=8, census_only=True))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    expected = {
        "pipeline-n4": {"b2_by_choice": b2, "digests_by_choice": by_choice},
        "census-n8": {"digests": census},
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
