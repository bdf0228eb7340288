"""In-memory spans around the public calls of cuspforge's modules.

The benchmark does not change the library.  A traced run swaps each
listed public function (in every cuspforge module namespace that binds
it) for a wrapper that opens a span, calls the original, closes the
span and adds the call's work counts.  ``restore`` puts the originals
back.  Spans are kept in memory and written out once, by the caller.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def maxrss_mb() -> float:
    """High-water RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    workload: str
    seed: int
    start: float
    end: float = 0.0
    rss_mb: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack plus per-name work counters for one single-threaded run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.overhead = 0.0  # seconds spent in wrappers outside the wrapped calls
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, parent, self.workload, self.seed,
                   time.perf_counter(), attrs=dict(attrs))
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.rss_mb = maxrss_mb()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    rec.attrs[key] = n
                    self.count(f"{name}.{key}", n)
            self.overhead += time.perf_counter() - t0 - rec.duration
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: wall time, self time, calls and RSS after the span.

        Wall time sums only the outermost span of each name on a path,
        so a name that nests inside itself is not counted twice.
        """
        self_time = self.self_times()
        by_id = {s.id: s for s in self.spans}
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_mb": 0.0})
            t["calls"] += 1
            t["self_s"] += self_time[s.id]
            t["rss_mb"] = max(t["rss_mb"], s.rss_mb)
            p = s.parent
            nested = False
            while p is not None:
                if by_id[p].name == s.name:
                    nested = True
                    break
                p = by_id[p].parent
            if not nested:
                t["s"] += s.duration
        return out

    def write_jsonl(self, path: str) -> None:
        """One span per line, with its self time."""
        self_time = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = asdict(s)
                rec["self_s"] = self_time[s.id]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the wrapped public calls, one entry per layer
# ---------------------------------------------------------------------------


def _splittings(data) -> int:
    """Front/back face pairs of the 4-cells that ``intersection_form`` pairs
    every cocycle pair over (both faces present)."""
    if data.top_dim != 4:
        return 0
    twos = set(data.cell_keys[2])
    n = 0
    for support, signs in data.cell_keys[4]:
        for front in combinations(support, 2):
            back = tuple(x for x in support if x not in front)
            back_signs = signs | (1 << front[0]) | (1 << front[1])
            if (front, signs) in twos and (back, back_signs) in twos:
                n += 1
    return n


def _count_intersection_form(args, kwargs, result):
    b2 = len(result[0])
    data = args[0] if args else kwargs["data"]
    return {"pair_steps": b2 * (b2 + 1) // 2 * _splittings(data)}


def _count_link(args, kwargs, result):
    Z = args[0]
    return {"cell_scans": Z.num_cells() - len(Z.vertices())}


def _smith_entries(args, kwargs, result):
    return {"entries": result.nrows * result.ncols}


def targets(tracer: Tracer) -> List[Tuple[str, object, str, Optional[Callable]]]:
    """(span name, owner, attribute, counter) for every traced public call."""
    from cuspforge import chains, characteristic, cubical, filling, gf2
    from cuspforge import isomorphism, moment_angle, polytopes, snf

    seen_links = set()

    def count_iso(args, kwargs, result):
        A, B = args[0], args[1]
        key = (A.vertex_count, A.facets, B.vertex_count, B.facets)
        new = key not in seen_links
        seen_links.add(key)
        return {"distinct_inputs": int(new)}

    return [
        ("polytopes.gosset", polytopes, "gosset", None),
        ("polytopes.ideal_dual", polytopes, "ideal_dual",
         lambda a, k, r: {"facets": r.num_facets}),
        ("polytopes.ingest_gosset", polytopes, "ingest_gosset", None),
        ("filling.dehn_fill", filling, "dehn_fill", None),
        ("filling.subdivide_cross_facets", filling, "subdivide_cross_facets", None),
        ("filling.duality_check", filling, "duality_check", None),
        ("moment_angle.colour_manifold", moment_angle, "colour_manifold",
         lambda a, k, r: {"cells": r.num_cells()}),
        ("moment_angle.manifold_check", moment_angle, "manifold_check",
         lambda a, k, r: {"links": len(r.vertex_results)}),
        ("moment_angle.cusp_census", moment_angle, "cusp_census", None),
        ("moment_angle.preimage_components", moment_angle, "preimage_components", None),
        ("moment_angle.truncated_quotient", moment_angle, "truncated_quotient", None),
        ("cubical.link_of_vertex", cubical.CubicalComplex, "link_of_vertex", _count_link),
        ("cubical.serialize", cubical.CubicalComplex, "to_json", None),
        ("cubical.serialize", cubical.CubicalComplex, "to_rzk1", None),
        ("isomorphism.find_isomorphism", isomorphism, "find_isomorphism", count_iso),
        ("chains.chain_complex_of", chains, "chain_complex_of",
         lambda a, k, r: {"cells": sum(r.sizes())}),
        ("chains.homology", chains, "homology", None),
        ("chains.cohomology_z2_basis", chains, "cohomology_z2_basis", None),
        ("chains.integral_homology_basis", chains, "integral_homology_basis", None),
        ("gf2.rank_of_rows", gf2, "rank_of_rows", None),
        ("snf.smith_normal_form", snf, "smith_normal_form", _smith_entries),
        ("characteristic.orientability", characteristic, "orientability", None),
        ("characteristic.spin_obstruction", characteristic, "spin_obstruction", None),
        ("characteristic.intersection_form", characteristic, "intersection_form",
         _count_intersection_form),
        ("characteristic.spin_structures", characteristic, "spin_structures", None),
        ("characteristic.summand_certificate", characteristic, "summand_certificate", None),
        ("characteristic.lie_cusp_certificate", characteristic, "lie_cusp_certificate", None),
        ("characteristic.bounding_filling_certificate", characteristic,
         "bounding_filling_certificate", None),
    ]


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every target in every cuspforge namespace that binds it.

    ``gf2.rank_of_rows`` also counts its rows; the wrapper lists an
    iterable argument first so the count does not consume it.
    """
    patched: List[Tuple[object, str, object]] = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "cuspforge" or name.startswith("cuspforge."))]
    for name, owner, attr, counter in targets(tracer):
        original = getattr(owner, attr)
        if attr == "rank_of_rows":
            wrapped = _wrap_rank(tracer, name, original)
        else:
            wrapped = tracer.wrap(name, original, counter)
        if isinstance(owner, type):
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            if getattr(mod, attr, None) is original:
                patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    return patched


def _wrap_rank(tracer: Tracer, name: str, original: Callable) -> Callable:
    inner = tracer.wrap(name, original)

    def traced(rows):
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        tracer.count(f"{name}.rows", len(rows))
        return inner(rows)

    traced.__wrapped__ = original
    return traced


def restore(patched: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
