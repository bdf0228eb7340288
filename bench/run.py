#!/usr/bin/env python3
"""cuspforge benchmark: closed-loop, single-threaded runs of fixed workloads.

    python3 bench/run.py --workload pipeline-n4 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

One client, one process per workload run: the next call starts only
after the previous one returned and was checked.  A run repeats the
workload's public call until ``--seconds`` have passed (at least once)
and checks every result exactly.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_ref_s`` (median time from the public call to a certified result,
at reference host pace), ``peak_rss_mb``, ``setup_s`` (median over
several fresh processes of ``import cuspforge`` plus input generation,
at reference host pace) and ``ok_ratio`` (the share of attempted calls
that returned exact outputs, 1 - fail ratio).  The host's speed drifts
by tens of percent over minutes, so each timing is divided by the pace
factor sampled while it ran (see pace.py); the raw wall times and the
factors are printed and recorded beside them.

The run sets ``PYTHONHASHSEED`` to the seed (re-executing itself if it
differs), so that one seed also fixes the program's set and dict
iteration orders.

``--trace 1`` reports the per-layer metrics.  It replays the workload
once with a span around every public call of each module (see
tracing.py) and reports per-span wall and self time, RSS high-water
marks, work counts, the time the spans themselves cost, the cell-budget
refusal probe and source line counts.  Its outputs pass the same exact
checks as an untraced call's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(environment, samples, metrics) goes to .bench_out/, spans of a traced
run to .bench_out/*.spans.jsonl, both written once when the run ends.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")

# fresh processes timed for setup_s; the run's own set-up is one more
SETUP_CHILDREN = 8
# pace samples taken before and after a set-up, which is too short to sample
SETUP_BURST = 40


def _setup_sample(args) -> tuple:
    """Set-up time (import plus inputs) and pace factor, measured in a
    fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-sample"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    seconds, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def _fresh_dir(tag: str) -> str:
    path = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _drop_dir(path: str) -> None:
    """Remove a scratch directory, and the scratch root once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def _timed_setup(wl, seed: int):
    t0 = time.perf_counter()
    import cuspforge  # noqa: F401
    inputs = wl.setup(seed)
    return time.perf_counter() - t0, inputs


def _paced_setup(wl, seed: int):
    """Set-up time, its pace factor and the inputs."""
    from pace import Pace

    pace = Pace().burst(SETUP_BURST)
    seconds, inputs = _timed_setup(wl, seed)
    pace.burst(SETUP_BURST)
    return seconds, pace.factor, inputs


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(wl, args) -> dict:
    from pace import Pace

    setup = [_setup_sample(args) for _ in range(SETUP_CHILDREN)]
    seconds, factor, inputs = _paced_setup(wl, args.seed)
    setup.append((seconds, factor))

    walls, factors, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        outdir = _fresh_dir(wl.name)
        pace = Pace()
        try:
            with pace:
                result = wl.call(inputs, outdir)
            bad = wl.check(inputs, wl.collect(inputs, result, outdir))
        except Exception as exc:  # any failure of the program counts, the run goes on
            bad = [f"{type(exc).__name__}: {exc}"]
        finally:
            _drop_dir(outdir)
        walls.append(pace.seconds)
        factors.append(pace.factor)
        if bad:
            failed += 1
            problems.extend(f"iteration {attempted}: {b}" for b in bad)
        if time.perf_counter() - start >= args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    paced_walls = [w / f for w, f in zip(walls, factors)]
    paced_setup = [s / f for s, f in setup]
    metrics = {
        "wall_ref_s": (statistics.median(paced_walls), paced_walls),
        "peak_rss_mb": (peak, [peak]),
        "setup_s": (statistics.median(paced_setup), paced_setup),
        "ok_ratio": ((attempted - failed) / attempted, None),
    }
    raw = {
        "wall_s": walls,
        "wall_pace_factor": factors,
        "setup_raw_s": [s for s, _ in setup],
        "setup_pace_factor": [f for _, f in setup],
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "raw": raw}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(wl, args) -> dict:
    import tracing
    from workloads import budget_refusal

    problems = []
    tracer = tracing.Tracer(wl.name, args.seed)
    root = None
    _, inputs = _timed_setup(wl, args.seed)
    outdir = _fresh_dir(f"{wl.name}-traced")
    try:
        problems.extend(budget_refusal(tracer))
        patched = tracing.install(tracer)
        try:
            with tracer.span("workload") as span:
                outputs = wl.traced(inputs, outdir, tracer)
            root = span
        finally:
            tracing.restore(patched)
        problems.extend(wl.check(inputs, outputs))
        if hasattr(wl, "probe"):
            problems.extend(wl.probe(inputs, outdir, tracer))
    except Exception as exc:  # report the failure with the metrics gathered so far
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        _drop_dir(outdir)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    values = layer_values(tracer, root)
    values["process.cpu_s"] = usage.ru_utime + usage.ru_stime
    values.update(loc_counts())
    os.makedirs(OUT, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT, f"{wl.name}-seed{args.seed}.spans.jsonl"))
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems,
            "values": values}


class LayerValues(dict):
    """Per-layer values by metric name.  A count or time of a traced span
    that never ran in this workload is 0; any other unknown name is an
    error, so a misspelt metric cannot pass as 0."""

    def __init__(self, spans):
        super().__init__()
        self.spans = spans

    def __missing__(self, name):
        if name.rsplit(".", 1)[0] in self.spans:
            return 0
        raise KeyError(name)


def layer_values(tracer, root) -> dict:
    """Every per-layer value this run can give, keyed by metric name."""
    import tracing

    names = {name for name, *_ in tracing.targets(tracer)}
    names |= {"moment_angle.budget_refusal", "polytopes.ingest_gosset"}
    values = LayerValues(names)
    totals = tracer.totals()
    for name in names:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_mb": 0.0})
        for key, v in t.items():
            values[f"{name}.{key}"] = v
    for span in tracer.spans:
        if span.name == "moment_angle.budget_refusal":
            values["moment_angle.budget_refusal.rss_mb"] = span.rss_mb - span.attrs["rss_before_mb"]
    for key, v in tracer.counts.items():
        values[key] = v
    values["polytopes.facets"] = tracer.counts.get("polytopes.ideal_dual.facets", 0)

    # one span per boundary matrix: the kernels under the homology stage
    for prefix, top in (("gf2.rank_of_rows", 4), ("snf.smith_normal_form", 3)):
        for k in range(1, top + 1):
            values[f"{prefix}.d{k}.s"] = 0.0
    stage = next((s.id for s in tracer.spans if s.name == "stage.homology"), None)
    call = next((s.id for s in tracer.spans
                 if s.parent == stage and s.name == "chains.homology"), None)
    kernels = [s for s in tracer.spans if call is not None and s.parent == call
               and s.name in ("gf2.rank_of_rows", "snf.smith_normal_form")]
    for k, s in enumerate(kernels, start=1):
        values[f"{s.name}.d{k}.s"] = s.duration

    stages = [s for s in tracer.spans if root is not None and s.parent == root.id]
    values["pipeline.stages.s"] = sum(s.duration for s in stages)
    values["pipeline.tracing_overhead.s"] = tracer.overhead
    return values


def loc_counts() -> dict:
    """Source lines per module (``loc.<module>``) and in total (``loc.src``)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "cuspforge", "*.py"))):
        with open(path, "rb") as fh:
            out["loc." + os.path.basename(path)[:-3]] = fh.read().count(b"\n")
    out["loc.src"] = sum(out.values())
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cuspforge", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git (a plain
    source tree has none; ``src_sha256`` identifies the code there)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = environment(args)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        res = run_traced(wl, args)
        metrics = {}
        for m in spec["per_layer"]:
            value = res["values"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            calls = res["values"].get(m["name"].rsplit(".", 1)[0] + ".calls")
            note = f"  ({calls} spans)" if calls and m["unit"] == "s" else ""
            print(f"  {m['name']} = {value} {m['unit']}{note}")
    else:
        res = run_untraced(wl, args)
        metrics = {}
        for m in spec["end_to_end"]:
            value, samples = res["metrics"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            note = ""
            if samples is not None:
                note = (f"  (median of {len(samples)} samples, "
                        f"min {min(samples):.6g}, max {max(samples):.6g})")
            print(f"  {m['name']} = {value} {m['unit']}{note}")
        print(f"  fail_ratio = {res['failed'] / res['attempted']} "
              f"({res['failed']} of {res['attempted']} attempted)")
        for name, samples in res["raw"].items():
            print(f"  {name}: median {statistics.median(samples):.6g} of {len(samples)} "
                  f"(min {min(samples):.6g}, max {max(samples):.6g})")

    correct = res["failed"] == 0
    print(f"exact-output check: {'passed' if correct else 'FAILED'} "
          f"({res['attempted'] - res['failed']} of {res['attempted']} exact)")
    for p in res["problems"]:
        print(f"  problem: {p}")
    record = {"env": env, "problems": res["problems"], "metrics": metrics,
              "samples": {k: v[1] for k, v in res.get("metrics", {}).items()},
              "raw": res.get("raw", {})}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pipeline-n4, census-n8, cusped-p3 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hash_seed = str(args.seed % 2 ** 32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.argv)

    if not os.path.isfile(os.path.join(SRC, "cuspforge", "__init__.py")):
        print(f"error: no cuspforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # the default cell budget and the built-in generators are what is measured
    os.environ.pop("CUSPFORGE_BUDGET", None)
    os.environ.pop("CUSPFORGE_DATA", None)

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.setup_sample:
        seconds, factor, _ = _paced_setup(WORKLOADS[args.workload], args.seed)
        print(seconds, factor)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
