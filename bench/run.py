"""Run one sqstar benchmark workload, check its outputs, print its metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload table-1e8 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload search-sweep --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --workload threshold-exhaustive --seed 0 --seconds 0 --smoke
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (plus its overhead against an untraced round on
the same inputs).  `--smoke` shrinks every workload for the benchmark's
own tests.  Each metric is printed as `name value unit`; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A fuller record (environment stamp, determinism counts,
failed checks) goes to `.bench_out/<workload>.trace<0|1>.json`, and a
traced run also writes its spans to `.bench_out/<workload>.spans.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# A claim is measured on the seeds used while writing the change and then
# checked once more on this seed.
SECOND_SEED = 1009
MAX_PASSES = 1000

# Gated end-to-end metrics: defined, nonzero and seed-stable on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Reported end-to-end metrics, on the workloads where they exist.
REPORTED = {"op_p50_ms": "ms", "op_p90_ms": "ms", "op_samples": "count",
            "nodes_per_s": "1/s", "star_pairs_per_s": "1/s", "failed_ratio": "1"}

FAMILIES = ("fpf", "brauer", "deuber", "mt", "geo", "pvw")
LAYERS = ("ground", "semigroup", "colorings", "patterns", "search", "hjlab", "cli")
PER_LAYER = {
    "ground.build_table.s": "s",
    "ground.save_cache.s": "s",
    "ground.load_cache.s": "s",
    "ground.load_cache.calls": "count",
    "ground.cache_mb": "MB",
    "ground.count_below.calls": "count",
    "ground.count_below.us": "us",
    "ground.count_below_many.queries": "count",
    "ground.count_below_many.ns_per_query": "ns",
    "semigroup.star_many.ns_per_pair": "ns",
    "semigroup.eval_monomial.calls": "count",
    "semigroup.eval_monomial.us": "us",
    "semigroup.verify_laws.s": "s",
    "colorings.color_of.calls": "count",
    "colorings.enumerate_all.colorings": "count",
    "colorings.enumerate_all.per_s": "1/s",
    "patterns.config_values.calls": "count",
    "patterns.values_per_candidate": "count",
    "search.find_witness.calls": "count",
    "search.nodes": "count",
    "search.skipped": "count",
    "search.useful_ratio": "1",
    **{f"search.nodes_per_s.{f}": "1/s" for f in FAMILIES},
    **{f"search.status.{s}": "count" for s in ("witness", "budget", "exhausted")},
    "search.verify_witness.ms": "ms",
    **{f"search.threshold.s.{f}": "s" for f in ("brauer", "fpf", "deuber", "geo")},
    "hjlab.hj_search.nodes_per_s": "1/s",
    "hjlab.phj_search.nodes_per_s": "1/s",
    "hjlab.hj_threshold.s": "s",
    "hjlab.phj_threshold.s": "s",
    "cli.main.calls": "count",
    "cli.build-cache.ms": "ms",
    "cli.search.ms": "ms",
    "cli.verify.ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "1",
}


def import_sqstar():
    """Import the package from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "sqstar")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"bench: no sqstar package at {pkg}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import sqstar

    if os.path.dirname(os.path.abspath(sqstar.__file__)) != pkg:
        sys.exit(f"bench: imported sqstar from {sqstar.__file__}, expected {pkg}")
    return sqstar


def stamp(limits) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "sqstar", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "table_limits": limits,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_round(wl, run, state):
    """One pass of the round.

    Returns its wall time without the benchmark's own output checks, the
    time of each program call in order, and the determinism counts."""
    check0, ops0, calls0 = run.check_s, run.attempted, len(run.op_times)
    colorings0 = run.tracer.stat("colorings.enumerate_all")[2] if run.tracer else 0
    t0 = time.perf_counter()
    counts = wl.round(run, state)
    seconds = time.perf_counter() - t0 - (run.check_s - check0)
    counts["operations"] = run.attempted - ops0
    if run.tracer:
        counts["colorings_enumerated"] = run.tracer.stat("colorings.enumerate_all")[2] - colorings0
    return seconds, run.op_times[calls0:], counts


def measure(wl, run, seconds: float, tracer):
    if tracer:
        tracer.install()
        run.tracer = tracer
    setup_times = []
    state = None
    # back to back: a pause between builds lets the caches go cold, and a
    # small build then takes either its warm time or nearly twice that
    for _ in range(wl.setups):
        state, dt = wl.setup_once(run)
        setup_times.append(dt)
    reference = None
    if tracer:
        # the same round untraced, for the tracing overhead
        tracer.uninstall()
        run.tracer = None
        reference, _, _ = timed_round(wl, run, state)
        tracer.install()
        run.tracer = tracer
    times, passes, rounds = [], [], []
    while True:
        dt, calls, counts = timed_round(wl, run, state)
        times.append(dt)
        passes.append(calls)
        rounds.append(counts)
        if run.smoke or len(times) >= MAX_PASSES or sum(times) >= seconds:
            break
    if tracer:
        tracer.uninstall()
    with run.checking():
        # every pass repeats the same calls on the same inputs
        run.check(all(len(p) == len(passes[0]) for p in passes)
                  and all(c == rounds[0] for c in rounds),
                  "passes of one run made different calls or counts")
    return setup_times, times, passes, rounds, reference


def fastest_pass(passes) -> float:
    """The round's time with each program call at its fastest over the passes.

    Call i of every pass does the same work on the same inputs, so its
    minimum leaves out the time it lost to a slow episode of the shared
    host in the other passes."""
    return sum(min(calls) for calls in zip(*passes))


def end_to_end(setup_times, passes) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": fastest_pass(passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def reported(run) -> dict:
    """End-to-end metrics that exist on some workloads only; printed, not gated."""
    out = {"failed_ratio": len(run.failures) / max(run.attempted, 1)}
    if run.latencies:
        out["op_samples"] = len(run.latencies)
        out["op_p50_ms"] = statistics.median(run.latencies) * 1e3
    if len(run.latencies) >= 100:
        out["op_p90_ms"] = statistics.quantiles(run.latencies, n=10)[-1] * 1e3
    if run.extra.get("find_witness_s"):
        out["nodes_per_s"] = run.extra["find_witness_nodes"] / run.extra["find_witness_s"]
    if run.extra.get("star_s"):
        out["star_pairs_per_s"] = run.extra["star_pairs"] / run.extra["star_s"]
    return out


def per_layer(tracer, run, overhead: float) -> dict:
    def mean(name, scale=1.0):
        calls, incl, _ = tracer.stat(name)
        return incl / calls * scale if calls else 0.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    ex = tracer.extra
    m = {
        "ground.build_table.s": mean("ground.build_table"),
        "ground.save_cache.s": mean("ground.save_cache"),
        "ground.load_cache.s": mean("ground.load_cache"),
        "ground.load_cache.calls": tracer.stat("ground.load_cache")[0],
        "ground.cache_mb": run.extra.get("cache_mb", 0.0),
        "ground.count_below.calls": tracer.stat("ground.count_below")[0],
        "ground.count_below.us": mean("ground.count_below", 1e6),
        "ground.count_below_many.queries": int(ex["ground.count_below_many.queries"]),
        "ground.count_below_many.ns_per_query": 1e9 * rate(
            tracer.stat("ground.count_below_many")[1], ex["ground.count_below_many.queries"]),
        "semigroup.star_many.ns_per_pair": 1e9 * rate(
            tracer.stat("semigroup.star_many")[1], ex["semigroup.star_many.pairs"]),
        "semigroup.eval_monomial.calls": tracer.stat("semigroup.eval_monomial")[0],
        "semigroup.eval_monomial.us": mean("semigroup.eval_monomial", 1e6),
        "semigroup.verify_laws.s": mean("semigroup.verify_laws"),
        "colorings.color_of.calls": tracer.stat("colorings.color_of")[0],
        "colorings.enumerate_all.colorings": tracer.stat("colorings.enumerate_all")[2],
        "colorings.enumerate_all.per_s": rate(
            tracer.stat("colorings.enumerate_all")[2], tracer.stat("search.threshold")[1]),
        "patterns.config_values.calls": tracer.stat("patterns.config_values")[0],
        "patterns.values_per_candidate": rate(
            tracer.stat("patterns.config_values")[2], tracer.stat("patterns.config_values")[0]),
        "search.find_witness.calls": tracer.stat("search.find_witness")[0],
        "search.nodes": int(ex["search.nodes"]),
        "search.skipped": int(ex["search.skipped"]),
        "search.useful_ratio": rate(ex["search.nodes"] - ex["search.skipped"], ex["search.nodes"]),
        "search.verify_witness.ms": mean("search.verify_witness", 1e3),
        "hjlab.hj_search.nodes_per_s": rate(
            ex["hjlab.hj_search.nodes"], tracer.stat("hjlab.hj_search")[1]),
        "hjlab.phj_search.nodes_per_s": rate(
            ex["hjlab.phj_search.nodes"], tracer.stat("hjlab.phj_search")[1]),
        "hjlab.hj_threshold.s": mean("hjlab.hj_threshold"),
        "hjlab.phj_threshold.s": mean("hjlab.phj_threshold"),
        "cli.main.calls": tracer.stat("cli.main")[0],
        "trace.overhead_ratio": overhead,
    }
    for f in FAMILIES:
        m[f"search.nodes_per_s.{f}"] = rate(
            ex[f"search.nodes.{f}"], ex[f"search.find_witness.s.{f}"])
    for s in ("witness", "budget", "exhausted"):
        m[f"search.status.{s}"] = int(ex[f"search.status.{s}"])
    for f in ("brauer", "fpf", "deuber", "geo"):
        m[f"search.threshold.s.{f}"] = rate(
            ex[f"search.threshold.s.{f}"], ex[f"search.threshold.calls.{f}"])
    for cmd in ("build-cache", "search", "verify"):
        m[f"cli.{cmd}.ms"] = rate(ex[f"cli.{cmd}.s"], ex[f"cli.{cmd}.calls"]) * 1e3
    for layer, s in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = s
    return m


def run_all(names, args) -> int:
    """Run every workload, each in a fresh process; fail if any check failed."""
    worst = 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines() or [""]
        try:
            correct = json.loads(lines[-1]).get("correct") is True
        except ValueError:
            correct = False
        worst = max(worst, proc.returncode, 0 if correct else 1)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or all to run each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one pass, for the benchmark's own tests")
    args = ap.parse_args(argv)

    import_sqstar()
    import tracer as tracing
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload](args.smoke)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    run = workloads.Run(args.seed, args.smoke, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, times, passes, rounds, reference = measure(wl, run, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = per_layer(tracer, run, times[0] / reference if reference else 0.0)
        units = PER_LAYER
        tracer.write_spans(os.path.join(OUT, f"{wl.name}.spans.jsonl.gz"))
    else:
        metrics = end_to_end(setup_times, passes)
        units = END_TO_END
    extras = reported(run)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "second_seed": SECOND_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "stamp": stamp([wl.limit]),
        "metrics": metrics,
        "reported_metrics": extras,
        "samples": {"setups": len(setup_times), "passes": len(times),
                    "pass_s": times, "setup_s": setup_times,
                    "reference_pass_s": reference},
        "determinism": {"round": rounds[0], "digest": workloads.digest(rounds[0])},
        "attempted": run.attempted,
        "failures": run.failures[:50],
    }
    with open(os.path.join(OUT, f"{wl.name}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(setup_times)} setups, {len(times)} passes, {run.attempted} operations")
    for name, value in record["stamp"].items():
        print(f"stamp {name} {value}")
    for name, value in rounds[0].items():
        print(f"determinism {name} {json.dumps(value, sort_keys=True)}")
    for msg in run.failures[:20]:
        print(f"FAILED {msg}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, value in extras.items():
        print(f"{name} {value:.6g} {REPORTED[name]}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
