#!/usr/bin/env python3
"""Benchmark of the smdp toolkit: one workload, one seed, one process.

    python3 perfbench/run.py --workload majsat --seed 1 --seconds 20 --trace 0

Run it from the repository root; smdp is imported from ./src and nothing
else of the repository is used. Workloads (see workloads.py):
nextaction, majsat, montecarlo, consistency_cli.

A run sets up SETUP_REPEATS times (fresh import of smdp, input generation
from the seed and reference answers) and reports the median as `setup_s`.
After an untimed, checked warm-up pass, the timed phase repeats the
workload's pass of queries for about `seconds` (at least once; a pass
starts only if one as long as the longest so far still fits).

The host is shared: other tenants slow a single-threaded run by up to half,
for seconds to minutes at a time. Every time (each set-up, each query call)
is therefore scaled to the reference speed: divided by the mean time of
`host_speed()` just before and just after it, and multiplied by CAL_REF_S,
the time `host_speed()` takes on a core nothing else slows. A query's
latency is the median of its scaled repeats. The unscaled figures are
printed beside the metrics. Every answer is checked; a wrong or raised
answer is printed to stderr and the run exits 1.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json. With --trace 1 a warm-up pass
precedes a fixed number of passes, which run each query once untraced and
once with every public smdp function wrapped (spans.py), in alternating order;
the JSON then holds the per-layer metrics, the self-time sum and the
tracing overhead are printed beside them, and the spans are written to
perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, one thread

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
CAL_REF_S = 2.2e-3  # host_speed() on a core of the reference host when no other tenant slows it

sys.path.insert(0, str(HERE))
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

clock = time.perf_counter


class NoProgram(RuntimeError):
    pass


def import_smdp() -> SimpleNamespace:
    """Import smdp afresh from ./src, so set-up time includes the import."""
    src = ROOT / "src"
    if not (src / "smdp" / "__init__.py").is_file():
        raise NoProgram(f"no smdp package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "smdp" or m.startswith("smdp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("smdp")
    if Path(pkg.__file__).resolve().parent != (src / "smdp").resolve():
        raise NoProgram(f"smdp imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"smdp.{m}") for m in ("cnf",) + LAYERS})


def setup(wl, seed: int, workdir: str, tracer=None):
    """Set up and time it. The objects set-up leaves are then frozen out of
    the collector, so that the collection before each query, and those the
    program's own allocations trigger, do not traverse the benchmark's
    inputs again and again."""
    gc.unfreeze()
    gc.collect()
    t0 = clock()
    with tracer.span("bench.setup", query="setup") if tracer else nullcontext():
        sm = import_smdp()
        if tracer:
            tracer.install()
        queries = wl.setup(sm, seed, workdir)
    dt = clock() - t0
    gc.collect()
    gc.freeze()
    return sm, queries, dt


def run_query(wl, sm, q, qid: int, tracer=None):
    """One query and its check: (call seconds, busy seconds, verdict). Busy
    time covers the call and the check; the garbage collection before the
    query, which gives every query the same collector state, is left out."""
    span = tracer.span if tracer else (lambda name, query=None: nullcontext())
    error = None
    gc.collect()
    t_start = clock()
    with span("bench.query", qid):
        t0 = clock()
        try:
            outcome = wl.call(sm, q)
        except Exception:  # a raised answer is a failed answer; keep measuring
            error = traceback.format_exc()
        dt = clock() - t0
    with span("bench.check", qid):
        verdict = wl.check(q, outcome) if error is None else Verdict(q["case"], False, "raised:\n" + error)
    return dt, clock() - t_start, verdict


_CAL_RNG = random.Random(0)
_CAL_KEYS = [tuple(_CAL_RNG.getrandbits(1) for _ in range(24)) for _ in range(1000)]
_CAL_TABLE = {k: i for i, k in enumerate(_CAL_KEYS)}
_CAL_ROWS = np.random.default_rng(0).integers(0, 2, size=(4096, 64)).astype(bool)


def host_speed() -> float:
    """Seconds a fixed mix of the operations smdp spends its time on takes
    now (dict lookups keyed by bit tuples, Fraction sums, numpy boolean row
    operations): the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        acc = Fraction(0)
        for k in _CAL_KEYS:
            acc += Fraction(_CAL_TABLE[k] & 7, 8)
        rows = _CAL_ROWS
        for _ in range(3):
            rows = rows ^ np.roll(_CAL_ROWS, 1, axis=1)
        best = min(best, clock() - t0)
    return best


def at_reference_speed(dt: float, before: float) -> float:
    """Seconds `dt`, measured just after the calibration loop took `before`,
    scaled to the reference speed: over the mean of `before` and the loop's
    time now, times CAL_REF_S."""
    return dt * CAL_REF_S * 2 / (before + host_speed())


def tail(latencies):
    """The highest latency with at least ten queries beyond it, and its percentile."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def timed_run(wl, seed: int, seconds: float, workdir: str):
    setups = []
    for _ in range(SETUP_REPEATS):
        before = host_speed()
        sm, queries, dt = setup(wl, seed, workdir)
        setups.append(at_reference_speed(dt, before))
    failed = []
    for i, q in enumerate(queries):  # warm-up pass, checked but not timed
        verdict = run_query(wl, sm, q, i)[2]
        failed += [] if verdict.ok else [verdict]
    lat = [[] for _ in queries]
    raw = [[] for _ in queries]
    longest = 0.0
    start = clock()
    while not lat[0] or clock() - start + longest <= seconds:
        t_pass = clock()
        for i, q in enumerate(queries):
            before = host_speed()
            dt, _, verdict = run_query(wl, sm, q, (len(lat[0]) + 1) * len(queries) + i)
            lat[i].append(at_reference_speed(dt, before))
            raw[i].append(dt)
            failed += [] if verdict.ok else [verdict]
        longest = max(longest, clock() - t_pass)
    passes = len(lat[0])
    latency = [statistics.median(times) for times in lat]
    p_tail, pct = tail(latency)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": len(queries) / sum(latency),
        "query_p50_s": statistics.median(latency),
        "query_tail_s": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    answers = (passes + 1) * len(queries)
    notes = [
        f"warm-up pass, then passes {passes} of {len(queries)} queries in {clock() - start:.2f} s; "
        f"{answers} answers",
        "each query's latency is the median of its passes, scaled to the reference speed; "
        "verdicts_per_s is queries over the sum of those",
        f"unscaled: verdicts_per_s {len(queries) / sum(map(statistics.median, raw)):.4f} 1/s, "
        f"query_p50_s {statistics.median(map(statistics.median, raw)):.4f} s; "
        f"host_speed {host_speed() * 1e3:.3f} ms against {CAL_REF_S * 1e3} ms",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: {', '.join(f'{s:.4f}' for s in setups)}",
        f"query_tail_s is the p{pct:.2f} latency of {len(latency)} distinct queries",
        f"error_share {len(failed) / answers} ratio ({len(failed)}/{answers})",
    ]
    if wl.name == "montecarlo":
        notes.append(f"mc_samples_per_s {metrics['verdicts_per_s'] * wl.SAMPLES} 1/s")
    return metrics, answers, failed, notes


def traced_run(wl, seed: int, seconds: float, workdir: str):
    """Set up once traced and run one untraced warm-up pass, so that the
    slower first call of each query falls outside the comparison. Then run
    every query of round(seconds / 2 / pass_seconds) passes (at least one;
    a fixed count, so that counts repeat) twice, untraced and traced, the
    order alternating from query to query. The overhead is the traced minus
    the untraced call time, summed over the queries; a calibration loop
    gives the cost of one span besides."""
    passes = max(1, round(seconds / 2 / wl.pass_seconds))
    tracer = Tracer()
    sm, queries, setup_s = setup(wl, seed, workdir, tracer)
    tracer.uninstall()
    setup_spans = len(tracer.spans)
    busy_traced, overhead, answers, failed = 0.0, 0.0, 0, []
    for i, q in enumerate(queries):
        verdict = run_query(wl, sm, q, i)[2]
        answers += 1
        failed += [] if verdict.ok else [verdict]
    for p in range(passes):
        for i, q in enumerate(queries):
            qid = p * len(queries) + i
            took = {}
            for traced in (False, True) if qid % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                dt, busy, verdict = run_query(wl, sm, q, qid, tracer if traced else None)
                busy_traced += busy if traced else 0.0
                tracer.uninstall()
                took[traced] = dt
                answers += 1
                failed += [] if verdict.ok else [verdict]
            overhead += took[True] - took[False]
    metrics = tracer.summary()
    wall = setup_s + busy_traced
    span_cost = Tracer.span_cost()
    timed_spans = len(tracer.spans) - setup_spans
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(spans_path)
    bench_self = sum(
        v for k, v in metrics.items() if k.startswith("bench.") and k.endswith(".self_s")
    )
    notes = [
        f"warm-up pass, then passes {passes} of {len(queries)} queries, each untraced and traced in "
        f"alternating order; {len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}",
        f"trace.wall_s {wall} s (traced set-up plus traced timed phase)",
        f"trace.self_sum_s {metrics['trace.self_sum_s']} s (self times of all spans)",
        f"bench.self_s {bench_self} s (the benchmark's own set-up, loop and checks)",
        f"trace.overhead_s {overhead} s (timed phase, traced minus untraced, {passes * len(queries)} query pairs)",
        f"trace.span_cost_s {span_cost} s (one span, calibration loop)",
        f"trace.overhead_est_s {timed_spans * span_cost} s ({timed_spans} timed-phase spans x span cost)",
    ]
    layers = sorted(
        (k[: -len(".self_s")] for k in metrics if k.endswith(".self_s") and not k.startswith("bench.")),
        key=lambda name: -metrics[f"{name}.self_s"],
    )
    for name in layers:
        notes.append(
            f"span {name:<40} calls {metrics[name + '.calls']:>8}  self {metrics[name + '.self_s']:.4f} s"
            f"  total {metrics[name + '.total_s']:.4f} s"
        )
    return metrics, answers, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, notes = run(wl, args.seed, args.seconds, workdir)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for v in failed:
        print(f"perfbench: WRONG {v.case}: {v.detail}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    result = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": result}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
