#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to a root
BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload nextaction --pairs 5 --seconds 20 --out BENCH_10.json

`--parent` and `--change` are two checkouts of the repository. Pair i runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` in each of
them, one run at a time: odd pairs run the parent first, even pairs the
change first. Per end-to-end metric of the change's BENCHMARK.json, the file
records both sides' runs, their medians, the parent's interquartile range
(statistics.quantiles, n=4), the pairs in which the change reads better
(ties count for neither), the ratio of the medians and a verdict (see
`verdict`). Runs of other workloads already in `--out` are kept, so one file
collects every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def iqr(values: list) -> float:
    """The distance between the quartiles (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def change_wins(parent: list, change: list, lower: bool) -> int:
    """The pairs in which the change reads better; ties count for neither."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(parent: list, change: list, lower: bool, bound: float) -> str:
    """How one metric reads over the pairs, parent[i] and change[i] being
    pair i:

    - ``gain``: the change reads better in at least 9/10 of the pairs (ties
      count for neither) and its median is better than the parent's by more
      than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more than
      `bound`, a fraction of the parent's median;
    - ``unresolved``: the interquartile range of either side is wider than
      that bound, and not every run of the change reads better than every
      run of the parent;
    - ``flat``: otherwise.
    """
    sign = -1 if lower else 1  # sign * (a - b) > 0 when a reads better than b
    pm, cm = statistics.median(parent), statistics.median(change)
    if change_wins(parent, change, lower) >= 0.9 * len(parent) and sign * (cm - pm) > iqr(parent):
        return "gain"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    worst_change = max(change) if lower else min(change)
    best_parent = min(parent) if lower else max(parent)
    if max(iqr(parent), iqr(change)) > bound * abs(pm) and sign * (worst_change - best_parent) <= 0:
        return "unresolved"
    return "flat"


def summarize(spec: dict, runs: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent_runs": [round(v, 5) for v in parent],
            "change_runs": [round(v, 5) for v in change],
            "parent_median": round(pm, 5),
            "change_median": round(cm, 5),
            "parent_iqr": round(iqr(parent), 5),
            "change_wins": change_wins(parent, change, lower),
            "change_over_parent": round(cm / pm, 4) if pm else None,
            "verdict": verdict(parent, change, lower, m["bound"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="what the change is, for the file's header")
    ap.add_argument("--parent-commit", default="", help="the parent's commit, for the header")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    runs = {"parent": [], "change": []}
    seeds = list(range(1, args.pairs + 1))
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
            m = runs[side][-1]["metrics"]
            print(f"{args.workload} seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.note:
        doc["change"] = args.note
    if args.parent_commit:
        doc["parent_commit"] = args.parent_commit
    doc["machine"] = machine()
    doc["method"] = (
        "scripts/bench_pairs.py: python3 perfbench/run.py --workload W --seed S --seconds "
        f"{args.seconds:g} --trace 0 in a parent and a change checkout, one run at a time on "
        "the same host; pair i runs seed i on both sides, odd pairs parent first, even pairs "
        "change first; medians over the pairs, the parent's interquartile range, the pairs "
        "the change wins, the ratio of the medians and a verdict (bench_pairs.verdict)"
    )
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": summarize(spec, runs),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
