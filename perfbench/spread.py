#!/usr/bin/env python3
"""Run one workload on several seeds and print, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.

    python3 perfbench/spread.py majsat

Seeds 1-10 and the run_seconds of BENCHMARK.json. Runs are sequential, one
process at a time, from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SECONDS = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    args = parser.parse_args()
    values = {}
    for seed in SEEDS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-3000:], file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in metrics.items())
        print(f"{args.workload} seed {seed} ({time.perf_counter() - start:.1f} s): {shown}", flush=True)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{args.workload} {name}: median {med!r} spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
