#!/usr/bin/env python3
"""Run every correspondence suite and print a one-line summary per suite.

Each suite runs at the sizes its function defaults to, with `--seed` passed
to the suites that read a seed. Exit code is 0 only if every case in every
suite passes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smdp.verify import SUITES, run_suite, suite_arguments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--suite", choices=SUITES, action="append",
        help="run only this suite (repeatable); default: all",
    )
    args = parser.parse_args()
    names = args.suite or list(SUITES)
    total_failures = 0
    for name in names:
        sizes = suite_arguments(name)  # the suite's own defaults
        if "seed" in sizes:
            sizes["seed"] = args.seed
        start = time.monotonic()
        rows = run_suite(name, **sizes)
        elapsed = time.monotonic() - start
        failures = [r for r in rows if not r.ok]
        total_failures += len(failures)
        status = "ok" if not failures else f"{len(failures)} FAILURES"
        print(f"{name:<14} {len(rows):>5} cases  {elapsed:6.1f}s  {status}")
        for r in failures:
            print(f"  FAIL {r.case}: expected {r.expected}, got {r.got}")
    return 2 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
