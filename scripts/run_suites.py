#!/usr/bin/env python3
"""Run every correspondence suite and print a one-line summary per suite.

Exit code is 0 only if every case in every suite passes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smdp.verify import SUITES, run_suite

DEFAULTS = {
    # suite name -> (n, cases, reads the seed); None for a count the suite
    # does not read
    "nextaction": (3, 100, True),
    "evalreward": (10, 50, True),
    "boundedpolicy": (None, None, False),
    "consistency": (8, 50, True),
    "valuechoice": (None, None, False),
    "normalization": (None, 20, True),
    "roundtrip": (None, 10, True),
    "dnf": (8, 100, True),
}


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
        n, cases, reads_seed = DEFAULTS[name]
        start = time.monotonic()
        rows = run_suite(name, n=n, cases=cases, seed=args.seed if reads_seed else None)
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
