#!/usr/bin/env python3
"""Generate a small gallery of instance directories, one per reduction.

Each directory holds the MDP manifest and netlists, the source CNF, the
companion policy or value-function manifest, an instance.txt with the query
parameters, and expected.txt with brute-force-derived answers.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smdp.cnf import Cnf
from smdp.reductions import (
    emajsat_to_bounded_policy,
    forallexists_to_valuefn,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
    write_instance,
)

GALLERY = [
    # (subdirectory, builder)
    ("satnext_sat", lambda: sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2))))),
    ("satnext_unsat", lambda: sat_to_next_action(Cnf(1, ((1, 1, 1), (-1, -1, -1))))),
    ("majsat", lambda: majsat_to_eval(Cnf(3, ((1, 2), (-2, 3))))),
    ("emajsat", lambda: emajsat_to_bounded_policy(Cnf(2, ((1, -2), (-1, 2))), 1)),
    ("unsatcons", lambda: unsat_to_consistency(Cnf(2, ((1,), (-1,))))),
    ("forall", lambda: forallexists_to_valuefn(Cnf(2, ((1,),)), 1)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="instances", help="parent directory")
    args = parser.parse_args()
    for sub, build in GALLERY:
        inst = build()
        path = f"{args.out}/{sub}"
        write_instance(inst, path)
        print(f"wrote {inst.name} (horizon {inst.horizon}) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
