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

from smdp import oracle
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
    # (subdirectory, builder, expected-line builder)
    (
        "satnext_sat",
        lambda: sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2)))),
        lambda cnf: [f"expected_action {'S' if oracle.sat_oracle(cnf) else 'U'}"],
    ),
    (
        "satnext_unsat",
        lambda: sat_to_next_action(Cnf(1, ((1, 1, 1), (-1, -1, -1)))),
        lambda cnf: [f"expected_action {'S' if oracle.sat_oracle(cnf) else 'U'}"],
    ),
    (
        "majsat",
        lambda: majsat_to_eval(Cnf(3, ((1, 2), (-2, 3)))),
        lambda cnf: [
            f"expected_reward {oracle.model_count(cnf)}/{1 << cnf.num_vars}"
        ],
    ),
    (
        "emajsat",
        lambda: emajsat_to_bounded_policy(Cnf(2, ((1, -2), (-1, 2))), 1),
        lambda cnf: [
            f"expected_exists {'yes' if oracle.emajsat_oracle(cnf, 1) else 'no'}"
        ],
    ),
    (
        "unsatcons",
        lambda: unsat_to_consistency(Cnf(2, ((1,), (-1,)))),
        lambda cnf: [
            "expected_consistent"
            if oracle.model_count(cnf) == 0
            else "expected_inconsistent"
        ],
    ),
    (
        "forall",
        lambda: forallexists_to_valuefn(Cnf(2, ((1,),)), 1),
        lambda cnf: [
            f"expected_exists {'yes' if oracle.forall_exists_oracle(cnf, 1) else 'no'}"
        ],
    ),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="instances", help="parent directory")
    args = parser.parse_args()
    for sub, build, expected in GALLERY:
        inst = build()
        path = f"{args.out}/{sub}"
        write_instance(inst, path, extra_expected=expected(inst.cnf))
        print(f"wrote {inst.name} (horizon {inst.horizon}) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
