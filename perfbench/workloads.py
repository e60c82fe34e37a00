"""The benchmark's workloads.

Each workload makes its inputs from the seed in `setup`, together with the
reference answers, and returns one pass: a list of queries. `call` makes the
public smdp call(s) of one query and is the part that is timed; `check`
compares the outcome with the reference and returns the query's `Verdict`.

References come from `oracle` calls on the benchmark's own inputs, cross-
checked against `brute_force_count`, which shares no code with smdp. Nothing
is read back from the `expected.txt` files the program writes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Tuple

import numpy as np

Clauses = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Verdict:
    case: str
    ok: bool
    detail: str = ""


class SetupError(RuntimeError):
    """The program's oracle disagrees with the benchmark's own count."""


def brute_force_count(n: int, clauses: Clauses) -> int:
    """Models of a CNF over variables 1..n, by evaluating all 2**n rows."""
    rows = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    sat = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        hit = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            hit |= rows[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        sat &= hit
    return int(sat.sum())


def random_cnf(rng: random.Random, n: int, m: int, k: int = 3) -> Clauses:
    return tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k))
        for _ in range(m)
    )


def reference_count(sm, n: int, clauses: Clauses) -> int:
    got = sm.oracle.model_count(sm.cnf.Cnf(n, clauses))
    want = brute_force_count(n, clauses)
    if got != want:
        raise SetupError(f"oracle.model_count gives {got}, brute force {want}: n{n} {clauses}")
    return want


def reference_sat(sm, n: int, clauses: Clauses) -> bool:
    got = sm.oracle.sat_oracle(sm.cnf.Cnf(n, clauses))
    if got != (brute_force_count(n, clauses) > 0):
        raise SetupError(f"oracle.sat_oracle gives {got}, brute force disagrees: n{n} {clauses}")
    return got


# ------------------------------------------------------------------ nextaction


class NextAction:
    """`oracle.best_next_action` on `reductions.sat_to_next_action` instances
    (compact mode): the per-instance entry point of criterion 3. From the
    state spelling out the formula, "S" must be the only optimal action when
    the formula is satisfiable and "U" otherwise. A pass holds 40 formulas
    drawn from the n = 2 grid of 3-literal clauses, with a fixed number of
    satisfiable and unsatisfiable ones per clause count (GRID), and one random
    n = 3 formula with three clauses."""

    name = "nextaction"
    pass_seconds = 4.0
    # (clauses, satisfiable, unsatisfiable) formulas drawn with n = 2; two
    # clauses over two variables are unsatisfiable only in two ways
    GRID = ((1, 10, 0), (2, 13, 2), (3, 8, 7))
    LARGE = (3,)  # clauses of each formula with n = 3

    @staticmethod
    def _triples(n: int) -> List[Tuple[int, ...]]:
        lits = [v for i in range(1, n + 1) for v in (i, -i)]
        return list(itertools.combinations_with_replacement(lits, 3))

    def inputs(self, seed: int) -> List[Tuple[int, Clauses]]:
        rng = random.Random(seed)
        triples = self._triples(2)
        formulas = []
        for k, sat, unsat in self.GRID:
            combos = list(itertools.combinations(triples, k))
            models = [brute_force_count(2, combo) for combo in combos]
            formulas += [(2, c) for c in rng.sample([c for c, m in zip(combos, models) if m], sat)]
            formulas += [(2, c) for c in rng.sample([c for c, m in zip(combos, models) if not m], unsat)]
        triples = self._triples(3)
        formulas += [(3, tuple(rng.sample(triples, k))) for k in self.LARGE]
        return formulas

    def setup(self, sm, seed: int, workdir: str) -> List[Any]:
        queries = []
        for n, clauses in self.inputs(seed):
            inst = sm.reductions.sat_to_next_action(sm.cnf.Cnf(n, clauses), mode="compact")
            want = inst.mdp.actions.index("S" if reference_sat(sm, n, clauses) else "U")
            queries.append({"case": f"nextaction n{n} {clauses}", "inst": inst, "want": want})
        return queries

    def call(self, sm, q):
        inst = q["inst"]
        return sm.oracle.best_next_action(inst.mdp, inst.steps_remaining(), inst.state)

    def check(self, q, actions) -> Verdict:
        want = q["want"]
        detail = f"want ({want},) ({q['inst'].mdp.actions[want]}), got {actions!r}"
        return Verdict(q["case"], tuple(actions) == (want,), detail)


# ---------------------------------------------------------------------- majsat


class MajSat:
    """Exact reward of the majsat policy on a ladder n = 8..11 of formulas
    with 3n random 3-clauses; it must equal model_count / 2**n. The rung sizes
    put the median inside the n = 10 rung and the tail inside the n = 11 one,
    not on the edge between two rungs."""

    name = "majsat"
    pass_seconds = 3.0
    LADDER = (8,) * 6 + (9,) * 6 + (10,) * 12 + (11,) * 16

    def setup(self, sm, seed: int, workdir: str) -> List[Any]:
        rng = random.Random(seed)
        queries = []
        for n in self.LADDER:
            clauses = random_cnf(rng, n, 3 * n)
            inst = sm.reductions.majsat_to_eval(sm.cnf.Cnf(n, clauses))
            want = Fraction(reference_count(sm, n, clauses), 1 << n)
            queries.append({"case": f"majsat n{n} {clauses}", "inst": inst, "want": want})
        return queries

    def call(self, sm, q):
        inst = q["inst"]
        return sm.evaluator.expected_reward_exact(inst.mdp, inst.policy, inst.horizon)

    def check(self, q, report) -> Verdict:
        got = report.expected_reward
        ok = isinstance(got, Fraction) and got == q["want"]
        return Verdict(q["case"], ok, f"want {q['want']}, got {got!r}")


# ------------------------------------------------------------------ montecarlo


class MonteCarlo:
    """Monte-Carlo estimates of the majsat reward for n = 4..7, SAMPLES
    trajectories each, with a Monte-Carlo seed fixed per query so that every
    repeat does the same work. An estimate must lie within 5 standard errors
    of p = model_count / 2**n, the standard error taken from p. Formulas are
    drawn until p is in [0.1, 0.9], so that an estimate with zero sample
    variance cannot occur. The rung sizes put the median inside the n = 6 rung
    and the tail inside the n = 7 one."""

    name = "montecarlo"
    pass_seconds = 2.5
    LADDER = (4,) * 8 + (5,) * 8 + (6,) * 10 + (7,) * 14
    SAMPLES = 200

    def setup(self, sm, seed: int, workdir: str) -> List[Any]:
        rng = random.Random(seed)
        queries = []
        for i, n in enumerate(self.LADDER):
            while True:
                clauses = random_cnf(rng, n, 2 * n)
                count = reference_count(sm, n, clauses)
                if 0.1 <= count / (1 << n) <= 0.9:
                    break
            inst = sm.reductions.majsat_to_eval(sm.cnf.Cnf(n, clauses))
            queries.append(
                {"case": f"mc n{n} {clauses}", "inst": inst, "want": count / (1 << n),
                 "mc_seed": seed * 1000 + i}
            )
        return queries

    def call(self, sm, q):
        inst = q["inst"]
        return sm.evaluator.expected_reward_mc(inst.mdp, inst.policy, inst.horizon, self.SAMPLES, q["mc_seed"])

    def check(self, q, est) -> Verdict:
        # A trajectory's return is 0 or 1, so the standard error follows from
        # the share alone: the reference share bounds the mean, and the
        # estimate's own mean gives the stderr it must report (either
        # variance denominator passes).
        p, n = q["want"], self.SAMPLES
        ok = isinstance(est.mean, Fraction) and est.samples == n
        if ok:
            mean = float(est.mean)
            ok = abs(mean - p) <= 5 * math.sqrt(p * (1 - p) / n) and math.isclose(
                est.stderr, math.sqrt(mean * (1 - mean) / (n - 1)), rel_tol=1e-2
            )
        detail = (
            f"want {p} within 5 x {math.sqrt(p * (1 - p) / n):.5f} and a Bernoulli stderr, "
            f"got {est.mean} (stderr {est.stderr})"
        )
        return Verdict(q["case"], ok, detail)


# ------------------------------------------------------------- consistency_cli


class ConsistencyCli:
    """`smdp gen-unsatcons` then `smdp check-consistency` through `cli.main`,
    in process, on DIMACS files the benchmark writes. Exit code 0 means
    consistent (the formula is unsatisfiable), 2 inconsistent. Satisfiable
    formulas have 2n random 3-clauses; unsatisfiable ones add the four
    2-clauses over two variables. The mix puts the median inside the
    unsatisfiable n = 8 formulas and the tail inside the satisfiable n = 9 ones."""

    name = "consistency_cli"
    pass_seconds = 4.0
    MIX = (
        (("sat", 8),) * 10 + (("unsat", 8),) * 16 + (("sat", 9),) * 8 + (("sat", 10),) * 3 + (("unsat", 9),) * 3
    )

    def setup(self, sm, seed: int, workdir: str) -> List[Any]:
        rng = random.Random(seed)
        queries = []
        for i, (kind, n) in enumerate(self.MIX):
            while True:
                clauses = random_cnf(rng, n, 2 * n)
                if kind == "unsat":
                    a, b = rng.sample(range(1, n + 1), 2)
                    clauses += ((a, b), (a, -b), (-a, b), (-a, -b))
                count = reference_count(sm, n, clauses)
                if (count == 0) == (kind == "unsat"):
                    break
            qdir = os.path.join(workdir, f"q{i}")
            os.makedirs(qdir, exist_ok=True)
            cnf_path = os.path.join(qdir, "input.cnf")
            with open(cnf_path, "w", encoding="ascii") as fh:
                fh.write(f"p cnf {n} {len(clauses)}\n")
                fh.writelines(" ".join(map(str, c)) + " 0\n" for c in clauses)
            queries.append(
                {
                    "case": f"consistency n{n} {kind} {clauses}",
                    "cnf": cnf_path,
                    "out": os.path.join(qdir, "inst"),
                    "want": 0 if count == 0 else 2,
                }
            )
        return queries

    def call(self, sm, q):
        out = q["out"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            gen = sm.cli.main(["gen-unsatcons", q["cnf"], "-o", out])
            check = None
            if gen == 0:
                check = sm.cli.main(
                    [
                        "check-consistency",
                        os.path.join(out, "mdp.manifest"),
                        os.path.join(out, "valuefn.manifest"),
                    ]
                )
        return gen, check, buf.getvalue()

    def check(self, q, outcome) -> Verdict:
        gen, check, text = outcome
        ok = gen == 0 and check == q["want"]
        detail = f"want exit {q['want']}, got gen {gen} check {check}: {text.strip()[:200]}"
        return Verdict(q["case"], ok, detail)


WORKLOADS = {w.name: w for w in (NextAction(), MajSat(), MonteCarlo(), ConsistencyCli())}
