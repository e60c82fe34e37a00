"""End-to-end correspondence suites: every case pits a circuit-level
construction against a brute-force oracle and reports expected vs got.

Suites: nextaction (next-action vs SAT), evalreward (policy reward vs model count),
boundedpolicy (bounded policy vs e-majsat), consistency (consistency vs UNSAT), valuechoice
(reward-1 X-choice vs forall-exists), normalization (trajectory mass),
roundtrip (file formats), dnf (canonicalization).
"""

from __future__ import annotations

import inspect
import itertools
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from . import circuit as ct
from . import mdp as md
from . import oracle
from .bits import row_tuples, width_for_count
from .cnf import Cnf
from .evaluator import enumerate_trajectories, expected_reward_exact
from .policy import compile_explicit, load_policy, save_policy
from .random_models import random_bounded_mdp, random_circuit, random_cnf, random_stationary_policy
from .reductions import (
    emajsat_to_bounded_policy,
    forallexists_to_valuefn,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
    xy_sequential_policy,
)
from .valuefn import ValueCircuit, check_consistency, load_valuefn, save_valuefn, value_of_policy


@dataclass(frozen=True)
class VerifyRow:
    case: str
    expected: str
    got: str
    ok: bool


# --------------------------------------------------- nextaction: next action vs SAT


def _all_triple_clauses(n: int) -> List[Tuple[int, ...]]:
    lits = [v for i in range(1, n + 1) for v in (i, -i)]
    return [tuple(c) for c in itertools.combinations_with_replacement(lits, 3)]


def _grid_cnfs(n: int) -> Iterable[Cnf]:
    clauses = _all_triple_clauses(n)
    for k in range(1, 4):
        for combo in itertools.combinations(clauses, k):
            yield Cnf(n, combo)


def _random_triple_cnf(rng: random.Random, n: int) -> Cnf:
    clauses = _all_triple_clauses(n)
    k = rng.randint(1, 3)
    return Cnf(n, tuple(rng.sample(clauses, k)))


def _nextaction_group(cnfs: List[Cnf], n: int) -> List[VerifyRow]:
    """All formulas share one clause count, hence one circuit MDP; the states
    differ, so one joint expansion answers every formula in the group."""
    inst0 = sat_to_next_action(cnfs[0], mode="compact")
    mdp, layout = inst0.mdp, inst0.layout
    states = [
        layout.encode([layout.literal_code(lit) for clause in cnf.clauses for lit in clause])
        for cnf in cnfs
    ]
    steps = inst0.steps_remaining()  # n + 1 for every instance
    em, roots = md.expand_many(mdp, states, depth=steps)
    sol = oracle.solve_optimal(em, steps)
    Q = sol.q(steps)
    S, U = mdp.actions.index("S"), mdp.actions.index("U")
    sat_bound = Fraction((1 << n) - 1, 1 << n) + Fraction(1 << (n + 1), 1 << n)
    rows = []
    for cnf, root in zip(cnfs, roots):
        satisfiable = oracle.sat_oracle(cnf)
        opt = tuple(mdp.actions[a] for a in sol.ties(root, steps))
        q_s, q_u = sol.exact(Q[S, root], steps), sol.exact(Q[U, root], steps)
        checks = [q_u == 2]
        if satisfiable:
            checks.append(opt == ("S",))
            checks.append(q_s >= sat_bound)
        else:
            checks.append(opt == ("U",))
        rows.append(
            VerifyRow(
                case=f"n{n} {cnf.clauses}",
                expected=("S" if satisfiable else "U") + " uniquely optimal, U branch 2",
                got=f"optimal={','.join(opt)} S-branch={q_s} U-branch={q_u}",
                ok=all(checks),
            )
        )
    return rows


def suite_nextaction(max_n: int = 3, cases: int = 100, seed: int = 0) -> List[VerifyRow]:
    """Exhaustive grid for up to two variables (three-literal clause multisets,
    up to three distinct clauses) plus random larger formulas."""
    formulas = [(n, list(_grid_cnfs(n))) for n in range(1, min(max_n, 2) + 1)]
    if max_n >= 3:
        rng = random.Random(seed)
        formulas.append((3, [_random_triple_cnf(rng, 3) for _ in range(cases)]))
    rows: List[VerifyRow] = []
    for n, cnfs in formulas:
        by_count: Dict[int, List[Cnf]] = {}
        for cnf in cnfs:
            by_count.setdefault(len(cnf.clauses), []).append(cnf)
        for _, group in sorted(by_count.items()):
            rows.extend(_nextaction_group(group, n))
    # tie the batched computation back to the per-instance entry point
    for clauses in (((1, 1, 1),), ((1, 1, 1), (-1, -1, -1))):
        inst = sat_to_next_action(Cnf(1, clauses), mode="compact")
        got = tuple(
            inst.mdp.actions[a]
            for a in oracle.best_next_action(inst.mdp, inst.steps_remaining(), inst.state)
        )
        want = ("S",) if oracle.sat_oracle(inst.cnf) else ("U",)
        rows.append(
            VerifyRow(
                case=f"best_next_action n1 {clauses}",
                expected=str(want),
                got=str(got),
                ok=got == want,
            )
        )
    return rows


# ------------------------------------------- evalreward: policy reward vs model count


def suite_evalreward(max_n: int = 10, cases: int = 50, seed: int = 0) -> List[VerifyRow]:
    rng = random.Random(seed)
    rows = []
    for case in range(cases):
        n = rng.randint(1, max_n)
        cnf = random_cnf(rng, n, rng.randint(0, 4))
        inst = majsat_to_eval(cnf)
        got = expected_reward_exact(inst.mdp, inst.policy, inst.horizon).expected_reward
        want = Fraction(oracle.model_count(cnf), 1 << n)
        rows.append(
            VerifyRow(
                case=f"case{case} n{n} m{len(cnf.clauses)}",
                expected=str(want),
                got=str(got),
                ok=got == want,
            )
        )
    return rows


# ------------------------------------------ boundedpolicy: bounded policy vs e-majsat


def suite_boundedpolicy() -> List[VerifyRow]:
    """All ordered pairs of unit clauses over {x1, -x1, y1, -y1}: the grid
    contains both verdicts (e.g. y1 and -y1 together defeat every X-choice)."""
    single = [(s * v,) for v in (1, 2) for s in (1, -1)]
    rows = []
    for c1 in single:
        for c2 in single:
            cnf = Cnf(2, (c1, c2))
            inst = emajsat_to_bounded_policy(cnf, 1)
            want = oracle.emajsat_oracle(cnf, 1)
            # the universal compilation bound makes the size bound vacuous,
            # so existence coincides with the unbounded optimum
            z = len(inst.mdp.actions) * (1 << inst.mdp.num_vars)
            got, witness = oracle.bounded_policy_exists(
                inst.mdp, inst.horizon, z, inst.reward_bound
            )
            ok = got == want and (witness is not None) == got
            rows.append(
                VerifyRow(
                    case=f"{c1} {c2}",
                    expected=str(want),
                    got=str(got),
                    ok=ok,
                )
            )
    return rows


# --------------------------------------------- consistency: consistency vs UNSAT


def suite_consistency(max_n: int = 8, cases: int = 50, seed: int = 0) -> List[VerifyRow]:
    rng = random.Random(seed)
    rows = []
    for case in range(cases):
        n = rng.randint(1, max_n)
        # mix very constrained and loose formulas so both verdicts occur
        num_clauses = rng.choice((1, 2, 4, 8, 12))
        cnf = random_cnf(rng, n, num_clauses, clause_size=rng.randint(1, 3))
        inst = unsat_to_consistency(cnf)
        res = check_consistency(inst.mdp, inst.value, inst.horizon)
        want = oracle.model_count(cnf) == 0
        rows.append(
            VerifyRow(
                case=f"case{case} n{n} m{num_clauses}",
                expected="consistent" if want else "inconsistent",
                got="consistent" if res.consistent else "inconsistent",
                ok=res.consistent == want,
            )
        )
    return rows


# ------------------------------------- valuechoice: reward-1 X-choice vs forall-exists


def _xy_grid_cnfs() -> Iterable[Cnf]:
    """Fixed grid over |X| = |Y| = 2: every clause couples one x-literal with
    one y-literal; formulas are single clauses and unordered clause pairs."""
    clauses = [
        (sx * i, sy * j)
        for i in (1, 2)
        for j in (3, 4)
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    for c in clauses:
        yield Cnf(4, (c,))
    for c1, c2 in itertools.combinations(clauses, 2):
        yield Cnf(4, (c1, c2))


def suite_valuechoice() -> List[VerifyRow]:
    rows = []
    for idx, cnf in enumerate(_xy_grid_cnfs()):
        inst = forallexists_to_valuefn(cnf, 2)
        want = oracle.forall_exists_oracle(cnf, 2)
        got = False
        for bits in itertools.product((True, False), repeat=2):
            policy = xy_sequential_policy(inst.mdp, inst.layout, bits)
            r = expected_reward_exact(inst.mdp, policy, inst.horizon).expected_reward
            if r == 1:
                got = True
                break
        rows.append(
            VerifyRow(
                case=f"grid{idx} {cnf.clauses}",
                expected=str(want),
                got=str(got),
                ok=got == want,
            )
        )
    return rows


# --------------------------------------------------- normalization suite


def suite_normalization(cases: int = 20, seed: int = 0) -> List[VerifyRow]:
    rng = random.Random(seed)
    rows = []
    for case in range(cases):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        horizon = rng.randint(1, 4)
        policy = random_stationary_policy(
            rng, rm.mdp.num_vars, len(rm.mdp.actions)
        )
        ok = True
        masses = []
        for d in range(horizon + 1):
            mass = sum(
                (t.probability for t in enumerate_trajectories(rm.mdp, policy, d)),
                Fraction(0),
            )
            masses.append(str(mass))
            ok = ok and mass == 1
        rows.append(
            VerifyRow(
                case=f"case{case}",
                expected="mass 1 at every depth",
                got=" ".join(masses),
                ok=ok,
            )
        )
    return rows


# ------------------------------------------------------- roundtrip suite


def suite_roundtrip(cases: int = 10, seed: int = 0) -> List[VerifyRow]:
    """Save and load a model, a policy and a value circuit per case. The
    value circuits are drawn from their own generator, so the models,
    policies and horizons are those of the seed alone."""
    rng = random.Random(seed)
    value_rng = random.Random(f"roundtrip value circuits {seed}")
    rows = []
    for case in range(cases):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        policy = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
        horizon = rng.randint(1, 4)
        n = rm.mdp.num_vars
        E = ValueCircuit(
            random_circuit(value_rng, n + width_for_count(horizon + 1), 10, 4),
            horizon,
            value_denominator=value_rng.randint(1, 9),
        )
        with tempfile.TemporaryDirectory() as tmp:
            manifest = md.save_mdp(rm.mdp, tmp, horizon=horizon)
            m2, h2 = md.load_mdp(manifest)
            p2 = load_policy(save_policy(policy, tmp))
            E2 = load_valuefn(save_valuefn(E, tmp))
            em = md.expand(rm.mdp)
            table = value_of_policy(em, policy, horizon)
            before = expected_reward_exact(rm.mdp, policy, horizon).expected_reward
            after = expected_reward_exact(m2, p2, h2).expected_reward
            ok = (
                before == after
                and h2 == horizon
                and ct.serialize(m2.t_circuit) == ct.serialize(rm.mdp.t_circuit)
                and table.value(tuple(rm.mdp.initial), horizon) == before
                and all(
                    E2.value(s, i) == E.value(s, i)
                    for s in row_tuples(ct.all_input_rows(n))
                    for i in range(horizon + 1)
                )
            )
        rows.append(
            VerifyRow(
                case=f"case{case}",
                expected=str(before),
                got=str(after),
                ok=ok,
            )
        )
    return rows


# ------------------------------------------------------------- dnf suite


def suite_dnf(max_n: int = 8, cases: int = 100, seed: int = 0) -> List[VerifyRow]:
    rng = random.Random(seed)
    rows = []
    for case in range(cases):
        n = rng.randint(0, max_n)
        c = random_circuit(rng, n, rng.randint(0, 3 * max(n, 1)), rng.randint(1, 3))
        dnf = ct.canonical_dnf(c)
        equiv = ct.equivalent(c, dnf)
        bounds_ok = all(
            ct.count_dnf_terms(dnf, o) <= (1 << n) for o in range(dnf.num_outputs)
        )
        rows.append(
            VerifyRow(
                case=f"case{case} n{n}",
                expected="equivalent, <= 2^n terms per output",
                got=f"equivalent={equiv} bound={bounds_ok}",
                ok=equiv and bounds_ok,
            )
        )
    # explicit-policy compilation is the same mechanism; round-trip it
    for case in range(5):
        n = rng.randint(1, 8)
        actions = rng.randint(2, 4)
        mapping = {s: rng.randrange(actions) for s in row_tuples(ct.all_input_rows(n))}
        compiled = compile_explicit(mapping, n, actions)
        ok = all(compiled.decide(s) == a for s, a in mapping.items())
        rows.append(
            VerifyRow(
                case=f"policy{case} n{n}",
                expected="compiled policy matches table",
                got=str(ok),
                ok=ok,
            )
        )
    return rows


# ------------------------------------------------------------ the registry

# every suite by name
_SUITES = {
    "nextaction": suite_nextaction,
    "evalreward": suite_evalreward,
    "boundedpolicy": suite_boundedpolicy,
    "consistency": suite_consistency,
    "valuechoice": suite_valuechoice,
    "normalization": suite_normalization,
    "roundtrip": suite_roundtrip,
    "dnf": suite_dnf,
}
SUITES = tuple(_SUITES)
# each argument of `run_suite` and the suite parameter it sets
_ARGUMENTS = {"n": "max_n", "cases": "cases", "seed": "seed"}


def suite_arguments(name: str) -> Dict[str, int]:
    """The `run_suite` arguments that suite `name` reads, each with the
    suite's own default, read from the parameters of its function."""
    params = inspect.signature(_SUITES[name]).parameters
    return {arg: params[p].default for arg, p in _ARGUMENTS.items() if p in params}


def run_suite(
    name: str, n: Optional[int] = None, cases: Optional[int] = None, seed: Optional[int] = None
) -> List[VerifyRow]:
    """The rows of one suite. An argument left at None takes the suite's own
    default; an explicit count must be at least 1, and an explicit argument
    that the suite does not read is refused, so none is silently ignored."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose one of {', '.join(SUITES)}")
    reads = suite_arguments(name)
    given = {"n": n, "cases": cases, "seed": seed}
    given = {arg: value for arg, value in given.items() if value is not None}
    for arg, value in given.items():
        if arg != "seed" and value < 1:
            raise ValueError(f"{arg} must be at least 1, got {value}")
        if arg not in reads:
            raise ValueError(f"suite {name} does not read {arg}, got {arg}={value}")
    return _SUITES[name](**{_ARGUMENTS[arg]: value for arg, value in given.items()})
