"""Command-line surface: instance generation, evaluation, value-function
checking, policy extraction, solving, canonicalization, and the
correspondence suites.

Exit codes: 0 success, 1 usage or input error, 2 check failure (a decision
command answering "no"). Rationals are printed exactly as num/den; the only
floating-point output is the labeled Monte-Carlo standard error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from . import circuit as ct
from . import mdp as md
from . import oracle
from .bits import format_bitstring, parse_bitstring
from .cnf import read_dimacs
from .evaluator import expected_reward_exact, expected_reward_mc
from .policy import load_policy
from .reductions import (
    emajsat_to_bounded_policy,
    forallexists_to_valuefn,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
    write_instance,
)
from .valuefn import (
    InconsistentValueError,
    check_consistency,
    extract_policy,
    load_valuefn,
)
from .verify import SUITES, run_suite


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, reserving 2 for check failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(args, records: List[tuple], text: str):
    if args.emit == "records":
        for key, value in records:
            print(f"{key}={value}")
    else:
        print(text)


def _resolve_horizon(declared: Optional[int], flag: Optional[int], parser) -> int:
    if flag is not None:
        return flag
    if declared is not None:
        return declared
    parser.error("no horizon: the manifest declares none, pass --horizon")


# the instance of each gen-* command, built from the formula and the parsed arguments
_GENERATORS = {
    "gen-satnext": lambda cnf, args: sat_to_next_action(cnf, mode=args.mode),
    "gen-majsat": lambda cnf, args: majsat_to_eval(cnf),
    "gen-emajsat": lambda cnf, args: emajsat_to_bounded_policy(
        cnf, args.num_x, faithful_k=args.faithful_k
    ),
    "gen-unsatcons": lambda cnf, args: unsat_to_consistency(cnf),
    "gen-forall": lambda cnf, args: forallexists_to_valuefn(cnf, args.num_x),
}


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The `smdp` parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(prog="smdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--emit",
        choices=("text", "records"),
        default="text",
        help="output style: prose lines or key=value records",
    )

    for name in _GENERATORS:
        p = sub.add_parser(name, parents=[common], help=f"generate a {name[4:]} instance")
        p.add_argument("cnf", help="DIMACS-style CNF file")
        p.add_argument("-o", "--out", required=True, help="output directory")
        if name == "gen-satnext":
            p.add_argument("--mode", choices=("compact", "faithful"), default="compact")
        if name in ("gen-emajsat", "gen-forall"):
            p.add_argument("--num-x", type=int, required=True, help="size of the X block")
        if name == "gen-emajsat":
            p.add_argument(
                "--faithful-k",
                action="store_true",
                help="use the literal reward bound 1 instead of the majority bound 1/2",
            )

    p = sub.add_parser("eval", parents=[common], help="exact expected reward of a policy")
    p.add_argument("mdp", help="MDP manifest")
    p.add_argument("policy", help="policy manifest")
    p.add_argument("--horizon", type=int)

    p = sub.add_parser("eval-mc", parents=[common], help="Monte-Carlo reward estimate")
    p.add_argument("mdp")
    p.add_argument("policy")
    p.add_argument("--horizon", type=int)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("value", parents=[common], help="evaluate a value circuit at (state, step)")
    p.add_argument("valuefn", help="value-function manifest")
    p.add_argument("--state", required=True, help="state bits, e.g. 0110")
    p.add_argument("--step", type=int, required=True)

    p = sub.add_parser(
        "check-consistency", parents=[common], help="is the value function realized by some policy?"
    )
    p.add_argument("mdp")
    p.add_argument("valuefn")
    p.add_argument("--horizon", type=int)

    p = sub.add_parser(
        "extract-policy", parents=[common], help="action matching the value recursion at (state, step)"
    )
    p.add_argument("mdp")
    p.add_argument("valuefn")
    p.add_argument("--state", required=True)
    p.add_argument("--step", type=int, required=True)

    p = sub.add_parser("solve", parents=[common], help="optimal value by backward induction")
    p.add_argument("mdp")
    p.add_argument("--horizon", type=int)

    p = sub.add_parser(
        "next-action", parents=[common], help="actions optimal at a state a number of steps before the horizon"
    )
    p.add_argument("mdp")
    p.add_argument("--state", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--action", help="exit 0 iff this action is among the optimal ones")

    p = sub.add_parser("canon", parents=[common], help="canonical full-literal DNF of a netlist")
    p.add_argument("netlist")
    p.add_argument("-o", "--out", help="write the DNF netlist here instead of stdout")

    p = sub.add_parser("verify", parents=[common], help="run a correspondence suite")
    p.add_argument("suite", choices=SUITES)
    for flag in ("--n", "--cases", "--seed"):
        p.add_argument(flag, type=int, help="default: the suite's own; only for suites that read it")

    return parser


def _cmd_generate(args, parser) -> int:
    inst = _GENERATORS[args.command](read_dimacs(args.cnf), args)
    write_instance(inst, args.out)
    _emit(
        args,
        [("instance", inst.name), ("directory", args.out), ("horizon", inst.horizon)],
        f"wrote {inst.name} instance (horizon {inst.horizon}) to {args.out}",
    )
    return 0


def _cmd_eval(args, parser) -> int:
    m, declared = md.load_mdp(args.mdp)
    policy = load_policy(args.policy)
    horizon = _resolve_horizon(declared, args.horizon, parser)
    report = expected_reward_exact(m, policy, horizon)
    _emit(
        args,
        [("reward", _fmt(report.expected_reward)), ("trajectories", report.trajectory_count)]
        + [(f"depth_{d}", _fmt(v)) for d, v in enumerate(report.per_depth)],
        _fmt(report.expected_reward),
    )
    return 0


def _cmd_eval_mc(args, parser) -> int:
    m, declared = md.load_mdp(args.mdp)
    policy = load_policy(args.policy)
    horizon = _resolve_horizon(declared, args.horizon, parser)
    est = expected_reward_mc(m, policy, horizon, samples=args.samples, seed=args.seed)
    _emit(
        args,
        [("estimate", _fmt(est.mean)), ("stderr", repr(est.stderr)), ("samples", est.samples)],
        f"{_fmt(est.mean)} (stderr {est.stderr:.6g}, {est.samples} samples)",
    )
    return 0


def _cmd_value(args, parser) -> int:
    v = load_valuefn(args.valuefn)
    s = parse_bitstring(args.state)
    val = v.value(s, args.step)
    _emit(args, [("value", _fmt(val))], _fmt(val))
    return 0


def _cmd_check_consistency(args, parser) -> int:
    m, declared = md.load_mdp(args.mdp)
    if not m.successor_circuits:
        parser.error("consistency checking needs a bounded-action manifest (successor lines)")
    v = load_valuefn(args.valuefn)
    horizon = _resolve_horizon(declared, args.horizon, parser)
    res = check_consistency(m, v, horizon)
    if res.consistent:
        _emit(args, [("consistent", "yes")], "consistent")
        return 0
    cx = format_bitstring(res.counterexample)
    _emit(
        args,
        [("consistent", "no"), ("counterexample", cx), ("reason", res.reason)],
        f"inconsistent at state {cx}: {res.reason}",
    )
    return 2


def _cmd_extract_policy(args, parser) -> int:
    m, _ = md.load_mdp(args.mdp)
    if not m.successor_circuits:
        parser.error("policy extraction needs a bounded-action manifest (successor lines)")
    v = load_valuefn(args.valuefn)
    s = parse_bitstring(args.state)
    try:
        a = extract_policy(m, v, v.horizon, s, args.step)
    except InconsistentValueError as exc:
        _emit(args, [("action", "none"), ("reason", str(exc))], f"no action: {exc}")
        return 2
    _emit(args, [("action", m.actions[a]), ("index", a)], m.actions[a])
    return 0


def _cmd_solve(args, parser) -> int:
    m, declared = md.load_mdp(args.mdp)
    horizon = _resolve_horizon(declared, args.horizon, parser)
    em = md.expand(m)
    sol = oracle.solve_optimal(em, horizon)
    best = sol.exact(sol.levels[horizon][em.initial], horizon)
    opt = tuple(m.actions[a] for a in sol.ties(em.initial, horizon))
    count = len(em.state_array)
    _emit(
        args,
        [("value", _fmt(best)), ("optimal_actions", ",".join(opt)), ("states", count)],
        f"optimal value {_fmt(best)} over {count} reachable states; "
        f"optimal first actions: {', '.join(opt)}",
    )
    return 0


def _cmd_next_action(args, parser) -> int:
    m, _ = md.load_mdp(args.mdp)
    if args.action is not None and args.action not in m.actions:
        parser.error(f"unknown action {args.action!r}; choose from {', '.join(m.actions)}")
    s = parse_bitstring(args.state)
    acts = oracle.best_next_action(m, args.steps, s)
    names = tuple(m.actions[a] for a in acts)
    _emit(
        args,
        [("optimal_actions", ",".join(names))],
        ", ".join(names),
    )
    return 0 if args.action is None or args.action in names else 2


def _cmd_canon(args, parser) -> int:
    c = ct.read_netlist(args.netlist)
    dnf = ct.canonical_dnf(c)
    counts = [ct.count_dnf_terms(dnf, o) for o in range(dnf.num_outputs)]
    text = ct.serialize(dnf)
    if args.out:
        ct.write_netlist(dnf, args.out)
    _emit(
        args,
        [("terms", ",".join(map(str, counts)))]
        + ([("out", args.out)] if args.out else []),
        f"terms per output: {', '.join(map(str, counts))}"
        + (f"\nwrote {args.out}" if args.out else "\n" + text.rstrip("\n")),
    )
    return 0


def _cmd_verify(args, parser) -> int:
    rows = run_suite(args.suite, n=args.n, cases=args.cases, seed=args.seed)
    failures = sum(1 for r in rows if not r.ok)
    if args.emit == "records":
        for r in rows:
            print(f"case={r.case}\texpected={r.expected}\tgot={r.got}\tok={'yes' if r.ok else 'no'}")
        print(f"total={len(rows)}")
        print(f"failures={failures}")
    else:
        width = max(len(r.case) for r in rows)
        for r in rows:
            print(f"{r.case:<{width}}  {'pass' if r.ok else 'FAIL'}  expected: {r.expected}  got: {r.got}")
        print(f"{len(rows) - failures}/{len(rows)} pass")
    return 2 if failures else 0


_COMMANDS = {
    **{name: _cmd_generate for name in _GENERATORS},
    "eval": _cmd_eval,
    "eval-mc": _cmd_eval_mc,
    "value": _cmd_value,
    "check-consistency": _cmd_check_consistency,
    "extract-policy": _cmd_extract_policy,
    "solve": _cmd_solve,
    "next-action": _cmd_next_action,
    "canon": _cmd_canon,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (ValueError, OSError) as exc:
        print(f"smdp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
