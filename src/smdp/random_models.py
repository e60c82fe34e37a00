"""Seeded random instances: circuits, CNFs, and small circuit-backed MDPs
built from explicit random dynamics (so every random model carries its own
ground-truth tables)."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from . import circuit as ct
from .bits import BitVector, row_tuples, width_for_count
from .cnf import Cnf
from .mdp import SuccinctMdp
from .policy import StationaryPolicy, compile_explicit


def random_circuit(
    rng: random.Random, num_inputs: int, num_gates: int, num_outputs: int
) -> ct.Circuit:
    if num_inputs == 0:
        num_gates = max(num_gates, 1)
    gates: List[ct.Gate] = []
    for gid in range(num_gates):
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(gid)]
        if not refs:
            gates.append(ct.Gate(gid, rng.choice(("CONST0", "CONST1")), ()))
            continue
        kind = rng.choice(("AND", "OR", "XOR", "NOT", "AND", "OR"))
        if kind == "NOT":
            args = (rng.choice(refs),)
        else:
            args = (rng.choice(refs), rng.choice(refs))
        gates.append(ct.Gate(gid, kind, args))
    refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(num_gates)]
    outputs = tuple(rng.choice(refs) for _ in range(num_outputs))
    return ct.Circuit(num_inputs, tuple(gates), outputs, name="random")


def random_cnf(
    rng: random.Random, num_vars: int, num_clauses: int, clause_size: int = 3
) -> Cnf:
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), min(clause_size, num_vars))
        clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
        clauses.append(clause)
    return Cnf(num_vars, tuple(clauses))


@dataclass(frozen=True)
class RandomMdp:
    """A circuit-backed model together with the explicit dynamics it was
    compiled from."""

    mdp: SuccinctMdp
    transitions: Dict[Tuple[BitVector, int], Tuple[Tuple[BitVector, Fraction], ...]]
    rewards: Dict[BitVector, int]


def _distinct_cuts(rng: random.Random, denominator: int, count: int) -> List[int]:
    """`count` distinct integers in 1..denominator-1. `rng.sample` cannot
    index a range past sys.maxsize, so larger denominators draw with
    `randrange` until the cuts are distinct."""
    if denominator <= sys.maxsize:
        return rng.sample(range(1, denominator), count)
    cuts: Set[int] = set()
    while len(cuts) < count:
        cuts.add(rng.randrange(1, denominator))
    return list(cuts)


def random_bounded_mdp(
    rng: random.Random,
    num_vars: int,
    num_actions: int,
    max_branching: int = 3,
    denominator: int = 6,
    reward_range: Tuple[int, int] = (-4, 7),
) -> RandomMdp:
    if num_vars > 6:
        raise ValueError("random models are meant to stay exhaustively checkable")
    n = num_vars
    num_states = 1 << n
    if denominator < min(max_branching, num_states):
        # k successors need k - 1 distinct cut points in 1..denominator-1
        raise ValueError(
            f"denominator={denominator} cannot give positive probabilities to "
            f"min(max_branching={max_branching}, 2**num_vars={num_states}) successors"
        )
    states = row_tuples(ct.all_input_rows(n))
    aw = width_for_count(num_actions)
    sw = width_for_count(max_branching)

    transitions: Dict[Tuple[BitVector, int], Tuple[Tuple[BitVector, Fraction], ...]] = {}
    numerator: Dict[Tuple[int, int, int], int] = {}  # (s, s2, a) -> numerator
    succ_lists: Dict[Tuple[int, int], List[int]] = {}
    for si in range(num_states):
        for a in range(num_actions):
            k = rng.randint(1, min(max_branching, num_states))
            targets = sorted(rng.sample(range(num_states), k))
            cuts = sorted(_distinct_cuts(rng, denominator, k - 1)) if k > 1 else []
            weights = [
                b - a_ for a_, b in zip([0] + cuts, cuts + [denominator])
            ]
            succ_lists[(si, a)] = targets
            pairs = []
            for tj, w in zip(targets, weights):
                numerator[(si, tj, a)] = w
                pairs.append((states[tj], Fraction(w, denominator)))
            transitions[(states[si], a)] = tuple(pairs)

    t_values = []
    for row in range(1 << (2 * n + aw)):
        a = row & ((1 << aw) - 1)
        s2 = (row >> aw) & (num_states - 1)
        s = row >> (aw + n)
        t_values.append(numerator.get((s, s2, a), 0) if a < num_actions else 0)
    t_width = width_for_count(denominator + 1)
    t_circuit = ct.circuit_from_values(2 * n + aw, t_width, t_values, name="t_random")

    rewards: Dict[BitVector, int] = {}
    rw = max(
        width_for_count(abs(reward_range[0]) + 1) + 1,
        width_for_count(reward_range[1] + 1) + 1,
    )
    r_values = []
    for si in range(num_states):
        r = rng.randint(*reward_range)
        rewards[states[si]] = r
        r_values.append(r & ((1 << rw) - 1))  # two's-complement image
    r_circuit = ct.circuit_from_values(n, rw, r_values, name="r_random")

    succ_circuits = []
    for a in range(num_actions):
        values = []
        for row in range(1 << (n + sw)):
            slot = row & ((1 << sw) - 1)
            si = row >> sw
            lst = succ_lists[(si, a)]
            if slot < len(lst):
                values.append((1 << n) | lst[slot])
            else:
                values.append(0)
        succ_circuits.append(
            ct.circuit_from_values(n + sw, 1 + n, values, name=f"succ_random_{a}")
        )

    mdp = SuccinctMdp(
        var_names=tuple(f"x{i + 1}" for i in range(n)),
        initial=states[rng.randrange(num_states)],
        actions=tuple(f"u{a + 1}" for a in range(num_actions)),
        t_circuit=t_circuit,
        r_circuit=r_circuit,
        prob_denominator=denominator,
        name="random",
        successor_circuits=tuple(succ_circuits),
        max_branching=max_branching,
    )
    return RandomMdp(mdp=mdp, transitions=transitions, rewards=rewards)


def random_stationary_policy(
    rng: random.Random, num_vars: int, num_actions: int
) -> StationaryPolicy:
    mapping = {s: rng.randrange(num_actions) for s in row_tuples(ct.all_input_rows(num_vars))}
    return compile_explicit(mapping, num_vars, num_actions)
