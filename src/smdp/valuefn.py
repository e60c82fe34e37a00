"""Value functions: the per-policy value recursion, consistency checking
against bounded-action MDPs, and policy extraction from a consistent value
function.

A value circuit maps ``[s bits | step-index bits]`` to a fixed-point signed
numerator over a declared denominator; a value table stores exact rationals
directly. Consistency of E means: E(s, 0) = r(s) everywhere and every state
has one action whose successor-weighted sum matches E(s, i) - r(s) at every
step index i. All comparisons are exact, no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuit as ct
from . import mdp as md
from ._manifest import read_manifest
from .bits import BitVector, int_to_bits, twos_to_int, width_for_count


class ValueFunctionError(ValueError):
    pass


class InconsistentValueError(ValueFunctionError):
    pass


@dataclass(frozen=True)
class ValueCircuit:
    circuit: ct.Circuit
    horizon: int
    value_denominator: int
    name: str = "valuefn"

    def __post_init__(self):
        if self.value_denominator < 1:
            raise ValueFunctionError("value denominator must be positive")
        if self.circuit.num_inputs <= self.step_width:
            raise ValueFunctionError("value circuit has no state inputs")

    @property
    def step_width(self) -> int:
        return width_for_count(self.horizon + 1)

    @property
    def num_vars(self) -> int:
        return self.circuit.num_inputs - self.step_width

    @property
    def value_width(self) -> int:
        return self.circuit.num_outputs

    def value(self, s: BitVector, i: int) -> Fraction:
        if not 0 <= i <= self.horizon:
            raise ValueFunctionError(f"step index {i} out of range 0..{self.horizon}")
        bits = tuple(s) + int_to_bits(i, self.step_width)
        return Fraction(twos_to_int(ct.eval(self.circuit, bits)), self.value_denominator)

    def value_table(self, states: Sequence[BitVector]) -> "ValueTable":
        """Tabulate the circuit over the given states for all step indices."""
        rows = []
        for s in states:
            for i in range(self.horizon + 1):
                rows.append(tuple(s) + int_to_bits(i, self.step_width))
        out = ct.eval_batch(self.circuit, np.array(rows, dtype=bool))
        values: Dict[BitVector, Tuple[Fraction, ...]] = {}
        pos = 0
        for s in states:
            row = []
            for _ in range(self.horizon + 1):
                num = twos_to_int(tuple(int(b) for b in out[pos]))
                row.append(Fraction(num, self.value_denominator))
                pos += 1
            values[tuple(s)] = tuple(row)
        return ValueTable(values, self.horizon)


@dataclass(frozen=True)
class ValueTable:
    values: Dict[BitVector, Tuple[Fraction, ...]]
    horizon: int

    def value(self, s: BitVector, i: int) -> Fraction:
        if not 0 <= i <= self.horizon:
            raise ValueFunctionError(f"step index {i} out of range 0..{self.horizon}")
        try:
            return self.values[tuple(s)][i]
        except KeyError:
            raise ValueFunctionError(f"value table does not cover state {s}")

    def states(self) -> List[BitVector]:
        return sorted(self.values)


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    witness: Optional[Dict[BitVector, int]] = None
    counterexample: Optional[BitVector] = None
    reason: str = ""


def value_of_policy(em: md.ExplicitMdp, policy, horizon: int) -> ValueTable:
    """Exact value table of a policy over an explicit MDP."""
    n_states = len(em.states)
    table: List[List[Fraction]] = [[Fraction(em.rewards[k])] for k in range(n_states)]
    for i in range(1, horizon + 1):
        for k in range(n_states):
            s = em.states[k]
            if policy.kind == "timed":
                a = policy.decide_timed(s, i)
            else:
                a = policy.decide(s)
            total = Fraction(em.rewards[k])
            for j, p in em.transitions[k][a]:
                total += p * table[j][i - 1]
            table[k].append(total)
    return ValueTable(
        {em.states[k]: tuple(table[k]) for k in range(n_states)}, horizon
    )


def value_of_history_policy(
    em: md.ExplicitMdp, policy, horizon: int
) -> Dict[Tuple[BitVector, ...], Fraction]:
    """Values E(s0..sj, T-j) for histories reachable with positive probability."""
    memo: Dict[Tuple[BitVector, ...], Fraction] = {}

    def rec(history: Tuple[BitVector, ...]) -> Fraction:
        if history in memo:
            return memo[history]
        k = em.index_of(history[-1])
        i = horizon - (len(history) - 1)
        total = Fraction(em.rewards[k])
        if i > 0:
            a = policy.decide_history(history, len(history) - 1)
            for j, p in em.transitions[k][a]:
                total += p * rec(history + (em.states[j],))
        memo[history] = total
        return total

    rec((em.states[em.initial],))
    return memo


def _value_accessor(m: md.SuccinctMdp, E, states: Sequence[BitVector]):
    if isinstance(E, ValueCircuit):
        if E.num_vars != m.num_vars:
            raise ValueFunctionError(
                f"value circuit covers {E.num_vars} variables, MDP has {m.num_vars}"
            )
        return E.value_table(states)
    return E


def check_consistency(
    m: md.SuccinctMdp, E, horizon: int
) -> ConsistencyResult:
    """Decide whether some policy realizes E on the bounded-action MDP.

    Iterates every state (all 2**n for a value circuit, the table's domain
    for a table); the first failing state in ascending order is reported.
    """
    if isinstance(E, ValueTable):
        states = E.states()
    else:
        n = m.num_vars
        if (1 << n) > md.state_limit():
            raise md.EnumerationLimitError(
                f"cannot enumerate 2^{n} states for consistency (limit {md.state_limit()})"
            )
        states = [tuple(int(b) for b in row) for row in ct.all_input_rows(n)]
    table = _value_accessor(m, E, states)
    rewards = md.reward_batch(m, states)
    succ_by_action = [
        md.successors_batch(m, states, a) for a in range(len(m.actions))
    ]
    witness: Dict[BitVector, int] = {}
    for k, s in enumerate(states):
        if table.value(s, 0) != rewards[k]:
            return ConsistencyResult(
                False,
                counterexample=s,
                reason=f"E(s,0) = {table.value(s, 0)} but r(s) = {rewards[k]}",
            )
        chosen = None
        for a in range(len(m.actions)):
            ok = True
            for i in range(1, horizon + 1):
                total = Fraction(rewards[k])
                try:
                    for s2, p in succ_by_action[a][k]:
                        total += p * table.value(s2, i - 1)
                except ValueFunctionError:
                    ok = False
                    break
                if total != table.value(s, i):
                    ok = False
                    break
            if ok:
                chosen = a
                break
        if chosen is None:
            return ConsistencyResult(
                False,
                counterexample=s,
                reason="no action satisfies the value recursion at every step index",
            )
        witness[s] = chosen
    return ConsistencyResult(True, witness=witness)


def extract_policy(
    m: md.SuccinctMdp, E, horizon: int, s: BitVector, i: int
) -> int:
    """First action (declared order) whose successor-weighted sum equals
    E(s, i) - r(s)."""
    s = tuple(s)
    table = _value_accessor(m, E, [s]) if isinstance(E, ValueCircuit) else E
    if not 1 <= i <= horizon:
        raise ValueFunctionError(f"step index {i} must be in 1..{horizon}")
    target = table.value(s, i) - md.reward(m, s)
    for a in range(len(m.actions)):
        total = Fraction(0)
        try:
            for s2, p in md.successors(m, s, a):
                total += p * table.value(s2, i - 1)
        except ValueFunctionError:
            continue
        if total == target:
            return a
    raise InconsistentValueError(
        f"no action matches E(s,{i}) - r(s) = {target} at state {s}"
    )


def save_valuefn(v: ValueCircuit, directory, basename: str = "valuefn") -> str:
    import os

    netfile = f"{basename}.net"
    ct.write_netlist(v.circuit, os.path.join(directory, netfile))
    lines = [
        f"valuefn {v.name}",
        f"horizon {v.horizon}",
        f"value_width {v.value_width}",
        f"value_denominator {v.value_denominator}",
        f"circuit {netfile}",
    ]
    path = os.path.join(directory, f"{basename}.manifest")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_valuefn(manifest_path) -> ValueCircuit:
    import os

    fields = read_manifest(
        manifest_path,
        "value-function",
        ValueFunctionError,
        required=("valuefn", "horizon", "value_width", "value_denominator", "circuit"),
        ints=("horizon", "value_width", "value_denominator"),
    )
    base = os.path.dirname(os.path.abspath(manifest_path))
    circ = ct.read_netlist(os.path.join(base, fields["circuit"]))
    v = ValueCircuit(
        circ,
        horizon=fields["horizon"],
        value_denominator=fields["value_denominator"],
        name=fields["valuefn"],
    )
    if v.value_width != fields["value_width"]:
        raise ValueFunctionError(
            f"declared value_width {fields['value_width']} does not match circuit "
            f"output width {v.value_width}"
        )
    return v
