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

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuit as ct
from . import mdp as md
from ._manifest import read_manifest, read_netlist_beside, write_manifest
from .bits import (
    BitVector,
    block_index_words,
    column_words,
    int_to_bits,
    row_tuples,
    signed_rows,
    twos_to_int,
    unsigned_rows,
    width_for_count,
    word_bits,
)
from .policy import PolicyError, _check_policy_width


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
        if self.horizon < 0:
            raise ValueFunctionError(f"horizon must be >= 0, got {self.horizon}")
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
        md._check_step(i, 0, self.horizon, ValueFunctionError)
        md._check_state(s, self.num_vars, error=ValueFunctionError)
        bits = tuple(s) + int_to_bits(i, self.step_width)
        return Fraction(twos_to_int(ct.eval(self.circuit, bits)), self.value_denominator)

    def _numerators(self, states: np.ndarray, steps: int) -> np.ndarray:
        """Value numerators over `value_denominator` of each row of a bool
        state array at step indices 0..steps-1, as a (states, steps) array
        from one batch evaluation (dtype as `bits.signed_rows`). The rows are
        step-major column words: block i holds step index i of every state."""
        words, npad = column_words(states, steps)
        index = block_index_words(self.step_width, steps, npad)
        out = ct.eval_batch(self.circuit, ct.Columns(words + list(index), steps * npad))
        vals = signed_rows(word_bits(out.words, out.rows).T)
        return np.ascontiguousarray(vals.reshape(steps, npad)[:, : len(states)].T)

    def value_table(self, states: Sequence[BitVector]) -> "ValueTable":
        """Tabulate the circuit over the given states for all step indices."""
        _check_cells(len(states), self.horizon, f"{len(states)}")
        arr = md._state_array(states, self.num_vars, error=ValueFunctionError)
        nums = self._numerators(arr, self.horizon + 1)
        L = self.value_denominator
        return ValueTable(
            {
                s: tuple(Fraction(v, L) for v in row)
                for s, row in zip(row_tuples(arr), nums.tolist())
            },
            self.horizon,
        )


def _check_cells(states: int, horizon: int, spelled: str) -> None:
    """Count the value cells of `states` states at step indices 0..horizon
    against the state limit before they are tabulated; `spelled` names the
    state count in the error."""
    limit = md.state_limit()
    cells = states * (horizon + 1)
    if cells > limit:
        raise md._limit_error(f"value cells ({spelled}·{horizon + 1})", cells, limit)


@dataclass(frozen=True)
class ValueTable:
    values: Dict[BitVector, Tuple[Fraction, ...]]
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueFunctionError(f"horizon must be >= 0, got {self.horizon}")
        for s, row in self.values.items():
            if len(row) != self.horizon + 1:
                raise ValueFunctionError(
                    f"state {s} has {len(row)} values, expected {self.horizon + 1}"
                )

    def value(self, s: BitVector, i: int) -> Fraction:
        md._check_step(i, 0, self.horizon, ValueFunctionError)
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
    """Exact value table of a stationary or timed policy over an explicit MDP.

    A timed policy decides every state at each step index i, with depth horizon - i
    and i steps remaining; a stationary one decides once, at i = 1 (none at horizon 0).
    The table reads every expanded state, so the policy is asked at each, and
    an action outside the model's actions there is a `PolicyError`. So this
    may refuse a policy whose expected reward `evaluator.expected_reward_exact`
    values, since that asks only at the states the policy reaches below the
    horizon."""
    md._check_horizon(horizon)
    if policy.kind == "history":
        raise PolicyError("value_of_policy needs a stationary or timed policy, not a history one")
    _check_policy_width(policy, em.state_array.shape[1])
    every_state = np.arange(len(em.state_array))
    acts = None

    def choose(Q: np.ndarray, i: int) -> np.ndarray:
        nonlocal acts
        if acts is None or policy.kind == "timed":
            acts = np.array(policy.decide_batch(em.state_array, horizon - i, i))
            bad = np.flatnonzero((acts < 0) | (acts >= len(em.actions)))
            if bad.size:
                k = int(bad[0])
                raise PolicyError(
                    f"policy picks action {int(acts[k])} at state {em.states[k]} with {i} "
                    f"steps remaining; the model has {len(em.actions)} actions"
                )
        return Q[acts, every_state]

    return ValueTable(md._fractions(em, md._induction(em, horizon, choose)), horizon)


def _check_num_vars(m: md.SuccinctMdp, E: ValueCircuit) -> None:
    if E.num_vars != m.num_vars:
        raise ValueFunctionError(
            f"value circuit covers {E.num_vars} variables, MDP has {m.num_vars}"
        )


def check_consistency(
    m: md.SuccinctMdp, E, horizon: int
) -> ConsistencyResult:
    """Decide whether some policy realizes E on the bounded-action MDP for
    step indices 0..horizon (0 <= horizon <= E.horizon).

    Covers every state: all 2**n for a value circuit, the table's domain for
    a table. The test runs on integers in one batched pass. Values are
    numerators V over one denominator L (the circuit's value denominator, or
    the lcm of the table's denominators) and probabilities are numerators
    over D, so E(s,i) = r(s) + sum p(s'|s,a) E(s',i-1) reads

        D·V[s,i] == D·L·r(s) + sum num(s'|s,a)·V[s',i-1],

    checked for all states and step indices at once, one action at a time.
    The arrays are int64 when the bound D·(L·max(|r|, 1) + max|V|) on every
    term is below 2**63, and exact Python ints otherwise. A successor outside a
    table's domain fails that action at that state. Every action is stepped
    (and its ModelErrors raised) before any verdict; the witness is the
    first passing action in declared order, and the first failing state in
    ascending order is reported.
    """
    if not 0 <= horizon <= E.horizon:
        raise ValueFunctionError(
            f"horizon {horizon} out of range 0..{E.horizon} of the value function"
        )
    if isinstance(E, ValueTable):
        states = E.states()
        if not states:
            return ConsistencyResult(True, witness={})
        S = md._state_array(states, m.num_vars, "value table state", ValueFunctionError)
        rows = [E.values[s][: horizon + 1] for s in states]
        L = math.lcm(*(v.denominator for row in rows for v in row))
        V = np.array([[v.numerator * (L // v.denominator) for v in row] for row in rows], dtype=object)
    else:
        n = m.num_vars
        limit = md.state_limit()
        if (1 << n) > limit:
            raise md._limit_error(f"states to check (2^{n})", 1 << n, limit)
        _check_cells(1 << n, horizon, f"2^{n}")
        _check_num_vars(m, E)
        S = ct.all_input_rows(n)
        states = row_tuples(S)
        L = E.value_denominator
        V = E._numerators(S, horizon + 1)
    R = md._reward_rows(m, S)
    steps = [md._step(m, S, a) for a in range(len(m.actions))]

    D = m.prob_denominator
    bound = D * (L * max(int(np.abs(R).max()), 1) + int(np.abs(V).max()))
    dtype = np.int64 if bound < 1 << 63 else object
    V, R = V.astype(dtype), R.astype(dtype)
    N = len(states)
    keys = unsigned_rows(S)  # ascending: states are in MSB-first order
    target = D * V[:, 1:] - (D * L) * R[:, None]
    ok = np.empty((len(steps), N), dtype=bool)
    for a, (src, succ, nums) in enumerate(steps):
        succ_keys = unsigned_rows(succ)
        j = np.minimum(np.searchsorted(keys, succ_keys), N - 1)
        sums = np.zeros((N, horizon), dtype=dtype)
        np.add.at(sums, src, nums.astype(dtype)[:, None] * V[j, :horizon])
        ok[a] = (sums == target).all(axis=1)
        if horizon:
            ok[a, src[keys[j] != succ_keys]] = False
    base_ok = V[:, 0] == L * R
    bad = ~(base_ok & ok.any(axis=0))
    if bad.any():
        k = int(np.argmax(bad))
        if not base_ok[k]:
            reason = f"E(s,0) = {Fraction(int(V[k, 0]), L)} but r(s) = {int(R[k])}"
        else:
            reason = "no action satisfies the value recursion at every step index"
        return ConsistencyResult(False, counterexample=states[k], reason=reason)
    return ConsistencyResult(True, witness=dict(zip(states, ok.argmax(axis=0).tolist())))


def extract_policy(
    m: md.SuccinctMdp, E, horizon: int, s: BitVector, i: int
) -> int:
    """First action (declared order) whose successor-weighted sum equals
    E(s, i) - r(s)."""
    s = tuple(s)
    if isinstance(E, ValueCircuit):
        _check_num_vars(m, E)
    md._check_state(s, m.num_vars, error=ValueFunctionError)
    md._check_step(i, 1, horizon, ValueFunctionError)
    target = E.value(s, i) - md.reward(m, s)
    for a in range(len(m.actions)):
        total = Fraction(0)
        try:
            for s2, p in md.successors(m, s, a):
                total += p * E.value(s2, i - 1)
        except ValueFunctionError:
            continue
        if total == target:
            return a
    raise InconsistentValueError(
        f"no action matches E(s,{i}) - r(s) = {target} at state {s}"
    )


def save_valuefn(v: ValueCircuit, directory, basename: str = "valuefn") -> str:
    netfile = f"{basename}.net"
    ct.write_netlist(v.circuit, os.path.join(directory, netfile))
    lines = [
        f"valuefn {v.name}",
        f"horizon {v.horizon}",
        f"value_width {v.value_width}",
        f"value_denominator {v.value_denominator}",
        f"circuit {netfile}",
    ]
    return write_manifest(os.path.join(directory, f"{basename}.manifest"), lines)


def load_valuefn(manifest_path) -> ValueCircuit:
    fields = read_manifest(
        manifest_path,
        "value-function",
        ValueFunctionError,
        required=("valuefn", "horizon", "value_width", "value_denominator", "circuit"),
        ints=("horizon", "value_width", "value_denominator"),
    )
    circ = read_netlist_beside(manifest_path, fields["circuit"], ValueFunctionError)
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
