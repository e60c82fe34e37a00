"""Value functions: the per-policy value recursion, consistency checking
against bounded-action MDPs, and policy extraction from a consistent value
function.

A value circuit maps ``[s bits | step-index bits]`` to a fixed-point signed
numerator over a declared denominator; a value table stores exact rationals
directly. Consistency of E means: E(s, 0) = r(s) everywhere and every state
has one action whose successor-weighted sum matches E(s, i) - r(s) at every
step index i. Consistency checking and policy extraction decide that one
test, `_recursion`, on E read as integers over one denominator
(`_reading`). All comparisons are exact, no tolerance.
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
        if self.circuit.num_outputs < 1:
            raise ValueFunctionError("value circuit has no outputs")

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


def _reading(m: md.SuccinctMdp, E, steps: int):
    """The one reading of E as integers at step indices 0..steps-1: the
    common denominator L (the circuit's value denominator, or the lcm of the
    table's denominators) and `read(rows)`, which gives the numerators over L
    of a bool row array as a (rows, steps) array, with the mask of the rows E
    covers. A value circuit covers every row, and must read the model's state
    width; a table reads a row outside its domain as 0, not covered."""
    if isinstance(E, ValueTable):
        L = math.lcm(*(v.denominator for row in E.values.values() for v in row[:steps]))

        def read(rows):
            keys = row_tuples(rows)
            V = [[int(v * L) for v in E.values.get(s, (0,) * steps)[:steps]] for s in keys]
            known = np.array([s in E.values for s in keys], bool)
            return np.array(V, dtype=object).reshape(len(keys), steps), known

        return L, read
    if E.num_vars != m.num_vars:
        raise ValueFunctionError(
            f"value circuit covers {E.num_vars} variables, MDP has {m.num_vars}"
        )
    return E.value_denominator, lambda rows: (E._numerators(rows, steps), np.ones(len(rows), bool))


def _recursion(m: md.SuccinctMdp, S: np.ndarray, V: np.ndarray, L: int, values_of, vmax=None):
    """The one test of the value recursion E(s,i) = r(s) + sum p(s'|s,a) E(s',i-1)
    at every row s of the bool array S, every action a and every step index
    i = 1..horizon. V holds the rows' numerators over L at step indices
    0..horizon and the probabilities are numerators over D, so the test reads

        D·V[s,i] == D·L·r(s) + sum num(s'|s,a)·V[s',i-1].

    `values_of(succ)` gives the numerators of successor rows (step indices
    0..horizon-1 in its first columns) and the mask of the rows E covers; a
    successor E does not cover fails its action at its source. Every action
    is stepped, and its ModelErrors raised, before any value is compared.
    Returns ``(ok, base, R)``: ok[a, r, i-1] for the recursion, base[r] for
    E(s,0) = r(s), and the rewards R. The arrays are int64 when `vmax` bounds
    every |numerator| read and D·(L·max(|r|, 1) + vmax) < 2**63, exact
    Python ints otherwise (always, with no `vmax`)."""
    horizon = V.shape[1] - 1
    R = md._reward_rows(m, S)
    steps = [md._step(m, S, a) for a in range(len(m.actions))]
    D = m.prob_denominator
    fits = vmax is not None and D * (L * max(int(np.abs(R).max()), 1) + vmax) < 1 << 63
    dtype = np.int64 if fits else object
    V, R = V.astype(dtype), R.astype(dtype)
    target = D * V[:, 1:] - (D * L) * R[:, None]
    ok = np.empty((len(steps), len(S), horizon), dtype=bool)
    for a, (src, succ, nums) in enumerate(steps):
        W, known = values_of(succ)
        sums = np.zeros_like(target)
        np.add.at(sums, src, nums.astype(dtype)[:, None] * W[:, :horizon].astype(dtype, copy=False))
        ok[a] = sums == target
        ok[a, src[~known]] = False
    return ok, V[:, 0] == L * R, R


def check_consistency(m: md.SuccinctMdp, E, horizon: int) -> ConsistencyResult:
    """Decide whether some policy realizes E on the bounded-action MDP for
    step indices 0..horizon (0 <= horizon <= E.horizon).

    Covers every state: all 2**n for a value circuit, the table's domain for
    a table. The test is `_recursion` over all those states at once: E is
    read once as integers over them, and each successor's values are looked
    up among theirs by its `unsigned_rows` key, so a successor outside a
    table's domain fails that action at that state. The arrays are int64
    when the bound D·(L·max(|r|, 1) + max|V|) on every term is below 2**63,
    and exact Python ints otherwise. Every action is stepped (and its
    ModelErrors raised) before any verdict; the witness is the first passing
    action in declared order, and the first failing state in ascending order
    is reported.
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
    else:
        n = m.num_vars
        limit = md.state_limit()
        if (1 << n) > limit:
            raise md._limit_error(f"states to check (2^{n})", 1 << n, limit)
        _check_cells(1 << n, horizon, f"2^{n}")
        S = ct.all_input_rows(n)
        states = row_tuples(S)
    L, read = _reading(m, E, horizon + 1)
    V = read(S)[0]
    keys = unsigned_rows(S)  # ascending: states are in MSB-first order

    def values_of(succ):
        succ_keys = unsigned_rows(succ)
        j = np.minimum(np.searchsorted(keys, succ_keys), len(S) - 1)
        return V[j, :horizon], keys[j] == succ_keys

    ok, base_ok, R = _recursion(m, S, V, L, values_of, int(np.abs(V).max()))
    fits = ok.all(axis=2)
    bad = ~(base_ok & fits.any(axis=0))
    if bad.any():
        k = int(np.argmax(bad))
        if not base_ok[k]:
            reason = f"E(s,0) = {Fraction(int(V[k, 0]), L)} but r(s) = {int(R[k])}"
        else:
            reason = "no action satisfies the value recursion at every step index"
        return ConsistencyResult(False, counterexample=states[k], reason=reason)
    return ConsistencyResult(True, witness=dict(zip(states, fits.argmax(axis=0).tolist())))


def extract_policy(m: md.SuccinctMdp, E, horizon: int, s: BitVector, i: int) -> int:
    """First action (declared order) whose successor-weighted sum equals
    E(s, i) - r(s): the test of `check_consistency` at one state and one
    step index, on exact integers. As there, every action is stepped before
    any verdict, so a ModelError of any action at s is raised even where an
    earlier action matches."""
    S = md._state_array([s], m.num_vars, error=ValueFunctionError)
    md._check_step(i, 1, min(horizon, E.horizon), ValueFunctionError)
    L, read = _reading(m, E, i + 1)
    V, known = read(S)
    if not known[0]:
        raise ValueFunctionError(f"value table does not cover state {tuple(s)}")
    ok, _, R = _recursion(m, S, V, L, read)
    if ok[:, 0, i - 1].any():
        return int(ok[:, 0, i - 1].argmax())
    target = Fraction(int(V[0, i]), L) - int(R[0])
    raise InconsistentValueError(f"no action matches E(s,{i}) - r(s) = {target} at state {tuple(s)}")


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
