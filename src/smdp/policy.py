"""Circuit policies and explicit (table) policies.

A stationary policy circuit maps a state to an action index; a
history-dependent policy circuit takes the padded state sequence
``[slot_0 | ... | slot_T | current-time bits]`` with slots beyond the
current time zero-filled. A decoded or tabled index outside the action range
is a hard error, never clamped: a malformed policy must not silently pass a
correspondence check.

A question asks a policy only where its answer reads it. The expected reward,
exact (`evaluator.expected_reward_exact`), Monte-Carlo, by trajectories or in
the policy-size search (`oracle.bounded_policy_exists`), asks a policy at the
states that it reaches below the horizon, and at no other state.
`valuefn.value_of_policy` builds a table over every expanded state and step
index, so it asks the policy at each of them. An action out of range where a
policy is asked is an error; nothing is asked of the other states.

Every policy kind answers one batched call, ``decide_batch(rows, depth,
steps_remaining)``, with one action per row. The rows are states, or for a
history policy the states 0..depth of each trajectory; `depth` is the number
of steps taken and `steps_remaining` the number left before the horizon. A
stationary policy reads neither, a history policy reads `depth` and a timed
table reads `steps_remaining`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import circuit as ct
from ._manifest import read_manifest, read_netlist_beside, write_manifest
from .bits import BitVector, int_to_bits, row_tuples, unsigned_rows, width_for_count
from .mdp import _state_array


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class StationaryPolicy:
    circuit: ct.Circuit
    action_count: int
    name: str = "policy"
    kind = "stationary"

    def __post_init__(self):
        if self.circuit.num_outputs != width_for_count(self.action_count):
            raise PolicyError(
                f"policy outputs {self.circuit.num_outputs} bits, expected "
                f"{width_for_count(self.action_count)} for {self.action_count} actions"
            )

    @property
    def num_vars(self) -> int:
        return self.circuit.num_inputs

    def decide(self, s: BitVector) -> int:
        return self.decide_batch([s])[0]

    def decide_batch(
        self, states: Sequence[BitVector], depth: int = 0, steps_remaining: int = 0
    ) -> List[int]:
        """Actions of a sequence of states or of a (rows, n) bool array; the
        depth and the steps remaining are not read."""
        arr = _state_array(states, self.num_vars, error=PolicyError)
        if len(arr) == 0:
            return []
        return _decode(
            self.circuit, arr, self.action_count, lambda k: f" at {row_tuples(arr[k : k + 1])[0]}"
        )


@dataclass(frozen=True)
class HistoryPolicy:
    circuit: ct.Circuit
    action_count: int
    horizon: int
    num_vars: int
    name: str = "policy"
    kind = "history"

    def __post_init__(self):
        want = (self.horizon + 1) * self.num_vars + width_for_count(self.horizon + 1)
        if self.circuit.num_inputs != want:
            raise PolicyError(
                f"history policy takes {self.circuit.num_inputs} inputs, expected {want}"
            )
        if self.circuit.num_outputs != width_for_count(self.action_count):
            raise PolicyError("history policy output width does not match action count")

    def decide_history(self, states: Sequence[BitVector], j: int) -> int:
        """Action after observing states[0..j]; later slots are zero-filled."""
        if not 0 <= j < len(states):
            raise PolicyError(f"time index {j} out of range")
        observed = _state_array(states[: j + 1], self.num_vars, error=PolicyError)
        row = observed.reshape(1, (j + 1) * self.num_vars)
        return self.decide_batch(row, j)[0]

    def decide_batch(self, histories, depth: int, steps_remaining: int = 0) -> List[int]:
        """Actions after observing states 0..depth of each row of a (rows,
        (depth+1)·n) bool array of state sequences; later slots are
        zero-filled. The steps remaining are not read."""
        if not 0 <= depth <= self.horizon:
            raise PolicyError(f"time index {depth} out of range")
        observed = _state_array(histories, (depth + 1) * self.num_vars, "history", PolicyError)
        if len(observed) == 0:
            return []
        tw = width_for_count(self.horizon + 1)
        rows = np.zeros((len(observed), self.circuit.num_inputs), dtype=bool)
        rows[:, : observed.shape[1]] = observed
        rows[:, -tw:] = int_to_bits(depth, tw)
        return _decode(self.circuit, rows, self.action_count, lambda k: "")


@dataclass(frozen=True)
class ExplicitPolicy:
    mapping: Dict[BitVector, int]
    action_count: int
    kind = "stationary"

    def decide(self, s: BitVector) -> int:
        return _lookup(self.mapping, tuple(s), self.action_count, "explicit policy", f"{s}")

    def decide_batch(
        self, states: Sequence[BitVector], depth: int = 0, steps_remaining: int = 0
    ) -> List[int]:
        """Actions of a sequence of states or of a (rows, n) bool array; the
        depth and the steps remaining are not read."""
        if isinstance(states, np.ndarray):
            states = row_tuples(states)
        return [self.decide(s) for s in states]


@dataclass(frozen=True)
class TimedExplicitPolicy:
    """Step-indexed table policy: the action may depend on steps remaining."""

    mapping: Dict[Tuple[BitVector, int], int]
    action_count: int
    kind = "timed"

    def decide_timed(self, s: BitVector, steps_remaining: int) -> int:
        key, where = (tuple(s), steps_remaining), f"{s} with {steps_remaining} steps remaining"
        return _lookup(self.mapping, key, self.action_count, "timed policy", where)

    def decide_batch(
        self, states: Sequence[BitVector], depth: int, steps_remaining: int
    ) -> List[int]:
        """Actions of a sequence of states or of a (rows, n) bool array with
        `steps_remaining` steps before the horizon; the depth is not read."""
        if isinstance(states, np.ndarray):
            states = row_tuples(states)
        return [self.decide_timed(s, steps_remaining) for s in states]


def _decode(
    circuit: ct.Circuit, inputs: np.ndarray, action_count: int, where: Callable[[int], str]
) -> List[int]:
    """The action that the circuit decodes from each row of `inputs`. An index
    >= action_count is a PolicyError; `where(k)` is the text that places row
    k in it, built only then."""
    vals = unsigned_rows(ct.eval_batch(circuit, inputs))
    bad = np.flatnonzero(vals >= action_count)
    if bad.size:
        k = int(bad[0])
        raise PolicyError(f"policy decoded action {int(vals[k])} >= {action_count}{where(k)}")
    return vals.tolist()


def _lookup(mapping: dict, key, action_count: int, name: str, where: str) -> int:
    """The action that table `name` maps `key` to. An unmapped key or an
    action outside 0..action_count-1 is a PolicyError that places the key by
    the text `where`."""
    try:
        a = mapping[key]
    except KeyError:
        raise PolicyError(f"{name} undefined at state {where}")
    if not 0 <= a < action_count:
        raise PolicyError(f"{name} maps {where} to action {a}, outside 0..{action_count - 1}")
    return a


def _check_policy_width(policy, n: int) -> None:
    """A circuit policy must read as many state bits as the model has (n)."""
    if isinstance(policy, (StationaryPolicy, HistoryPolicy)) and policy.num_vars != n:
        raise PolicyError(f"policy reads {policy.num_vars} state bits, the model has {n}")


def compile_explicit(
    mapping: Dict[BitVector, int], num_vars: int, action_count: int
) -> StationaryPolicy:
    """Compile a total explicit policy over all 2**n states to a circuit.

    Each output bit of the result is a full-literal DNF, so the per-output
    term count is at most 2**n.
    """
    if len(mapping) != 1 << num_vars:
        raise PolicyError(
            f"explicit policy is partial: {len(mapping)} of {1 << num_vars} states mapped"
        )
    values = ExplicitPolicy(mapping, action_count).decide_batch(ct.all_input_rows(num_vars))
    width = width_for_count(action_count)
    c = ct.circuit_from_values(num_vars, width, values, name="compiled_policy")
    return StationaryPolicy(c, action_count, name="compiled_policy")


def save_policy(p, directory, basename: str = "policy") -> str:
    netfile = f"{basename}.net"
    ct.write_netlist(p.circuit, os.path.join(directory, netfile))
    lines = [f"policy {p.name}", f"kind {p.kind}", f"actions {p.action_count}"]
    if p.kind == "history":
        lines.append(f"horizon {p.horizon}")
    lines.append(f"circuit {netfile}")
    return write_manifest(os.path.join(directory, f"{basename}.manifest"), lines)


def load_policy(manifest_path):
    fields = read_manifest(
        manifest_path,
        "policy",
        PolicyError,
        required=("policy", "kind", "actions", "circuit"),
        ints=("actions", "horizon"),
    )
    circ = read_netlist_beside(manifest_path, fields["circuit"], PolicyError)
    count = fields["actions"]
    if fields["kind"] == "stationary":
        return StationaryPolicy(circ, count, name=fields["policy"])
    if fields["kind"] == "history":
        if "horizon" not in fields:
            raise PolicyError("policy manifest missing 'horizon' line")
        horizon = fields["horizon"]
        tw = width_for_count(horizon + 1)
        num_vars = (circ.num_inputs - tw) // (horizon + 1)
        return HistoryPolicy(circ, count, horizon, num_vars, name=fields["policy"])
    raise PolicyError(f"unknown policy kind {fields['kind']!r}")
