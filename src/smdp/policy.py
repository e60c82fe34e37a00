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

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import circuit as ct
from ._files import check_name, manifest_text, read_manifest, write_files
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
        _check_counts(self.action_count)
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
        _check_counts(self.action_count, self.horizon)
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
        return self.decide_batch([s])[0]

    def decide_batch(
        self, states: Sequence[BitVector], depth: int = 0, steps_remaining: int = 0
    ) -> List[int]:
        """Actions of a sequence of states or of a (rows, n) bool array; the
        depth and the steps remaining are not read."""
        if isinstance(states, np.ndarray):
            states = row_tuples(states)
        keys = list(map(tuple, states))
        return _lookup(
            self.mapping, keys, self.action_count, "explicit policy", lambda k: f"{states[k]}"
        )


@dataclass(frozen=True)
class TimedExplicitPolicy:
    """Step-indexed table policy: the action may depend on steps remaining."""

    mapping: Dict[Tuple[BitVector, int], int]
    action_count: int
    kind = "timed"

    def decide_timed(self, s: BitVector, steps_remaining: int) -> int:
        return self.decide_batch([s], 0, steps_remaining)[0]

    def decide_batch(
        self, states: Sequence[BitVector], depth: int, steps_remaining: int
    ) -> List[int]:
        """Actions of a sequence of states or of a (rows, n) bool array with
        `steps_remaining` steps before the horizon; the depth is not read."""
        if isinstance(states, np.ndarray):
            states = row_tuples(states)
        keys = [(tuple(s), steps_remaining) for s in states]
        return _lookup(
            self.mapping, keys, self.action_count, "timed policy",
            lambda k: f"{states[k]} with {steps_remaining} steps remaining",
        )


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


def _lookup(
    mapping: dict, keys: list, action_count: int, name: str, where: Callable[[int], str]
) -> List[int]:
    """The action that table `name` maps each of `keys` to. The first key in
    order that is unmapped or maps outside 0..action_count-1 is a
    PolicyError; `where(k)` is the text that places key k in it, built only
    then."""
    actions = [mapping.get(key, -1) for key in keys]  # -1: unmapped
    if min(actions, default=0) < 0 or max(actions, default=0) >= action_count:
        k = next(k for k, a in enumerate(actions) if not 0 <= a < action_count)
        if keys[k] not in mapping:
            raise PolicyError(f"{name} undefined at state {where(k)}")
        raise PolicyError(
            f"{name} maps {where(k)} to action {actions[k]}, outside 0..{action_count - 1}"
        )
    return actions


def _check_counts(action_count: int, horizon: int = 0) -> None:
    """A policy chooses among at least one action and a history policy looks
    over a horizon of at least 0 steps; checked before any width is read."""
    if action_count < 1:
        raise PolicyError(f"policy action count must be at least 1, got {action_count}")
    if horizon < 0:
        raise PolicyError(f"history policy horizon must be at least 0, got {horizon}")


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


def _policy_files(p, basename: str) -> List[Tuple[str, str]]:
    """The netlist and manifest `save_policy` writes, as ``(file name,
    text)`` pairs; a name its reader would not read back is refused first."""
    check_name(p.name, "policy name", PolicyError, text=True)
    check_name(basename, "file name", PolicyError, file=True)
    netfile = f"{basename}.net"
    lines = [f"policy {p.name}", f"kind {p.kind}", f"actions {p.action_count}"]
    if p.kind == "history":
        lines.append(f"horizon {p.horizon}")
    lines.append(f"circuit {netfile}")
    return [(netfile, ct.serialize(p.circuit)), (f"{basename}.manifest", manifest_text(lines))]


def save_policy(p, directory, basename: str = "policy") -> str:
    return write_files(directory, _policy_files(p, basename))


def load_policy(manifest_path):
    fields = read_manifest(
        manifest_path,
        "policy",
        PolicyError,
        required=("policy", "kind", "actions", "circuit"),
        ints=("actions", "horizon"),
    )
    circ = ct._read_netlist_beside(manifest_path, fields["circuit"], PolicyError)
    count = fields["actions"]
    if fields["kind"] == "stationary":
        return StationaryPolicy(circ, count, name=fields["policy"])
    if fields["kind"] == "history":
        if "horizon" not in fields:
            raise PolicyError("policy manifest missing 'horizon' line")
        horizon = fields["horizon"]
        _check_counts(count, horizon)
        tw = width_for_count(horizon + 1)
        num_vars = (circ.num_inputs - tw) // (horizon + 1)
        return HistoryPolicy(circ, count, horizon, num_vars, name=fields["policy"])
    raise PolicyError(f"unknown policy kind {fields['kind']!r}")
