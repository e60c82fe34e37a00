"""Succinct MDPs and their explicit expansion.

States are assignments to Boolean variables. The transition circuit takes
``[s bits | s' bits | action-index bits]`` and outputs the probability
numerator over a single declared denominator D, so all probability
arithmetic is exact. The reward circuit maps a state to a two's-complement
integer. A bounded-action MDP also has one successor circuit per action that
lists the successors of a state slot by slot; without them, every one of
the 2**n states is a candidate successor.

`_step` is the one checked successor step. It packs the frontier once into
column words (`circuit.Columns`), runs both circuits on slot-major
byte-aligned blocks of rows and unpacks once, so no bool array is built per
circuit call. `expand_many` keeps its frontier as a bool array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuit as ct
from ._manifest import read_manifest, read_netlist_beside
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

DEFAULT_STATE_LIMIT = 1 << 20


class ModelError(ValueError):
    pass


class EnumerationLimitError(ModelError):
    pass


def state_limit() -> int:
    raw = os.environ.get("SMDP_LIMIT_STATES")
    if raw is None:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise ModelError(f"SMDP_LIMIT_STATES must be an integer, got {raw!r}") from None
    if limit <= 0:
        raise ModelError(f"SMDP_LIMIT_STATES must be positive, got {limit}")
    return limit


def _limit_error(what: str, count: int, limit: int) -> EnumerationLimitError:
    """The error for a count past the limit; names the knob that raises it."""
    return EnumerationLimitError(
        f"{what} reached {count}, over the limit {limit}; raise SMDP_LIMIT_STATES"
    )


def _check_horizon(horizon: int, what: str = "horizon") -> None:
    """The one check of a query's horizon (or trajectory depth)."""
    if horizon < 0:
        raise ValueError(f"{what} must be nonnegative, got {horizon}")


@dataclass(frozen=True)
class SuccinctMdp:
    """A circuit-represented MDP.

    With `successor_circuits` it is a bounded-action MDP: the circuit of each
    action maps ``[s bits | slot bits]`` to ``[valid | s' bits]`` for slots
    0..max_branching-1, and the valid slots must list every
    positive-probability successor of s exactly once.
    """

    var_names: Tuple[str, ...]
    initial: BitVector
    actions: Tuple[str, ...]
    t_circuit: ct.Circuit
    r_circuit: ct.Circuit
    prob_denominator: int
    name: str = "mdp"
    successor_circuits: Tuple[ct.Circuit, ...] = ()
    max_branching: int = 0

    def __post_init__(self):
        n = len(self.var_names)
        if len(self.initial) != n:
            raise ModelError("initial state width does not match variable count")
        if not self.actions:
            raise ModelError("need at least one action")
        if self.prob_denominator < 1:
            raise ModelError("probability denominator must be positive")
        want_t = 2 * n + self.action_width
        if self.t_circuit.num_inputs != want_t:
            raise ModelError(
                f"transition circuit takes {self.t_circuit.num_inputs} inputs, expected {want_t}"
            )
        if self.r_circuit.num_inputs != n:
            raise ModelError(
                f"reward circuit takes {self.r_circuit.num_inputs} inputs, expected {n}"
            )
        if self.t_circuit.num_outputs < 1 or self.r_circuit.num_outputs < 1:
            raise ModelError("transition and reward circuits need at least one output")
        if not self.successor_circuits:
            return
        if len(self.successor_circuits) != len(self.actions):
            raise ModelError("need one successor circuit per action")
        if self.max_branching < 1:
            raise ModelError("max branching must be positive")
        want_in = n + self.slot_width
        for a, c in zip(self.actions, self.successor_circuits):
            if c.num_inputs != want_in:
                raise ModelError(
                    f"successor circuit for {a} takes {c.num_inputs} inputs, expected {want_in}"
                )
            if c.num_outputs != 1 + n:
                raise ModelError(
                    f"successor circuit for {a} has {c.num_outputs} outputs, expected {1 + n}"
                )

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def action_width(self) -> int:
        return width_for_count(len(self.actions))

    @property
    def prob_num_width(self) -> int:
        return self.t_circuit.num_outputs

    @property
    def reward_width(self) -> int:
        return self.r_circuit.num_outputs

    @property
    def slot_width(self) -> int:
        return width_for_count(self.max_branching)


@dataclass(frozen=True)
class ExplicitMdp:
    """An expanded MDP over integers.

    ``transitions[a]`` holds the checked rows of action a as three equal-length
    integer arrays ``(src, dst, num)`` in source order: the source state
    index, the successor state index and the probability numerator over
    `denominator` (the model's D). Every state has rows under every action,
    and the numerators of one source sum to D.
    """

    states: Tuple[BitVector, ...]
    initial: int
    actions: Tuple[str, ...]
    denominator: int
    transitions: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    rewards: Tuple[int, ...]


def _rewards_level(em: ExplicitMdp, horizon: int) -> np.ndarray:
    """The step-0 values (the rewards) as an array in the dtype of every
    level up to `horizon`: int64 when max(|r|, 1)·(horizon+1)·D**horizon, a
    bound on every scaled value and partial sum, is below 2**63, exact Python
    ints (object dtype) otherwise."""
    h = max(horizon, 0)
    worst = max(max(map(abs, em.rewards)), 1) * (h + 1) * em.denominator**h
    return np.array(em.rewards, dtype=np.int64 if worst < 1 << 63 else object)


def _bellman(em: ExplicitMdp, prev: np.ndarray, i: int) -> np.ndarray:
    """One exact Bellman step: Q[a, s] at step index i, scaled by D**i, from
    the values `prev` at step index i-1, scaled by D**(i-1) (a `_rewards_level`
    array or a level derived from one). With p = num/D,

        D**i·Q(s, a) = D**i·r(s) + sum num·D**(i-1)·V(s', i-1).
    """
    q = np.array(em.rewards, dtype=prev.dtype) * em.denominator**i
    Q = np.tile(q, (len(em.actions), 1))
    for a, (src, dst, num) in enumerate(em.transitions):
        np.add.at(Q[a], src, num.astype(prev.dtype) * prev[dst])
    return Q


def _fractions(level: np.ndarray, scale: int = 1) -> List[Fraction]:
    """The values of a level, each read as ``Fraction(v, scale)``: one
    Fraction per distinct value, shared by the states that hold it."""
    values = level.tolist()
    exact = {v: Fraction(v, scale) for v in set(values)}
    return [exact[v] for v in values]


def _induction(
    em: ExplicitMdp, horizon: int, choose: Callable[[np.ndarray, int], np.ndarray]
) -> Dict[BitVector, Tuple[Fraction, ...]]:
    """Exact backward induction over step indices 0..horizon: the values of
    each state, indexed by step index. At step index i, ``choose(Q, i)``
    picks the level, scaled by D**i, from that step's `_bellman` array Q:
    its maximum for the optimum, one action per state for a policy."""
    level = _rewards_level(em, horizon)
    columns = [_fractions(level)]
    for i in range(1, horizon + 1):
        level = choose(_bellman(em, level, i), i)
        columns.append(_fractions(level, em.denominator**i))
    return dict(zip(em.states, zip(*columns)))


def reward(m: SuccinctMdp, s: BitVector) -> int:
    """Two's-complement reading of the reward circuit output."""
    return twos_to_int(ct.eval(m.r_circuit, tuple(s)))


def reward_batch(m: SuccinctMdp, states: Sequence[BitVector]) -> List[int]:
    """Rewards of a sequence of states or of a (rows, n) bool array."""
    if len(states) == 0:
        return []
    out = ct.eval_batch(m.r_circuit, np.array(states, dtype=bool))
    return [int(v) for v in signed_rows(out)]


def _step(m: SuccinctMdp, states_arr: np.ndarray, a: int):
    """One checked step of action a from every row of a bool state array.

    Returns ``(src, succ, nums)`` with one row per positive-probability
    transition, in source order: the source row index, the successor bits
    and the numerator over D. Candidates are the valid slots of the successor
    circuit, or all 2**n states for a model without one. Raises ModelError,
    checking in this order, if the action index is out of range, an
    enumerator lists a state twice, a numerator exceeds D, an enumerator
    lists a zero-probability state, or a source's numerators do not sum to D.

    The circuits run on column words (`bits.column_words`) in slot-major
    order: block k of npad rows holds candidate k of every source, source r
    in row k·npad + r. A model without successor circuits has 2**n blocks,
    block k listing state k. The frontier is packed once, and the valid,
    successor and numerator columns are unpacked once.
    """
    if not 0 <= a < len(m.actions):
        raise ModelError(f"action index {a} out of range")
    n_src, n = len(states_arr), m.num_vars
    D = m.prob_denominator
    if m.successor_circuits:
        B, index_width = m.max_branching, m.slot_width
    else:
        limit = state_limit()
        if (1 << n) > limit:
            raise _limit_error(f"successor candidates (2^{n})", 1 << n, limit)
        B, index_width = 1 << n, n
    s_words, npad = column_words(states_arr, B)
    rows = B * npad
    index = block_index_words(index_width, B, npad)
    real = int.from_bytes(((1 << n_src) - 1).to_bytes(npad // 8, "little") * B, "little")
    if m.successor_circuits:
        valid, *succ_words = ct.eval_batch(
            m.successor_circuits[a], ct.Columns(s_words + list(index), rows)
        ).words
        valid &= real
        # a row of slot k and the row d blocks up are the same source's slots
        # k and k + d: both valid with no successor bit differing is a duplicate
        for d in range(1, B):
            shift = d * npad
            same = valid & (valid >> shift)
            for w in succ_words:
                if not same:
                    break
                same &= ~(w ^ (w >> shift))
            if same:
                raise ModelError(f"duplicate successor slot in enumerator for {m.actions[a]}")
    else:
        valid, succ_words = real, list(index)
    a_words = [(1 << rows) - 1 if bit else 0 for bit in int_to_bits(a, m.action_width)]
    num_words = ct.eval_batch(
        m.t_circuit, ct.Columns(s_words + succ_words + a_words, rows)
    ).words
    grid = word_bits([valid, *succ_words, *num_words], rows)
    # the valid rows in source order: the transposed (B, npad) grid is source-major
    keep = np.flatnonzero(grid[0].reshape(B, npad).T)
    src = keep // B
    picked = grid[1:, (keep % B) * npad + src]
    succ = np.ascontiguousarray(picked[:n].T)
    nums = unsigned_rows(picked[n:].T)
    over = nums > D
    if over.any():
        raise ModelError(f"transition numerator {int(nums[over][0])} exceeds denominator {D}")
    positive = nums > 0
    if not positive.all():
        if m.successor_circuits:
            raise ModelError(
                f"successor enumerator for {m.actions[a]} lists a zero-probability state"
            )
        src, succ, nums = src[positive], succ[positive], nums[positive]
    # every numerator is at most D, so int64 sums cannot wrap while D * len(src) < 2**63
    totals = np.zeros(n_src, dtype=np.int64 if D * len(src) < 1 << 63 else object)
    np.add.at(totals, src, nums.astype(totals.dtype))
    if (totals != D).any():
        k = int(np.flatnonzero(totals != D)[0])
        raise ModelError(
            f"probabilities from state {tuple(states_arr[k].astype(int).tolist())} under "
            f"{m.actions[a]} sum to {int(totals[k])}/{D}, not 1"
        )
    return src, succ, nums


def successors(m: SuccinctMdp, s: BitVector, a: int) -> List[Tuple[BitVector, Fraction]]:
    """All positive-probability successors of s under action a, with exact
    probabilities summing to 1."""
    return successors_batch(m, [tuple(s)], a)[0]


def successors_batch(
    m: SuccinctMdp, states: Sequence[BitVector], a: int
) -> List[List[Tuple[BitVector, Fraction]]]:
    """The successors of each of a sequence of states or of a (rows, n) bool
    array, as `successors` lists them."""
    if not 0 <= a < len(m.actions):
        raise ModelError(f"action index {a} out of range")
    if len(states) == 0:
        return []
    src, succ, nums = _step(m, np.array(states, dtype=bool), a)
    D = m.prob_denominator
    result: List[List[Tuple[BitVector, Fraction]]] = [[] for _ in states]
    for k, s2, num in zip(src.tolist(), row_tuples(succ), nums.tolist()):
        result[k].append((s2, Fraction(num, D)))
    return result


def expand(m: SuccinctMdp, s0: Optional[BitVector] = None) -> ExplicitMdp:
    """Enumerate the states reachable from s0 (closure under all actions)."""
    if s0 is None:
        s0 = m.initial
    em, _ = expand_many(m, [s0])
    return em


def _pack_keys(arr: np.ndarray) -> Tuple[bytes, int]:
    """Per-row byte keys of a bool array: (flat buffer, bytes per row)."""
    packed = np.packbits(arr, axis=1)
    return packed.tobytes(), packed.shape[1]


def expand_many(
    m: SuccinctMdp, roots: Sequence[BitVector]
) -> Tuple[ExplicitMdp, List[int]]:
    """Joint closure of several root states; returns the model plus the index
    of each root. Useful when many instances share one circuit MDP.

    Raises ModelError for a root that is not a 0/1 state of the model's
    width, and EnumerationLimitError once the states found, roots included,
    pass `SMDP_LIMIT_STATES`."""
    if not roots:
        raise ModelError("need at least one root state")
    limit = state_limit()
    n = m.num_vars
    for s in roots:
        if len(s) != n or not set(s) <= {0, 1}:
            raise ModelError(
                f"root {tuple(s)} is not a 0/1 state of width {n} (it has width {len(s)})"
            )

    index: Dict[bytes, int] = {}
    root_arr = np.array([tuple(s) for s in roots], dtype=bool)
    root_keys, root_kw = _pack_keys(root_arr)
    first: List[int] = []  # the row of each distinct root
    root_idx: List[int] = []
    for i in range(len(roots)):
        key = root_keys[i * root_kw : (i + 1) * root_kw]
        if key not in index:
            if len(index) >= limit:
                raise _limit_error("reachable state count", len(index) + 1, limit)
            index[key] = len(index)
            first.append(i)
        root_idx.append(index[key])
    layers: List[List[Tuple[np.ndarray, ...]]] = [[] for _ in m.actions]  # (src, dst, num)
    found = [root_arr[first]]  # the states in index order, one array per layer
    base = 0  # the frontier holds the states base .. base + len(frontier) - 1
    while len(found[-1]):
        frontier, fresh = found[-1], []
        for a in range(len(m.actions)):
            src, succ, nums = _step(m, frontier, a)
            keys, kw = _pack_keys(succ)
            old = len(index)
            # a new key takes the next index, so new states keep discovery order
            dst = np.array(
                [index.setdefault(keys[r * kw : r * kw + kw], len(index)) for r in range(len(src))],
                dtype=np.int64,
            )
            if len(index) > old:
                if len(index) > limit:
                    raise _limit_error("reachable state count", limit + 1, limit)
                new = np.flatnonzero(dst >= old)
                fresh.append(succ[new[np.unique(dst[new], return_index=True)[1]]])
            layers[a].append((src + base, dst, nums))
        base += len(frontier)
        found.append(np.concatenate(fresh) if fresh else root_arr[:0])
    states = np.concatenate(found)
    em = ExplicitMdp(
        states=tuple(row_tuples(states)),
        initial=0,
        actions=tuple(m.actions),
        denominator=m.prob_denominator,
        transitions=tuple(tuple(map(np.concatenate, zip(*rows))) for rows in layers),
        rewards=tuple(reward_batch(m, states)),
    )
    return em, root_idx


def save_mdp(m: SuccinctMdp, directory, horizon: Optional[int] = None) -> str:
    """Write the manifest and companion netlists; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    ct.write_netlist(m.t_circuit, os.path.join(directory, "transition.net"))
    ct.write_netlist(m.r_circuit, os.path.join(directory, "reward.net"))
    lines = [
        f"mdp {m.name}",
        "vars " + " ".join(m.var_names),
        "init " + "".join(str(b) for b in m.initial),
        "actions " + " ".join(m.actions),
        f"prob_denominator {m.prob_denominator}",
        f"prob_width {m.prob_num_width}",
        f"reward_width {m.reward_width}",
        "transition transition.net",
        "reward reward.net",
    ]
    for a, c in zip(m.actions, m.successor_circuits):
        fname = f"succ_{a}.net"
        ct.write_netlist(c, os.path.join(directory, fname))
        lines.append(f"successor {a} {fname} branching {m.max_branching}")
    if horizon is not None:
        lines.append(f"horizon {horizon}")
    path = os.path.join(directory, "mdp.manifest")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_mdp(manifest_path) -> Tuple[SuccinctMdp, Optional[int]]:
    """Read a manifest; returns the model and the declared horizon, if any."""
    fields = read_manifest(
        manifest_path,
        "MDP",
        ModelError,
        required=(
            "mdp", "vars", "init", "actions", "prob_denominator",
            "prob_width", "reward_width", "transition", "reward",
        ),
        ints=("prob_denominator", "prob_width", "reward_width", "horizon"),
        repeated=("successor",),
    )
    actions = tuple(fields["actions"].split())
    succ_files: Dict[str, str] = {}
    branchings = set()
    for lineno, value in fields["successor"]:
        parts = value.split()
        if len(parts) != 4 or parts[2] != "branching" or not parts[3].isdigit():
            raise ModelError(f"line {lineno}: malformed successor line")
        if parts[0] in succ_files:
            raise ModelError(f"line {lineno}: second successor line for action {parts[0]}")
        succ_files[parts[0]] = parts[1]
        branchings.add(int(parts[3]))
    if succ_files and set(succ_files) != set(actions):
        raise ModelError("successor lines must cover every action exactly once")
    if len(branchings) > 1:
        raise ModelError("successor lines disagree on branching")
    init = fields["init"]
    if any(ch not in "01" for ch in init):
        raise ModelError(f"bad init bitstring {init!r}")

    def netlist(fname: str) -> ct.Circuit:
        return read_netlist_beside(manifest_path, fname, ModelError)

    m = SuccinctMdp(
        var_names=tuple(fields["vars"].split()),
        initial=tuple(int(ch) for ch in init),
        actions=actions,
        t_circuit=netlist(fields["transition"]),
        r_circuit=netlist(fields["reward"]),
        prob_denominator=fields["prob_denominator"],
        name=fields["mdp"],
        successor_circuits=tuple(netlist(succ_files[a]) for a in actions) if succ_files else (),
        max_branching=branchings.pop() if branchings else 0,
    )
    if m.prob_num_width != fields["prob_width"]:
        raise ModelError("declared prob_width does not match transition circuit")
    if m.reward_width != fields["reward_width"]:
        raise ModelError("declared reward_width does not match reward circuit")
    return m, fields.get("horizon")


def validate(m: SuccinctMdp) -> List[str]:
    """Best-effort well-formedness report; empty list means no violation found.

    Checks normalization and (for bounded-action models) enumerator fidelity,
    exhaustively when the state space is small and otherwise on 64 random
    states drawn with seed 0, plus the initial state.
    """
    import random

    report: List[str] = []
    n = m.num_vars
    if (1 << n) <= 4096:
        states = [tuple(int(b) for b in row) for row in ct.all_input_rows(n)]
        exhaustive = True
    else:
        rng = random.Random(0)
        states = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(64)]
        states.append(tuple(m.initial))
        exhaustive = False
    # cross-check the enumerator against brute-force t enumeration
    plain = None
    if m.successor_circuits and exhaustive and (1 << n) <= 256:
        plain = replace(m, successor_circuits=(), max_branching=0)
    for a in range(len(m.actions)):
        try:
            succ = successors_batch(m, states, a)
        except ModelError as exc:
            report.append(f"action {m.actions[a]}: {exc}")
            continue
        if plain is not None:
            brute = successors_batch(plain, states, a)
            for s, got, want in zip(states, succ, brute):
                if sorted(got) != sorted(want):
                    report.append(
                        f"action {m.actions[a]}: enumerator mismatch at state {s}"
                    )
                    break
    return report
