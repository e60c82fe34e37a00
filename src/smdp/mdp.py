"""Succinct MDPs and their explicit expansion.

States are assignments to Boolean variables. The transition circuit takes
``[s bits | s' bits | action-index bits]`` and outputs the probability
numerator over a single declared denominator D, so all probability
arithmetic is exact. The reward circuit maps a state to a two's-complement
integer. A bounded-action MDP also has one successor circuit per action that
lists the successors of a state slot by slot; without them, every one of
the 2**n states is a candidate successor.

`_step` is the one checked successor step, under one action for every row
or one action per row. Its unit is a piece (`_step_piece`): one rows array
of a bool state array, stepped under one or more actions. The piece packs
its rows once into column words (`circuit.Columns`), in byte-aligned slot
blocks for every action; the successor circuits read the first action's
blocks (several actions read their slices of one run of the model's shared
successor program, `circuit.shared_program`), and the transition circuit
runs once on them all. The duplicate-slot check, the unpack and the scan
for valid rows are then done once for all the actions. A piece with one
action per row is masked: each action's blocks hold only its own rows, so
a mixed-action step runs each circuit once per piece. A piece returns each
action's rows and its first fault, without raising.

`_step_each` is the one piece loop, which `_step` and `expand_many` both
step through. Its one rule: if every action's candidates for one row fit in
`_STEP_ROWS`, a piece holds every action, and otherwise one; a piece holds
at most `_STEP_ROWS` candidate rows (or one row under one action). Every
piece is stepped before the fault of the first faulty action is raised, the
fault one whole step per action would meet first, so nothing is stepped
twice. `expand_many` numbers a layer's successors action-major after the
layer is stepped, in runs of at most `_STEP_ROWS` rows, with
`_number_rows`, the one state numbering, which the Monte-Carlo walk uses
too: a dict keyed by each row's `bits.unsigned_rows` reading, one Python
int at any width.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circuit as ct
from ._manifest import read_manifest, read_netlist_beside, write_manifest
from .bits import (
    BitVector,
    block_index_words,
    block_words,
    column_words,
    row_tuples,
    signed_rows,
    unsigned_rows,
    width_for_count,
    word_bits,
)

DEFAULT_STATE_LIMIT = 1 << 20
# the most candidate rows per piece of `_step_each`, each one
# transition-circuit pass: whole expansion layers in one pass took more
# memory and time (see ROADMAP)
_STEP_ROWS = 1 << 16


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


def _check_step(i: int, lo: int, hi: int, error=ValueError) -> None:
    """The one check of a step index against its range lo..hi."""
    if not lo <= i <= hi:
        raise error(f"step index {i} out of range {lo}..{hi}")


def _check_state(s: BitVector, n: int, what: str = "state", error=ModelError) -> None:
    """The one check that `s` is a 0/1 state of width n, named `what` in the error."""
    if len(s) != n or not set(s) <= {0, 1}:
        raise error(
            f"{what} {tuple(s)} is not a 0/1 state of width {n} (it has width {len(s)})"
        )


def _state_array(states, n: int, what: str = "state", error=ModelError) -> np.ndarray:
    """A sequence of states as a (rows, n) bool array, each state checked by
    `_check_state`; a bool array is checked by its shape alone."""
    if isinstance(states, np.ndarray) and states.dtype == bool:
        if states.ndim != 2 or states.shape[1] != n:
            raise error(f"{what} array of shape {states.shape} is not (rows, {n}) for width {n}")
        return states
    for s in states:
        _check_state(s, n, what, error)
    return np.array(states, dtype=bool).reshape(len(states), n)


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
        _check_state(self.initial, n, "initial state")
        if not self.actions:
            raise ModelError("need at least one action")
        if len(set(self.actions)) < len(self.actions):
            twice = next(a for k, a in enumerate(self.actions) if a in self.actions[:k])
            raise ModelError(f"action name {twice} is repeated")
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

    @cached_property
    def _successor_program(self) -> ct.Program:
        """Every action's ``[valid | s']`` in action order, from one program:
        the successor circuits merged (`circuit.shared_program`), built on the
        first step that reads several actions' enumerators on one rows array."""
        return ct.shared_program(self.successor_circuits)


@dataclass(frozen=True, eq=False)
class ExplicitMdp:
    """An expanded MDP over integers.

    ``state_array`` is the ``(states, n)`` bool array of the states in index
    order, and ``reward_array`` their rewards in the dtype of
    `bits.signed_rows` (int64, or exact Python ints past 62 bits).
    ``transitions[a]`` holds the checked rows of action a as three equal-length
    integer arrays ``(src, dst, num)`` in source order: the source state
    index, the successor state index and the probability numerator over
    `denominator` (the model's D). Every stepped state has rows under every
    action, and the numerators of one source sum to D. A full closure steps
    every state; an `expand_many` with a depth leaves the states of its last
    layer, a suffix of the states, unstepped and without rows.

    `states` (bit tuples) and `rewards` (Python ints) are views of the arrays,
    built on first read for the readers keyed by state tuples.
    """

    state_array: np.ndarray
    initial: int
    actions: Tuple[str, ...]
    denominator: int
    transitions: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    reward_array: np.ndarray

    @cached_property
    def states(self) -> Tuple[BitVector, ...]:
        return tuple(row_tuples(self.state_array))

    @cached_property
    def rewards(self) -> Tuple[int, ...]:
        return tuple(self.reward_array.tolist())


def _rewards_level(em: ExplicitMdp, horizon: int) -> np.ndarray:
    """The step-0 values (the rewards) as an array in the dtype of every
    level up to `horizon`: int64 when max(|r|, 1)·(horizon+1)·D**horizon, a
    bound on every scaled value and partial sum, is below 2**63, exact Python
    ints (object dtype) otherwise."""
    h = max(horizon, 0)
    worst = max(int(np.abs(em.reward_array).max()), 1) * (h + 1) * em.denominator**h
    return em.reward_array.astype(np.int64 if worst < 1 << 63 else object)


def _bellman(em: ExplicitMdp, prev: np.ndarray, i: int) -> np.ndarray:
    """One exact Bellman step: Q[a, s] at step index i, scaled by D**i, from
    the values `prev` at step index i-1, scaled by D**(i-1) (a `_rewards_level`
    array or a level derived from one). With p = num/D,

        D**i·Q(s, a) = D**i·r(s) + sum num·D**(i-1)·V(s', i-1).
    """
    q = em.reward_array.astype(prev.dtype) * em.denominator**i
    Q = np.tile(q, (len(em.actions), 1))
    for a, (src, dst, num) in enumerate(em.transitions):
        np.add.at(Q[a], src, num.astype(prev.dtype) * prev[dst])
    return Q


def _induction(
    em: ExplicitMdp, horizon: int, choose: Callable[[np.ndarray, int], np.ndarray]
) -> List[np.ndarray]:
    """Exact backward induction over step indices 0..horizon: the levels of
    every state, level i scaled by D**i. At step index i, ``choose(Q, i)``
    picks the level from that step's `_bellman` array Q: its maximum for the
    optimum, one action per state for a policy."""
    levels = [_rewards_level(em, horizon)]
    for i in range(1, horizon + 1):
        levels.append(choose(_bellman(em, levels[-1], i), i))
    return levels


def _fractions(em: ExplicitMdp, levels) -> Dict[BitVector, Tuple[Fraction, ...]]:
    """The values of each state, indexed by step index, read from levels
    scaled by D**i: one Fraction per distinct value of a level, shared by the
    states that hold it."""
    columns = []
    for i, level in enumerate(levels):
        values = level.tolist()
        exact = {v: Fraction(v, em.denominator**i) for v in set(values)}
        columns.append([exact[v] for v in values])
    return dict(zip(em.states, zip(*columns)))


def reward(m: SuccinctMdp, s: BitVector) -> int:
    """Two's-complement reading of the reward circuit output."""
    return reward_batch(m, [s])[0]


def reward_batch(m: SuccinctMdp, states: Sequence[BitVector]) -> List[int]:
    """Rewards of a sequence of states or of a (rows, n) bool array, as Python ints."""
    return _reward_rows(m, _state_array(states, m.num_vars)).tolist()


def _reward_rows(m: SuccinctMdp, arr: np.ndarray) -> np.ndarray:
    """`reward_batch` of a (rows, n) bool array, as an array in the dtype of
    `bits.signed_rows`. The reward circuit runs on pieces of at most
    `_STEP_ROWS` rows, so one call never holds the gate words of more rows
    than that."""
    size = _STEP_ROWS
    out = [ct.eval_batch(m.r_circuit, arr[lo : lo + size]) for lo in range(0, len(arr), size)]
    return signed_rows(np.concatenate(out or [np.zeros((0, m.reward_width), bool)]))


def _duplicate_slots(valid: int, succ_words: List[int], blocks: int, npad: int, k: int) -> int:
    """The rows that list one successor in two valid slots of their source,
    as a word over the k actions' blocks of `_step_piece`: a row of slot j
    and the row d blocks up are the same source's slots j and j + d, both
    valid with no successor bit differing. With several actions, a mask keeps
    the rows of slots 0..blocks-d-1, so no comparison reaches the next action."""
    hits, nb = 0, npad // 8  # bytes per block
    for d in range(1, blocks):
        shift = d * npad
        same = valid & (valid >> shift)
        if k > 1:
            same &= int.from_bytes((b"\xff" * (blocks - d) * nb + bytes(d * nb)) * k, "little")
        for w in succ_words:
            if not same:
                break
            same &= ~(w ^ (w >> shift))
        hits |= same
    return hits


def _stack(groups: List[List[int]], size: int) -> List[int]:
    """The column words of several groups of `size` rows stacked in order:
    column j holds column j of each group in turn."""
    stacked = groups[0]
    for g, group in enumerate(groups[1:], 1):
        stacked = [word | w << g * size for word, w in zip(stacked, group)]
    return stacked


def _candidates(m: SuccinctMdp) -> Tuple[int, int]:
    """The candidate successors per source and the width of their index:
    the slots of the successor circuits, or all 2**n states."""
    if m.successor_circuits:
        return m.max_branching, m.slot_width
    n, limit = m.num_vars, state_limit()
    if (1 << n) > limit:
        raise _limit_error(f"successor candidates (2^{n})", 1 << n, limit)
    return 1 << n, n


def _step_piece(
    m: SuccinctMdp, states: np.ndarray, rows: np.ndarray, actions: Sequence[int], B: int,
    index_width: int, acts: Optional[np.ndarray] = None,
):
    """One step of the states ``states[rows]`` under each of `actions`
    (distinct, in range): a list of ``(action, src, succ, nums, fault)``, one
    per action. ``src`` indexes `states`; the rows are in source order, as
    `_step` returns them. ``fault`` is None or the action's first fault
    ``(rank, message)`` by rank, in the order `_step` checks them: 0 a
    duplicate slot, 1 a numerator over D, 2 a listed zero-probability state,
    3 a source whose numerators do not sum to D. With `acts`, the action
    index of each of `rows`, a row is stepped only under its own action: the
    piece is masked, so the duplicate-slot check, the valid rows and every
    fault see only the (row, action) pairs that are stepped.

    The circuits run on column words (`bits.column_words`), the rows packed
    once for every action and laid out slot-major: block g·B + j of npad rows
    holds candidate j of every source under the g-th action, source r in row
    (g·B + j)·npad + r. A model without successor circuits has B = 2**n,
    candidate j being state j. The successor circuits read the first B
    blocks: one action runs its own, several read their slices of one run of
    the shared program (`SuccinctMdp._successor_program`). The transition
    circuit runs once on all k·B blocks, the action bits constant within
    each action's blocks (`bits.block_words`). One duplicate-slot check, one
    unpack and one nonzero scan then serve every action."""
    n, D, k = m.num_vars, m.prob_denominator, len(actions)
    # every action's blocks packed at once; the successor input is the first B
    s_words, npad = column_words(states if len(rows) == len(states) else states[rows], B * k)
    size = B * npad
    total, low = size * k, (1 << size) - 1
    index = list(block_index_words(index_width, B, npad))
    if acts is None:
        real = int.from_bytes(((1 << len(rows)) - 1).to_bytes(npad // 8, "little") * (B * k), "little")
    else:  # action g's rows in each of its B blocks, the actions' words one size apart
        sel = acts == np.asarray(actions)[:, None]
        (real,) = _stack([[w] for w in column_words(sel.T, B)[0]], size)
    if not m.successor_circuits:
        outputs = [[low, *index]] * k
    else:
        inputs = ct.Columns([w & low for w in s_words] + index, size)
        if k == 1:
            outputs = [ct.eval_batch(m.successor_circuits[actions[0]], inputs).words]
        else:
            shared = ct.eval_batch(m._successor_program, inputs).words
            outputs = [shared[b * (n + 1) : (b + 1) * (n + 1)] for b in actions]
    valid, *succ_words = _stack(outputs, size)
    valid &= real
    hits = _duplicate_slots(valid, succ_words, B, npad, k) if m.successor_circuits else 0
    a_words = list(block_words(tuple(actions), m.action_width, size))
    num_words = ct.eval_batch(m.t_circuit, ct.Columns(s_words + succ_words + a_words, total)).words
    bits = word_bits([valid, hits] + succ_words + num_words, total)
    dup = bits[1].reshape(k, size).any(axis=1)
    # the valid rows action-major, in source order within each action: each
    # action's transposed (B, npad) grid is source-major
    which, keep = np.divmod(np.flatnonzero(bits[0].reshape(k, B, npad).transpose(0, 2, 1)), size)
    local, slot = np.divmod(keep, B)
    picked = bits[2:, which * size + slot * npad + local]
    succ = np.ascontiguousarray(picked[:n].T)
    nums = unsigned_rows(picked[n:].T)
    over, zero = nums > D, nums == 0
    any_over, any_zero = over.any(), zero.any()
    # with every numerator at most D, int64 sums cannot wrap while D * len(nums) < 2**63
    exact = any_over or D * len(nums) >= 1 << 63
    totals = np.zeros(k * len(rows), dtype=object if exact else np.int64)
    np.add.at(totals, which * len(rows) + local, nums.astype(totals.dtype))
    totals = totals.reshape(k, len(rows))
    bad = totals != D
    if acts is not None:
        bad &= sel
    faults = [None] * k
    if dup.any() or any_over or (m.successor_circuits and any_zero) or bad.any():
        for h, b in enumerate(actions):
            mine = which == h
            failing = np.flatnonzero(bad[h])
            if dup[h]:
                faults[h] = 0, f"duplicate successor slot in enumerator for {m.actions[b]}"
            elif (over & mine).any():
                faults[h] = 1, (
                    f"transition numerator {int(nums[over & mine][0])} exceeds denominator {D}"
                )
            elif m.successor_circuits and (zero & mine).any():
                faults[h] = 2, (
                    f"successor enumerator for {m.actions[b]} lists a zero-probability state"
                )
            elif len(failing):
                r = failing[0]
                faults[h] = 3, (
                    f"probabilities from state {tuple(states[rows[r]].astype(int).tolist())} "
                    f"under {m.actions[b]} sum to {int(totals[h, r])}/{D}, not 1"
                )
    src = rows[local]
    if any_zero:
        positive = ~zero
        which, src, succ, nums = which[positive], src[positive], succ[positive], nums[positive]
    ends = np.searchsorted(which, np.arange(k + 1))
    return [
        (b, src[lo:hi], succ[lo:hi], nums[lo:hi], fault)
        for b, lo, hi, fault in zip(actions, ends[:-1], ends[1:], faults)
    ]


def _step_each(m: SuccinctMdp, states: np.ndarray, actions: Sequence[int], acts=None):
    """Every piece of one step of `states` under each of `actions`
    (distinct, in range), or with `acts`, the action index of each row, of
    each row under its own action: ``(parts, faults)``. ``parts[b]`` is
    action b's list of ``(src, succ, nums)`` in source order, and
    ``faults[b]``, for a faulty b only, is b's first fault ``(rank,
    message)``: the lowest rank, from the first piece in source order, the
    fault one whole step of b meets first.

    The one rule for cutting a step: if every action's candidates for one
    row fit in `_STEP_ROWS`, one group holds every action, and otherwise
    each action is its own group; a piece holds at most ``_STEP_ROWS //
    (B·len(group))`` rows, and at least one. With `acts`, a one-action group
    steps only its own rows, and a piece of several actions is masked
    (`_step_piece`)."""
    B, index_width = _candidates(m)
    groups = [actions] if len(actions) * B <= _STEP_ROWS else [[b] for b in actions]
    size = max(1, _STEP_ROWS // (B * len(groups[0])))
    parts, faults = {b: [] for b in actions}, {}
    for group in groups:
        own = acts is not None and len(group) == 1  # the group's own rows, unmasked
        rows = np.flatnonzero(acts == group[0]) if own else np.arange(len(states))
        for lo in range(0, len(rows), size):
            mask = None if own or acts is None else acts[lo : lo + size]  # rows[lo] is lo
            for b, src, succ, nums, fault in _step_piece(
                m, states, rows[lo : lo + size], group, B, index_width, mask
            ):
                parts[b].append((src, succ, nums))
                if fault is not None and (b not in faults or fault[0] < faults[b][0]):
                    faults[b] = fault
    return parts, faults


def _runs(parts: list, size: int):
    """`expand_many`'s (action, src, succ, nums) parts in order, in runs of
    consecutive parts with at most `size` successor rows in all (or one
    larger part alone), so that each run is numbered in one call."""
    run, count = [], 0
    for part in parts:
        if run and count + len(part[2]) > size:
            yield run
            run, count = [], 0
        run.append(part)
        count += len(part[2])
    if run:
        yield run


def _no_transitions(m: SuccinctMdp):
    """`_step`'s result for no rows."""
    return (
        np.zeros(0, np.int64),
        np.zeros((0, m.num_vars), bool),
        unsigned_rows(np.zeros((0, m.prob_num_width), bool)),
    )


def _step(m: SuccinctMdp, states_arr: np.ndarray, a):
    """One checked step from every row of a bool state array: under action
    index `a`, or under ``a[r]`` from row r when `a` holds one action index
    per row.

    Returns ``(src, succ, nums)`` with one row per positive-probability
    transition, in source order: the source row index, the successor bits
    and the numerator over D. Candidates are the valid slots of the successor
    circuit, or all 2**n states for a model without one. The actions are
    checked one by one in order of first use, so that one call per action in
    that order would raise the same ModelError first. An action raises
    ModelError if its index is out of range, or else if its enumerator lists
    a state twice, a numerator exceeds D, its enumerator lists a
    zero-probability state, or a source's numerators do not sum to D.

    The in-range actions used before the first out-of-range one are stepped
    through `_step_each`, per-row actions as masked pieces, so a mixed step
    runs each circuit once per piece. Every piece is stepped before the
    first faulty action's fault is raised; the actions' rows are then put in
    source order by a stable sort.
    """
    if isinstance(a, (int, np.integer)):
        used, acts = [int(a)], None
    else:
        acts = np.asarray(a, dtype=np.int64)
        used = list(dict.fromkeys(acts.tolist()))  # in order of first use
    out_of_range = next((b for b in used if not 0 <= b < len(m.actions)), None)
    if out_of_range is not None:
        # the actions used before it step first: a fault of theirs comes first
        used = used[: used.index(out_of_range)]
    if not used or not len(states_arr):  # no rows, or the first action used is out of range
        if out_of_range is not None:
            raise ModelError(f"action index {out_of_range} out of range")
        return _no_transitions(m)
    parts, faults = _step_each(m, states_arr, used, acts)
    if faults:  # the first faulty action in order of first use
        raise ModelError(faults[min(faults, key=used.index)][1])
    if out_of_range is not None:  # the actions before it passed every check
        raise ModelError(f"action index {out_of_range} out of range")
    out = [part for b in used for part in parts.pop(b)]
    src, succ, nums = map(np.concatenate, zip(*out)) if len(out) > 1 else out[0]
    out.clear()  # free the pieces before the rows are sorted
    if len(used) > 1:  # each action's rows are in source order, but not the actions
        order = np.argsort(src, kind="stable")
        src, succ, nums = src[order], succ[order], nums[order]
    return src, succ, nums


def successors(m: SuccinctMdp, s: BitVector, a: int) -> List[Tuple[BitVector, Fraction]]:
    """All positive-probability successors of s under action a, with exact
    probabilities summing to 1."""
    return successors_batch(m, [s], a)[0]


def successors_batch(
    m: SuccinctMdp, states: Sequence[BitVector], a: int
) -> List[List[Tuple[BitVector, Fraction]]]:
    """The successors of each of a sequence of states or of a (rows, n) bool
    array, as `successors` lists them."""
    if not 0 <= a < len(m.actions):
        raise ModelError(f"action index {a} out of range")
    if len(states) == 0:
        return []
    src, succ, nums = _step(m, _state_array(states, m.num_vars), a)
    D = m.prob_denominator
    result: List[List[Tuple[BitVector, Fraction]]] = [[] for _ in states]
    for k, s2, num in zip(src.tolist(), row_tuples(succ), nums.tolist()):
        result[k].append((s2, Fraction(num, D)))
    return result


def _number_rows(rows: np.ndarray, index: Dict[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The id of each row of a bool array in `index`, a dict keyed by the
    rows' `unsigned_rows` readings: a row not in it takes the next id, in
    first-seen order. Returns the ids and the rows that took new ids, in id
    order."""
    old, keys = len(index), unsigned_rows(rows).tolist()
    ids = np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.int64)
    new = np.flatnonzero(ids >= old)
    return ids, rows[new[np.unique(ids[new], return_index=True)[1]]]


def expand(m: SuccinctMdp, s0: Optional[BitVector] = None) -> ExplicitMdp:
    """Enumerate the states reachable from s0 (closure under all actions)."""
    if s0 is None:
        s0 = m.initial
    em, _ = expand_many(m, [s0])
    return em


def expand_many(
    m: SuccinctMdp, roots: Sequence[BitVector], depth: Optional[int] = None
) -> Tuple[ExplicitMdp, List[int]]:
    """Joint closure of several root states; returns the model plus the index
    of each root. Useful when many instances share one circuit MDP.

    With a `depth`, only the states fewer than `depth` steps from the nearest
    root are stepped: the states of layers 0..depth are found and numbered
    as the full closure numbers them, and the loop stops before stepping
    layer `depth`. Those last states are a suffix of the states with no rows,
    so `_bellman` gives each of them its reward at every step index. A state
    k steps from the nearest root then has exact values at step indices
    0..depth - k, which is all that a horizon-`depth` question at a root
    reads. A model fault, or the state limit, is met only within the layers
    that are stepped or numbered.

    Each layer is stepped whole under every action (`_step_each`), and
    then numbered action-major: the states are numbered, and the state
    limit or a fault is met first, as by one whole-frontier step per action,
    each numbered before the next.

    Raises ValueError for a negative depth, ModelError for a root that is not
    a 0/1 state of the model's width or a fault met in a stepped layer, and
    EnumerationLimitError once the states found, roots included, pass
    `SMDP_LIMIT_STATES`."""
    if depth is not None:
        _check_horizon(depth, "depth")
    if len(roots) == 0:
        raise ModelError("need at least one root state")
    limit = state_limit()
    root_rows = _state_array(roots, m.num_vars, "root")

    index: Dict[int, int] = {}
    fresh: List[np.ndarray] = []

    def number(succ: np.ndarray) -> np.ndarray:
        """The index of each successor row, a new state taking the next one;
        the new states go to `fresh` in discovery order."""
        dst, new = _number_rows(succ, index)
        if len(new):
            if len(index) > limit:
                raise _limit_error("reachable state count", limit + 1, limit)
            fresh.append(new)
        return dst

    root_idx = number(root_rows).tolist()
    found = [fresh[0]]  # the states in index order, one array per layer
    no_rows = np.zeros(0, np.int64)
    no_nums = _no_transitions(m)[2]
    # (src, dst, num) per action; the empty rows stand for an action with none
    layers = [[(no_rows, no_rows, no_nums)] for _ in m.actions]
    base = 0  # the frontier holds the states base .. base + len(frontier) - 1
    k = len(m.actions)
    while len(found[-1]) and (depth is None or len(found) <= depth):
        frontier, fresh = found[-1], []
        parts, faults = _step_each(m, frontier, range(k))
        # action-major, each action's parts in source order: the successors
        # are numbered as one whole-frontier step per action would number them
        faulty = min(faults, default=k)
        for run in _runs([(b, *part) for b in range(faulty) for part in parts[b]], _STEP_ROWS):
            dst = number(np.concatenate([succ for _, _, succ, _ in run]))
            for b, src, succ, nums in run:
                layers[b].append((src + base, dst[: len(succ)], nums))
                dst = dst[len(succ) :]
        if faults:  # the actions before it are numbered: a state limit they pass comes first
            raise ModelError(faults[faulty][1])
        base += len(frontier)
        found.append(np.concatenate(fresh) if fresh else frontier[:0])
    states = np.concatenate(found)
    em = ExplicitMdp(
        state_array=states,
        initial=0,
        actions=tuple(m.actions),
        denominator=m.prob_denominator,
        transitions=tuple(tuple(map(np.concatenate, zip(*rows))) for rows in layers),
        reward_array=_reward_rows(m, states),
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
    return write_manifest(os.path.join(directory, "mdp.manifest"), lines)


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

    Checks each action's step (normalization and, for bounded-action models,
    the enumerator's checks), exhaustively when the state space is small and
    otherwise on 64 random states drawn with seed 0, plus the initial state.
    With at most 2**8 states, a bounded-action model is also stepped without
    its enumerators: the listed successors sum to 1, so the brute-force step
    sums to more than 1 exactly when the enumerator misses a
    positive-probability successor.
    """
    import random

    n = m.num_vars
    if (1 << n) <= 4096:
        states = ct.all_input_rows(n)
    else:
        rng = random.Random(0)
        drawn = [[rng.randrange(2) for _ in range(n)] for _ in range(64)]
        states = np.array(drawn + [list(m.initial)], dtype=bool)
    models = [m]
    if m.successor_circuits and (1 << n) <= 256:
        models.append(replace(m, successor_circuits=(), max_branching=0))
    report: List[str] = []
    for a, name in enumerate(m.actions):
        try:
            for model in models:
                _step(model, states, a)
        except ModelError as exc:
            report.append(f"action {name}: {exc}")
    return report
