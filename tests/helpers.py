"""Shared test helpers, the per-state `Fraction` references that the
integer code paths are compared against (the scalar policy extraction from
a value function among them), the sample-by-sample Monte-Carlo walk that
the lockstep sampler is compared against, the truth-table policy search
that the bounded-size search is compared against, the instruction-level
merge that the successor program built through `CircuitBuilder` is compared
against, the assignment-by-assignment SAT-family oracles that the truth-column
oracles are compared against, and the quadratic-size append condition,
majsat reward and double-mux enumerators that the linear-size sequence
circuits are compared against."""

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from smdp import circuit as ct
from smdp import mdp as md
from smdp import oracle
from smdp.bits import BitVector, bits_to_int, int_to_bits, row_tuples, unsigned_rows, width_for_count
from smdp.evaluator import McEstimate, RewardReport
from smdp.policy import ExplicitPolicy, PolicyError, StationaryPolicy
from smdp.valuefn import InconsistentValueError, ValueCircuit, ValueFunctionError


def shared_program_reference(circuits) -> ct.Program:
    """`ct.shared_program` as a merge of compiled instructions: an
    instruction is kept once per (opcode, operand slots) after its operands
    are mapped to the merged slots, the operands of AND, OR and XOR sorted.
    It folds nothing, so a circuit without constants, repeated operands or
    double negations merges to the same instructions as through the builder."""
    num_inputs = circuits[0].num_inputs if circuits else 0
    ops, a_slots, b_slots = columns = ([], [], [])
    slot_of: Dict[Tuple[int, int, int], int] = {}
    outputs: List[int] = []
    for c in circuits:
        assert c.num_inputs == num_inputs
        where = list(range(num_inputs))  # the circuit's slots, merged
        for op, a, b in zip(*c._program):
            if op >= ct._CONST0:
                key = (op, 0, 0)
            elif op == ct._NOT:
                key = (op, where[a], 0)
            else:
                a, b = where[a], where[b]
                key = (op, a, b) if a <= b else (op, b, a)
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = num_inputs + len(ops)
                for column, value in zip(columns, key):
                    column.append(value)
            where.append(slot)
        outputs.extend(where[k] for k in c._output_slots)
    return ct.Program(num_inputs, (tuple(ops), tuple(a_slots), tuple(b_slots)), tuple(outputs))


def constant_circuit(num_inputs: int, num_outputs: int) -> ct.Circuit:
    """A circuit of the given shape whose every output is 0."""
    b = ct.CircuitBuilder(num_inputs)
    return b.build([b.const(0)] * num_outputs)


def transition_pairs(em, k, a):
    """(successor index, probability) pairs of state k under action a of an
    explicit MDP, read from its integer rows."""
    src, dst, num = em.transitions[a]
    return [
        (int(j), Fraction(int(p), em.denominator))
        for j, p in zip(dst[src == k].tolist(), num[src == k].tolist())
    ]


def closure_depths(em, roots) -> np.ndarray:
    """The fewest steps from a root to each state of a full closure, by a
    breadth-first search over its integer rows."""
    depth = np.full(len(em.states), -1)
    frontier = np.unique(roots)
    depth[frontier] = 0
    d = 0
    while len(frontier):
        d += 1
        reached = np.concatenate([dst[np.isin(src, frontier)] for src, dst, _ in em.transitions])
        frontier = np.unique(reached[depth[reached] < 0])
        depth[frontier] = d
    return depth


def transition_prob(m: md.SuccinctMdp, s: BitVector, s2: BitVector, a: int) -> Fraction:
    """Exact probability of reaching s2 from s under action index a, read
    pointwise from the transition circuit."""
    if not 0 <= a < len(m.actions):
        raise md.ModelError(f"action index {a} out of range")
    bits = tuple(s) + tuple(s2) + int_to_bits(a, m.action_width)
    num = bits_to_int(ct.eval(m.t_circuit, bits))
    if num > m.prob_denominator:
        raise md.ModelError(
            f"transition numerator {num} exceeds denominator {m.prob_denominator}"
        )
    return Fraction(num, m.prob_denominator)


def step_reference(m: md.SuccinctMdp, states_arr: np.ndarray, a: int):
    """`md._step` on bool arrays: the successor circuit on every
    (source, slot) row in source-major order, or every (source, state) row
    for a model without one, then the transition circuit on the valid rows.
    Same rows, same order, same errors in the same order."""
    if not 0 <= a < len(m.actions):
        raise md.ModelError(f"action index {a} out of range")
    n_src = len(states_arr)
    D = m.prob_denominator
    if m.successor_circuits:
        B = m.max_branching
        slots = ct.all_input_rows(m.slot_width)[:B]
        out = ct.eval_batch(
            m.successor_circuits[a],
            np.concatenate(
                [np.repeat(states_arr, B, axis=0), np.tile(slots, (n_src, 1))], axis=1
            ),
        )
        # packed rows keep the valid bit, so two equal rows are both valid or
        # both not; compare each slot with the later slots of the same source
        packed = np.packbits(out.reshape(n_src, B, 1 + m.num_vars), axis=2)
        for i in range(B - 1):
            same = (packed[:, i + 1 :] == packed[:, i : i + 1]).all(axis=2)
            if (same & out[i::B, :1]).any():
                raise md.ModelError(f"duplicate successor slot in enumerator for {m.actions[a]}")
        keep = np.flatnonzero(out[:, 0])
        src, succ = keep // B, out[keep, 1:]
    else:
        n = m.num_vars
        limit = md.state_limit()
        if (1 << n) > limit:
            raise md._limit_error(f"successor candidates (2^{n})", 1 << n, limit)
        all_rows = ct.all_input_rows(n)
        src = np.repeat(np.arange(n_src, dtype=np.int64), len(all_rows))
        succ = np.tile(all_rows, (n_src, 1))
    a_bits = np.array(int_to_bits(a, m.action_width), dtype=bool)
    t_rows = np.concatenate(
        [states_arr[src], succ, np.repeat(a_bits[None], len(src), axis=0)], axis=1
    )
    nums = unsigned_rows(ct.eval_batch(m.t_circuit, t_rows))
    over = nums > D
    if over.any():
        raise md.ModelError(f"transition numerator {int(nums[over][0])} exceeds denominator {D}")
    positive = nums > 0
    if not positive.all():
        if m.successor_circuits:
            raise md.ModelError(
                f"successor enumerator for {m.actions[a]} lists a zero-probability state"
            )
        src, succ, nums = src[positive], succ[positive], nums[positive]
    totals = np.zeros(n_src, dtype=np.int64 if D * len(src) < 1 << 63 else object)
    np.add.at(totals, src, nums.astype(totals.dtype))
    if (totals != D).any():
        k = int(np.flatnonzero(totals != D)[0])
        raise md.ModelError(
            f"probabilities from state {tuple(states_arr[k].astype(int).tolist())} under "
            f"{m.actions[a]} sum to {int(totals[k])}/{D}, not 1"
        )
    return src, succ, nums


def history_probability(m: md.SuccinctMdp, policy, states) -> Fraction:
    """Probability that states[0..d] is the realized history under the policy."""
    if policy.kind == "timed":
        raise PolicyError("history probability of a step-indexed table policy is ambiguous")
    prob = Fraction(1)
    history = [tuple(s) for s in states]
    for i in range(len(states) - 1):
        if policy.kind == "history":
            a = policy.decide_history(history, i)
        else:
            a = policy.decide(history[i])
        prob *= transition_prob(m, history[i], history[i + 1], a)
    return prob


def expected_reward_reference(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    """`expected_reward_exact` as per-state `Fraction` loops over
    `md.successors_batch` and `md.successors`."""
    if policy.kind == "history":
        return _history_reference(m, policy, horizon)
    return _marginal_reference(m, policy, horizon)


def _marginal_reference(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    s0 = tuple(m.initial)
    rewards: Dict[BitVector, int] = {}

    def fill_rewards(states: List[BitVector]):
        missing = [s for s in states if s not in rewards]
        for s, r in zip(missing, md.reward_batch(m, missing)):
            rewards[s] = r

    fill_rewards([s0])
    dist: Dict[BitVector, Fraction] = {s0: Fraction(1)}
    paths: Dict[BitVector, int] = {s0: 1}
    per_depth = [Fraction(rewards[s0])]
    masses = [Fraction(1)]
    limit = md.state_limit()
    for d in range(1, horizon + 1):
        states = sorted(dist)
        if policy.kind == "timed":
            actions = [policy.decide_timed(s, horizon - (d - 1)) for s in states]
        else:
            actions = policy.decide_batch(states)
        by_action: Dict[int, List[BitVector]] = {}
        for s, a in zip(states, actions):
            by_action.setdefault(a, []).append(s)
        new_dist: Dict[BitVector, Fraction] = {}
        new_paths: Dict[BitVector, int] = {}
        for a, group in by_action.items():
            for s, succ in zip(group, md.successors_batch(m, group, a)):
                for s2, p in succ:
                    new_dist[s2] = new_dist.get(s2, Fraction(0)) + dist[s] * p
                    new_paths[s2] = new_paths.get(s2, 0) + paths[s]
        if len(new_dist) > limit:
            raise md._limit_error(f"trajectory frontier at depth {d}", len(new_dist), limit)
        dist, paths = new_dist, new_paths
        fill_rewards(sorted(dist))
        per_depth.append(sum((pr * rewards[s] for s, pr in dist.items()), Fraction(0)))
        masses.append(sum(dist.values(), Fraction(0)))
    return RewardReport(
        expected_reward=sum(per_depth, Fraction(0)),
        per_depth=tuple(per_depth),
        per_depth_mass=tuple(masses),
        trajectory_count=sum(paths.values()),
    )


def _history_reference(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    per_depth = [Fraction(0)] * (horizon + 1)
    masses = [Fraction(0)] * (horizon + 1)
    leaves = 0
    limit = md.state_limit()
    visited = 0
    stack = [((tuple(m.initial),), Fraction(1))]  # depth first, successors in order
    while stack:
        history, prob = stack.pop()
        visited += 1
        if visited > limit:
            raise md._limit_error("history count", visited, limit)
        depth = len(history) - 1
        per_depth[depth] += prob * md.reward(m, history[-1])
        masses[depth] += prob
        if depth == horizon:
            leaves += 1
            continue
        a = policy.decide_history(history, depth)
        stack.extend(
            (history + (s2,), prob * p) for s2, p in reversed(md.successors(m, history[-1], a))
        )
    return RewardReport(
        expected_reward=sum(per_depth, Fraction(0)),
        per_depth=tuple(per_depth),
        per_depth_mass=tuple(masses),
        trajectory_count=leaves,
    )


def _decide_at(policy, s: BitVector, history, depth: int, horizon: int) -> int:
    if policy.kind == "history":
        return policy.decide_history(history, depth)
    if policy.kind == "timed":
        return policy.decide_timed(s, horizon - depth)
    return policy.decide(s)


def _successors(m: md.SuccinctMdp, s: BitVector, a: int) -> List[Tuple[BitVector, int]]:
    """The checked successors of one state under action a, each with its
    numerator over D, in `md._step` order (the order of `md.successors`)."""
    _, succ, nums = md._step(m, np.array([s], dtype=bool), a)
    return list(zip(row_tuples(succ), nums.tolist()))


def expected_reward_mc_reference(
    m: md.SuccinctMdp, policy, horizon: int, samples: int, seed: int
) -> McEstimate:
    """`expected_reward_mc` as a sample-by-sample walk: one scalar policy
    decision per step, one `randrange(D)` per step, and one one-row step per
    (state, action) pair not met before."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    s0 = tuple(m.initial)
    D = m.prob_denominator
    # (state, action) -> (successors, cumulative numerators over D)
    succ_cache: Dict[Tuple[BitVector, int], Tuple[List[BitVector], List[int]]] = {}
    reward_cache: Dict[BitVector, int] = {}

    def r_of(s: BitVector) -> int:
        v = reward_cache.get(s)
        if v is None:
            v = md.reward(m, s)
            reward_cache[s] = v
        return v

    total = 0
    total_sq = 0
    for _ in range(samples):
        s = s0
        history = [s0]
        ret = r_of(s0)
        for depth in range(horizon):
            a = _decide_at(policy, s, history, depth, horizon)
            key = (s, a)
            cached = succ_cache.get(key)
            if cached is None:
                pairs = _successors(m, s, a)
                cached = ([s2 for s2, _ in pairs], list(accumulate(p for _, p in pairs)))
                succ_cache[key] = cached
            nxt, cum = cached
            s = nxt[bisect_right(cum, rng.randrange(D))]
            history.append(s)
            ret += r_of(s)
        total += ret
        total_sq += ret * ret
    mean = Fraction(total, samples)
    if samples > 1:
        var = (total_sq - samples * float(mean) ** 2) / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = float("inf")
    return McEstimate(mean=mean, stderr=stderr, samples=samples)


def enumerate_candidate_circuits_reference(
    num_inputs: int, out_width: int, max_gates: int
) -> Iterator[ct.Circuit]:
    """Every circuit of at most max_gates gates over the oracle's basis, in
    the order `oracle._enumerate_candidate_circuits` must keep."""
    kinds2 = ("AND", "OR", "XOR")

    def gate_choices(num_prior: int):
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(num_prior)]
        for kind in kinds2:
            for a, b in itertools.combinations(refs, 2):
                yield (kind, (a, b))
        for a in refs:
            yield ("NOT", (a,))
        yield ("CONST0", ())
        yield ("CONST1", ())

    def rec(gates: List[ct.Gate]):
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(len(gates))]
        for outs in itertools.product(refs, repeat=out_width):
            yield ct.Circuit(num_inputs, tuple(gates), outs, name="cand")
        if len(gates) < max_gates:
            for kind, args in gate_choices(len(gates)):
                yield from rec(gates + [ct.Gate(len(gates), kind, args)])

    if num_inputs == 0 and max_gates == 0:
        return
    yield from rec([])


def bounded_policy_exists_reference(
    m: md.SuccinctMdp, horizon: int, size_bound: int, reward_bound: Fraction
) -> Tuple[bool, Optional[object]]:
    """`oracle.bounded_policy_exists` built from whole objects: the vacuous
    regime reads each state's optimal actions from `q(i)` state by state, and
    the micro regime dedupes candidates on their 2**n-row truth tables and
    values each `StationaryPolicy` with `expected_reward_reference`, which
    asks it only at the states that it reaches below the horizon; a
    candidate asked for an out-of-range action there is skipped. Same
    verdicts, witnesses and refusal texts."""
    md._check_horizon(horizon)
    if size_bound < 0:
        raise ValueError(f"size bound must be nonnegative, got {size_bound}")
    n_bits = m.num_vars
    n_actions = len(m.actions)
    if n_bits < 60 and size_bound >= n_actions * (1 << n_bits):
        em = md.expand(m)
        sol = oracle.solve_optimal(em, horizon)
        if sol.exact(sol.levels[horizon][em.initial], horizon) < reward_bound:
            return False, None
        reach = oracle._reachable_depths(em, horizon)
        tied = [None] + [sol.q(i) == sol.levels[i] for i in range(1, horizon + 1)]
        table = {}
        for k, s in enumerate(em.states):
            depths = np.flatnonzero(reach[:, k])
            always = set(range(n_actions)).intersection(
                *(np.flatnonzero(tied[horizon - d][:, k]).tolist() for d in depths)
            )
            if not always:
                raise oracle.OracleScaleError(
                    f"no action at state {s} is optimal at every step index at which the "
                    "state is reachable, so the best stationary policy may miss the optimum; "
                    "the vacuous size bound cannot answer for a stationary policy here"
                )
            table[s] = min(always)
        return True, ExplicitPolicy(table, n_actions)
    if size_bound > oracle.MICRO_GATE_BOUND or n_bits > oracle.MICRO_INPUT_BOUND:
        raise oracle.OracleScaleError(
            f"size bound {size_bound} with {n_bits} state bits is outside the "
            f"micro-enumeration regime (<= {oracle.MICRO_GATE_BOUND} gates, "
            f"<= {oracle.MICRO_INPUT_BOUND} state bits)"
        )
    md.expand(m)  # meets every model fault of the closure, as the search does
    seen_behaviors = set()
    examined = 0
    for cand in enumerate_candidate_circuits_reference(n_bits, m.action_width, size_bound):
        examined += 1
        if examined > oracle.MICRO_CANDIDATE_CAP:
            raise oracle.OracleScaleError(
                f"candidate count exceeds cap {oracle.MICRO_CANDIDATE_CAP}"
            )
        key = ct.truth_table(cand).tobytes()
        if key in seen_behaviors:
            continue
        seen_behaviors.add(key)
        policy = StationaryPolicy(cand, n_actions)
        try:
            report = expected_reward_reference(m, policy, horizon)
        except (md.ModelError, PolicyError):
            continue  # an out-of-range action, or a fault, where the policy is asked
        if report.expected_reward >= reward_bound:
            return True, policy
    return False, None


def extract_policy_reference(m: md.SuccinctMdp, E, horizon: int, s: BitVector, i: int) -> int:
    """The scalar `Fraction` loop `valuefn.extract_policy` replaced: E read
    one value at a time through `E.value`, each action's successors summed
    in turn, and the first action that matches returned before a later one
    is stepped, so a later action's ModelError is not raised."""
    s = tuple(s)
    if isinstance(E, ValueCircuit) and E.num_vars != m.num_vars:
        raise ValueFunctionError(f"value circuit covers {E.num_vars} variables, MDP has {m.num_vars}")
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
    raise InconsistentValueError(f"no action matches E(s,{i}) - r(s) = {target} at state {s}")


def reward_circuit_calls(monkeypatch, m):
    """The rows of each reward-circuit call of `m` made from now on."""
    calls = []
    eval_batch = ct.eval_batch

    def counting(c, inputs):
        if c is m.r_circuit:
            calls.append(len(inputs))
        return eval_batch(c, inputs)

    monkeypatch.setattr(ct, "eval_batch", counting)
    return calls


# ------------------------------------------------- the SAT family, one assignment at a time


def assignments_reference(num_vars: int) -> Iterator[Tuple[bool, ...]]:
    """All assignments, variable 1 the most significant position."""
    for row in range(1 << num_vars):
        yield tuple(bool((row >> (num_vars - 1 - i)) & 1) for i in range(num_vars))


def satisfied_by_reference(cnf, assignment) -> bool:
    """Whether an assignment, indexed by variable - 1, satisfies every clause."""
    return all(any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in cnf.clauses)


def model_count_reference(cnf) -> int:
    return sum(satisfied_by_reference(cnf, a) for a in assignments_reference(cnf.num_vars))


def sat_reference(cnf) -> bool:
    return any(satisfied_by_reference(cnf, a) for a in assignments_reference(cnf.num_vars))


def emajsat_reference(cnf, num_x: int) -> bool:
    num_y = cnf.num_vars - num_x
    return any(
        2 * sum(satisfied_by_reference(cnf, xs + ys) for ys in assignments_reference(num_y)) >= 1 << num_y
        for xs in assignments_reference(num_x)
    )


def forall_exists_reference(cnf, num_x: int) -> bool:
    num_y = cnf.num_vars - num_x
    return any(
        all(satisfied_by_reference(cnf, xs + ys) for ys in assignments_reference(num_y))
        for xs in assignments_reference(num_x)
    )


# ------------------------------------------------- the quadratic sequence circuits


def append_cond_reference(pair, code: int) -> str:
    """`reductions._SeqPair.append_cond` as one OR over the positions k, each
    term testing slot k of the next state for `code` on its own."""
    b = pair.b
    return b.or_all(
        [
            b.and_all(
                [
                    pair.cur.len_eq(k),
                    pair.nxt.len_eq(k + 1),
                    pair.nxt.slot_is(k, code),
                    pair.others_same[k],
                ]
            )
            for k in range(pair.layout.max_length)
        ]
    )


def majsat_reward_reference(layout, cnf) -> ct.Circuit:
    """`reductions._majsat_reward` with a literal test per slot and a
    distinct-variable test per pair of slots."""
    from smdp.reductions import _cnf_sat_wire, _SeqView

    n = cnf.num_vars
    b = ct.CircuitBuilder(layout.state_width)
    v = _SeqView(b, layout, 0)
    conds = [v.len_eq(n)]
    conds += [v.slot_is_literal(j) for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            conds.append(b.not_(b.eq_refs(v.slots[j][:-1], v.slots[k][:-1])))
    var_true = [
        b.or_all([v.slot_is(j, 2 * var) for j in range(n)]) for var in range(1, n + 1)
    ]
    conds.append(_cnf_sat_wire(b, cnf, var_true))
    return b.build(b.select_value([(b.and_all(conds), 1)], 2), "r_majsat")


def append_enumerator_reference(layout, action, codes, branching, guard) -> ct.Circuit:
    """`reductions._append_enumerator` with every slot bit muxed twice:
    ``mux(active, mux(len_eq(j), code, slot), slot)``."""
    from smdp.reductions import _SeqView

    sw = width_for_count(branching)
    b = ct.CircuitBuilder(layout.state_width + sw)
    v = _SeqView(b, layout, 0)
    slot_refs = [b.inp(layout.state_width + i) for i in range(sw)]
    active = guard(v, action)
    hits = [b.eq_const(slot_refs, k) for k in range(len(codes))]
    if len(codes) == 1:
        code = [b.const(bit) for bit in int_to_bits(codes[0], layout.element_width)]
    else:
        code = b.select_value(list(zip(hits, codes)), layout.element_width)
    listed = b.const(1) if len(codes) == branching else b.or_all(hits)
    appended = b.select_value(
        [(v.len_eq(k), k + 1) for k in range(layout.max_length)], layout.count_width
    )
    for j in range(layout.max_length):
        appended.extend(b.mux_refs(v.len_eq(j), code, v.slots[j]))
    valid = b.mux(active, listed, hits[0])
    state_out = b.mux_refs(active, appended, v.q + [bit for slot in v.slots for bit in slot])
    return b.build([valid] + state_out, f"succ_{action}")


def use_quadratic_sequence_circuits(monkeypatch) -> None:
    """Make the reductions build from now on with the reference append
    condition, majsat reward and double-mux enumerators above."""
    from smdp import reductions

    monkeypatch.setattr(reductions._SeqPair, "append_cond", append_cond_reference)
    monkeypatch.setattr(reductions, "_majsat_reward", majsat_reward_reference)
    monkeypatch.setattr(reductions, "_append_enumerator", append_enumerator_reference)
