"""Shared test helpers, the per-state `Fraction` references that the
integer code paths are compared against, and the sample-by-sample
Monte-Carlo walk that the lockstep sampler is compared against."""

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Tuple

import numpy as np

from smdp import circuit as ct
from smdp import mdp as md
from smdp.bits import BitVector, bits_to_int, int_to_bits, row_tuples
from smdp.evaluator import McEstimate, RewardReport
from smdp.policy import PolicyError


def transition_pairs(em, k, a):
    """(successor index, probability) pairs of state k under action a of an
    explicit MDP, read from its integer rows."""
    src, dst, num = em.transitions[a]
    return [
        (int(j), Fraction(int(p), em.denominator))
        for j, p in zip(dst[src == k].tolist(), num[src == k].tolist())
    ]


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
