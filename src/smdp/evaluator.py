"""Exact and Monte-Carlo expected undiscounted reward over a finite horizon.

The exact evaluator enumerates the positive-probability trajectory tree of a
policy (collapsed to state marginals for stationary policies) and accumulates
``r(s0)`` plus, for every depth d in 1..T, the probability-weighted reward of
each depth-d state. Everything is exact rational arithmetic; the Monte-Carlo
path exists only as a statistical cross-check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from . import mdp as md
from .bits import BitVector
from .policy import PolicyError


@dataclass(frozen=True)
class Trajectory:
    states: Tuple[BitVector, ...]
    probability: Fraction


@dataclass(frozen=True)
class RewardReport:
    expected_reward: Fraction
    per_depth: Tuple[Fraction, ...]  # contribution of depth d states, d = 0..T
    per_depth_mass: Tuple[Fraction, ...]  # total probability mass at each depth
    trajectory_count: int  # positive-probability trajectories of full length T


def _decide_at(policy, s: BitVector, history, depth: int, horizon: int) -> int:
    if policy.kind == "history":
        return policy.decide_history(history, depth)
    if policy.kind == "timed":
        return policy.decide_timed(s, horizon - depth)
    return policy.decide(s)


def history_probability(m: md.SuccinctMdp, policy, states: Sequence[BitVector]) -> Fraction:
    """Probability that states[0..d] is the realized history under the policy."""
    if policy.kind == "timed":
        raise PolicyError("history probability of a step-indexed table policy is ambiguous")
    prob = Fraction(1)
    history = [tuple(s) for s in states]
    for i in range(len(states) - 1):
        a = _decide_at(policy, history[i], history, i, len(states) - 1)
        prob *= md.transition_prob(m, history[i], history[i + 1], a)
    return prob


def enumerate_trajectories(m: md.SuccinctMdp, policy, depth: int) -> Iterator[Trajectory]:
    """All positive-probability trajectories of exactly `depth` steps, depth
    first with successors in `md.successors` order."""
    stack = [((tuple(m.initial),), Fraction(1))]
    while stack:
        history, prob = stack.pop()
        if len(history) == depth + 1:
            yield Trajectory(history, prob)
            continue
        a = _decide_at(policy, history[-1], history, len(history) - 1, depth)
        stack.extend(
            (history + (s2,), prob * p) for s2, p in reversed(md.successors(m, history[-1], a))
        )


def expected_reward_exact(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if policy.kind == "history":
        return _exact_history(m, policy, horizon)
    return _exact_marginal(m, policy, horizon)


def _exact_marginal(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
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


def _exact_history(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
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


@dataclass(frozen=True)
class McEstimate:
    mean: Fraction  # returns are integers, so the sample mean is exact
    stderr: float
    samples: int


def expected_reward_mc(
    m: md.SuccinctMdp, policy, horizon: int, samples: int, seed: int
) -> McEstimate:
    """Plain Monte-Carlo estimate; deterministic for a fixed seed."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    s0 = tuple(m.initial)
    succ_cache: Dict[Tuple[BitVector, int], Tuple[List[BitVector], List[float]]] = {}
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
                pairs = md.successors(m, s, a)
                cum: List[float] = []
                acc = Fraction(0)
                for _, p in pairs:
                    acc += p
                    cum.append(float(acc))
                cached = ([s2 for s2, _ in pairs], cum)
                succ_cache[key] = cached
            nxt, cum = cached
            u = rng.random()
            idx = 0
            while idx < len(cum) - 1 and u > cum[idx]:
                idx += 1
            s = nxt[idx]
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
