"""Exact and Monte-Carlo expected undiscounted reward over a finite horizon.

The exact evaluator accumulates ``r(s0)`` plus, for every depth d in 1..T,
the probability-weighted reward of each depth-d state. Probabilities are
integer numerators over D**d, D the model's denominator, built from the
checked rows of `mdp._step`; a `Fraction` is made only for the values
returned. A stationary or timed policy is evaluated on the state marginals,
one layer at a time: the frontier is a bool state array in MSB-first order,
and equal successors are merged by sorting their unsigned keys. A history
policy walks the trajectory tree depth first.

The Monte-Carlo sampler exists only as a statistical cross-check. It steps
the samples of a block together, depth by depth: each depth makes one batched
circuit call per kind of work (policy actions, successor rows, rewards) on
the states and (state, action) pairs not met before in the run. Each
successor is drawn exactly from its integer numerators, with the draws of a
sample-by-sample walk, so the estimate for a seed does not depend on the
batching.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import mdp as md
from .bits import BitVector, row_tuples
from .policy import HistoryPolicy, PolicyError, StationaryPolicy

_MC_BLOCK = 4096  # samples stepped together; their draws are held in one list


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


def _check_policy_width(m: md.SuccinctMdp, policy) -> None:
    """A circuit policy must read as many state bits as the model has."""
    if isinstance(policy, (StationaryPolicy, HistoryPolicy)) and policy.num_vars != m.num_vars:
        raise PolicyError(
            f"policy reads {policy.num_vars} state bits, the model has {m.num_vars}"
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


def enumerate_trajectories(m: md.SuccinctMdp, policy, depth: int) -> Iterator[Trajectory]:
    """All positive-probability trajectories of exactly `depth` steps, depth
    first with successors in `md.successors` order."""
    _check_policy_width(m, policy)
    scale = m.prob_denominator**depth
    stack = [((tuple(m.initial),), 1)]  # (history, numerator over D**(len(history) - 1))
    while stack:
        history, num = stack.pop()
        if len(history) == depth + 1:
            yield Trajectory(history, Fraction(num, scale))
            continue
        a = _decide_at(policy, history[-1], history, len(history) - 1, depth)
        stack.extend(
            (history + (s2,), num * p) for s2, p in reversed(_successors(m, history[-1], a))
        )


def expected_reward_exact(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    _check_policy_width(m, policy)
    if policy.kind == "history":
        return _exact_history(m, policy, horizon)
    return _exact_marginal(m, policy, horizon)


def _report(m: md.SuccinctMdp, per_depth, masses, trajectories: int) -> RewardReport:
    """The report of integer sums per depth d, each over D**d."""
    D = m.prob_denominator
    per_depth = tuple(Fraction(int(v), D**d) for d, v in enumerate(per_depth))
    return RewardReport(
        expected_reward=sum(per_depth, Fraction(0)),
        per_depth=per_depth,
        per_depth_mass=tuple(Fraction(int(v), D**d) for d, v in enumerate(masses)),
        trajectory_count=int(trajectories),
    )


def _exact_marginal(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    """Layer-at-a-time pass over the state marginals. The depth-d frontier is
    a bool state array in MSB-first order; each state carries its numerator
    over D**d and the number of trajectories that reach it. Each numerator is
    at most D**d and each reward at most 2**(w-1) in size, w the reward width,
    so the numerators, path counts and reward sums are int64 while
    2**(w-1)·D**horizon < 2**63 and exact Python ints otherwise."""
    D = m.prob_denominator
    dtype = np.int64 if (1 << (m.reward_width - 1)) * D**horizon < 1 << 63 else object
    frontier = np.array([m.initial], dtype=bool)
    num = np.ones(1, dtype=dtype)
    paths = np.ones(1, dtype=dtype)
    per_depth = [md.reward_batch(m, frontier)[0]]
    masses = [1]
    limit = md.state_limit()
    for d in range(1, horizon + 1):
        if policy.kind == "timed":
            steps = horizon - (d - 1)
            acts = np.array([policy.decide_timed(s, steps) for s in row_tuples(frontier)])
        else:
            acts = np.array(policy.decide_batch(frontier))
        _, first = np.unique(acts, return_index=True)
        src_parts, succ_parts, num_parts = [], [], []
        for a in acts[np.sort(first)].tolist():  # actions in order of first use
            rows = np.flatnonzero(acts == a)
            src, succ, nums = md._step(m, frontier[rows], a)
            src_parts.append(rows[src])
            succ_parts.append(succ)
            num_parts.append(nums)
        src = np.concatenate(src_parts)
        succ = np.concatenate(succ_parts)
        weights = num[src] * np.concatenate(num_parts).astype(dtype)
        # sort-based duplicate detection: unsigned keys sort as the bit tuples do
        _, first, inverse = np.unique(
            md._unsigned_rows(succ), return_index=True, return_inverse=True
        )
        if len(first) > limit:
            raise md._limit_error(f"trajectory frontier at depth {d}", len(first), limit)
        frontier = succ[first]
        num = np.zeros(len(first), dtype=dtype)
        np.add.at(num, inverse, weights)
        reached = np.zeros(len(first), dtype=dtype)
        np.add.at(reached, inverse, paths[src])
        paths = reached
        rewards = np.array(md.reward_batch(m, frontier), dtype=dtype)
        per_depth.append((num * rewards).sum())
        masses.append(num.sum())
    return _report(m, per_depth, masses, paths.sum())


def _exact_history(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    """Depth-first walk of the trajectory tree; a depth-d history carries its
    numerator over D**d."""
    per_depth = [0] * (horizon + 1)
    masses = [0] * (horizon + 1)
    leaves = 0
    limit = md.state_limit()
    visited = 0
    stack = [((tuple(m.initial),), 1)]  # depth first, successors in order
    while stack:
        history, num = stack.pop()
        visited += 1
        if visited > limit:
            raise md._limit_error("history count", visited, limit)
        depth = len(history) - 1
        per_depth[depth] += num * md.reward(m, history[-1])
        masses[depth] += num
        if depth == horizon:
            leaves += 1
            continue
        a = policy.decide_history(history, depth)
        stack.extend(
            (history + (s2,), num * p) for s2, p in reversed(_successors(m, history[-1], a))
        )
    return _report(m, per_depth, masses, leaves)


@dataclass(frozen=True)
class McEstimate:
    mean: Fraction  # returns are integers, so the sample mean is exact
    stderr: float
    samples: int


def expected_reward_mc(
    m: md.SuccinctMdp, policy, horizon: int, samples: int, seed: int
) -> McEstimate:
    """Plain Monte-Carlo estimate; deterministic for a fixed seed.

    The samples of a block step through the horizon together. The draws are
    those of a sample-by-sample walk, one ``randrange(D)`` per (sample, step)
    in sample-major order, so the estimate does not depend on the block size.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_policy_width(m, policy)
    rng = random.Random(seed)
    walk = _LockstepWalk(m, policy, horizon)
    s0_bits = tuple(m.initial)
    s0 = walk.id_of(s0_bits)
    walk.fill_rewards([s0])
    total = 0
    total_sq = 0
    for start in range(0, samples, _MC_BLOCK):
        block = min(_MC_BLOCK, samples - start)
        draws = [rng.randrange(m.prob_denominator) for _ in range(block * horizon)]
        cur = [s0] * block  # the state id of each sample of the block
        history = [[s0_bits] for _ in range(block)] if policy.kind == "history" else None
        returns = [walk.rewards[s0]] * block
        for d in range(horizon):
            pairs = list(zip(cur, walk.actions(cur, history, d)))
            walk.fill_successors(pairs)
            steps = [walk.succ[p] for p in pairs]
            # the draw of sample k at step d is draws[k * horizon + d]
            cur = [nxt[bisect_right(cum, u)] for (nxt, cum), u in zip(steps, draws[d::horizon])]
            walk.fill_rewards(cur)
            returns = [r + walk.rewards[i] for r, i in zip(returns, cur)]
            if history is not None:
                for h, i in zip(history, cur):
                    h.append(walk.states[i])
        total += sum(returns)
        total_sq += sum(r * r for r in returns)
    mean = Fraction(total, samples)
    if samples > 1:
        var = (total_sq - samples * float(mean) ** 2) / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = float("inf")
    return McEstimate(mean=mean, stderr=stderr, samples=samples)


class _LockstepWalk:
    """The caches of one Monte-Carlo run, keyed by integer state ids: the
    reward of each visited state, the action of each state a stationary
    policy decided, and the successor ids and cumulative numerators over D of
    each stepped (state, action) pair. Each cache is filled by one batched
    call per kind of work, on the keys seen for the first time, so the
    stepped pairs and the rewarded states are those a sample-by-sample walk
    computes."""

    def __init__(self, m: md.SuccinctMdp, policy, horizon: int):
        self.m = m
        self.policy = policy
        self.horizon = horizon
        self.ids: Dict[BitVector, int] = {}
        self.states: List[BitVector] = []
        self.rewards: Dict[int, int] = {}
        self.decided: Dict[int, int] = {}
        self.succ: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def id_of(self, s: BitVector) -> int:
        i = self.ids.get(s)
        if i is None:
            i = self.ids[s] = len(self.states)
            self.states.append(s)
        return i

    def actions(self, cur: List[int], history, d: int) -> List[int]:
        """The action of each sample at depth d; `history` holds each
        sample's states for a history policy."""
        policy = self.policy
        if history is not None:
            return [policy.decide_history(h, d) for h in history]
        if policy.kind == "timed":
            steps = self.horizon - d
            decided = {i: policy.decide_timed(self.states[i], steps) for i in dict.fromkeys(cur)}
        else:
            decided = self.decided
            new = [i for i in dict.fromkeys(cur) if i not in decided]
            if new:
                decided.update(zip(new, policy.decide_batch([self.states[i] for i in new])))
        return [decided[i] for i in cur]

    def fill_successors(self, pairs: List[Tuple[int, int]]) -> None:
        """Step the (state id, action) pairs not yet cached: one `md._step`
        call per action, its sources in first-seen order."""
        by_action: Dict[int, List[int]] = {}
        for i, a in dict.fromkeys(pairs):
            if (i, a) not in self.succ:
                by_action.setdefault(a, []).append(i)
        for a, sources in by_action.items():
            src, succ, nums = md._step(
                self.m, np.array([self.states[i] for i in sources], dtype=bool), a
            )
            dst = [self.id_of(s2) for s2 in row_tuples(succ)]
            nums = nums.tolist()
            ends = np.cumsum(np.bincount(src, minlength=len(sources))).tolist()
            for i, lo, hi in zip(sources, [0] + ends, ends):
                self.succ[(i, a)] = (dst[lo:hi], list(accumulate(nums[lo:hi])))

    def fill_rewards(self, ids: List[int]) -> None:
        new = [i for i in dict.fromkeys(ids) if i not in self.rewards]
        if new:
            self.rewards.update(zip(new, md.reward_batch(self.m, [self.states[i] for i in new])))
