"""Exact and Monte-Carlo expected undiscounted reward over a finite horizon.

The exact evaluator accumulates ``r(s0)`` plus, for every depth d in 1..T,
the probability-weighted reward of each depth-d state. Probabilities are
integer numerators over D**d, D the model's denominator, built from the
checked rows of `mdp._step`; a `Fraction` is made only for the values
returned. One layer-at-a-time pass serves every policy kind, with one
`decide_batch` call per layer. No reward feeds a step, so the rewards are
read after the layers are built: one `mdp._reward_rows` call on the states
of every held layer, made once the held layers reach `mdp._STEP_ROWS` rows
and once at the end. For a stationary or timed policy its frontier
is the state marginals: a bool state array in MSB-first order, where equal
successors are merged by sorting their unsigned keys. For a history policy,
and to enumerate trajectories, each frontier row holds the states of one
trajectory so far; the rows are never merged and stay in depth-first order,
and a history policy decides a whole layer with one batched circuit call.

The Monte-Carlo sampler exists only as a statistical cross-check. It steps
the samples of a block together, depth by depth: each depth makes one batched
call per kind of work, for the policy's actions on the distinct states of the
depth and for successor rows on the (state, action) pairs not met before in
the run. The block's rewards are read after its walk, in one call on the
states not met before. Each successor is drawn exactly from its
integer numerators, with the draws of a sample-by-sample walk, so the
estimate for a seed does not depend on the batching.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from . import mdp as md
from .bits import BitVector, row_tuples, unsigned_rows
from .policy import _check_policy_width

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


def _forward(
    m: md.SuccinctMdp, policy, horizon: int, histories: bool
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The layer-at-a-time integer pass: for each depth d = 0..horizon, the
    frontier rows, each row's numerator over D**d and each row's path count.

    A row is a state, or with `histories` the states 0..d of one trajectory
    as (d+1)·n bool columns; the successor step and the policy (unless it is
    a history policy) read the last n columns. Equal state rows are merged by
    their unsigned keys, so the frontier is in MSB-first order. History rows
    are never equal, since a step lists each successor of a row once; they are
    kept in source order, which is depth-first leaf order. Each numerator is
    at most D**d, each path count at most D**d (a positive numerator is at
    least 1) and each reward at most 2**(w-1) in size, w the reward width, so
    they are int64 while 2**(w-1)·D**horizon < 2**63 and exact Python ints
    otherwise."""
    n = m.num_vars
    D = m.prob_denominator
    dtype = np.int64 if (1 << (m.reward_width - 1)) * D**horizon < 1 << 63 else object
    frontier = np.array([m.initial], dtype=bool)
    num = np.ones(1, dtype=dtype)
    paths = np.ones(1, dtype=dtype)
    limit = md.state_limit()
    visited = 1
    reads_history = policy.kind == "history"
    yield frontier, num, paths
    for d in range(1, horizon + 1):
        states = frontier[:, frontier.shape[1] - n :]
        acts = policy.decide_batch(frontier if reads_history else states, d - 1, horizon - d + 1)
        src, succ, nums = md._step(m, states, acts)
        weights = num[src] * nums.astype(dtype)
        if histories:
            visited += len(src)
            if visited > limit:
                raise md._limit_error("history count", limit + 1, limit)
            frontier = np.concatenate([frontier[src], succ], axis=1)
            num = weights
            paths = paths[src]
        else:
            # sort-based duplicate detection: unsigned keys sort as the bit tuples do
            _, first, inverse = np.unique(
                unsigned_rows(succ), return_index=True, return_inverse=True
            )
            if len(first) > limit:
                raise md._limit_error(f"trajectory frontier at depth {d}", len(first), limit)
            frontier = succ[first]
            num = np.zeros(len(first), dtype=dtype)
            np.add.at(num, inverse, weights)
            reached = np.zeros(len(first), dtype=dtype)
            np.add.at(reached, inverse, paths[src])
            paths = reached
        yield frontier, num, paths


def enumerate_trajectories(m: md.SuccinctMdp, policy, depth: int) -> Iterator[Trajectory]:
    """All positive-probability trajectories of exactly `depth` steps, depth
    first with successors in `md.successors` order. They are all computed
    before the first is yielded."""
    md._check_horizon(depth, "depth")
    _check_policy_width(policy, m.num_vars)
    for rows, num, _ in _forward(m, policy, depth, histories=True):
        pass  # only the last layer holds whole trajectories
    n = m.num_vars
    scale = m.prob_denominator**depth
    for bits, p in zip(row_tuples(rows), num.tolist()):
        states = tuple(bits[k * n : (k + 1) * n] for k in range(depth + 1))
        yield Trajectory(states, Fraction(p, scale))


def expected_reward_exact(m: md.SuccinctMdp, policy, horizon: int) -> RewardReport:
    """The expected reward of a policy of any kind, with the reward and the
    probability mass of each depth."""
    md._check_horizon(horizon)
    _check_policy_width(policy, m.num_vars)
    n = m.num_vars
    D = m.prob_denominator
    per_depth, masses = [], []
    held = []  # the states and numerators of the layers whose rewards are unread
    held_rows = 0

    def read_rewards():
        rewards = md._reward_rows(m, np.concatenate([states for states, _ in held]))
        lo = 0
        for _, num in held:
            r = rewards[lo : lo + len(num)].astype(num.dtype)
            per_depth.append(Fraction(int((num * r).sum()), D ** len(per_depth)))
            lo += len(num)
        held.clear()

    for d, (rows, num, paths) in enumerate(
        _forward(m, policy, horizon, histories=policy.kind == "history")
    ):
        # a copy of a history row's last n columns, so the row is not kept
        held.append((np.ascontiguousarray(rows[:, rows.shape[1] - n :]), num))
        masses.append(Fraction(int(num.sum()), D**d))
        held_rows += len(num)
        if held_rows >= md._STEP_ROWS:
            read_rewards()
            held_rows = 0
    if held:
        read_rewards()
    return RewardReport(
        expected_reward=sum(per_depth, Fraction(0)),
        per_depth=tuple(per_depth),
        per_depth_mass=tuple(masses),
        trajectory_count=int(paths.sum()),
    )


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
    md._check_horizon(horizon)
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_policy_width(policy, m.num_vars)
    rng = random.Random(seed)
    walk = _LockstepWalk(m, policy, horizon)
    total = 0
    total_sq = 0
    for start in range(0, samples, _MC_BLOCK):
        block = min(_MC_BLOCK, samples - start)
        draws = [rng.randrange(m.prob_denominator) for _ in range(block * horizon)]
        cur = [0] * block  # the state id of each sample of the block; 0 is the initial state
        # the states 0..d of each sample as one bool row, for a history policy
        history = walk.rows[cur] if policy.kind == "history" else None
        visits = [cur]  # the state ids of the block at each depth 0..d
        for d in range(horizon):
            pairs = list(zip(cur, walk.actions(cur, history, d)))
            walk.fill_successors(pairs)
            steps = [walk.succ[p] for p in pairs]
            # the draw of sample k at step d is draws[k * horizon + d]
            cur = [nxt[bisect_right(cum, u)] for (nxt, cum), u in zip(steps, draws[d::horizon])]
            visits.append(cur)
            if history is not None:
                history = np.concatenate([history, walk.rows[cur]], axis=1)
        walk.fill_rewards(chain.from_iterable(visits))
        reward = walk.rewards.__getitem__
        returns = [sum(map(reward, path)) for path in zip(*visits)]
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
    """The caches of one Monte-Carlo run, keyed by integer state ids that
    `md._number_rows` gives in first-seen order, the initial state being 0:
    the bool row of each met state (`rows`, sliced by id), the reward of each
    visited state, a stationary policy's action at each decided state, and
    the successor ids and cumulative numerators over D of each stepped
    (state, action) pair. Each cache is filled by one batched call per kind
    of work, on the keys seen for the first time: actions and successors
    once per depth, rewards once per block on the states of all its depths.
    So the stepped pairs and the rewarded states are those a sample-by-sample
    walk computes."""

    def __init__(self, m: md.SuccinctMdp, policy, horizon: int):
        self.m = m
        self.policy = policy
        self.horizon = horizon
        self.index: Dict[int, int] = {}  # state id per `unsigned_rows` key
        self.rows = md._number_rows(np.array([m.initial], dtype=bool), self.index)[1]
        self.rewards: Dict[int, int] = {}
        self.succ: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}
        self.decided: Dict[int, int] = {}  # a stationary policy's action per state id

    def actions(self, cur: List[int], history, d: int) -> List[int]:
        """The action of each sample at depth d; `history` holds each
        sample's states 0..d as one bool row for a history policy. Otherwise
        a stationary policy decides each state once per run, and a timed one
        each distinct state of the depth once."""
        steps = self.horizon - d
        if history is not None:
            return self.policy.decide_batch(history, d, steps)
        decided = self.decided if self.policy.kind == "stationary" else {}
        todo = [i for i in dict.fromkeys(cur) if i not in decided]
        if todo:
            decided.update(zip(todo, self.policy.decide_batch(self.rows[todo], d, steps)))
        return [decided[i] for i in cur]

    def fill_successors(self, pairs: List[Tuple[int, int]]) -> None:
        """Step the (state id, action) pairs not yet cached, in first-seen
        order, with one `md._step` call."""
        todo = [p for p in dict.fromkeys(pairs) if p not in self.succ]
        if not todo:
            return
        src, succ, nums = md._step(
            self.m, self.rows[[i for i, _ in todo]], [a for _, a in todo]
        )
        dst, new = md._number_rows(succ, self.index)
        self.rows = np.concatenate([self.rows, new])
        dst, nums = dst.tolist(), nums.tolist()
        ends = np.cumsum(np.bincount(src, minlength=len(todo))).tolist()
        for p, lo, hi in zip(todo, [0] + ends, ends):
            self.succ[p] = (dst[lo:hi], list(accumulate(nums[lo:hi])))

    def fill_rewards(self, ids: Iterable[int]) -> None:
        new = [i for i in dict.fromkeys(ids) if i not in self.rewards]
        if new:
            self.rewards.update(zip(new, md.reward_batch(self.m, self.rows[new])))
