"""Brute-force ground truth: finite-horizon backward induction, the
next-action decision, bounded-size policy existence at micro scale, and
exhaustive SAT-family oracles.

Nothing here is clever on purpose; every answer comes from exhaustive
enumeration with exact arithmetic, so these routines can arbitrate the
circuit-backed implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import circuit as ct
from . import mdp as md
from .bits import BitVector, column_words
from .cnf import Cnf
from .evaluator import expected_reward_exact
from .policy import ExplicitPolicy, PolicyError, StationaryPolicy, TimedExplicitPolicy

ORACLE_VAR_LIMIT = 20
MICRO_GATE_BOUND = 6
MICRO_INPUT_BOUND = 4
MICRO_CANDIDATE_CAP = 500_000


class OracleScaleError(ValueError):
    pass


# ---------------------------------------------------------------- SAT family


def _check_var_limit(cnf: Cnf):
    if cnf.num_vars > ORACLE_VAR_LIMIT:
        raise OracleScaleError(
            f"{cnf.num_vars} variables exceeds oracle limit {ORACLE_VAR_LIMIT}"
        )


def _models(cnf: Cnf, num_x: int = 0) -> np.ndarray:
    """The formula's truth column over all 2**n assignments (`ct.all_input_rows`
    order, variable 1 most significant), shaped (2**num_x, 2**(n - num_x)): row
    xs is an assignment to the first num_x variables, column ys one of its
    extensions."""
    _check_var_limit(cnf)
    n = cnf.num_vars
    if not 0 <= num_x <= n:
        raise ValueError(f"num_x={num_x} is outside 0..{n}")
    variables = ct.all_input_rows(n).T.copy()  # contiguous, one row per variable
    column = np.ones(1 << n, dtype=bool)
    for clause in cnf.clauses:
        column &= np.any([variables[abs(lit) - 1] == (lit > 0) for lit in clause], axis=0)
    return column.reshape(1 << num_x, 1 << (n - num_x))


def model_count(cnf: Cnf) -> int:
    return int(_models(cnf).sum())


def sat_oracle(cnf: Cnf) -> bool:
    return bool(_models(cnf).any())


def emajsat_oracle(cnf: Cnf, num_x: int) -> bool:
    """Some assignment to the first num_x variables has at least half of its
    extensions satisfying the formula."""
    models = _models(cnf, num_x)
    return bool((2 * models.sum(axis=1) >= models.shape[1]).any())


def forall_exists_oracle(cnf: Cnf, num_x: int) -> bool:
    """Some assignment to the first num_x variables has all extensions
    satisfying the formula."""
    return bool(_models(cnf, num_x).all(axis=1).any())


# ------------------------------------------------------- backward induction


@dataclass(frozen=True, eq=False)
class OptimalSolution:
    """Exact optimum, kept by the induction: ``levels[i]`` holds every state's value at
    step index i, scaled by D**i, and ``tied[i - 1]`` the (actions, states) bool mask of
    the optimal actions at step index i >= 1. Fraction tables are derived on first use."""

    explicit: md.ExplicitMdp
    horizon: int
    levels: Tuple[np.ndarray, ...]
    tied: Tuple[np.ndarray, ...]

    def q(self, i: int) -> np.ndarray:
        """Q[a, k] scaled by D**i: action a at state index k, then the optimum for i - 1 steps."""
        md._check_step(i, 1, self.horizon)
        return md._bellman(self.explicit, self.levels[i - 1], i)

    def exact(self, scaled, i: int) -> Fraction:
        """The value of an entry of ``levels[i]`` or ``q(i)``."""
        return Fraction(int(scaled), self.explicit.denominator**i)

    def ties(self, k: int, i: int) -> Tuple[int, ...]:
        """The optimal actions at state index k and step index i (all at 0)."""
        md._check_step(i, 0, self.horizon)
        if i == 0:
            return tuple(range(len(self.explicit.actions)))
        return tuple(np.flatnonzero(self.tied[i - 1][:, k]).tolist())

    @cached_property
    def values(self) -> Dict[BitVector, Tuple[Fraction, ...]]:
        return md._fractions(self.explicit, self.levels)

    def value(self, s: BitVector, i: int) -> Fraction:
        md._check_step(i, 0, self.horizon)
        try:
            return self.values[tuple(s)][i]
        except KeyError:
            raise ValueError(f"state {tuple(s)} is not an expanded state") from None

    @cached_property
    def optimal_actions(self) -> Dict[BitVector, Tuple[Tuple[int, ...], ...]]:
        """Every state's optimal actions, indexed by step index."""
        em = self.explicit
        columns = [[tuple(range(len(em.actions)))] * len(em.state_array)]
        for mask in self.tied:
            tied = list(map(tuple, mask.T.tolist()))
            actions = {row: tuple(a for a, t in enumerate(row) if t) for row in set(tied)}
            columns.append([actions[row] for row in tied])
        return dict(zip(em.states, zip(*columns)))

    @property
    def greedy(self) -> TimedExplicitPolicy:
        """The optimal policy that picks the lowest-index optimal action at
        every state and step index 1..horizon."""
        return TimedExplicitPolicy(
            {
                (s, i): acts[i][0]
                for i in range(1, self.horizon + 1)
                for s, acts in self.optimal_actions.items()
            },
            len(self.explicit.actions),
        )


def solve_optimal(em: md.ExplicitMdp, horizon: int) -> OptimalSolution:
    """Exact backward induction; ties keep every optimal action, and
    `OptimalSolution.greedy` picks the lowest index among them."""
    md._check_horizon(horizon)
    tied = []

    def choose(Q: np.ndarray, i: int) -> np.ndarray:
        level = Q.max(axis=0)
        tied.append(Q == level)
        return level

    levels = md._induction(em, horizon, choose)
    return OptimalSolution(em, horizon, tuple(levels), tuple(tied))


def best_next_action(m: md.SuccinctMdp, steps_remaining: int, s: BitVector) -> Tuple[int, ...]:
    """Actions taken at s by some optimal policy with the given number of
    steps before the horizon h, from exhaustive expansion rooted at s.

    The answer reads only the transitions of states fewer than h steps from
    s, so the expansion stops there (`mdp.expand_many` with depth h). A model
    fault more than h - 1 steps from s is not met and raises nothing, and a
    query whose full closure would pass `SMDP_LIMIT_STATES` may answer."""
    if steps_remaining < 1:
        raise ValueError("need at least one step before the horizon")
    em, (root,) = md.expand_many(m, [s], depth=steps_remaining)
    return solve_optimal(em, steps_remaining).ties(root, steps_remaining)


# ------------------------------------------------ bounded policy existence


def _enumerate_candidate_circuits(
    num_inputs: int, out_width: int, max_gates: int
) -> Iterator[ct.Circuit]:
    def rec(gates: List[ct.Gate]):
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(len(gates))]
        for outs in product(refs, repeat=out_width):
            yield ct.Circuit(num_inputs, tuple(gates), outs, name="cand")
        if len(gates) < max_gates:
            choices = [(k, p) for k in ("AND", "OR", "XOR") for p in combinations(refs, 2)]
            choices += [("NOT", (a,)) for a in refs] + [("CONST0", ()), ("CONST1", ())]
            for kind, args in choices:
                yield from rec(gates + [ct.Gate(len(gates), kind, args)])

    yield from rec([])


def _reachable_depths(em: md.ExplicitMdp, horizon: int) -> np.ndarray:
    """reach[d, k]: state k of `em` is reachable from the initial state in
    exactly d steps under some actions, for the depths d < horizon."""
    reach = np.zeros((horizon, len(em.state_array)), dtype=bool)
    if horizon:
        reach[0, em.initial] = True
    for d in range(1, horizon):
        for src, dst, _ in em.transitions:
            reach[d, dst[reach[d - 1, src]]] = True
    return reach


def bounded_policy_exists(
    m: md.SuccinctMdp, horizon: int, size_bound: int, reward_bound: Fraction
) -> Tuple[bool, Optional[object]]:
    """Is there a stationary policy circuit of at most size_bound gates whose
    exact expected reward is at least reward_bound?

    Two regimes only: a vacuous size bound (>= |A| * 2**n, the universal
    compilation bound) answered by backward induction, or micro-scale circuit
    enumeration. Anything in between is refused: no efficient search exists.

    In the vacuous regime the answer is False when the optimum misses the
    reward bound. A stationary policy decides a state at step index h - d
    for each depth d < h at which the state is reachable under some actions.
    The answer is True, with an `ExplicitPolicy` witness over the expanded
    states, when every state has one action optimal at all of its step
    indices, since that stationary policy attains the optimum. Otherwise the
    best stationary policy may fall short of the optimum, which only a
    search over stationary tables could settle, and the question is refused
    with `OracleScaleError`.

    In the micro regime a candidate circuit is evaluated only on the deciding
    states, those reachable at some depth below the horizon under some
    actions: a stationary policy's reward, and whether it is asked for an
    out-of-range action, depend only on its actions there. Each distinct
    behaviour on those rows is valued once by `expected_reward_exact`, which
    asks the policy only at the states that it reaches below the horizon; one
    that picks an out-of-range action at such a state (a `PolicyError`) is
    skipped. At horizon 0 no state decides, so the first candidate answers.
    """
    md._check_horizon(horizon)
    if size_bound < 0:
        raise ValueError(f"size bound must be nonnegative, got {size_bound}")
    n_bits = m.num_vars
    n_actions = len(m.actions)
    if n_bits < 60 and size_bound >= n_actions * (1 << n_bits):
        em = md.expand(m)
        sol = solve_optimal(em, horizon)
        if sol.exact(sol.levels[horizon][em.initial], horizon) < reward_bound:
            return False, None
        always = np.ones((n_actions, len(em.state_array)), dtype=bool)
        for d, reached in enumerate(_reachable_depths(em, horizon)):
            always &= sol.tied[horizon - d - 1] | ~reached
        stuck = np.flatnonzero(~always.any(axis=0))
        if stuck.size:
            raise OracleScaleError(
                f"no action at state {em.states[stuck[0]]} is optimal at every step index at "
                "which the state is reachable, so the best stationary policy may miss the "
                "optimum; the vacuous size bound cannot answer for a stationary policy here"
            )
        table = dict(zip(em.states, always.argmax(axis=0).tolist()))
        return True, ExplicitPolicy(table, n_actions)
    if size_bound > MICRO_GATE_BOUND or n_bits > MICRO_INPUT_BOUND:
        raise OracleScaleError(
            f"size bound {size_bound} with {n_bits} state bits is outside the "
            f"micro-enumeration regime (<= {MICRO_GATE_BOUND} gates, "
            f"<= {MICRO_INPUT_BOUND} state bits)"
        )
    em = md.expand(m)
    rows = em.state_array[_reachable_depths(em, horizon).any(axis=0)]
    # packed once; the row count is len(rows), so no padding row enters a key
    deciding = ct.Columns(column_words(rows)[0], len(rows))
    seen_behaviors = set()
    candidates = _enumerate_candidate_circuits(n_bits, m.action_width, size_bound)
    for examined, cand in enumerate(candidates, 1):
        if examined > MICRO_CANDIDATE_CAP:
            raise OracleScaleError(f"candidate count exceeds cap {MICRO_CANDIDATE_CAP}")
        key = tuple(ct.eval_batch(cand, deciding).words)
        if key in seen_behaviors:
            continue
        seen_behaviors.add(key)
        policy = StationaryPolicy(cand, n_actions)
        try:
            if expected_reward_exact(m, policy, horizon).expected_reward >= reward_bound:
                return True, policy
        except PolicyError:
            pass  # an out-of-range action at a state the policy reaches
    return False, None
