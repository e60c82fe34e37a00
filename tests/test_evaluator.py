import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from smdp import circuit as ct
from smdp import evaluator
from smdp import mdp as md
from smdp.bits import int_to_bits, width_for_count
from smdp.evaluator import (
    _MC_BLOCK,
    enumerate_trajectories,
    expected_reward_exact,
    expected_reward_mc,
)
from smdp.oracle import model_count
from smdp.policy import (
    ExplicitPolicy,
    HistoryPolicy,
    PolicyError,
    StationaryPolicy,
    TimedExplicitPolicy,
)
from smdp.random_models import (
    random_bounded_mdp,
    random_circuit,
    random_cnf,
    random_stationary_policy,
)
from smdp.reductions import majsat_to_eval
from smdp.valuefn import value_of_policy

from helpers import (
    expected_reward_mc_reference,
    expected_reward_reference,
    history_probability,
    reward_circuit_calls,
)


def coin_mdp():
    """One bit, one action, fair flip; reward 1 on heads."""
    b = ct.CircuitBuilder(3)
    t = b.build([b.const(1)])  # numerator 1 for both successors, D = 2
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    return md.SuccinctMdp(("x1",), (0,), ("toss",), t, r, prob_denominator=2)


def always_act0(num_vars):
    b = ct.CircuitBuilder(num_vars)
    return StationaryPolicy(b.build([b.const(0)]), 1)


def test_coin_reward_by_hand():
    m = coin_mdp()
    p = always_act0(1)
    # r(s0)=0, each later depth contributes 1/2
    for horizon in range(4):
        rep = expected_reward_exact(m, p, horizon)
        assert rep.expected_reward == Fraction(horizon, 2)
        assert all(mass == 1 for mass in rep.per_depth_mass)
    assert expected_reward_exact(m, p, 2).trajectory_count == 4


def test_exact_matches_value_recursion_on_random_models():
    rng = random.Random(0)
    for _ in range(10):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        p = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
        horizon = rng.randint(0, 4)
        got = expected_reward_exact(rm.mdp, p, horizon).expected_reward
        em = md.expand(rm.mdp)
        want = value_of_policy(em, p, horizon).value(tuple(rm.mdp.initial), horizon)
        assert got == want


def test_trajectory_probabilities_sum_to_one():
    rng = random.Random(1)
    rm = random_bounded_mdp(rng, 2, 2)
    p = random_stationary_policy(rng, 2, 2)
    for depth in range(4):
        total = Fraction(0)
        for traj in enumerate_trajectories(rm.mdp, p, depth):
            assert history_probability(rm.mdp, p, traj.states) == traj.probability
            total += traj.probability
        assert total == 1


def test_history_policy_reduces_to_stationary_when_memoryless():
    m = coin_mdp()
    # history circuit that ignores everything: action 0
    b = ct.CircuitBuilder(3 * 1 + 2)
    h = HistoryPolicy(b.build([b.const(0)]), 1, horizon=2, num_vars=1)
    got = expected_reward_exact(m, h, 2).expected_reward
    assert got == expected_reward_exact(m, always_act0(1), 2).expected_reward


def test_history_policy_can_depend_on_past():
    m = coin_mdp()
    # an MDP with two actions: toss (fair) or stay put
    b = ct.CircuitBuilder(3)
    same = b.not_(b.xor(b.inp(0), b.inp(1)))
    is_stay = b.inp(2)
    num = b.select_value([(b.and_(is_stay, same), 2), (b.not_(is_stay), 1)], 2)
    t = b.build(num)
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    m2 = md.SuccinctMdp(("x1",), (0,), ("toss", "stay"), t, r, prob_denominator=2)
    # toss once; if the first toss came up heads, stay forever
    hb = ct.CircuitBuilder(3 * 1 + 2)
    saw_heads = hb.inp(1)  # slot 1 = state after the first step
    h = HistoryPolicy(hb.build([saw_heads]), 2, horizon=2, num_vars=1)
    rep = expected_reward_exact(m2, h, 2)
    # 1/2 heads then stay (reward 1+1), 1/2 tails then toss again (E=1/2)
    assert rep.expected_reward == Fraction(1, 2) * 2 + Fraction(1, 2) * Fraction(1, 2)


def test_mc_deterministic_and_close():
    rng = random.Random(2)
    rm = random_bounded_mdp(rng, 2, 2)
    p = random_stationary_policy(rng, 2, 2)
    exact = expected_reward_exact(rm.mdp, p, 3).expected_reward
    est1 = expected_reward_mc(rm.mdp, p, 3, samples=4000, seed=42)
    est2 = expected_reward_mc(rm.mdp, p, 3, samples=4000, seed=42)
    assert est1 == est2  # reproducible
    assert abs(float(est1.mean - exact)) <= max(5 * est1.stderr, 1e-12)


def test_mc_draws_from_integer_numerators_past_int64():
    rng = random.Random(3)
    rm = random_bounded_mdp(rng, 2, 2, denominator=3**40)
    p = random_stationary_policy(rng, 2, 2)
    exact = expected_reward_exact(rm.mdp, p, 3).expected_reward
    est = expected_reward_mc(rm.mdp, p, 3, samples=2000, seed=7)
    assert est == expected_reward_mc(rm.mdp, p, 3, samples=2000, seed=7)
    assert abs(float(est.mean - exact)) <= max(5 * est.stderr, 1e-12)


def test_mc_requires_samples():
    m = coin_mdp()
    with pytest.raises(ValueError):
        expected_reward_mc(m, always_act0(1), 1, samples=0, seed=0)


def stay_mdp():
    """One bit, one action, deterministic: the state never changes; reward 1
    in state 1."""
    b = ct.CircuitBuilder(3)
    t = b.build([b.not_(b.xor(b.inp(0), b.inp(1)))])
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    return md.SuccinctMdp(("x1",), (1,), ("stay",), t, r, prob_denominator=1)


def test_deep_stationary_walk_does_not_recurse():
    (traj,) = enumerate_trajectories(stay_mdp(), always_act0(1), 1500)
    assert traj.states == ((1,),) * 1501 and traj.probability == 1


def test_deep_history_walk_does_not_recurse():
    horizon = 1500
    b = ct.CircuitBuilder((horizon + 1) * 1 + width_for_count(horizon + 1))
    h = HistoryPolicy(b.build([b.const(0)]), 1, horizon=horizon, num_vars=1)
    rep = expected_reward_exact(stay_mdp(), h, horizon)
    assert rep.expected_reward == horizon + 1 and rep.trajectory_count == 1


def test_trajectory_order_is_depth_first_in_successor_order():
    m, p = coin_mdp(), always_act0(1)
    got = [traj.states for traj in enumerate_trajectories(m, p, 3)]
    assert got == [((0,),) + rest for rest in itertools.product(((0,), (1,)), repeat=3)]


def test_evaluator_limit_errors_name_the_knob(monkeypatch):
    # the initial state has three successors
    rm = random_bounded_mdp(random.Random(0), 2, 1)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "2")
    msg = r"trajectory frontier at depth 1 reached 3, over the limit 2; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        expected_reward_exact(rm.mdp, always_act0(2), 1)
    b = ct.CircuitBuilder(2 * 2 + 1)
    h = HistoryPolicy(b.build([b.const(0)]), 1, horizon=1, num_vars=2)
    msg = r"history count reached 3, over the limit 2; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        expected_reward_exact(rm.mdp, h, 1)


def test_enumerate_trajectories_rejects_a_negative_depth():
    trajectories = enumerate_trajectories(stay_mdp(), always_act0(1), -1)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        next(trajectories)


def test_enumerate_trajectories_counts_histories_against_the_limit(monkeypatch):
    # the initial state has three successors: four histories in all
    rm = random_bounded_mdp(random.Random(0), 2, 1)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "3")
    msg = r"history count reached 4, over the limit 3; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        next(enumerate_trajectories(rm.mdp, always_act0(2), 1))
    monkeypatch.setenv("SMDP_LIMIT_STATES", "4")
    assert len(list(enumerate_trajectories(rm.mdp, always_act0(2), 1))) == 3


def test_history_policy_trajectories_carry_their_probabilities():
    rng = random.Random(9)
    rm = random_bounded_mdp(rng, 2, 4)
    h = _random_history_policy(rng, 2, 4, 3)
    for depth in range(4):
        trajectories = list(enumerate_trajectories(rm.mdp, h, depth))
        assert len(trajectories) == expected_reward_exact(rm.mdp, h, depth).trajectory_count
        for traj in trajectories:
            assert history_probability(rm.mdp, h, traj.states) == traj.probability
        assert sum(traj.probability for traj in trajectories) == 1


def test_history_policies_make_no_scalar_circuit_call(monkeypatch):
    rng = random.Random(8)
    rm = random_bounded_mdp(rng, 3, 4)
    h = _random_history_policy(rng, 3, 4, 4)
    exact = expected_reward_exact(rm.mdp, h, 4)
    mc = expected_reward_mc(rm.mdp, h, 4, 300, 1)

    def scalar_eval(*args):
        raise AssertionError("scalar circuit.eval call")

    monkeypatch.setattr(ct, "eval", scalar_eval)
    assert expected_reward_exact(rm.mdp, h, 4) == exact
    assert expected_reward_mc(rm.mdp, h, 4, 300, 1) == mc


def _outcome(m, policy, horizon, evaluate):
    """SHA-256 of the report as a tuple, or the error raised."""
    try:
        report = evaluate(m, policy, horizon)
    except (md.ModelError, PolicyError) as exc:
        return type(exc).__name__, str(exc)
    return hashlib.sha256(repr(dataclasses.astuple(report)).encode()).hexdigest()


def _random_history_policy(rng, num_vars, num_actions, horizon):
    """A random history circuit over every index its output width can
    decode, so on a model with 1 or 3 actions it may pick a missing one."""
    width = (horizon + 1) * num_vars + width_for_count(horizon + 1)
    aw = width_for_count(num_actions)
    c = random_circuit(rng, width, rng.randint(1, 8), aw)
    return HistoryPolicy(c, 1 << aw, horizon=horizon, num_vars=num_vars)


def _random_timed_policy(rng, num_vars, num_actions, horizon):
    states = [tuple(int_to_bits(k, num_vars)) for k in range(1 << num_vars)]
    mapping = {
        (s, steps): rng.randrange(num_actions) for s in states for steps in range(1, horizon + 1)
    }
    return TimedExplicitPolicy(mapping, num_actions)


def _random_policies(rng, n, k, horizon):
    """A compiled, an explicit, a timed and a history policy."""
    return [
        random_stationary_policy(rng, n, k),
        ExplicitPolicy({tuple(int_to_bits(s, n)): rng.randrange(k) for s in range(1 << n)}, k),
        _random_timed_policy(rng, n, k, horizon),
        _random_history_policy(rng, n, k, horizon),
    ]


@pytest.mark.parametrize("denominator", [6, 2**31 - 1, 3**40])
def test_exact_reports_match_fraction_reference_on_random_models(denominator):
    # the reward width is 4, so 2**3·D**h passes 2**63 from h = 2 at D = 2**31-1
    # and from h = 1 at D = 3**40: both sides of the int64 switch are covered
    rng = random.Random(denominator % 1000)
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        rm = random_bounded_mdp(rng, n, k, denominator=denominator)
        horizon = rng.randint(1, 4)
        for p in _random_policies(rng, n, k, horizon):
            want = _outcome(rm.mdp, p, horizon, expected_reward_reference)
            assert _outcome(rm.mdp, p, horizon, expected_reward_exact) == want


def test_exact_pass_does_not_depend_on_the_step_pieces(monkeypatch):
    rng = random.Random(21)
    cases = []
    for _ in range(8):
        n, k = rng.randint(2, 4), rng.randint(2, 4)
        rm = random_bounded_mdp(rng, n, k)
        horizon = rng.randint(2, 4)
        cases += [(rm.mdp, p, horizon) for p in _random_policies(rng, n, k, horizon)]

    def outcomes():
        out = []
        for m, p, h in cases:
            out.append(_outcome(m, p, h, expected_reward_exact))
            try:
                out.append(list(enumerate_trajectories(m, p, h)))
            except (md.ModelError, PolicyError) as exc:
                out.append(str(exc))
        return out

    want = outcomes()
    # a piece of 8 candidate rows holds at most 2 sources of these models
    monkeypatch.setattr(md, "_STEP_ROWS", 8)
    assert outcomes() == want


def test_exact_reports_match_fraction_reference_on_majsat():
    rng = random.Random(5)
    for n in (1, 2, 4, 6, 8, 10):
        inst = majsat_to_eval(random_cnf(rng, n, 3 * n))
        m, p, h = inst.mdp, inst.policy, inst.horizon
        assert _outcome(m, p, h, expected_reward_exact) == _outcome(
            m, p, h, expected_reward_reference
        )
        got = expected_reward_exact(m, p, h).expected_reward
        assert got == Fraction(model_count(inst.cnf), 1 << n)


def test_exact_checks_the_action_index():
    # a 2-action policy on a 1-action model decodes action 1
    b = ct.CircuitBuilder(1)
    p = StationaryPolicy(b.build([b.const(1)]), 2)
    with pytest.raises(md.ModelError, match="action index 1 out of range"):
        expected_reward_exact(coin_mdp(), p, 1)
    with pytest.raises(md.ModelError, match="action index 1 out of range"):
        expected_reward_mc(coin_mdp(), p, 1, samples=1, seed=0)


def _mc_outcome(estimate, m, policy, horizon, samples, seed):
    """The estimate as a (mean, stderr, samples) tuple, or the error type."""
    try:
        est = estimate(m, policy, horizon, samples, seed)
    except (md.ModelError, PolicyError) as exc:
        return type(exc).__name__
    return est.mean, est.stderr, est.samples


@pytest.mark.parametrize("denominator", [6, 2**31 - 1, 3**40])
def test_mc_matches_sequential_reference_on_random_models(denominator):
    rng = random.Random(denominator % 1000)
    for horizon in range(6):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        rm = random_bounded_mdp(rng, n, k, denominator=denominator)
        for p in _random_policies(rng, n, k, horizon):
            for samples in (1, 2, 300):
                seed = rng.randrange(1 << 30)
                want = _mc_outcome(expected_reward_mc_reference, rm.mdp, p, horizon, samples, seed)
                assert _mc_outcome(expected_reward_mc, rm.mdp, p, horizon, samples, seed) == want


@pytest.mark.parametrize("denominator", [6, 2**31 - 1, 3**40])
def test_mc_matches_sequential_reference_across_a_block_boundary(denominator):
    rng = random.Random(denominator % 1000 + 1)
    rm = random_bounded_mdp(rng, 2, 3, denominator=denominator)
    for p in _random_policies(rng, 2, 3, 2):
        want = _mc_outcome(expected_reward_mc_reference, rm.mdp, p, 2, _MC_BLOCK + 3, 11)
        assert _mc_outcome(expected_reward_mc, rm.mdp, p, 2, _MC_BLOCK + 3, 11) == want


def test_mc_matches_sequential_reference_on_majsat():
    rng = random.Random(6)
    for n in range(1, 8):
        inst = majsat_to_eval(random_cnf(rng, n, 2 * n))
        m, p, h = inst.mdp, inst.policy, inst.horizon
        want = _mc_outcome(expected_reward_mc_reference, m, p, h, 300, n)
        assert _mc_outcome(expected_reward_mc, m, p, h, 300, n) == want


def test_mc_makes_no_scalar_circuit_call_for_a_stationary_policy(monkeypatch):
    inst = majsat_to_eval(random_cnf(random.Random(7), 4, 8))
    want = expected_reward_mc(inst.mdp, inst.policy, inst.horizon, 200, 1)

    def scalar_eval(*args):
        raise AssertionError("scalar circuit.eval call")

    monkeypatch.setattr(ct, "eval", scalar_eval)
    assert expected_reward_mc(inst.mdp, inst.policy, inst.horizon, 200, 1) == want


def test_mc_decides_a_stationary_policy_once_per_state_and_a_timed_one_per_depth(monkeypatch):
    rng = random.Random(3)
    runs = []
    for _ in range(10):
        rm = random_bounded_mdp(rng, 3, 2)
        runs.append((rm.mdp, random_stationary_policy(rng, 3, 2)))
    runs.append((runs[0][0], _random_timed_policy(rng, 3, 2, 8)))
    wants = {
        (k, seed): expected_reward_mc_reference(m, p, 8, 1000, seed)
        for k, (m, p) in enumerate(runs)
        for seed in (0, 1, 2)
    }
    calls = {StationaryPolicy: [], TimedExplicitPolicy: []}

    def counting(cls):
        decide, rows = cls.decide_batch, calls[cls]

        def decide_batch(self, states, *args):
            rows.append(len(states))
            return decide(self, states, *args)

        return decide_batch

    for cls in calls:
        monkeypatch.setattr(cls, "decide_batch", counting(cls))
    for (k, seed), want in wants.items():
        m, p = runs[k]
        assert expected_reward_mc(m, p, 8, 1000, seed) == want
    # decided per depth, the ten stationary runs made 80 calls on 303 rows per seed
    assert (len(calls[StationaryPolicy]), sum(calls[StationaryPolicy])) == (3 * 42, 3 * 59)
    assert len(calls[TimedExplicitPolicy]) == 3 * 8


def test_expansion_and_mc_number_states_without_bit_tuples(monkeypatch):
    # states are numbered by their unsigned keys; no bit tuple is built per row
    rng = random.Random(9)
    rm = random_bounded_mdp(rng, 3, 3)
    em = md.expand(rm.mdp)
    policies = [random_stationary_policy(rng, 3, 3), _random_history_policy(rng, 3, 3, 4)]
    wants = [expected_reward_mc_reference(rm.mdp, p, 4, 300, 5) for p in policies]

    def no_tuples(rows):
        raise AssertionError("row_tuples call")

    monkeypatch.setattr(md, "row_tuples", no_tuples)
    monkeypatch.setattr(evaluator, "row_tuples", no_tuples)
    got = md.expand(rm.mdp)
    assert (got.state_array == em.state_array).all()
    assert all(
        (x == y).all() for t, u in zip(got.transitions, em.transitions) for x, y in zip(t, u)
    )
    for p, want in zip(policies, wants):
        assert expected_reward_mc(rm.mdp, p, 4, 300, 5) == want


def test_mc_rejects_an_out_of_range_action_at_a_visited_state():
    # decodes action 3 of 3 at state (1,), which is visited from depth 1 on
    b = ct.CircuitBuilder(1)
    p = StationaryPolicy(b.build([b.inp(0), b.inp(0)]), 3)
    est = expected_reward_mc(coin_mdp(), p, 1, samples=50, seed=0)
    assert est == expected_reward_mc_reference(coin_mdp(), p, 1, 50, 0)
    with pytest.raises(PolicyError, match=r"policy decoded action 3 >= 3 at \(1,\)"):
        expected_reward_mc(coin_mdp(), p, 2, samples=50, seed=0)


def test_evaluators_reject_a_policy_of_another_width():
    m = coin_mdp()  # one state bit
    msg = "policy reads 3 state bits, the model has 1"
    b = ct.CircuitBuilder(3)
    stationary = StationaryPolicy(b.build([b.const(0)]), 1)
    hb = ct.CircuitBuilder(2 * 3 + 1)
    history = HistoryPolicy(hb.build([hb.const(0)]), 1, horizon=1, num_vars=3)
    for p in (stationary, history):
        with pytest.raises(PolicyError, match=msg):
            expected_reward_exact(m, p, 1)
        with pytest.raises(PolicyError, match=msg):
            expected_reward_mc(m, p, 1, samples=10, seed=0)
        with pytest.raises(PolicyError, match=msg):
            list(enumerate_trajectories(m, p, 1))
    # value_of_policy raised CircuitError from the policy circuit
    with pytest.raises(PolicyError, match=msg):
        value_of_policy(md.expand(m), stationary, 1)


def test_exact_reads_the_rewards_of_every_depth_in_one_call(monkeypatch):
    inst = majsat_to_eval(random_cnf(random.Random(8), 6, 18))
    m, p, h = inst.mdp, inst.policy, inst.horizon
    want = expected_reward_reference(m, p, h)
    calls = reward_circuit_calls(monkeypatch, m)
    assert expected_reward_exact(m, p, h) == want
    assert len(calls) == 1
    rows = calls[0]
    # held layers are read once they reach 8 rows, in pieces of at most 8
    monkeypatch.setattr(md, "_STEP_ROWS", 8)
    calls.clear()
    assert expected_reward_exact(m, p, h) == want
    assert len(calls) > 1 and max(calls) <= 8 and sum(calls) == rows


def test_mc_reads_the_rewards_once_per_block(monkeypatch):
    inst = majsat_to_eval(random_cnf(random.Random(7), 4, 8))
    m, p, h = inst.mdp, inst.policy, inst.horizon
    assert p.kind == "stationary"
    want = expected_reward_mc_reference(m, p, h, 200, 1)
    calls = reward_circuit_calls(monkeypatch, m)
    assert expected_reward_mc(m, p, h, 200, 1) == want
    assert len(calls) == 1
    # four blocks: a block whose states were all rewarded before makes no call
    monkeypatch.setattr("smdp.evaluator._MC_BLOCK", 50)
    calls.clear()
    assert expected_reward_mc(m, p, h, 200, 1) == want
    assert 1 <= len(calls) <= 4
