import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from smdp import circuit as ct
from smdp import mdp as md
from smdp import oracle, verify
from smdp.bits import int_to_bits
from smdp.cnf import Cnf
from smdp.evaluator import enumerate_trajectories, expected_reward_exact, expected_reward_mc
from smdp.policy import (
    ExplicitPolicy,
    HistoryPolicy,
    PolicyError,
    StationaryPolicy,
    TimedExplicitPolicy,
    compile_explicit,
)
from smdp.random_models import random_bounded_mdp, random_stationary_policy
from smdp.reductions import majsat_to_eval, sat_to_next_action
from smdp.valuefn import value_of_policy

from helpers import (
    bounded_policy_exists_reference,
    closure_depths,
    emajsat_reference,
    forall_exists_reference,
    model_count_reference,
    sat_reference,
    satisfied_by_reference,
    transition_pairs,
)


def test_sat_family_oracles():
    assert oracle.sat_oracle(Cnf(2, ((1, 2),)))
    assert not oracle.sat_oracle(Cnf(1, ((1,), (-1,))))
    assert oracle.model_count(Cnf(2, ())) == 4
    assert oracle.model_count(Cnf(2, ((1, 2),))) == 3
    assert oracle.model_count(Cnf(1, ((1,), (-1,)))) == 0


def test_emajsat_and_forall_exists():
    # x1 <-> y1: either x-choice satisfies exactly half the extensions
    iff = Cnf(2, ((1, -2), (-1, 2)))
    assert oracle.emajsat_oracle(iff, 1)
    assert not oracle.forall_exists_oracle(iff, 1)
    # Q = x1: choosing x1 true satisfies every extension
    assert oracle.forall_exists_oracle(Cnf(2, ((1,),)), 1)
    # Q = y1 and not y1: no extension ever satisfies
    assert not oracle.emajsat_oracle(Cnf(2, ((2,), (-2,))), 1)


def test_oracle_var_limit():
    with pytest.raises(oracle.OracleScaleError):
        oracle.model_count(Cnf(30, ()))
    wide = Cnf(oracle.ORACLE_VAR_LIMIT + 1, ((1, -21),))
    for decide in (oracle.model_count, oracle.sat_oracle):
        with pytest.raises(oracle.OracleScaleError, match="21 variables"):
            decide(wide)
    for decide in (oracle.emajsat_oracle, oracle.forall_exists_oracle):
        with pytest.raises(oracle.OracleScaleError, match="21 variables"):
            decide(wide, 1)


def test_sat_family_oracles_match_the_assignment_loop():
    # (x1 or x2) and (not x1 or not x2): (1, 0) satisfies it, (1, 1) does not
    xor = Cnf(2, ((1, 2), (-1, -2)))
    assert satisfied_by_reference(xor, (True, False))
    assert not satisfied_by_reference(xor, (True, True))
    assert oracle._models(xor).ravel().tolist() == [False, True, True, False]
    rng = random.Random(19)
    cnfs = [xor, Cnf(0, ()), Cnf(0, ((),)), Cnf(3, ((1, -2), ()))]
    for n in range(10):
        for _ in range(30 if n < 7 else 8):
            clauses = tuple(
                tuple(rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=rng.randint(0, 4) if n else 0))
                for _ in range(rng.randint(0, 2 * n + 1))
            )
            cnfs.append(Cnf(n, clauses))
    for cnf in cnfs:
        count, sat = oracle.model_count(cnf), oracle.sat_oracle(cnf)
        assert type(count) is int and type(sat) is bool
        assert (count, sat) == (model_count_reference(cnf), sat_reference(cnf)), cnf
        for num_x in range(cnf.num_vars + 1):
            got = (oracle.emajsat_oracle(cnf, num_x), oracle.forall_exists_oracle(cnf, num_x))
            assert all(type(g) is bool for g in got)
            assert got == (emajsat_reference(cnf, num_x), forall_exists_reference(cnf, num_x)), (cnf, num_x)


@pytest.mark.parametrize("num_x", [-1, 3])
def test_num_x_outside_the_variables_is_refused(num_x):
    cnf = Cnf(2, ((1, -2),))
    for decide in (oracle.emajsat_oracle, oracle.forall_exists_oracle):
        with pytest.raises(ValueError, match=f"^num_x={num_x} is outside 0..2$"):
            decide(cnf, num_x)


def test_solve_single_action_equals_policy_value():
    rng = random.Random(0)
    rm = random_bounded_mdp(rng, 2, 1)
    em = md.expand(rm.mdp)
    sol = oracle.solve_optimal(em, 3)
    only = compile_explicit({s: 0 for s in rm.rewards}, 2, 1)
    table = value_of_policy(em, only, 3)
    for s in em.states:
        for i in range(4):
            assert sol.values[s][i] == table.value(s, i)


def test_optimal_dominates_every_policy_and_greedy_attains():
    rng = random.Random(1)
    for _ in range(5):
        rm = random_bounded_mdp(rng, 2, 2)
        em = md.expand(rm.mdp)
        horizon = 3
        sol = oracle.solve_optimal(em, horizon)
        for _ in range(5):
            p = random_stationary_policy(rng, 2, 2)
            table = value_of_policy(em, p, horizon)
            for s in em.states:
                assert sol.values[s][horizon] >= table.value(s, horizon)
        greedy_table = value_of_policy(em, sol.greedy, horizon)
        for s in em.states:
            assert greedy_table.value(s, horizon) == sol.values[s][horizon]


def test_ties_return_all_actions():
    # two actions with identical dynamics and rewards
    b = ct.CircuitBuilder(3)
    t = b.build([b.const(1)])  # fair flip under either action
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    m = md.SuccinctMdp(("x1",), (0,), ("u", "v"), t, r, prob_denominator=2)
    acts = oracle.best_next_action(m, 2, (0,))
    assert acts == (0, 1)


def test_best_next_action_matches_the_full_closure():
    rng = random.Random(3)
    ties = 0
    for k in range(12):
        # rewards in {0, 1} with one successor per action tie often
        kw = dict(max_branching=1, reward_range=(0, 1)) if k % 3 == 0 else {}
        m = random_bounded_mdp(rng, 2 + k % 3, 2 + k % 2, **kw).mdp
        for s in {m.initial, tuple(rng.randrange(2) for _ in range(m.num_vars))}:
            sol = oracle.solve_optimal(md.expand(m, s), 5)
            for h in range(1, 6):
                want = sol.optimal_actions[s][h]
                assert oracle.best_next_action(m, h, s) == want
                ties += len(want) > 1
    assert ties


def test_best_next_action_steps_only_the_states_fewer_than_h_steps_away(monkeypatch):
    inst = sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2))), mode="compact")
    m, h = inst.mdp, inst.steps_remaining()
    full, roots = md.expand_many(m, [inst.state])
    depths = closure_depths(full, roots)
    assert (depths >= h).any()  # the closure reaches past the last layer read
    stepped = []
    step_piece = md._step_piece

    def counting(m, states, rows, actions, *args):
        stepped.append(len(rows) * len(actions))
        return step_piece(m, states, rows, actions, *args)

    monkeypatch.setattr(md, "_step_piece", counting)
    oracle.best_next_action(m, h, inst.state)
    assert sum(stepped) == int((depths < h).sum()) * len(m.actions)


def test_bounded_policy_exists_micro_regime():
    # coin MDP with a good and a bad action: stay at 0 (reward 0) or flip to 1
    b = ct.CircuitBuilder(3)
    same = b.not_(b.xor(b.inp(0), b.inp(1)))
    diff = b.xor(b.inp(0), b.inp(1))
    num = b.select_value([(b.and_(b.not_(b.inp(2)), same), 1),
                          (b.and_(b.inp(2), diff), 1)], 1)
    t = b.build(num)
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    m = md.SuccinctMdp(("x1",), (0,), ("stay", "go"), t, r, prob_denominator=1)
    yes, witness = oracle.bounded_policy_exists(m, 2, 2, Fraction(2))
    assert yes and witness is not None
    # reward 2 needs the go action; a policy that cannot express it fails
    no, _ = oracle.bounded_policy_exists(m, 2, 2, Fraction(5, 2))
    assert not no


def _search_outcome(search, *args):
    """A policy search's verdict and witness (a netlist or a sorted table),
    or its refusal text."""
    try:
        yes, witness = search(*args)
    except oracle.OracleScaleError as exc:
        return "refused", str(exc)
    if isinstance(witness, StationaryPolicy):
        return yes, ct.serialize(witness.circuit)
    return yes, None if witness is None else sorted(witness.mapping.items())


def test_bounded_policy_search_matches_the_truth_table_reference():
    rng = random.Random(26)
    outcomes = []
    for _ in range(16):
        n = rng.randint(1, 3)
        m = random_bounded_mdp(rng, n, rng.randint(1, 3)).mdp
        horizon = rng.randint(0, 3)
        em = md.expand(m)
        sol = oracle.solve_optimal(em, horizon)
        best = sol.exact(sol.levels[horizon][em.initial], horizon)
        for size in (0, 1, 2, len(m.actions) << n):
            for bound in (best, best - Fraction(1, 2), best + Fraction(1, 7), Fraction(-100)):
                args = (m, horizon, size, bound)
                got = _search_outcome(oracle.bounded_policy_exists, *args)
                assert got == _search_outcome(bounded_policy_exists_reference, *args), args
                outcomes.append(got[0])
    # vacuous size bounds asked at the optimum, drawn as in the tests below
    for seed in range(40):
        rng = random.Random(seed)
        n, k = rng.randint(1, 2), rng.randint(2, 3)
        m = random_bounded_mdp(rng, n, k).mdp
        horizon = rng.randint(2, 4)
        em = md.expand(m)
        sol = oracle.solve_optimal(em, horizon)
        args = (m, horizon, k << n, sol.exact(sol.levels[horizon][em.initial], horizon))
        got = _search_outcome(oracle.bounded_policy_exists, *args)
        assert got == _search_outcome(bounded_policy_exists_reference, *args), seed
        outcomes.append(got[0])
    # micro draws whose candidates pick an out-of-range action only at states they never reach
    for seed in (7, 19, 20, 25, 71):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        m = random_bounded_mdp(rng, n, rng.randint(1, 3)).mdp
        horizon = rng.randint(0, 3)
        em = md.expand(m)
        sol = oracle.solve_optimal(em, horizon)
        best = sol.exact(sol.levels[horizon][em.initial], horizon)
        for size in (0, 1):
            for bound in (best, best - Fraction(1, 2), best + Fraction(1, 7)):
                args = (m, horizon, size, bound)
                got = _search_outcome(oracle.bounded_policy_exists, *args)
                assert got == _search_outcome(bounded_policy_exists_reference, *args), args
                outcomes.append(got[0])
    assert {True, False, "refused"} <= set(outcomes)


def test_bounded_policy_search_asks_a_candidate_only_where_it_decides():
    rng = random.Random(20)
    n = rng.randint(1, 3)
    m = random_bounded_mdp(rng, n, rng.randint(1, 3)).mdp
    horizon = rng.randint(0, 3)
    em = md.expand(m)
    assert (n, len(m.actions), horizon, m.initial, len(em.states)) == (3, 3, 1, (0, 0, 0), 8)
    assert oracle._reachable_depths(em, horizon).any(axis=0).sum() == 1  # the initial state
    yes, witness = oracle.bounded_policy_exists(m, horizon, 0, Fraction(3))
    assert yes and ct.serialize(witness.circuit).endswith("\noutputs i0 i0\n")
    assert expected_reward_exact(m, witness, horizon).expected_reward == 3
    # the value table asks every expanded state, so it refuses the same policy
    with pytest.raises(PolicyError, match=re.escape("decoded action 3 >= 3 at (1, 0, 0)")):
        value_of_policy(em, witness, horizon)


def test_bounded_policy_search_evaluates_candidates_on_the_deciding_states_only(monkeypatch):
    m = random_bounded_mdp(random.Random(7), 3, 2).mdp
    em = md.expand(m)
    deciding = oracle._reachable_depths(em, 3).any(axis=0)
    assert (len(em.states), int(deciding.sum())) == (7, 5)
    rows, valued = [], []
    eval_batch, evaluate = ct.eval_batch, oracle.expected_reward_exact

    def counting(c, inputs):
        # the rows of the search's own candidate calls, not of the evaluator's
        if isinstance(c, ct.Circuit) and c.name == "cand" and c not in valued:
            rows.append(inputs.shape[0])
        return eval_batch(c, inputs)

    def valuing(m, policy, horizon):
        valued.append(policy.circuit)
        return evaluate(m, policy, horizon)

    monkeypatch.setattr(ct, "eval_batch", counting)
    monkeypatch.setattr(oracle, "expected_reward_exact", valuing)
    assert oracle.bounded_policy_exists(m, 3, 3, Fraction(100)) == (False, None)
    assert rows and set(rows) == {5}
    assert 0 < len(valued) <= 1 << 5


def test_bounded_policy_exists_monotone_in_bounds():
    rng = random.Random(2)
    rm = random_bounded_mdp(rng, 2, 2)
    horizon = 2
    vac = len(rm.mdp.actions) * (1 << rm.mdp.num_vars)
    em = md.expand(rm.mdp)
    best = oracle.solve_optimal(em, horizon).values[tuple(rm.mdp.initial)][horizon]
    assert oracle.bounded_policy_exists(rm.mdp, horizon, vac, best)[0]
    assert not oracle.bounded_policy_exists(rm.mdp, horizon, vac, best + 1)[0]


def test_bounded_policy_exists_refuses_midscale():
    rng = random.Random(3)
    rm = random_bounded_mdp(rng, 2, 2)
    with pytest.raises(oracle.OracleScaleError):
        oracle.bounded_policy_exists(rm.mdp, 2, 7, Fraction(1, 2))


def test_bounded_policy_exists_rejects_a_negative_size_bound():
    rm = random_bounded_mdp(random.Random(3), 2, 2)
    with pytest.raises(ValueError, match="size bound must be nonnegative, got -1"):
        oracle.bounded_policy_exists(rm.mdp, 2, -1, Fraction(-100))


# ------------------------------------------ differential: the integer core


def reference_solve_optimal(em, horizon):
    """Backward induction as a per-state Fraction loop: (values, optimal
    actions, greedy map), the fields `solve_optimal` must reproduce."""
    n_states, n_actions = len(em.states), len(em.actions)
    pairs = [[transition_pairs(em, k, a) for a in range(n_actions)] for k in range(n_states)]
    values = [[Fraction(em.rewards[k])] for k in range(n_states)]
    opt = [[tuple(range(n_actions))] for _ in range(n_states)]
    for i in range(1, horizon + 1):
        for k in range(n_states):
            best, best_actions = None, []
            for a in range(n_actions):
                total = Fraction(em.rewards[k])
                for j, p in pairs[k][a]:
                    total += p * values[j][i - 1]
                if best is None or total > best:
                    best, best_actions = total, [a]
                elif total == best:
                    best_actions.append(a)
            values[k].append(best)
            opt[k].append(tuple(best_actions))
    greedy = {
        (em.states[k], i): opt[k][i][0] for k in range(n_states) for i in range(1, horizon + 1)
    }
    return (
        {em.states[k]: tuple(values[k]) for k in range(n_states)},
        {em.states[k]: tuple(opt[k]) for k in range(n_states)},
        greedy,
    )


def reference_value_of_policy(em, policy, horizon):
    """Value table of a stationary or timed policy as a per-state Fraction loop."""
    n_states = len(em.states)
    table = [[Fraction(em.rewards[k])] for k in range(n_states)]
    for i in range(1, horizon + 1):
        for k in range(n_states):
            s = em.states[k]
            a = policy.decide_timed(s, i) if policy.kind == "timed" else policy.decide(s)
            total = Fraction(em.rewards[k])
            for j, p in transition_pairs(em, k, a):
                total += p * table[j][i - 1]
            table[k].append(total)
    return {em.states[k]: tuple(table[k]) for k in range(n_states)}


def assert_core_matches_reference(em, horizon, rng):
    sol = oracle.solve_optimal(em, horizon)
    values, opt, greedy = reference_solve_optimal(em, horizon)
    assert sol.values == values
    assert sol.optimal_actions == opt
    assert sol.greedy.mapping == greedy
    n_actions = len(em.actions)
    policies = [
        sol.greedy,
        ExplicitPolicy({s: rng.randrange(n_actions) for s in em.states}, n_actions),
        TimedExplicitPolicy(
            {(s, i): rng.randrange(n_actions) for s in em.states for i in range(1, horizon + 1)},
            n_actions,
        ),
    ]
    for p in policies:
        assert value_of_policy(em, p, horizon).values == reference_value_of_policy(em, p, horizon)


def test_core_matches_reference_on_random_models():
    rng = random.Random(21)
    for _ in range(40):
        D = rng.choice((1, 2, 6, 7, 1000))
        rm = random_bounded_mdp(
            rng, rng.randint(1, 3), rng.randint(1, 3), max_branching=min(3, D), denominator=D
        )
        em = md.expand(rm.mdp)
        horizon = rng.randint(0, 4)
        assert_core_matches_reference(em, horizon, rng)
        p = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
        assert value_of_policy(em, p, horizon).values == reference_value_of_policy(em, p, horizon)


def test_core_matches_reference_on_satnext_and_majsat():
    rng = random.Random(22)
    for cnf in (
        Cnf(1, ((1, 1, 1),)),
        Cnf(1, ((1, 1, 1), (-1, -1, -1))),
        Cnf(2, ((1, 2, 2), (-1, -2, -2))),
    ):
        inst = sat_to_next_action(cnf, mode="compact")
        em = md.expand(inst.mdp, inst.state)
        assert_core_matches_reference(em, inst.steps_remaining(), rng)
    for cnf in (Cnf(1, ((1,),)), Cnf(2, ((1, -2),))):
        inst = majsat_to_eval(cnf)
        em = md.expand(inst.mdp)
        assert_core_matches_reference(em, inst.horizon, rng)
        assert value_of_policy(em, inst.policy, inst.horizon).values == (
            reference_value_of_policy(em, inst.policy, inst.horizon)
        )


def test_core_is_exact_where_int64_would_wrap():
    # D = 2**31 - 1, so values scaled by D**3 leave int64
    rng = random.Random(23)
    rm = random_bounded_mdp(rng, 2, 2, denominator=(1 << 31) - 1)
    em = md.expand(rm.mdp)
    assert em.denominator**3 >= 1 << 63
    assert_core_matches_reference(em, 3, rng)


def test_q_is_the_bellman_step_on_the_reference_values():
    rng = random.Random(25)
    for D in (1, 7, (1 << 31) - 1):
        rm = random_bounded_mdp(rng, 2, 3, max_branching=min(3, D), denominator=D)
        em = md.expand(rm.mdp)
        sol = oracle.solve_optimal(em, 3)
        values, opt, _ = reference_solve_optimal(em, 3)
        for i in range(1, 4):
            scaled = [values[s][i - 1] * D ** (i - 1) for s in em.states]
            assert all(v.denominator == 1 for v in scaled)
            want = md._bellman(em, np.array([v.numerator for v in scaled], dtype=object), i)
            assert sol.q(i).tolist() == want.tolist()
            assert np.array_equal(sol.tied[i - 1], sol.q(i) == sol.levels[i])
        for k, s in enumerate(em.states):
            for i in range(4):
                assert sol.exact(sol.levels[i][k], i) == values[s][i]
                assert sol.ties(k, i) == opt[s][i]
        for i in (-1, 0, 4):
            with pytest.raises(ValueError, match=f"^step index {i} out of range 1..3$"):
                sol.q(i)


def test_next_action_queries_build_no_fraction_tables(monkeypatch):
    built = []
    fractions = md._fractions
    monkeypatch.setattr(md, "_fractions", lambda em, levels: built.append(em) or fractions(em, levels))
    inst = sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2))), mode="compact")
    got = oracle.best_next_action(inst.mdp, inst.steps_remaining(), inst.state)
    assert got == (inst.mdp.actions.index("S"),)
    rows = verify.suite_nextaction(max_n=2)
    assert rows and all(r.ok for r in rows)
    assert not built
    # the counter sees the tables that are built
    assert oracle.solve_optimal(md.expand(inst.mdp, inst.state), 2).values
    assert len(built) == 1


def test_next_action_queries_build_no_state_tuples(monkeypatch):
    built = []
    row_tuples = md.row_tuples
    monkeypatch.setattr(md, "row_tuples", lambda rows: built.append(len(rows)) or row_tuples(rows))
    inst = sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2))), mode="compact")
    got = oracle.best_next_action(inst.mdp, inst.steps_remaining(), inst.state)
    assert got == (inst.mdp.actions.index("S"),)
    rows = verify.suite_nextaction(max_n=2)
    assert rows and all(r.ok for r in rows)
    assert not built
    # the tuple view is built once, on its first read
    em = md.expand(inst.mdp, inst.state)
    assert not built
    assert em.states is em.states and len(em.states) == len(em.state_array)
    assert built == [len(em.state_array)]


def test_optimal_solution_checks_the_step_index_and_the_state():
    rm = random_bounded_mdp(random.Random(0), 2, 3)
    em = md.expand(rm.mdp)
    sol = oracle.solve_optimal(em, 3)
    s = em.states[em.initial]
    assert sol.value(s, 3) == sol.exact(sol.levels[3][em.initial], 3)
    # step index -1 read the step-3 value, and 4 raised IndexError
    for i in (-1, 4):
        with pytest.raises(ValueError, match=f"^step index {i} out of range 0..3$"):
            sol.value(s, i)
        with pytest.raises(ValueError, match=f"^step index {i} out of range 0..3$"):
            sol.ties(em.initial, i)
    # a state that is not expanded raised KeyError
    near, _ = md.expand_many(rm.mdp, [s], depth=0)
    other = next(t for t in em.states if t != s)
    for t in (other, (1, 1, 1)):
        msg = rf"^state {re.escape(str(t))} is not an expanded state$"
        with pytest.raises(ValueError, match=msg):
            oracle.solve_optimal(near, 0).value(t, 0)


def test_value_of_policy_decides_a_stationary_policy_once(monkeypatch):
    rng = random.Random(27)
    rm = random_bounded_mdp(rng, 2, 3)
    em = md.expand(rm.mdp)
    n_actions = len(rm.mdp.actions)
    horizon = 4
    stationary = ExplicitPolicy({s: rng.randrange(n_actions) for s in em.states}, n_actions)
    timed = TimedExplicitPolicy(
        {(s, i): rng.randrange(n_actions) for s in em.states for i in range(1, horizon + 1)},
        n_actions,
    )
    circuit = random_stationary_policy(rng, rm.mdp.num_vars, n_actions)
    calls = []
    for cls in (ExplicitPolicy, TimedExplicitPolicy, StationaryPolicy):
        decide = cls.decide_batch
        monkeypatch.setattr(
            cls, "decide_batch", lambda p, *args, decide=decide: calls.append(p) or decide(p, *args)
        )
    for p, decisions in ((stationary, 1), (timed, horizon), (circuit, 1)):
        for h in (0, 1, horizon):
            del calls[:]
            table = value_of_policy(em, p, h)
            assert len(calls) == min(h, decisions)
            assert table.values == reference_value_of_policy(em, p, h)


def test_value_of_policy_rejects_history_policy():
    rng = random.Random(24)
    rm = random_bounded_mdp(rng, 1, 1)
    b = ct.CircuitBuilder(2 * 1 + 1)
    h = HistoryPolicy(b.build([b.const(0)]), 1, horizon=1, num_vars=1)
    with pytest.raises(PolicyError, match="needs a stationary or timed policy"):
        value_of_policy(md.expand(rm.mdp), h, 1)


def test_vacuous_bound_answers_only_for_stationary_policies():
    # the optimum 152/27 needs a step-dependent policy: the best of all 3**4
    # stationary tables reaches 97/18, so "True" at bound 152/27 would be wrong
    rng = random.Random(0)
    n, k = rng.randint(1, 2), rng.randint(2, 3)
    rm = random_bounded_mdp(rng, n, k)
    horizon = rng.randint(2, 4)
    assert (n, k, horizon) == (2, 3, 4)
    em = md.expand(rm.mdp)
    s0 = tuple(rm.mdp.initial)
    best = oracle.solve_optimal(em, horizon).values[s0][horizon]
    stationary = max(
        value_of_policy(em, ExplicitPolicy(dict(zip(em.states, acts)), k), horizon).value(
            s0, horizon
        )
        for acts in itertools.product(range(k), repeat=len(em.states))
    )
    assert (best, stationary) == (Fraction(152, 27), Fraction(97, 18))
    vac = k << n
    with pytest.raises(oracle.OracleScaleError, match="optimal at every step index"):
        oracle.bounded_policy_exists(rm.mdp, horizon, vac, best)
    above = best + Fraction(1, 10**6)
    assert oracle.bounded_policy_exists(rm.mdp, horizon, vac, above) == (False, None)


@pytest.mark.parametrize("seed", [11, 12, 38])
def test_vacuous_bound_needs_an_always_optimal_action_only_where_a_state_decides(seed):
    # drawn as in the test above: some state has no action optimal at every
    # step index 1..h, yet one optimal at each step index h - d for the
    # depths d < h at which the state is reachable
    rng = random.Random(seed)
    n, k = rng.randint(1, 2), rng.randint(2, 3)
    rm = random_bounded_mdp(rng, n, k)
    horizon = rng.randint(2, 4)
    em = md.expand(rm.mdp)
    s0 = tuple(rm.mdp.initial)
    sol = oracle.solve_optimal(em, horizon)
    best = sol.values[s0][horizon]
    assert any(not set(range(k)).intersection(*opt[1:]) for opt in sol.optimal_actions.values())
    yes, witness = oracle.bounded_policy_exists(rm.mdp, horizon, k << n, best)
    assert yes and isinstance(witness, ExplicitPolicy)
    assert set(witness.mapping) == set(em.states)
    assert value_of_policy(em, witness, horizon).value(s0, horizon) == best


def test_vacuous_bound_witness_is_a_stationary_table_attaining_the_optimum():
    rng = random.Random(2)
    rm = random_bounded_mdp(rng, 2, 2)
    em = md.expand(rm.mdp)
    s0 = tuple(rm.mdp.initial)
    best = oracle.solve_optimal(em, 2).values[s0][2]
    yes, witness = oracle.bounded_policy_exists(rm.mdp, 2, 2 << 2, best)
    assert yes and isinstance(witness, ExplicitPolicy)
    assert set(witness.mapping) == set(em.states)
    assert value_of_policy(em, witness, 2).value(s0, 2) == best


def test_table_policies_reject_out_of_range_actions():
    rm = random_bounded_mdp(random.Random(4), 2, 2)
    em = md.expand(rm.mdp)
    states = [tuple(int_to_bits(k, 2)) for k in range(4)]
    for a in (-1, 2, 5):
        explicit = ExplicitPolicy({s: a for s in states}, 2)
        timed = TimedExplicitPolicy({(s, i): a for s in states for i in (1, 2)}, 2)
        for p in (explicit, timed):
            with pytest.raises(PolicyError, match=f"to action {a}, outside 0..1$"):
                value_of_policy(em, p, 2)
            with pytest.raises(PolicyError, match=f"to action {a}, outside 0..1$"):
                expected_reward_exact(rm.mdp, p, 2)
    # in range for the policy, outside the model's two actions
    wide = ExplicitPolicy({s: 2 for s in states}, 3)
    msg = r"picks action 2 at state .* with 1 steps remaining; the model has 2 actions"
    for p in (wide, TimedExplicitPolicy({(s, i): 2 for s in states for i in (1, 2)}, 3)):
        with pytest.raises(PolicyError, match=msg):
            value_of_policy(em, p, 2)


ENTRY_POINTS = {
    "expected_reward_exact": lambda m, em, p, h: expected_reward_exact(m, p, h),
    "expected_reward_mc": lambda m, em, p, h: expected_reward_mc(m, p, h, samples=10, seed=0),
    "enumerate_trajectories": lambda m, em, p, h: next(enumerate_trajectories(m, p, h)),
    "solve_optimal": lambda m, em, p, h: oracle.solve_optimal(em, h),
    "value_of_policy": lambda m, em, p, h: value_of_policy(em, p, h),
    "bounded_policy_exists micro": lambda m, em, p, h: oracle.bounded_policy_exists(
        m, h, 1, Fraction(0)
    ),
    "bounded_policy_exists vacuous": lambda m, em, p, h: oracle.bounded_policy_exists(
        m, h, 2 << 2, Fraction(0)
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_negative_horizon_is_refused_before_any_step(monkeypatch, entry):
    rm = random_bounded_mdp(random.Random(5), 2, 2)
    policy = random_stationary_policy(random.Random(6), 2, 2)
    em = md.expand(rm.mdp)

    def no_step(*args):
        raise AssertionError("stepped the model before checking the horizon")

    monkeypatch.setattr(md, "_step", no_step)
    what = "depth" if entry == "enumerate_trajectories" else "horizon"
    with pytest.raises(ValueError, match=f"^{what} must be nonnegative, got -1$"):
        ENTRY_POINTS[entry](rm.mdp, em, policy, -1)
