import random
import re
from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from smdp import circuit as ct
from smdp import mdp as md
from smdp import verify
from smdp.bits import int_to_bits, width_for_count
from smdp.cnf import Cnf
from smdp.policy import ExplicitPolicy, TimedExplicitPolicy
from smdp.random_models import (
    random_bounded_mdp,
    random_circuit,
    random_cnf,
    random_stationary_policy,
)
from smdp.reductions import unsat_to_consistency
from smdp.valuefn import (
    ConsistencyResult,
    InconsistentValueError,
    ValueCircuit,
    ValueFunctionError,
    ValueTable,
    check_consistency,
    extract_policy,
    load_valuefn,
    save_valuefn,
    value_of_policy,
)

from helpers import constant_circuit, extract_policy_reference, reward_circuit_calls


def test_value_table_base_case_is_reward():
    rng = random.Random(0)
    rm = random_bounded_mdp(rng, 2, 2)
    p = random_stationary_policy(rng, 2, 2)
    em = md.expand(rm.mdp)
    table = value_of_policy(em, p, 3)
    for s in em.states:
        assert table.value(s, 0) == md.reward(rm.mdp, s)


def test_value_recursion_identity():
    rng = random.Random(1)
    rm = random_bounded_mdp(rng, 2, 2)
    p = random_stationary_policy(rng, 2, 2)
    em = md.expand(rm.mdp)
    table = value_of_policy(em, p, 4)
    for s in em.states:
        for i in range(1, 5):
            a = p.decide(s)
            total = Fraction(md.reward(rm.mdp, s))
            for s2, pr in md.successors(rm.mdp, s, a):
                total += pr * table.value(s2, i - 1)
            assert total == table.value(s, i)


def test_consistency_accepts_realized_tables():
    rng = random.Random(2)
    for _ in range(5):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        p = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
        horizon = rng.randint(1, 3)
        em = md.expand_many(rm.mdp, sorted(rm.rewards))[0]
        table = value_of_policy(em, p, horizon)
        res = check_consistency(rm.mdp, table, horizon)
        assert res.consistent
        assert set(res.witness) == set(table.values)


def test_consistency_rejects_perturbed_tables():
    rng = random.Random(3)
    rm = random_bounded_mdp(rng, 2, 2)
    p = random_stationary_policy(rng, 2, 2)
    em = md.expand_many(rm.mdp, sorted(rm.rewards))[0]
    table = value_of_policy(em, p, 2)
    s0 = sorted(table.values)[0]
    broken = dict(table.values)
    row = list(broken[s0])
    row[2] += Fraction(1, 97)
    broken[s0] = tuple(row)
    res = check_consistency(rm.mdp, ValueTable(broken, 2), 2)
    assert not res.consistent
    assert res.counterexample is not None


def test_consistency_base_case_mismatch_reported():
    rng = random.Random(4)
    rm = random_bounded_mdp(rng, 2, 2)
    table = ValueTable(
        {s: (Fraction(rm.rewards[s] + 1),) for s in rm.rewards}, horizon=0
    )
    res = check_consistency(rm.mdp, table, 0)
    assert not res.consistent
    assert "r(s)" in res.reason


def test_extract_policy_roundtrip_identity():
    rng = random.Random(5)
    for _ in range(5):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        p = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
        horizon = rng.randint(1, 3)
        em = md.expand_many(rm.mdp, sorted(rm.rewards))[0]
        table = value_of_policy(em, p, horizon)
        mapping = {}
        for s in table.values:
            for i in range(1, horizon + 1):
                mapping[(s, i)] = extract_policy(rm.mdp, table, horizon, s, i)
        extracted = TimedExplicitPolicy(mapping, len(rm.mdp.actions))
        again = value_of_policy(em, extracted, horizon)
        assert again.values == table.values


def test_extract_policy_raises_on_unrealizable_values():
    rng = random.Random(6)
    rm = random_bounded_mdp(rng, 2, 1)
    s0 = sorted(rm.rewards)[0]
    table = ValueTable(
        {s: (Fraction(rm.rewards[s]), Fraction(10**6)) for s in rm.rewards}, 1
    )
    with pytest.raises(InconsistentValueError):
        extract_policy(rm.mdp, table, 1, s0, 1)


def test_extract_policy_reads_successors_of_a_value_circuit():
    # unsatisfiable, so the all-zero value circuit is consistent; every
    # successor of a state differs from it
    inst = unsat_to_consistency(Cnf(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))))
    assert check_consistency(inst.mdp, inst.value, inst.horizon).consistent
    for s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i in range(1, inst.horizon + 1):
            assert extract_policy(inst.mdp, inst.value, inst.horizon, s, i) == 0


def test_value_circuit_signed_reading_and_io(tmp_path):
    horizon = 2
    iw = width_for_count(horizon + 1)
    b = ct.CircuitBuilder(2 + iw)
    # value = -1 (all-ones two's complement) when the first state bit is set
    out = [b.inp(0), b.inp(0)]
    v = ValueCircuit(b.build(out), horizon, value_denominator=4, name="toy")
    assert v.value((1, 0), 0) == Fraction(-1, 4)
    assert v.value((0, 1), 2) == 0
    v2 = load_valuefn(save_valuefn(v, tmp_path))
    assert v2.name == "toy"
    assert v2.value((1, 0), 1) == Fraction(-1, 4)
    table = v2.value_table([(0, 0), (1, 1)])
    assert table.value((1, 1), 2) == Fraction(-1, 4)


def _load_declaring_width(tmp_path, width):
    manifest = save_valuefn(ValueCircuit(constant_circuit(3, 2), 1, 1), tmp_path)
    with open(manifest) as fh:
        text = fh.read()
    with open(manifest, "w") as fh:
        fh.write(text.replace("value_width 2", f"value_width {width}"))
    return load_valuefn(manifest)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp: ValueCircuit(constant_circuit(3, 2), -1, 1), "horizon must be >= 0, got -1"),
        (lambda tmp: ValueCircuit(constant_circuit(3, 2), 1, 0), "value denominator must be positive"),
        # horizon 2 takes 2 step-index bits, so 2 inputs leave no state bits
        (lambda tmp: ValueCircuit(constant_circuit(2, 2), 2, 1), "value circuit has no state inputs"),
        (lambda tmp: ValueCircuit(constant_circuit(3, 0), 1, 1), "value circuit has no outputs"),
        (
            lambda tmp: _load_declaring_width(tmp, 3),
            "declared value_width 3 does not match circuit output width 2",
        ),
    ],
    ids=["horizon", "denominator", "no-state-inputs", "no-outputs", "declared-width"],
)
def test_a_malformed_value_circuit_is_refused(tmp_path, make, message):
    with pytest.raises(ValueFunctionError, match=f"^{re.escape(message)}$"):
        make(tmp_path)


def test_roundtrip_suite_round_trips_value_circuits(monkeypatch):
    rows = verify.run_suite("roundtrip")
    assert rows and all(row.ok for row in rows)

    def wrong_denominator(path):
        E = load_valuefn(path)
        return replace(E, value_denominator=E.value_denominator + 1)

    monkeypatch.setattr(verify, "load_valuefn", wrong_denominator)
    assert not all(row.ok for row in verify.run_suite("roundtrip", cases=10))


def test_value_table_reads_wide_outputs_like_value():
    # 63 and more output bits take the exact-int path of the signed reader
    rng = random.Random(8)
    horizon = 2
    for width in (63, 64, 70):
        c = random_circuit(rng, 2 + width_for_count(horizon + 1), 12, width)
        v = ValueCircuit(c, horizon, value_denominator=3)
        states = [(0, 0), (0, 1), (1, 0), (1, 1)]
        table = v.value_table(states)
        for s in states:
            assert table.values[s] == tuple(v.value(s, i) for i in range(horizon + 1))


# ------------------------------------------------- check_consistency vs reference


def reference_check_consistency(m, E, horizon):
    """The per-state Fraction loop `check_consistency` replaced, kept as the
    test-side reference. Circuit values are read one at a time through
    `ValueCircuit.value`."""
    if isinstance(E, ValueTable):
        states, table = E.states(), E
    else:
        states = [tuple(int(b) for b in row) for row in ct.all_input_rows(m.num_vars)]
        table = ValueTable(
            {s: tuple(E.value(s, i) for i in range(E.horizon + 1)) for s in states},
            E.horizon,
        )
    rewards = md.reward_batch(m, states)
    succ_by_action = [md.successors_batch(m, states, a) for a in range(len(m.actions))]
    witness = {}
    for k, s in enumerate(states):
        if table.value(s, 0) != rewards[k]:
            return ConsistencyResult(
                False,
                counterexample=s,
                reason=f"E(s,0) = {table.value(s, 0)} but r(s) = {rewards[k]}",
            )
        chosen = None
        for a in range(len(m.actions)):
            ok = True
            for i in range(1, horizon + 1):
                total = Fraction(rewards[k])
                try:
                    for s2, p in succ_by_action[a][k]:
                        total += p * table.value(s2, i - 1)
                except ValueFunctionError:
                    ok = False
                    break
                if total != table.value(s, i):
                    ok = False
                    break
            if ok:
                chosen = a
                break
        if chosen is None:
            return ConsistencyResult(
                False,
                counterexample=s,
                reason="no action satisfies the value recursion at every step index",
            )
        witness[s] = chosen
    return ConsistencyResult(True, witness=witness)


def assert_same_verdict(m, E, horizon):
    got = check_consistency(m, E, horizon)
    want = reference_check_consistency(m, E, horizon)
    assert got == want
    return got


def realized_table(rng, rm, horizon):
    p = random_stationary_policy(rng, rm.mdp.num_vars, len(rm.mdp.actions))
    em = md.expand_many(rm.mdp, sorted(rm.rewards))[0]
    return value_of_policy(em, p, horizon)


def value_circuit_of(table):
    """A value circuit over all states reproducing a table's values."""
    n = len(next(iter(table.values)))
    L = lcm(*(v.denominator for row in table.values.values() for v in row))
    nums = {(s, i): int(v * L) for s, row in table.values.items() for i, v in enumerate(row)}
    width = max(abs(x) for x in nums.values()).bit_length() + 1
    sw = width_for_count(table.horizon + 1)
    values = []
    for row in range(1 << (n + sw)):
        s, i = tuple(int_to_bits(row >> sw, n)), row & ((1 << sw) - 1)
        values.append(nums.get((s, i), 0) & ((1 << width) - 1))
    c = ct.circuit_from_values(n + sw, width, values, name="e_table")
    return ValueCircuit(c, table.horizon, value_denominator=L)


def test_consistency_matches_reference_on_random_tables():
    rng = random.Random(9)
    verdicts = set()
    for _ in range(40):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        horizon = rng.randint(0, 3)
        table = realized_table(rng, rm, horizon)
        verdicts.add(assert_same_verdict(rm.mdp, table, horizon).consistent)
        # a shorter check of the same table
        assert_same_verdict(rm.mdp, table, rng.randint(0, horizon))
        for i in range(horizon + 1):
            s = rng.choice(table.states())
            broken = dict(table.values)
            row = list(broken[s])
            row[i] += Fraction(rng.choice((1, -1)), rng.randint(1, 7))
            broken[s] = tuple(row)
            verdicts.add(assert_same_verdict(rm.mdp, ValueTable(broken, horizon), horizon).consistent)
        partial = dict(table.values)
        del partial[rng.choice(table.states())]
        assert_same_verdict(rm.mdp, ValueTable(partial, horizon), horizon)
    assert verdicts == {True, False}


def test_consistency_matches_reference_on_value_circuits():
    rng = random.Random(10)
    verdicts = set()
    for _ in range(15):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        horizon = rng.randint(0, 2)
        table = realized_table(rng, rm, horizon)
        verdicts.add(assert_same_verdict(rm.mdp, value_circuit_of(table), horizon).consistent)
        s = rng.choice(table.states())
        broken = dict(table.values)
        row = list(broken[s])
        row[-1] += 1
        broken[s] = tuple(row)
        E = value_circuit_of(ValueTable(broken, horizon))
        verdicts.add(assert_same_verdict(rm.mdp, E, horizon).consistent)
        n, sw = rm.mdp.num_vars, width_for_count(horizon + 1)
        E = ValueCircuit(random_circuit(rng, n + sw, 10, 4), horizon, value_denominator=2)
        assert_same_verdict(rm.mdp, E, horizon)
    assert verdicts == {True, False}


def test_consistency_matches_reference_on_unsatcons():
    rng = random.Random(12)
    verdicts = set()
    for n in range(1, 9):
        for num_clauses in (1, 4, 12):
            inst = unsat_to_consistency(random_cnf(rng, n, num_clauses, clause_size=rng.randint(1, 3)))
            verdicts.add(assert_same_verdict(inst.mdp, inst.value, inst.horizon).consistent)
    assert verdicts == {True, False}


def test_consistency_is_exact_where_int64_would_wrap():
    # D = 2**32, so D * 2**32 = 2**64 vanishes in int64: a value off by
    # 2**32 would pass the recursion if the sums wrapped
    rng = random.Random(13)
    rm = random_bounded_mdp(rng, 1, 1, max_branching=1, denominator=1 << 32, reward_range=(0, 0))
    table = ValueTable({s: (Fraction(0), Fraction(0)) for s in rm.rewards}, 1)
    assert assert_same_verdict(rm.mdp, table, 1).consistent
    broken = dict(table.values)
    broken[(0,)] = (Fraction(0), Fraction(1 << 32))
    res = assert_same_verdict(rm.mdp, ValueTable(broken, 1), 1)
    assert not res.consistent and res.counterexample == (0,)


# --------------------------------------------------- extract_policy vs reference


def outcome(f, *args):
    """What a call gives: its action, or the type and text of its error."""
    try:
        return f(*args)
    except (ValueFunctionError, md.ModelError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_extraction(m, E, horizon, states):
    """`extract_policy` agrees with the scalar reference at every given state
    and every step index 1..horizon; returns the kinds of outcome seen."""
    outcomes = []
    for s in states:
        for i in range(1, horizon + 1):
            want = outcome(extract_policy_reference, m, E, horizon, s, i)
            assert outcome(extract_policy, m, E, horizon, s, i) == want, (s, i)
            outcomes.append("action" if isinstance(want, int) else want[0])
    return outcomes


def test_extract_policy_matches_reference_on_tables_and_circuits():
    rng = random.Random(17)
    seen = set()
    for _ in range(12):
        rm = random_bounded_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
        horizon = rng.randint(1, 3)
        table = realized_table(rng, rm, horizon)
        states = table.states()
        perturbed = dict(table.values)
        s = rng.choice(states)
        row = list(perturbed[s])
        row[rng.randint(0, horizon)] += Fraction(rng.choice((1, -1)), rng.randint(1, 7))
        perturbed[s] = tuple(row)
        partial = dict(table.values)
        del partial[rng.choice(states)]
        for values in (table.values, perturbed, partial):
            seen.update(assert_same_extraction(rm.mdp, ValueTable(values, horizon), horizon, states))
        every_state = [tuple(int(b) for b in row) for row in ct.all_input_rows(rm.mdp.num_vars)]
        sw = width_for_count(horizon + 1)
        noise = ValueCircuit(random_circuit(rng, rm.mdp.num_vars + sw, 10, 4), horizon, value_denominator=2)
        for E in (value_circuit_of(table), noise):
            seen.update(assert_same_extraction(rm.mdp, E, horizon, every_state))
    # matches, mismatches, and states a partial table does not cover
    assert seen == {"action", "InconsistentValueError", "ValueFunctionError"}


def test_extract_policy_is_exact_where_int64_would_wrap():
    # D = 2**32 as in the consistency case: D·2**32 wraps to 0 in int64, so
    # E(0,1) = 2**32 would match a zero successor sum
    rng = random.Random(13)
    rm = random_bounded_mdp(rng, 1, 1, max_branching=1, denominator=1 << 32, reward_range=(0, 0))
    table = ValueTable({s: (Fraction(0), Fraction(0)) for s in rm.rewards}, 1)
    broken = ValueTable({**table.values, (0,): (Fraction(0), Fraction(1 << 32))}, 1)
    assert assert_same_extraction(rm.mdp, table, 1, table.states()) == ["action", "action"]
    assert assert_same_extraction(rm.mdp, broken, 1, [(0,)]) == ["InconsistentValueError"]


def test_extract_policy_steps_every_action_before_its_verdict():
    # action 0 realizes the table, and action 1's enumerator lists the source
    # in both slots: its fault is raised where the scalar loop returned
    # action 0 before it stepped action 1
    rng = random.Random(18)
    rm = random_bounded_mdp(rng, 2, 2, max_branching=2)
    m = rm.mdp
    em = md.expand_many(m, sorted(rm.rewards))[0]
    table = value_of_policy(em, ExplicitPolicy({s: 0 for s in em.states}, 2), 2)
    n, sw = m.num_vars, m.slot_width
    twice = ct.circuit_from_values(n + sw, 1 + n, [(1 << n) | (r >> sw) for r in range(1 << (n + sw))])
    faulty = replace(m, successor_circuits=(m.successor_circuits[0], twice))
    s = table.states()[0]
    assert extract_policy(m, table, 2, s, 2) == 0
    assert extract_policy_reference(faulty, table, 2, s, 2) == 0
    with pytest.raises(md.ModelError, match=f"duplicate successor slot in enumerator for {m.actions[1]}"):
        extract_policy(faulty, table, 2, s, 2)


# ------------------------------------------------------- horizon and row checks


def test_consistency_rejects_negative_horizon():
    rng = random.Random(14)
    rm = random_bounded_mdp(rng, 2, 2)
    table = realized_table(rng, rm, 1)
    broken = {s: (row[0], row[1] + 1) for s, row in table.values.items()}
    with pytest.raises(ValueFunctionError, match="horizon -1"):
        check_consistency(rm.mdp, ValueTable(broken, 1), -1)


def test_consistency_rejects_horizon_beyond_value_function():
    rng = random.Random(15)
    rm = random_bounded_mdp(rng, 2, 2)
    table = realized_table(rng, rm, 2)
    # the first state fails at step 0, which used to be reported before the
    # out-of-range step index was noticed
    s0 = table.states()[0]
    broken = dict(table.values)
    broken[s0] = (broken[s0][0] + 1,) + broken[s0][1:]
    for E in (ValueTable(broken, 2), value_circuit_of(ValueTable(broken, 2))):
        with pytest.raises(ValueFunctionError, match="out of range 0..2"):
            check_consistency(rm.mdp, E, 3)


def test_consistency_rejects_table_states_that_are_not_model_states():
    rng = random.Random(16)
    rm = random_bounded_mdp(rng, 3, 2)
    table = realized_table(rng, rm, 1)
    row = table.values[(0, 1, 1)]
    # (0, 1, 2) was read as (0, 1, 1) and returned as a counterexample
    msg = r"^value table state \(0, 1, 2\) is not a 0/1 state of width 3 \(it has width 3\)$"
    with pytest.raises(ValueFunctionError, match=msg):
        check_consistency(rm.mdp, ValueTable({**table.values, (0, 1, 2): row}, 1), 1)
    # a table two bits wide raised CircuitError from the reward circuit
    narrow = ValueTable({(0, 0): row, (0, 1): row}, 1)
    msg = r"^value table state \(0, 0\) is not a 0/1 state of width 3 \(it has width 2\)$"
    with pytest.raises(ValueFunctionError, match=msg):
        check_consistency(rm.mdp, narrow, 1)
    # the first bad state in ascending order is named, whatever its fault
    mixed = ValueTable({(1, 1): row, (0, 1, 2): row, (0, 0, 1): row}, 1)
    with pytest.raises(ValueFunctionError, match=r"^value table state \(0, 1, 2\) "):
        check_consistency(rm.mdp, mixed, 1)


def test_value_table_rejects_bad_horizon_and_rows():
    with pytest.raises(ValueFunctionError, match="horizon must be >= 0"):
        ValueTable({(0,): ()}, -1)
    with pytest.raises(ValueFunctionError, match="has 1 values, expected 3"):
        ValueTable({(0,): (Fraction(0), Fraction(0), Fraction(0)), (1,): (Fraction(0),)}, 2)


def test_numerators_match_the_pointwise_reading():
    rng = random.Random(12)
    for horizon in (0, 1, 5, 8):
        c = random_circuit(rng, 3 + width_for_count(horizon + 1), 20, 6)
        v = ValueCircuit(c, horizon, value_denominator=5)
        for size in (0, 1, 7, 8, 9, 65):
            states = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(size)]
            nums = v._numerators(np.array(states, dtype=bool).reshape(size, 3), horizon + 1)
            assert nums.shape == (size, horizon + 1)
            assert [[Fraction(x, 5) for x in row] for row in nums.tolist()] == [
                [v.value(s, i) for i in range(horizon + 1)] for s in states
            ]


def test_check_consistency_reads_the_rewards_in_pieces_of_step_rows(monkeypatch):
    for cnf in (Cnf(4, ((1, -2), (3, 4), (-1, -4))), Cnf(4, ((1,), (-1, 2), (-2,)))):
        inst = unsat_to_consistency(cnf)
        want = check_consistency(inst.mdp, inst.value, inst.horizon)
        calls = reward_circuit_calls(monkeypatch, inst.mdp)
        monkeypatch.setattr(md, "_STEP_ROWS", 8)
        assert check_consistency(inst.mdp, inst.value, inst.horizon) == want
        assert calls == [8, 8]
        monkeypatch.undo()


def test_value_cells_count_against_the_state_limit(monkeypatch):
    rm = random_bounded_mdp(random.Random(2), 2, 2)
    E = ValueCircuit(random_circuit(random.Random(3), 2 + width_for_count(10), 5, 3), 9, 1)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "39")
    msg = r"value cells \(2\^2·10\) reached 40, over the limit 39; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        check_consistency(rm.mdp, E, 9)
    check_consistency(rm.mdp, E, 8)  # 36 cells
    msg = r"value cells \(4·10\) reached 40, over the limit 39; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        E.value_table([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert len(E.value_table([(0, 0), (1, 1)]).values) == 2


def test_value_functions_check_the_step_index_and_the_state():
    rng = random.Random(16)
    rm = random_bounded_mdp(rng, 2, 2)
    table = realized_table(rng, rm, 2)
    circuit = value_circuit_of(table)
    s = table.states()[0]
    for E in (table, circuit):
        for i in (-1, 3):
            with pytest.raises(ValueFunctionError, match=f"^step index {i} out of range 0..2$"):
                E.value(s, i)
        for i in (0, 3):
            with pytest.raises(ValueFunctionError, match=f"^step index {i} out of range 1..2$"):
                extract_policy(rm.mdp, E, 2, s, i)
    # a circuit read the bits 2 and -1 as 1, and failed on other widths
    for bad in ((0, 2), (0, -1), (0, 1, 1), (1,)):
        msg = rf"^state {re.escape(str(bad))} is not a 0/1 state of width 2 \(it has width"
        with pytest.raises(ValueFunctionError, match=msg):
            circuit.value(bad, 1)
        for E in (table, circuit):
            with pytest.raises(ValueFunctionError, match=msg):
                extract_policy(rm.mdp, E, 2, bad, 1)


def _two_bit_value_circuit():
    return ValueCircuit(random_circuit(random.Random(4), 2 + width_for_count(3), 12, 3), 2, 1)


def test_value_table_rejects_a_state_bit_that_is_not_0_or_1():
    # (0, 2) was tabulated under the key (0, 2) with the values of (0, 1)
    msg = r"^state \(0, 2\) is not a 0/1 state of width 2 \(it has width 2\)$"
    with pytest.raises(ValueFunctionError, match=msg):
        _two_bit_value_circuit().value_table([(0, 1), (0, 2)])


def test_value_table_rejects_a_state_of_another_width():
    # a 3-bit state raised CircuitError: expected 3 input columns, got 4
    msg = r"^state \(0, 1, 1\) is not a 0/1 state of width 2 \(it has width 3\)$"
    with pytest.raises(ValueFunctionError, match=msg):
        _two_bit_value_circuit().value_table([(0, 1, 1)])


def test_value_table_checks_the_shape_of_a_bool_array():
    # a 3-column array raised CircuitError: expected 4 input columns, got 5
    msg = r"^state array of shape \(1, 3\) is not \(rows, 2\) for width 2$"
    with pytest.raises(ValueFunctionError, match=msg):
        _two_bit_value_circuit().value_table(np.zeros((1, 3), bool))


def test_value_table_of_a_bool_array_is_keyed_by_int_tuples():
    # the keys were tuples of np.bool_, so states() printed numpy scalars
    v = _two_bit_value_circuit()
    table = v.value_table(np.array([[0, 1], [1, 1]], bool))
    states = table.states()
    assert states == [(0, 1), (1, 1)]
    assert all(type(bit) is int for s in states for bit in s)
    assert table == v.value_table([(0, 1), (1, 1)])


def test_value_table_rejects_a_ragged_state_list():
    # numpy raised its inhomogeneous-shape ValueError
    msg = r"^state \(1,\) is not a 0/1 state of width 2 \(it has width 1\)$"
    with pytest.raises(ValueFunctionError, match=msg):
        _two_bit_value_circuit().value_table([(0, 1), (1,)])


def test_value_table_of_no_states_is_empty():
    # numpy raised AxisError
    v = _two_bit_value_circuit()
    assert v.value_table([]) == ValueTable({}, 2)
    assert v.value_table([(1, 0)]).values[(1, 0)] == tuple(v.value((1, 0), i) for i in range(3))
