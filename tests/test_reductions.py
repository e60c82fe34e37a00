import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smdp import circuit as ct
from smdp import mdp as md
from smdp import oracle
from smdp.cnf import Cnf
from smdp.evaluator import expected_reward_exact
from smdp.reductions import (
    ReductionError,
    SequenceStateLayout,
    emajsat_to_bounded_policy,
    forallexists_to_valuefn,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
    write_instance,
    xy_sequential_policy,
)
from smdp.valuefn import check_consistency

from helpers import transition_pairs, use_quadratic_sequence_circuits


# ------------------------------------------------------------------ layout


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_layout_encode_decode_roundtrip(data):
    n = data.draw(st.integers(1, 4))
    length = data.draw(st.integers(1, 6))
    markers = data.draw(st.booleans())
    layout = SequenceStateLayout(n, length, with_markers=markers)
    k = data.draw(st.integers(0, length))
    codes = data.draw(
        st.lists(st.integers(2, layout.max_code), min_size=k, max_size=k)
    )
    assert layout.decode(layout.encode(codes)) == codes


def test_layout_rejects_overlong_sequences():
    layout = SequenceStateLayout(2, 3)
    with pytest.raises(ReductionError):
        layout.encode([2, 2, 2, 2])


def test_literal_codes():
    layout = SequenceStateLayout(3, 5, with_markers=True)
    assert layout.literal_code(1) == 2
    assert layout.literal_code(-1) == 3
    assert layout.literal_code(3) == 6
    assert layout.sat_code == 8 and layout.unsat_code == 9
    with pytest.raises(ReductionError):
        layout.literal_code(4)


# ------------------------------------------------------- next-action instances


def test_satnext_requires_three_literal_clauses():
    with pytest.raises(ReductionError, match="three literals"):
        sat_to_next_action(Cnf(2, ((1, 2),)))


def test_satnext_compact_correspondence():
    cases = [
        (Cnf(1, ((1, 1, 1),)), True),
        (Cnf(1, ((1, 1, 1), (-1, -1, -1))), False),
        (Cnf(2, ((1, 2, 2), (-1, -2, -2))), True),
        (Cnf(2, ((1, 1, 1), (-1, -1, -1), (2, 2, 2))), False),
    ]
    for cnf, satisfiable in cases:
        inst = sat_to_next_action(cnf, mode="compact")
        assert md.validate(inst.mdp) == []
        acts = oracle.best_next_action(inst.mdp, inst.steps_remaining(), inst.state)
        names = tuple(inst.mdp.actions[a] for a in acts)
        assert names == (("S",) if satisfiable else ("U",))


def test_satnext_branch_values_by_hand():
    # single-model formula over one variable: S-branch worth 5/2, U-branch 2
    inst = sat_to_next_action(Cnf(1, ((1, 1, 1),)), mode="compact")
    em, roots = md.expand_many(inst.mdp, [inst.state])
    steps = inst.steps_remaining()
    sol = oracle.solve_optimal(em, steps)
    s = tuple(inst.state)
    idx = {name: i for i, name in enumerate(inst.mdp.actions)}

    def q(a):
        total = Fraction(em.rewards[roots[0]])
        for j, p in transition_pairs(em, roots[0], idx[a]):
            total += p * sol.values[em.states[j]][steps - 1]
        return total

    assert q("U") == 2
    assert q("S") == Fraction(5, 2)
    assert q("A") == 0


def test_satnext_faithful_layout_dimensions():
    inst = sat_to_next_action(Cnf(1, ((1, 1, 1),)), mode="faithful")
    assert inst.layout.clause_block == 3 * 8  # (2n)^3 clauses of three literals
    assert inst.horizon == 3 * 8 + 1 + 1
    assert len(inst.layout.decode(inst.state)) == inst.layout.clause_block
    # the instance state repeats the lone clause across the whole block
    assert set(inst.layout.decode(inst.state)) == {inst.layout.literal_code(1)}


def test_satnext_optimal_policy_circuit_matches_oracle_at_state():
    for clauses in (((1, 2, 2),), ((1, 1, 1), (-1, -1, -1))):
        cnf = Cnf(2, clauses)
        inst = sat_to_next_action(cnf, mode="compact")
        a = inst.policy.decide(inst.state)
        want = "S" if oracle.sat_oracle(cnf) else "U"
        assert inst.mdp.actions[a] == want


# ------------------------------------------------------------ eval instances


def test_majsat_reward_equals_model_fraction():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randint(1, 5)
        clauses = []
        for _ in range(rng.randint(0, 3)):
            vs = rng.sample(range(1, n + 1), min(n, rng.randint(1, 3)))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        cnf = Cnf(n, tuple(clauses))
        inst = majsat_to_eval(cnf)
        got = expected_reward_exact(inst.mdp, inst.policy, inst.horizon).expected_reward
        assert got == Fraction(oracle.model_count(cnf), 1 << n)


def test_majsat_tautology_gets_reward_one():
    inst = majsat_to_eval(Cnf(3, ()))
    got = expected_reward_exact(inst.mdp, inst.policy, inst.horizon).expected_reward
    assert got == 1


def test_majsat_instances_validate():
    inst = majsat_to_eval(Cnf(2, ((1, 2),)))
    assert md.validate(inst.mdp) == []


# ------------------------------------------------- bounded-policy instances


def test_emajsat_correspondence_and_bounds():
    grid = [Cnf(2, c) for c in (((1,), (2,)), ((2,), (-2,)), ((1, -2), (-1, 2)))]
    for cnf in grid:
        inst = emajsat_to_bounded_policy(cnf, 1)
        assert inst.reward_bound == Fraction(1, 2)
        z = len(inst.mdp.actions) * (1 << inst.mdp.num_vars)
        got, _ = oracle.bounded_policy_exists(inst.mdp, inst.horizon, z, inst.reward_bound)
        assert got == oracle.emajsat_oracle(cnf, 1)
    faithful = emajsat_to_bounded_policy(grid[0], 1, faithful_k=True)
    assert faithful.reward_bound == 1


def test_emajsat_rejects_unbalanced_split():
    with pytest.raises(ReductionError, match="X"):
        emajsat_to_bounded_policy(Cnf(3, ((1,),)), 1)


def test_xy_sequential_policy_reward_is_extension_fraction():
    # Q = x1 and y1: choosing x1 true satisfies half the y-extensions
    cnf = Cnf(2, ((1,), (2,)))
    inst = emajsat_to_bounded_policy(cnf, 1)
    p_true = xy_sequential_policy(inst.mdp, inst.layout, [True])
    p_false = xy_sequential_policy(inst.mdp, inst.layout, [False])
    r_true = expected_reward_exact(inst.mdp, p_true, inst.horizon).expected_reward
    r_false = expected_reward_exact(inst.mdp, p_false, inst.horizon).expected_reward
    assert r_true == Fraction(1, 2)
    assert r_false == 0


# ------------------------------------------------------ consistency instances


def test_unsatcons_correspondence():
    for clauses, want in [(((1,), (-1,)), True), (((1,),), False), ((), False)]:
        cnf = Cnf(2, clauses)
        inst = unsat_to_consistency(cnf)
        res = check_consistency(inst.mdp, inst.value, inst.horizon)
        assert res.consistent == want


def test_unsatcons_successor_lists_have_n_entries():
    inst = unsat_to_consistency(Cnf(3, ((1, 2),)))
    assert md.validate(inst.mdp) == []
    for s in [(0, 0, 0), (1, 0, 1)]:
        succ = md.successors(inst.mdp, s, 0)
        assert len(succ) == 3
        assert all(p == Fraction(1, 3) for _, p in succ)
        assert all(sum(a != b for a, b in zip(s, s2)) == 1 for s2, _ in succ)


# ---------------------------------------------------- value-function instances


def test_forallexists_correspondence():
    for clauses, want in [(((1,),), True), (((2,),), False), (((-2, 1),), True)]:
        cnf = Cnf(2, clauses)
        inst = forallexists_to_valuefn(cnf, 1)
        got = False
        for bits in itertools.product((True, False), repeat=1):
            p = xy_sequential_policy(inst.mdp, inst.layout, bits)
            if expected_reward_exact(inst.mdp, p, inst.horizon).expected_reward == 1:
                got = True
        assert got == want
        assert got == oracle.forall_exists_oracle(cnf, 1)


# ------------------------------------------------------------ golden netlists


def test_reduction_circuits_are_byte_stable():
    # every circuit of a fixed set of majsat, emajsat and forallexists
    # instances: transition, reward, successor enumerators and policy
    majsat = [
        Cnf(1, ((1,),)),
        Cnf(3, ((1, -2), (2, 3), (-1, -3))),
        Cnf(4, ((1, 2, -3), (-2, 4), (3, -4, 1))),
    ]
    xy = [(Cnf(2, ((1, -2),)), 1), (Cnf(4, ((1, 3), (-2, 4), (2, -3, -4))), 2)]
    instances = [majsat_to_eval(cnf) for cnf in majsat]
    for cnf, num_x in xy:
        instances.append(emajsat_to_bounded_policy(cnf, num_x))
        instances.append(forallexists_to_valuefn(cnf, num_x))
    digest = hashlib.sha256()
    for inst in instances:
        m = inst.mdp
        for c in (m.t_circuit, m.r_circuit, *m.successor_circuits, inst.policy.circuit):
            digest.update(ct.serialize(c).encode())
    want = "ce052bf6d652fb4100d9190009b112298e3b7545107ea09f3b667fcdbddfc200"
    assert digest.hexdigest() == want


def test_every_reduction_is_byte_stable():
    # every circuit's netlist text and every instance field of all five
    # generators: next action (compact n = 1..3, faithful n = 1), majsat and
    # unsatcons (n = 1, 3, 5), emajsat at both reward bounds and forallexists
    # (num_x = 1, 2)
    satnext = [
        (Cnf(1, ((1, 1, -1),)), "compact"),
        (Cnf(2, ((1, -2, 2), (-1, 2, 2))), "compact"),
        (Cnf(3, ((1, -2, 3), (-1, 2, -3), (2, 3, 1))), "compact"),
        (Cnf(1, ((1, 1, 1),)), "faithful"),
    ]
    plain = [
        Cnf(1, ((1,),)),
        Cnf(3, ((1, -2), (2, 3), (-1, -3))),
        Cnf(5, ((1, -2, 5), (2, 3), (-4, -5, 1), (4,))),
    ]
    xy = [(Cnf(2, ((1, -2),)), 1), (Cnf(4, ((1, 3), (-2, 4), (2, -3, -4))), 2)]
    instances = [sat_to_next_action(cnf, mode=mode) for cnf, mode in satnext]
    instances += [build(cnf) for cnf in plain for build in (majsat_to_eval, unsat_to_consistency)]
    for cnf, num_x in xy:
        instances.append(emajsat_to_bounded_policy(cnf, num_x))
        instances.append(emajsat_to_bounded_policy(cnf, num_x, faithful_k=True))
        instances.append(forallexists_to_valuefn(cnf, num_x))
    digest = hashlib.sha256()
    for inst in instances:
        m = inst.mdp
        circuits = [m.t_circuit, m.r_circuit, *m.successor_circuits]
        circuits += [o.circuit for o in (inst.policy, inst.value) if o is not None]
        for c in circuits:
            digest.update(ct.serialize(c).encode())
        fields = (
            inst.name, m.var_names, m.initial, m.actions, m.prob_denominator,
            m.max_branching, inst.horizon, inst.state, inst.size_bound,
            inst.reward_bound, inst.expected,
        )
        digest.update(repr(fields).encode())
    want = "2a8c5c633239342a2ca363b76c15be0967631688586d08bb38077f97b4641b8a"
    assert digest.hexdigest() == want


def test_satnext_expansion_is_stable():
    # the explicit model of fixed next-action instances: from the encoded
    # clause-list state (compact n = 1..3, faithful n = 1) and from the
    # initial state (compact n = 1, 2)
    at_state = [
        (Cnf(1, ((1, 1, 1), (-1, -1, -1))), "compact"),
        (Cnf(2, ((1, 2, 2), (-1, -2, -2))), "compact"),
        (Cnf(3, ((1, -2, 3), (-1, 2, -3))), "compact"),
        (Cnf(1, ((1, 1, 1),)), "faithful"),
    ]
    at_initial = [Cnf(1, ((1, 1, 1),)), Cnf(2, ((1, 2, -2),))]
    runs = [(sat_to_next_action(cnf, mode=mode), True) for cnf, mode in at_state]
    runs += [(sat_to_next_action(cnf, mode="compact"), False) for cnf in at_initial]
    digest = hashlib.sha256()
    for inst, from_state in runs:
        em = md.expand(inst.mdp, inst.state if from_state else None)
        digest.update(np.array(em.states, dtype=np.uint8).tobytes())
        digest.update(repr([str(r) for r in em.rewards]).encode())
        for arrays in em.transitions:
            for arr in arrays:
                digest.update(np.asarray(arr, dtype=np.int64).tobytes())
    want = "ff11708216cfbc0ec88dbd13a47065cd4b6bbd7aae86a9baca9b60134e80b0cf"
    assert digest.hexdigest() == want


def test_reduction_circuits_are_byte_stable_over_a_wide_grid():
    # the netlist text of every transition, reward, successor, policy and
    # value circuit of: next action compact at n = 1..4 with 1..3 seeded
    # clauses and faithful at n = 1, majsat at n = 1..11, unsatcons at
    # n = 1..10, and emajsat at num_x = 1..3 with the sequential policy of
    # every X-assignment
    rng = random.Random(0)

    def cnf(n, count, width=3):
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width))
            for _ in range(count)
        ]
        return Cnf(n, tuple(clauses))

    instances = [sat_to_next_action(cnf(n, k)) for n in range(1, 5) for k in range(1, 4)]
    instances.append(sat_to_next_action(cnf(1, 1), mode="faithful"))
    instances += [majsat_to_eval(cnf(n, n, 2)) for n in range(1, 12)]
    instances += [unsat_to_consistency(cnf(n, n, 2)) for n in range(1, 11)]
    policies = []
    for num_x in range(1, 4):
        inst = emajsat_to_bounded_policy(cnf(2 * num_x, 2 * num_x, 2), num_x)
        instances.append(inst)
        for xs in itertools.product((False, True), repeat=num_x):
            policies.append(xy_sequential_policy(inst.mdp, inst.layout, xs))
    digest = hashlib.sha256()
    for inst in instances:
        m = inst.mdp
        circuits = [m.t_circuit, m.r_circuit, *m.successor_circuits]
        circuits += [o.circuit for o in (inst.policy, inst.value) if o is not None]
        for c in circuits:
            digest.update(ct.serialize(c).encode())
    for p in policies:
        digest.update(ct.serialize(p.circuit).encode())
    want = "c3e3652fceccc4b758351ac13090023908dce158897e39b7b52ce277986ed0c3"
    assert digest.hexdigest() == want


def test_sequence_circuits_match_the_quadratic_references(monkeypatch):
    # the linear-size append condition, majsat reward and enumerators against
    # the per-code slot tests, pairwise distinct-variable tests and
    # double-muxed slot bits they replace
    rng = random.Random(20)

    def random_cnf(n):  # a satisfiable one, so some full sequence is rewarded
        while True:
            clauses = []
            for _ in range(rng.randint(1, 4)):
                vs = rng.sample(range(1, n + 1), min(n, rng.randint(1, 3)))
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
            if oracle.sat_oracle(Cnf(n, tuple(clauses))):
                return Cnf(n, tuple(clauses))

    def random_3cnf(n, m):
        lits = [v for i in range(1, n + 1) for v in (i, -i)]
        return Cnf(n, tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)))

    majsat = [random_cnf(n) for n in (1, 2, 3, 4, 5, 6)]
    xy = [(random_cnf(2 * num_x), num_x) for num_x in (1, 2)]
    satnext = [random_3cnf(1, 1), random_3cnf(1, 2), random_3cnf(2, 2)]

    def build():
        return (
            [majsat_to_eval(cnf) for cnf in majsat]
            + [emajsat_to_bounded_policy(cnf, num_x) for cnf, num_x in xy]
            + [sat_to_next_action(cnf, mode="compact") for cnf in satnext]
        )

    linear = build()
    use_quadratic_sequence_circuits(monkeypatch)
    quadratic = build()

    # exhaustively, at most 20 inputs: majsat n = 1, 2 (t, r and the
    # enumerators) and n = 3 (the enumerators), emajsat num_x = 1 (t and the
    # enumerators), compact next action n = 1 with one clause (the
    # enumerators, 19 inputs)
    for k, names in [
        (0, ("t_circuit", "r_circuit")),
        (1, ("t_circuit", "r_circuit")),
        (2, ()),
        (6, ("t_circuit",)),
        (8, ()),
    ]:
        new, old = linear[k].mdp, quadratic[k].mdp
        pairs = [(getattr(new, name), getattr(old, name)) for name in names]
        pairs += zip(new.successor_circuits, old.successor_circuits, strict=True)
        for c_new, c_old in pairs:
            assert c_new.num_inputs <= ct.TABLE_INPUT_LIMIT
            assert ct.equivalent(c_new, c_old)
    # identical explicit models: majsat n = 3..6 over the closure of the last
    # four steps (the full closure for n <= 4), emajsat num_x = 1, 2, and
    # next action from the initial state (n = 1, two clauses) and from the
    # clause-list state (n = 2, two clauses)
    expand_from = {6: None, 7: None, 9: None, 10: linear[10].state}
    for k in (2, 3, 4, 5):
        n = linear[k].layout.max_length
        expand_from[k] = linear[k].layout.encode([2 * v for v in range(1, n - 3)])
    for k, root in expand_from.items():
        new, old = linear[k], quadratic[k]
        em_new, em_old = md.expand(new.mdp, root), md.expand(old.mdp, root)
        assert np.array_equal(em_new.state_array, em_old.state_array)
        assert np.array_equal(em_new.reward_array, em_old.reward_array)
        for rows_new, rows_old in zip(em_new.transitions, em_old.transitions, strict=True):
            for a, b in zip(rows_new, rows_old, strict=True):
                assert np.array_equal(a, b)
        assert em_new.reward_array.any()


def test_append_transition_grows_linearly():
    # with a slot test per code and position, t grew 3.4x from n = 8 to 16;
    # reading the appended slot once, it grows about 2.2x
    def gates(n):
        cnf = Cnf(n, ((1, -2), (2, 3), (-3, n)))
        return len(majsat_to_eval(cnf).mdp.t_circuit.gates)

    assert gates(16) < 2.5 * gates(8)


def _sizes(m):
    """Gates of t and r, of the successor circuits together, and of their
    shared program."""
    return (
        ct.size(m.t_circuit),
        ct.size(m.r_circuit),
        sum(map(ct.size, m.successor_circuits)),
        ct.size(m._successor_program),
    )


def test_majsat_circuits_grow_as_measured():
    # n = 8 to 16 doubles the sequence length and the action count. Each
    # enumerator muxes each slot bit once, so the gates per action grow
    # 145 -> 308 (2.1x) and the shared program 164 -> 355 (2.2x); the reward
    # checks each variable's presence in each slot, 367 -> 1393 (3.8x).
    def sizes(n):
        m = majsat_to_eval(Cnf(n, ((1, -2), (2, 3), (-3, n)))).mdp
        _, r, succ, shared = _sizes(m)
        return r, succ / len(m.actions), shared

    (r8, per_action8, shared8), (r16, per_action16, shared16) = sizes(8), sizes(16)
    assert per_action16 < 2.5 * per_action8
    assert shared16 < 2.5 * shared8
    assert r16 < 4.2 * r8


def test_next_action_circuits_grow_linearly():
    # n = 2 with 4 and 8 clauses: the sequence length goes 15 -> 27 (1.8x);
    # t grows 522 -> 889 (1.7x), the enumerators 1406 -> 2510 (1.8x) and the
    # shared program 658 -> 1156 (1.8x)
    def sizes(m):
        cnf = Cnf(2, ((1, -2, 2),) * m)
        t, _, succ, shared = _sizes(sat_to_next_action(cnf, mode="compact").mdp)
        return t, succ, shared

    for small, large in zip(sizes(4), sizes(8), strict=True):
        assert large < 2.0 * small


def test_xy_transitions_grow_linearly():
    # num_x = 4 to 8 doubles the sequence length: t grows 422 -> 918 (2.2x)
    # for emajsat and forallexists, which share one MDP builder
    def t_gates(build, k):
        cnf = Cnf(2 * k, ((1, -2 * k), (2, k + 1)))
        return ct.size(build(cnf, k).mdp.t_circuit)

    for build in (emajsat_to_bounded_policy, forallexists_to_valuefn):
        assert t_gates(build, 8) < 2.5 * t_gates(build, 4)


# -------------------------------------------------------------- instance files


def test_write_instance_files(tmp_path):
    inst = majsat_to_eval(Cnf(2, ((1, 2),)))
    write_instance(inst, tmp_path)
    for fname in ("mdp.manifest", "policy.manifest", "formula.cnf", "instance.txt", "expected.txt"):
        assert (tmp_path / fname).exists()
    m2, horizon = md.load_mdp(tmp_path / "mdp.manifest")
    assert horizon == inst.horizon
    from smdp.policy import load_policy

    p2 = load_policy(tmp_path / "policy.manifest")
    got = expected_reward_exact(m2, p2, horizon).expected_reward
    assert got == Fraction(3, 4)
    assert "expected_reward 3/4" in (tmp_path / "expected.txt").read_text()
