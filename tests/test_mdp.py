import hashlib
import os
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from smdp import circuit as ct
from smdp import mdp as md
from smdp import oracle
from smdp.cnf import Cnf
from smdp.random_models import random_bounded_mdp, random_circuit
from smdp.reductions import (
    emajsat_to_bounded_policy,
    majsat_to_eval,
    sat_to_next_action,
    unsat_to_consistency,
)

from helpers import (
    closure_depths,
    constant_circuit,
    shared_program_reference,
    step_reference,
    transition_pairs,
    transition_prob,
)


def make_random(seed=0, **kw):
    rng = random.Random(seed)
    return random_bounded_mdp(rng, kw.pop("num_vars", 3), kw.pop("num_actions", 2), **kw)


def test_successors_match_ground_truth_tables():
    rm = make_random(1)
    m = rm.mdp
    for (s, a), want in rm.transitions.items():
        got = md.successors(m, s, a)
        assert sorted(got) == sorted(want)


def test_transition_prob_pointwise():
    rm = make_random(2)
    m = rm.mdp
    for (s, a), pairs in list(rm.transitions.items())[:16]:
        by_state = dict(pairs)
        for row in range(1 << m.num_vars):
            s2 = tuple(int(b) for b in format(row, f"0{m.num_vars}b"))
            assert transition_prob(m, s, s2, a) == by_state.get(s2, Fraction(0))


def test_rewards_match_tables():
    rm = make_random(3)
    states = sorted(rm.rewards)
    got = md.reward_batch(rm.mdp, states)
    assert got == [rm.rewards[s] for s in states]
    for s in states[:8]:
        assert md.reward(rm.mdp, s) == rm.rewards[s]


def test_reward_batch_takes_a_bool_array():
    rm = make_random(3)
    states = sorted(rm.rewards)[:2]
    got = md.reward_batch(rm.mdp, np.array(states, dtype=bool))
    assert got == [rm.rewards[s] for s in states]
    assert md.reward_batch(rm.mdp, np.zeros((0, rm.mdp.num_vars), dtype=bool)) == []


def test_reward_batch_reads_the_rows_in_pieces(monkeypatch):
    rm = make_random(4, num_vars=4)
    rng = random.Random(4)
    states = [rng.choice(sorted(rm.rewards)) for _ in range(37)]
    want = [md.reward(rm.mdp, s) for s in states]
    calls = []
    eval_batch = ct.eval_batch

    def counting(c, inputs):
        calls.append(len(inputs))
        return eval_batch(c, inputs)

    monkeypatch.setattr(ct, "eval_batch", counting)
    monkeypatch.setattr(md, "_STEP_ROWS", 8)
    for given in (states, np.array(states, dtype=bool)):
        got = md.reward_batch(rm.mdp, given)
        assert got == want and all(type(v) is int for v in got)
    assert calls == [8, 8, 8, 8, 5] * 2
    assert md.reward_batch(rm.mdp, []) == []
    assert len(calls) == 10


# a value other than 0/1, which once read as 1, and a state one bit short
BAD_STATES = [(2, 0), (0, 5), (1,)]


@pytest.mark.parametrize("state", BAD_STATES)
def test_reward_rejects_a_state_outside_the_model(state):
    m = random_bounded_mdp(random.Random(3), 2, 2).mdp
    msg = re.escape(f"state {state} is not a 0/1 state of width 2 (it has width {len(state)})")
    with pytest.raises(md.ModelError, match=msg):
        md.reward(m, state)
    with pytest.raises(md.ModelError, match=msg):
        md.reward_batch(m, [(0, 0), state])


@pytest.mark.parametrize("state", BAD_STATES)
def test_successors_reject_a_state_outside_the_model(state):
    m = random_bounded_mdp(random.Random(3), 2, 2).mdp
    msg = re.escape(f"state {state} is not a 0/1 state of width 2 (it has width {len(state)})")
    with pytest.raises(md.ModelError, match=msg):
        md.successors(m, state, 0)
    with pytest.raises(md.ModelError, match=msg):
        md.successors_batch(m, [(0, 0), state], 1)


# a bool array of another width once reached the circuit kernel, which raised
# CircuitError: "expected (rows, 2) input array" or "expected 4 input columns"
BAD_SHAPES = [(1, 1), (1, 3), (2,)]


@pytest.mark.parametrize("shape", BAD_SHAPES, ids=str)
def test_reward_batch_checks_the_shape_of_a_bool_array(shape):
    m = random_bounded_mdp(random.Random(3), 2, 2).mdp
    msg = re.escape(f"state array of shape {shape} is not (rows, 2) for width 2")
    with pytest.raises(md.ModelError, match=msg):
        md.reward_batch(m, np.zeros(shape, bool))


@pytest.mark.parametrize("shape", BAD_SHAPES, ids=str)
def test_successors_batch_checks_the_shape_of_a_bool_array(shape):
    m = random_bounded_mdp(random.Random(3), 2, 2).mdp
    msg = re.escape(f"state array of shape {shape} is not (rows, 2) for width 2")
    with pytest.raises(md.ModelError, match=msg):
        md.successors_batch(m, np.zeros(shape, bool), 0)


def test_random_bounded_mdp_names_a_denominator_too_small_to_branch():
    msg = r"denominator=2 .* min\(max_branching=3, 2\*\*num_vars=4\)"
    with pytest.raises(ValueError, match=msg):
        random_bounded_mdp(random.Random(0), 2, 2, denominator=2)
    # one state has a single successor, so any denominator will do
    assert random_bounded_mdp(random.Random(0), 0, 2, denominator=1).mdp.num_vars == 0
    assert random_bounded_mdp(random.Random(0), 2, 2, max_branching=2, denominator=2)


def test_successors_batch_takes_a_bool_array():
    rm = make_random(1)
    states = sorted(rm.rewards)[:2]
    got = md.successors_batch(rm.mdp, np.array(states, dtype=bool), 1)
    assert got == md.successors_batch(rm.mdp, states, 1)
    assert [sorted(g) for g in got] == [sorted(rm.transitions[(s, 1)]) for s in states]
    assert md.successors_batch(rm.mdp, np.zeros((0, rm.mdp.num_vars), dtype=bool), 1) == []


def test_random_model_denominator_past_sys_maxsize():
    D = 3**40
    rm = random_bounded_mdp(random.Random(0), 2, 2, denominator=D)
    assert rm.mdp.prob_denominator == D and md.validate(rm.mdp) == []
    for (s, a), want in rm.transitions.items():
        assert sorted(md.successors(rm.mdp, s, a)) == sorted(want)
        assert sum(p for _, p in want) == 1


def test_plain_succinct_agrees_with_bounded():
    rm = make_random(4)
    m = rm.mdp
    plain = replace(m, successor_circuits=(), max_branching=0)
    for (s, a) in list(rm.transitions)[:12]:
        assert sorted(md.successors(m, s, a)) == sorted(md.successors(plain, s, a))


def test_expand_covers_reachable_closure():
    rm = make_random(5)
    em = md.expand(rm.mdp)
    assert em.states[em.initial] == tuple(rm.mdp.initial)
    # every listed transition stays inside the state set and normalizes
    for k in range(len(em.states)):
        for a in range(len(em.actions)):
            total = sum((p for _, p in transition_pairs(em, k, a)), Fraction(0))
            assert total == 1
            assert all(0 <= j < len(em.states) for j, _ in transition_pairs(em, k, a))


def test_expand_many_shares_states():
    rm = make_random(6)
    roots = sorted(rm.rewards)[:3]
    em, idx = md.expand_many(rm.mdp, roots)
    assert [em.states[i] for i in idx] == [tuple(s) for s in roots]


def test_non_normalizing_model_rejected():
    # transition circuit constantly outputs numerator 0
    b = ct.CircuitBuilder(3)
    t = b.build([b.const(0)])
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0)])
    m = md.SuccinctMdp(("x1",), (0,), ("a",), t, r, prob_denominator=2)
    with pytest.raises(md.ModelError, match="sum to"):
        md.successors(m, (0,), 0)


def test_numerator_above_denominator_rejected():
    b = ct.CircuitBuilder(3)
    t = b.build([b.const(1), b.const(1)])  # numerator 3 everywhere
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0)])
    m = md.SuccinctMdp(("x1",), (0,), ("a",), t, r, prob_denominator=2)
    with pytest.raises(md.ModelError, match="exceeds denominator"):
        md.successors(m, (0,), 0)


def test_normalization_sums_do_not_wrap():
    # five of the eight candidates get numerator D = 2**62; their sum is
    # 2**64 + D, which a 64-bit total would wrap to exactly D
    D = 1 << 62
    values = [D if (row >> 1) % 8 < 5 else 0 for row in range(1 << 7)]
    t = ct.circuit_from_values(7, 63, values)
    rb = ct.CircuitBuilder(3)
    m = md.SuccinctMdp(("x1", "x2", "x3"), (0, 0, 0), ("a",), t, rb.build([rb.const(0)]), D)
    with pytest.raises(md.ModelError, match=f"sum to {5 * D}/{D}"):
        md.successors(m, (0, 0, 0), 0)
    with pytest.raises(md.ModelError, match=f"sum to {5 * D}/{D}"):
        md.expand(m)


@pytest.mark.parametrize(
    "width,nums",
    [
        # 63 bits: 2 * (2**63 - 1) + 4 = 2**64 + 2 wraps to exactly D in 64 bits
        (63, [2**63 - 1, 2**63 - 1, 4, 0]),
        # 65 bits: 2**64 + 1 reads as 1 if the top bit is dropped, and 1 + 1 = D
        (65, [2**64 + 1, 1, 0, 0]),
    ],
)
def test_wide_numerators_rejected(width, nums):
    # plain two-variable model over D = 2; the numerator depends on s' only
    t = ct.circuit_from_values(5, width, [nums[(row >> 1) % 4] for row in range(32)])
    rb = ct.CircuitBuilder(2)
    m = md.SuccinctMdp(("x1", "x2"), (0, 0), ("a",), t, rb.build([rb.const(0)]), 2)
    msg = f"transition numerator {max(nums)} exceeds denominator 2"
    with pytest.raises(md.ModelError, match=msg):
        md.successors(m, (0, 0), 0)
    with pytest.raises(md.ModelError, match=msg):
        md.expand(m)


def test_wide_numerators_rejected_by_enumerator(tmp_path):
    # slot k lists state k; numerators 2**64 + 1 and 1 over D = 2
    t = ct.circuit_from_values(3, 65, [(2**64 + 1, 1)[(row >> 1) % 2] for row in range(8)])
    sb = ct.CircuitBuilder(2)
    m = load_bounded(tmp_path, t, sb.build([sb.const(1), sb.inp(1)]), 2, 2)
    msg = f"transition numerator {2**64 + 1} exceeds denominator 2"
    with pytest.raises(md.ModelError, match=msg):
        md.successors(m, (0,), 0)
    with pytest.raises(md.ModelError, match=msg):
        md.expand(m)


def test_wide_reward_batch_matches_reward():
    # 66-bit two's-complement rewards 3 - 2**65 and 5
    tb = ct.CircuitBuilder(3)
    rewards = ct.circuit_from_values(1, 66, [2**65 + 3, 5])
    m = md.SuccinctMdp(("x1",), (0,), ("a",), tb.build([tb.const(1)]), rewards, 2)
    assert md.reward_batch(m, [(0,), (1,)]) == [3 - 2**65, 5]
    assert [md.reward(m, (0,)), md.reward(m, (1,))] == [3 - 2**65, 5]


def test_state_and_reward_arrays_match_their_views():
    for seed in range(6):
        rm = make_random(seed, num_vars=2 + seed % 3)
        em = md.expand(rm.mdp)
        assert em.state_array.dtype == bool
        assert em.state_array.shape == (len(em.states), rm.mdp.num_vars)
        assert em.states == tuple(map(tuple, em.state_array.astype(int).tolist()))
        assert all(type(b) is int for s in em.states for b in s)
        assert em.reward_array.dtype == np.int64
        assert em.rewards == tuple(em.reward_array.tolist())
        assert em.rewards == tuple(rm.rewards[s] for s in em.states)
        assert all(type(v) is int for v in em.rewards)
    # 66-bit two's-complement rewards 3 - 2**65 and 5, as in test_wide_reward_batch_matches_reward
    tb = ct.CircuitBuilder(3)
    rewards = ct.circuit_from_values(1, 66, [2**65 + 3, 5])
    em = md.expand(md.SuccinctMdp(("x1",), (0,), ("a",), tb.build([tb.const(1)]), rewards, 2))
    assert em.states == ((0,), (1,)) and em.reward_array.dtype == object
    assert em.rewards == (3 - 2**65, 5) and all(type(v) is int for v in em.rewards)
    assert em.reward_array.tolist() == list(em.rewards)
    # each step moves to either state with probability 1/2
    sol = oracle.solve_optimal(em, 2)
    for s, r in zip(em.states, em.rewards):
        for i in range(3):
            assert sol.value(s, i) == r + Fraction(i * (8 - 2**65), 2)


def test_state_limit_env(monkeypatch):
    monkeypatch.setenv("SMDP_LIMIT_STATES", "2")
    rm = make_random(7)
    with pytest.raises(md.EnumerationLimitError):
        md.expand(rm.mdp)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "0")
    with pytest.raises(md.ModelError):
        md.state_limit()


def test_limit_errors_name_count_limit_and_knob(monkeypatch):
    m = make_random(7).mdp  # three variables
    monkeypatch.setenv("SMDP_LIMIT_STATES", "2")
    msg = r"reachable state count reached 3, over the limit 2; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        md.expand(m)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "4")
    plain = replace(m, successor_circuits=(), max_branching=0)
    msg = r"successor candidates \(2\^3\) reached 8, over the limit 4; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        md.successors(plain, m.initial, 0)


def stay_bit_mdp():
    """One bit, one action: every state is a self-loop. Its successor circuit
    lists the state itself in slot 0, so no 2**n candidates are counted."""
    b = ct.CircuitBuilder(3)
    t = b.build([b.not_(b.xor(b.inp(0), b.inp(1)))])
    rb = ct.CircuitBuilder(1)
    sb = ct.CircuitBuilder(2)
    return md.SuccinctMdp(
        ("x1",), (0,), ("stay",), t, rb.build([rb.inp(0)]), prob_denominator=1,
        successor_circuits=(sb.build([sb.const(1), sb.inp(0)]),), max_branching=1,
    )


def test_expand_many_counts_roots_against_the_limit(monkeypatch):
    m = stay_bit_mdp()
    monkeypatch.setenv("SMDP_LIMIT_STATES", "1")
    msg = r"reachable state count reached 2, over the limit 1; raise SMDP_LIMIT_STATES"
    with pytest.raises(md.EnumerationLimitError, match=msg):
        md.expand_many(m, [(0,), (1,)])
    em, roots = md.expand_many(m, [(1,), (1,)])  # a repeated root counts once
    assert em.states == ((1,),) and roots == [0, 0]


@pytest.mark.parametrize("limit", [0, -5])
def test_expand_many_rejects_a_nonpositive_limit(monkeypatch, limit):
    monkeypatch.setenv("SMDP_LIMIT_STATES", str(limit))
    with pytest.raises(md.ModelError, match=f"SMDP_LIMIT_STATES must be positive, got {limit}"):
        md.expand_many(stay_bit_mdp(), [(0,)])


@pytest.mark.parametrize("root", [(2,) * 8, (1, 0), (0,) * 9])
def test_expand_many_rejects_a_root_outside_the_model(root):
    m = majsat_to_eval(Cnf(2, ((1, 2),))).mdp
    assert m.num_vars == 8
    msg = rf"root \({root[0]}, .*\) is not a 0/1 state of width 8 \(it has width {len(root)}\)"
    with pytest.raises(md.ModelError, match=msg):
        md.expand_many(m, [m.initial, root])


def test_save_load_roundtrip(tmp_path):
    rm = make_random(8)
    manifest = md.save_mdp(replace(rm.mdp, name="random model"), tmp_path, horizon=3)
    m2, horizon = md.load_mdp(manifest)
    assert horizon == 3
    assert m2.name == "random model"
    assert m2.successor_circuits
    assert m2.actions == rm.mdp.actions
    assert m2.prob_denominator == rm.mdp.prob_denominator
    for (s, a) in list(rm.transitions)[:8]:
        assert md.successors(m2, s, a) == md.successors(rm.mdp, s, a)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"name": "x#y"}, "MDP name 'x#y'"),
        ({"name": "two  spaces"}, "MDP name 'two  spaces'"),
        ({"name": "line\nbreak"}, "MDP name 'line\\nbreak'"),
        ({"var_names": ("x 1", "x2", "x3")}, "variable name 'x 1'"),
        ({"actions": ("x y", "u2")}, "action name 'x y'"),
        ({"actions": ("a#", "u2")}, "action name 'a#'"),
        ({"actions": ("", "u2")}, "action name ''"),
        ({"actions": ("u1", "../u2")}, "action name '../u2'"),
    ],
)
def test_save_refuses_a_name_its_reader_would_not_read_back(tmp_path, change, message):
    m = replace(make_random(9, num_actions=2).mdp, **change)
    with pytest.raises(md.ModelError, match=f"^{re.escape(message)} would not read back as written"):
        md.save_mdp(m, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_checks_every_netlist_name_before_the_first_file(tmp_path):
    m = make_random(9, num_actions=2).mdp
    last = replace(m.successor_circuits[1], name="my net")
    with pytest.raises(ct.CircuitError, match="^circuit name 'my net' would not read back"):
        md.save_mdp(replace(m, successor_circuits=(m.successor_circuits[0], last)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_load_rejects_missing_fields(tmp_path):
    rm = make_random(9)
    manifest = md.save_mdp(rm.mdp, tmp_path)
    lines = [
        ln for ln in open(manifest).read().splitlines() if not ln.startswith("actions")
    ]
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(md.ModelError, match="actions"):
        md.load_mdp(manifest)


def test_load_rejects_repeated_successor_line(tmp_path):
    rm = make_random(9, num_actions=2)
    manifest = md.save_mdp(rm.mdp, tmp_path)
    lines = open(manifest).read().splitlines()
    first = next(ln for ln in lines if ln.startswith("successor u1 "))
    with open(manifest, "a") as fh:
        fh.write(first.replace("succ_u1", "succ_u2") + "\n")
    with pytest.raises(md.ModelError, match="second successor line for action u1"):
        md.load_mdp(manifest)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"initial": (0,)}, "initial state width does not match variable count"),
        ({"actions": ()}, "need at least one action"),
        ({"actions": ("u", "u")}, "action name u is repeated"),
        ({"prob_denominator": 0}, "probability denominator must be positive"),
        ({"t_circuit": constant_circuit(6, 3)}, "transition circuit takes 6 inputs, expected 7"),
        ({"r_circuit": constant_circuit(2, 4)}, "reward circuit takes 2 inputs, expected 3"),
        (
            {"r_circuit": constant_circuit(3, 0)},
            "transition and reward circuits need at least one output",
        ),
        (
            {"successor_circuits": (constant_circuit(5, 4),)},
            "need one successor circuit per action",
        ),
        ({"max_branching": 0}, "max branching must be positive"),
        (
            {"successor_circuits": (constant_circuit(4, 4), constant_circuit(5, 4))},
            "successor circuit for u1 takes 4 inputs, expected 5",
        ),
        (
            {"successor_circuits": (constant_circuit(5, 4), constant_circuit(5, 3))},
            "successor circuit for u2 has 3 outputs, expected 4",
        ),
        # a bit that is not 0/1 (last, so the index ids of the rows above stay)
        (
            {"initial": (2, 0, 0)},
            "initial state (2, 0, 0) is not a 0/1 state of width 3 (it has width 3)",
        ),
    ],
)
def test_a_model_with_mismatched_parts_is_refused(change, message):
    m = make_random(9, num_actions=2).mdp  # 3 state bits, 2 actions, branching 3
    with pytest.raises(md.ModelError, match=f"^{re.escape(message)}$"):
        replace(m, **change)


@pytest.mark.parametrize(
    "pattern, repl, message",
    [
        (r"branching 3", "branches 3", r"line 10: malformed successor line"),
        (r"successor u2 .*\n", "", r"successor lines must cover every action exactly once"),
        (r"(successor u2 .* branching )3", r"\g<1>2", r"successor lines disagree on branching"),
        (r"init 001", "init 0a1", r"bad init bitstring '0a1'"),
        # one action named twice, with one successor line for it
        (
            r"(?s)actions u1 u2(.*)successor u2 [^\n]*\n",
            r"actions u1 u1\1",
            "action name u1 is repeated",
        ),
        (r"prob_width 3", "prob_width 4", "declared prob_width does not match transition circuit"),
        (r"reward_width 4", "reward_width 2", "declared reward_width does not match reward circuit"),
        # a misspelt key is refused, not dropped
        (r"reward_width 4", "reward_wdth 4", "line 7: unknown MDP manifest key 'reward_wdth'"),
    ],
)
def test_load_refuses_a_manifest_that_disagrees_with_itself(tmp_path, pattern, repl, message):
    manifest = md.save_mdp(make_random(9, num_actions=2).mdp, tmp_path)
    with open(manifest) as fh:
        text = fh.read()
    with open(manifest, "w") as fh:
        fh.write(re.sub(pattern, repl, text, count=1))
    with pytest.raises(md.ModelError, match=f"^{message}$"):
        md.load_mdp(manifest)


def test_load_rejects_repeated_key(tmp_path):
    rm = make_random(9)
    manifest = md.save_mdp(rm.mdp, tmp_path, horizon=3)
    with open(manifest, "a") as fh:
        fh.write("horizon 5\n")
    with pytest.raises(md.ModelError, match="second 'horizon' line"):
        md.load_mdp(manifest)


def test_load_refuses_a_manifest_followed_by_the_tail_of_a_longer_one(tmp_path):
    # a write cut short after the whole new text leaves the old file's last
    # bytes behind it: here the end of the older manifest's `horizon 4` line
    m = make_random(9).mdp
    old = open(md.save_mdp(replace(m, name="model12"), tmp_path / "old", horizon=4)).read()
    manifest = md.save_mdp(replace(m, name="mo"), tmp_path / "new", horizon=4)
    new = open(manifest).read()
    assert old[len(new) :] == "on 4\n"
    with open(manifest, "w") as fh:
        fh.write(new + old[len(new) :])
    lineno = new.count("\n") + 1
    with pytest.raises(md.ModelError, match=f"^line {lineno}: unknown MDP manifest key 'on'$"):
        md.load_mdp(manifest)


def test_save_into_the_empty_path_writes_the_current_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    m = make_random(9).mdp
    assert md.save_mdp(m, "") == "mdp.manifest"
    assert md.load_mdp(tmp_path / "mdp.manifest")[0].var_names == m.var_names


def test_validate_passes_on_generated_models():
    for seed in range(3):
        rm = make_random(seed)
        assert md.validate(rm.mdp) == []


def test_validate_reports_enumerator_mismatch():
    rm = make_random(10)
    m = rm.mdp
    # swap successor circuits between two actions with different dynamics
    broken = replace(
        m, successor_circuits=(m.successor_circuits[1], m.successor_circuits[0])
    )
    assert md.validate(broken) != []


def load_bounded(tmp_path, t, succ, branching, D):
    """One-variable, one-action model whose successors are listed by `succ`,
    built through a manifest so the test does not depend on how the model
    type spells its successor circuits."""
    rb = ct.CircuitBuilder(1)
    base = md.SuccinctMdp(("x1",), (0,), ("a",), t, rb.build([rb.const(0)]), D)
    manifest = md.save_mdp(base, tmp_path)
    ct.write_netlist(succ, os.path.join(tmp_path, "succ_a.net"))
    with open(manifest, "a") as fh:
        fh.write(f"successor a succ_a.net branching {branching}\n")
    return md.load_mdp(manifest)[0]


def test_enumerator_duplicate_slot_rejected(tmp_path):
    # both slots list state 0, each with numerator 1 of 2
    tb = ct.CircuitBuilder(3)
    t = tb.build([tb.const(0), tb.const(1)])
    sb = ct.CircuitBuilder(2)
    succ = sb.build([sb.const(1), sb.const(0)])
    m = load_bounded(tmp_path, t, succ, 2, 2)
    msg = "duplicate successor slot in enumerator for a"
    with pytest.raises(md.ModelError, match=msg):
        md.successors(m, (0,), 0)
    with pytest.raises(md.ModelError, match=msg):
        md.expand(m)


def test_enumerator_zero_probability_state_rejected(tmp_path):
    # slot k lists state k, but only state 0 has positive probability
    tb = ct.CircuitBuilder(3)
    t = tb.build([tb.not_(tb.inp(1)), tb.const(0)])
    sb = ct.CircuitBuilder(2)
    succ = sb.build([sb.const(1), sb.inp(1)])
    m = load_bounded(tmp_path, t, succ, 2, 2)
    msg = "successor enumerator for a lists a zero-probability state"
    with pytest.raises(md.ModelError, match=msg):
        md.successors(m, (0,), 0)
    with pytest.raises(md.ModelError, match=msg):
        md.expand(m)


def test_expand_matches_ground_truth_tables():
    for seed in (11, 12, 13):
        rm = make_random(seed, num_vars=3, num_actions=3)
        em = md.expand(rm.mdp)
        for k, s in enumerate(em.states):
            assert em.rewards[k] == rm.rewards[s]
            for a in range(len(em.actions)):
                got = sorted((em.states[j], p) for j, p in transition_pairs(em, k, a))
                assert got == sorted(rm.transitions[(s, a)])


def _step_digest(step, models, frontiers):
    """One SHA-256 over each (model, frontier, action) step: its rows and
    their dtypes, or its error message."""
    h = hashlib.sha256()
    for m in models:
        for arr in frontiers[m.num_vars]:
            for a in range(len(m.actions)):
                try:
                    src, succ, nums = step(m, arr, a)
                    out = (src.dtype.str, src.tolist(), succ.dtype.str, succ.shape,
                           succ.tobytes(), nums.dtype.str, nums.tolist())
                except md.ModelError as exc:
                    out = ("error", str(exc))
                h.update(repr(out).encode())
    return h.hexdigest()


def _faulty_variants(m, rng):
    """Models whose step fails in each checked way, plus random circuits
    in place of the enumerators and of the transition circuit."""
    n, sw, B = m.num_vars, m.slot_width, m.max_branching
    valid = 1 << n
    # rows are [s bits | slot bits]; every slot lists the source itself
    twice = ct.circuit_from_values(
        n + sw, 1 + n, [valid | (r >> sw) for r in range(1 << (n + sw))]
    )
    # slot k lists state k: distinct, mostly of probability zero
    slots = [r & ((1 << sw) - 1) for r in range(1 << (n + sw))]
    zeros = ct.circuit_from_values(
        n + sw, 1 + n, [valid | k if k < min(B, 1 << n) else 0 for k in slots]
    )
    tw, pw = m.t_circuit.num_inputs, m.prob_num_width
    over = ct.circuit_from_values(tw, pw, [(1 << pw) - 1] * (1 << tw))
    one = ct.circuit_from_values(tw, pw, [1] * (1 << tw))
    out = [
        replace(m, successor_circuits=(twice,) * len(m.actions)),
        replace(m, successor_circuits=(zeros,) * len(m.actions)),
        replace(m, t_circuit=over),
        replace(m, t_circuit=one),
    ]
    for _ in range(2):
        enum = tuple(random_circuit(rng, n + sw, 8, n + 1) for _ in m.actions)
        out.append(replace(m, successor_circuits=enum))
        out.append(replace(m, t_circuit=random_circuit(rng, tw, 10, pw)))
    return out


def test_step_matches_the_bool_array_reference():
    rng = random.Random(10)
    models = []
    for seed in range(12):
        rm = make_random(
            seed,
            num_vars=1 + seed % 4,
            num_actions=1 + seed % 3,
            max_branching=2 + seed % 4,
            denominator=(1 << 70) if seed == 5 else 6 + seed % 5,  # 2**70: exact-int rows
        )
        models += [rm.mdp, replace(rm.mdp, successor_circuits=(), max_branching=0)]
        models += _faulty_variants(rm.mdp, rng)
    frontiers = {}
    for n in range(1, 5):
        frontiers[n] = [
            np.array([[rng.randrange(2) for _ in range(n)] for _ in range(size)], dtype=bool)
            .reshape(size, n)
            for size in (0, 1, 7, 8, 9, 63, 64, 65)  # across the byte-block boundaries
        ] + [ct.all_input_rows(n)]
    want = _step_digest(step_reference, models, frontiers)
    assert _step_digest(md._step, models, frontiers) == want


def test_faulty_enumerators_fail_in_each_checked_way():
    m = make_random(4, num_vars=3, max_branching=3).mdp
    errors = set()
    for bad in _faulty_variants(m, random.Random(0))[:4]:
        with pytest.raises(md.ModelError) as info:
            md._step(bad, ct.all_input_rows(3), 0)
        errors.add(str(info.value).split(" ")[0])
    assert errors == {"duplicate", "successor", "transition", "probabilities"}


def _step_one_action_at_a_time(m, arr, acts):
    """`step_reference` once per action, in order of first use, with each
    action's rows put back at their sources: the rows `md._step` gives for
    per-row actions, or the error the loop meets first."""
    parts = []
    for a in dict.fromkeys(acts.tolist()):
        rows = np.flatnonzero(acts == a)
        src, succ, nums = step_reference(m, arr[rows], a)
        parts.append((rows[src], succ, nums))
    if not parts:
        return step_reference(m, arr, 0)  # no rows: the empty result
    src, succ, nums = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(src, kind="stable")
    return src[order], succ[order], nums[order]


@pytest.mark.parametrize("step_rows", [8, 1 << 16])
def test_step_with_per_row_actions_matches_one_call_per_action(monkeypatch, step_rows):
    rng = random.Random(11)
    models = []
    for seed in range(12):
        rm = make_random(
            seed,
            num_vars=1 + seed % 4,
            num_actions=1 + seed % 3,
            max_branching=2 + seed % 4,
            denominator=(1 << 70) if seed == 5 else 6 + seed % 5,
        )
        models += [rm.mdp, replace(rm.mdp, successor_circuits=(), max_branching=0)]
        models += _faulty_variants(rm.mdp, rng)
    cases = []
    for m in models:
        n, k = m.num_vars, len(m.actions)
        for size in (0, 1, 7, 8, 9, 63, 64, 65):
            arr = np.array([[rng.randrange(2) for _ in range(n)] for _ in range(size)], dtype=bool)
            arr = arr.reshape(size, n)
            # a random subset of the actions, so some actions have no rows; and
            # now and then an index past the last action
            used = rng.sample(range(k + 1), rng.randint(1, k + 1)) if rng.random() < 0.3 else (
                rng.sample(range(k), rng.randint(1, k))
            )
            acts = np.array([rng.choice(used) for _ in range(size)], dtype=np.int64)
            cases.append((m, arr, acts))

    def outcome(step, m, arr, acts):
        try:
            src, succ, nums = step(m, arr, acts)
        except md.ModelError as exc:
            return "error", str(exc)
        return (src.dtype.str, src.tolist(), succ.dtype.str, succ.shape, succ.tobytes(),
                nums.dtype.str, nums.tolist())

    # the reference steps each action in one piece
    want = [outcome(_step_one_action_at_a_time, *case) for case in cases]
    monkeypatch.setattr(md, "_STEP_ROWS", step_rows)  # 8 rows cut most steps into pieces
    assert [outcome(md._step, *case) for case in cases] == want
    assert sum(row[0] == "error" for row in want) > 50  # the faults are met


def test_a_step_with_one_action_per_row_is_one_masked_piece(monkeypatch):
    m = random_bounded_mdp(random.Random(3), 6, 4, max_branching=3).mdp
    rows = np.random.default_rng(3).random((24, 6)) < 0.5
    acts = np.arange(24) % 4
    calls = {"t": 0, "successors": 0}
    eval_batch = ct.eval_batch

    def counting(c, inputs):
        if c is m.t_circuit:
            calls["t"] += 1
        elif c is m._successor_program or any(c is e for e in m.successor_circuits):
            calls["successors"] += 1
        return eval_batch(c, inputs)

    want = _step_one_action_at_a_time(m, rows, acts)
    with monkeypatch.context() as patch:
        patch.setattr(ct, "eval_batch", counting)
        got = md._step(m, rows, acts)
    assert calls == {"t": 1, "successors": 1}  # one piece, not one per action
    assert [arr.tolist() for arr in got] == [arr.tolist() for arr in want]
    # one bit, D = 2: every state stays put, except that action b from
    # state 1 stays with 1/2 only; no row is checked under an action it does
    # not take
    t_values = [(1 if (a, s) == (1, 1) else 2) * (s == s2)
                for s in (0, 1) for s2 in (0, 1) for a in (0, 1)]
    stay = ct.circuit_from_values(2, 2, [2 | s if slot == 0 else 0
                                         for s in (0, 1) for slot in (0, 1)])
    one_bad = md.SuccinctMdp(
        ("x1",), (0,), ("a", "b"),
        ct.circuit_from_values(3, 2, t_values), ct.circuit_from_values(1, 1, [0, 0]),
        prob_denominator=2, successor_circuits=(stay, stay), max_branching=1,
    )
    states = np.array([[1], [0]], bool)
    src, succ, nums = md._step(one_bad, states, np.array([0, 1]))
    assert (src.tolist(), succ.tolist(), nums.tolist()) == ([0, 1], [[True], [False]], [2, 2])
    with pytest.raises(md.ModelError, match=re.escape("from state (1,) under b sum to 1/2")):
        md._step(one_bad, states, np.array([1, 1]))


def _pieces(m, states, rows, actions):
    B, index_width = md._candidates(m)
    return md._step_piece(m, states, rows, actions, B, index_width)


def _piece_rows(piece):
    return [(b, src.tolist(), succ.tobytes(), succ.shape, nums.dtype.str, nums.tolist(), fault)
            for b, src, succ, nums, fault in piece]


def test_one_piece_under_every_action_matches_one_piece_per_action():
    rng = random.Random(13)
    models = []
    for seed in range(10):
        rm = make_random(
            seed,
            num_vars=1 + seed % 4,
            num_actions=2 + seed % 3,
            max_branching=2 + seed % 4,
            denominator=(1 << 70) if seed == 5 else 6 + seed % 5,
        )
        models += [rm.mdp, replace(rm.mdp, successor_circuits=(), max_branching=0)]
        models += _faulty_variants(rm.mdp, rng)
    ranks, mixed = set(), 0
    for m in models:
        n, k = m.num_vars, len(m.actions)
        for size in (1, 7, 9, 65):
            states = np.array([[rng.randrange(2) for _ in range(n)] for _ in range(size)], bool)
            states = states.reshape(size, n)
            for rows in (np.arange(size), np.flatnonzero(np.arange(size) % 3 != 1)):
                got = _piece_rows(_pieces(m, states, rows, list(range(k))))
                want = [row for a in range(k) for row in _piece_rows(_pieces(m, states, rows, [a]))]
                assert got == want
                faults = [row[-1] for row in got]
                ranks |= {fault[0] for fault in faults if fault is not None}
                mixed += None in faults and faults != [None] * k
    # every fault rank is met, and some pieces fault under some actions only
    assert ranks == {0, 1, 2, 3} and mixed > 10


def _slot_listing_mdp(listings):
    """One variable, one action per entry of `listings`, two slots: action a
    lists state ``listings[a][slot]`` in each slot, from either source, each
    with probability 1/2."""
    tb = ct.CircuitBuilder(3)
    t = tb.build([tb.const(0), tb.const(1)])
    rb = ct.CircuitBuilder(1)
    enumerators = tuple(
        ct.circuit_from_values(2, 2, [2 | listed[r & 1] for r in range(4)]) for listed in listings
    )
    return md.SuccinctMdp(
        ("x1",), (0,), tuple(f"a{a}" for a in range(len(listings))), t, rb.build([rb.const(0)]),
        2, successor_circuits=enumerators, max_branching=2,
    )


def test_a_duplicate_slot_is_checked_within_each_action_blocks():
    states = np.array([[0], [1], [1]] * 3, dtype=bool)  # 9 rows: two byte blocks per slot
    rows = np.arange(len(states))
    # action 0's last slot and action 1's first slot both list state 1
    m = _slot_listing_mdp([(0, 1), (1, 0)])
    piece = _pieces(m, states, rows, [0, 1])
    assert [fault for *_, fault in piece] == [None, None]
    assert [len(src) for _, src, *_ in piece] == [18, 18]
    dup = "duplicate successor slot in enumerator for"
    # a real duplicate in action 1 alone, and then in action 0 alone
    for listings, want in ([(0, 1), (1, 1)], [None, (0, f"{dup} a1")]), (
        [(0, 0), (1, 0)], [(0, f"{dup} a0"), None]
    ):
        piece = _pieces(_slot_listing_mdp(listings), states, rows, [0, 1])
        assert [fault for *_, fault in piece] == want


def _explicit(em):
    return (em.states, em.initial, em.actions, em.denominator, em.rewards,
            [[(arr.dtype.str, arr.tolist()) for arr in arrays] for arrays in em.transitions])


def _expansion_cases():
    """(model, roots) pairs: random bounded models and their plain variants,
    and the next-action states of two formulas that share one circuit MDP."""
    rng = random.Random(12)
    cases = []
    for seed in range(8):
        m = make_random(seed, num_vars=2 + seed % 3, num_actions=1 + seed % 3).mdp
        for variant in (m, replace(m, successor_circuits=(), max_branching=0)):
            roots = [tuple(rng.randrange(2) for _ in range(variant.num_vars)) for _ in range(3)]
            cases.append((variant, roots))
    inst = sat_to_next_action(Cnf(2, ((1, 2, 2), (-1, -2, -2))), mode="compact")
    other = [inst.layout.literal_code(lit) for lit in (1, -2, 2, -1, 2, 1)]
    cases.append((inst.mdp, [inst.state, inst.layout.encode(other)]))
    return cases


def test_expand_many_in_small_chunks_gives_the_same_model(monkeypatch):
    cases = _expansion_cases()

    def outcome(m, roots):
        try:
            em, idx = md.expand_many(m, roots)
        except md.ModelError as exc:
            return str(exc)
        return _explicit(em), idx

    for limit in (None, "6"):  # and with the state limit tripped in a layer
        if limit is not None:
            monkeypatch.setenv("SMDP_LIMIT_STATES", limit)
        want = [outcome(m, roots) for m, roots in cases]
        with monkeypatch.context() as patch:
            patch.setattr(md, "_STEP_ROWS", 8)
            assert [outcome(m, roots) for m, roots in cases] == want


def test_expand_many_takes_a_bool_array_of_roots():
    # `if not roots` raised numpy's ambiguous-truth-value ValueError
    def outcome(m, roots):
        try:
            em, idx = md.expand_many(m, roots)
        except md.ModelError as exc:
            return str(exc)
        return _explicit(em), idx

    for m, roots in _expansion_cases():
        for given in (roots, roots[:1]):
            assert outcome(m, np.array(given, dtype=bool)) == outcome(m, given)


def test_expand_many_rejects_an_empty_array_of_roots():
    with pytest.raises(md.ModelError, match="^need at least one root state$"):
        md.expand_many(stay_bit_mdp(), np.zeros((0, 1), bool))


def _netlist_enumerators(rng, num_inputs, num_outputs, count):
    """Circuits parsed from netlists with CONST gates and repeated gates:
    each circuit starts with the same four gates, and repeats some of its
    own gates with the operands swapped."""

    def random_gate(gates):
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(len(gates))]
        kind = rng.choice(("AND", "OR", "XOR", "NOT"))
        return kind, (rng.choice(refs),) if kind == "NOT" else (rng.choice(refs), rng.choice(refs))

    prefix = []
    for _ in range(4):
        prefix.append(random_gate(prefix))
    circuits = []
    for _ in range(count):
        gates = list(prefix)
        for _ in range(10):
            roll = rng.random()
            if roll < 0.2:
                gates.append((rng.choice(("CONST0", "CONST1")), ()))
            elif roll < 0.45:
                kind, args = rng.choice(gates)
                gates.append((kind, args[::-1]))
            else:
                gates.append(random_gate(gates))
        refs = [f"i{k}" for k in range(num_inputs)] + [f"g{j}" for j in range(len(gates))]
        lines = [f"inputs {num_inputs}"]
        lines += [" ".join([f"gate g{j}", kind, *args]) for j, (kind, args) in enumerate(gates)]
        lines.append("outputs " + " ".join(rng.choice(refs) for _ in range(num_outputs)))
        circuits.append(ct.parse("\n".join(lines)))
    return circuits


def _shared_program_cases(source, rng):
    """(circuits, their shared program) pairs of one kind of source."""
    if source == "reductions":
        models = [
            majsat_to_eval(Cnf(4, ((1, -2), (2, 3), (-3, 4)))).mdp,
            sat_to_next_action(Cnf(2, ((1, 2, -1), (-2, -1, 1))), mode="compact").mdp,
            emajsat_to_bounded_policy(Cnf(4, ((1, 3), (-2, 4))), 2).mdp,
            unsat_to_consistency(Cnf(3, ((1, 2),))).mdp,
        ]
    elif source == "random":
        models = [
            make_random(
                seed, num_vars=1 + seed % 4, num_actions=1 + seed % 4, max_branching=2 + seed % 3
            ).mdp
            for seed in range(8)
        ]
    else:
        return [
            (cs, ct.shared_program(cs))
            for cs in (_netlist_enumerators(rng, k, 1 + k, 1 + k) for k in range(1, 6))
        ]
    for m in models:
        assert m._successor_program is m._successor_program  # built once per model
    return [(m.successor_circuits, m._successor_program) for m in models]


@pytest.mark.parametrize("source", ["reductions", "random", "netlist"])
def test_shared_successor_program_slices_match_each_enumerator(source):
    rng = random.Random(21)
    merged = 0
    for circuits, program in _shared_program_cases(source, rng):
        for rows in (1, 9, 200):
            words = [rng.getrandbits(rows) for _ in range(program.num_inputs)]
            out = ct.eval_batch(program, ct.Columns(words, rows)).words
            at = 0
            for c in circuits:
                want = ct.eval_batch(c, ct.Columns(words, rows)).words
                assert out[at : at + c.num_outputs] == want
                at += c.num_outputs
            assert at == len(out)
        assert ct.size(program) <= sum(map(ct.size, circuits))
        merged += ct.size(program) < sum(map(ct.size, circuits))
    assert merged >= 3  # the cases hold gates that repeat across or within circuits


def _slot_ordered(program):
    """A program's instructions, the operands of AND, OR and XOR in slot
    order, and its output slots."""
    commutative = (ct._AND, ct._OR, ct._XOR)
    return [
        (op, *sorted((a, b))) if op in commutative else (op, a, b)
        for op, a, b in zip(*program._program)
    ], program._output_slots


def _differential_models():
    """Models from every reduction at a few sizes, and random models."""
    rng = random.Random(30)
    for n, k in ((1, 1), (2, 3), (2, 5), (3, 2)):
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)] for _ in range(k)]
        cnf = Cnf(n, tuple(map(tuple, clauses)))
        yield sat_to_next_action(cnf, mode="compact").mdp
        yield majsat_to_eval(cnf).mdp
        yield emajsat_to_bounded_policy(Cnf(2 * n, cnf.clauses), n).mdp
        yield unsat_to_consistency(cnf).mdp
    for seed in range(20):
        yield make_random(
            seed, num_vars=1 + seed % 4, num_actions=1 + seed % 4, max_branching=2 + seed % 3
        ).mdp


def test_shared_program_merges_as_the_instruction_level_reference():
    models = 0
    for m in _differential_models():
        circuits = m.successor_circuits
        if not circuits:
            continue
        got, want = ct.shared_program(circuits), shared_program_reference(circuits)
        assert ct.size(got) == ct.size(want)
        assert _slot_ordered(got) == _slot_ordered(want)
        models += 1
    assert models >= 30


def test_expand_many_steps_every_action_of_a_layer_in_one_successor_call(monkeypatch):
    inst = sat_to_next_action(Cnf(1, ((1, -1, 1), (-1, -1, -1))), mode="compact")
    m = inst.mdp
    calls = {"shared": 0, "own": 0}
    eval_batch = ct.eval_batch

    def counting(c, inputs):
        if c is m._successor_program:
            calls["shared"] += 1
        elif any(c is e for e in m.successor_circuits):
            calls["own"] += 1
        return eval_batch(c, inputs)

    monkeypatch.setattr(ct, "eval_batch", counting)
    h = inst.steps_remaining()
    em = md.expand_many(m, [inst.state], depth=h)[0]
    assert calls == {"shared": h, "own": 0}  # one call per stepped layer
    monkeypatch.setattr(md, "_STEP_ROWS", 8)  # pieces that cut the layers' rows
    small = md.expand_many(m, [inst.state], depth=h)[0]
    assert calls["own"] == 0 and _explicit(small) == _explicit(em)


@pytest.mark.parametrize("step_rows", [8, 1 << 16])
def test_expand_many_to_a_depth_steps_the_states_fewer_steps_away(monkeypatch, step_rows):
    monkeypatch.setattr(md, "_STEP_ROWS", step_rows)
    tripped = 0
    for m, roots in _expansion_cases():
        full, idx = md.expand_many(m, roots)
        depths = closure_depths(full, idx)
        for d in range(5):
            near = int((depths <= d).sum())
            em, got_idx = md.expand_many(m, roots, depth=d)
            # the states within d steps, numbered as the full closure numbers them
            assert (depths[:near] <= d).all()
            assert em.states == full.states[:near] and em.rewards == full.rewards[:near]
            assert got_idx == idx
            for rows, full_rows in zip(em.transitions, full.transitions):
                stepped = depths[full_rows[0]] < d
                assert [(arr.dtype, arr.tolist()) for arr in rows] == [
                    (arr.dtype, arr[stepped].tolist()) for arr in full_rows
                ]
            if not m.successor_circuits:
                continue  # a limit of 6 is below their 2**n candidates
            # the state limit trips inside the bounded layers, as in the full closure
            with monkeypatch.context() as patch:
                patch.setenv("SMDP_LIMIT_STATES", "6")
                if near > 6:
                    tripped += 1
                    msg = "reachable state count reached 7, over the limit 6"
                    with pytest.raises(md.EnumerationLimitError, match=msg):
                        md.expand_many(m, roots, depth=d)
                else:
                    assert _explicit(md.expand_many(m, roots, depth=d)[0]) == _explicit(em)
    assert tripped


def test_expand_many_checks_its_depth():
    m = make_random(3, num_actions=3).mdp
    with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
        md.expand_many(m, [m.initial], depth=-1)
    roots = [(1, 0, 1), (0, 1, 1), (1, 0, 1)]
    em, idx = md.expand_many(m, roots, depth=0)
    assert em.states == tuple(dict.fromkeys(map(tuple, roots))) and idx == [0, 1, 0]
    for rows in em.transitions:
        assert [(arr.dtype, len(arr)) for arr in rows] == [(np.dtype(np.int64), 0)] * 3
    sol = oracle.solve_optimal(em, 0)
    assert [sol.value(s, 0) for s in em.states] == list(em.rewards)


def counter_mdp(fault_at=None):
    """Two bits, one action: state k steps to k + 1, and 3 stays, so state k
    is first reached k steps from 0. The successor circuit lists that one
    successor; at state `fault_at` its numerator is 1, not D = 2."""
    t_values = [
        (1 if s == fault_at else 2) * (s2 == min(s + 1, 3))
        for s in range(4) for s2 in range(4) for _ in (0, 1)
    ]
    succ_values = [4 | min(s + 1, 3) if slot == 0 else 0 for s in range(4) for slot in (0, 1)]
    return md.SuccinctMdp(
        ("x1", "x2"), (0, 0), ("step",),
        ct.circuit_from_values(5, 2, t_values), ct.circuit_from_values(2, 3, [0, 1, 2, 3]),
        prob_denominator=2,
        successor_circuits=(ct.circuit_from_values(3, 3, succ_values),), max_branching=1,
    )


def test_a_fault_or_the_limit_beyond_the_horizon_is_not_met(monkeypatch):
    faulty = counter_mdp(fault_at=2)
    for h in (1, 2):
        assert oracle.best_next_action(faulty, h, (0, 0)) == (0,)
    msg = re.escape("probabilities from state (1, 0) under step sum to 1/2, not 1")
    with pytest.raises(md.ModelError, match=msg):
        oracle.best_next_action(faulty, 3, (0, 0))
    with pytest.raises(md.ModelError, match=msg):
        md.expand(faulty)
    # the full closure has 4 states, the states within 2 steps 3
    monkeypatch.setenv("SMDP_LIMIT_STATES", "3")
    with pytest.raises(md.EnumerationLimitError):
        md.expand(counter_mdp())
    assert oracle.best_next_action(counter_mdp(), 2, (0, 0)) == (0,)


@pytest.mark.parametrize("step_rows", [8, 1 << 16])
def test_expand_raises_the_error_of_one_step_per_action(monkeypatch, step_rows):
    monkeypatch.setattr(md, "_STEP_ROWS", step_rows)
    m = make_random(4, num_vars=3, num_actions=3, max_branching=3).mdp
    variants = _faulty_variants(m, random.Random(0))
    # these enumerators fail under every action: the lowest action's error
    for bad, want in zip(variants, ["duplicate successor slot in enumerator for u1",
                                    "successor enumerator for u1 lists a zero-probability",
                                    "transition numerator 7 exceeds denominator 6",
                                    "probabilities from state (0, 0, 1) under u1 sum to 1/6"]):
        with pytest.raises(md.ModelError, match=re.escape(want)):
            md.expand(bad)
    # only u2 lists a state twice, but the successors of u1 pass the state
    # limit first: one step per action numbers them before u2 steps
    twice = replace(m, successor_circuits=(m.successor_circuits[0], variants[0].successor_circuits[1],
                                           m.successor_circuits[2]))
    with pytest.raises(md.ModelError, match="duplicate successor slot in enumerator for u2"):
        md.expand(twice)
    monkeypatch.setenv("SMDP_LIMIT_STATES", "1")
    with pytest.raises(md.EnumerationLimitError, match="reachable state count reached 2"):
        md.expand(twice)


def _largest_eval_batch(monkeypatch, run):
    """The most rows of one `ct.eval_batch` call while `run()` steps, and
    the ModelError it raises, if any."""
    largest = [0]
    eval_batch = ct.eval_batch

    def counting(c, inputs):
        largest[0] = max(largest[0], inputs.shape[0])
        return eval_batch(c, inputs)

    with monkeypatch.context() as patch:
        patch.setattr(ct, "eval_batch", counting)
        try:
            run()
        except md.ModelError as exc:
            return largest[0], str(exc)
    return largest[0], None


def test_a_faulty_step_stays_within_the_piece_bound(monkeypatch):
    monkeypatch.setattr(md, "_STEP_ROWS", 8)
    m = make_random(4, num_vars=3, num_actions=3, max_branching=3).mdp
    one = _faulty_variants(m, random.Random(0))[3]  # every numerator is 1 of D = 6
    rng = np.random.default_rng(4)
    rows = rng.random((64, 3)) < 0.5
    acts = rng.integers(0, 3, 64)
    runs = [
        lambda model: md._step(model, rows, 0),
        lambda model: md._step(model, rows, acts),
        lambda model: md.expand_many(model, list(map(tuple, rows.astype(int).tolist()))),
    ]
    for run in runs:
        fault_free, error = _largest_eval_batch(monkeypatch, lambda: run(m))
        assert error is None and fault_free == 24  # 3 slot blocks of 2 sources padded to 8
        largest, error = _largest_eval_batch(monkeypatch, lambda: run(one))
        assert error is not None and re.search(r"sum to [1-5]/6, not 1$", error)
        assert largest <= fault_free


@pytest.mark.parametrize("step_rows", [4, 8])
def test_expand_many_pieces_hold_at_most_step_rows_candidates(monkeypatch, step_rows):
    bounded = make_random(4, num_vars=3, num_actions=3, max_branching=3).mdp  # B = 3
    plain = replace(make_random(5, num_vars=3, num_actions=2).mdp,
                    successor_circuits=(), max_branching=0)  # B = 8
    for m in (bounded, plain):
        B = m.max_branching or 1 << m.num_vars
        assert len(m.actions) * B > step_rows  # one row under every action is too many
        want = _explicit(md.expand(m))
        pieces = []
        step_piece = md._step_piece

        def recording(model, states, rows, actions, *args):
            pieces.append(len(rows) * len(actions) * B)
            return step_piece(model, states, rows, actions, *args)

        with monkeypatch.context() as patch:
            patch.setattr(md, "_STEP_ROWS", step_rows)
            patch.setattr(md, "_step_piece", recording)
            assert _explicit(md.expand(m)) == want
        assert pieces and max(pieces) <= max(step_rows, B)


def test_validate_reports_a_successor_the_enumerator_misses():
    # one variable and one action, D = 2: from 0 the transition circuit
    # reaches 0 with 2/2 and 1 with 1/2, but the enumerator lists only the
    # state itself, which sums to 1
    t_values = {(0, 0): 2, (0, 1): 1, (1, 1): 2}
    m = md.SuccinctMdp(
        ("x1",), (0,), ("a",),
        # inputs [s | s' | action bit]; the one action has index 0
        ct.circuit_from_values(3, 2, [t_values.get((s, s2), 0) if a == 0 else 0
                                      for s in (0, 1) for s2 in (0, 1) for a in (0, 1)]),
        ct.circuit_from_values(1, 1, [0, 0]),
        prob_denominator=2,
        successor_circuits=(ct.circuit_from_values(2, 2, [2 | s if slot == 0 else 0
                                                          for s in (0, 1) for slot in (0, 1)]),),
        max_branching=1,
    )
    assert md._step(m, ct.all_input_rows(1), 0)[0].tolist() == [0, 1]  # the listed step passes
    assert md.validate(m) == ["action a: probabilities from state (0,) under a sum to 3/2, not 1"]


@pytest.mark.parametrize("width", [5, 62, 63, 64, 83])
def test_number_rows_numbers_rows_as_a_first_seen_tuple_dict(width):
    rng = np.random.default_rng(width)
    # few distinct rows, so the batches repeat rows within and across batches
    pool = rng.random((40, width)) < 0.5
    index, found, reference = {}, [], {}
    for size in (0, 1, 7, 50, 0, 200):
        rows = pool[rng.integers(0, len(pool), size)]
        ids, new = md._number_rows(rows, index)
        want = [reference.setdefault(t, len(reference)) for t in map(tuple, rows.tolist())]
        assert ids.dtype == np.int64 and ids.tolist() == want
        found.append(new)
        assert len(index) == len(reference)
    # the new rows of every batch, in id order, are the reference's keys
    every = np.concatenate(found)
    assert every.dtype == bool and every.shape == (len(reference), width)
    assert list(map(tuple, every.tolist())) == list(reference)


def test_a_plain_model_counts_its_candidates_only_when_a_layer_is_stepped(monkeypatch):
    m = replace(make_random(0).mdp, successor_circuits=(), max_branching=0)  # 2**3 candidates
    monkeypatch.setenv("SMDP_LIMIT_STATES", "4")
    em, idx = md.expand_many(m, [m.initial], depth=0)
    assert em.states == (m.initial,) and idx == [0]
    with pytest.raises(md.EnumerationLimitError, match=re.escape("successor candidates (2^3)")):
        md.expand_many(m, [m.initial], depth=1)
