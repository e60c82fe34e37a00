import random
import re

import numpy as np
import pytest

from smdp import circuit as ct
from smdp.bits import bits_to_int, int_to_bits, width_for_count
from smdp.policy import (
    ExplicitPolicy,
    HistoryPolicy,
    PolicyError,
    StationaryPolicy,
    TimedExplicitPolicy,
    compile_explicit,
    load_policy,
    save_policy,
)
from smdp.random_models import random_circuit

from helpers import constant_circuit


def test_stationary_decides_from_circuit():
    b = ct.CircuitBuilder(2)
    p = StationaryPolicy(b.build([b.and_(b.inp(0), b.inp(1))]), action_count=2)
    assert p.decide((1, 1)) == 1
    assert p.decide((1, 0)) == 0
    assert p.decide_batch([(0, 0), (1, 1)]) == [0, 1]


def test_out_of_range_action_is_hard_error():
    b = ct.CircuitBuilder(1)
    p = StationaryPolicy(b.build([b.const(1), b.const(1)]), action_count=3)
    with pytest.raises(PolicyError, match="decoded action 3"):
        p.decide((0,))
    with pytest.raises(PolicyError):
        p.decide_batch([(0,)])


def test_decide_batch_takes_a_bool_array():
    b = ct.CircuitBuilder(2)
    p = StationaryPolicy(b.build([b.and_(b.inp(0), b.inp(1))]), action_count=2)
    rows = np.array([[0, 1], [1, 1]], dtype=bool)
    assert p.decide_batch(rows) == p.decide_batch([(0, 1), (1, 1)]) == [0, 1]
    e = ExplicitPolicy({(0, 1): 1, (1, 1): 0}, 2)
    assert e.decide_batch(rows) == [1, 0]
    with pytest.raises(PolicyError, match=r"explicit policy undefined at state \(0, 0\)"):
        e.decide_batch(np.array([[0, 1], [0, 0]], dtype=bool))
    b = ct.CircuitBuilder(2)
    bad = StationaryPolicy(b.build([b.const(1), b.const(1)]), action_count=3)
    with pytest.raises(PolicyError, match=r"decoded action 3 >= 3 at \(1, 0\)$"):
        bad.decide_batch(np.array([[1, 0], [0, 0]], dtype=bool))


def test_output_width_must_match_action_count():
    b = ct.CircuitBuilder(1)
    with pytest.raises(PolicyError):
        StationaryPolicy(b.build([b.inp(0)]), action_count=3)  # needs 2 bits


def test_compile_explicit_roundtrip():
    rng = random.Random(0)
    for n in (1, 3, 5):
        mapping = {
            tuple(int_to_bits(k, n)): rng.randrange(3) for k in range(1 << n)
        }
        p = compile_explicit(mapping, n, 3)
        for s, a in mapping.items():
            assert p.decide(s) == a


def test_compile_explicit_rejects_partial_maps():
    with pytest.raises(PolicyError, match="partial"):
        compile_explicit({(0,): 0}, 1, 2)


def test_compile_explicit_names_an_unmapped_state():
    # 2**n keys, but (2,) stands where (1,) should
    with pytest.raises(PolicyError, match=r"explicit policy undefined at state \(1,\)"):
        compile_explicit({(0,): 0, (2,): 1}, 1, 2)


def test_compile_explicit_raises_the_error_of_its_table():
    # compile_explicit had its own out-of-range text: "action 5 out of range at state (1,)"
    rng = random.Random(25)
    kinds = set()
    for _ in range(60):
        n, k = rng.randint(1, 3), rng.choice((2, 3, 5))
        states = [tuple(int_to_bits(s, n)) for s in range(1 << n)]
        choices = list(range(k)) * 4 + [-1, k, k + 3]
        mapping = {s: rng.choice(choices) for s in states}
        if rng.random() < 0.3:  # one key outside the states, so 2**n keys still
            del mapping[rng.choice(states)]
            mapping[(2,) * n] = 0
        rows = ct.all_input_rows(n)
        want = _outcome(lambda: ExplicitPolicy(mapping, k).decide_batch(rows))
        assert _outcome(lambda: compile_explicit(mapping, n, k).decide_batch(rows)) == want
        if isinstance(want, tuple):
            kinds.add("undefined" if "undefined at state" in want[1] else "out of range")
    assert kinds == {"undefined", "out of range"}


def test_circuit_policies_reject_a_state_outside_their_width():
    b = ct.CircuitBuilder(2)
    p = StationaryPolicy(b.build([b.and_(b.inp(0), b.inp(1))]), action_count=2)
    msg = r"is not a 0/1 state of width 2"
    for bad in [(2, 0), (0, 3), (1,)]:
        with pytest.raises(PolicyError, match=msg):
            p.decide(bad)
        with pytest.raises(PolicyError, match=msg):
            p.decide_batch([(1, 1), bad])
    hb = ct.CircuitBuilder(3 * 2 + 2)
    h = HistoryPolicy(hb.build([hb.inp(0)]), 2, horizon=2, num_vars=2)
    for bad in [(2, 0), (1,)]:
        with pytest.raises(PolicyError, match=msg):
            h.decide_history([(1, 1), bad], 1)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2,)], ids=str)
def test_stationary_decide_batch_checks_the_shape_of_a_bool_array(shape):
    # a bool array of another width reached the circuit kernel: CircuitError
    b = ct.CircuitBuilder(2)
    p = StationaryPolicy(b.build([b.and_(b.inp(0), b.inp(1))]), action_count=2)
    msg = re.escape(f"state array of shape {shape} is not (rows, 2) for width 2")
    with pytest.raises(PolicyError, match=msg):
        p.decide_batch(np.zeros(shape, bool))


def test_history_decide_batch_rejects_rows_of_another_width():
    # the rows were broadcast into the padded input: a (1, 1) array and a
    # 1-D array decided silently, and a short tuple raised numpy's ValueError
    hb = ct.CircuitBuilder(3 * 2 + 2)
    h = HistoryPolicy(hb.build([hb.inp(0)]), 2, horizon=2, num_vars=2)
    for bad in (np.zeros((1, 1), bool), np.zeros(2, bool)):
        msg = re.escape(f"history array of shape {bad.shape} is not (rows, 2) for width 2")
        with pytest.raises(PolicyError, match=msg):
            h.decide_batch(bad, 0)
    msg = re.escape("history (1, 0) is not a 0/1 state of width 4 (it has width 2)")
    with pytest.raises(PolicyError, match=msg):
        h.decide_batch([(1, 0, 1, 1), (1, 0)], 1)


def test_history_policy_layout():
    # act 1 exactly when the first observed state (slot 0) was all-ones
    horizon, n = 2, 2
    b = ct.CircuitBuilder((horizon + 1) * n + 2)
    first = b.and_(b.inp(0), b.inp(1))
    p = HistoryPolicy(b.build([first]), action_count=2, horizon=horizon, num_vars=n)
    assert p.decide_history([(1, 1), (0, 0)], 1) == 1
    assert p.decide_history([(0, 1), (1, 1)], 1) == 0
    with pytest.raises(PolicyError):
        p.decide_history([(0, 0)], 1)  # time index beyond observed states
    with pytest.raises(PolicyError, match=r"^time index -1 out of range$"):
        p.decide_history([(0, 0)], -1)


def test_history_decide_batch_reads_the_padded_circuit_input():
    rng = random.Random(4)
    horizon, n = 3, 2
    tw = width_for_count(horizon + 1)
    c = random_circuit(rng, (horizon + 1) * n + tw, 12, 2)
    p = HistoryPolicy(c, 4, horizon=horizon, num_vars=n)
    for j in range(horizon + 1):
        rows = [tuple(rng.randrange(2) for _ in range((j + 1) * n)) for _ in range(20)]
        pad = (0,) * ((horizon - j) * n) + int_to_bits(j, tw)
        want = [bits_to_int(ct.eval(c, row + pad)) for row in rows]
        assert p.decide_batch(np.array(rows, dtype=bool), j) == want
        histories = [[row[k * n : (k + 1) * n] for k in range(j + 1)] for row in rows]
        assert [p.decide_history(h, j) for h in histories] == want
    with pytest.raises(PolicyError, match=r"^time index 4 out of range$"):
        p.decide_batch(np.zeros((1, 5 * n), dtype=bool), 4)


def test_history_decide_batch_rejects_an_out_of_range_action():
    # decodes action 3 of 3 when the state in slot 0 is 1
    b = ct.CircuitBuilder(2 * 1 + 1)
    p = HistoryPolicy(b.build([b.inp(0), b.inp(0)]), 3, horizon=1, num_vars=1)
    assert p.decide_batch(np.array([[0], [0]], dtype=bool), 0) == [0, 0]
    with pytest.raises(PolicyError, match=r"^policy decoded action 3 >= 3$"):
        p.decide_batch(np.array([[0], [1]], dtype=bool), 0)


def test_explicit_and_timed_policies():
    p = ExplicitPolicy({(0,): 1, (1,): 0}, 2)
    assert p.decide((0,)) == 1
    with pytest.raises(PolicyError):
        p.decide((0, 1))
    t = TimedExplicitPolicy({((0,), 1): 1, ((0,), 2): 0}, 2)
    assert t.decide_timed((0,), 1) == 1
    assert t.decide_timed((0,), 2) == 0
    with pytest.raises(PolicyError):
        t.decide_timed((1,), 1)


def test_save_load_roundtrip(tmp_path):
    b = ct.CircuitBuilder(2)
    p = StationaryPolicy(b.build([b.xor(b.inp(0), b.inp(1))]), 2, name="parity")
    p2 = load_policy(save_policy(p, tmp_path))
    assert p2.name == "parity"
    assert all(p2.decide(s) == p.decide(s) for s in [(0, 0), (0, 1), (1, 0), (1, 1)])

    hb = ct.CircuitBuilder(3 * 2 + 2)
    h = HistoryPolicy(hb.build([hb.inp(0)]), 2, horizon=2, num_vars=2)
    h2 = load_policy(save_policy(h, tmp_path, "hist"))
    assert h2.kind == "history"
    assert h2.horizon == 2 and h2.num_vars == 2
    assert h2.decide_history([(1, 0)], 0) == 1


def test_history_manifest_needs_horizon(tmp_path):
    hb = ct.CircuitBuilder(3 * 2 + 2)
    path = save_policy(HistoryPolicy(hb.build([hb.inp(0)]), 2, 2, 2), tmp_path, "hist")
    text = open(path).read().replace("horizon 2\n", "")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(PolicyError, match="missing 'horizon' line"):
        load_policy(path)


def _outcome(decide):
    """The actions, or the type and message of the PolicyError raised."""
    try:
        return decide()
    except PolicyError as exc:
        return type(exc), str(exc)


def _one_per_row(p, rows, depth, steps):
    """The per-row call of each policy kind on a list of bit-tuple rows."""
    if p.kind == "history":
        n = p.num_vars
        split = [[r[k * n : (k + 1) * n] for k in range(depth + 1)] for r in rows]
        return [p.decide_history(h, depth) for h in split]
    if p.kind == "timed":
        return [p.decide_timed(r, steps) for r in rows]
    return [p.decide(r) for r in rows]


def test_decide_batch_equals_the_per_row_calls_for_every_kind():
    # the tables leave some rows undefined and map some to -1, k or k + 3;
    # with 3 or 5 actions the circuits can decode an index >= k
    rng = random.Random(11)
    for _ in range(30):
        n, k, horizon = rng.randint(1, 3), rng.choice((2, 3, 4, 5)), rng.randint(1, 3)
        aw, tw = width_for_count(k), width_for_count(horizon + 1)
        states = [tuple(int_to_bits(s, n)) for s in range(1 << n)]
        keys = [(s, i) for s in states for i in range(1, horizon + 1)]
        choices = list(range(k)) * 6 + [-1, k, k + 3]
        policies = [
            StationaryPolicy(random_circuit(rng, n, rng.randint(1, 6), aw), k),
            ExplicitPolicy({s: rng.choice(choices) for s in states if rng.random() < 0.9}, k),
            TimedExplicitPolicy({x: rng.choice(choices) for x in keys if rng.random() < 0.9}, k),
            HistoryPolicy(
                random_circuit(rng, (horizon + 1) * n + tw, rng.randint(1, 8), aw), k, horizon, n
            ),
        ]
        for p in policies:
            for depth in range(horizon + 1):
                width = (depth + 1) * n if p.kind == "history" else n
                for count in (0, 1, 4):
                    rows = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(count)]
                    arr = np.array(rows, dtype=bool).reshape(count, width)
                    steps = horizon - depth
                    want = _outcome(lambda: _one_per_row(p, rows, depth, steps))
                    assert _outcome(lambda: p.decide_batch(arr, depth, steps)) == want
                    assert _outcome(lambda: p.decide_batch(rows, depth, steps)) == want


def _load_of_kind(tmp_path, kind):
    manifest = save_policy(StationaryPolicy(constant_circuit(2, 1), 2), tmp_path)
    with open(manifest) as fh:
        text = fh.read()
    with open(manifest, "w") as fh:
        fh.write(text.replace("kind stationary", f"kind {kind}"))
    return load_policy(manifest)


@pytest.mark.parametrize(
    "make, message",
    [
        # horizon 2 over 2 state bits reads 3·2 state bits and 2 step-index bits
        (
            lambda tmp: HistoryPolicy(constant_circuit(7, 1), 2, horizon=2, num_vars=2),
            "history policy takes 7 inputs, expected 8",
        ),
        (
            lambda tmp: HistoryPolicy(constant_circuit(8, 2), 2, horizon=2, num_vars=2),
            "history policy output width does not match action count",
        ),
        (lambda tmp: _load_of_kind(tmp, "timed"), "unknown policy kind 'timed'"),
    ],
    ids=["inputs", "outputs", "kind"],
)
def test_a_malformed_policy_is_refused(tmp_path, make, message):
    with pytest.raises(PolicyError, match=f"^{re.escape(message)}$"):
        make(tmp_path)
