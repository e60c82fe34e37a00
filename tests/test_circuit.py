import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smdp import circuit as ct
from smdp.bits import int_to_bits, row_tuples
from smdp.random_models import random_circuit


def build_xor3():
    b = ct.CircuitBuilder(3)
    out = b.xor(b.xor(b.inp(0), b.inp(1)), b.inp(2))
    return b.build([out], "xor3")


def test_eval_basic():
    c = build_xor3()
    assert ct.eval(c, (0, 0, 0)) == (0,)
    assert ct.eval(c, (1, 1, 0)) == (0,)
    assert ct.eval(c, (1, 1, 1)) == (1,)


def test_eval_wrong_width():
    with pytest.raises(ct.CircuitError):
        ct.eval(build_xor3(), (0, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_eval_batch_matches_single(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    c = random_circuit(rng, n, rng.randint(0, 12), rng.randint(1, 3))
    rows = ct.all_input_rows(n)
    batch = ct.eval_batch(c, rows)
    for k, row in enumerate(rows):
        single = ct.eval(c, tuple(int(b) for b in row))
        assert tuple(int(b) for b in batch[k]) == single == reference_eval(c, row)


def reference_eval(c, bits):
    """Independent reference: walks the gates of one row through a dict
    keyed by ref string, dispatching on the gate kind."""
    vals = {f"i{k}": int(b) for k, b in enumerate(bits)}
    for g in c.gates:
        x = [vals[ref] for ref in g.args]
        if g.kind == "AND":
            v = x[0] & x[1]
        elif g.kind == "OR":
            v = x[0] | x[1]
        elif g.kind == "XOR":
            v = x[0] ^ x[1]
        elif g.kind == "NOT":
            v = 1 - x[0]
        elif g.kind == "CONST0":
            v = 0
        else:
            v = 1
        vals[f"g{g.gid}"] = v
    return tuple(vals[ref] for ref in c.outputs)


def reference_cases(rng):
    yield random_circuit(rng, 0, 6, 2)  # zero inputs: starts from a constant
    yield random_circuit(rng, 4, 10, 0)  # zero outputs
    for n in (1, 5, 9):
        yield random_circuit(rng, n, 40, 3)
    G = ct.Gate
    yield ct.Circuit(
        2,
        (G(0, "CONST1", ()), G(1, "CONST0", ()), G(2, "XOR", ("g0", "i1")),
         G(3, "OR", ("g1", "i0")), G(4, "NOT", ("g0",)), G(5, "AND", ("g1", "i1"))),
        ("g2", "g3", "g4", "g5", "g1", "i0", "g0"),
    )


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
def test_eval_and_eval_batch_match_reference(rows):
    rng = random.Random(rows)
    for c in reference_cases(rng):
        inputs = np.array(
            [[rng.random() < 0.5 for _ in range(c.num_inputs)] for _ in range(rows)], dtype=bool
        ).reshape(rows, c.num_inputs)
        want = [reference_eval(c, row) for row in inputs]
        got = ct.eval_batch(c, inputs)
        assert got.dtype == bool and got.shape == (rows, c.num_outputs)
        assert [tuple(int(b) for b in r) for r in got] == want
        assert [ct.eval(c, tuple(int(b) for b in row)) for row in inputs] == want


def test_acyclicity_enforced():
    with pytest.raises(ct.CircuitError):
        ct.Circuit(1, (ct.Gate(0, "AND", ("i0", "g1")), ct.Gate(1, "NOT", ("i0",))), ("g0",))
    with pytest.raises(ct.CircuitError):
        ct.Circuit(1, (ct.Gate(0, "AND", ("i0", "g0")),), ("g0",))


def test_gate_arity_enforced():
    with pytest.raises(ct.CircuitError):
        ct.Circuit(1, (ct.Gate(0, "NOT", ("i0", "i0")),), ("g0",))


def test_netlist_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        c = random_circuit(rng, rng.randint(0, 5), rng.randint(0, 10), rng.randint(1, 3))
        c2 = ct.parse(ct.serialize(c))
        assert c2 == c


def test_netlist_parse_errors_carry_line_numbers():
    with pytest.raises(ct.NetlistError, match="line 3"):
        ct.parse("circuit c\ninputs 1\ngate g0 AND i0\noutputs g0\n")
    with pytest.raises(ct.NetlistError, match="line 3"):
        ct.parse("circuit c\ninputs 1\ngate g0 AND i0 g5\noutputs g0\n")
    with pytest.raises(ct.NetlistError, match="line 4"):
        ct.parse("circuit c\ninputs 1\ngate g0 NOT i0\noutputs g9\n")
    with pytest.raises(ct.NetlistError, match="line 3: second inputs declaration"):
        ct.parse("inputs 2\ngate g0 AND i0 i1\ninputs 1\noutputs g0\n")
    with pytest.raises(ct.NetlistError, match="^line 4: second outputs declaration$"):
        ct.parse("circuit a\ninputs 1\noutputs i0\noutputs i0 i0\n")
    with pytest.raises(ct.NetlistError, match="^line 3: second circuit declaration$"):
        ct.parse("circuit a\ninputs 1\ncircuit b\noutputs i0\n")


def test_refs_must_be_spelled_as_serialized():
    with pytest.raises(ct.NetlistError, match="line 3"):
        ct.parse("circuit c\ninputs 2\ngate g0 AND i01 i1\noutputs g0\n")
    with pytest.raises(ct.CircuitError):
        ct.Circuit(2, (ct.Gate(0, "NOT", ("i1",)),), ("g00",))


def test_netlist_comments_and_blank_lines():
    text = "# header\ncircuit c\n\ninputs 2\ngate g0 AND i0 i1  # conjunction\noutputs g0\n"
    c = ct.parse(text)
    assert ct.eval(c, (1, 1)) == (1,)


def test_canonical_dnf_equivalence_and_bound():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 6)
        c = random_circuit(rng, n, rng.randint(0, 12), rng.randint(1, 2))
        dnf = ct.canonical_dnf(c)
        assert ct.equivalent(c, dnf)
        for o in range(dnf.num_outputs):
            terms = ct.count_dnf_terms(dnf, o)
            ones = int(ct.truth_table(c)[:, o].sum())
            assert terms == ones <= (1 << n)


def test_canonical_dnf_term_count_is_satisfying_assignment_count():
    b = ct.CircuitBuilder(3)
    out = b.or_(b.inp(0), b.and_(b.inp(1), b.inp(2)))
    dnf = ct.canonical_dnf(b.build([out]))
    assert ct.count_dnf_terms(dnf, 0) == 5  # x0 or (x1 and x2) has 5 models


def test_count_dnf_terms_on_a_1024_term_ladder():
    parity = [bin(row).count("1") & 1 for row in range(1 << 11)]
    dnf = ct.canonical_dnf(ct.circuit_from_values(11, 1, parity))
    assert ct.count_dnf_terms(dnf, 0) == 1024


def test_circuit_from_values_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(0, 5)
        width = rng.randint(1, 4)
        values = [rng.randrange(1 << width) for _ in range(1 << n)]
        c = ct.circuit_from_values(n, width, values)
        got = ct.truth_table(c)
        for row, want in enumerate(values):
            assert int("".join(str(int(b)) for b in got[row]), 2) == want


def test_builder_folds_trivial_identities():
    b = ct.CircuitBuilder(2)
    x = b.inp(0)
    assert b.and_(x, x) == x
    assert b.not_(b.not_(x)) == x
    assert b.xor(x, x) == b.const(0)
    assert b.and_(x, b.const(1)) == x
    assert b.or_(x, b.const(1)) == b.const(1)
    # structural hashing merges identical gates
    assert b.and_(b.inp(0), b.inp(1)) == b.and_(b.inp(1), b.inp(0))


def test_equivalent_detects_difference():
    b1 = ct.CircuitBuilder(2)
    c1 = b1.build([b1.and_(b1.inp(0), b1.inp(1))])
    b2 = ct.CircuitBuilder(2)
    c2 = b2.build([b2.or_(b2.inp(0), b2.inp(1))])
    assert not ct.equivalent(c1, c2)


def test_all_input_rows_count_up_msb_first():
    for n in range(11):
        rows = ct.all_input_rows(n)
        assert rows.dtype == bool and rows.shape == (1 << n, n)
        assert row_tuples(rows) == [int_to_bits(k, n) for k in range(1 << n)]


def test_size_counts_gates_only():
    c = build_xor3()
    assert ct.size(c) == 2


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 63, 64, 65])
def test_eval_batch_on_columns_matches_bool_arrays(rows):
    rng = random.Random(1000 + rows)
    for c in reference_cases(rng):
        inputs = np.array(
            [[rng.random() < 0.5 for _ in range(c.num_inputs)] for _ in range(rows)], dtype=bool
        ).reshape(rows, c.num_inputs)
        words = [sum(1 << r for r in range(rows) if inputs[r, k]) for k in range(c.num_inputs)]
        got = ct.eval_batch(c, ct.Columns(words, rows))
        assert isinstance(got, ct.Columns)
        assert got.shape == (rows, c.num_outputs)
        want = ct.eval_batch(c, inputs)
        assert [[bool(w >> r & 1) for w in got.words] for r in range(rows)] == want.tolist()


def test_eval_batch_rejects_columns_of_the_wrong_shape():
    c = random_circuit(random.Random(3), 3, 5, 2)
    with pytest.raises(ct.CircuitError, match="expected 3 input columns, got 2"):
        ct.eval_batch(c, ct.Columns([0, 1], 4))
    for words, rows in (([0, 16, 1], 4), ([0, -1, 1], 4), ([0, 0, 0], -1)):
        with pytest.raises(ct.CircuitError, match="input columns must be words of"):
            ct.eval_batch(c, ct.Columns(words, rows))
