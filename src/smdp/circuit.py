"""Boolean circuits: representation, evaluation, netlist text format, and
full-literal DNF canonicalization.

A circuit is a DAG of two-input AND/OR/XOR gates, one-input NOT gates, and
zero-input constants. References are strings: ``i<k>`` for input k, ``g<j>``
for the gate with id j. Gate ids are strictly increasing and every operand
must refer to an input or an earlier gate, so acyclicity holds by
construction.

Each circuit is compiled once to one integer instruction per gate: when it
is constructed, or by `parse` line by line as it reads a netlist. `eval` and
`eval_batch` both run that program in one kernel over Python ints used as
bit vectors, one bit per input row. `shared_program` replays several
circuits over the same inputs through one `CircuitBuilder`, whose structural
hashing keeps each gate once, and compiles them into one `Program`, which
`eval_batch` runs as it runs a circuit.
`eval_batch` takes either a bool array, which it packs into those column
words and unpacks again, or the words themselves as `Columns`, which it
returns as `Columns`: a caller that builds its inputs as words and reads its
outputs as words never converts representations per call.
"""

from __future__ import annotations

import os
from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from ._files import check_name, overwrite
from .bits import bits_to_int, column_words, int_to_bits, word_bits

ARITY = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1, "CONST0": 0, "CONST1": 0}
TABLE_INPUT_LIMIT = 20  # the most inputs `truth_table` enumerates
_AND, _OR, _XOR, _NOT, _CONST0, _CONST1 = range(6)
_OPCODE = {"AND": _AND, "OR": _OR, "XOR": _XOR, "NOT": _NOT, "CONST0": _CONST0, "CONST1": _CONST1}


class CircuitError(ValueError):
    pass


class NetlistError(CircuitError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Columns(NamedTuple):
    """A (rows, k) bool matrix as k Python-int column words: bit r of
    ``words[j]`` is row r of column j, and no word has a bit at or above
    ``rows``."""

    words: Sequence[int]
    rows: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, len(self.words))


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: str
    args: Tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    num_inputs: int
    gates: Tuple[Gate, ...]
    outputs: Tuple[str, ...]
    name: str = "c"
    _: KW_ONLY
    _compiled: InitVar[Optional["_Compiler"]] = None  # the gates, compiled by `parse`

    def __post_init__(self, compiled):
        # compile once, unless `parse` compiled the gates already, line by line
        if compiled is None:
            compiled = _Compiler(self.num_inputs)
            for g in self.gates:
                compiled.add(g)
        object.__setattr__(self, "_program", tuple(map(tuple, compiled.columns)))
        object.__setattr__(self, "_output_slots", tuple(map(compiled.slot, self.outputs)))

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)


def _resolve(ref: str, num_inputs: int, gate_slots: Dict[str, int]) -> int:
    """Slot of a ref: ``i<k>`` is slot k, and ``gate_slots`` maps each gate
    defined so far (``g<j>``) to its slot. Refs are spelled as `serialize`
    writes them."""
    slot = gate_slots.get(ref)
    if slot is not None:
        return slot
    if ref[:1] == "i":
        try:
            k = int(ref[1:])
        except ValueError:
            k = -1
        if 0 <= k < num_inputs and ref == f"i{k}":
            return k
    raise CircuitError(
        f"ref {ref!r} is neither one of {num_inputs} inputs nor an earlier gate"
    )


class _Compiler:
    """Gate-at-a-time compilation to one (opcode, a, b) instruction per gate.
    Operands are slot indices: input k is slot k, and each gate takes the
    next slot after the inputs and the gates before it. The instructions are
    kept as three int columns, not a tuple per gate: surviving tuples would
    make the garbage collector run far more often while models with many
    circuits are built."""

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.gate_slots: Dict[str, int] = {}
        self.columns: Tuple[List[int], List[int], List[int]] = ([], [], [])
        self.prev_gid = -1

    def slot(self, ref: str) -> int:
        return _resolve(ref, self.num_inputs, self.gate_slots)

    def add(self, g: Gate) -> None:
        """Check one gate against the gates before it, register its slot and
        append its instruction."""
        if g.gid <= self.prev_gid:
            raise CircuitError(f"gate ids must be strictly increasing, got g{g.gid}")
        arity = ARITY.get(g.kind)
        if arity is None:
            raise CircuitError(f"unknown gate kind {g.kind!r}")
        if len(g.args) != arity:
            raise CircuitError(f"gate g{g.gid}: {g.kind} takes {arity} operands, got {len(g.args)}")
        ops, a_slots, b_slots = self.columns
        n, slots = self.num_inputs, self.gate_slots
        ops.append(_OPCODE[g.kind])
        a_slots.append(_resolve(g.args[0], n, slots) if arity else 0)
        b_slots.append(_resolve(g.args[1], n, slots) if arity == 2 else 0)
        slots[f"g{g.gid}"] = n + len(slots)
        self.prev_gid = g.gid


def _run(c, vals: List[int], mask: int) -> List[int]:
    """Evaluate the compiled program on the input column words in ``vals``,
    appending one word per gate; returns the output words.

    Bit r of every word is row r, so one Python-int operation evaluates a
    gate on all rows at once; ``mask`` has one bit set per row.
    """
    push = vals.append
    for op, a, b in zip(*c._program):
        if op == _AND:
            push(vals[a] & vals[b])
        elif op == _OR:
            push(vals[a] | vals[b])
        elif op == _XOR:
            push(vals[a] ^ vals[b])
        elif op == _NOT:
            push(vals[a] ^ mask)
        elif op == _CONST0:
            push(0)
        else:
            push(mask)
    return [vals[k] for k in c._output_slots]


class Program:
    """A compiled program: the instructions, as `_Compiler` columns, and the
    output slots. `eval_batch` runs it on `Columns` or a bool array as it
    runs a circuit. It holds no `Gate` objects, so a model that keeps one
    gives the garbage collector nothing more to trace; a merged `Circuit`
    kept in its place would hold thousands of them."""

    __slots__ = ("num_inputs", "_program", "_output_slots")

    def __init__(self, num_inputs: int, program, output_slots: Tuple[int, ...]):
        self.num_inputs = num_inputs
        self._program = program
        self._output_slots = output_slots

    @property
    def gates(self) -> Tuple[int, ...]:
        """The opcode of each instruction: one entry per gate, as a circuit's
        `gates` has, so `size` and gate counts read both alike."""
        return self._program[0]


def shared_program(circuits: Sequence[Circuit]) -> Program:
    """One program with the outputs of every circuit, in order, for circuits
    that read the same inputs. Each circuit's gates are replayed in order
    through one `CircuitBuilder`, each input as itself, so its structural
    hashing keeps each gate once however many circuits hold it. Only the
    compiled instructions of the merged circuit are kept, not its gates."""
    num_inputs = circuits[0].num_inputs if circuits else 0
    if any(c.num_inputs != num_inputs for c in circuits):
        raise CircuitError("shared program needs circuits over the same inputs")
    b = CircuitBuilder(num_inputs)
    emit = {
        "AND": b.and_, "OR": b.or_, "XOR": b.xor, "NOT": b.not_,
        "CONST0": lambda: b.const(0), "CONST1": lambda: b.const(1),
    }
    outputs: List[str] = []
    for c in circuits:
        merged: Dict[str, str] = {}  # the circuit's gate refs, merged
        for g in c.gates:
            merged[f"g{g.gid}"] = emit[g.kind](*[merged.get(r, r) for r in g.args])
        outputs.extend(merged.get(r, r) for r in c.outputs)
    built = b.build(outputs)
    return Program(num_inputs, built._program, built._output_slots)


def size(c) -> int:
    """Gate count of a circuit or `Program` (inputs and output taps are free)."""
    return len(c.gates)


def eval(c: Circuit, inputs: Sequence[int]) -> Tuple[int, ...]:  # noqa: A001 - deliberate shadowing
    """Evaluate the circuit on one input vector; returns output bits in order."""
    if len(inputs) != c.num_inputs:
        raise CircuitError(f"expected {c.num_inputs} input bits, got {len(inputs)}")
    return tuple(_run(c, [1 if b else 0 for b in inputs], 1))


def eval_batch(c, inputs):
    """Evaluate a circuit or `Program` on a (rows, num_inputs) bool array,
    returning a (rows, num_outputs) bool array, or on `Columns` of num_inputs
    words, returning `Columns` of num_outputs words over the same rows."""
    if isinstance(inputs, Columns):
        words, rows = inputs
        if len(words) != c.num_inputs:
            raise CircuitError(f"expected {c.num_inputs} input columns, got {len(words)}")
        if rows < 0 or words and (min(words) < 0 or max(words) >> rows):
            raise CircuitError(f"input columns must be words of {rows} rows")
        return Columns(_run(c, list(words), (1 << rows) - 1), rows)
    inputs = np.asarray(inputs, dtype=bool)
    if inputs.ndim != 2 or inputs.shape[1] != c.num_inputs:
        raise CircuitError(
            f"expected (rows, {c.num_inputs}) input array, got {inputs.shape}"
        )
    rows = inputs.shape[0]
    words = _run(c, column_words(inputs)[0], (1 << rows) - 1)
    return np.ascontiguousarray(word_bits(words, rows).T)


def all_input_rows(n: int) -> np.ndarray:
    """All 2**n input vectors as a bool array, row k encoding k MSB-first
    (input 0 most significant). Column i is built in place: 2**i blocks, each
    2**(n-1-i) rows of 0 then as many of 1, so no wider temporary is made."""
    rows = np.zeros((1 << n, n), dtype=bool)
    for i in range(n):
        rows.reshape(1 << i, 2, 1 << (n - 1 - i), n)[:, 1, :, i] = True
    return rows


def truth_table(c: Circuit) -> np.ndarray:
    """Exhaustive (2**n, num_outputs) output table, for at most
    TABLE_INPUT_LIMIT inputs."""
    if c.num_inputs > TABLE_INPUT_LIMIT:
        raise CircuitError(
            f"refusing exhaustive table over {c.num_inputs} inputs (limit {TABLE_INPUT_LIMIT})"
        )
    return eval_batch(c, all_input_rows(c.num_inputs))


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    """Exhaustive input-output equivalence over all 2**n input vectors."""
    if c1.num_inputs != c2.num_inputs:
        raise CircuitError(
            f"width mismatch: {c1.num_inputs} vs {c2.num_inputs} inputs"
        )
    if c1.num_outputs != c2.num_outputs:
        raise CircuitError(
            f"width mismatch: {c1.num_outputs} vs {c2.num_outputs} outputs"
        )
    return bool(np.array_equal(truth_table(c1), truth_table(c2)))


class CircuitBuilder:
    """Constructs circuits gate by gate with structural hashing.

    Identical (kind, operands) nodes are merged, and trivial identities
    involving constants or repeated operands are folded away, so generated
    circuits stay reasonably small without a separate minimization pass.
    """

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.gates: List[Gate] = []
        self._cache: Dict[Tuple[str, Tuple[str, ...]], str] = {}
        self._c0: str | None = None
        self._c1: str | None = None
        self._not_arg: Dict[str, str] = {}

    def inp(self, k: int) -> str:
        if not 0 <= k < self.num_inputs:
            raise CircuitError(f"input index {k} out of range")
        return f"i{k}"

    def inputs(self) -> List[str]:
        return [f"i{k}" for k in range(self.num_inputs)]

    def _emit(self, kind: str, *args: str) -> str:
        key = (kind, args)
        ref = self._cache.get(key)
        if ref is None:
            gid = len(self.gates)
            self.gates.append(Gate(gid, kind, args))
            ref = f"g{gid}"
            self._cache[key] = ref
        return ref

    def const(self, bit: int) -> str:
        if bit:
            if self._c1 is None:
                self._c1 = self._emit("CONST1")
            return self._c1
        if self._c0 is None:
            self._c0 = self._emit("CONST0")
        return self._c0

    def not_(self, a: str) -> str:
        if a == self._c0:
            return self.const(1)
        if a == self._c1:
            return self.const(0)
        if a in self._not_arg:  # fold double negation
            return self._not_arg[a]
        ref = self._emit("NOT", a)
        self._not_arg[ref] = a
        return ref

    def and_(self, a: str, b: str) -> str:
        if a == b:
            return a
        if a == self._c0 or b == self._c0:
            return self.const(0)
        if a == self._c1:
            return b
        if b == self._c1:
            return a
        if b < a:
            a, b = b, a
        return self._emit("AND", a, b)

    def or_(self, a: str, b: str) -> str:
        if a == b:
            return a
        if a == self._c1 or b == self._c1:
            return self.const(1)
        if a == self._c0:
            return b
        if b == self._c0:
            return a
        if b < a:
            a, b = b, a
        return self._emit("OR", a, b)

    def xor(self, a: str, b: str) -> str:
        if a == b:
            return self.const(0)
        if a == self._c0:
            return b
        if b == self._c0:
            return a
        if a == self._c1:
            return self.not_(b)
        if b == self._c1:
            return self.not_(a)
        if b < a:
            a, b = b, a
        return self._emit("XOR", a, b)

    def and_all(self, refs: Sequence[str]) -> str:
        if not refs:
            return self.const(1)
        acc = refs[0]
        for r in refs[1:]:
            acc = self.and_(acc, r)
        return acc

    def or_all(self, refs: Sequence[str]) -> str:
        if not refs:
            return self.const(0)
        acc = refs[0]
        for r in refs[1:]:
            acc = self.or_(acc, r)
        return acc

    def eq(self, a: str, b: str) -> str:
        return self.not_(self.xor(a, b))

    def eq_refs(self, xs: Sequence[str], ys: Sequence[str]) -> str:
        if len(xs) != len(ys):
            raise CircuitError("eq_refs width mismatch")
        return self.and_all([self.eq(a, b) for a, b in zip(xs, ys)])

    def eq_const(self, refs: Sequence[str], value: int) -> str:
        bits = int_to_bits(value, len(refs))
        return self.and_all([r if b else self.not_(r) for r, b in zip(refs, bits)])

    def mux(self, sel: str, if_true: str, if_false: str) -> str:
        return self.or_(self.and_(sel, if_true), self.and_(self.not_(sel), if_false))

    def mux_refs(self, sel: str, if_true: Sequence[str], if_false: Sequence[str]) -> List[str]:
        return [self.mux(sel, t, f) for t, f in zip(if_true, if_false)]

    def select_value(self, cases: Sequence[Tuple[str, int]], width: int) -> List[str]:
        """Numeric output from mutually exclusive (condition, value) cases.

        Bits of value default to 0 when no case fires.
        """
        out = []
        for b in range(width):
            hits = [cond for cond, value in cases if int_to_bits(value, width)[b]]
            out.append(self.or_all(hits))
        return out

    def build(self, outputs: Sequence[str], name: str = "c") -> Circuit:
        return Circuit(self.num_inputs, tuple(self.gates), tuple(outputs), name)


def canonical_dnf(c: Circuit) -> Circuit:
    """Rewrite every output as a disjunction of full-literal terms.

    One term per satisfying assignment of that output, so at most 2**n terms
    per output. CONST0 stands in for the empty disjunction.
    """
    values = [bits_to_int(row) for row in truth_table(c).tolist()]
    return circuit_from_values(c.num_inputs, c.num_outputs, values, name=f"{c.name}_dnf")


def count_dnf_terms(c: Circuit, output_index: int) -> int:
    """Number of terms in the OR ladder feeding one output of a DNF circuit."""
    by_ref = {f"g{g.gid}": g for g in c.gates}
    count = 0
    stack = [c.outputs[output_index]]
    while stack:
        g = by_ref.get(stack.pop())
        if g is None:  # bare input literal
            count += 1
        elif g.kind == "OR":
            stack.extend(g.args)
        elif g.kind != "CONST0":
            count += 1
    return count


def circuit_from_values(
    num_inputs: int, out_width: int, values: Sequence[int], name: str = "table"
) -> Circuit:
    """Compile an explicit truth table (unsigned value per input row) to a circuit."""
    if len(values) != 1 << num_inputs:
        raise CircuitError(
            f"need {1 << num_inputs} rows for {num_inputs} inputs, got {len(values)}"
        )
    b = CircuitBuilder(num_inputs)
    ins = b.inputs()
    minterms: Dict[int, str] = {}

    def minterm(row: int) -> str:
        ref = minterms.get(row)
        if ref is None:
            ref = b.eq_const(ins, row) if num_inputs else b.const(1)
            minterms[row] = ref
        return ref

    outputs = []
    for bit in range(out_width):
        hits = [
            minterm(row)
            for row, v in enumerate(values)
            if (v >> (out_width - 1 - bit)) & 1
        ]
        outputs.append(b.or_all(hits))
    return b.build(outputs, name)


def serialize(c: Circuit) -> str:
    """The netlist text of `c`, which `parse` reads back as `c`; a circuit
    name that `parse` would refuse or cut short is a `CircuitError`."""
    check_name(c.name, "circuit name", CircuitError)
    lines = [f"circuit {c.name}", f"inputs {c.num_inputs}"]
    for g in c.gates:
        lines.append(" ".join([f"gate g{g.gid}", g.kind] + list(g.args)))
    lines.append("outputs " + " ".join(c.outputs) if c.outputs else "outputs")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    name = None
    num_inputs = None
    gates: List[Gate] = []
    compiled = None
    outputs = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "circuit":
            if len(parts) != 2:
                raise NetlistError("circuit line needs a name", lineno)
            if name is not None:
                raise NetlistError("second circuit declaration", lineno)
            name = parts[1]
        elif kw == "inputs":
            if len(parts) != 2 or not parts[1].isdigit():
                raise NetlistError("inputs line needs a count", lineno)
            if num_inputs is not None:
                raise NetlistError("second inputs declaration", lineno)
            num_inputs = int(parts[1])
            compiled = _Compiler(num_inputs)
        elif kw == "gate":
            if num_inputs is None:
                raise NetlistError("gate before inputs declaration", lineno)
            if len(parts) < 3 or not parts[1].startswith("g"):
                raise NetlistError("malformed gate line", lineno)
            try:
                gid = int(parts[1][1:])
            except ValueError:
                raise NetlistError(f"bad gate id {parts[1]!r}", lineno)
            g = Gate(gid, parts[2], tuple(parts[3:]))
            try:
                compiled.add(g)
            except CircuitError as exc:
                raise NetlistError(str(exc), lineno) from None
            gates.append(g)
        elif kw == "outputs":
            if num_inputs is None:
                raise NetlistError("outputs before inputs declaration", lineno)
            if outputs is not None:
                raise NetlistError("second outputs declaration", lineno)
            try:
                for ref in parts[1:]:
                    compiled.slot(ref)
            except CircuitError as exc:
                raise NetlistError(str(exc), lineno) from None
            outputs = tuple(parts[1:])
        else:
            raise NetlistError(f"unknown construct {kw!r}", lineno)
    if num_inputs is None:
        raise NetlistError("missing inputs declaration", 1)
    if outputs is None:
        raise NetlistError("missing outputs declaration", 1)
    return Circuit(num_inputs, tuple(gates), outputs, name or "c", _compiled=compiled)


def read_netlist(path) -> Circuit:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def _read_netlist_beside(manifest_path, fname: str, error: Type[ValueError]) -> Circuit:
    """The circuit of the netlist file `fname` that a manifest names, read
    relative to the manifest's directory; `error` if the file cannot be read."""
    path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), fname)
    try:
        return read_netlist(path)
    except OSError as exc:
        raise error(f"cannot read netlist {fname!r}: {exc.strerror or exc}") from None


def write_netlist(c: Circuit, path) -> None:
    overwrite(path, serialize(c))
