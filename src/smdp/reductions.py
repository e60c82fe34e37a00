"""Generators for the five hardness constructions, each emitting a
circuit-backed MDP plus the companion objects (state, policy, value
function, bounds) and a description of the brute-force check that decides
the instance.

Sequence-encoded states use the layout ``[length counter | slot 1 | ... |
slot L]``. Slot elements are coded as integers: 0 for an empty slot, then
``2v`` / ``2v + 1`` for the positive / negative literal of variable v, and
two trailing codes for the sat / unsat markers when present. Transition
circuits are built so every state, including junk encodings, normalizes
exactly: any state from which the action cannot act is a self-loop.

The four sequence reductions (next action, policy reward, bounded-size policy
and the value-function choice) get their whole MDP from one builder,
`_append_mdp`, given a reward circuit; the last two also share one instance
constructor, `_xy_instance`. Each action has a list of (code, numerator)
pairs and a guard, ``guard(view, action) -> wire``: while the guard holds
the action appends one of its codes with that numerator over D, and
otherwise it self-loops. The coin reductions guard on room to append
(`_room`); next action also freezes its actions on the markers already
present. The transition circuit reads the appended slot once, whatever the
number of codes, and each enumerator (`_append_enumerator`) muxes each slot
bit once, so both grow linearly in the sequence length; the majsat reward
checks each variable's presence once and leaves the rest to pigeonhole.

Three helpers hold what the constructions share. `_length_policy` builds
every sequential policy (take action a_k at length k), with an optional
first case for a choice the length does not make (next action's S or U);
`_block_sat` reads the next-action clause block, from the tail
assignment's wires in the reward and from each assignment's literal codes
in the policy; `_running_ands` builds the prefix and suffix AND chains of
the append transition and of the variable-flip transition. Each takes a
callback for the wires it reads rather than a list, so a gate the callback
builds lands where the helper first reads it: building such wires up front
would move NOT and equality gates ahead of the ANDs and change the
netlists' gate order, which the golden netlist tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import oracle
from ._files import manifest_text, write_files
from .bits import BitVector, bits_to_int, format_bitstring, int_to_bits, width_for_count
from .circuit import Circuit, CircuitBuilder, all_input_rows
from .cnf import Cnf, to_dimacs
from .mdp import SuccinctMdp, _mdp_files
from .policy import StationaryPolicy, _policy_files
from .valuefn import ValueCircuit, _valuefn_files


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class SequenceStateLayout:
    """Bit layout of states that encode bounded element sequences."""

    num_formula_vars: int
    max_length: int
    clause_block: int = 0  # leading slots that spell out the clause list
    with_markers: bool = False

    @property
    def max_code(self) -> int:
        top = 2 * self.num_formula_vars + 1
        return top + 2 if self.with_markers else top

    @property
    def element_width(self) -> int:
        return width_for_count(self.max_code + 1)

    @property
    def count_width(self) -> int:
        return width_for_count(self.max_length + 1)

    @property
    def state_width(self) -> int:
        return self.count_width + self.max_length * self.element_width

    @property
    def sat_code(self) -> int:
        if not self.with_markers:
            raise ReductionError("layout has no marker elements")
        return 2 * self.num_formula_vars + 2

    @property
    def unsat_code(self) -> int:
        return self.sat_code + 1

    def literal_code(self, lit: int) -> int:
        v = abs(lit)
        if lit == 0 or v > self.num_formula_vars:
            raise ReductionError(f"literal {lit} out of range")
        return 2 * v + (1 if lit < 0 else 0)

    def var_names(self) -> Tuple[str, ...]:
        names = [f"q{i + 1}" for i in range(self.count_width)]
        for j in range(self.max_length):
            names.extend(f"e{j + 1}b{k + 1}" for k in range(self.element_width))
        return tuple(names)

    def encode(self, codes: Sequence[int]) -> BitVector:
        if len(codes) > self.max_length:
            raise ReductionError(
                f"sequence of {len(codes)} elements exceeds max length {self.max_length}"
            )
        bits = list(int_to_bits(len(codes), self.count_width))
        for j in range(self.max_length):
            code = codes[j] if j < len(codes) else 0
            bits.extend(int_to_bits(code, self.element_width))
        return tuple(bits)

    def decode(self, bits: Sequence[int]) -> List[int]:
        if len(bits) != self.state_width:
            raise ReductionError("state width mismatch")
        length = bits_to_int(bits[: self.count_width])
        if length > self.max_length:
            raise ReductionError(f"decoded length {length} exceeds max {self.max_length}")
        codes = []
        ew = self.element_width
        for j in range(length):
            off = self.count_width + j * ew
            codes.append(bits_to_int(bits[off : off + ew]))
        return codes


class _SeqView:
    """Cached predicates over the wires of one sequence-encoded state."""

    def __init__(self, b: CircuitBuilder, layout: SequenceStateLayout, offset: int):
        self.b = b
        self.layout = layout
        cw, ew, L = layout.count_width, layout.element_width, layout.max_length
        self.q = [b.inp(offset + i) for i in range(cw)]
        self.slots = [
            [b.inp(offset + cw + j * ew + k) for k in range(ew)] for j in range(L)
        ]
        self._len_eq: Dict[int, str] = {}
        self._slot_is: Dict[Tuple[int, int], str] = {}

    def len_eq(self, k: int) -> str:
        ref = self._len_eq.get(k)
        if ref is None:
            ref = self.b.eq_const(self.q, k)
            self._len_eq[k] = ref
        return ref

    def slot_is(self, j: int, code: int) -> str:
        ref = self._slot_is.get((j, code))
        if ref is None:
            ref = self.b.eq_const(self.slots[j], code)
            self._slot_is[(j, code)] = ref
        return ref

    def can_append(self) -> str:
        return self.b.or_all([self.len_eq(k) for k in range(self.layout.max_length)])

    def has_code(self, code: int) -> str:
        return self.b.or_all(
            [self.slot_is(j, code) for j in range(self.layout.max_length)]
        )

    def slot_is_literal(self, j: int) -> str:
        return self.b.or_all(
            [
                self.slot_is(j, c)
                for c in range(2, 2 * self.layout.num_formula_vars + 2)
            ]
        )


class _SeqPair:
    """Current/next state pair for transition circuits: appends and identity."""

    def __init__(self, b: CircuitBuilder, layout: SequenceStateLayout):
        self.b = b
        self.layout = layout
        self.cur = _SeqView(b, layout, 0)
        self.nxt = _SeqView(b, layout, layout.state_width)
        self.slot_same = [
            b.eq_refs(self.nxt.slots[j], self.cur.slots[j])
            for j in range(layout.max_length)
        ]
        # all slots equal except position k
        pre, suf = _running_ands(b, layout.max_length, self.slot_same.__getitem__)
        self.others_same = [
            b.and_(pre[k], suf[k + 1]) for k in range(layout.max_length)
        ]
        self.same = b.and_(pre[-1], b.eq_refs(self.nxt.q, self.cur.q))
        # pos_k: the length goes from k to k + 1 and every other slot is
        # unchanged. At most one pos_k holds, so OR-ing pos_k into slot k's
        # bits reads the appended code exactly, once for every code; with no
        # pos_k the bits read 0, the empty-slot code, which is never appended.
        pos = [
            b.and_all([self.cur.len_eq(k), self.nxt.len_eq(k + 1), self.others_same[k]])
            for k in range(layout.max_length)
        ]
        self.appended_code = [
            b.or_all([b.and_(p, self.nxt.slots[k][i]) for k, p in enumerate(pos)])
            for i in range(layout.element_width)
        ]

    def append_cond(self, code: int) -> str:
        """Next state equals current state with `code` (not 0) appended."""
        return self.b.eq_const(self.appended_code, code)


def _running_ands(b, count: int, wire) -> Tuple[List[str], List[str]]:
    """Prefix and suffix AND chains over ``wire(0)..wire(count - 1)``:
    ``pre[k]`` is the AND of the wires before k, ``suf[k]`` of those from k
    on. The chains call `wire` in their own order, so a gate it builds lands
    where the chain first reads it."""
    pre = [b.const(1)]
    for j in range(count):
        pre.append(b.and_(pre[-1], wire(j)))
    suf = [b.const(1)]
    for j in range(count - 1, -1, -1):
        suf.append(b.and_(suf[-1], wire(j)))
    suf.reverse()
    return pre, suf


def _assignment_wires(b, view: _SeqView, tail_offset: int, n: int) -> List[str]:
    """True-wires for variables 1..n read off ordered tail slots."""
    # positive literal codes are even, so the slot LSB is the negation flag
    return [b.not_(view.slots[tail_offset + i][-1]) for i in range(n)]


def _cnf_sat_wire(b, cnf: Cnf, var_true: Sequence[str]) -> str:
    clause_wires = []
    for clause in cnf.clauses:
        lits = [
            var_true[abs(lit) - 1] if lit > 0 else b.not_(var_true[abs(lit) - 1])
            for lit in clause
        ]
        clause_wires.append(b.or_all(lits))
    return b.and_all(clause_wires)


def _block_sat(b, m: int, n: int, literals) -> str:
    """Every clause of an m-clause block of three-literal slots has a true
    literal. ``literals(slot, i)`` lists the wires that make the literal of
    variable i in `slot` true; it is called slot by slot, so its gates are
    built clause by clause."""
    return b.and_all([
        b.or_all([w for p in range(3) for i in range(1, n + 1) for w in literals(3 * c + p, i)])
        for c in range(m)
    ])


def _length_policy(
    layout, by_length: Sequence[int], action_count: int, circuit_name: str, name: str,
    first=None,
) -> StationaryPolicy:
    """The policy that takes action ``by_length[k]`` at sequence length k,
    and action 0 where that is 0 or past the list. ``first(view)``, when
    given, returns (wire, action) cases ahead of those, for a choice that
    the length alone does not make; it is called before any length test."""
    b = CircuitBuilder(layout.state_width)
    v = _SeqView(b, layout, 0)
    cases = first(v) if first else []
    cases += [(v.len_eq(k), a) for k, a in enumerate(by_length) if a]
    out = b.select_value(cases, width_for_count(action_count))
    return StationaryPolicy(b.build(out, circuit_name), action_count, name=name)


def _room(view: _SeqView, action: str) -> str:
    """Append guard of the coin reductions: every action appends until the
    sequence is full."""
    return view.can_append()


def _append_mdp(
    layout, actions, appends, D: int, guard, r_circuit: Circuit, name: str, t_name: str
) -> SuccinctMdp:
    """The sequence-append MDP over denominator D with reward circuit
    `r_circuit`, starting from the empty sequence.

    Action a appends the codes of its ``appends[a]`` list of (code,
    numerator) pairs while ``guard(view, a)`` holds, and self-loops with
    numerator D otherwise. Successor slot k lists the k-th code while the
    guard holds; otherwise slot 0 lists the state unchanged.
    """
    aw = width_for_count(len(actions))
    b = CircuitBuilder(2 * layout.state_width + aw)
    pair = _SeqPair(b, layout)
    a_refs = [b.inp(2 * layout.state_width + i) for i in range(aw)]
    guards = [guard(pair.cur, action) for action in actions]
    cases: List[Tuple[str, int]] = []
    for idx, action in enumerate(actions):
        sel = b.eq_const(a_refs, idx)
        for code, num in appends[action]:
            cases.append((b.and_all([sel, guards[idx], pair.append_cond(code)]), num))
        cases.append((b.and_all([sel, b.not_(guards[idx]), pair.same]), D))
    t_circuit = b.build(b.select_value(cases, width_for_count(D + 1)), t_name)
    branching = max(len(appends[action]) for action in actions)
    successors = tuple(
        _append_enumerator(layout, action, [code for code, _ in appends[action]], branching, guard)
        for action in actions
    )
    return SuccinctMdp(
        var_names=layout.var_names(),
        initial=layout.encode([]),
        actions=actions,
        t_circuit=t_circuit,
        r_circuit=r_circuit,
        prob_denominator=D,
        name=name,
        successor_circuits=successors,
        max_branching=branching,
    )


def _append_enumerator(layout, action: str, codes: Sequence[int], branching: int, guard) -> Circuit:
    """Successor circuit of one action of a sequence-append MDP: while the
    guard holds, slot k lists the state with the k-th code appended;
    otherwise slot 0 lists the state unchanged. Each slot bit is muxed once,
    under ``here_j = active ∧ len_eq(j)``, and only the count bits are muxed
    on the guard alone, so the circuit grows linearly in the sequence length."""
    sw = width_for_count(branching)
    b = CircuitBuilder(layout.state_width + sw)
    v = _SeqView(b, layout, 0)
    slot_refs = [b.inp(layout.state_width + i) for i in range(sw)]
    active = guard(v, action)
    hits = [b.eq_const(slot_refs, k) for k in range(len(codes))]
    if len(codes) == 1:
        code = [b.const(bit) for bit in int_to_bits(codes[0], layout.element_width)]
    else:
        code = b.select_value(list(zip(hits, codes)), layout.element_width)
    listed = b.const(1) if len(codes) == branching else b.or_all(hits)
    valid = b.mux(active, listed, hits[0])
    count = b.select_value(
        [(v.len_eq(k), k + 1) for k in range(layout.max_length)], layout.count_width
    )
    state_out = b.mux_refs(active, count, v.q)
    for j in range(layout.max_length):
        state_out.extend(b.mux_refs(b.and_(active, v.len_eq(j)), code, v.slots[j]))
    return b.build([valid] + state_out, f"succ_{action}")


@dataclass(frozen=True)
class ReductionInstance:
    name: str
    mdp: SuccinctMdp
    horizon: int
    cnf: Cnf
    layout: Optional[SequenceStateLayout]
    expected: str
    state: Optional[BitVector] = None
    action: Optional[str] = None
    policy: Optional[StationaryPolicy] = None
    value: Optional[ValueCircuit] = None
    size_bound: Optional[int] = None
    reward_bound: Optional[Fraction] = None
    mode: str = ""
    num_x: Optional[int] = None

    def steps_remaining(self) -> int:
        if self.state is None or self.layout is None:
            return self.horizon
        return self.horizon - len(self.layout.decode(self.state))


def write_instance(inst: ReductionInstance, directory) -> str:
    """Write the instance directory: MDP manifest plus netlists, companion
    policy / value-function manifests, the formula, the instance record, and
    `expected.txt` describing the oracle correspondence, with the answer the
    brute-force oracle derives for the instance."""
    # every text before any file, so an oracle refusal or a bad name writes none
    derived = _derived_lines(inst)
    files = [*_mdp_files(inst.mdp, inst.horizon), ("formula.cnf", to_dimacs(inst.cnf))]
    if inst.policy is not None:
        files += _policy_files(inst.policy, "policy")
    if inst.value is not None:
        files += _valuefn_files(inst.value, "valuefn")
    lines = [f"instance {inst.name}"]
    if inst.mode:
        lines.append(f"mode {inst.mode}")
    lines.append(f"horizon {inst.horizon}")
    if inst.state is not None:
        lines.append("state " + format_bitstring(inst.state))
        lines.append(f"steps_remaining {inst.steps_remaining()}")
    if inst.action is not None:
        lines.append(f"action {inst.action}")
    if inst.size_bound is not None:
        lines.append(f"size_bound {inst.size_bound}")
    if inst.reward_bound is not None:
        lines.append(
            f"reward_bound {inst.reward_bound.numerator}/{inst.reward_bound.denominator}"
        )
    if inst.num_x is not None:
        lines.append(f"num_x {inst.num_x}")
    files += [
        ("instance.txt", manifest_text(lines)),
        ("expected.txt", manifest_text([inst.expected, *derived])),
    ]
    return write_files(directory, files)


def _derived_lines(inst: ReductionInstance) -> List[str]:
    """The `expected.txt` lines after the description: the answer of the
    instance's brute-force oracle, chosen by instance name."""
    cnf = inst.cnf
    if inst.name.startswith("satnext_"):
        sat = oracle.sat_oracle(cnf)
        lines = [f"expected_action {'S' if sat else 'U'}  [derived: brute-force SAT]"]
        if inst.mode == "compact":
            lines.insert(0, "mode compact: clause block shrunk to the instance clause count")
        return lines
    if inst.name == "majsat":
        count = oracle.model_count(cnf)
        return [f"expected_reward {count}/{1 << cnf.num_vars}  [derived: brute-force model count]"]
    if inst.name == "unsatcons":
        verdict = "inconsistent" if oracle.sat_oracle(cnf) else "consistent"
        return [f"expected_{verdict}  [derived: brute-force SAT]"]
    # reward 1 needs every Y-extension to satisfy the formula, 1/2 at least half of them
    decide = oracle.forall_exists_oracle if inst.reward_bound == 1 else oracle.emajsat_oracle
    exists = decide(cnf, inst.num_x)
    return [f"expected_exists {'yes' if exists else 'no'}  [derived: brute-force enumeration]"]


# ----------------------------------------------------- satisfiability / next action


def sat_to_next_action(cnf: Cnf, mode: str = "compact") -> ReductionInstance:
    """Next-action instance: from the state spelling out the clause list, the
    sat-marker action is optimal iff the formula is satisfiable.

    Faithful mode reserves the full clause block of (2n)^3 clauses; compact
    mode shrinks the block to the actual clause count, which preserves the
    decision at the given state while keeping the suffix enumerable.
    """
    if mode not in ("faithful", "compact"):
        raise ReductionError(f"unknown mode {mode!r}")
    n = cnf.num_vars
    if n < 1 or not cnf.clauses:
        raise ReductionError("need at least one variable and one clause")
    for clause in cnf.clauses:
        if len(clause) != 3:
            raise ReductionError(
                f"clause {clause} does not have exactly three literals"
            )
    m = (2 * n) ** 3 if mode == "faithful" else len(cnf.clauses)
    if m < len(cnf.clauses):
        raise ReductionError("clause count exceeds the faithful clause block")
    layout = SequenceStateLayout(
        num_formula_vars=n,
        max_length=3 * m + n + 1,
        clause_block=3 * m,
        with_markers=True,
    )
    actions = ("A", "S", "U") + tuple(f"a{i}" for i in range(1, n + 1))
    D = 2 * n
    # A draws a uniform literal, S and U append their marker, a_i flips a
    # coin over the literals of variable i
    appends = {"A": [(code, 1) for code in range(2, 2 * n + 2)]}
    appends["S"] = [(layout.sat_code, D)]
    appends["U"] = [(layout.unsat_code, D)]
    for i in range(1, n + 1):
        appends[f"a{i}"] = [(2 * i, n), (2 * i + 1, n)]

    def guard(view: _SeqView, action: str) -> str:
        b, room = view.b, view.can_append()
        if action in ("S", "U"):
            return room
        has_sat = view.has_code(layout.sat_code)
        has_unsat = view.has_code(layout.unsat_code)
        if action == "A":  # frozen once a marker is present
            return b.not_(b.or_(b.or_(has_sat, has_unsat), b.not_(room)))
        return b.and_(b.xor(has_sat, has_unsat), room)  # exactly one marker

    mdp = _append_mdp(
        layout, actions, appends, D, guard, _satnext_reward(layout, m, n),
        f"satnext_{mode}", "t_satnext",
    )
    # the clause block spells out the formula (repeating the last clause when
    # the faithful block is larger than the instance)
    block: List[int] = []
    for ci in range(m):
        clause = cnf.clauses[min(ci, len(cnf.clauses) - 1)]
        block.extend(layout.literal_code(lit) for lit in clause)
    state = layout.encode(block)
    policy = _satnext_optimal_policy(layout, m, n, len(actions)) if n <= 6 else None
    return ReductionInstance(
        name=mdp.name,
        mdp=mdp,
        horizon=layout.max_length,
        cnf=cnf,
        layout=layout,
        state=state,
        action="S",
        policy=policy,
        mode=mode,
        expected=(
            "best next action at the encoded state is S iff the formula is "
            "satisfiable (brute-force SAT check); the unsat branch is worth "
            "exactly 2"
        ),
    )


def _satnext_reward(layout: SequenceStateLayout, m: int, n: int) -> Circuit:
    b = CircuitBuilder(layout.state_width)
    v = _SeqView(b, layout, 0)
    block = layout.clause_block
    shape = [v.len_eq(layout.max_length)]
    shape += [v.slot_is_literal(j) for j in range(block)]
    for i in range(1, n + 1):
        # tail slot i must hold variable i (either polarity): high bits == i
        shape.append(b.eq_const(v.slots[block + i][:-1], i))
    proper = b.and_all(shape)
    is_sat_m = v.slot_is(block, layout.sat_code)
    is_unsat_m = v.slot_is(block, layout.unsat_code)
    var_true = _assignment_wires(b, v, block + 1, n)
    formula_sat = _block_sat(b, m, n, lambda slot, i: [
        b.and_(v.slot_is(slot, 2 * i), var_true[i - 1]),
        b.and_(v.slot_is(slot, 2 * i + 1), b.not_(var_true[i - 1])),
    ])
    width = n + 3  # holds 2^(n+1) as a positive two's-complement value
    cases = [
        (b.and_(proper, is_unsat_m), 2),
        (b.and_all([proper, is_sat_m, formula_sat]), 1 << (n + 1)),
        (b.and_all([proper, is_sat_m, b.not_(formula_sat)]), 1),
    ]
    return b.build(b.select_value(cases, width), "r_satnext")


def _satnext_optimal_policy(
    layout: SequenceStateLayout, m: int, n: int, action_count: int
) -> StationaryPolicy:
    """A for the clause block, then S iff the encoded formula is satisfiable
    (exhaustive disjunction over assignments), then the tail coin flips."""
    block = layout.clause_block

    def sat_or_unsat(v: _SeqView) -> List[Tuple[str, int]]:
        b = v.b
        # some assignment makes a literal of every clause true
        satisfiable = b.or_all([
            _block_sat(b, m, n, lambda slot, i: [
                v.slot_is(slot, 2 * i if truth[i - 1] else 2 * i + 1)
            ])
            for truth in all_input_rows(n).tolist()
        ])
        at_block = v.len_eq(block)
        return [(b.and_(at_block, satisfiable), 1), (b.and_(at_block, b.not_(satisfiable)), 2)]

    # A (action 0) while the clause block fills, S or U (the first cases) at
    # its length, then a_i
    by_length = [0] * (block + 1) + [2 + i for i in range(1, n + 1)]
    return _length_policy(
        layout, by_length, action_count, "p_satnext", "satnext_optimal", first=sat_or_unsat
    )


# ------------------------------------------------------------------ majority SAT


def majsat_to_eval(cnf: Cnf) -> ReductionInstance:
    """Policy-evaluation instance whose exact reward is model-count / 2^n."""
    n = cnf.num_vars
    if n < 1:
        raise ReductionError("need at least one variable")
    layout = SequenceStateLayout(num_formula_vars=n, max_length=n)
    actions = tuple(f"a{i}" for i in range(1, n + 1))
    appends = {f"a{i}": [(2 * i, 1), (2 * i + 1, 1)] for i in range(1, n + 1)}
    mdp = _append_mdp(
        layout, actions, appends, 2, _room, _majsat_reward(layout, cnf), "majsat", "t_coin"
    )
    policy = _length_policy(layout, range(n), len(actions), "p_majsat", "majsat_seq")
    return ReductionInstance(
        name="majsat",
        mdp=mdp,
        horizon=n,
        cnf=cnf,
        layout=layout,
        policy=policy,
        reward_bound=Fraction(1, 2),
        expected=(
            "exact reward of the sequential policy equals model_count / 2^n "
            "(brute-force model count)"
        ),
    )


def _majsat_reward(layout, cnf: Cnf) -> Circuit:
    """Reward 1 exactly on full sequences that mention every variable once
    (any order) and whose assignment satisfies the formula. By pigeonhole, n
    slots that mention each of the n variables hold n literals, one per
    variable, so one presence check per variable covers both."""
    n = cnf.num_vars
    b = CircuitBuilder(layout.state_width)
    v = _SeqView(b, layout, 0)
    conds = [v.len_eq(n)]
    conds += [
        b.or_all([b.eq_const(v.slots[j][:-1], var) for j in range(n)])
        for var in range(1, n + 1)
    ]
    var_true = [
        b.or_all([v.slot_is(j, 2 * var) for j in range(n)]) for var in range(1, n + 1)
    ]
    conds.append(_cnf_sat_wire(b, cnf, var_true))
    return b.build(b.select_value([(b.and_all(conds), 1)], 2), "r_majsat")


# ------------------------------------------------- X/Y sequence constructions


def _xy_instance(
    cnf: Cnf, num_x: int, name: str, reward_bound: Fraction, expected: str
) -> ReductionInstance:
    """Shared instance of the bounded-policy and value-function hardness
    constructions: deterministic choices over X, then coin flips over Y,
    reward 1 on ordered full sequences that satisfy the formula, with the
    all-true `xy_sequential_policy` as the reference policy."""
    if 2 * num_x != cnf.num_vars:
        raise ReductionError(
            f"need |X| = |Y|: {num_x} vs {cnf.num_vars - num_x} variables"
        )
    n = num_x
    layout = SequenceStateLayout(num_formula_vars=2 * n, max_length=2 * n)
    actions = (
        tuple(f"b{i}" for i in range(1, n + 1))
        + tuple(f"c{i}" for i in range(1, n + 1))
        + tuple(f"a{i}" for i in range(1, n + 1))
    )
    appends = {}
    for i in range(1, n + 1):
        appends[f"b{i}"] = [(2 * i, 2)]  # b_i appends x_i
        appends[f"c{i}"] = [(2 * i + 1, 2)]  # c_i appends not x_i
        appends[f"a{i}"] = [(2 * (n + i), 1), (2 * (n + i) + 1, 1)]  # a_i flips y_i

    rb = CircuitBuilder(layout.state_width)
    v = _SeqView(rb, layout, 0)
    conds = [v.len_eq(2 * n)]
    for j in range(2 * n):
        conds.append(rb.eq_const(v.slots[j][:-1], j + 1))  # ordered: slot j holds var j+1
    var_true = _assignment_wires(rb, v, 0, 2 * n)
    conds.append(_cnf_sat_wire(rb, cnf, var_true))
    r_circuit = rb.build(rb.select_value([(rb.and_all(conds), 1)], 2), f"r_{name}")

    mdp = _append_mdp(layout, actions, appends, 2, _room, r_circuit, name, f"t_{name}")
    return ReductionInstance(
        name=name,
        mdp=mdp,
        horizon=2 * n,
        cnf=cnf,
        layout=layout,
        policy=xy_sequential_policy(mdp, layout, [True] * n),
        reward_bound=reward_bound,
        num_x=n,
        expected=expected,
    )


def xy_sequential_policy(
    mdp: SuccinctMdp, layout: SequenceStateLayout, x_assignment: Sequence[bool]
) -> StationaryPolicy:
    """The shape every positive-reward policy must take: commit to the given
    X-assignment in order, then flip each Y variable."""
    n = layout.num_formula_vars // 2
    if len(x_assignment) != n:
        raise ReductionError(f"need {n} X-assignment bits")
    # b_{k+1} or c_{k+1} at length k < n, then a_{k-n+1}
    by_length = [k if x else n + k for k, x in enumerate(x_assignment)]
    by_length += range(2 * n, 3 * n)
    return _length_policy(layout, by_length, len(mdp.actions), "p_xy_seq", "xy_sequential")


def emajsat_to_bounded_policy(cnf: Cnf, num_x: int, faithful_k: bool = False) -> ReductionInstance:
    """Bounded-size policy existence instance for the majority-of-extensions
    question. The reward bound defaults to 1/2 (the majority reading);
    `faithful_k` selects the literal bound of 1, which some policy meets iff
    some X-assignment has all of its Y-extensions satisfying the formula.
    The size bound is the gate count of the reference policy."""
    bound = Fraction(1) if faithful_k else Fraction(1, 2)
    inst = _xy_instance(
        cnf, num_x, "emajsat", bound,
        "a policy meeting the reward bound exists iff some X-assignment "
        f"has {'all' if faithful_k else 'at least half'} of its Y-extensions "
        "satisfying the formula (brute-force enumeration)",
    )
    return replace(inst, size_bound=len(inst.policy.circuit.gates))


def forallexists_to_valuefn(cnf: Cnf, num_x: int) -> ReductionInstance:
    """Value-function existence instance: a reward-1 deterministic X-choice
    exists iff some X-assignment has every Y-extension satisfying the formula."""
    return _xy_instance(
        cnf, num_x, "forallexists", Fraction(1),
        "a reward-1 deterministic X-choice exists iff some X-assignment "
        "has all Y-extensions satisfying the formula (brute-force check)",
    )


# -------------------------------------------------------- consistency / UNSAT


def unsat_to_consistency(cnf: Cnf) -> ReductionInstance:
    """Single-action variable-flip MDP with reward 1 on models: the all-zero
    value function is consistent iff the formula is unsatisfiable."""
    n = cnf.num_vars
    if n < 1:
        raise ReductionError("need at least one variable")
    horizon = n
    aw = 1

    tb = CircuitBuilder(2 * n + aw)
    s = [tb.inp(i) for i in range(n)]
    s2 = [tb.inp(n + i) for i in range(n)]
    a0 = tb.not_(tb.inp(2 * n))
    diff = [tb.xor(x, y) for x, y in zip(s, s2)]
    pre, suf = _running_ands(tb, n, lambda i: tb.not_(diff[i]))
    exactly_one = tb.or_all(
        [tb.and_all([pre[i], diff[i], suf[i + 1]]) for i in range(n)]
    )
    width = width_for_count(n + 1)
    t_circuit = tb.build(
        tb.select_value([(tb.and_(a0, exactly_one), 1)], width), "t_flip"
    )

    rb = CircuitBuilder(n)
    var_true = [rb.inp(i) for i in range(n)]
    r_circuit = rb.build(
        rb.select_value([(_cnf_sat_wire(rb, cnf, var_true), 1)], 2), "r_models"
    )

    sw = width_for_count(n)
    sb = CircuitBuilder(n + sw)
    state = [sb.inp(i) for i in range(n)]
    slot = [sb.inp(n + i) for i in range(sw)]
    out = []
    for i in range(n):
        here = sb.eq_const(slot, i)
        out.append(sb.xor(state[i], here))
    succ = sb.build([sb.const(1)] + out, "succ_flip")

    mdp = SuccinctMdp(
        var_names=tuple(f"x{i + 1}" for i in range(n)),
        initial=tuple([0] * n),
        actions=("a",),
        t_circuit=t_circuit,
        r_circuit=r_circuit,
        prob_denominator=n,
        name="unsatcons",
        successor_circuits=(succ,),
        max_branching=n,
    )

    vb = CircuitBuilder(n + width_for_count(horizon + 1))
    value = ValueCircuit(
        vb.build([vb.const(0)], "e_zero"), horizon, value_denominator=1, name="zero"
    )
    return ReductionInstance(
        name="unsatcons",
        mdp=mdp,
        horizon=horizon,
        cnf=cnf,
        layout=None,
        value=value,
        expected=(
            "the all-zero value function is consistent iff the formula has "
            "no model (brute-force SAT check)"
        ),
    )
