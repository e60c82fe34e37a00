"""Span recorder for traced benchmark runs.

`Tracer.install` wraps every public function of the smdp layer modules
(LAYERS) at every place its name is bound: the defining module, each
``from ... import`` copy in another smdp module and the package namespace.
It also wraps the methods in METHODS. Each call then records one span:
name, start, end, parent span, query id and, for a few functions, a count
taken from the arguments or the result (EXTRAS). Spans stay in memory until
the run ends; `summary` turns them into per-layer metrics, where a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "circuit",
    "mdp",
    "policy",
    "evaluator",
    "valuefn",
    "oracle",
    "reductions",
    "cli",
)
METHODS = (
    ("policy", "StationaryPolicy", "decide_batch"),
    ("valuefn", "ValueCircuit", "value_table"),
)

# span fields
NAME, START, END, PARENT, QUERY, EXTRA = range(6)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eval_batch_extra(args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    rows = result.shape[0]
    return id(c), rows, rows * len(c.gates)


def _states_checked(args, kwargs, result):
    """States `check_consistency` examined: all of them when consistent, else
    those up to and including the counterexample (states go in ascending
    order: the table's sorted domain, or all 2**n rows MSB-first)."""
    if result.consistent:
        return len(result.witness)
    cx = tuple(result.counterexample)
    domain = getattr(_arg(args, kwargs, 1, "E"), "states", None)
    if callable(domain):
        return domain().index(cx) + 1
    return int("".join(str(b) for b in cx), 2) + 1


EXTRAS: Dict[str, Callable] = {
    "circuit.eval_batch": _eval_batch_extra,
    "circuit.read_netlist": lambda a, k, r: len(r.gates),
    "mdp.expand_many": lambda a, k, r: (id(_arg(a, k, 0, "m").t_circuit), len(r[0].states)),
    "mdp.successors_batch": lambda a, k, r: len(_arg(a, k, 1, "states")),
    "evaluator.expected_reward_exact": lambda a, k, r: r.trajectory_count,
    "evaluator.expected_reward_mc": lambda a, k, r: r.samples * _arg(a, k, 2, "horizon"),
    "valuefn.check_consistency": _states_checked,
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.query = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.query, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[EXTRA] = extra(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    @contextmanager
    def span(self, name: str, query=None):
        """A span the benchmark opens itself, around its own phases."""
        if query is not None:
            self.query = query
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        """Wrap the smdp modules currently imported."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "smdp" or name.startswith("smdp."))
        }
        wrappers: Dict[int, Tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules[f"smdp.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"smdp.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def span_cost(calls: int = 20000, rounds: int = 5) -> float:
        """Seconds one span adds to a call: a traced no-op against a plain
        one, median over rounds."""

        def noop():
            return None

        traced = Tracer()._wrap("calibration", noop)
        costs = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        return max(0.0, statistics.median(costs))

    # ----------------------------------------------------------- reporting

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def summary(self) -> Dict[str, float]:
        """Per-name `calls`, `self_s` and `total_s`, the derived counts named
        in BENCHMARK.json, and `trace.self_sum_s`."""
        out: Dict[str, float] = {}
        spans = self.spans
        self_s = self.self_times()
        for s, own in zip(spans, self_s):
            name = s[NAME]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + s[END] - s[START]
        out["trace.self_sum_s"] = sum(self_s)

        rows = gate_rows = candidate_rows = states = draws = misses = 0
        for s in spans:
            name, extra, parent = s[NAME], s[EXTRA], s[PARENT]
            if name in EXTRAS and extra is None:
                continue  # the call raised
            up = spans[parent] if parent >= 0 else None
            if name == "circuit.eval_batch":
                rows += extra[1]
                gate_rows += extra[2]
                # rows a closure evaluates on its own transition circuit; the
                # parent's extra is set when it returns, so a raised
                # expansion leaves it None
                if up is not None and up[NAME] == "mdp.expand_many" and up[EXTRA] is not None:
                    candidate_rows += extra[1] if up[EXTRA][0] == extra[0] else 0
            elif name == "mdp.expand_many":
                states += extra[1]
            elif name == "evaluator.expected_reward_mc":
                draws += extra
            elif name == "mdp.successors" and up is not None:
                misses += up[NAME] == "evaluator.expected_reward_mc"

        def total(name: str) -> int:
            return sum(s[EXTRA] for s in spans if s[NAME] == name and s[EXTRA] is not None)

        calls = out.get("circuit.eval_batch.calls", 0)
        out["circuit.eval_batch.rows"] = rows
        out["circuit.eval_batch.gate_rows"] = gate_rows
        out["circuit.eval_batch.rows_per_call"] = rows / calls if calls else 0.0
        out["circuit.read_netlist.gates"] = total("circuit.read_netlist")
        out["mdp.expand_many.states"] = states
        out["mdp.expand_many.candidate_rows"] = candidate_rows
        out["mdp.expand_many.states_per_candidate_row"] = (
            states / candidate_rows if candidate_rows else 0.0
        )
        out["mdp.successors_batch.states"] = total("mdp.successors_batch")
        out["evaluator.expected_reward_exact.trajectories"] = total("evaluator.expected_reward_exact")
        out["evaluator.mc.draws"] = draws
        out["evaluator.mc.cache_hit_ratio"] = (draws - misses) / draws if draws else 0.0
        out["valuefn.states_checked"] = total("valuefn.check_consistency")
        return out

    def write(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START] - t0,
                            "end": s[END] - t0,
                            "parent": s[PARENT],
                            "query": s[QUERY],
                        }
                    )
                    + "\n"
                )
