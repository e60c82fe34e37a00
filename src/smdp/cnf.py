"""CNF formulas and DIMACS-style text input."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class CnfError(ValueError):
    pass


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]  # DIMACS literals, variables 1-based

    def __post_init__(self):
        if self.num_vars < 0:
            raise CnfError("negative variable count")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} out of range for {self.num_vars} variables")


def parse_dimacs(text: str) -> Cnf:
    num_vars = None
    num_clauses = None
    clauses = []
    current: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            if num_vars is not None:
                raise CnfError(f"line {lineno}: second problem line")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            continue
        if num_vars is None:
            raise CnfError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"line {lineno}: bad literal {tok!r}")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise CnfError("last clause is not zero-terminated")
    if num_vars is None:
        raise CnfError("missing problem line")
    if num_clauses is not None and num_clauses != len(clauses):
        raise CnfError(
            f"problem line declares {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(num_vars, tuple(clauses))


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs(path) -> Cnf:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dimacs(fh.read())
