import pytest

from smdp.cnf import Cnf, CnfError, parse_dimacs, to_dimacs


def test_parse_basic():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2, 3), (-1, 2))


def test_roundtrip():
    cnf = Cnf(3, ((1, -2, 3), (-1, 2)))
    assert parse_dimacs(to_dimacs(cnf)) == cnf


def test_parse_errors():
    with pytest.raises(CnfError, match="problem line"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(CnfError, match="declares 2"):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(CnfError, match="zero-terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(CnfError, match="out of range"):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(CnfError, match="^line 3: second problem line$"):
        parse_dimacs("p cnf 1 1\n1 0\np cnf 5 1\n")


def test_literal_range_checked():
    with pytest.raises(CnfError):
        Cnf(1, ((2,),))
