"""Mutation fuzzing of the text readers: netlists, DIMACS, MDP and
value-function manifests. Bad input may only raise a ValueError subclass,
and the CLI reports it with exit code 1, never a traceback."""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smdp import circuit as ct
from smdp import mdp as md
from smdp import valuefn
from smdp.cli import main
from smdp.cnf import Cnf, parse_dimacs, to_dimacs
from smdp.reductions import unsat_to_consistency, write_instance

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# characters that make up the formats, plus a few that none of them allow
ALPHABET = "0123456789 -#\n\tgixpcnfAORNDTXe.\x00é"

# an unsatisfiable formula: its all-zero value function is consistent (exit 0)
UNSAT = Cnf(2, ((1,), (-1, 2), (-2,)))


@st.composite
def mutated(draw, text):
    """`text` after one to four edits: a span deleted, inserted or replaced
    (by random characters or a token of the text), or a line duplicated,
    dropped or swapped with another."""
    tokens = sorted(set(text.split()))
    pieces = st.one_of(st.text(alphabet=ALPHABET, max_size=4), st.sampled_from(tokens))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "dup", "drop", "swap"]))
        if op in ("insert", "delete", "replace"):
            i = draw(st.integers(0, len(text)))
            j = i if op == "insert" else draw(st.integers(i, min(len(text), i + 8)))
            text = text[:i] + ("" if op == "delete" else draw(pieces)) + text[j:]
            continue
        lines = text.splitlines(keepends=True)
        if not lines:
            continue
        k = draw(st.integers(0, len(lines) - 1))
        if op == "dup":
            lines.insert(k, lines[k])
        elif op == "drop":
            del lines[k]
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[other] = lines[other], lines[k]
        text = "".join(lines)
    return text


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    directory = tmp_path_factory.mktemp("unsatcons")
    write_instance(unsat_to_consistency(UNSAT), directory)
    return str(directory)


def _text(directory, name):
    with open(os.path.join(directory, name), encoding="ascii") as fh:
        return fh.read()


@FUZZ
@given(data=st.data())
def test_netlist_parser_raises_only_value_errors(instance, data):
    name = data.draw(st.sampled_from(["transition.net", "reward.net", "succ_a.net"]))
    text = data.draw(mutated(_text(instance, name)))
    try:
        ct.parse(text)
    except ValueError:
        pass


@FUZZ
@given(data=st.data())
def test_dimacs_parser_raises_only_value_errors(data):
    text = data.draw(mutated(to_dimacs(UNSAT)))
    try:
        parse_dimacs(text)
    except ValueError:
        pass


@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_manifest_readers_and_cli_on_mutated_files(instance, data):
    # one file of the instance is mutated per example: a manifest or a
    # netlist it names
    name = data.draw(
        st.sampled_from(
            ["mdp.manifest", "valuefn.manifest", "transition.net", "succ_a.net", "valuefn.net"]
        )
    )
    text = data.draw(mutated(_text(instance, name)))
    with tempfile.TemporaryDirectory() as directory:
        for fname in os.listdir(instance):
            shutil.copy(os.path.join(instance, fname), directory)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        mdp_path = os.path.join(directory, "mdp.manifest")
        vf_path = os.path.join(directory, "valuefn.manifest")
        for load, path in ((md.load_mdp, mdp_path), (valuefn.load_valuefn, vf_path)):
            try:
                load(path)
            except ValueError:
                pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["check-consistency", mdp_path, vf_path])
            except SystemExit as exc:  # a usage error, such as a missing horizon
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "manifest, key",
    [("mdp.manifest", "transition"), ("valuefn.manifest", "circuit")],
)
def test_a_manifest_naming_a_missing_netlist_is_a_value_error(instance, manifest, key, tmp_path):
    # found by the fuzzer above: the readers raised FileNotFoundError
    for fname in os.listdir(instance):
        shutil.copy(os.path.join(instance, fname), tmp_path)
    path = tmp_path / manifest
    lines = _text(instance, manifest).splitlines()
    lines = [f"{key} missing.net" if line.split()[0] == key else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    load = md.load_mdp if manifest == "mdp.manifest" else valuefn.load_valuefn
    with pytest.raises(ValueError, match="cannot read netlist 'missing.net'"):
        load(path)
