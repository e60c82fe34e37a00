import hashlib
import os
import subprocess
import sys
from pathlib import Path

from smdp.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_suites_runs_from_a_checkout(tmp_path):
    proc = run_script(
        "run_suites.py", "--suite", "normalization", "--suite", "evalreward", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["normalization", "evalreward"]


# the `smdp` command that writes each gallery directory from its formula.cnf
GALLERY_COMMANDS = {
    "satnext_sat": ["gen-satnext"],
    "satnext_unsat": ["gen-satnext"],
    "majsat": ["gen-majsat"],
    "emajsat": ["gen-emajsat", "--num-x", "1"],
    "unsatcons": ["gen-unsatcons"],
    "forall": ["gen-forall", "--num-x", "1"],
}


def test_gen_examples_imports_from_a_checkout(tmp_path):
    proc = run_script("gen_examples.py", "-o", "gallery", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    gallery = tmp_path / "gallery"
    assert sorted(p.name for p in gallery.iterdir()) == sorted(GALLERY_COMMANDS)
    for sub, argv in GALLERY_COMMANDS.items():
        made, out = gallery / sub, tmp_path / "cli" / sub
        assert main(argv + [str(made / "formula.cnf"), "-o", str(out)]) == 0
        assert "[derived: " in (made / "expected.txt").read_text()
        names = sorted(p.name for p in made.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (made / name).read_bytes() == (out / name).read_bytes(), f"{sub}/{name}"
    # the bytes of every gallery file, its netlists, manifests and answers
    digest = hashlib.sha256()
    for path in sorted(p for p in gallery.rglob("*") if p.is_file()):
        digest.update(path.relative_to(gallery).as_posix().encode())
        digest.update(path.read_bytes())
    want = "dbd7df4305589835a74d987dbc91cbb3a45f4b1ada30f5dbd083b578b55ed877"
    assert digest.hexdigest() == want


def test_bench_pairs_summarizes_the_pairs(tmp_path):
    assert run_script("bench_pairs.py", "--help", cwd=tmp_path).returncode == 0
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(SCRIPTS))
    spec = {"end_to_end": [
        {"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "query_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}

    def result(rate, p50):
        return {"metrics": {"verdicts_per_s": {"value": rate}, "query_p50_s": {"value": p50}}}

    runs = {
        "parent": [result(10, 0.2), result(12, 0.2), result(11, 0.1)],
        "change": [result(15, 0.1), result(11, 0.2), result(16, 0.1)],
    }
    got = bench_pairs.summarize(spec, runs)
    rate = got["verdicts_per_s"]
    assert (rate["parent_median"], rate["change_median"], rate["change_wins"]) == (11, 15, 2)
    assert rate["change_over_parent"] == round(15 / 11, 4)
    assert got["query_p50_s"]["change_wins"] == 1  # a tie counts for neither side


def test_bench_pairs_verdicts():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(SCRIPTS))
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # IQR 1.5
    higher, lower = (False, 0.25), (True, 0.25)
    # 10/10 pairs won by more than the parent's IQR
    assert bench_pairs.verdict(parent, [v + 5 for v in parent], *higher) == "gain"
    assert bench_pairs.verdict(parent, [v - 5 for v in parent], *lower) == "gain"
    # 9/10 is enough; 8/10 is not, nor a win inside the parent's IQR
    nine = [v + 5 for v in parent[:9]] + [parent[9] - 1]
    assert bench_pairs.verdict(parent, nine, *higher) == "gain"
    eight = [v + 5 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    assert bench_pairs.verdict(parent, eight, *higher) == "flat"
    assert bench_pairs.verdict(parent, [v + 1 for v in parent], *higher) == "flat"
    # a median worse than the parent's by more than the bound
    assert bench_pairs.verdict(parent, [v * 0.7 for v in parent], *higher) == "worse"
    assert bench_pairs.verdict(parent, [v * 1.3 for v in parent], *lower) == "worse"
    assert bench_pairs.verdict(parent, [v * 0.8 for v in parent], *higher) == "flat"
    # runs spread wider than the bound, unless every change run reads better
    wide = [60, 140, 100, 70, 130, 100, 65, 135, 100, 100]
    assert bench_pairs.verdict(parent, wide, *higher) == "unresolved"
    assert bench_pairs.verdict(wide, [200] * 10, *higher) == "gain"
    ahead = [141, 142, 143] * 3 + [150]  # each above every parent run, by less than its IQR
    assert bench_pairs.verdict(wide, ahead, *higher) == "flat"
    assert bench_pairs.verdict(wide, ahead[:9] + [50], *higher) == "unresolved"


def test_loc_counts_code_lines_only(tmp_path):
    source = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone


def f(x):
    """A function docstring."""
    text = """a string
that is code"""
    return os.path.join(x, text)
'''
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    proc = run_script("loc.py", "a.py", "b.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # import, def, the two lines of the string assignment and return; x = 1
    assert proc.stdout.split() == ["5", "a.py", "1", "b.py", "6", "total"]
