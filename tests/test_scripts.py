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
