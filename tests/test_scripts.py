import os
import subprocess
import sys
from pathlib import Path

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


def test_gen_examples_imports_from_a_checkout(tmp_path):
    proc = run_script("gen_examples.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
