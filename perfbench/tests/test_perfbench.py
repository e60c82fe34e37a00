"""Checks of the benchmark itself: layer coverage, repeatability, and
refusal to run without the program.

    python3 -m pytest -q perfbench/tests

from the repository root. The traced runs take about two minutes.
"""

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((HERE / "record.json").read_text())
SEED_A, SEED_B = 101, 202

NOTE = re.compile(r"(trace\.\w+|bench\.self_s) (\S+) s\b")


@functools.lru_cache(maxsize=None)
def traced(workload: str, seed: int, repeat: int = 0):
    """Per-layer metrics and the printed trace figures of one traced run
    (`repeat` only keys the cache)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    notes = {m[1]: float(m[2]) for m in map(NOTE.match, lines) if m}
    return {name: m["value"] for name, m in result["metrics"].items()}, notes


def test_record_assigns_every_layer_metric():
    assert set(RECORD["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in RECORD["per_layer"].items():
        assert set(entry["workloads"]) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_metrics_nonzero_where_assigned(workload):
    metrics = traced(workload, SEED_A)[0]
    zero = [
        name
        for name, entry in RECORD["per_layer"].items()
        if workload in entry["workloads"] and not metrics[name]
    ]
    assert not zero, f"{workload}: these layer metrics read 0: {zero}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_and_overhead_is_reported(workload):
    notes = traced(workload, SEED_A)[1]
    wall = notes["trace.wall_s"]
    assert notes["trace.self_sum_s"] == pytest.approx(wall, rel=0.01)
    assert 0 < notes["bench.self_s"] < wall
    # spans x calibrated span cost: never negative, and a small share
    assert 0 < notes["trace.overhead_est_s"] < 0.25 * wall
    # the measured difference of two timings; where spans are few it is
    # noise around zero, but never a large share of the traced time
    assert abs(notes["trace.overhead_s"]) < 0.5 * wall


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts(workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    first, second = traced(workload, SEED_A)[0], traced(workload, SEED_A, repeat=1)[0]
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_inputs(workload, tmp_path):
    wl = WORKLOADS[workload]
    sm = run.import_smdp()
    cases = [
        [q["case"] for q in wl.setup(sm, seed, str(tmp_path / str(seed)))]
        for seed in (SEED_A, SEED_B)
    ]
    assert cases[0] != cases[1]
    assert cases[0] == [q["case"] for q in wl.setup(sm, SEED_A, str(tmp_path / "again"))]


def test_montecarlo_check_does_not_trust_reported_stderr():
    wl = WORKLOADS["montecarlo"]
    n = wl.SAMPLES
    q = {"case": "mc", "want": 0.5}
    est = namedtuple("McEstimate", "mean stderr samples")
    stderr = math.sqrt(0.25 / (n - 1))
    assert wl.check(q, est(Fraction(n // 2, n), stderr, n)).ok
    assert not wl.check(q, est(Fraction(3, 4), float("inf"), n)).ok
    assert not wl.check(q, est(Fraction(n // 2, n), 10 * stderr, n)).ok


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "majsat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
