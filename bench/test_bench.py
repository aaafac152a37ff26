"""Self-checks of the benchmark.

    python3 -m pytest bench/test_bench.py

Each test drives bench/run.py as a subprocess, the way the benchmark is run.
The traced runs take about two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    name = request.param
    runs = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
        record = json.loads((ROOT / ".bench_out" / f"{name}-seed0-trace1.json").read_text())
        runs.append((result_of(proc), record))
    return name, runs


def test_traced_output_is_byte_identical_and_correct(traced_twice):
    # A traced command whose stdout differs from the untraced one counts as failed.
    _, runs = traced_twice
    for result, record in runs:
        assert result["correct"], record
        assert result["failed"] == 0
        assert record["counts_repeat"]


def test_traced_counts_repeat_across_runs(traced_twice):
    _, ((first, _), (second, _)) = traced_twice
    counts = [name for name in first["metrics"] if not name.endswith((".self_s", ".overhead_frac"))]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    _, ((result, _), _) = traced_twice
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_predicted_dominant_layers_hold_at_seed(traced_twice):
    _, ((_, record), _) = traced_twice
    assert record["predictions"]
    for claim in record["predictions"]:
        assert claim["held"], claim["claim"]


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(bench("--workload", "audit_ex52", "--seed", "0", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_without_the_package_under_test(tmp_path):
    # Only BENCHMARK.json and the benchmark: lexval must not be picked up from
    # anywhere else, not even from a PYTHONPATH that holds a real copy.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for environment in (None, env):
        proc = bench("--workload", "audit_ex52", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, env=environment)
        assert proc.returncode != 0
        assert "refused" in proc.stderr
        assert '"correct"' not in proc.stdout
