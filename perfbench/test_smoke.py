"""Smoke test for the benchmark harness: every workload at tiny size, in
both modes, passes its output gate and prints the metrics BENCHMARK.json
names; without a source tree the harness refuses to run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(run_py: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
# wide is not in BENCHMARK.json (too few runs fit in the time budget) but stays runnable
@pytest.mark.parametrize("workload", ["dense", "sweep", "wide"])
def test_tiny_run_passes_gate_and_reports_every_metric(workload, trace, tmp_path):
    done = _run(HERE / "run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--size", "tiny", "--workdir", str(tmp_path), cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / HERE.name / "run.py", "--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
