"""Smoke test of the benchmark itself: tiny runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--programs", "6"]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr + completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_units_match_the_spec(workload):
    completed = run("--workload", workload, "--trace", "0", *TINY)
    result = result_of(completed)
    assert result["correct"] and result["failed"] == 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "metric failed_ratio = 0.000000 ratio" in completed.stdout
    assert "manifest: " in completed.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    completed = run("--workload", workload, "--trace", "1", *TINY)
    result = result_of(completed)
    assert result["correct"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == units("per_layer")
    assert "coverage guard ok" in completed.stdout
    assert "tracing overhead:" in completed.stdout


@pytest.mark.parametrize("workload", ["inproc-easy", "service-mixed"])
def test_planted_invalid_scene_is_reported(workload):
    result = result_of(run("--workload", workload, "--trace", "0", "--plant-invalid", *TINY))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = run("--workload", WORKLOADS[0], "--trace", "0", *TINY, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
