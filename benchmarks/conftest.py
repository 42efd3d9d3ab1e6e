"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper's evaluation at a
laptop-friendly scale, prints the result next to the numbers the paper
reports, and writes the same text into ``results/`` so EXPERIMENTS.md can be
refreshed from a benchmark run.

Run the whole suite with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def save_result(name: str, text: str) -> None:
    """Print a result block and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


@pytest.fixture
def record_result():
    return save_result
