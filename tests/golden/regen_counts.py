#!/usr/bin/env python
"""Regenerate ``tests/golden/first_scene_counts.json``.

For every program of the eval corpus (``corpus/manifest.json``), compile it
and sample its first scene at ``GOLDEN_SEED``, then record the examined
candidates and the rejections per cause (containment, collision,
visibility, user, sampling).  ``tests/test_first_scene_counts.py`` replays
them under both strategies.  The first scene's counts do not depend on how
candidates are grouped into blocks, so any change to the draw, the checks
or the geometry predicates that moves a candidate's verdict shows up here,
program by program.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_counts.py

Regenerate *only* when a behaviour change is intended, and say why in the
commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.errors import RejectionError
from repro.evals.corpus import Manifest
from repro.evals.golden import GOLDEN_MAX_ITERATIONS, GOLDEN_SEED
from repro.language import scenario_from_string

COUNTS_PATH = Path(__file__).resolve().parent / "first_scene_counts.json"
CAUSES = ("containment", "collision", "visibility", "user", "sampling")


def first_scene_counts(source: str, strategy: str = "vectorized") -> dict:
    """The first scene's examined candidates and rejections per cause, under *strategy*."""
    scenario = scenario_from_string(source)
    try:
        scenario.generate(seed=GOLDEN_SEED, max_iterations=GOLDEN_MAX_ITERATIONS, strategy=strategy)
        accepted = True
    except RejectionError:
        accepted = False
    stats = scenario.last_stats
    counts = {"accepted": accepted, "iterations": stats.iterations}
    counts.update((cause, getattr(stats, "rejections_" + cause)) for cause in CAUSES)
    return counts


def regenerate() -> None:
    programs = {entry.id: first_scene_counts(entry.source()) for entry in Manifest.load()}
    COUNTS_PATH.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "max_iterations": GOLDEN_MAX_ITERATIONS, "programs": programs},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"{len(programs)} programs, {sum(c['iterations'] for c in programs.values())} candidates")


if __name__ == "__main__":
    regenerate()
