#!/usr/bin/env python
"""Regenerate the seed-equivalence golden corpus (``tests/golden/*.json``).

Every ``examples/scenarios/*.scenic`` program is compiled and sampled once
per golden run (``repro.evals.golden.GOLDEN_RUNS``: a strategy, optionally
after the automatic pruning pass) with a fixed seed; the resulting object
positions and headings are committed as JSON at full float precision.
``tests/test_golden_scenes.py`` replays the same generations and compares
against these files to 1e-9 — any change to the RNG-consumption order, the
candidate checks, or the geometry predicates that silently alters sampled
scenes shows up as a golden mismatch.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py            # all scenarios
    PYTHONPATH=src python tests/golden/regen.py two_cars   # just one

Regenerate *only* when a behaviour change is intended, and say why in the
commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.evals.golden import GOLDEN_MAX_ITERATIONS, GOLDEN_RUNS, GOLDEN_SEED, golden_sample

GOLDEN_DIR = Path(__file__).resolve().parent
SCENARIO_DIR = GOLDEN_DIR.parent.parent / "examples" / "scenarios"


def scene_record(scenario, scene) -> dict:
    """A JSON-safe, full-precision summary of one sampled scene."""
    from repro.core.vectors import Vector

    return {
        "ego_index": scene.objects.index(scene.ego),
        "iterations": scenario.last_stats.iterations,
        "objects": [
            {
                "class": type(scenic_object).__name__,
                "position": list(Vector.from_any(scenic_object.position)),
                "heading": float(scenic_object.heading),
                "width": float(scenic_object.width),
                "height": float(scenic_object.height),
            }
            for scenic_object in scene.objects
        ],
    }


def generate_entry(path: Path, run: str) -> dict:
    """Compile *path* fresh and sample one scene the way golden *run* does.

    A fresh compile per run keeps the runs independent (engine caches,
    pruned regions and RNG state never leak between runs).
    """
    from repro.language import scenario_from_file

    scenario = scenario_from_file(path)
    scene = golden_sample(scenario, run)
    return scene_record(scenario, scene)


def golden_path(stem: str) -> Path:
    return GOLDEN_DIR / f"{stem}.json"


def regenerate(only=None) -> None:
    paths = sorted(SCENARIO_DIR.glob("*.scenic"))
    if only:
        wanted = set(only)
        paths = [path for path in paths if path.stem in wanted]
        missing = wanted - {path.stem for path in paths}
        if missing:
            raise SystemExit(f"unknown scenario(s): {', '.join(sorted(missing))}")
    for path in paths:
        entry = {
            "scenario": path.stem,
            "seed": GOLDEN_SEED,
            "max_iterations": GOLDEN_MAX_ITERATIONS,
            "strategies": {run: generate_entry(path, run) for run in GOLDEN_RUNS},
        }
        output = golden_path(path.stem)
        output.write_text(json.dumps(entry, indent=1) + "\n")
        iterations = {run: entry["strategies"][run]["iterations"] for run in GOLDEN_RUNS}
        print(f"{path.stem:28s} {iterations}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or None)
