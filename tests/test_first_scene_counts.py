"""Every corpus program's first scene examines the pinned candidates.

``tests/golden/first_scene_counts.json`` pins, per program of the eval
corpus, the first scene's examined candidates and its rejections per cause
at ``GOLDEN_SEED``.  The count of a first scene does not depend on how the
sampler groups candidates into blocks, so a change that moves any
candidate's verdict (the draw, the containment and collision checks, the
geometry predicates) moves a count here.  The default run replays the whole
corpus under ``vectorized`` (~2 s); the slow job replays it under
``rejection`` too.  Regenerate with ``tests/golden/regen_counts.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.evals.corpus import Manifest
from repro.evals.golden import GOLDEN_MAX_ITERATIONS, GOLDEN_SEED

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen_counts", GOLDEN_DIR / "regen_counts.py")
regen_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_counts)

PINNED = json.loads(regen_counts.COUNTS_PATH.read_text())


def test_the_pin_covers_the_corpus():
    assert PINNED["seed"] == GOLDEN_SEED
    assert PINNED["max_iterations"] == GOLDEN_MAX_ITERATIONS
    assert set(PINNED["programs"]) == {entry.id for entry in Manifest.load()}


@pytest.mark.parametrize(
    "strategy", ["vectorized", pytest.param("rejection", marks=pytest.mark.slow)]
)
def test_first_scene_counts_replay(strategy):
    moved = {}
    for entry in Manifest.load():
        counts = regen_counts.first_scene_counts(entry.source(), strategy)
        if counts != PINNED["programs"][entry.id]:
            moved[entry.id] = (counts, PINNED["programs"][entry.id])
    assert not moved, f"{len(moved)} programs moved: {sorted(moved.items())[:3]}"
