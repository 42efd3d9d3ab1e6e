#!/usr/bin/env python
"""Regenerate ``tests/golden/batch_streams.json``.

For every program of the eval corpus (``corpus/manifest.json``), compile it
and draw ``generate_batch(SCENES, rng=Random(GOLDEN_SEED))`` under
``vectorized``, then record a digest of each scene's object positions and
headings (by ``repr``), the examined candidates, and a digest of the RNG
state the batch leaves behind.  ``tests/test_batch_streams.py`` replays
them.  Where a scene after the first starts depends on where the sampler
leaves the RNG after each accepted candidate, so a change to how candidates
are grouped into blocks that moves a multi-scene stream shows up here, even
when every first scene (``first_scene_counts.json``) stays put.

Each program also records ``longest``, the most candidates one scene of its
stream examines (the same stream drawn scene by scene through ``generate``),
which says how far into the sampler's block ramp the stream reaches.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_streams.py

Regenerate *only* when a behaviour change is intended, and say why in the
commit message.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.errors import RejectionError
from repro.evals.corpus import Manifest
from repro.evals.golden import GOLDEN_MAX_ITERATIONS, GOLDEN_SEED
from repro.language import scenario_from_string

STREAMS_PATH = Path(__file__).resolve().parent / "batch_streams.json"
SCENES = 4


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def batch_stream(source: str) -> dict:
    """Scene digests, examined candidates and the final RNG digest of one batch."""
    scenario = scenario_from_string(source)
    rng = random.Random(GOLDEN_SEED)
    try:
        scenes = scenario.generate_batch(
            SCENES, rng=rng, max_iterations=GOLDEN_MAX_ITERATIONS, strategy="vectorized"
        )
    except RejectionError:
        scenes = []
    return {
        "scenes": [
            _digest([(obj.position.x, obj.position.y, obj.heading) for obj in scene.objects])
            for scene in scenes
        ],
        "examined": scenario.last_stats.iterations,
        "rng": _digest(rng.getstate()),
    }


def longest_scene(source: str) -> int:
    """The most candidates one scene of the same stream examines."""
    scenario = scenario_from_string(source)
    rng = random.Random(GOLDEN_SEED)
    longest = 0
    for _ in range(SCENES):
        try:
            scenario.generate(rng=rng, max_iterations=GOLDEN_MAX_ITERATIONS, strategy="vectorized")
        finally:
            longest = max(longest, scenario.last_stats.iterations)
    return longest


def regenerate() -> None:
    programs = {}
    for entry in Manifest.load():
        programs[entry.id] = batch_stream(entry.source())
        programs[entry.id]["longest"] = longest_scene(entry.source())
    STREAMS_PATH.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "max_iterations": GOLDEN_MAX_ITERATIONS, "scenes": SCENES,
         "programs": programs},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"{len(programs)} programs, {sum(p['examined'] for p in programs.values())} candidates")


if __name__ == "__main__":
    regenerate()
