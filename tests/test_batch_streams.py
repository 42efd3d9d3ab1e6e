"""Every corpus program's multi-scene stream replays the pinned scenes.

``tests/golden/batch_streams.json`` pins, per program of the eval corpus,
``generate_batch(4, rng=Random(GOLDEN_SEED))`` under ``vectorized``: a
digest of each scene, the examined candidates and a digest of the RNG state
the batch leaves.  Scene 2 starts where the sampler leaves the RNG after
scene 1's accepted candidate, so this pins where every block ends, not only
which candidate is accepted.  The default run replays the programs whose
stream reaches a block past the ramp's first 63 candidates; the slow job
replays the whole corpus.  Regenerate with ``tests/golden/regen_streams.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.evals.corpus import Manifest
from repro.evals.golden import GOLDEN_MAX_ITERATIONS, GOLDEN_SEED

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen_streams", GOLDEN_DIR / "regen_streams.py")
regen_streams = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_streams)

PINNED = json.loads(regen_streams.STREAMS_PATH.read_text())

#: Candidates the ramp 1, 2, 4, 8, 16, 32 covers before its first larger block.
RAMP = 63


def _replay(entries):
    moved = {}
    for entry in entries:
        pinned = dict(PINNED["programs"][entry.id])
        del pinned["longest"]
        stream = regen_streams.batch_stream(entry.source())
        if stream != pinned:
            moved[entry.id] = (stream, pinned)
    assert not moved, f"{len(moved)} programs moved: {sorted(moved.items())[:3]}"


def test_the_pin_covers_the_corpus():
    assert PINNED["seed"] == GOLDEN_SEED
    assert PINNED["max_iterations"] == GOLDEN_MAX_ITERATIONS
    assert PINNED["scenes"] == regen_streams.SCENES
    assert set(PINNED["programs"]) == {entry.id for entry in Manifest.load()}


def test_streams_past_the_ramp_replay():
    """The programs whose stream draws a block past the ramp (48 of 165)."""
    long = [entry for entry in Manifest.load() if PINNED["programs"][entry.id]["longest"] > RAMP]
    assert len(long) >= 40
    _replay(long)


@pytest.mark.slow
def test_every_stream_replays():
    _replay(Manifest.load())
