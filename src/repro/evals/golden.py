"""The golden-scene run table: which sampling runs the golden corpus pins.

``tests/golden/*.json`` records one scene per example program and per run
in :data:`GOLDEN_RUNS`, all sampled at :data:`GOLDEN_SEED`.  A run is a
strategy, optionally preceded by the automatic Sec. 5.2 pruning pass
(:func:`~repro.core.pruning.prune_scenario`, bounds from static requirement
analysis).  ``rejection`` is the reference semantics; ``vectorized`` gets
its own run because it draws and checks candidates in blocks (its scene
equals ``rejection``'s).  ``pruning`` and ``pruned-vectorized`` sample the
pruned regions, so their streams pin the whole analysis + pruning pipeline.

``tests/golden/regen.py`` writes the corpus, ``tests/test_golden_scenes.py``
replays it, and :func:`repro.evals.promote.survives_golden_runs` screens
scenarios before they graduate into the gallery.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.pruning import prune_scenario
from ..core.scenario import Scenario
from ..core.scene import Scene

#: One fixed seed for the whole corpus; draw-for-draw equivalence only means
#: anything when everyone samples the same stream.
GOLDEN_SEED = 20260729

GOLDEN_MAX_ITERATIONS = 50_000

#: Golden run key -> (strategy, whether to prune first).
GOLDEN_RUNS: Dict[str, Tuple[str, bool]] = {
    "rejection": ("rejection", False),
    "vectorized": ("vectorized", False),
    "pruning": ("rejection", True),
    "pruned-vectorized": ("vectorized", True),
}


def golden_sample(scenario: Scenario, run: str) -> Scene:
    """Sample *scenario* once the way golden run *run* does.

    Pruning runs rewrite *scenario*'s sampling regions in place, so pass a
    fresh compile per run.
    """
    strategy, prune_first = GOLDEN_RUNS[run]
    if prune_first:
        prune_scenario(scenario)
    return scenario.generate(
        seed=GOLDEN_SEED, max_iterations=GOLDEN_MAX_ITERATIONS, strategy=strategy
    )


__all__ = ["GOLDEN_MAX_ITERATIONS", "GOLDEN_RUNS", "GOLDEN_SEED", "golden_sample"]
