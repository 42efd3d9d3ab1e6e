"""The pluggable scene-sampling subsystem.

The paper's core loop — rejection sampling of scenes against declarative
requirements (Sec. 5) — lives here as an engine with interchangeable
strategies:

* ``"rejection"`` (:class:`RejectionSampler`) — the seed behaviour, extracted;
* ``"batch"`` (:class:`BatchSampler`) — dependency-aware batched candidates
  with partial resampling of independent object groups;
* ``"vectorized"`` (:class:`VectorizedSampler`) — block candidate drawing
  with bulk geometric rejection through the numpy kernel
  (:mod:`repro.geometry.kernel`); the default for ``generate_batch``;
* ``"direct"`` (:class:`DirectSampler`) — Sec. 5.2 pruning, then
  constructive sampling from the pruned feasible regions
  (:mod:`repro.synthesis`): positions draw O(1) from triangle fans,
  deviations from the analyzer's arcs, with importance-weight diagnostics
  on the accepted scenes.

Pruning composes with any strategy: :func:`repro.core.pruning.prune_scenario`
shrinks a scenario's sampling regions in place (bounds from static
requirement analysis, :mod:`repro.analysis`), and the pruned scenario is
then sampled as usual.

``SamplerEngine`` accepts a live ``Scenario``, a compiled artifact
(:func:`repro.language.compile_scenario` — the warm path that skips the
parser and interpreter), or raw Scenic source::

    from repro.sampling import SamplerEngine

    engine = SamplerEngine("ego = Object at 0 @ 0")   # compiles via the artifact cache
    scene = engine.sample(seed=0)

See ``docs/sampling.md`` for the API guide, ``docs/geometry.md`` for the
kernel underneath, and ``docs/service.md`` for the serving layer on top.
"""

from .dependency import DependencyGraph, ObjectGroup
from .engine import SamplerEngine, resolve_scenario
from .stats import AggregateStats, SceneBatch, merge_generation_stats
from .strategies import (
    STRATEGIES,
    BatchSampler,
    DirectSampler,
    RejectionSampler,
    SamplingStrategy,
    VectorizedSampler,
    check_builtin_requirements,
    check_user_requirements,
    draw_candidate,
    make_strategy,
    register_strategy,
)

__all__ = [
    "SamplerEngine",
    "resolve_scenario",
    "SamplingStrategy",
    "RejectionSampler",
    "BatchSampler",
    "DirectSampler",
    "VectorizedSampler",
    "DependencyGraph",
    "ObjectGroup",
    "AggregateStats",
    "SceneBatch",
    "merge_generation_stats",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
    "draw_candidate",
    "check_builtin_requirements",
    "check_user_requirements",
]
