"""The scene-sampling subsystem.

The paper's core loop — rejection sampling of scenes against declarative
requirements (Sec. 5) — lives here as two strategies:

* ``"rejection"`` (:class:`RejectionSampler`) — the seed behaviour, extracted:
  the reference semantics, and the default of ``Scenario.generate``;
* ``"vectorized"`` (:class:`VectorizedSampler`) — block candidate drawing
  with bulk geometric rejection through the numpy kernel
  (:mod:`repro.geometry.kernel`); the default for ``generate_batch`` and
  the generation service.

Both run one candidate loop (``SamplingStrategy.sample``) and one check
chain; a strategy is only its policy (block sizes and the geometry pass).

Pruning composes with any strategy: :func:`repro.core.pruning.prune_scenario`
shrinks a scenario's sampling regions in place (bounds from static
requirement analysis, :mod:`repro.analysis`), and the pruned scenario is
then sampled as usual.

``Scenario.generate`` and ``generate_batch`` are the front door: they turn
a strategy name into a strategy with :func:`make_strategy` (an instance
passes straight through) and call its ``sample`` / ``sample_batch``.  A
compiled artifact (:func:`repro.language.compile_scenario` — the warm path
that skips the parser and interpreter) hands out its shared scenario::

    from repro.language import compile_scenario

    scenario = compile_scenario("ego = Object at 0 @ 0").scenario()
    scene = scenario.generate(seed=0)
    batch = scenario.generate_batch(10, seed=1)   # a SceneBatch: list + .stats

See ``docs/sampling.md`` for the API guide, ``docs/geometry.md`` for the
kernel underneath, and ``docs/service.md`` for the serving layer on top.
"""

from .stats import AggregateStats, SceneBatch, merge_generation_stats
from .strategies import (
    STRATEGIES,
    RejectionSampler,
    SamplingStrategy,
    VectorizedSampler,
    check_user_requirements,
    make_strategy,
)

__all__ = [
    "SamplingStrategy",
    "RejectionSampler",
    "VectorizedSampler",
    "AggregateStats",
    "SceneBatch",
    "merge_generation_stats",
    "STRATEGIES",
    "make_strategy",
    "check_user_requirements",
]
