"""The sampler engine: one front door to every sampling strategy.

``SamplerEngine`` binds a scenario to a strategy (by name or instance),
amortises the strategy's one-time analysis across draws, and rolls all
per-scene diagnostics up into an :class:`~repro.sampling.stats.AggregateStats`.

Typical use::

    from repro.sampling import SamplerEngine

    engine = SamplerEngine(scenario, strategy="vectorized")
    scene = engine.sample(seed=0)
    batch = engine.sample_batch(100, seed=1)     # a SceneBatch (list + .stats)
    engine.aggregate.rejection_breakdown()

The engine also accepts *precompiled artifacts* and raw Scenic source — the
compile-once, sample-many path of :mod:`repro.language.compiler`::

    from repro.language import compile_scenario

    artifact = compile_scenario(source)          # cached by content hash
    engine = SamplerEngine(artifact)             # parser + interpreter skipped when warm
    engine = SamplerEngine("ego = Object at 0 @ 0")   # source text works too (docs/language.md)

Artifact-backed engines share the artifact's interned scenario (no strategy
rewrites the scenario it samples).

``Scenario.generate`` / ``generate_batch`` are thin wrappers over this class.
``generate`` defaults to the ``"rejection"`` strategy, preserving the seed's
behaviour draw-for-draw; ``generate_batch`` defaults to ``"vectorized"``.
"""

from __future__ import annotations

import random as _random
from typing import Any, Optional, Union

from ..core.errors import RejectionError
from ..core.scenario import GenerationStats, Scenario
from ..core.scene import Scene
from .stats import AggregateStats, SceneBatch
from .strategies import SamplingStrategy, make_strategy


def resolve_scenario(source_like: Any, fresh: bool = False) -> Scenario:
    """Turn a Scenario, :class:`CompiledScenario` or Scenic source into a Scenario.

    Artifacts resolve to their shared interned scenario — the warm path that
    skips the parser and interpreter — unless *fresh* is true, which forces
    an independent re-interpretation of the cached AST (what a caller that
    prunes the scenario in place needs).  Raw source text is routed through
    the process-wide artifact cache (:func:`repro.language.compile_scenario`).
    """
    if isinstance(source_like, Scenario):
        return source_like
    from ..language.compiler import CompiledScenario, compile_scenario

    if isinstance(source_like, str):
        source_like = compile_scenario(source_like)
    if isinstance(source_like, CompiledScenario):
        return source_like.scenario(fresh=fresh)
    raise TypeError(
        f"expected a Scenario, CompiledScenario or Scenic source text, "
        f"got {type(source_like).__name__}"
    )


class SamplerEngine:
    """Samples scenes from one scenario through a pluggable strategy.

    *scenario* may be a live :class:`~repro.core.scenario.Scenario`, a
    :class:`~repro.language.CompiledScenario` artifact, or Scenic source
    text (compiled through the artifact cache); see :func:`resolve_scenario`.
    """

    def __init__(
        self,
        scenario: Union[Scenario, Any],
        strategy: Union[str, SamplingStrategy] = "rejection",
    ):
        self.strategy = (
            strategy if isinstance(strategy, SamplingStrategy) else make_strategy(strategy)
        )
        self.scenario = resolve_scenario(scenario)
        self.aggregate = AggregateStats()
        self.last_stats: Optional[GenerationStats] = None
        self._bound = False

    # -- internals --------------------------------------------------------------

    def _ensure_bound(self) -> None:
        if not self._bound:
            self.strategy.bind(self.scenario)
            self._bound = True

    @staticmethod
    def _resolve_rng(rng: Optional[_random.Random], seed: Optional[int]) -> _random.Random:
        return rng if rng is not None else _random.Random(seed)

    # -- sampling ---------------------------------------------------------------

    def sample(
        self,
        max_iterations: int = 2000,
        rng: Optional[_random.Random] = None,
        seed: Optional[int] = None,
    ) -> Scene:
        """Draw one accepted scene; raises :class:`RejectionError` on failure.

        Per-draw statistics land in :attr:`last_stats` (also when the draw
        fails) and are appended to :attr:`aggregate`.
        """
        self._ensure_bound()
        rng = self._resolve_rng(rng, seed)
        scene, stats = self.strategy.sample(self.scenario, max_iterations, rng)
        self.last_stats = stats
        self.aggregate.record(stats, self.strategy.name, accepted=scene is not None)
        if scene is None:
            raise RejectionError(max_iterations)
        return scene

    def sample_batch(
        self,
        count: int,
        max_iterations: int = 2000,
        rng: Optional[_random.Random] = None,
        seed: Optional[int] = None,
    ) -> SceneBatch:
        """Draw *count* scenes, returning a :class:`SceneBatch` with batch stats.

        If a draw exhausts its budget mid-batch, the :class:`RejectionError`
        propagates but the stats of every draw made so far — including the
        failing one — are still folded into :attr:`aggregate` and
        :attr:`last_stats`.
        """
        self._ensure_bound()
        rng = self._resolve_rng(rng, seed)
        batch_stats = AggregateStats()
        try:
            scenes = self.strategy.sample_batch(
                self.scenario, count, max_iterations, rng, batch_stats
            )
        finally:
            self.aggregate.merge_from(batch_stats)
            self.last_stats = batch_stats.combined()
        return SceneBatch(scenes, batch_stats)

    def __repr__(self) -> str:
        return f"SamplerEngine({self.scenario!r}, strategy={self.strategy.name!r})"


__all__ = ["SamplerEngine", "resolve_scenario"]
