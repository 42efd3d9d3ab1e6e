"""Scenarios and the rejection sampler (Sec. 5).

A :class:`Scenario` is the compiled form of a Scenic program: the objects it
created (with possibly-random properties), the ego, the global parameters,
the declared requirements and the workspace.  ``Scenario.generate`` samples
a scene by rejection: a joint sample of all random values is drawn,
concrete objects are instantiated (applying mutation noise), and the scene
is accepted only if the built-in requirements (containment, non-collision,
visibility — Sec. 3) and all user requirements hold.  The candidate loop
itself lives in the strategies of :mod:`repro.sampling`;
``generate``/``generate_batch`` pick a strategy and run it.

:class:`ScenarioBuilder` is the Python-level front end: a context manager
that collects objects, the ego, parameters and requirements as they are
created, mirroring what evaluating a Scenic program does.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .context import ScenarioContext, pop_context, push_context
from .errors import InvalidScenarioError, RejectionError
from .objects import Object
from .requirements import Requirement
from .scene import Scene
from .workspace import Workspace


#: The strategy that ``Scenario.generate_batch`` and the generation service
#: (:mod:`repro.service`) draw with when none is named: block sampling
#: through the geometry kernel (:mod:`repro.sampling.strategies`).
#: ``Scenario.generate`` keeps ``"rejection"``, the reference semantics.
DEFAULT_BATCH_STRATEGY = "vectorized"


@dataclass
class GenerationStats:
    """Bookkeeping about one scene draw (one ``Scenario.generate`` call).

    ``iterations`` counts examined candidate scenes; every one but the
    accepted one is booked under exactly one ``rejections_*`` cause.
    """

    iterations: int = 0
    rejections_containment: int = 0
    rejections_collision: int = 0
    rejections_visibility: int = 0
    rejections_user: int = 0
    rejections_sampling: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total_rejections(self) -> int:
        return (
            self.rejections_containment
            + self.rejections_collision
            + self.rejections_visibility
            + self.rejections_user
            + self.rejections_sampling
        )


class Scenario:
    """A distribution over scenes, sampled by rejection."""

    def __init__(
        self,
        objects: Sequence[Object],
        ego: Object,
        params: Optional[Dict[str, Any]] = None,
        requirements: Optional[Sequence[Requirement]] = None,
        workspace: Optional[Workspace] = None,
    ):
        if ego is None:
            raise InvalidScenarioError("a scenario must define an ego object")
        object_list = list(objects)
        if ego not in object_list:
            object_list.insert(0, ego)
        self.objects: List[Object] = object_list
        self.ego = ego
        self.params: Dict[str, Any] = dict(params or {})
        self.requirements: List[Requirement] = list(requirements or [])
        self.workspace = workspace if workspace is not None else Workspace()
        self.last_stats: Optional[GenerationStats] = None
        #: The :class:`~repro.language.CompiledScenario` this scenario came
        #: out of (set by :mod:`repro.language.compiler`; ``None`` for
        #: scenarios built through the Python API) — pruning reads the
        #: artifact's cached static-analysis bounds from it.
        self.compiled_artifact: Optional[Any] = None
        #: The :class:`~repro.core.program.DrawProgram` its candidates are
        #: drawn with, built at the first draw and rebuilt when stale.
        self._draw_program: Optional[Any] = None

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_context(cls, context: ScenarioContext, workspace: Optional[Workspace] = None) -> "Scenario":
        if context.ego is None:
            raise InvalidScenarioError("the scenario never assigned the ego object")
        return cls(
            objects=context.objects,
            ego=context.ego,
            params=context.params,
            requirements=context.requirements,
            workspace=workspace or context.workspace or Workspace(),
        )

    # -- sampling ---------------------------------------------------------------

    def generate(
        self,
        max_iterations: int = 2000,
        rng: Optional[_random.Random] = None,
        seed: Optional[int] = None,
        strategy: Union[str, Any] = "rejection",
    ) -> Scene:
        """Sample one scene satisfying all requirements.

        *strategy* names a sampling strategy (``"rejection"`` — the default,
        draw-for-draw identical to the historical behaviour — or
        ``"vectorized"``; see :data:`repro.sampling.STRATEGIES`), or is a
        strategy instance, which is used as given.  Raises
        :class:`RejectionError` if no valid scene is found within
        *max_iterations* candidate samples.  Statistics about the draw are
        stored in :attr:`last_stats`, also when it fails.
        """
        scene, self.last_stats = _sampling_strategy(strategy).sample(
            self, max_iterations, rng if rng is not None else _random.Random(seed)
        )
        if scene is None:
            raise RejectionError(max_iterations)
        return scene

    def generate_batch(
        self,
        count: int,
        max_iterations: int = 2000,
        rng: Optional[_random.Random] = None,
        seed: Optional[int] = None,
        strategy: Union[str, Any] = DEFAULT_BATCH_STRATEGY,
    ) -> List[Scene]:
        """Sample *count* independent scenes.

        Returns a :class:`repro.sampling.SceneBatch` — a ``list`` of scenes
        whose ``stats`` attribute aggregates the :class:`GenerationStats` of
        the *whole* batch; :attr:`last_stats` is set to the batch-wide total
        (not just the final scene's stats), also when a draw fails mid-batch.

        The default strategy is :data:`DEFAULT_BATCH_STRATEGY`
        (``"vectorized"``): batch generation is where block-drawing
        candidates and rejecting them in bulk through the geometry kernel
        pays off most (single ``generate`` calls keep plain ``"rejection"``
        as the reference semantics).  Its first scene from a fresh RNG is
        ``generate``'s; pass ``strategy="rejection"`` for draw-for-draw
        parity of the whole batch with repeated ``generate`` calls.
        """
        from ..sampling import AggregateStats, SceneBatch  # sampling builds on core

        aggregate = AggregateStats()
        try:
            scenes = _sampling_strategy(strategy).sample_batch(
                self,
                count,
                max_iterations,
                rng if rng is not None else _random.Random(seed),
                aggregate,
            )
        finally:
            self.last_stats = aggregate.combined()
        return SceneBatch(scenes, aggregate)

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Scenario({len(self.objects)} objects, {len(self.requirements)} requirements, "
            f"params={sorted(self.params)})"
        )


def _sampling_strategy(strategy: Union[str, Any]) -> Any:
    """*strategy* as a strategy instance: a name goes through ``make_strategy``."""
    from ..sampling import make_strategy  # sampling builds on core

    return make_strategy(strategy) if isinstance(strategy, str) else strategy


class ScenarioBuilder:
    """Python-level front end for constructing scenarios.

    Usage::

        with ScenarioBuilder(workspace=road_workspace) as builder:
            ego = Car(...)
            builder.set_ego(ego)
            Car(LeftOf(spot, by=0.5))
            builder.require(can_see(ego, other))
        scenario = builder.scenario()
    """

    def __init__(self, workspace: Optional[Workspace] = None):
        self._workspace = workspace
        self._context: Optional[ScenarioContext] = None
        self._finished_context: Optional[ScenarioContext] = None

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "ScenarioBuilder":
        self._context = push_context()
        if self._workspace is not None:
            self._context.workspace = self._workspace
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._finished_context = pop_context()
        self._context = None

    def _active(self) -> ScenarioContext:
        if self._context is None:
            raise InvalidScenarioError("the builder must be used inside a 'with' block")
        return self._context

    # -- recording ----------------------------------------------------------------

    def set_ego(self, scenic_object: Object) -> Object:
        self._active().set_ego(scenic_object)
        return scenic_object

    def require(
        self,
        condition: Union[Any, Callable],
        probability: float = 1.0,
        name: Optional[str] = None,
    ) -> Requirement:
        requirement = Requirement(condition, probability, name)
        self._active().add_requirement(requirement)
        return requirement

    def param(self, name: str, value: Any) -> None:
        self._active().set_param(name, value)

    def mutate(self, *objects: Object, scale: float = 1.0) -> None:
        """Enable mutation for the given objects (or all objects so far)."""
        context = self._active()
        targets = list(objects) if objects else list(context.objects)
        for target in targets:
            target._assign_property("mutationScale", scale)

    # -- output -------------------------------------------------------------------

    def scenario(self) -> Scenario:
        context = self._finished_context or self._context
        if context is None:
            raise InvalidScenarioError("no scenario has been built yet")
        return Scenario.from_context(context, workspace=self._workspace)


__all__ = ["Scenario", "ScenarioBuilder", "GenerationStats"]
