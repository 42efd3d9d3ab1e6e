"""Pluggable scene-sampling strategies (the engine's interchangeable cores).

Every strategy runs the same candidate loop, :meth:`SamplingStrategy.sample`:
draw candidates with :meth:`SamplingStrategy._draw` (a fresh
:class:`~repro.core.distributions.Sample`, then the objects, the ego and the
params, in that order), then examine them in draw order against one check
chain — containment → collision → visibility → ``require`` — and accept the
first candidate that passes.  Each rejected candidate is booked under the
first check it failed, and a ``RejectSample`` raised anywhere in a candidate
books it as a sampling rejection.  Strategies differ only in their policy:

* :class:`RejectionSampler` — the paper's plain rejection loop (Sec. 5):
  blocks of one candidate, draw-for-draw the seed's ``Scenario.generate``.
* :class:`BatchSampler` — pre-draws each dependency group (objects that
  share random values) and locally re-draws a group until its *local*
  constraints (containment, intra-group collision) hold, which is
  distribution-preserving because the joint prior factorises over groups
  and those constraints touch one group only.  Cross-group constraints
  still reject the whole candidate.
* :class:`VectorizedSampler` — draws blocks of candidates and checks a
  block's containment and collisions in one pass through the numpy kernel
  (:mod:`repro.geometry.kernel`); the default for ``Scenario.generate_batch``.

Pruning on its own is not a strategy: :func:`repro.core.pruning.prune_scenario`
rewrites a scenario's sampling regions in place, after which any strategy
samples the pruned scenario::

    prune_scenario(scenario)                 # Sec. 5.2, bounds from static analysis
    scenario.generate(seed=0, strategy="rejection")

The per-candidate check (:func:`geometry_failure`) routes through the kernel
whenever the scene is large enough for batching to pay for itself, so
*every* strategy rides the vectorized hot path.

Strategies take no options: their tuning knobs are class constants.  They
are registered by name in :data:`STRATEGIES`; third-party code can plug in
new ones with :func:`register_strategy`::

    from repro.sampling import RejectionSampler, register_strategy

    @register_strategy
    class MySampler(RejectionSampler):
        name = "mine"
        # override bind() for one-time analysis, or the policy hooks
        # _block_sizes() / _predraw() / _geometry_failures()

    scenario.generate(seed=0, strategy="mine")
    SamplerEngine(scenario, strategy="mine").sample_batch(100, seed=1)

Strategies always receive a live, fully-bound
:class:`~repro.core.scenario.Scenario`; compiled artifacts and raw source
are resolved one level up by :func:`repro.sampling.engine.resolve_scenario`
(see ``docs/sampling.md``), so strategy authors never deal with the
compilation pipeline.
"""

from __future__ import annotations

import itertools
import random as _random
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple, Type, Union

import numpy as np

from ..core.distributions import Sample, concretize
from ..core.errors import RejectSample, RejectionError
from ..core.scenario import GenerationStats, Scenario
from ..core.scene import Scene
from ..geometry import kernel as _kernel
from .dependency import DependencyGraph, ObjectGroup
from .stats import AggregateStats

# ---------------------------------------------------------------------------
# The check chain, shared by all strategies
# ---------------------------------------------------------------------------


#: Below these sizes the scalar loops win: numpy call overhead outweighs the
#: vectorization for one or two objects / a handful of pairs.
_KERNEL_MIN_OBJECTS = 3
_KERNEL_MIN_COLLIDERS = 4


class Candidate(NamedTuple):
    """One drawn candidate scene: its joint sample and concrete values."""

    sample: Sample
    objects: List[Any]
    ego: Any
    params: Dict[str, Any]


#: What a drawn slot of a block holds: the candidate, or the cause that
#: rejected it while it was being drawn (``"sampling"``, or a group-local
#: cause under ``batch``).
Drawn = Union[Candidate, str]


def no_pairwise_collisions(
    concrete_objects: List[Any], pair_filter: Optional[Any] = None
) -> bool:
    """No two collision-checked objects intersect, pair by pair.

    *pair_filter*, when given, receives the two indices and returns whether
    that pair must be checked — the batch strategy uses it to check only
    cross-group pairs once every group holds locally.
    """
    for index, first in enumerate(concrete_objects):
        for jndex in range(index + 1, len(concrete_objects)):
            second = concrete_objects[jndex]
            if first.allowCollisions or second.allowCollisions:
                continue
            if pair_filter is not None and not pair_filter(index, jndex):
                continue
            if first.intersects(second):
                return False
    return True


def geometry_failure(workspace, concrete_objects: List[Any]) -> Optional[str]:
    """The chain's geometric half: ``"containment"``, ``"collision"`` or None.

    Every object must lie inside the workspace, and no two collision-checked
    objects may intersect.  Large scenes check both through the geometry
    kernel, from one corners array: containment as one batched query over
    every object's test points, collisions as one batched separating-axis
    pass.  Regions with custom ``contains_object`` semantics and small
    scenes take the scalar path.  Accept/reject decisions are identical
    either way.
    """
    count = len(concrete_objects)
    corners = None
    if not workspace.is_unbounded:
        region = workspace.region
        if count >= _KERNEL_MIN_OBJECTS and _kernel.region_supports_batch_objects(region):
            corners = _kernel.corners_array(concrete_objects)
            if not _kernel.objects_contained(region, corners).all():
                return "containment"
        elif not all(region.contains_object(scenic_object) for scenic_object in concrete_objects):
            return "containment"
    if count < _KERNEL_MIN_COLLIDERS:
        return None if no_pairwise_collisions(concrete_objects) else "collision"
    collidable = np.fromiter(
        (not scenic_object.allowCollisions for scenic_object in concrete_objects),
        dtype=bool,
        count=count,
    )
    if collidable.sum() < 2:
        return None
    if corners is None:
        corners = _kernel.corners_array(concrete_objects)
    return "collision" if len(_kernel.pairwise_collisions(corners, collidable)) else None


def all_required_visible(concrete_objects: List[Any], concrete_ego: Any) -> bool:
    """Every ``requireVisible`` object is visible from the ego."""
    from ..core.operators import _can_see  # concrete implementation

    for scenic_object in concrete_objects:
        if scenic_object is concrete_ego:
            continue
        if scenic_object.requireVisible and not _can_see(concrete_ego, scenic_object):
            return False
    return True


def check_user_requirements(scenario: Scenario, sample: Sample, rng: _random.Random) -> bool:
    """Evaluate the scenario's ``require`` statements against the joint sample."""
    for requirement in scenario.requirements:
        if not requirement.should_enforce(rng):
            continue
        if not requirement.holds_in(sample):
            return False
    return True


def late_failure(scenario: Scenario, candidate: Candidate, rng: _random.Random) -> Optional[str]:
    """The chain after geometry: ``"visibility"``, ``"user"``, ``"sampling"`` or None.

    Runs only on examined candidates, in draw order: soft requirements flip
    the shared RNG here, so this is where the strategies' streams interleave.
    """
    try:
        if not all_required_visible(candidate.objects, candidate.ego):
            return "visibility"
        if not check_user_requirements(scenario, candidate.sample, rng):
            return "user"
    except RejectSample:
        return "sampling"
    return None


def book_rejection(stats: GenerationStats, cause: str) -> None:
    """Count one rejected candidate (or group draw) under *cause*."""
    name = "rejections_" + cause
    setattr(stats, name, getattr(stats, name) + 1)


# ---------------------------------------------------------------------------
# Strategy base class (the one candidate loop) and registry
# ---------------------------------------------------------------------------


class SamplingStrategy:
    """Base class: propose candidate scenes for a scenario until one is accepted."""

    name = "abstract"

    def bind(self, scenario: Scenario) -> None:
        """One-time, per-scenario analysis (dependency graphs, block policy, ...).

        Called by the engine before the first draw; the work done here is
        amortised over every subsequent sample.
        """

    # -- policy hooks ------------------------------------------------------------

    def _block_sizes(self) -> Iterator[int]:
        """How many candidates each round draws before examining them."""
        return itertools.repeat(1)

    def _predraw(
        self, scenario: Scenario, sample: Sample, stats: GenerationStats
    ) -> Optional[str]:
        """Draw into *sample* ahead of the candidate; a cause rejects it."""
        return None

    def _geometry_failures(self, scenario: Scenario, block: List[Drawn]) -> List[Optional[str]]:
        """Each drawn slot's first failure so far: its draw cause, containment or collision."""
        workspace = scenario.workspace
        return [
            drawn if isinstance(drawn, str) else geometry_failure(workspace, drawn.objects)
            for drawn in block
        ]

    # -- the candidate loop ------------------------------------------------------

    def _draw(self, scenario: Scenario, rng: _random.Random, stats: GenerationStats) -> Drawn:
        """One candidate: a fresh Sample, then the objects, the ego and the params.

        That order is the engine's RNG-stream contract (same seed ⇒ same
        scene as the pre-engine code).
        """
        sample = Sample(rng)
        try:
            cause = self._predraw(scenario, sample, stats)
            if cause is not None:
                return cause
            concrete_objects = [
                scenic_object._concretize(sample) for scenic_object in scenario.objects
            ]
            concrete_ego = scenario.ego._concretize(sample)
            concrete_params = {
                name: concretize(value, sample) for name, value in scenario.params.items()
            }
        except RejectSample:
            return "sampling"
        return Candidate(sample, concrete_objects, concrete_ego, concrete_params)

    def sample(
        self, scenario: Scenario, max_iterations: int, rng: _random.Random
    ) -> Tuple[Optional[Scene], GenerationStats]:
        """Draw one accepted scene (or ``None`` after *max_iterations* candidates).

        ``stats.iterations`` counts examined candidates only: a block's
        candidates after the accepted one are drawn but never examined.
        """
        self.bind(scenario)
        stats = GenerationStats()
        start_time = time.perf_counter()
        scene: Optional[Scene] = None
        sizes = self._block_sizes()
        while scene is None and stats.iterations < max_iterations:
            count = min(next(sizes), max_iterations - stats.iterations)
            block = [self._draw(scenario, rng, stats) for _ in range(count)]
            for drawn, cause in zip(block, self._geometry_failures(scenario, block)):
                stats.iterations += 1
                if cause is None:
                    cause = late_failure(scenario, drawn, rng)
                if cause is None:
                    scene = Scene(drawn.objects, drawn.ego, drawn.params, scenario.workspace)
                    break
                book_rejection(stats, cause)
        stats.elapsed_seconds = time.perf_counter() - start_time
        return scene, stats

    def sample_batch(
        self,
        scenario: Scenario,
        count: int,
        max_iterations: int,
        rng: _random.Random,
        aggregate: AggregateStats,
    ) -> List[Scene]:
        """Draw *count* scenes by looping :meth:`sample`.

        Per-draw stats are recorded into *aggregate* as they happen, so the
        caller keeps the diagnostics of every draw — including the failing
        one — even when a draw exhausts its budget and this method raises
        :class:`RejectionError`.
        """
        scenes: List[Scene] = []
        for _ in range(count):
            scene, stats = self.sample(scenario, max_iterations, rng)
            aggregate.record(stats, self.name, accepted=scene is not None)
            if scene is None:
                raise RejectionError(max_iterations)
            scenes.append(scene)
        return scenes


STRATEGIES: Dict[str, Type[SamplingStrategy]] = {}


def register_strategy(cls: Type[SamplingStrategy]) -> Type[SamplingStrategy]:
    """Class decorator adding a strategy to the engine's registry."""
    STRATEGIES[cls.name] = cls
    return cls


def make_strategy(name: str) -> SamplingStrategy:
    """Instantiate a registered strategy by name."""
    if name not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown sampling strategy {name!r} (known: {known})")
    return STRATEGIES[name]()


# ---------------------------------------------------------------------------
# Rejection (the extracted seed behaviour)
# ---------------------------------------------------------------------------


@register_strategy
class RejectionSampler(SamplingStrategy):
    """Plain rejection sampling — the seed's ``Scenario.generate``, extracted."""

    name = "rejection"


# ---------------------------------------------------------------------------
# Batched, dependency-aware sampling
# ---------------------------------------------------------------------------


@register_strategy
class BatchSampler(SamplingStrategy):
    """Candidate generation that exploits the scenario's independence structure.

    :meth:`bind` computes the :class:`DependencyGraph` once.  Each candidate
    is then pre-drawn group by group: a group whose objects leave the
    workspace or collide *with each other* is locally re-drawn (only its
    sub-tree of the DAG is resampled) instead of discarding the whole joint
    sample.  Because the prior factorises over groups and these local
    constraints involve a single group, this draws each group exactly from
    its constraint-conditioned marginal; the remaining cross-group
    constraints (inter-group collisions, visibility from the ego, ``require``
    statements) are checked on the assembled candidate and reject it as a
    whole, exactly as in plain rejection.  Every failed group draw is booked
    under its cause.

    :attr:`LOCAL_REDRAW_CAP` bounds how often one group is re-drawn within a
    single candidate before the candidate as a whole counts as rejected.
    """

    name = "batch"
    LOCAL_REDRAW_CAP = 128

    def __init__(self):
        self.graph: Optional[DependencyGraph] = None

    def bind(self, scenario):
        if self.graph is None or self.graph.scenario is not scenario:
            self.graph = DependencyGraph(scenario)

    def _predraw(self, scenario, sample, stats):
        """Draw every group until its local constraints hold (or give up)."""
        for group in self.graph.groups:
            cause = self._draw_group(scenario, group, sample, stats)
            if cause is not None:
                return cause
        return None

    def _draw_group(
        self, scenario: Scenario, group: ObjectGroup, sample: Sample, stats: GenerationStats
    ) -> Optional[str]:
        """The last attempt's cause when *group* never held locally, else None."""
        cause = None
        for attempt in range(self.LOCAL_REDRAW_CAP):
            if attempt:
                book_rejection(stats, cause)
                group.forget_in(sample)
                stats.component_redraws += 1
            try:
                concrete = [scenic_object._concretize(sample) for scenic_object in group.objects]
                cause = geometry_failure(scenario.workspace, concrete)
            except RejectSample:
                cause = "sampling"
            if cause is None or group.is_static:
                return cause  # a static group redraws identically
        return cause

    def _geometry_failures(self, scenario, block):
        # Containment and same-group pairs held when each group was drawn;
        # only cross-group pairs are left to check.
        graph = self.graph
        sources = scenario.objects

        def cross_group(index: int, jndex: int) -> bool:
            return graph.independent(sources[index], sources[jndex])

        failures: List[Optional[str]] = []
        for drawn in block:
            if isinstance(drawn, str):
                failures.append(drawn)
            elif no_pairwise_collisions(drawn.objects, pair_filter=cross_group):
                failures.append(None)
            else:
                failures.append("collision")
        return failures


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------


@register_strategy
class VectorizedSampler(SamplingStrategy):
    """Propose candidates in blocks and reject them in bulk through the kernel.

    Each round draws up to :attr:`BLOCK_SIZE` candidate scenes (concretization
    stays per-candidate Python — it must evaluate arbitrary specifier
    expressions), then checks workspace containment for *all* objects of
    *all* candidates in one batched kernel query and all pairwise collisions
    in one batched separating-axis pass.  Candidates are then examined in
    draw order; the first one that also passes visibility and the user
    requirements is accepted.

    The induced distribution is exactly plain rejection's: candidates are
    i.i.d. draws from the prior, examined in the order they were drawn, and
    acceptance depends only on the candidate itself.  The RNG *stream* is
    consumed in a different interleaving than ``RejectionSampler`` (a whole
    block is drawn before any soft-requirement coin flips), so per-seed
    outputs differ between the two strategies while per-seed determinism
    holds for each — the golden-scene corpus pins both down.

    Block sizes are *adaptive* when the scenario has no soft requirements:
    rounds ramp ``MIN_BLOCK, 2*MIN_BLOCK, ...`` up to ``BLOCK_SIZE``, so an
    easy scenario (accepted within the first few candidates) does not pay
    for concretizing a full block it never examines — the dominant cost of
    per-scene sampling in the generation service, whose splitmix contract
    draws every scene with a fresh RNG.  The ramp is bit-identical to a
    fixed block: candidates are drawn sequentially from the same RNG stream
    and examined in draw order, so candidate *k* (and therefore the first
    accepted one) is the same no matter how draws are grouped into rounds.
    Soft requirements break that equivalence — ``require[p]`` flips the
    *shared* RNG per examined candidate, in between rounds' draws — so
    their presence disables the ramp and keeps the legacy fixed blocks
    (pinned by the golden corpus).
    """

    name = "vectorized"
    BLOCK_SIZE = 32
    MIN_BLOCK = 4

    def __init__(self):
        self._adaptive = False

    def bind(self, scenario):
        self._adaptive = not any(
            requirement.is_soft for requirement in scenario.requirements
        )

    def _block_sizes(self):
        size = self.MIN_BLOCK if self._adaptive else self.BLOCK_SIZE
        while True:
            yield size
            size = min(size * 2, self.BLOCK_SIZE)

    def _geometry_failures(self, scenario, block):
        """One kernel pass: containment for every object, then collisions.

        The corners and the collidable mask of the block's ``K`` live
        candidates come from one pass over their ``K * N`` objects.
        """
        failures: List[Optional[str]] = [
            drawn if isinstance(drawn, str) else None for drawn in block
        ]
        live = [index for index, drawn in enumerate(block) if not isinstance(drawn, str)]
        if not live:
            return failures
        objects = [scenic_object for index in live for scenic_object in block[index].objects]
        corners = _kernel.corners_array(objects).reshape(len(live), -1, 4, 2)
        collidable = np.fromiter(
            (not scenic_object.allowCollisions for scenic_object in objects),
            dtype=bool,
            count=len(objects),
        ).reshape(len(live), -1)
        workspace = scenario.workspace
        if not workspace.is_unbounded:
            region = workspace.region
            if _kernel.region_supports_batch_objects(region):
                per_object = _kernel.objects_contained(
                    region, corners.reshape(-1, 4, 2)
                ).reshape(len(live), -1)
                contained = per_object.all(axis=1)
            else:
                contained = np.fromiter(
                    (
                        all(
                            region.contains_object(scenic_object)
                            for scenic_object in block[index].objects
                        )
                        for index in live
                    ),
                    dtype=bool,
                    count=len(live),
                )
            for position, index in enumerate(live):
                if not contained[position]:
                    failures[index] = "containment"
            keep = np.flatnonzero(contained)
            corners = corners[keep]
            collidable = collidable[keep]
            live = [live[int(position)] for position in keep]
            if not live:
                return failures
        collision_free = _kernel.batch_collision_free(corners, collidable)
        for position, index in enumerate(live):
            if not collision_free[position]:
                failures[index] = "collision"
        return failures


__all__ = [
    "SamplingStrategy",
    "RejectionSampler",
    "BatchSampler",
    "VectorizedSampler",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
    "check_user_requirements",
]
