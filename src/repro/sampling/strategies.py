"""The scene-sampling strategies: one candidate loop, two block policies.

Every strategy runs the same candidate loop, :meth:`SamplingStrategy.sample`:
draw candidates with :meth:`SamplingStrategy._draw` (one pass over the
scenario's draw program, :mod:`repro.core.program`: the objects, the ego, the
params and the requirements' coins and values, in that order), then examine
them in draw order against one check chain — containment → collision →
visibility → ``require`` — and accept the first candidate that passes.  Only
the draw reads the RNG.  Each rejected candidate is booked under the
first check it failed, and a ``RejectSample`` raised anywhere in a candidate
books it as a sampling rejection.  Strategies differ only in their policy:

* :class:`RejectionSampler` — the paper's plain rejection loop (Sec. 5):
  blocks of one candidate, draw-for-draw the seed's ``Scenario.generate``.
  The reference semantics that the golden runs, the fuzz oracles and the
  evals harness compare against.
* :class:`VectorizedSampler` — draws blocks of 1, 2, 4, … up to 128
  candidates, those of 16 or more as numpy columns
  (:mod:`repro.core.columns`), and checks each block's containment and
  collisions, a block of one included, in one pass through the numpy
  kernel (:mod:`repro.geometry.kernel`); the default for
  ``Scenario.generate_batch`` and the generation service
  (:data:`~repro.core.scenario.DEFAULT_BATCH_STRATEGY`).

Pruning on its own is not a strategy: :func:`repro.core.pruning.prune_scenario`
rewrites a scenario's sampling regions in place, after which any strategy
samples the pruned scenario::

    prune_scenario(scenario)                 # Sec. 5.2, bounds from static analysis
    scenario.generate(seed=0, strategy="rejection")

The per-candidate check (:func:`geometry_failure`), which ``rejection``
runs and ``vectorized`` keeps for one candidate of one or two objects,
routes through the kernel from 3 objects on, so *every* strategy rides the
vectorized hot path.

Strategies take no options: their tuning knobs are class constants.  They
are listed by name in :data:`STRATEGIES`; a strategy *instance* can be
passed to ``Scenario.generate`` / ``generate_batch`` directly (how tests
and the selfchecks plant a faulty strategy).  Strategies always receive a
live :class:`~repro.core.scenario.Scenario`; a compiled artifact hands out
its shared one with ``artifact.scenario()`` (see ``docs/sampling.md``).
"""

from __future__ import annotations

import itertools
import random as _random
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..core.columns import column_plan
from ..core.distributions import Sample
from ..core.errors import RejectSample, RejectionError
from ..core.program import Candidate, current_program, draw_candidate
from ..core.scenario import GenerationStats, Scenario
from ..core.scene import Scene
from ..geometry import kernel as _kernel
from .stats import AggregateStats

# ---------------------------------------------------------------------------
# The check chain, shared by all strategies
# ---------------------------------------------------------------------------


#: Below these sizes the scalar loops win: numpy call overhead outweighs the
#: vectorization for one or two objects / a handful of pairs.
_KERNEL_MIN_OBJECTS = 3
_KERNEL_MIN_COLLIDERS = 4


#: What a drawn slot of a block holds: the candidate, or the cause that
#: rejected it while it was being drawn (``"sampling"``).
Drawn = Union[Candidate, str]


def no_pairwise_collisions(concrete_objects: List[Any]) -> bool:
    """No two collision-checked objects intersect, pair by pair."""
    for index, first in enumerate(concrete_objects):
        for jndex in range(index + 1, len(concrete_objects)):
            second = concrete_objects[jndex]
            if first.allowCollisions or second.allowCollisions:
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


def check_user_requirements(scenario: Scenario, sample: Sample) -> bool:
    """Evaluate the scenario's ``require`` statements against the joint sample.

    A soft requirement is checked when its coin, drawn with the candidate,
    comes up enforced.
    """
    for requirement in scenario.requirements:
        if requirement.enforced_in(sample) and not requirement.holds_in(sample):
            return False
    return True


def late_failure(scenario: Scenario, candidate: Candidate) -> Optional[str]:
    """The chain after geometry: ``"visibility"``, ``"user"``, ``"sampling"`` or None.

    Runs only on examined candidates, in draw order, and reads no RNG: the
    candidate's draw read its coins and every value only a ``require``
    reaches.
    """
    try:
        if not all_required_visible(candidate.objects, candidate.ego):
            return "visibility"
        if not check_user_requirements(scenario, candidate.sample):
            return "user"
    except RejectSample:
        return "sampling"
    return None


def book_rejection(stats: GenerationStats, cause: str) -> None:
    """Count one rejected candidate under *cause*."""
    name = "rejections_" + cause
    setattr(stats, name, getattr(stats, name) + 1)


# ---------------------------------------------------------------------------
# Strategy base class (the one candidate loop)
# ---------------------------------------------------------------------------


class SamplingStrategy:
    """Base class: propose candidate scenes for a scenario until one is accepted."""

    name = "abstract"
    #: The stream block: a block may draw several, but once the loop accepts
    #: a candidate the RNG stands where the stream block holding it ends.
    BLOCK_SIZE = 1

    def bind(self, scenario: Scenario) -> None:
        """Per-scenario set-up; the built-in strategies need none.

        :meth:`sample` calls it before every draw.
        """

    # -- policy hooks ------------------------------------------------------------

    def _block_sizes(self) -> Iterator[int]:
        """How many candidates each round draws before examining them."""
        return itertools.repeat(self.BLOCK_SIZE)

    def _draw_block(
        self, scenario: Scenario, rng: _random.Random, count: int
    ) -> Tuple[Sequence[Drawn], Iterable[Optional[str]], List[Any]]:
        """*count* candidates, each one's first failure so far, and the RNG's stream-block ends.

        Candidate by candidate through :meth:`_draw`, then
        :meth:`_geometry_failures`, one stream block at a time: the loop
        examines a stream block's candidates before the next one is drawn
        (*block* fills as the failures are read), so the RNG stops where the
        accepted candidate's stream block ends, with no states to rewind to.
        """
        block: List[Drawn] = []

        def failures() -> Iterator[Optional[str]]:
            for start in range(0, count, self.BLOCK_SIZE):
                part = [self._draw(scenario, rng) for _ in range(min(self.BLOCK_SIZE, count - start))]
                block.extend(part)
                yield from self._geometry_failures(scenario, part)

        return block, failures(), []

    def _geometry_failures(self, scenario: Scenario, block: List[Drawn]) -> List[Optional[str]]:
        """Each drawn slot's first failure so far: its draw cause, containment or collision.

        Candidate by candidate through :func:`geometry_failure`, whose scalar
        loops skip the numpy set-up on small scenes.
        """
        workspace = scenario.workspace
        return [
            drawn if isinstance(drawn, str) else geometry_failure(workspace, drawn.objects)
            for drawn in block
        ]

    # -- the candidate loop ------------------------------------------------------

    def _draw(self, scenario: Scenario, rng: _random.Random) -> Drawn:
        """One candidate: the objects, the ego, the params and the requirement roots.

        One pass over the scenario's draw program
        (:mod:`repro.core.program`), which reads the RNG in the ``concretize``
        walk's order: the RNG-stream contract the golden scenes pin (same
        seed ⇒ same scene).  The one place a candidate reads the RNG.
        """
        try:
            return Candidate(*draw_candidate(scenario, rng))
        except RejectSample:
            return "sampling"

    def sample(
        self, scenario: Scenario, max_iterations: int, rng: _random.Random
    ) -> Tuple[Optional[Scene], GenerationStats]:
        """Draw one accepted scene (or ``None`` after *max_iterations* candidates).

        ``stats.iterations`` counts examined candidates only: a block's
        candidates after the accepted one are drawn but never examined.  A
        block that spans several stream blocks gives the RNG states at their
        ends, and the accepted candidate's puts the RNG back.
        """
        self.bind(scenario)
        current_program(scenario)  # rebuilt here if an edit made it stale
        stats = GenerationStats()
        start_time = time.perf_counter()
        scene: Optional[Scene] = None
        sizes = self._block_sizes()
        while scene is None and stats.iterations < max_iterations:
            count = min(next(sizes), max_iterations - stats.iterations)
            block, failures, ends = self._draw_block(scenario, rng, count)
            for index, cause in enumerate(failures):
                stats.iterations += 1
                if cause is None:
                    drawn = block[index]
                    cause = late_failure(scenario, drawn)
                if cause is None:
                    scene = Scene(drawn.objects, drawn.ego, drawn.params, scenario.workspace)
                    if index // self.BLOCK_SIZE < len(ends):  # rewind to its stream block's end
                        rng.setstate(ends[index // self.BLOCK_SIZE])
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
            aggregate.record(stats, accepted=scene is not None)
            if scene is None:
                raise RejectionError(max_iterations)
            scenes.append(scene)
        return scenes


# ---------------------------------------------------------------------------
# Rejection (the extracted seed behaviour)
# ---------------------------------------------------------------------------


class RejectionSampler(SamplingStrategy):
    """Plain rejection sampling — the seed's ``Scenario.generate``, extracted."""

    name = "rejection"


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------


class VectorizedSampler(SamplingStrategy):
    """Propose candidates in blocks and reject them in bulk through the kernel.

    Rounds draw blocks of 1, 2, 4, … candidates, doubling up to
    :attr:`COLUMN_MAX_BLOCK`, so an easy scenario (accepted within the
    first few candidates) does not pay for concretizing a full block it never
    examines — the dominant cost of per-scene sampling in the generation
    service, whose splitmix contract draws every scene with a fresh RNG.
    Every block, a block of one included, checks workspace containment for
    *all* objects of *all* its candidates in one batched kernel query and
    all pairwise collisions in one batched pass; only a block of one
    candidate of one or two objects keeps the per-candidate chain
    (:func:`geometry_failure`).  A
    block of :attr:`COLUMN_MIN_BLOCK` or more is drawn as columns
    (:mod:`repro.core.columns`): the same RNG reads, numpy values step by
    step, corners straight from the object columns, and objects only for
    the candidates examined past geometry.  Candidates are then examined
    in draw order; the first one that also passes visibility and the user
    requirements is accepted.

    Candidate *k* is the same however draws are grouped into blocks: every
    RNG read, a ``require[p]`` coin included, is part of a candidate's draw,
    and candidates are examined in draw order.  So the first scene drawn
    from a fresh RNG is rejection's, draw for draw.  The stream differs in
    one way: the candidates after the accepted one in its block are drawn
    but never examined, which moves where the next scene of a multi-scene
    batch starts.  Blocks past :attr:`BLOCK_SIZE` change only what a
    column pass costs: the loop rewinds the RNG to where blocks of
    :attr:`BLOCK_SIZE` would leave it.
    """

    name = "vectorized"
    BLOCK_SIZE = 32
    #: Blocks of at least this many candidates are drawn as columns
    #: (:mod:`repro.core.columns`); below it the numpy set-up costs more
    #: than it saves.
    COLUMN_MIN_BLOCK = 16
    #: The ramp doubles blocks past :attr:`BLOCK_SIZE` up to this many
    #: candidates, so a column pass's fixed cost is paid less often.
    COLUMN_MAX_BLOCK = 128

    def _block_sizes(self):
        size = 1
        while True:
            yield size
            size = min(size * 2, self.COLUMN_MAX_BLOCK)

    def _draw_block(self, scenario, rng, count):
        """A large block is drawn as columns, and its geometry checked from them.

        The candidates are built only when the loop examines them past
        geometry.  An exception while drawing the columns restores the RNG
        and redraws the block candidate by candidate, one stream block at a
        time, so every error and ``"sampling"`` rejection happens where the
        scalar draw has it.
        """
        plan = column_plan(scenario._draw_program) if count >= self.COLUMN_MIN_BLOCK else None
        if plan is not None:
            state = rng.getstate()
            try:
                block = plan.draw(rng, count, self.BLOCK_SIZE)
                corners, collidable = block.geometry()
            except Exception:  # noqa: BLE001 - the scalar redraw meets it again
                plan.replays += 1
                rng.setstate(state)
            else:
                failures: List[Optional[str]] = [None] * count
                return block, self._block_verdicts(
                    scenario, block, failures, list(range(count)), corners, collidable
                ), block.ends
        return super()._draw_block(scenario, rng, count)

    def _geometry_failures(self, scenario, block):
        """One kernel pass: containment for every object, then collisions.

        The corners and the collidable mask of the block's ``K`` live
        candidates come from one pass over their ``K * N`` objects.  One
        candidate of fewer than ``_KERNEL_MIN_OBJECTS`` objects takes the
        per-candidate chain instead: same verdicts, without the numpy set-up.
        """
        if len(block) == 1 and len(scenario.objects) < _KERNEL_MIN_OBJECTS:
            return super()._geometry_failures(scenario, block)
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
        return self._block_verdicts(scenario, block, failures, live, corners, collidable)

    def _block_verdicts(self, scenario, block, failures, live, corners, collidable):
        """Containment of every live candidate's objects, then collisions of the contained.

        *corners* is ``(len(live), N, 4, 2)`` and *collidable* ``(len(live),
        N)``; *failures* is filled in place and returned.
        """
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
            if not contained.all():
                for index, inside in zip(live, contained.tolist()):
                    if not inside:
                        failures[index] = "containment"
                corners = corners[contained]
                collidable = collidable[contained]
                live = [index for index, inside in zip(live, contained.tolist()) if inside]
                if not live:
                    return failures
        collision_free = _kernel.batch_collision_free(corners, collidable)
        for index, free in zip(live, collision_free.tolist()):
            if not free:
                failures[index] = "collision"
        return failures


#: Every strategy, by name.
STRATEGIES: Dict[str, Type[SamplingStrategy]] = {
    "rejection": RejectionSampler,
    "vectorized": VectorizedSampler,
}


def make_strategy(name: str) -> SamplingStrategy:
    """Instantiate a strategy by name."""
    if name not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown sampling strategy {name!r} (known: {known})")
    return STRATEGIES[name]()


__all__ = [
    "SamplingStrategy",
    "RejectionSampler",
    "VectorizedSampler",
    "STRATEGIES",
    "make_strategy",
    "check_user_requirements",
]
