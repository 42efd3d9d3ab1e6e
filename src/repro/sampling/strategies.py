"""Pluggable scene-sampling strategies (the engine's interchangeable cores).

Every strategy turns a :class:`~repro.core.scenario.Scenario` into accepted
scenes; they differ in *how* candidates are proposed:

* :class:`RejectionSampler` — the paper's plain rejection loop (Sec. 5),
  extracted verbatim from the old ``Scenario.generate`` so the delegated
  path is draw-for-draw identical to the seed behaviour.
* :class:`BatchSampler` — amortises dependency analysis across the whole
  run and exploits independence between objects: each independent group is
  locally re-drawn until its *local* constraints (containment, intra-group
  collision) hold, which is distribution-preserving because the joint prior
  factorises over groups and those constraints touch one group only.
  Cross-group constraints still trigger a full restart.
* :class:`VectorizedSampler` — draws a whole block of candidate scenes,
  then runs the containment and collision checks for the entire block in
  one pass through the numpy kernel (:mod:`repro.geometry.kernel`); the
  default for ``Scenario.generate_batch``.
* :class:`DirectSampler` — runs the Sec. 5.2 pruning pass once, then
  draws positions and heading deviations constructively from the pruned
  feasible regions (:mod:`repro.synthesis`).

Pruning on its own is not a strategy: :func:`repro.core.pruning.prune_scenario`
rewrites a scenario's sampling regions in place, after which any strategy
samples the pruned scenario::

    prune_scenario(scenario)                 # Sec. 5.2, bounds from static analysis
    scenario.generate(seed=0, strategy="rejection")

The shared candidate checks themselves (``contained_in_workspace``,
``no_pairwise_collisions``) route through the kernel whenever the scene is
large enough for batching to pay for itself, so *every* strategy rides the
vectorized hot path.

Strategies take no options: their tuning knobs are class constants.  They
are registered by name in :data:`STRATEGIES`; third-party code can plug in
new ones with :func:`register_strategy`::

    from repro.sampling import RejectionSampler, register_strategy

    @register_strategy
    class MySampler(RejectionSampler):
        name = "mine"
        # override bind() for one-time analysis, _draw_candidate() for the
        # proposal, or sample()/sample_batch() for the whole loop

    scenario.generate(seed=0, strategy="mine")
    SamplerEngine(scenario, strategy="mine").sample_batch(100, seed=1)

Strategies always receive a live, fully-bound
:class:`~repro.core.scenario.Scenario`; compiled artifacts and raw source
are resolved one level up by :func:`repro.sampling.engine.resolve_scenario`
(see ``docs/sampling.md``), so strategy authors never deal with the
compilation pipeline.
"""

from __future__ import annotations

import random as _random
import time
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from ..core.distributions import Sample, concretize
from ..core.errors import RejectSample, RejectionError
from ..core.pruning import PruningReport, prune_scenario
from ..core.scenario import GenerationStats, Scenario
from ..core.scene import Scene
from ..geometry import kernel as _kernel
from .dependency import DependencyGraph, ObjectGroup
from .stats import AggregateStats

# ---------------------------------------------------------------------------
# The candidate-scene check, shared by all strategies
# ---------------------------------------------------------------------------


#: Below these sizes the scalar loops win: numpy call overhead outweighs the
#: vectorization for one or two objects / a handful of pairs.
_KERNEL_MIN_OBJECTS = 3
_KERNEL_MIN_COLLIDERS = 4


def contained_in_workspace(
    workspace, concrete_objects: List[Any], stats: GenerationStats
) -> bool:
    """Every object inside the workspace (counts a containment rejection).

    Large scenes batch all objects' test points through the geometry kernel
    (one vectorized containment query instead of ``8 * n`` scalar ones);
    regions with custom ``contains_object`` semantics and small scenes take
    the scalar path.  Accept/reject decisions are identical either way.
    """
    if workspace.is_unbounded:
        return True
    workspace_region = workspace.region
    if (
        len(concrete_objects) >= _KERNEL_MIN_OBJECTS
        and _kernel.region_supports_batch_objects(workspace_region)
    ):
        corners = _kernel.corners_array(concrete_objects)
        if bool(_kernel.objects_contained(workspace_region, corners).all()):
            return True
        stats.rejections_containment += 1
        return False
    for scenic_object in concrete_objects:
        if not workspace_region.contains_object(scenic_object):
            stats.rejections_containment += 1
            return False
    return True


def no_pairwise_collisions(
    concrete_objects: List[Any],
    stats: GenerationStats,
    pair_filter: Optional[Any] = None,
) -> bool:
    """No two collision-checked objects intersect (counts a collision rejection).

    *pair_filter*, when given, receives the two indices and returns whether
    that pair must be checked — the batch strategy uses it to split the
    check into intra-group and cross-group halves without duplicating the
    rejection semantics.

    Unfiltered checks on larger scenes run through the kernel's batched
    separating-axis test (grid-pruned for many objects); the scalar loop
    remains for filtered checks and small scenes.
    """
    if pair_filter is None and len(concrete_objects) >= _KERNEL_MIN_COLLIDERS:
        collidable = np.fromiter(
            (not scenic_object.allowCollisions for scenic_object in concrete_objects),
            dtype=bool,
            count=len(concrete_objects),
        )
        if collidable.sum() >= 2:
            corners = _kernel.corners_array(concrete_objects)
            if len(_kernel.pairwise_collisions(corners, collidable)) > 0:
                stats.rejections_collision += 1
                return False
            return True
        return True
    for index, first in enumerate(concrete_objects):
        for jndex in range(index + 1, len(concrete_objects)):
            second = concrete_objects[jndex]
            if first.allowCollisions or second.allowCollisions:
                continue
            if pair_filter is not None and not pair_filter(index, jndex):
                continue
            if first.intersects(second):
                stats.rejections_collision += 1
                return False
    return True


def all_required_visible(
    concrete_objects: List[Any], concrete_ego: Any, stats: GenerationStats
) -> bool:
    """Every ``requireVisible`` object is visible from the ego."""
    from ..core.operators import _can_see  # concrete implementation

    for scenic_object in concrete_objects:
        if scenic_object is concrete_ego:
            continue
        if scenic_object.requireVisible and not _can_see(concrete_ego, scenic_object):
            stats.rejections_visibility += 1
            return False
    return True


def check_builtin_requirements(
    scenario: Scenario,
    concrete_objects: List[Any],
    concrete_ego: Any,
    stats: GenerationStats,
) -> bool:
    """The three default requirements of Sec. 3 (containment, collision, visibility)."""
    return (
        contained_in_workspace(scenario.workspace, concrete_objects, stats)
        and no_pairwise_collisions(concrete_objects, stats)
        and all_required_visible(concrete_objects, concrete_ego, stats)
    )


def check_user_requirements(
    scenario: Scenario, sample: Sample, rng: _random.Random, stats: GenerationStats
) -> bool:
    """Evaluate the scenario's ``require`` statements against the joint sample."""
    for requirement in scenario.requirements:
        if not requirement.should_enforce(rng):
            continue
        if not requirement.holds_in(sample):
            stats.rejections_user += 1
            return False
    return True


def draw_candidate(
    scenario: Scenario, rng: _random.Random, stats: GenerationStats
) -> Optional[Scene]:
    """Draw one candidate scene; return it if valid, ``None`` if rejected.

    This is the seed's ``Scenario._sample_candidate`` extracted unchanged:
    the order of RNG draws is part of the engine's compatibility contract
    (same seed ⇒ same scene as the pre-engine code).
    """
    sample = Sample(rng)
    concrete_objects = [scenic_object._concretize(sample) for scenic_object in scenario.objects]
    concrete_ego = scenario.ego._concretize(sample)
    concrete_params = {name: concretize(value, sample) for name, value in scenario.params.items()}

    if not check_builtin_requirements(scenario, concrete_objects, concrete_ego, stats):
        return None
    if not check_user_requirements(scenario, sample, rng, stats):
        return None
    return Scene(concrete_objects, concrete_ego, concrete_params, scenario.workspace)


# ---------------------------------------------------------------------------
# Strategy base class and registry
# ---------------------------------------------------------------------------


class SamplingStrategy:
    """Base class: propose candidate scenes for a scenario until one is accepted."""

    name = "abstract"

    #: Strategies that rewrite the scenario in place during :meth:`bind`
    #: (e.g. pruning shrinks sampling regions) must set this, so shared
    #: infrastructure — notably compiled artifacts' interned scenarios, see
    #: :func:`repro.sampling.engine.resolve_scenario` — hands them an
    #: independent scenario instead of a shared one.
    mutates_scenario = False

    #: Strategies that stamp ``scene.importance_weight`` (the constructive
    #: ``direct`` family) set this so the engine and the batch loop forward
    #: the weights into :class:`AggregateStats` roll-ups; rejection-style
    #: strategies leave the weight at its exact default of 1.0 and record
    #: no weight at all.
    uses_importance_weights = False

    def bind(self, scenario: Scenario) -> None:
        """One-time, per-scenario analysis (pruning, dependency graphs, ...).

        Called by the engine before the first draw; the work done here is
        amortised over every subsequent sample.
        """

    def _draw_candidate(
        self, scenario: Scenario, rng: _random.Random, stats: GenerationStats
    ) -> Optional[Scene]:
        """Propose one candidate scene (``None`` when rejected).

        The hook :meth:`sample`'s shared rejection loop calls; strategies
        that keep the one-candidate-at-a-time shape only override this.
        """
        raise NotImplementedError

    def sample(
        self, scenario: Scenario, max_iterations: int, rng: _random.Random
    ) -> Tuple[Optional[Scene], GenerationStats]:
        """Draw one accepted scene (or ``None`` after *max_iterations* candidates)."""
        self.bind(scenario)
        stats = GenerationStats()
        start_time = time.perf_counter()
        scene: Optional[Scene] = None
        for iteration in range(1, max_iterations + 1):
            stats.iterations = iteration
            try:
                scene = self._draw_candidate(scenario, rng, stats)
            except RejectSample:
                stats.rejections_sampling += 1
                continue
            if scene is not None:
                break
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
        """Draw *count* scenes; default implementation loops :meth:`sample`.

        Per-draw stats are recorded into *aggregate* as they happen, so the
        caller keeps the diagnostics of every draw — including the failing
        one — even when a draw exhausts its budget and this method raises
        :class:`RejectionError`.
        """
        scenes: List[Scene] = []
        for _ in range(count):
            scene, stats = self.sample(scenario, max_iterations, rng)
            weight = (
                scene.importance_weight
                if scene is not None and self.uses_importance_weights
                else None
            )
            aggregate.record(
                stats, self.name, accepted=scene is not None, importance_weight=weight
            )
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

    def _draw_candidate(self, scenario, rng, stats):
        return draw_candidate(scenario, rng, stats)


# ---------------------------------------------------------------------------
# Batched, dependency-aware sampling
# ---------------------------------------------------------------------------


@register_strategy
class BatchSampler(SamplingStrategy):
    """Candidate generation that exploits the scenario's independence structure.

    :meth:`bind` computes the :class:`DependencyGraph` once.  Each candidate
    is then assembled group by group: a group whose objects leave the
    workspace or collide *with each other* is locally re-drawn (only its
    sub-tree of the DAG is resampled) instead of discarding the whole joint
    sample.  Because the prior factorises over groups and these local
    constraints involve a single group, this draws each group exactly from
    its constraint-conditioned marginal; the remaining cross-group
    constraints (inter-group collisions, visibility from the ego, ``require``
    statements) are checked on the assembled candidate and trigger a full
    restart on failure, exactly as in plain rejection.

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

    # -- candidate construction -------------------------------------------------

    def _group_is_locally_valid(
        self, scenario: Scenario, group: ObjectGroup, sample: Sample, stats: GenerationStats
    ) -> bool:
        concrete = [scenic_object._concretize(sample) for scenic_object in group.objects]
        return contained_in_workspace(
            scenario.workspace, concrete, stats
        ) and no_pairwise_collisions(concrete, stats)

    def _draw_group(
        self, scenario: Scenario, group: ObjectGroup, sample: Sample, stats: GenerationStats
    ) -> bool:
        """Draw *group* until its local constraints hold (or give up)."""
        for attempt in range(self.LOCAL_REDRAW_CAP):
            if attempt:
                group.forget_in(sample)
                stats.component_redraws += 1
            try:
                if self._group_is_locally_valid(scenario, group, sample, stats):
                    return True
            except RejectSample:
                stats.rejections_sampling += 1
            if group.is_static:
                return False  # redrawing cannot change anything
        return False

    def _draw_candidate(self, scenario, rng, stats) -> Optional[Scene]:
        sample = Sample(rng)
        for group in self.graph.groups:
            if not self._draw_group(scenario, group, sample, stats):
                return None
        concrete_objects = [obj._concretize(sample) for obj in scenario.objects]
        concrete_ego = scenario.ego._concretize(sample)
        concrete_params = {
            name: concretize(value, sample) for name, value in scenario.params.items()
        }
        if not self._cross_group_checks(scenario, concrete_objects, concrete_ego, stats):
            return None
        if not check_user_requirements(scenario, sample, rng, stats):
            return None
        return Scene(concrete_objects, concrete_ego, concrete_params, scenario.workspace)

    def _cross_group_checks(self, scenario, concrete_objects, concrete_ego, stats) -> bool:
        """The builtin checks not already guaranteed group-locally."""
        graph = self.graph
        sources = scenario.objects
        return no_pairwise_collisions(
            concrete_objects,
            stats,
            # Same-group pairs were already checked locally; only cross-group
            # pairs need the joint-level collision check.
            pair_filter=lambda index, jndex: graph.independent(sources[index], sources[jndex]),
        ) and all_required_visible(concrete_objects, concrete_ego, stats)


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------


@register_strategy
class VectorizedSampler(SamplingStrategy):
    """Propose candidates in blocks and reject them in bulk through the kernel.

    Each round draws up to :attr:`BLOCK_SIZE` candidate scenes' worth of samples
    (concretization stays per-candidate Python — it must evaluate arbitrary
    specifier expressions), then checks workspace containment for *all*
    objects of *all* candidates in one batched kernel query and all pairwise
    collisions in one batched separating-axis pass.  Candidates are then
    examined in draw order; the first one that also passes the (scalar)
    visibility and user-requirement checks is accepted.

    The induced distribution is exactly plain rejection's: candidates are
    i.i.d. draws from the prior, examined in the order they were drawn, and
    acceptance depends only on the candidate itself.  The RNG *stream* is
    consumed in a different interleaving than ``RejectionSampler`` (a whole
    block is drawn before any soft-requirement coin flips), so per-seed
    outputs differ between the two strategies while per-seed determinism
    holds for each — the golden-scene corpus pins both down.

    ``stats.iterations`` counts examined candidates only, so exhaustion
    semantics match rejection: ``max_iterations=1`` examines exactly one
    candidate.

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
        super().bind(scenario)
        self._adaptive = not any(
            requirement.is_soft for requirement in scenario.requirements
        )

    def sample(self, scenario, max_iterations, rng):
        self.bind(scenario)
        stats = GenerationStats()
        start_time = time.perf_counter()
        scene: Optional[Scene] = None
        next_block = self.MIN_BLOCK if self._adaptive else self.BLOCK_SIZE
        while scene is None and stats.iterations < max_iterations:
            block = min(next_block, max_iterations - stats.iterations)
            next_block = min(next_block * 2, self.BLOCK_SIZE)
            candidates = self._draw_block(scenario, rng, block)
            failures = self._bulk_geometry_failures(scenario, candidates)
            for candidate, failure in zip(candidates, failures):
                stats.iterations += 1
                if candidate is None:
                    stats.rejections_sampling += 1
                    continue
                if failure == "containment":
                    stats.rejections_containment += 1
                    continue
                if failure == "collision":
                    stats.rejections_collision += 1
                    continue
                sample, concrete_objects, concrete_ego, concrete_params = candidate
                if not all_required_visible(concrete_objects, concrete_ego, stats):
                    continue
                if not check_user_requirements(scenario, sample, rng, stats):
                    continue
                scene = Scene(concrete_objects, concrete_ego, concrete_params, scenario.workspace)
                break
        stats.elapsed_seconds = time.perf_counter() - start_time
        return scene, stats

    # -- internals ---------------------------------------------------------------

    def _draw_block(self, scenario, rng, count):
        """Concretize *count* candidates; ``None`` marks a RejectSample draw."""
        candidates = []
        for _ in range(count):
            try:
                sample = Sample(rng)
                concrete_objects = [
                    scenic_object._concretize(sample) for scenic_object in scenario.objects
                ]
                concrete_ego = scenario.ego._concretize(sample)
                concrete_params = {
                    name: concretize(value, sample) for name, value in scenario.params.items()
                }
                candidates.append((sample, concrete_objects, concrete_ego, concrete_params))
            except RejectSample:
                candidates.append(None)
        return candidates

    def _bulk_geometry_failures(self, scenario, candidates):
        """First geometric failure per candidate: "containment", "collision" or None."""
        failures: List[Optional[str]] = [None] * len(candidates)
        live = [index for index, candidate in enumerate(candidates) if candidate is not None]
        if not live:
            return failures
        corners = np.stack(
            [_kernel.corners_array(candidates[index][1]) for index in live]
        )  # (K, n, 4, 2)
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
                            for scenic_object in candidates[index][1]
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
            live = [live[int(position)] for position in keep]
            if not live:
                return failures
        collidable = np.stack(
            [
                np.fromiter(
                    (
                        not scenic_object.allowCollisions
                        for scenic_object in candidates[index][1]
                    ),
                    dtype=bool,
                    count=corners.shape[1],
                )
                for index in live
            ]
        )
        collision_free = _kernel.batch_collision_free(corners, collidable)
        for position, index in enumerate(live):
            if not collision_free[position]:
                failures[index] = "collision"
        return failures


# ---------------------------------------------------------------------------
# Direct synthesis: constructive sampling from the pruned feasible regions
# ---------------------------------------------------------------------------


@register_strategy
class DirectSampler(SamplingStrategy):
    """Constructive sampling from the pruned feasible regions.

    :meth:`bind` runs the fully automatic Sec. 5.2 pruning pass
    (:func:`~repro.core.pruning.prune_scenario` with the compiled artifact's
    static-analysis bounds; its :class:`PruningReport` is kept on
    :attr:`report`), then compiles the pruned scenario into a
    :class:`~repro.synthesis.DirectPlan`: positions draw in O(1) from
    triangle fans over the pruned polygonal regions (or from eroded
    workspace fans for non-polygonal region priors), and heading deviations
    draw from the static analyzer's wrap-safe arcs instead of rejecting on
    them.  Every proposal is a sound over-approximation of the feasible set
    and every requirement is still re-checked on the concrete candidate, so
    the sampled distribution is *exactly* the requirement-conditioned prior
    — the statistical-equivalence oracle in :mod:`repro.fuzz.oracles` holds
    the strategy to that claim against plain rejection.

    Accepted scenes carry an :attr:`~repro.core.scene.Scene.importance_weight`
    — an online estimate of the plain-rejection acceptance probability (see
    :mod:`repro.synthesis.importance`) — and ``stats.candidates_drawn``
    counts the constructive proposal draws, so the candidate-count reduction
    against the rejection-style strategies is directly measurable (the
    engine benchmark asserts it).
    """

    name = "direct"
    mutates_scenario = True  # the pruning pass rewrites regions in place
    uses_importance_weights = True

    def __init__(self):
        self.report: Optional[PruningReport] = None
        self.plan = None
        self._bound_scenario: Optional[Scenario] = None

    def bind(self, scenario):
        from ..synthesis import build_plan

        if self._bound_scenario is not scenario:
            self.report = prune_scenario(scenario)
            self.plan = build_plan(scenario, report=self.report)
            self._bound_scenario = scenario

    def _draw_candidate(self, scenario, rng, stats):
        plan = self.plan
        tracker = plan.tracker if plan is not None else None
        sample = Sample(rng)
        try:
            if plan is not None:
                plan.seed(sample, rng, stats)
            concrete_objects = [
                scenic_object._concretize(sample) for scenic_object in scenario.objects
            ]
            concrete_ego = scenario.ego._concretize(sample)
            concrete_params = {
                name: concretize(value, sample) for name, value in scenario.params.items()
            }
        except RejectSample:
            if tracker is not None:
                tracker.record("sampling", False)
            raise
        if tracker is not None:
            tracker.record("sampling", True)
        ok = contained_in_workspace(scenario.workspace, concrete_objects, stats)
        if tracker is not None:
            tracker.record("containment", ok)
        if not ok:
            return None
        ok = no_pairwise_collisions(concrete_objects, stats)
        if tracker is not None:
            tracker.record("collision", ok)
        if not ok:
            return None
        ok = all_required_visible(concrete_objects, concrete_ego, stats)
        if tracker is not None:
            tracker.record("visibility", ok)
        if not ok:
            return None
        ok = check_user_requirements(scenario, sample, rng, stats)
        if tracker is not None:
            tracker.record("user", ok)
        if not ok:
            return None
        scene = Scene(concrete_objects, concrete_ego, concrete_params, scenario.workspace)
        if tracker is not None:
            scene.importance_weight = tracker.scene_weight()
        return scene


__all__ = [
    "SamplingStrategy",
    "RejectionSampler",
    "BatchSampler",
    "DirectSampler",
    "VectorizedSampler",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
    "draw_candidate",
    "check_builtin_requirements",
    "check_user_requirements",
]
