"""Differential oracles for fuzz-generated Scenic programs.

Six oracles are run against every valid generated program:

* **Strategy equivalence** — every sampling strategy is given a fresh
  compile of the program and the same seed.  ``rejection`` and
  ``vectorized`` share the rejection RNG-stream contract for one scene from
  a fresh RNG (see :mod:`repro.evals.golden`), so they must produce
  bit-identical scenes.
* **Kernel equivalence** — the vectorized geometry kernel
  (:mod:`repro.geometry.kernel`) must agree with the scalar predicates on
  the sampled scenes: point containment (edges and vertices included),
  object containment, and pairwise and block collisions, for the workspace
  region and for synthetic probe regions, and the batched ``F at X`` of a
  polygonal workspace orientation must agree with the scalar lookup.
* **Requirement re-check** — every accepted scene is re-validated
  independently of the sampling loop: scalar workspace containment, scalar
  collision checks, visibility, the generator's ground-truth
  :class:`~repro.fuzz.program_gen.PlannedCheck` assertions, and (via a
  sample-recording rejection draw) the program's own hard ``require``
  conditions.
* **Pruning soundness** — the reference (unpruned) strategy's accepted
  scene is checked against an automatically pruned fresh compile of the
  same program: every requirement-satisfying position must still lie
  inside the pruned region (pruning may only ever discard *invalid*
  sample-space volume), and pruning may never declare a program infeasible
  when a valid scene demonstrably exists.  This is the fuzz oracle for the
  polygon-cell boundary soundness of ``prune_scenario`` and for the static
  requirement analysis behind it.
* **Planned draws** — the program's first candidates are drawn twice from
  one seed: through the scenario's draw program
  (:mod:`repro.core.program`), as the samplers draw them, and through
  :func:`reference_concretize`, the plain walk the program replaces.
  Values, rejections, the final RNG state and every memoised node's value
  must all be equal.
* **Column draws** — from one seed, blocks of
  ``VectorizedSampler.COLUMN_MIN_BLOCK``, ``BLOCK_SIZE`` and
  ``COLUMN_MAX_BLOCK`` candidates drawn as columns
  (:mod:`repro.core.columns`) must each equal as many draws of the program,
  on every slotted node's value, the objects, the params, the corners, the
  RNG state at every ``BLOCK_SIZE`` boundary and after the block, or
  decline: the plan is not built, or the block raises (the sampler then
  redraws it).

Compilation failures of supposedly-valid programs, and *any* non-ScenicError
escaping the pipeline, are reported as failures too — the latter is the
crash oracle that drives the error-path hardening of ``repro.language``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.columns import column_plan
from ..core.distributions import Distribution, Sample
from ..core.errors import RejectionError, RejectSample, ScenicError
from ..core.objects import Constructible, Object
from ..core.program import Candidate, current_program, requirement_roots, walk
from ..core.pruning import _mutation_enabled, prune_scenario
from ..core.regions import CircularRegion, RectangularRegion
from ..core.utils import normalize_angle
from ..core.vectorfields import PolygonalVectorField
from ..core.vectors import Vector
from ..geometry import kernel
from ..language import scenario_from_string
from ..sampling.strategies import STRATEGIES, VectorizedSampler, no_pairwise_collisions
from .program_gen import GeneratedProgram, PlannedCheck

#: Strategies whose per-seed scenes must coincide exactly (they consume
#: the RNG stream identically for one scene from a fresh RNG).
EXACT_EQUIVALENCE_STRATEGIES = ("rejection", "vectorized")

#: Numerical slack for scene comparisons, matching the golden corpus.
TOLERANCE = 1e-9


@dataclass
class OracleFailure:
    oracle: str  # 'compile' | 'crash' | 'strategy-equivalence' | 'kernel' | 'recheck'
    detail: str
    strategy: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.strategy}]" if self.strategy else ""
        return f"{self.oracle}{where}: {self.detail}"


@dataclass
class OracleReport:
    seed: int
    verdict: str  # 'pass' | 'skip' | 'fail'
    failures: List[OracleFailure] = field(default_factory=list)
    skip_reason: Optional[str] = None
    strategies_accepted: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


# ---------------------------------------------------------------------------
# Scene records
# ---------------------------------------------------------------------------


def scene_record(scene) -> Dict[str, Any]:
    """A full-precision, comparison-friendly summary of a scene."""
    return {
        "ego_index": scene.objects.index(scene.ego),
        "objects": [
            {
                "class": type(obj).__name__,
                "position": tuple(Vector.from_any(obj.position)),
                "heading": float(obj.heading),
                "width": float(obj.width),
                "height": float(obj.height),
            }
            for obj in scene.objects
        ],
        "params": {
            name: value
            for name, value in scene.params.items()
            if isinstance(value, (int, float, str, bool))
        },
    }


def records_differ(first: Dict[str, Any], second: Dict[str, Any]) -> Optional[str]:
    """Human-readable description of the first difference, or ``None``."""
    if first["ego_index"] != second["ego_index"]:
        return f"ego index {first['ego_index']} vs {second['ego_index']}"
    if len(first["objects"]) != len(second["objects"]):
        return f"object count {len(first['objects'])} vs {len(second['objects'])}"
    for index, (a, b) in enumerate(zip(first["objects"], second["objects"])):
        if a["class"] != b["class"]:
            return f"object {index} class {a['class']} vs {b['class']}"
        for axis in (0, 1):
            if abs(a["position"][axis] - b["position"][axis]) > TOLERANCE:
                return f"object {index} position {a['position']} vs {b['position']}"
        for key in ("heading", "width", "height"):
            if abs(a[key] - b[key]) > TOLERANCE:
                return f"object {index} {key} {a[key]} vs {b[key]}"
    for name in set(first["params"]) | set(second["params"]):
        a, b = first["params"].get(name), second["params"].get(name)
        if isinstance(a, float) and isinstance(b, float):
            if abs(a - b) > TOLERANCE:
                return f"param {name} {a} vs {b}"
        elif a != b:
            return f"param {name} {a!r} vs {b!r}"
    return None


# ---------------------------------------------------------------------------
# A sample-recording rejection draw (for the requirement re-check)
# ---------------------------------------------------------------------------


def draw_scene_with_sample(scenario, seed: int, max_iterations: int):
    """Replay plain rejection sampling, returning ``(scene, sample)``.

    This mirrors the ``rejection`` strategy's candidate loop (same RNG
    consumption order) but keeps the accepted joint :class:`Sample`, which is
    what lets the oracle re-evaluate ``require`` conditions independently of
    ``check_user_requirements``.
    """
    from ..sampling.strategies import (
        all_required_visible,
        check_user_requirements,
        geometry_failure,
    )

    rng = random.Random(seed)
    for _ in range(max_iterations):
        try:
            sample, concrete_objects, concrete_ego, concrete_params = walk(scenario, rng)
            if geometry_failure(scenario.workspace, concrete_objects) or not (
                all_required_visible(concrete_objects, concrete_ego)
            ):
                continue
            if not check_user_requirements(scenario, sample):
                continue
        except RejectSample:
            continue
        from ..core.scene import Scene

        return Scene(concrete_objects, concrete_ego, concrete_params, scenario.workspace), sample
    return None, None


# ---------------------------------------------------------------------------
# Oracle C: independent validity re-check
# ---------------------------------------------------------------------------


def recheck_scene(
    scenario,
    scene,
    checks: Sequence[PlannedCheck] = (),
    *,
    skip_position_checks: bool = False,
    strict_checks: bool = True,
) -> List[str]:
    """Re-validate an accepted scene with scalar code paths only.

    Returns a list of violation descriptions (empty when the scene is
    genuinely valid).  ``skip_position_checks`` disables the generator's
    planned position/heading assertions (used for mutation-heavy programs
    where requirements are evaluated pre-noise by design).
    """
    problems: List[str] = []
    workspace = scenario.workspace
    if not workspace.is_unbounded:
        for index, obj in enumerate(scene.objects):
            if not workspace.region.contains_object(obj):
                problems.append(f"object {index} escapes the workspace")
    for i, first in enumerate(scene.objects):
        for j in range(i + 1, len(scene.objects)):
            second = scene.objects[j]
            if first.allowCollisions or second.allowCollisions:
                continue
            if first.intersects(second):
                problems.append(f"objects {i} and {j} collide")
    from ..core.operators import _can_see

    for index, obj in enumerate(scene.objects):
        if obj is scene.ego:
            continue
        if obj.requireVisible and not _can_see(scene.ego, obj):
            problems.append(f"object {index} is requireVisible but not visible")
    if not skip_position_checks:
        ego_position = Vector.from_any(scene.ego.position)
        ego_heading = float(scene.ego.heading)
        for check in checks:
            if check.object_index >= len(scene.objects):
                # Strict mode treats a dangling reference as a generator
                # bug; lenient mode (shrinking, where whole object lines
                # are removed) just drops the check.
                if strict_checks:
                    problems.append(
                        f"planned check references missing object {check.object_index}"
                    )
                continue
            obj = scene.objects[check.object_index]
            if check.kind == "max_distance":
                distance = ego_position.distance_to(obj.position)
                if distance > check.bound + 1e-9:
                    problems.append(
                        f"object {check.object_index} at distance {distance:.6f} > {check.bound}"
                    )
            elif check.kind == "min_distance":
                distance = ego_position.distance_to(obj.position)
                if distance < check.bound - 1e-9:
                    problems.append(
                        f"object {check.object_index} at distance {distance:.6f} < {check.bound}"
                    )
            elif check.kind == "max_abs_rel_heading":
                relative = abs(normalize_angle(float(obj.heading) - ego_heading))
                if relative > check.bound + 1e-9:
                    problems.append(
                        f"object {check.object_index} relative heading {relative:.6f} > {check.bound}"
                    )
    return problems


def check_pruning_soundness(source: str, scene) -> List[str]:
    """Oracle D: a valid scene's positions must survive automatic pruning.

    *scene* is a requirement-satisfying scene of the **unpruned** program.
    A fresh compile of the same program is pruned with the fully automatic
    pass (static-analysis bounds included); soundness demands that every
    prunable object's sampled position still lies inside its pruned region,
    and that pruning does not claim infeasibility when *scene* proves a
    valid scene exists.  Objects with mutation enabled are skipped — their
    final position is displaced after the draw, so the region argument does
    not apply (and pruning itself skips them).
    """
    from ..core.errors import InfeasibleScenarioError
    from ..core.regions import PointInRegionDistribution

    scenario = _fresh_compile(source)
    try:
        prune_scenario(scenario)
    except InfeasibleScenarioError as error:
        return [f"pruning declared the program infeasible but a valid scene exists: {error}"]
    problems: List[str] = []
    for index, symbolic in enumerate(scenario.objects):
        if index >= len(scene.objects):
            break
        if _mutation_enabled(symbolic):
            continue
        position = symbolic.properties.get("position")
        if not isinstance(position, PointInRegionDistribution):
            continue
        point = Vector.from_any(scene.objects[index].position)
        if not position.region.contains_point(point):
            problems.append(
                f"object {index} at {tuple(point)} satisfies the requirements "
                f"but was pruned out of its sampling region"
            )
    return problems


def recheck_hard_requirements(scenario, sample) -> List[str]:
    """Re-evaluate the program's hard ``require`` conditions on *sample*."""
    problems: List[str] = []
    for index, requirement in enumerate(scenario.requirements):
        if requirement.is_soft:
            continue
        if not requirement.holds_in(sample):
            problems.append(f"hard requirement {index} ({requirement.name}) violated")
    return problems


# ---------------------------------------------------------------------------
# Oracle F: the draw program equals the walk it replaces
# ---------------------------------------------------------------------------

#: Candidates :func:`check_planned_draws` draws both ways per program.
PLAN_CANDIDATES = 32


def reference_concretize(value: Any, sample: Sample) -> Any:
    """``concretize`` as a plain walk: every dependency, every property, every draw.

    The ``isinstance``/``hasattr`` ladder, a ``sample_in`` that concretizes
    each dependency and a ``Constructible._concretize`` over each property,
    with the same memo and mutation noise.  It only reads the DAG and never
    touches a draw program.
    """
    if isinstance(value, Distribution):
        if sample.has_value_for(value):
            return sample.value_for(value)
        dependency_values = [reference_concretize(dep, sample) for dep in value._dependencies]
        result = value.sample_given(dependency_values, sample.rng)
        sample.set_value_for(value, result)
        return result
    if isinstance(value, Constructible):
        if sample.has_value_for(value):
            return sample.value_for(value)
        concrete = type(value)._make(**{
            name: reference_concretize(item, sample) for name, item in value.properties.items()
        })
        concrete._source_object = value
        sample.set_value_for(value, concrete)
        concrete._apply_mutation(sample)
        return concrete
    if hasattr(value, "_concretize"):
        return value._concretize(sample)
    if isinstance(value, tuple):
        return tuple(reference_concretize(item, sample) for item in value)
    if isinstance(value, list):
        return [reference_concretize(item, sample) for item in value]
    if isinstance(value, dict):
        return {key: reference_concretize(item, sample) for key, item in value.items()}
    return value


def _same_value(first: Any, second: Any) -> bool:
    """Structural equality of two concretized values.

    Objects compare by property, arrays by element, and other objects
    without an ``__eq__`` of their own (a region drawn for one candidate)
    by their attributes.
    """
    if first is second:
        return True
    if type(first) is not type(second):
        return False
    if isinstance(first, Constructible):
        return _same_value(first.properties, second.properties)
    if isinstance(first, (tuple, list)):
        return len(first) == len(second) and all(map(_same_value, first, second))
    if isinstance(first, dict):
        return list(first) == list(second) and all(
            _same_value(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return first.shape == second.shape and bool(np.array_equal(first, second))
    if type(first).__eq__ is object.__eq__ and hasattr(first, "__dict__"):
        return _same_value(vars(first), vars(second))
    return bool(first == second)


def _reference_draw(scenario, rng: random.Random):
    """One candidate under :func:`reference_concretize`, in the draw's order."""
    sample = Sample(rng)
    objects = [reference_concretize(obj, sample) for obj in scenario.objects]
    ego = reference_concretize(scenario.ego, sample)
    params = {name: reference_concretize(value, sample) for name, value in scenario.params.items()}
    for root in requirement_roots(scenario):
        reference_concretize(root, sample)
    return sample, objects, ego, params


def _draw_outcome(draw, scenario, rng: random.Random) -> Tuple[str, Any]:
    """``("drawn", (sample, objects, ego, params))``, or the raised error's name."""
    try:
        return "drawn", draw(scenario, rng)
    except Exception as error:  # noqa: BLE001 - compared, not judged
        return type(error).__name__, None


def _memo_problem(program: Sample, reference: Sample) -> Optional[str]:
    """How the program's memo differs from the one the reference walk filled."""
    if set(program._values) != set(reference._values):
        return "memoises other nodes than the reference walk"
    for node in reference._keep_alive:
        if not _same_value(program.value_for(node), reference.value_for(node)):
            return f"memoises another value for {type(node).__name__}"
    return None


def check_planned_draws(scenario, seed: int, candidates: int = PLAN_CANDIDATES) -> List[str]:
    """Oracle F: the scenario's draw program must equal :func:`reference_concretize`.

    Draws *scenario*'s first *candidates* candidates both ways from the same
    seed: through its current :class:`~repro.core.program.DrawProgram`, as
    the samplers do, and through the reference walk.  Each must give equal
    object and parameter values (or raise the same error, e.g.
    ``RejectSample``), leave an equal ``rng.getstate()``, and memoise an
    equal value for every node the walk memoised.
    """
    try:
        program = current_program(scenario)
    except Exception as error:  # noqa: BLE001 - the walk may still draw
        return [f"building the draw program raised {type(error).__name__}: {error}"]
    program_rng, reference_rng = random.Random(seed), random.Random(seed)
    for index in range(candidates):
        drawn, values = _draw_outcome(program.draw, scenario, program_rng)
        expected, reference = _draw_outcome(_reference_draw, scenario, reference_rng)
        if drawn != expected:
            return [f"candidate {index}: program draw {drawn}, reference {expected}"]
        if values is not None:
            if not _same_value(values[1:], reference[1:]):
                return [f"candidate {index}: program values differ from the reference walk"]
            problem = _memo_problem(values[0], reference[0])
            if problem:
                return [f"candidate {index}: the program {problem}"]
        if program_rng.getstate() != reference_rng.getstate():
            return [f"candidate {index}: RNG state differs from the reference walk"]
    return []


# ---------------------------------------------------------------------------
# Oracle G: a block drawn as columns equals as many scalar draws
# ---------------------------------------------------------------------------

#: The block sizes :func:`check_column_draws` draws both ways: the smallest
#: block the sampler draws as columns, its stream block and its largest.
COLUMN_BLOCKS = (VectorizedSampler.COLUMN_MIN_BLOCK, VectorizedSampler.BLOCK_SIZE,
                 VectorizedSampler.COLUMN_MAX_BLOCK)


def _candidate_difference(columns, scalar, nodes) -> Optional[str]:
    """How a candidate built from columns differs from the scalar program's draw."""
    if set(columns.sample._values) != set(scalar.sample._values):
        return "memoises other nodes than the scalar draw"
    for node in nodes:
        if not _same_value(columns.sample.value_for(node), scalar.sample.value_for(node)):
            return f"memoises another value for {type(node).__name__}"
    if not _same_value(tuple(columns)[1:], tuple(scalar)[1:]):
        return "objects, ego or params differ"
    if not all(columns.sample.value_for(obj._source_object) is obj for obj in columns.objects):
        return "an object is not the instance its memo entry holds"
    return None


def check_column_draws(scenario, seed: int, blocks: Sequence[int] = COLUMN_BLOCKS) -> List[str]:
    """Oracle G: each block drawn as columns equals as many draws of the program.

    For each size in *blocks*, draws one block as columns from
    ``Random(seed)`` and as many candidates from the scenario's draw program
    from another ``Random(seed)``.  Candidate by candidate the values must
    be equal (every slotted node's memo value, the objects, the ego and the
    params) and so must the corners, the RNG state the block recorded at
    every ``BLOCK_SIZE`` boundary (where the sampler rewinds to) and the two
    RNG states after the block.  A program whose plan declines, or a block
    that raises (and which the sampler would redraw through the program),
    passes.
    """
    stride = VectorizedSampler.BLOCK_SIZE
    try:
        program = current_program(scenario)
        plan = column_plan(program)
    except Exception as error:  # noqa: BLE001 - reported, not raised
        return [f"building the column plan raised {type(error).__name__}: {error}"]
    if plan is None:
        return []
    for count in blocks:
        column_rng, scalar_rng = random.Random(seed), random.Random(seed)
        try:
            block = plan.draw(column_rng, count, stride)
            corners, _collidable = block.geometry()
        except Exception:  # noqa: BLE001 - the sampler redraws such a block
            continue
        if len(block.ends) != (count - 1) // stride:
            return [f"K={count}: {len(block.ends)} boundary states for {count} candidates"]
        for index in range(count):
            drawn, parts = _draw_outcome(program.draw, scenario, scalar_rng)
            if drawn != "drawn":
                return [f"K={count}, candidate {index}: the program raised {drawn}, the columns did not"]
            scalar = Candidate(*parts)
            difference = _candidate_difference(block[index], scalar, program.nodes)
            if difference:
                return [f"K={count}, candidate {index}: the columns' candidate {difference}"]
            if not np.array_equal(corners[index], kernel.corners_array(scalar.objects)):
                return [f"K={count}, candidate {index}: corners differ from the objects'"]
            if (index + 1) % stride == 0 and index + 1 < count:
                if block.ends[index // stride] != scalar_rng.getstate():
                    return [f"K={count}: RNG state after candidate {index + 1} differs from the program's"]
        if column_rng.getstate() != scalar_rng.getstate():
            return [f"K={count}: RNG state after the block differs from the program's"]
    return []


# ---------------------------------------------------------------------------
# Oracle B: kernel vs scalar geometry
# ---------------------------------------------------------------------------


def _probe_regions(scene, rng: random.Random):
    """Synthetic regions around the scene for containment cross-checks."""
    positions = [Vector.from_any(obj.position) for obj in scene.objects]
    min_x = min(p.x for p in positions) - 5
    max_x = max(p.x for p in positions) + 5
    min_y = min(p.y for p in positions) - 5
    max_y = max(p.y for p in positions) + 5
    center = Vector((min_x + max_x) / 2, (min_y + max_y) / 2)
    yield RectangularRegion(
        center,
        rng.uniform(0, math.pi),
        max(max_x - min_x, 1.0) * rng.uniform(0.4, 0.9),
        max(max_y - min_y, 1.0) * rng.uniform(0.4, 0.9),
    )
    yield CircularRegion(center, max(max_x - min_x, max_y - min_y, 2.0) * rng.uniform(0.3, 0.7))


#: Offsets along an edge's unit normal: on it, and either side of 1e-6, the
#: least margin at which certified verdicts hand over to the ray cast.
BOUNDARY_OFFSETS = (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 2e-6, -2e-6)


def _boundary_probes(polygons) -> List[Vector]:
    """Every vertex and edge midpoint, moved along the edge's normal by each offset."""
    return [
        base + Vector(a.y - b.y, b.x - a.x) * (offset / a.distance_to(b))
        for polygon in polygons for a, b in polygon.edges() if a != b
        for base in (a, (a + b) / 2) for offset in BOUNDARY_OFFSETS
    ]


def check_kernel_equivalence(
    scenario, scene, seed: int, points_per_region: int = 64
) -> List[str]:
    """Cross-check the batched kernel against the scalar geometry on *scene*.

    The scalar geometry (``Region.contains_point``, ``Object.intersects``) is
    the oracle; the batched kernel (:mod:`repro.geometry.kernel`) must agree
    with it exactly, boundary contact included, also at :func:`_boundary_probes`
    of a polygonal workspace's pieces.  When the workspace region's
    orientation is a :class:`PolygonalVectorField` (a road map's
    ``roadDirection``, the warehouse's ``aisleDirection``), its batched
    ``value_at_points`` must give ``value_at``'s heading at every probe
    point, off the map and at its cells' boundary probes included.
    Collisions are compared pair by pair and on a stacked block.
    """
    problems: List[str] = []
    rng = random.Random(seed ^ 0x5EED5EED)
    positions = [Vector.from_any(obj.position) for obj in scene.objects]
    min_x = min(p.x for p in positions) - 10
    max_x = max(p.x for p in positions) + 10
    min_y = min(p.y for p in positions) - 10
    max_y = max(p.y for p in positions) + 10

    regions = list(_probe_regions(scene, rng))
    if not scenario.workspace.is_unbounded:
        regions.append(scenario.workspace.region)

    probe_points = [
        Vector(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
        for _ in range(points_per_region)
    ]
    for obj in scene.objects:
        probe_points.extend(Vector(x, y) for x, y in obj.corners)

    corners = kernel.corners_array(scene.objects)
    for region in regions:
        points = probe_points + _boundary_probes(getattr(region, "polygons", ()))
        batched = kernel.contains_points(region, points)
        scalar = np.fromiter(
            (region.contains_point(point) for point in points),
            dtype=bool,
            count=len(points),
        )
        if not np.array_equal(batched, scalar):
            index = int(np.flatnonzero(batched != scalar)[0])
            problems.append(
                f"contains_points mismatch on {type(region).__name__} at point "
                f"{tuple(points[index])}: kernel={bool(batched[index])} scalar={bool(scalar[index])}"
            )
        if len(scene.objects) > 0 and kernel.region_supports_batch_objects(region):
            batched_objects = kernel.objects_contained(region, corners)
            scalar_objects = np.fromiter(
                (region.contains_object(obj) for obj in scene.objects),
                dtype=bool,
                count=len(scene.objects),
            )
            if not np.array_equal(batched_objects, scalar_objects):
                index = int(np.flatnonzero(batched_objects != scalar_objects)[0])
                problems.append(
                    f"objects_contained mismatch on {type(region).__name__} for object {index}"
                )

    orientation = scenario.workspace.region.orientation
    if isinstance(orientation, PolygonalVectorField):
        field_points = probe_points + _boundary_probes(cell for cell, _ in orientation.cells)
        xs, ys = np.array([point.to_tuple() for point in field_points]).T
        batched_headings = np.concatenate([  # blocks of 64 keep planes x points small
            orientation.value_at_points(xs[start:start + 64], ys[start:start + 64])
            for start in range(0, len(xs), 64)
        ])
        for point, batched_heading in zip(field_points, batched_headings.tolist()):
            scalar_heading = orientation.value_at(point)
            if batched_heading != scalar_heading:
                problems.append(
                    f"value_at_points mismatch on {orientation.name} at point {tuple(point)}: "
                    f"batched={batched_heading!r} scalar={scalar_heading!r}"
                )
                break

    if len(scene.objects) >= 2:
        collidable = np.ones(len(scene.objects), dtype=bool)
        batched_pairs = {
            (int(i), int(j)) for i, j in kernel.pairwise_collisions(corners, collidable)
        }
        scalar_pairs = set()
        for i, first in enumerate(scene.objects):
            for j in range(i + 1, len(scene.objects)):
                if first.intersects(scene.objects[j]):
                    scalar_pairs.add((i, j))
        if batched_pairs != scalar_pairs:
            problems.append(
                f"pairwise_collisions mismatch: kernel={sorted(batched_pairs)} "
                f"scalar={sorted(scalar_pairs)}"
            )
        # A stacked block of moved and turned copies of the scene: some collide.
        jitter = rng.uniform
        block = [[Object._make(
            position=Vector.from_any(obj.position) + Vector(jitter(-2, 2), jitter(-2, 2)),
            heading=obj.heading + jitter(-0.5, 0.5),
            width=obj.width, height=obj.height, allowCollisions=obj.allowCollisions,
        ) for obj in scene.objects] for _ in range(8)]
        flat = [obj for objects in block for obj in objects]
        batched_free = kernel.batch_collision_free(
            kernel.corners_array(flat).reshape(len(block), -1, 4, 2),
            np.array([not obj.allowCollisions for obj in flat]).reshape(len(block), -1),
        ).tolist()
        scalar_free = [no_pairwise_collisions(objects) for objects in block]
        if batched_free != scalar_free:
            problems.append(
                f"batch_collision_free mismatch: kernel={batched_free} scalar={scalar_free}"
            )
    return problems


# ---------------------------------------------------------------------------
# The combined oracle run
# ---------------------------------------------------------------------------


def _fresh_compile(source: str):
    """An independent scenario per strategy, via the cached compile artifact.

    ``scenario_from_string`` routes through the content-addressed artifact
    cache, so the oracles' N-strategies-per-program pattern parses each
    program once and re-runs only the interpreter per strategy — while the
    scenarios stay independent (pruning mutates regions in place).
    """
    return scenario_from_string(source)


def default_strategies() -> List[Union[str, Any]]:
    """The oracle's strategy set: every strategy, by name."""
    return sorted(STRATEGIES)


def run_oracles(
    program: Union[GeneratedProgram, str],
    *,
    seed: Optional[int] = None,
    max_iterations: int = 300,
    strategies: Optional[Sequence[Union[str, Any]]] = None,
    expect_valid: bool = True,
    checks: Optional[Sequence[PlannedCheck]] = None,
    strict_checks: bool = True,
) -> OracleReport:
    """Run all the differential oracles against *program*.

    ``strategies`` may mix registry names and strategy *instances* (the
    latter is how tests plant deliberately-buggy strategies).  ``checks``
    overrides/supplies the generator's check plan when *program* is a bare
    source string (the shrinker threads the original plan through this, with
    ``strict_checks=False`` so checks whose object was shrunk away are
    dropped rather than misreported).  A program on which every strategy
    exhausts its budget is reported as a skip (infeasible under the
    budget), not a failure.
    """
    if isinstance(program, GeneratedProgram):
        source = program.source
        checks = program.checks if checks is None else list(checks)
        skip_position_checks = program.has_mutation
        seed = program.seed if seed is None else seed
    else:
        source = program
        checks = list(checks) if checks is not None else []
        skip_position_checks = False
        seed = 0 if seed is None else seed
    report = OracleReport(seed=seed, verdict="pass")

    # -- compile oracle ---------------------------------------------------------
    try:
        probe = _fresh_compile(source)
    except ScenicError as error:
        if expect_valid:
            report.verdict = "fail"
            report.failures.append(OracleFailure("compile", f"{type(error).__name__}: {error}"))
        else:
            report.verdict = "skip"
            report.skip_reason = f"does not compile: {type(error).__name__}"
        return report
    except Exception as error:  # noqa: BLE001 - the crash oracle
        report.verdict = "fail"
        report.failures.append(
            OracleFailure("crash", f"compile raised {type(error).__name__}: {error}")
        )
        return report
    skip_position_checks = skip_position_checks or any(
        _mutation_enabled(obj) for obj in probe.objects
    )

    # -- oracle F: the draw program equals the reference walk ------------------
    plan_problems = check_planned_draws(probe, seed)
    if plan_problems:
        report.verdict = "fail"
        report.failures.extend(OracleFailure("plan-equivalence", p) for p in plan_problems)
        return report

    # -- oracle G: a block drawn as columns equals as many program draws -------
    column_problems = check_column_draws(probe, seed)
    if column_problems:
        report.verdict = "fail"
        report.failures.extend(OracleFailure("column-equivalence", p) for p in column_problems)
        return report

    # -- sample under every strategy -------------------------------------------
    strategy_set = list(strategies) if strategies is not None else default_strategies()
    records: Dict[str, Optional[Dict[str, Any]]] = {}
    scenes: Dict[str, Any] = {}
    scenarios: Dict[str, Any] = {}

    def sample_with(strategy, budget: int) -> Tuple[Optional[Any], Optional[Any]]:
        """(scenario, scene) under a fresh compile; scene None on budget exhaustion."""
        name = strategy if isinstance(strategy, str) else strategy.name
        try:
            scenario = _fresh_compile(source)
            return scenario, scenario.generate(max_iterations=budget, seed=seed, strategy=strategy)
        except RejectionError:
            return None, None
        except Exception as error:  # noqa: BLE001 - the crash oracle
            report.verdict = "fail"
            report.failures.append(
                OracleFailure("crash", f"sampling raised {type(error).__name__}: {error}", name)
            )
            return None, None

    # The reference strategy runs first; when it exhausts its budget, only
    # the strategies sharing its RNG-stream contract are cross-checked (they
    # must exhaust it too), and the program is otherwise skipped as
    # infeasible-under-budget.
    names = [s if isinstance(s, str) else s.name for s in strategy_set]
    reference_name = "rejection" if "rejection" in names else names[0]
    ordered = sorted(strategy_set, key=lambda s: (s if isinstance(s, str) else s.name) != reference_name)
    reference_accepted = True
    for strategy in ordered:
        name = strategy if isinstance(strategy, str) else strategy.name
        if not reference_accepted and name not in EXACT_EQUIVALENCE_STRATEGIES:
            continue
        scenario, scene = sample_with(strategy, max_iterations)
        if report.failures:
            return report
        if scene is None:
            records[name] = None
            report.strategies_accepted[name] = False
        else:
            records[name] = scene_record(scene)
            scenes[name] = scene
            scenarios[name] = scenario
            report.strategies_accepted[name] = True
        if name == reference_name:
            reference_accepted = scene is not None

    if not scenes:
        report.verdict = "skip"
        report.skip_reason = f"no strategy accepted within {max_iterations} iterations"
        return report

    # -- oracle A: strategy equivalence ----------------------------------------
    exact = [name for name in EXACT_EQUIVALENCE_STRATEGIES if name in records]
    if len(exact) >= 2:
        reference_name = exact[0]
        reference = records[reference_name]
        for name in exact[1:]:
            other = records[name]
            if (reference is None) != (other is None):
                report.failures.append(
                    OracleFailure(
                        "strategy-equivalence",
                        f"{reference_name} accepted={reference is not None} but "
                        f"{name} accepted={other is not None}",
                        name,
                    )
                )
            elif reference is not None and other is not None:
                difference = records_differ(reference, other)
                if difference:
                    report.failures.append(
                        OracleFailure(
                            "strategy-equivalence",
                            f"scene differs from {reference_name}: {difference}",
                            name,
                        )
                    )

    # -- oracle B: kernel equivalence ------------------------------------------
    for name, scene in scenes.items():
        problems = check_kernel_equivalence(scenarios[name], scene, seed)
        for problem in problems:
            report.failures.append(OracleFailure("kernel", problem, name))
        break  # one scene is enough for the kernel cross-check; they coincide or oracle A fires

    # -- oracle C: requirement re-check ----------------------------------------
    for name, scene in scenes.items():
        problems = recheck_scene(
            scenarios[name],
            scene,
            checks,
            skip_position_checks=skip_position_checks,
            strict_checks=strict_checks,
        )
        for problem in problems:
            report.failures.append(OracleFailure("recheck", problem, name))
    if records.get("rejection") is not None:
        scenario = _fresh_compile(source)
        scene, sample = draw_scene_with_sample(scenario, seed, max_iterations)
        if scene is not None and sample is not None:
            for problem in recheck_hard_requirements(scenario, sample):
                report.failures.append(OracleFailure("recheck", problem, "rejection"))

    # -- oracle D: pruning soundness -------------------------------------------
    if records.get("rejection") is not None and "rejection" in scenes:
        try:
            problems = check_pruning_soundness(source, scenes["rejection"])
        except Exception as error:  # noqa: BLE001 - the crash oracle
            report.failures.append(
                OracleFailure(
                    "crash", f"pruning raised {type(error).__name__}: {error}", "pruning"
                )
            )
        else:
            for problem in problems:
                report.failures.append(OracleFailure("prune-soundness", problem, "pruning"))

    if report.failures:
        report.verdict = "fail"
    return report


__all__ = [
    "EXACT_EQUIVALENCE_STRATEGIES",
    "OracleFailure",
    "OracleReport",
    "scene_record",
    "records_differ",
    "draw_scene_with_sample",
    "recheck_scene",
    "recheck_hard_requirements",
    "check_pruning_soundness",
    "check_kernel_equivalence",
    "check_planned_draws",
    "check_column_draws",
    "reference_concretize",
    "run_oracles",
    "default_strategies",
]
