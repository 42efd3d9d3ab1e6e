"""Differential oracles for fuzz-generated Scenic programs.

Five oracles are run against every valid generated program:

* **Strategy equivalence** — every sampling strategy is given a fresh
  compile of the program and the same seed.  ``rejection`` and
  ``vectorized`` share the rejection RNG-stream contract for one scene from
  a fresh RNG (see :mod:`repro.evals.golden`), so they must produce
  bit-identical scenes whenever the program has no soft requirements.
* **Kernel equivalence** — the vectorized geometry kernel
  (:mod:`repro.geometry.kernel`) must agree with the scalar predicates on
  the sampled scenes: point containment, object containment, and pairwise
  collisions, for the workspace region and for synthetic probe regions.
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
  one seed: through ``concretize``'s per-node draw plans, and through
  :func:`reference_concretize`, the plain walk the plans replace.  Values,
  rejections and the final RNG state must all be equal.

A sixth, opt-in oracle (``statistical=True``) guards the ``vectorized``
strategy's exactness claim where oracle A cannot reach:

* **Statistical equivalence** — fixed-size scene batches are drawn under
  ``vectorized`` and plain ``rejection`` and compared property by property
  (per-object position marginals, headings, inter-object distances) with a
  two-sample Kolmogorov–Smirnov bound and a binned chi-square test, both at
  a ≈1e-6 per-property level so a fixed-seed campaign passes clean unless
  the distributions genuinely diverge.  Past the first scene the two
  streams part: ``vectorized`` draws candidates after the accepted one that
  it never examines, and it flips a soft requirement's coins after drawing
  a whole block rather than between candidates.  Oracle A cannot compare
  those scenes one by one, so any bias in the block policy (a candidate
  examined out of draw order, a coin reused) shows up here.

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

from ..core.distributions import Distribution, Sample, concretize
from ..core.errors import RejectionError, RejectSample, ScenicError
from ..core.objects import Constructible
from ..core.pruning import _mutation_enabled, prune_scenario
from ..core.regions import CircularRegion, RectangularRegion
from ..core.utils import normalize_angle
from ..core.vectors import Vector
from ..geometry import kernel
from ..language import scenario_from_string
from ..sampling.strategies import STRATEGIES
from .program_gen import GeneratedProgram, PlannedCheck

#: Strategies whose per-seed scenes must coincide exactly when the program
#: has no soft requirements (they consume the RNG stream identically).
EXACT_EQUIVALENCE_STRATEGIES = ("rejection", "vectorized")

#: Numerical slack for scene comparisons, matching the golden corpus.
TOLERANCE = 1e-9

#: Two-sample KS coefficient for a per-property level of ≈1e-6:
#: ``c(α) = sqrt(-ln(α/2) / 2)`` with α = 1e-6.  The rejection threshold is
#: ``c * sqrt((n + m) / (n * m))``.
KS_COEFFICIENT = 2.6931

#: One-sided normal quantile at 1e-6, for the Wilson–Hilferty chi-square
#: quantile approximation (no scipy in the toolchain).
CHI2_Z_QUANTILE = 4.7534

#: Histogram bins for the chi-square half of the statistical oracle.
CHI2_BINS = 8


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
    from ..sampling.strategies import all_required_visible, geometry_failure

    rng = random.Random(seed)
    for _ in range(max_iterations):
        try:
            sample = Sample(rng)
            concrete_objects = [obj._concretize(sample) for obj in scenario.objects]
            concrete_ego = scenario.ego._concretize(sample)
            concrete_params = {
                name: concretize(value, sample) for name, value in scenario.params.items()
            }
            if geometry_failure(scenario.workspace, concrete_objects) or not (
                all_required_visible(concrete_objects, concrete_ego)
            ):
                continue
            rejected = False
            for requirement in scenario.requirements:
                if not requirement.should_enforce(rng):
                    continue
                if not requirement.holds_in(sample):
                    rejected = True
                    break
            if rejected:
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
# Oracle F: planned draws equal the walk they replace
# ---------------------------------------------------------------------------

#: Candidates :func:`check_planned_draws` draws both ways per program.
PLAN_CANDIDATES = 32


def reference_concretize(value: Any, sample: Sample) -> Any:
    """``concretize`` without draw plans: every dependency, every property, every draw.

    The ``isinstance``/``hasattr`` ladder, a ``sample_in`` that concretizes
    each dependency and a ``Constructible._concretize`` over each property,
    with the same memo and mutation noise.  It only reads the DAG: it
    builds, uses and patches no plan.
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
    """Structural equality of two concretized values (objects by property)."""
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
    return bool(first == second)


def _draw_candidate_values(scenario, rng: random.Random, walk) -> Tuple[str, Any]:
    """One candidate's objects, ego and params under *walk*, in the strategies' draw order."""
    sample = Sample(rng)
    try:
        objects = [walk(obj, sample) for obj in scenario.objects]
        ego = walk(scenario.ego, sample)
        params = {name: walk(value, sample) for name, value in scenario.params.items()}
    except Exception as error:  # noqa: BLE001 - compared, not judged
        return type(error).__name__, None
    return "drawn", (objects, ego, params)


def check_planned_draws(scenario, seed: int, candidates: int = PLAN_CANDIDATES) -> List[str]:
    """Oracle F: planned draws must equal :func:`reference_concretize`'s walk.

    Draws *scenario*'s first *candidates* candidates both ways from the same
    seed.  Each must give equal object and parameter values (or raise the
    same error, e.g. ``RejectSample``) and leave an equal ``rng.getstate()``.
    """
    planned_rng, reference_rng = random.Random(seed), random.Random(seed)
    for index in range(candidates):
        planned = _draw_candidate_values(scenario, planned_rng, concretize)
        reference = _draw_candidate_values(scenario, reference_rng, reference_concretize)
        if planned[0] != reference[0]:
            return [f"candidate {index}: planned draw {planned[0]}, reference {reference[0]}"]
        if not _same_value(planned[1], reference[1]):
            return [f"candidate {index}: planned values differ from the reference walk"]
        if planned_rng.getstate() != reference_rng.getstate():
            return [f"candidate {index}: RNG state differs from the reference walk"]
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


def check_kernel_equivalence(
    scenario, scene, seed: int, points_per_region: int = 64
) -> List[str]:
    """Cross-check the batched kernel against the scalar geometry on *scene*.

    The scalar geometry (``Region.contains_point``, ``Object.intersects``) is
    the oracle; the batched kernel (:mod:`repro.geometry.kernel`) must agree
    with it exactly, boundary contact included.
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
        batched = kernel.contains_points(region, probe_points)
        scalar = np.fromiter(
            (region.contains_point(point) for point in probe_points),
            dtype=bool,
            count=len(probe_points),
        )
        if not np.array_equal(batched, scalar):
            index = int(np.flatnonzero(batched != scalar)[0])
            problems.append(
                f"contains_points mismatch on {type(region).__name__} at point "
                f"{tuple(probe_points[index])}: kernel={bool(batched[index])} scalar={bool(scalar[index])}"
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
    return problems


# ---------------------------------------------------------------------------
# Oracle E: statistical equivalence of constructive sampling
# ---------------------------------------------------------------------------


def ks_statistic(first: Sequence[float], second: Sequence[float]) -> float:
    """The two-sample Kolmogorov–Smirnov statistic (max CDF distance)."""
    a = sorted(first)
    b = sorted(second)
    i = j = 0
    statistic = 0.0
    while i < len(a) and j < len(b):
        # Advance both sides through every copy of the smaller value before
        # reading the CDF gap — tied values are one step of both CDFs, and
        # evaluating mid-tie would report a spurious distance.
        value = a[i] if a[i] <= b[j] else b[j]
        while i < len(a) and a[i] <= value:
            i += 1
        while j < len(b) and b[j] <= value:
            j += 1
        statistic = max(statistic, abs(i / len(a) - j / len(b)))
    return statistic


def chi_square_two_sample(
    first: Sequence[float], second: Sequence[float], bins: int = CHI2_BINS
) -> Tuple[float, int]:
    """Binned two-sample chi-square statistic and its degrees of freedom.

    Both samples are binned over their combined range; per-bin contribution
    is ``(a_i * sqrt(m/n) - b_i * sqrt(n/m))^2 / (a_i + b_i)`` (the standard
    two-sample form, exact for unequal sample sizes).  Bins empty in both
    samples contribute nothing and no degree of freedom.
    """
    low = min(min(first), min(second))
    high = max(max(first), max(second))
    if high <= low:
        return 0.0, 0
    width = (high - low) / bins
    counts_a = [0] * bins
    counts_b = [0] * bins
    for value in first:
        counts_a[min(bins - 1, int((value - low) / width))] += 1
    for value in second:
        counts_b[min(bins - 1, int((value - low) / width))] += 1
    n, m = len(first), len(second)
    scale_a, scale_b = math.sqrt(m / n), math.sqrt(n / m)
    statistic = 0.0
    occupied = 0
    for a_count, b_count in zip(counts_a, counts_b):
        total = a_count + b_count
        if total == 0:
            continue
        occupied += 1
        statistic += (a_count * scale_a - b_count * scale_b) ** 2 / total
    return statistic, max(occupied - 1, 0)


def chi_square_quantile(df: int, z: float = CHI2_Z_QUANTILE) -> float:
    """Wilson–Hilferty approximation of the chi-square upper quantile."""
    if df <= 0:
        return float("inf")
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def scene_features(scene) -> Dict[str, float]:
    """Per-scene marginal values: object x/y/heading + pairwise distances.

    The properties oracle E compares across strategies, and the ones the
    quality-eval harness (:mod:`repro.evals.metrics`) scores coverage on,
    so eval coverage numbers and oracle E verdicts are about the same
    quantities.
    """
    features: Dict[str, float] = {}
    positions = [Vector.from_any(obj.position) for obj in scene.objects]
    for index, (obj, point) in enumerate(zip(scene.objects, positions)):
        features[f"object{index}.x"] = point.x
        features[f"object{index}.y"] = point.y
        features[f"object{index}.heading"] = normalize_angle(float(obj.heading))
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            features[f"distance({i},{j})"] = positions[i].distance_to(positions[j])
    return features


def feature_columns(scenes: Sequence) -> Dict[str, List[float]]:
    """Column-major feature values over a batch of scenes."""
    columns: Dict[str, List[float]] = {}
    for scene in scenes:
        for name, value in scene_features(scene).items():
            columns.setdefault(name, []).append(value)
    return columns


def _feature_batch(
    source: str, strategy: str, samples: int, seed: int, max_iterations: int
) -> Optional[Dict[str, List[float]]]:
    """Per-property value lists over a *samples*-scene batch, None on exhaustion."""
    try:
        batch = _fresh_compile(source).generate_batch(
            samples, max_iterations=max_iterations, seed=seed, strategy=strategy
        )
    except RejectionError:
        return None
    return feature_columns(batch)


def check_statistical_equivalence(
    source: str,
    *,
    seed: int = 0,
    samples: int = 120,
    max_iterations: int = 3000,
    strategy: str = "vectorized",
    reference: str = "rejection",
) -> List[str]:
    """Oracle E: *strategy*'s scene distribution must match *reference*'s.

    Draws a fixed-size batch under each strategy (different derived seeds —
    the comparison is distributional, not draw-for-draw) and bounds the
    two-sample KS statistic and a binned chi-square on every property.
    Returns problem descriptions; empty when the distributions agree within
    the ≈1e-6 per-property test levels, or when either batch cannot be
    completed within the budget (infeasible-under-budget programs are a
    skip, not a verdict).
    """
    reference_columns = _feature_batch(
        source, reference, samples, seed ^ 0x0E0E0E0E, max_iterations
    )
    if reference_columns is None:
        return []
    candidate_columns = _feature_batch(
        source, strategy, samples, seed ^ 0x1F1F1F1F, max_iterations
    )
    if candidate_columns is None:
        return [
            f"{reference} completed a {samples}-scene batch but {strategy} "
            f"exhausted {max_iterations} iterations"
        ]
    problems: List[str] = []
    ks_threshold = KS_COEFFICIENT * math.sqrt(2.0 / samples)
    for name in sorted(reference_columns):
        ref_values = reference_columns[name]
        cand_values = candidate_columns.get(name)
        if cand_values is None or len(cand_values) != len(ref_values):
            problems.append(f"property {name} missing from {strategy}'s scenes")
            continue
        spread = max(*ref_values, *cand_values) - min(*ref_values, *cand_values)
        if spread <= TOLERANCE:
            continue  # deterministic property: nothing distributional to test
        statistic = ks_statistic(ref_values, cand_values)
        if statistic > ks_threshold:
            problems.append(
                f"property {name}: KS statistic {statistic:.4f} exceeds "
                f"{ks_threshold:.4f} ({strategy} vs {reference}, n={samples})"
            )
            continue
        chi2, df = chi_square_two_sample(ref_values, cand_values)
        bound = chi_square_quantile(df)
        if chi2 > bound:
            problems.append(
                f"property {name}: chi-square {chi2:.2f} exceeds {bound:.2f} "
                f"(df={df}, {strategy} vs {reference}, n={samples})"
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
    statistical: bool = False,
    equivalence_samples: int = 120,
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

    ``statistical=True`` additionally runs oracle E
    (:func:`check_statistical_equivalence`): *equivalence_samples*-scene
    batches under ``vectorized`` and ``rejection`` compared distributionally.
    It multiplies the per-program cost by the batch size, so campaigns
    enable it explicitly (``repro.fuzz --equivalence``).
    """
    if isinstance(program, GeneratedProgram):
        source = program.source
        checks = program.checks if checks is None else list(checks)
        has_soft = program.has_soft_requirements
        skip_position_checks = program.has_mutation
        seed = program.seed if seed is None else seed
    else:
        source = program
        checks = list(checks) if checks is not None else []
        has_soft = False
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
    has_soft = has_soft or any(req.is_soft for req in probe.requirements)
    skip_position_checks = skip_position_checks or any(
        _mutation_enabled(obj) for obj in probe.objects
    )

    # -- oracle F: planned draws equal the reference walk ----------------------
    plan_problems = check_planned_draws(probe, seed)
    if plan_problems:
        report.verdict = "fail"
        report.failures.extend(OracleFailure("plan-equivalence", p) for p in plan_problems)
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
    if not has_soft and len(exact) >= 2:
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

    # -- oracle E: statistical equivalence of vectorized sampling ---------------
    if statistical and records.get("rejection") is not None:
        try:
            problems = check_statistical_equivalence(
                source, seed=seed, samples=equivalence_samples
            )
        except Exception as error:  # noqa: BLE001 - the crash oracle
            report.failures.append(
                OracleFailure(
                    "crash", f"oracle E raised {type(error).__name__}: {error}", "vectorized"
                )
            )
        else:
            for problem in problems:
                report.failures.append(
                    OracleFailure("stat-equivalence", problem, "vectorized")
                )

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
    "check_statistical_equivalence",
    "check_planned_draws",
    "reference_concretize",
    "chi_square_quantile",
    "chi_square_two_sample",
    "ks_statistic",
    "scene_features",
    "feature_columns",
    "run_oracles",
    "default_strategies",
]
