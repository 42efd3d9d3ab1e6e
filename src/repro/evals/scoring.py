"""Per-scenario engine scoring: the measurement core of the eval harness.

For one corpus scenario, :func:`score_scenario` draws a fixed-seed
ground-truth batch under the *reference* strategy (rejection — the paper's
semantics) and one batch per scored strategy, then reports per strategy:

* **acceptance rate** and **candidates**
  (:meth:`AggregateStats.as_eval_metrics` — the same counters the service
  ships per shard);
* **wall time** for the whole batch (informational — never gated, CI
  runners differ);
* **distributional coverage** vs the reference batch: per-property
  total-variation histogram distance, normalized EMD and KS over the
  object x/y/heading + pairwise-distance marginals
  (:mod:`repro.evals.metrics`);
* a **status**: ``ok``, ``budget_exhausted`` (the iteration budget ran out
  before the batch filled) or ``error:<Type>``.

Scenario-level, it also runs the automatic pruning pass once and records
the :class:`~repro.core.pruning.PruningReport` area ratio — the paper's
pruned/original sampling-area number.

Determinism: per-scene seeds are ``derive_seed(base ^ crc32(strategy), i)``
(the fuzzer's splitmix64 derivation), so every metric except wall time is a
pure function of ``(scenario, strategy, seed, samples, max_iterations)``.
A failed draw consumes exactly its own derived seed — later scenes are
unaffected, so two runs disagree on nothing but timing.

``via_service=True`` scores through the generation service instead
(inline workers): the same derived request runs through
:func:`repro.service.service.generate_sync` and coverage is computed from
the JSON scene records the service returns — an end-to-end check that the
serving path preserves the in-process output distribution.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.errors import InfeasibleScenarioError, RejectionError, ScenicError
from ..core.vectors import Vector
from ..core.utils import normalize_angle
from ..fuzz.runner import derive_seed
from ..sampling.stats import AggregateStats
from .metrics import coverage_summary, feature_columns

#: Default strategy set scored against the rejection reference: the
#: block-vectorized workhorse, the ``generate_batch`` default.
DEFAULT_STRATEGIES = ("vectorized",)
REFERENCE_STRATEGY = "rejection"

DEFAULT_SAMPLES = 40
DEFAULT_MAX_ITERATIONS = 3000

#: A strategy batch with fewer than this fraction of the target scenes is
#: not compared distributionally (too few samples to mean anything).
MIN_COVERAGE_FRACTION = 0.5


def strategy_salt(strategy: str) -> int:
    """A stable per-strategy seed offset (crc32 of the registry name)."""
    return zlib.crc32(strategy.encode("utf-8"))


def _batch_seeds(base_seed: int, strategy: str, samples: int) -> List[int]:
    salted = base_seed ^ strategy_salt(strategy)
    return [derive_seed(salted, index) for index in range(samples)]


# ---------------------------------------------------------------------------
# In-process scoring
# ---------------------------------------------------------------------------


def _run_inprocess_batch(
    artifact: Any,
    strategy: str,
    seeds: Sequence[int],
    max_iterations: int,
    strategy_factory: Optional[Callable[[str], Any]] = None,
) -> Dict[str, Any]:
    """Draw one scene per seed; returns scenes + metric dict + status."""
    instance = strategy_factory(strategy) if strategy_factory is not None else strategy
    start = time.perf_counter()
    scenario = artifact.scenario()
    aggregate = AggregateStats()
    scenes = []
    failures = 0
    status = "ok"
    for seed in seeds:
        try:
            scene = scenario.generate(max_iterations=max_iterations, seed=seed, strategy=instance)
        except RejectionError:
            aggregate.record(scenario.last_stats, accepted=False)
            failures += 1
            status = "budget_exhausted"
            continue
        except ScenicError as error:
            # An InfeasibleScenarioError means pruning proved the scenario
            # empty — that is a scoring verdict (and, for a corpus program
            # known feasible, a soundness bug).
            status = f"error:{type(error).__name__}"
            break
        aggregate.record(scenario.last_stats)
        scenes.append(scene)
    wall = time.perf_counter() - start
    metrics = aggregate.as_eval_metrics()
    metrics["failed_draws"] = failures
    return {"scenes": scenes, "status": status, "metrics": metrics, "wall_seconds": wall}


# ---------------------------------------------------------------------------
# Service-path scoring
# ---------------------------------------------------------------------------


def _record_feature_columns(records: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Feature columns from the service's JSON scene records."""
    columns: Dict[str, List[float]] = {}
    for record in records:
        positions = [Vector(obj["position"][0], obj["position"][1]) for obj in record["objects"]]
        for index, (obj, point) in enumerate(zip(record["objects"], positions)):
            columns.setdefault(f"object{index}.x", []).append(point.x)
            columns.setdefault(f"object{index}.y", []).append(point.y)
            columns.setdefault(f"object{index}.heading", []).append(
                normalize_angle(float(obj["heading"]))
            )
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                columns.setdefault(f"distance({i},{j})", []).append(
                    positions[i].distance_to(positions[j])
                )
    return columns


def _run_service_batch(
    source: str, strategy: str, base_seed: int, samples: int, max_iterations: int
) -> Dict[str, Any]:
    """Score one strategy batch through the generation service (inline)."""
    from ..service.service import GenerationFailedError, generate_sync

    start = time.perf_counter()
    try:
        response = generate_sync(
            source,
            n=samples,
            seed=base_seed ^ strategy_salt(strategy),
            strategy=strategy,
            workers=0,
            max_iterations=max_iterations,
        )
    except (GenerationFailedError, ScenicError) as error:
        return {
            "columns": {},
            "status": f"error:{type(error).__name__}",
            "metrics": AggregateStats().as_eval_metrics(),
            "wall_seconds": time.perf_counter() - start,
        }
    wall = time.perf_counter() - start
    stats = response.stats
    iterations = int(stats.get("iterations", 0))
    scenes = int(stats.get("scenes", 0))
    metrics = {
        "scenes": scenes,
        "draws": int(stats.get("draws", scenes)),
        "iterations": iterations,
        "candidates": int(stats.get("candidates", iterations)),
        "acceptance_rate": (scenes / iterations) if iterations else 0.0,
        "sampling_seconds": float(stats.get("sampling_seconds", 0.0)),
        "rejections": stats.get("rejections", {}),
        "failed_draws": 0,
    }
    return {
        "columns": _record_feature_columns(response.scenes),
        "status": "ok",
        "metrics": metrics,
        "wall_seconds": wall,
    }


# ---------------------------------------------------------------------------
# Scenario-level scoring
# ---------------------------------------------------------------------------


def pruning_summary(artifact: Any) -> Dict[str, Any]:
    """Run the automatic pruning pass once on a fresh scenario of *artifact*.

    Returns a JSON-safe report (or error).
    """
    from ..core.pruning import prune_scenario

    try:
        report = prune_scenario(artifact.scenario(fresh=True))
    except InfeasibleScenarioError as error:
        return {"applied": False, "error": f"InfeasibleScenarioError: {error}"}
    except ScenicError as error:
        return {"applied": False, "error": f"{type(error).__name__}: {error}"}
    summary = report.as_dict()
    summary["error"] = None
    return summary


def score_scenario(
    source: str,
    *,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    reference: str = REFERENCE_STRATEGY,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    via_service: bool = False,
    strategy_factory: Optional[Callable[[str], Any]] = None,
) -> Dict[str, Any]:
    """Score the engine on one scenario; see the module docstring.

    *strategy_factory*, when given, maps a strategy name to the strategy
    instance actually run — the hook the planted-regression selfcheck uses
    to smuggle a deliberately biased sampler in under a real name.
    """
    from ..language import compile_scenario

    try:
        artifact = compile_scenario(source)
        artifact.scenario()  # force interpretation: compile errors land here
    except ScenicError as error:
        return {
            "status": f"error:{type(error).__name__}",
            "error": str(error),
            "strategies": {},
            "pruning": {"applied": False, "error": str(error)},
        }

    result: Dict[str, Any] = {
        "status": "ok",
        "samples": samples,
        "seed": seed,
        "max_iterations": max_iterations,
        "reference": reference,
        "via_service": via_service,
        "pruning": pruning_summary(artifact),
        "strategies": {},
    }

    def run(strategy: str) -> Dict[str, Any]:
        if via_service:
            return _run_service_batch(source, strategy, seed, samples, max_iterations)
        outcome = _run_inprocess_batch(
            artifact,
            strategy,
            _batch_seeds(seed, strategy, samples),
            max_iterations,
            strategy_factory,
        )
        outcome["columns"] = feature_columns(outcome.pop("scenes"))
        return outcome

    reference_outcome = run(reference)
    reference_columns = reference_outcome["columns"]
    reference_scenes = reference_outcome["metrics"]["scenes"]

    def entry(outcome: Dict[str, Any], compare: bool) -> Dict[str, Any]:
        record = {
            "status": outcome["status"],
            "wall_seconds": round(outcome["wall_seconds"], 4),
            **outcome["metrics"],
        }
        scenes = outcome["metrics"]["scenes"]
        enough = (
            reference_scenes >= samples * MIN_COVERAGE_FRACTION
            and scenes >= samples * MIN_COVERAGE_FRACTION
        )
        if compare and enough:
            record["coverage"] = coverage_summary(reference_columns, outcome["columns"])
        elif compare:
            record["coverage"] = None
        return record

    result["strategies"][reference] = entry(reference_outcome, compare=False)
    for strategy in strategies:
        if strategy == reference:
            continue
        result["strategies"][strategy] = entry(run(strategy), compare=True)
    if reference_outcome["status"] != "ok":
        result["status"] = reference_outcome["status"]
    return result


__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_SAMPLES",
    "DEFAULT_STRATEGIES",
    "REFERENCE_STRATEGY",
    "pruning_summary",
    "score_scenario",
    "strategy_salt",
]
