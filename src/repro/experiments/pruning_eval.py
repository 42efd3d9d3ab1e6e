"""Sec. 5.2 / App. D — effectiveness of the pruning techniques and sampling speed.

The paper reports that all reasonable scenarios needed at most a few hundred
rejection-sampling iterations (a sample within a few seconds), and that the
pruning methods reduce the number of candidate samples needed by a factor of
3 or more on scenarios like bumper-to-bumper traffic.  This harness measures
both: per-scenario iteration counts and wall-clock time with and without
pruning, plus — since the pruning pass became fully automatic — the area
ratio each individual technique (containment, orientation, size) achieves,
the quantity Sec. 5.2 reasons about.

Empty-result handling is explicit: when pruning proves a scenario
statically infeasible (a region pruned to nothing), the comparison raises
:class:`~repro.core.errors.InfeasibleScenarioError` instead of silently
measuring a zero-acceptance sampling loop.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..core.pruning import prune_scenario
from ..core.scenario import Scenario
from ..sampling import SamplerEngine, SamplingStrategy
from . import scenarios
from .reporting import TableRow, format_table


@dataclass
class SamplingMeasurement:
    """Iteration counts and timings for one scenario."""

    scenario_name: str
    mean_iterations: float
    max_iterations: float
    mean_seconds: float
    samples: int


@dataclass
class PruningComparison:
    """Iterations needed with and without pruning for one scenario."""

    scenario_name: str
    unpruned_iterations: float
    pruned_iterations: float
    area_ratio: float
    techniques: Tuple[str, ...]
    #: Area kept per technique (area-out / area-in for that stage); 1.0
    #: entries are omitted by the report table.
    technique_ratios: Dict[str, float] = field(default_factory=dict)

    @property
    def improvement_factor(self) -> float:
        if self.pruned_iterations <= 0:
            return float("inf")
        return self.unpruned_iterations / self.pruned_iterations


def measure_sampling(
    scenario: Scenario,
    samples: int = 10,
    seed: int = 0,
    max_iterations: int = 20000,
    name: str = "scenario",
    strategy: Union[str, SamplingStrategy] = "rejection",
) -> SamplingMeasurement:
    """Generate *samples* scenes and record the iteration counts and time.

    Sampling goes through :class:`repro.sampling.SamplerEngine`, so either
    strategy (``"rejection"``, ``"vectorized"``) can be measured, on a
    pruned scenario too; per-scene
    diagnostics come from the engine's aggregate stats.
    """
    engine = SamplerEngine(scenario, strategy=strategy)
    rng = _random.Random(seed)
    iterations: List[float] = []
    times: List[float] = []
    for _ in range(samples):
        engine.sample(max_iterations=max_iterations, rng=rng)
        iterations.append(float(engine.last_stats.iterations))
        times.append(engine.last_stats.elapsed_seconds)
    return SamplingMeasurement(
        scenario_name=name,
        mean_iterations=sum(iterations) / len(iterations),
        max_iterations=max(iterations),
        mean_seconds=sum(times) / len(times),
        samples=samples,
    )


def measure_gallery_sampling(
    samples: int = 5,
    seed: int = 0,
    strategy: Union[str, SamplingStrategy] = "rejection",
) -> List[SamplingMeasurement]:
    """Sampling statistics for every gallery scenario (Appendix A)."""
    measurements = []
    for name, source in scenarios.GALLERY.items():
        scenario = scenarios.compile_scenario(source)
        measurements.append(
            measure_sampling(scenario, samples=samples, seed=seed, name=name, strategy=strategy)
        )
    return measurements


def compare_pruning(
    scenario_source: str,
    name: str,
    samples: int = 10,
    seed: int = 0,
) -> PruningComparison:
    """Compare iteration counts with and without pruning for one scenario.

    The scenario is compiled twice so the pruned copy's modified regions do
    not affect the unpruned baseline; the pruned copy goes through
    :func:`~repro.core.pruning.prune_scenario` and is then rejection-sampled
    exactly like the baseline.  The pruning pass is fully automatic: static
    requirement analysis of the compiled program derives every bound (the
    paper's Sec. 5.2 mode).

    Raises :class:`~repro.core.errors.InfeasibleScenarioError` when pruning
    proves the scenario unsatisfiable — an explicit error rather than a
    silent 0-area sampling loop.
    """
    unpruned = scenarios.compile_scenario(scenario_source)
    baseline = measure_sampling(unpruned, samples=samples, seed=seed, name=name)

    pruned_scenario = scenarios.compile_scenario(scenario_source)
    report = prune_scenario(pruned_scenario)
    pruned = measure_sampling(
        pruned_scenario, samples=samples, seed=seed, name=f"{name}+pruning"
    )

    return PruningComparison(
        scenario_name=name,
        unpruned_iterations=baseline.mean_iterations,
        pruned_iterations=pruned.mean_iterations,
        area_ratio=report.area_ratio,
        techniques=report.techniques,
        technique_ratios=report.technique_ratios(),
    )


def run_pruning_experiment(samples: int = 10, seed: int = 0) -> List[PruningComparison]:
    """Pruning comparisons for the scenarios where pruning applies.

    All bounds are derived automatically by the static requirement
    analysis: visibility gives the distance bound ``M``, relative-heading
    requirements and the oncoming ``offset by``/``can see`` pattern give
    the heading arcs, and the class table gives minimum-fit radii.  The
    paper's headline (≥3x fewer candidates on pruning-friendly scenarios)
    shows up on the crossing-traffic cases; ``two_cars`` demonstrates the
    sound no-op (containment-only) behaviour.
    """
    cases = [
        ("two_cars", scenarios.two_cars()),
        ("close_car", scenarios.close_car()),
        ("oncoming", scenarios.oncoming_car()),
        ("crossing", scenarios.crossing_traffic()),
        ("merging", scenarios.merging_traffic()),
    ]
    comparisons = []
    for name, source in cases:
        comparisons.append(compare_pruning(source, name, samples=samples, seed=seed))
    return comparisons


def sampling_table(measurements: List[SamplingMeasurement]) -> str:
    rows = [
        TableRow(
            m.scenario_name,
            {
                "mean iters": m.mean_iterations,
                "max iters": m.max_iterations,
                "mean seconds": m.mean_seconds,
            },
        )
        for m in measurements
    ]
    return format_table("Scenario", ["mean iters", "max iters", "mean seconds"], rows)


def pruning_table(comparisons: List[PruningComparison]) -> str:
    rows = [
        TableRow(
            c.scenario_name,
            {
                "unpruned iters": c.unpruned_iterations,
                "pruned iters": c.pruned_iterations,
                "speedup": c.improvement_factor,
                "area ratio": c.area_ratio,
                "containment": c.technique_ratios.get("containment", 1.0),
                "orientation": c.technique_ratios.get("orientation", 1.0),
                "size": c.technique_ratios.get("size", 1.0),
            },
        )
        for c in comparisons
    ]
    return format_table(
        "Scenario",
        [
            "unpruned iters",
            "pruned iters",
            "speedup",
            "area ratio",
            "containment",
            "orientation",
            "size",
        ],
        rows,
    )


__all__ = [
    "SamplingMeasurement",
    "PruningComparison",
    "measure_sampling",
    "measure_gallery_sampling",
    "compare_pruning",
    "run_pruning_experiment",
    "sampling_table",
    "pruning_table",
]
