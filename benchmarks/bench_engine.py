"""Pruning benchmarks for scene sampling (`repro/sampling/`).

The paper's count claims for the Sec. 5.2 pruning pass, under assertion
(this benchmark is their regression guard):

* a gallery scenario where the pruning pass (``prune_scenario``, then
  rejection) shrinks the feasible road region before sampling;
* automatic pruning against containment-only pruning (≥2x fewer rejected
  candidates, a smaller area ratio).

Only counts are asserted.  Wall time is measured end to end by
``perfbench`` (see ``BENCHMARK.json``).
"""

from repro.core.pruning import prune_scenario
from repro.experiments import scenarios
from repro.experiments.pruning_eval import measure_sampling


def test_pruning_sampler_reduces_iterations(benchmark, record_result):
    def compare():
        baseline = measure_sampling(
            scenarios.compile_scenario(scenarios.two_cars()),
            samples=5,
            seed=0,
            name="two_cars",
        )
        pruned_scenario = scenarios.compile_scenario(scenarios.two_cars())
        prune_scenario(pruned_scenario)
        pruned = measure_sampling(pruned_scenario, samples=5, seed=0, name="two_cars+pruning")
        return baseline, pruned

    baseline, pruned = benchmark.pedantic(compare, rounds=1, iterations=1)
    record_result(
        "engine_pruning",
        f"rejection: mean {baseline.mean_iterations:.1f} iterations/scene\n"
        f"pruning:   mean {pruned.mean_iterations:.1f} iterations/scene\n"
        "\nprune_scenario runs the Sec. 5.2 pruning pass once (bounds derived"
        "\nautomatically by static requirement analysis), then rejection"
        "\nsamples the shrunken regions.",
    )
    # Pruning is sound: it can only remove sample-space volume that could not
    # have produced a valid scene, so it never makes sampling harder (up to
    # sampling noise on a handful of scenes).
    assert pruned.mean_iterations <= baseline.mean_iterations * 1.5 + 5


def test_auto_pruning_beats_containment_only(benchmark, record_result):
    """Static-analysis pruning must at least halve the rejected candidates.

    The workload is the heading-constrained example scenarios
    (``crossing_traffic`` / ``merging_traffic``): a relative-heading
    requirement pins the second car to a perpendicular carriageway within
    visibility range.  *Containment-only* pruning (the pre-analysis
    behaviour: minimum-fit erosion, no orientation/size bounds) is the
    baseline; *auto* pruning additionally runs Algorithm 2 with the
    analyzer's derived arc and distance bound.  The acceptance criterion is
    >= 2x fewer rejected candidate scenes; the per-technique area ratios are
    printed with the result.
    """
    from repro.language import compile_scenario as compile_artifact

    scene_count = 8
    cases = {
        "crossing_traffic": scenarios.crossing_traffic(),
        "merging_traffic": scenarios.merging_traffic(),
    }

    def run_case(source, containment_only):
        artifact = compile_artifact(source, cache=None)
        bounds = artifact.prune_bounds()
        scenario = artifact.scenario(fresh=True)
        report = prune_scenario(
            scenario, bounds.containment_only() if containment_only else bounds
        )
        batch = scenario.generate_batch(
            scene_count, seed=0, max_iterations=200000, strategy="rejection"
        )
        combined = batch.stats.combined()
        return {
            "iterations": combined.iterations,
            "rejections": combined.total_rejections,
            "area_ratio": report.area_ratio,
            "technique_ratios": report.technique_ratios(),
        }

    def run_all():
        return {
            name: {
                "containment_only": run_case(source, containment_only=True),
                "auto": run_case(source, containment_only=False),
            }
            for name, source in cases.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = []
    for name, rows in results.items():
        containment, auto = rows["containment_only"], rows["auto"]
        reduction = containment["rejections"] / max(1, auto["rejections"])
        lines.append(
            f"{name:>18s}: containment-only {containment['rejections']:6d} rejected, "
            f"auto {auto['rejections']:6d} rejected ({reduction:.1f}x fewer), "
            f"area ratio {auto['area_ratio']:.3f} "
            f"(per technique: "
            + ", ".join(
                f"{tech}={ratio:.3f}" for tech, ratio in auto["technique_ratios"].items()
            )
            + ")"
        )
    record_result(
        "engine_auto_pruning",
        "\n".join(lines)
        + f"\n\n{scene_count} scenes per configuration, fixed seed.  The static"
        "\nrequirement analyzer derives the relative-heading arc and the"
        "\nvisibility distance bound; Algorithm 2 then keeps only road cells"
        "\nwithin sight of a compatible (perpendicular) carriageway.",
    )
    for name, rows in results.items():
        auto, containment = rows["auto"], rows["containment_only"]
        assert auto["rejections"] * 2 <= containment["rejections"], (
            f"{name}: auto-pruning only reduced rejections "
            f"{containment['rejections']} -> {auto['rejections']}"
        )
        assert auto["area_ratio"] < containment["area_ratio"]
