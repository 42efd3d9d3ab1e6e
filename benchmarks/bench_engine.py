"""Strategy shoot-out for the pluggable sampling engine (`repro/sampling/`).

The paper's count claims, under assertion (the engine exists to make
sampling draw fewer candidates, and this benchmark is the regression
guard):

* a containment-heavy scenario (several independent objects drawn from a
  region much larger than the workspace) where plain rejection must redraw
  the *joint* sample on every containment failure, while ``BatchSampler``
  re-draws only the offending object group (≥5x fewer candidates);
* a gallery scenario where the Sec. 5.2 pruning pass (``prune_scenario``,
  then rejection) shrinks the feasible road region before sampling;
* automatic pruning against containment-only pruning (≥2x fewer rejected
  candidates, a smaller area ratio);
* the direct synthesis strategy: constructive sampling from the pruned
  feasible region must draw ≥10x fewer candidates than vectorized
  rejection on the containment-heavy scenario.

Only counts are asserted.  Wall time is measured end to end by
``perfbench`` (see ``BENCHMARK.json``).
"""

from repro.core import At, Facing, In, Object, ScenarioBuilder, Workspace
from repro.core.pruning import prune_scenario
from repro.core.regions import CircularRegion, PolygonalRegion
from repro.experiments import scenarios
from repro.experiments.pruning_eval import measure_sampling
from repro.geometry.polygon import Polygon
from repro.sampling import SamplerEngine


def containment_heavy_scenario(object_count: int = 4):
    """Independent objects whose sampling region dwarfs the workspace.

    Each object is uniform over a radius-40 disc but must land in a 30x30
    workspace: per-object acceptance is low and joint acceptance decays
    exponentially with *object_count* — the worst case for plain rejection
    and the best case for dependency-aware partial resampling.
    """
    half = 15.0
    workspace = Workspace(
        PolygonalRegion([Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])])
    )
    with ScenarioBuilder(workspace=workspace) as builder:
        builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        for _ in range(object_count):
            Object(In(CircularRegion((0.0, 0.0), 40.0)), width=1, height=1, requireVisible=False)
    return builder.scenario()


def _run_strategy(strategy, scenes=10, seed=0, **options):
    scenario = containment_heavy_scenario()
    engine = SamplerEngine(scenario, strategy, **options)
    batch = engine.sample_batch(scenes, seed=seed, max_iterations=200000)
    combined = batch.stats.combined()
    return {
        "strategy": strategy,
        "iterations": combined.iterations,
        "redraws": combined.component_redraws,
        "rejections": combined.total_rejections,
        # The cross-strategy comparable count: constructive strategies count
        # proposal draws in candidates_drawn, everyone else in iterations.
        "candidates": max(combined.iterations, combined.candidates_drawn),
        "mean_importance_weight": batch.stats.mean_importance_weight,
    }


def test_batch_sampler_beats_rejection_on_containment(benchmark, record_result):
    rows = benchmark.pedantic(
        lambda: [
            _run_strategy(name)
            for name in ("rejection", "batch", "vectorized")
        ],
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{row['strategy']:>10s}: {row['iterations']:7d} candidate scenes, "
        f"{row['redraws']:5d} partial redraws"
        for row in rows
    ]
    record_result(
        "engine_strategies",
        "\n".join(lines)
        + "\n\n10 scenes of the containment-heavy scenario (4 independent objects"
        "\nuniform over a disc 5.6x the workspace area).  BatchSampler re-draws"
        "\nonly the object group that left the workspace instead of the joint"
        "\nsample, so its candidate count collapses.",
    )
    by_name = {row["strategy"]: row for row in rows}
    # Measurably fewer full candidates than plain rejection.  The margin is
    # huge (>100x in practice); assert a conservative 5x.
    assert by_name["batch"]["iterations"] * 5 < by_name["rejection"]["iterations"]


def test_direct_sampler_candidate_reduction(benchmark, record_result):
    """Constructive synthesis must draw >= 10x fewer candidates than rejection.

    On the containment-heavy scenario the direct strategy triangulates each
    object's pruned feasible region (the workspace, after minimum-fit
    erosion) and draws positions uniformly from the triangle fan, so
    containment holds by construction and almost every candidate is
    accepted.  The comparable count is ``max(iterations, candidates_drawn)``
    — constructive strategies count every per-object proposal draw
    (including membership redraws), which is *conservative* against direct:
    a 4-object scene costs it at least 4 counted draws, while a
    rejection-style candidate scene costs 1.  The >= 10x bound is the
    issue's acceptance criterion; the observed margin is far larger.
    """
    rows = benchmark.pedantic(
        lambda: [
            _run_strategy(name)
            for name in ("vectorized", "direct")
        ],
        rounds=1,
        iterations=1,
    )
    by_name = {row["strategy"]: row for row in rows}
    lines = [
        f"{row['strategy']:>10s}: {row['candidates']:7d} drawn candidates, "
        f"{row['rejections']:6d} rejections"
        + (
            f", mean importance weight {row['mean_importance_weight']:.4f}"
            if row["mean_importance_weight"] is not None
            else ""
        )
        for row in rows
    ]
    record_result(
        "engine_direct_synthesis",
        "\n".join(lines)
        + "\n\n10 scenes of the containment-heavy scenario.  Direct synthesis"
        "\nsamples positions uniformly from the triangulated pruned region"
        "\ninstead of rejecting out-of-workspace draws, so its drawn-candidate"
        "\ncount collapses to roughly one proposal per object per scene.",
    )
    # The issue's acceptance criterion: >= 10x fewer drawn candidates than
    # vectorized rejection on the containment-heavy workload.
    assert by_name["direct"]["candidates"] * 10 <= by_name["vectorized"]["candidates"], (
        f"direct drew {by_name['direct']['candidates']} candidates vs "
        f"vectorized {by_name['vectorized']['candidates']} — less than 10x fewer"
    )
    # Every accepted direct scene carries an importance weight in (0, 1].
    assert by_name["direct"]["mean_importance_weight"] is not None
    assert 0.0 < by_name["direct"]["mean_importance_weight"] <= 1.0


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
        engine = SamplerEngine(scenario, "rejection")
        batch = engine.sample_batch(scene_count, seed=0, max_iterations=200000)
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
