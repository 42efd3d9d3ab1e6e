"""Strategy shoot-out for the pluggable sampling engine (`repro/sampling/`).

Hard cases under assertion (the engine exists to make sampling measurably
cheaper, and this benchmark is the regression guard):

* a containment-heavy scenario (several independent objects drawn from a
  region much larger than the workspace) where plain rejection must redraw
  the *joint* sample on every containment failure, while ``BatchSampler``
  re-draws only the offending object group;
* a gallery scenario where the Sec. 5.2 pruning pass (``prune_scenario``,
  then rejection) shrinks the feasible road region before sampling;
* the geometry kernel against the scalar hot-path checks (≥3x);
* the compiled-artifact cache: warm-path scenario construction must be
  ≥10x faster than a cold compile (lexer+parser+interpreter);
* the generation service's warm-path throughput: the columnar shard
  transport + adaptive sampling rework must clear ≥10x the BENCH_6
  baseline (7.7 scenes/s), with streamed frames reassembling bit-identical
  to the blocking response;
* the direct synthesis strategy: constructive sampling from the pruned
  feasible region must draw ≥10x fewer candidates than vectorized
  rejection on the containment-heavy scenario.

Headline numbers are also written to ``results/BENCH_9.json`` (see
``conftest.save_bench_json``) so future PRs have a machine-readable perf
trajectory to diff against.
"""

import asyncio
import random
import time

import numpy as np

from repro.core import At, Facing, In, Object, ScenarioBuilder, Workspace
from repro.core.pruning import prune_scenario
from repro.core.regions import CircularRegion, PolygonalRegion
from repro.experiments import scenarios
from repro.experiments.pruning_eval import measure_sampling
from repro.geometry import kernel
from repro.geometry.polygon import Polygon, polygons_intersect
from repro.language import ArtifactCache, compile_scenario
from repro.sampling import SamplerEngine

from conftest import save_bench_json, save_result


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
    start = time.perf_counter()
    batch = engine.sample_batch(scenes, seed=seed, max_iterations=200000)
    wall = time.perf_counter() - start
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
        "wall_seconds": wall,
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
        f"{row['redraws']:5d} partial redraws, {row['wall_seconds']:.3f}s wall"
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
    save_bench_json(
        "engine_strategies",
        {row["strategy"]: {k: row[k] for k in ("iterations", "redraws", "wall_seconds")}
         for row in rows},
    )
    # The acceptance criterion: measurably fewer full candidates AND lower
    # wall time than plain rejection.  The margin is huge (>100x in practice);
    # assert a conservative 5x so noise cannot flake the benchmark.
    assert by_name["batch"]["iterations"] * 5 < by_name["rejection"]["iterations"]
    assert by_name["batch"]["wall_seconds"] * 5 < by_name["rejection"]["wall_seconds"]


def test_direct_sampler_candidate_reduction(benchmark, record_result, record_bench_json):
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
        f"{row['rejections']:6d} rejections, {row['wall_seconds']:.3f}s wall"
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
    record_bench_json(
        "direct_synthesis",
        {
            row["strategy"]: {
                k: row[k]
                for k in (
                    "candidates",
                    "iterations",
                    "rejections",
                    "mean_importance_weight",
                    "wall_seconds",
                )
            }
            for row in rows
        },
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


def test_auto_pruning_beats_containment_only(benchmark, record_result, record_bench_json):
    """Static-analysis pruning must at least halve the rejected candidates.

    The workload is the heading-constrained example scenarios
    (``crossing_traffic`` / ``merging_traffic``): a relative-heading
    requirement pins the second car to a perpendicular carriageway within
    visibility range.  *Containment-only* pruning (the pre-analysis
    behaviour: minimum-fit erosion, no orientation/size bounds) is the
    baseline; *auto* pruning additionally runs Algorithm 2 with the
    analyzer's derived arc and distance bound.  The acceptance criterion is
    >= 2x fewer rejected candidate scenes; per-technique area ratios land in
    ``results/BENCH_6.json``.
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
    payload = {}
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
        payload[name] = {
            "scenes": scene_count,
            "containment_only_rejections": containment["rejections"],
            "auto_rejections": auto["rejections"],
            "rejection_reduction": reduction,
            "containment_only_area_ratio": containment["area_ratio"],
            "auto_area_ratio": auto["area_ratio"],
            "auto_technique_area_ratios": auto["technique_ratios"],
        }
    record_result(
        "engine_auto_pruning",
        "\n".join(lines)
        + f"\n\n{scene_count} scenes per configuration, fixed seed.  The static"
        "\nrequirement analyzer derives the relative-heading arc and the"
        "\nvisibility distance bound; Algorithm 2 then keeps only road cells"
        "\nwithin sight of a compatible (perpendicular) carriageway.",
    )
    record_bench_json("auto_pruning", payload)
    for name, rows in results.items():
        auto, containment = rows["auto"], rows["containment_only"]
        assert auto["rejections"] * 2 <= containment["rejections"], (
            f"{name}: auto-pruning only reduced rejections "
            f"{containment['rejections']} -> {auto['rejections']}"
        )
        assert auto["area_ratio"] < containment["area_ratio"]


def test_vectorized_kernel_beats_scalar_geometry(benchmark, record_result):
    """The batched kernel must be >=3x faster than the scalar hot-path checks.

    The workload mirrors one containment-heavy sampling run: 200 candidate
    scenes of 20 objects each inside a triangulated (8-piece) polygonal
    workspace.  The scalar path is exactly what the pre-kernel code ran per
    candidate — ``contains_object`` per object and ``polygons_intersect``
    per pair; the kernel path batches all candidates' containment points into
    one query and all pairs into one separating-axis pass.
    """
    rng = random.Random(0)
    pieces = [
        Polygon([(x, y), (x + 15.0, y), (x + 15.0, y + 7.5), (x, y + 7.5)])
        for x in (-15.0, 0.0)
        for y in (-15.0, -7.5, 0.0, 7.5)
    ]
    region = PolygonalRegion(pieces)
    candidate_count, object_count = 200, 20
    candidates = [
        [
            Object._make(
                position=(rng.uniform(-18, 18), rng.uniform(-18, 18)),
                heading=rng.uniform(-3.14, 3.14),
                width=rng.uniform(1.5, 4.0),
                height=rng.uniform(1.5, 4.0),
                allowCollisions=False,
            )
            for _ in range(object_count)
        ]
        for _ in range(candidate_count)
    ]

    def scalar_pass():
        results = []
        for objects in candidates:
            contained = all(region.contains_object(obj) for obj in objects)
            collision = False
            for i in range(object_count):
                for j in range(i + 1, object_count):
                    if polygons_intersect(
                        objects[i].bounding_polygon, objects[j].bounding_polygon
                    ):
                        collision = True
                        break
                if collision:
                    break
            results.append((contained, collision))
        return results

    def kernel_pass():
        corners = np.stack([kernel.corners_array(objects) for objects in candidates])
        contained = (
            kernel.objects_contained(region, corners.reshape(-1, 4, 2))
            .reshape(candidate_count, object_count)
            .all(axis=1)
        )
        collision_free = kernel.batch_collision_free(corners)
        return contained, ~collision_free

    def timed(fn, repeats=3):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    scalar_seconds, scalar_results = benchmark.pedantic(
        lambda: timed(scalar_pass), rounds=1, iterations=1
    )
    kernel_seconds, (contained, colliding) = timed(kernel_pass)

    # Same verdicts, candidate for candidate (the scalar collision loop
    # short-circuits, so compare the booleans, not the pair lists).
    for index, (scalar_contained, scalar_collision) in enumerate(scalar_results):
        assert bool(contained[index]) == scalar_contained
        assert bool(colliding[index]) == scalar_collision

    speedup = scalar_seconds / kernel_seconds
    record_result(
        "geometry_kernel",
        f"scalar checks: {scalar_seconds * 1000:8.1f} ms\n"
        f"kernel checks: {kernel_seconds * 1000:8.1f} ms\n"
        f"speedup:       {speedup:8.1f}x\n"
        f"\n{candidate_count} candidate scenes x {object_count} objects, "
        "8-piece polygonal workspace;\ncontainment (corners + edge midpoints) "
        "and pairwise collision verdicts\nidentical between the two paths.",
    )
    save_bench_json(
        "geometry_kernel",
        {
            "scalar_seconds": scalar_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "candidates": candidate_count,
            "objects": object_count,
        },
    )
    # The acceptance criterion: the vectorized kernel is at least 3x faster
    # (in practice far more) on the containment-heavy 20-object workload.
    assert speedup >= 3.0, f"kernel only {speedup:.2f}x faster than scalar"


def test_compiled_artifact_cache_warm_vs_cold(benchmark, record_result, record_bench_json):
    """Warm-path scenario construction must be >= 10x faster than cold compile.

    Cold: the full front end per construction (lexer → parser → interpreter,
    ``compile_scenario(source, cache=None).scenario(fresh=True)``).  Warm:
    the content-addressed artifact cache's interned scenario
    (``cache.get(source).scenario()``), i.e. what ``SamplerEngine(source)``
    and the generation service's workers pay after their first request.
    The margin is enormous in practice (a dict lookup vs re-running the
    whole front end); 10x is the conservative regression bound from the
    issue's acceptance criteria.
    """
    sources = [
        scenarios.two_cars(),
        scenarios.platoon(),
        scenarios.bad_conditions(4),
        scenarios.mars_bottleneck(),
    ]
    rounds = 15

    def cold_pass():
        for source in sources:
            compile_scenario(source, cache=None).scenario(fresh=True)

    def warm_pass(cache):
        for source in sources:
            cache.get(source).scenario()

    def measure():
        cache = ArtifactCache()
        warm_pass(cache)  # populate: the warm path presumes a prior compile
        cold_start = time.perf_counter()
        for _ in range(rounds):
            cold_pass()
        cold_seconds = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        for _ in range(rounds):
            warm_pass(cache)
        warm_seconds = time.perf_counter() - warm_start
        return cold_seconds, warm_seconds

    cold_seconds, warm_seconds = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cold_seconds / warm_seconds
    per_construction_cold = cold_seconds / (rounds * len(sources)) * 1e3
    per_construction_warm = warm_seconds / (rounds * len(sources)) * 1e3
    record_result(
        "compile_cache",
        f"cold compile:   {per_construction_cold:8.3f} ms / scenario construction\n"
        f"warm artifact:  {per_construction_warm:8.3f} ms / scenario construction\n"
        f"speedup:        {speedup:8.1f}x\n"
        f"\n{rounds} rounds x {len(sources)} gallery programs (two_cars, platoon,"
        "\n4-car bad conditions, mars_bottleneck).  Cold runs the whole front end"
        "\n(lexer, parser, interpreter); warm is a content-hash lookup returning"
        "\nthe artifact's interned scenario.",
    )
    record_bench_json(
        "compile_cache",
        {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "constructions": rounds * len(sources),
            "cold_ms_per_construction": per_construction_cold,
            "warm_ms_per_construction": per_construction_warm,
        },
    )
    # The issue's acceptance criterion.
    assert speedup >= 10.0, f"warm path only {speedup:.1f}x faster than cold compile"


#: BENCH_6's recorded warm-path service throughput (scenes/s), the baseline
#: the transport rework is measured against.  Kept inline so the assertion
#: survives even if results/BENCH_6.json is pruned from a checkout.
BENCH_6_SERVICE_SCENES_PER_SECOND = 7.7


def test_service_throughput(benchmark, record_result, record_bench_json):
    """Warm-path generation-service throughput: ≥10x the BENCH_6 baseline.

    Measures a sharded 60-scene request against a 2-process pool after a
    warm-up request (workers hold the compiled artifact and a bound engine,
    shards travel as columnar blocks over shared memory), then replays the
    same request through :meth:`GenerationService.generate_stream` and
    asserts the reassembled frames are bit-identical to the blocking
    response.  The ≥10x bound is against BENCH_6's 7.7 scenes/s — the
    rework's point was that serving overhead, not sampling, dominated.
    """
    from repro.service import GenerationService

    source = scenarios.two_cars()
    scene_count = 60

    async def run():
        async with GenerationService(workers=2) as service:
            cold_start = time.perf_counter()
            await service.generate(source, n=2, seed=0, max_iterations=20000)
            cold_request = time.perf_counter() - cold_start

            warm_start = time.perf_counter()
            response = await service.generate(
                source, n=scene_count, seed=7, strategy="vectorized",
                max_iterations=20000,
            )
            warm_request = time.perf_counter() - warm_start

            stream_start = time.perf_counter()
            streamed = [None] * scene_count
            block_frames = 0
            async for frame in service.generate_stream(
                source, n=scene_count, seed=7, strategy="vectorized",
                max_iterations=20000,
            ):
                if frame["frame"] == "block":
                    block_frames += 1
                    for index, record in zip(frame["indices"], frame["scenes"]):
                        streamed[index] = record
            stream_request = time.perf_counter() - stream_start
            return (cold_request, warm_request, stream_request,
                    response, streamed, block_frames)

    (cold_request, warm_request, stream_request,
     response, streamed, block_frames) = benchmark.pedantic(
        lambda: asyncio.run(run()), rounds=1, iterations=1
    )
    assert len(response.scenes) == scene_count
    assert response.stats["shards"] == 2
    # Streamed frames reassemble bit-identical to the blocking response.
    assert streamed == response.scenes
    assert block_frames == response.stats["shards"]

    throughput = scene_count / warm_request
    speedup = throughput / BENCH_6_SERVICE_SCENES_PER_SECOND
    record_result(
        "service_throughput",
        f"cold request (2 scenes, compile + first sample): {cold_request * 1e3:8.1f} ms\n"
        f"warm request ({scene_count} scenes, vectorized): {warm_request * 1e3:8.1f} ms\n"
        f"streamed request (same seed, reassembled):   {stream_request * 1e3:8.1f} ms\n"
        f"throughput:                    {throughput:8.1f} scenes/s"
        f"  ({speedup:.1f}x BENCH_6's {BENCH_6_SERVICE_SCENES_PER_SECOND} scenes/s)\n"
        f"worker cache hits: {response.stats['worker_cache_hits']}/{response.stats['shards']}"
        f" shards, workers: {len(response.stats['workers'])}\n"
        "\n2-process pool, shared-memory columnar shard transport, splitmix64"
        "\nper-scene seeds (bit-identical to any other worker count; streamed"
        "\nframes reassemble to the blocking response), two_cars scenario.",
    )
    record_bench_json(
        "service_throughput",
        {
            "scenes": scene_count,
            "cold_request_seconds": cold_request,
            "warm_request_seconds": warm_request,
            "stream_request_seconds": stream_request,
            "scenes_per_second": throughput,
            "bench6_scenes_per_second": BENCH_6_SERVICE_SCENES_PER_SECOND,
            "speedup_vs_bench6": speedup,
            "stream_parity": streamed == response.scenes,
            "workers": 2,
            "strategy": "vectorized",
            "transport": "shm",
        },
    )
    # The issue's acceptance criterion: ≥10x the BENCH_6 baseline.
    assert speedup >= 10.0, (
        f"service throughput {throughput:.1f} scenes/s is only {speedup:.1f}x "
        f"the BENCH_6 baseline ({BENCH_6_SERVICE_SCENES_PER_SECOND} scenes/s)"
    )
