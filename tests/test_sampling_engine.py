"""Tests for the scene-sampling engine (``repro/sampling/``)."""

import itertools

import pytest

from repro.core import (
    At,
    Facing,
    In,
    Object,
    RejectionError,
    ScenarioBuilder,
    Vector,
    Workspace,
)
from repro.core.regions import CircularRegion, DifferenceRegion, PolygonalRegion, nowhere
from repro.experiments import scenarios
from repro.geometry.polygon import Polygon
from repro.sampling import (
    RejectionSampler,
    SamplerEngine,
    SceneBatch,
    STRATEGIES,
    VectorizedSampler,
    make_strategy,
)


def square_workspace(size: float) -> Workspace:
    half = size / 2
    return Workspace(
        PolygonalRegion([Polygon([(-half, -half), (half, -half), (half, half), (-half, half)])])
    )


def scene_fingerprint(scene):
    """Positions and headings of every object, rounded for stable comparison."""
    return [
        (
            type(scenic_object).__name__,
            round(float(scenic_object.heading), 9),
            tuple(round(coordinate, 9) for coordinate in Vector.from_any(scenic_object.position)),
        )
        for scenic_object in scene.objects
    ]


def containment_heavy_scenario(object_count: int = 3):
    """Independent objects drawn from a disc much larger than the workspace."""
    with ScenarioBuilder(workspace=square_workspace(30.0)) as builder:
        builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        for _ in range(object_count):
            Object(In(CircularRegion((0.0, 0.0), 40.0)), width=1, height=1, requireVisible=False)
    return builder.scenario()


class TestStrategyEquivalence:
    """The delegated ``Scenario.generate`` path equals the engine's rejection path."""

    @pytest.mark.parametrize("name", ["two_cars", "overlapping"])
    def test_generate_matches_engine_rejection(self, name):
        source = scenarios.GALLERY[name]
        via_scenario = scenarios.compile_scenario(source).generate(seed=42, max_iterations=20000)
        via_engine = SamplerEngine(scenarios.compile_scenario(source), "rejection").sample(
            seed=42, max_iterations=20000
        )
        assert scene_fingerprint(via_scenario) == scene_fingerprint(via_engine)

    def test_generate_accepts_strategy_keyword(self):
        scenario = containment_heavy_scenario()
        scene = scenario.generate(seed=0, max_iterations=100000, strategy="vectorized")
        assert not scene.has_collisions()
        assert scenario.last_stats.iterations >= 1

    def test_engine_rejection_error_records_stats(self):
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((0.2, 0.2)), Facing(0.0))  # forced overlap: unsatisfiable
        scenario = builder.scenario()
        engine = SamplerEngine(scenario, "rejection")
        with pytest.raises(RejectionError):
            engine.sample(max_iterations=25, seed=0)
        assert engine.last_stats.iterations == 25


class TestPruneThenSample:
    def test_pruned_scenario_keeps_scenes_valid(self):
        from repro.core.pruning import prune_scenario

        scenario = scenarios.compile_scenario(scenarios.two_cars())
        report = prune_scenario(scenario)
        scene = SamplerEngine(scenario, "rejection").sample(seed=4, max_iterations=20000)
        assert not scene.has_collisions()
        assert 0 < report.area_ratio <= 1.0 + 1e-9


class TestBatchResultAggregation:
    def test_generate_batch_aggregates_stats(self):
        with ScenarioBuilder(workspace=square_workspace(40.0)) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(In(CircularRegion((0.0, 0.0), 25.0)), width=1, height=1)
        scenario = builder.scenario()
        batch = scenario.generate_batch(6, seed=2)
        assert isinstance(batch, list)  # backwards compatible
        assert isinstance(batch, SceneBatch)
        assert len(batch) == 6
        assert batch.stats.scenes == 6
        assert batch.stats.draws == 6
        # last_stats now reflects the whole batch, not just the final scene.
        assert scenario.last_stats.iterations == batch.stats.combined().iterations
        assert scenario.last_stats.iterations >= 6
        assert batch.stats.acceptance_rate == pytest.approx(
            6 / batch.stats.total_iterations
        )
        breakdown = batch.stats.rejection_breakdown()
        assert sum(breakdown.values()) == batch.stats.total_rejections

    def test_failed_batch_still_reports_stats(self):
        # A RejectionError mid-batch must not discard the diagnostics of the
        # draws already made (including the failing one).
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((0.2, 0.2)), Facing(0.0))  # forced overlap: unsatisfiable
        scenario = builder.scenario()
        with pytest.raises(RejectionError):
            scenario.generate_batch(3, max_iterations=20, seed=0)
        assert scenario.last_stats is not None
        assert scenario.last_stats.iterations == 20
        assert scenario.last_stats.rejections_collision == 20
        # Failed draws are recorded but not counted as accepted scenes.
        # (generate_batch defaults to the vectorized strategy.)
        engine = scenario._engine_cache["vectorized"]
        assert engine.aggregate.draws == 1
        assert engine.aggregate.scenes == 0
        assert engine.aggregate.acceptance_rate == 0.0

    def test_generate_reuses_engine_per_strategy(self):
        scenario = containment_heavy_scenario(1)
        scenario.generate(seed=0, max_iterations=100000, strategy="vectorized")
        first_engine = scenario._engine_cache["vectorized"]
        scenario.generate(seed=1, max_iterations=100000, strategy="vectorized")
        assert scenario._engine_cache["vectorized"] is first_engine
        assert first_engine.aggregate.scenes == 2

    def test_by_strategy_rollup(self):
        engine = SamplerEngine(containment_heavy_scenario(1), "vectorized")
        engine.sample_batch(3, seed=0, max_iterations=100000)
        rollup = engine.aggregate.by_strategy()
        assert set(rollup) == {"vectorized"}
        assert rollup["vectorized"].iterations == engine.aggregate.total_iterations


class TestEngineEdgeCases:
    def test_empty_batch_returns_empty_scene_batch(self):
        engine = SamplerEngine(containment_heavy_scenario(1), "rejection")
        batch = engine.sample_batch(0, seed=0)
        assert isinstance(batch, SceneBatch)
        assert len(batch) == 0
        assert batch.stats.scenes == 0
        assert batch.stats.total_iterations == 0

    def test_empty_batch_under_every_builtin_strategy(self):
        for name in sorted(STRATEGIES):
            batch = containment_heavy_scenario(1).generate_batch(0, seed=0, strategy=name)
            assert list(batch) == []

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_max_iterations_one_exhausts_with_aggregated_stats(self, name):
        with ScenarioBuilder() as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((0.2, 0.2)), Facing(0.0))  # forced overlap: unsatisfiable
        scenario = builder.scenario()
        engine = SamplerEngine(scenario, name)
        with pytest.raises(RejectionError, match="1"):
            engine.sample(max_iterations=1, seed=0)
        # Exactly one candidate was examined, its rejection cause recorded,
        # and the failed draw still landed in the aggregate.
        assert engine.last_stats.iterations == 1
        assert engine.last_stats.total_rejections == 1
        assert engine.last_stats.rejections_collision == 1
        assert engine.aggregate.draws == 1
        assert engine.aggregate.scenes == 0
        assert engine.aggregate.total_iterations == 1


class TestVectorizedSampler:
    def test_registered_and_default_for_generate_batch(self):
        from repro.sampling import VectorizedSampler

        assert "vectorized" in STRATEGIES
        assert isinstance(make_strategy("vectorized"), VectorizedSampler)
        scenario = containment_heavy_scenario(1)
        scenario.generate_batch(2, seed=0, max_iterations=100000)
        assert "vectorized" in scenario._engine_cache

    def test_matches_rejection_without_soft_requirements(self):
        # No RNG draw separates block drawing from one-at-a-time rejection
        # unless a soft requirement rolls the RNG between candidates.
        source = scenarios.two_cars()
        via_rejection = scenarios.compile_scenario(source).generate(
            seed=21, max_iterations=20000, strategy="rejection"
        )
        via_vectorized = scenarios.compile_scenario(source).generate(
            seed=21, max_iterations=20000, strategy="vectorized"
        )
        assert scene_fingerprint(via_rejection) == scene_fingerprint(via_vectorized)

    def test_scenes_are_valid(self):
        engine = SamplerEngine(containment_heavy_scenario(2), "vectorized")
        batch = engine.sample_batch(5, seed=3, max_iterations=200000)
        for scene in batch:
            assert not scene.has_collisions()
            for scenic_object in scene.objects:
                assert scene.workspace.contains_object(scenic_object)

    def test_block_size_does_not_change_accepted_scene(self, monkeypatch):
        source = scenarios.two_cars()

        def fingerprint(block_size):
            monkeypatch.setattr(VectorizedSampler, "BLOCK_SIZE", block_size)
            scenario = scenarios.compile_scenario(source)
            engine = SamplerEngine(scenario, "vectorized")
            return scene_fingerprint(engine.sample(seed=17, max_iterations=20000))

        assert fingerprint(1) == fingerprint(64)

    def test_block_ramp_ignores_soft_requirements(self):
        """Blocks ramp 1, 2, 4, ..., 32 and stay at 32, whatever the scenario.

        A ``require[p]`` flips a fresh coin per examined candidate, in draw
        order, so the ramp is as valid under it as a fixed block.
        """
        from repro.core.pruning import prune_scenario

        expected = [1, 2, 4, 8, 16, 32, 32, 32, 32]
        plain = scenarios.compile_scenario(scenarios.two_cars())
        soft = scenarios.compile_scenario(
            scenarios.two_cars() + "require[0.5] ego.position.x <= 10\n"
        )
        pruned_soft = scenarios.compile_scenario(
            scenarios.two_cars() + "require[0.5] ego.position.x <= 10\n"
        )
        prune_scenario(pruned_soft)
        assert VectorizedSampler.BLOCK_SIZE == 32
        assert list(itertools.islice(VectorizedSampler()._block_sizes(), 9)) == expected
        for scenario in (plain, soft, pruned_soft):
            sampler = VectorizedSampler()
            sampler.bind(scenario)
            assert list(itertools.islice(sampler._block_sizes(), 9)) == expected

    def test_block_ramp_matches_fixed_blocks(self):
        """How draws are grouped into blocks cannot change the accepted candidate.

        Candidates come off one sequential RNG stream and are examined in
        draw order, so without soft requirements the ramp, blocks of 32
        and blocks of one (plain rejection) accept the same candidate after
        the same number of examined candidates.
        """

        from pathlib import Path

        from repro.language import compile_scenario

        class FixedBlocks(VectorizedSampler):
            def _block_sizes(self):
                return itertools.repeat(self.BLOCK_SIZE)

        program = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
        artifact = compile_scenario((program / "mars_bottleneck.scenic").read_text())

        def outcome(strategy):
            engine = SamplerEngine(artifact, strategy)
            scene = engine.sample(seed=20260729, max_iterations=20000)
            return scene_fingerprint(scene), engine.last_stats.iterations

        ramp = outcome("vectorized")
        assert ramp[1] > 1 + 2 + 4 + 8 + 16 + 32  # accepted past the ramp
        assert outcome(FixedBlocks()) == ramp
        assert outcome("rejection") == ramp

    def test_distribution_matches_rejection(self):
        # Both strategies must sample uniformly from the feasible region; in
        # this scenario that region is the whole workspace square, so mean
        # coordinates should be near 0 for both, over multi-scene batches
        # whose streams differ between the two.
        def mean_coordinate(strategy):
            engine = SamplerEngine(containment_heavy_scenario(2), strategy)
            batch = engine.sample_batch(40, seed=7, max_iterations=200000)
            coordinates = [
                coordinate
                for scene in batch
                for scenic_object in scene.non_ego_objects
                for coordinate in Vector.from_any(scenic_object.position)
            ]
            return sum(coordinates) / len(coordinates)

        # A 30-wide square has a standard deviation of ~8.66 per axis; with
        # 80 coordinates per strategy the means should sit well within +-3.
        assert abs(mean_coordinate("rejection")) < 3.0
        assert abs(mean_coordinate("vectorized")) < 3.0


class TestStrategyRegistry:
    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown sampling strategy"):
            make_strategy("nope")

    def test_builtin_strategies_registered(self):
        assert sorted(STRATEGIES) == ["rejection", "vectorized"]
        assert isinstance(make_strategy("rejection"), RejectionSampler)
        assert isinstance(make_strategy("vectorized"), VectorizedSampler)

    def test_custom_strategy_plugs_into_generate(self):
        """A strategy *instance* plugs in without joining :data:`STRATEGIES`."""

        class FirstCandidateSampler(RejectionSampler):
            """Accepts like rejection but records itself under its own name."""

            name = "test-first-candidate"

        scenario = containment_heavy_scenario(1)
        scene = scenario.generate(seed=0, max_iterations=100000, strategy=FirstCandidateSampler())
        assert scene is not None
        assert "test-first-candidate" not in STRATEGIES
        engine = SamplerEngine(scenario, FirstCandidateSampler())
        engine.sample(seed=0, max_iterations=100000)
        assert set(engine.aggregate.by_strategy()) == {"test-first-candidate"}

    def test_strategy_instance_with_options_rejected(self):
        with pytest.raises(TypeError):
            SamplerEngine(containment_heavy_scenario(1), RejectionSampler(), workers=2)


class TestStrategyRegistryEdgeCases:
    """Registry misuse and overwrite semantics (fuzz-oracle prerequisites)."""

    def test_unknown_name_error_lists_known_strategies(self):
        with pytest.raises(ValueError) as info:
            make_strategy("definitely-not-a-strategy")
        message = str(info.value)
        for name in ("rejection", "vectorized"):
            assert name in message

    def test_unknown_options_raise_type_error(self):
        with pytest.raises(TypeError):
            make_strategy("rejection", bogus_option=1)
        with pytest.raises(TypeError):
            make_strategy("vectorized", block_size=8, nope=True)


#: Statically infeasible: the analysis proves that no relative heading is
#: both within 10 deg and at least 150 deg.
PROVABLY_INFEASIBLE = (
    "import gtaLib\nego = EgoCar\nc = Car\n"
    "require abs(relative heading of c) <= 10 deg\n"
    "require abs(relative heading of c) >= 150 deg\n"
)
#: Infeasible too, but the analysis cannot prove it: only sampling finds out.
UNPROVABLY_INFEASIBLE = "ego = Object at 0 @ 0\nrequire ego.position.x > 1\n"


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize(
    "program", [PROVABLY_INFEASIBLE, UNPROVABLY_INFEASIBLE], ids=["provable", "unprovable"]
)
def test_infeasible_program_versus_exhausted_budget(program, strategy):
    """No strategy analyses the program: every one exhausts the budget.

    Proving infeasibility is the pruning pass's job
    (:func:`~repro.core.pruning.prune_scenario` raises
    :class:`InfeasibleScenarioError` on the provable program).  Sampling
    draws the whole budget of 50 candidates and raises
    :class:`RejectionError`.
    """
    from repro.language import compile_scenario

    engine = SamplerEngine(compile_scenario(program, cache=None), strategy)
    with pytest.raises(RejectionError):
        engine.sample(seed=0, max_iterations=50)
    assert engine.last_stats.iterations == 50


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_reject_sample_in_requirement_is_a_sampling_rejection(strategy):
    """A ``RejectSample`` raised inside a ``require`` rejects that candidate only.

    Every strategy runs the same check chain, so the candidate is booked as
    a sampling rejection and the loop moves on — in the Python API, and in
    a Scenic program whose requirement samples a point from an empty region
    (which exhausts the budget with :class:`RejectionError`).
    """
    from repro.core.errors import RejectSample
    from repro.language import compile_scenario

    calls = []

    def first_call_rejects(resolve):
        calls.append(1)
        if len(calls) == 1:
            raise RejectSample("planted")
        return True

    with ScenarioBuilder() as builder:
        builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        builder.require(first_call_rejects)
    engine = SamplerEngine(builder.scenario(), strategy)
    engine.sample(seed=0, max_iterations=10)
    assert engine.last_stats.rejections_sampling == 1
    assert engine.last_stats.iterations == 2

    program = (
        "import gtaLib\nego = Car\nspot = Point in road.difference(road)\n"
        "require (distance to spot) > 0\n"
    )
    engine = SamplerEngine(compile_scenario(program, cache=None), strategy)
    with pytest.raises(RejectionError):
        engine.sample(seed=0, max_iterations=5)
    assert engine.last_stats.iterations == 5


# ---------------------------------------------------------------------------
# The one check chain: each rejected candidate is booked once, under the
# first check it failed
# ---------------------------------------------------------------------------

#: The chain's causes, in chain order (a draw-time ``RejectSample`` first).
CHAIN_CAUSES = ("sampling", "containment", "collision", "visibility", "user")


def rejection_counters(stats):
    return {cause: getattr(stats, "rejections_" + cause) for cause in CHAIN_CAUSES}


def single_cause_scenario(cause):
    """A feasible scenario whose candidates can fail the check *cause* and no other."""
    workspace = square_workspace(30.0) if cause == "containment" else None
    with ScenarioBuilder(workspace=workspace) as builder:
        builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        if cause == "sampling":
            # A ring drawn in one attempt: a draw landing in the hole raises
            # RejectSample.
            ring = DifferenceRegion(
                CircularRegion((0.0, 20.0), 5.0), CircularRegion((0.0, 20.0), 3.0),
                max_attempts=1,
            )
            Object(In(ring), requireVisible=False)
        elif cause == "containment":
            # Reaches past the workspace edge at x = 15, never near the ego.
            Object(In(CircularRegion((10.0, 0.0), 8.0)), requireVisible=False)
        elif cause == "collision":
            Object(In(CircularRegion((0.0, 0.0), 2.0)), requireVisible=False)
        elif cause == "visibility":
            # Its far side lies beyond the ego's 50 m view distance.
            Object(In(CircularRegion((0.0, 60.0), 20.0)))
        else:
            other = Object(In(CircularRegion((0.0, 20.0), 5.0)), requireVisible=False)
            builder.require(lambda resolve: resolve(other).position.x >= 0)
    return builder.scenario()


@pytest.mark.parametrize("cause", CHAIN_CAUSES)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_each_cause_is_booked_under_its_own_counter(strategy, cause):
    """A candidate that fails one check is booked under that check, exactly once.

    Every rejection is an examined candidate that was not accepted, so the
    counters sum to ``iterations - scenes`` under every strategy.
    """
    engine = SamplerEngine(single_cause_scenario(cause), strategy)
    batch = engine.sample_batch(20, seed=3, max_iterations=10000)
    stats = batch.stats.combined()
    counters = rejection_counters(stats)
    assert counters[cause] > 0
    assert {name: count for name, count in counters.items() if name != cause} == {
        name: 0 for name in CHAIN_CAUSES if name != cause
    }
    assert stats.total_rejections == stats.iterations - len(batch)


def double_failure_scenario(first, second):
    """An infeasible scenario whose every candidate fails checks *first* and *second*."""
    workspace = square_workspace(30.0) if "containment" in (first, second) else None
    with ScenarioBuilder(workspace=workspace) as builder:
        builder.set_ego(Object(At((0, 0)), Facing(0.0)))
        if (first, second) == ("sampling", "containment"):
            Object(In(nowhere), requireVisible=False)
            Object(At((100, 0)), requireVisible=False)
        elif (first, second) == ("containment", "collision"):
            Object(At((100, 0)), requireVisible=False)
            Object(At((100.5, 0)), requireVisible=False)
        elif (first, second) == ("collision", "visibility"):
            Object(At((0, 100)))
            Object(At((0, 100.5)))
        else:
            Object(At((0, 100)))
            builder.require(False)
    return builder.scenario()


@pytest.mark.parametrize(
    "first,second",
    list(zip(CHAIN_CAUSES, CHAIN_CAUSES[1:])),
    ids=lambda cause: cause,
)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_chain_books_the_first_failing_check(strategy, first, second):
    """The chain runs sampling → containment → collision → visibility → ``require``.

    A candidate failing two adjacent checks is booked under the earlier
    one only, whichever strategy examines it.
    """
    engine = SamplerEngine(double_failure_scenario(first, second), strategy)
    with pytest.raises(RejectionError):
        engine.sample(seed=0, max_iterations=5)
    stats = engine.last_stats
    assert stats.iterations == 5
    counters = rejection_counters(stats)
    assert counters[first] == stats.iterations
    assert stats.total_rejections == counters[first]


# ---------------------------------------------------------------------------
# One scene from a fresh RNG: vectorized draws rejection's scene
# ---------------------------------------------------------------------------


def _plain_corpus_params():
    """Every corpus program without a soft requirement; the first of each bucket is tier-1.

    A ``require[p]`` flips its coins after a whole ``vectorized`` block is
    drawn, so only programs without one share rejection's stream.
    """
    from repro.evals.corpus import Manifest

    buckets = {}
    for entry in Manifest.load():
        if "soft-require" not in entry.features:
            buckets.setdefault((entry.world, entry.difficulty), []).append(entry)
    params = []
    for _, bucket in sorted(buckets.items()):
        for position, entry in enumerate(bucket):
            marks = [] if position == 0 else [pytest.mark.slow]
            params.append(pytest.param(entry, marks=marks, id=entry.id))
    return params


@pytest.mark.parametrize("entry", _plain_corpus_params())
def test_vectorized_draws_rejections_scene_from_a_fresh_rng(entry):
    """The service's per-scene seeds give the same scene under both strategies.

    Compared by scene record and by examined candidates, exhaustion
    included: the ramp starts at one candidate, so an easy scene costs
    ``vectorized`` no draw that ``rejection`` does not make.
    """
    from repro.core.errors import RejectionError
    from repro.fuzz.oracles import scene_record
    from repro.language import compile_scenario
    from repro.service.protocol import derive_scene_seeds

    artifact = compile_scenario(entry.source())
    assert not any(requirement.is_soft for requirement in artifact.scenario().requirements)
    for seed in derive_scene_seeds(777, 1 if entry.difficulty == "hard" else 4):
        outcomes = {}
        for strategy in sorted(STRATEGIES):
            engine = SamplerEngine(artifact, strategy)
            try:
                record = scene_record(engine.sample(seed=seed, max_iterations=3000))
            except RejectionError:
                record = None
            outcomes[strategy] = (record, engine.last_stats.iterations)
        assert outcomes["vectorized"] == outcomes["rejection"], (entry.id, seed)

