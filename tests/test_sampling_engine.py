"""Tests for the pluggable scene-sampling engine (``repro/sampling/``)."""

import pytest

from repro.core import (
    At,
    Facing,
    In,
    Object,
    Range,
    RejectionError,
    ScenarioBuilder,
    Vector,
    Workspace,
)
from repro.core.regions import CircularRegion, DifferenceRegion, PolygonalRegion, nowhere
from repro.experiments import scenarios
from repro.geometry.polygon import Polygon
from repro.sampling import (
    BatchSampler,
    DependencyGraph,
    RejectionSampler,
    SamplerEngine,
    SceneBatch,
    SamplingStrategy,
    STRATEGIES,
    make_strategy,
    register_strategy,
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
        scene = scenario.generate(seed=0, max_iterations=100000, strategy="batch")
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


class TestDependencyGraph:
    def test_independent_objects_get_separate_groups(self):
        with ScenarioBuilder(workspace=square_workspace(100.0)) as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            first = Object(At((Range(3, 6), 3)), width=1, height=1, requireVisible=False)
            second = Object(At((Range(-6, -3), -3)), width=1, height=1, requireVisible=False)
        graph = DependencyGraph(builder.scenario())
        assert graph.independent(first, second)
        assert graph.independent(ego, first)
        assert ego in graph.static_objects

    def test_shared_distribution_merges_groups(self):
        shared = Range(0, 5)
        with ScenarioBuilder(workspace=square_workspace(100.0)) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            first = Object(At((shared, 10)), width=1, height=1, requireVisible=False)
            second = Object(At((shared + 2, -10)), width=1, height=1, requireVisible=False)
        graph = DependencyGraph(builder.scenario())
        assert not graph.independent(first, second)
        assert graph.group_of(first) is graph.group_of(second)

    def test_mutated_static_object_is_not_static(self):
        with ScenarioBuilder(workspace=square_workspace(100.0)) as builder:
            ego = builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            builder.mutate(ego, scale=1.0)
        graph = DependencyGraph(builder.scenario())
        assert ego not in graph.static_objects

    def test_gallery_scenario_couples_cars_through_the_ego(self):
        # Both cars are placed in the randomly-positioned ego's visible
        # region, so the whole scenario is one dependent group.
        graph = DependencyGraph(scenarios.compile_scenario(scenarios.two_cars()))
        assert len(graph.groups) == 1


class TestBatchSampler:
    def test_scenes_are_valid_and_candidates_collapse(self):
        rejection_engine = SamplerEngine(containment_heavy_scenario(), "rejection")
        batch_engine = SamplerEngine(containment_heavy_scenario(), "batch")
        rejection_batch = rejection_engine.sample_batch(5, seed=0, max_iterations=200000)
        partial_batch = batch_engine.sample_batch(5, seed=0, max_iterations=200000)
        for scene in partial_batch:
            assert not scene.has_collisions()
            for scenic_object in scene.objects:
                assert scene.workspace.contains_object(scenic_object)
        # Partial resampling needs far fewer full candidate scenes.
        assert (
            partial_batch.stats.total_iterations * 5
            < rejection_batch.stats.total_iterations
        )
        assert partial_batch.stats.combined().component_redraws > 0

    def test_distribution_matches_rejection(self):
        # Both strategies must sample uniformly from the feasible region; in
        # this scenario that region is the whole workspace square, so mean
        # coordinates should be near 0 for both.
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
        assert abs(mean_coordinate("batch")) < 3.0

    def test_unsatisfiable_scenario_still_raises(self):
        with ScenarioBuilder(workspace=square_workspace(2.0)) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(At((30, 30)), width=1, height=1, requireVisible=False)  # outside, static
        with pytest.raises(RejectionError):
            SamplerEngine(builder.scenario(), "batch").sample(max_iterations=10, seed=0)


    def test_group_gives_up_after_the_local_redraw_cap(self):
        """A group that never holds is redrawn ``LOCAL_REDRAW_CAP - 1`` times per candidate.

        Each failed group draw is booked under its cause, and the last one
        rejects the candidate as a whole.
        """
        with ScenarioBuilder(workspace=square_workspace(30.0)) as builder:
            builder.set_ego(Object(At((0, 0)), Facing(0.0)))
            Object(In(CircularRegion((100.0, 0.0), 1.0)), requireVisible=False)
        engine = SamplerEngine(builder.scenario(), "batch")
        with pytest.raises(RejectionError):
            engine.sample(max_iterations=2, seed=0)
        stats = engine.last_stats
        cap = BatchSampler.LOCAL_REDRAW_CAP
        assert stats.iterations == 2
        assert stats.component_redraws == 2 * (cap - 1)
        assert stats.rejections_containment == stats.total_rejections == 2 * cap


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
        scenario.generate(seed=0, max_iterations=100000, strategy="batch")
        first_engine = scenario._engine_cache["batch"]
        scenario.generate(seed=1, max_iterations=100000, strategy="batch")
        assert scenario._engine_cache["batch"] is first_engine
        assert first_engine.aggregate.scenes == 2

    def test_by_strategy_rollup(self):
        engine = SamplerEngine(containment_heavy_scenario(1), "batch")
        engine.sample_batch(3, seed=0, max_iterations=100000)
        rollup = engine.aggregate.by_strategy()
        assert set(rollup) == {"batch"}
        assert rollup["batch"].iterations == engine.aggregate.total_iterations


class TestEngineEdgeCases:
    def test_empty_batch_returns_empty_scene_batch(self):
        engine = SamplerEngine(containment_heavy_scenario(1), "rejection")
        batch = engine.sample_batch(0, seed=0)
        assert isinstance(batch, SceneBatch)
        assert len(batch) == 0
        assert batch.stats.scenes == 0
        assert batch.stats.total_iterations == 0

    def test_empty_batch_under_every_builtin_strategy(self):
        for name in ("rejection", "batch", "vectorized"):
            batch = containment_heavy_scenario(1).generate_batch(0, seed=0, strategy=name)
            assert list(batch) == []

    @pytest.mark.parametrize("name", ["rejection", "batch", "vectorized"])
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
        from repro.sampling import VectorizedSampler

        source = scenarios.two_cars()

        def fingerprint(block_size):
            monkeypatch.setattr(VectorizedSampler, "BLOCK_SIZE", block_size)
            monkeypatch.setattr(VectorizedSampler, "MIN_BLOCK", min(block_size, 4))
            scenario = scenarios.compile_scenario(source)
            engine = SamplerEngine(scenario, "vectorized")
            return scene_fingerprint(engine.sample(seed=17, max_iterations=20000))

        assert fingerprint(1) == fingerprint(64)

    def test_adaptive_ramp_gated_on_soft_requirements(self):
        # The adaptive block ramp is only sound when no soft requirement
        # rolls the shared RNG between candidates: a ``require[p]`` must
        # force the legacy fixed-block schedule.
        from repro.core.pruning import prune_scenario
        from repro.sampling import VectorizedSampler

        plain = scenarios.compile_scenario(scenarios.two_cars())
        sampler = VectorizedSampler()
        sampler.bind(plain)
        assert sampler._adaptive is True

        soft = scenarios.compile_scenario(
            scenarios.two_cars() + "require[0.5] ego.position.x <= 10\n"
        )
        sampler = VectorizedSampler()
        sampler.bind(soft)
        assert sampler._adaptive is False

        # Pruning first leaves the soft requirement, and so the gate, intact.
        prune_scenario(soft)
        sampler = VectorizedSampler()
        sampler.bind(soft)
        assert sampler._adaptive is False

    def test_adaptive_ramp_matches_fixed_block(self, monkeypatch):
        # Candidates come off one sequential RNG stream in draw order, so
        # how draws are grouped into rounds cannot change which candidate
        # is accepted: any ramp == the full fixed block.
        from repro.sampling import VectorizedSampler

        source = scenarios.two_cars()

        def fingerprint(block_size, min_block):
            monkeypatch.setattr(VectorizedSampler, "BLOCK_SIZE", block_size)
            monkeypatch.setattr(VectorizedSampler, "MIN_BLOCK", min_block)
            scenario = scenarios.compile_scenario(source)
            engine = SamplerEngine(scenario, "vectorized")
            return scene_fingerprint(engine.sample(seed=29, max_iterations=20000))

        fixed = fingerprint(block_size=32, min_block=32)  # ramp disabled by floor
        assert fingerprint(block_size=32, min_block=1) == fixed
        assert fingerprint(block_size=64, min_block=2) == fixed


class TestStrategyRegistry:
    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown sampling strategy"):
            make_strategy("nope")

    def test_builtin_strategies_registered(self):
        from repro.sampling import VectorizedSampler

        assert sorted(STRATEGIES) == ["batch", "rejection", "vectorized"]
        assert isinstance(make_strategy("rejection"), RejectionSampler)
        assert isinstance(make_strategy("batch"), BatchSampler)
        assert isinstance(make_strategy("vectorized"), VectorizedSampler)

    def test_custom_strategy_plugs_into_generate(self):
        @register_strategy
        class FirstCandidateSampler(RejectionSampler):
            """Accepts like rejection but records itself under its own name."""

            name = "test-first-candidate"

        try:
            scenario = containment_heavy_scenario(1)
            scene = scenario.generate(seed=0, max_iterations=100000, strategy="test-first-candidate")
            assert scene is not None
        finally:
            STRATEGIES.pop("test-first-candidate", None)

    def test_strategy_instance_with_options_rejected(self):
        with pytest.raises(TypeError):
            SamplerEngine(containment_heavy_scenario(1), RejectionSampler(), workers=2)


class TestStrategyRegistryEdgeCases:
    """Registry misuse and overwrite semantics (fuzz-oracle prerequisites)."""

    def test_unknown_name_error_lists_known_strategies(self):
        with pytest.raises(ValueError) as info:
            make_strategy("definitely-not-a-strategy")
        message = str(info.value)
        for name in ("rejection", "batch", "vectorized"):
            assert name in message

    def test_unknown_options_raise_type_error(self):
        with pytest.raises(TypeError):
            make_strategy("rejection", bogus_option=1)
        with pytest.raises(TypeError):
            make_strategy("vectorized", block_size=8, nope=True)

    def test_register_strategy_overwrites_same_name(self):
        original = STRATEGIES["rejection"]

        @register_strategy
        class ShadowingSampler(RejectionSampler):
            name = "rejection"

        try:
            # Latest registration wins, and the engine resolves through the
            # live registry (not a snapshot taken at import time).
            assert STRATEGIES["rejection"] is ShadowingSampler
            assert isinstance(make_strategy("rejection"), ShadowingSampler)
            engine = SamplerEngine(containment_heavy_scenario(1), "rejection")
            assert isinstance(engine.strategy, ShadowingSampler)
        finally:
            STRATEGIES["rejection"] = original
        assert isinstance(make_strategy("rejection"), original)

    def test_register_strategy_returns_class_for_decorator_use(self):
        class Plug(RejectionSampler):
            name = "test-plug"

        try:
            assert register_strategy(Plug) is Plug
            assert STRATEGIES["test-plug"] is Plug
        finally:
            STRATEGIES.pop("test-plug", None)


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

    Every rejection is either an examined candidate that was not accepted
    or one of ``batch``'s local group redraws, so the counters sum to
    ``iterations - scenes + component_redraws`` under every strategy.
    """
    engine = SamplerEngine(single_cause_scenario(cause), strategy)
    batch = engine.sample_batch(20, seed=3, max_iterations=10000)
    stats = batch.stats.combined()
    counters = rejection_counters(stats)
    assert counters[cause] > 0
    assert {name: count for name, count in counters.items() if name != cause} == {
        name: 0 for name in CHAIN_CAUSES if name != cause
    }
    assert stats.total_rejections == stats.iterations - len(batch) + stats.component_redraws
    if strategy != "batch":
        assert stats.component_redraws == 0


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
    assert counters[first] == stats.iterations + stats.component_redraws
    assert stats.total_rejections == counters[first]
