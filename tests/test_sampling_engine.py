"""Tests for scene sampling (``repro/sampling/``) through ``Scenario.generate``."""

import itertools
import random

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
    AggregateStats,
    RejectionSampler,
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
    """``Scenario.generate`` draws what the rejection strategy's own loop draws."""

    @pytest.mark.parametrize("name", ["two_cars", "overlapping"])
    def test_generate_matches_engine_rejection(self, name):
        source = scenarios.GALLERY[name]
        via_scenario = scenarios.compile_scenario(source).generate(seed=42, max_iterations=20000)
        via_strategy, _ = RejectionSampler().sample(
            scenarios.compile_scenario(source), 20000, random.Random(42)
        )
        assert scene_fingerprint(via_scenario) == scene_fingerprint(via_strategy)

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
        with pytest.raises(RejectionError):
            scenario.generate(max_iterations=25, seed=0)
        assert scenario.last_stats.iterations == 25
        assert scenario.last_stats.rejections_collision == 25


class TestPruneThenSample:
    def test_pruned_scenario_keeps_scenes_valid(self):
        from repro.core.pruning import prune_scenario

        scenario = scenarios.compile_scenario(scenarios.two_cars())
        report = prune_scenario(scenario)
        scene = scenario.generate(seed=4, max_iterations=20000)
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
        # Failed draws are recorded but not counted as accepted scenes, in
        # the aggregate generate_batch folds every draw into (it defaults
        # to the vectorized strategy).
        aggregate = AggregateStats()
        with pytest.raises(RejectionError):
            VectorizedSampler().sample_batch(scenario, 3, 20, random.Random(0), aggregate)
        assert aggregate.draws == 1
        assert aggregate.scenes == 0
        assert aggregate.acceptance_rate == 0.0
        assert aggregate.combined().iterations == 20


class TestEngineEdgeCases:
    def test_empty_batch_returns_empty_scene_batch(self):
        batch = containment_heavy_scenario(1).generate_batch(0, seed=0, strategy="rejection")
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
        with pytest.raises(RejectionError, match="1"):
            scenario.generate_batch(2, max_iterations=1, seed=0, strategy=name)
        # Exactly one candidate was examined, its rejection cause recorded,
        # and the failed draw still landed in the batch-wide stats.
        assert scenario.last_stats.iterations == 1
        assert scenario.last_stats.total_rejections == 1
        assert scenario.last_stats.rejections_collision == 1


class TestVectorizedSampler:
    def test_registered_and_default_for_generate_batch(self, monkeypatch):
        assert "vectorized" in STRATEGIES
        assert isinstance(make_strategy("vectorized"), VectorizedSampler)
        drawn_by = []
        sample = VectorizedSampler.sample

        def spy(self, *args):
            drawn_by.append(self.name)
            return sample(self, *args)

        monkeypatch.setattr(VectorizedSampler, "sample", spy)
        containment_heavy_scenario(1).generate_batch(2, seed=0, max_iterations=100000)
        assert drawn_by == ["vectorized", "vectorized"]

    def test_matches_rejection_without_soft_requirements(self):
        # No RNG draw separates block drawing from one-at-a-time rejection:
        # only a candidate's draw reads the RNG.
        source = scenarios.two_cars()
        via_rejection = scenarios.compile_scenario(source).generate(
            seed=21, max_iterations=20000, strategy="rejection"
        )
        via_vectorized = scenarios.compile_scenario(source).generate(
            seed=21, max_iterations=20000, strategy="vectorized"
        )
        assert scene_fingerprint(via_rejection) == scene_fingerprint(via_vectorized)

    def test_scenes_are_valid(self):
        batch = containment_heavy_scenario(2).generate_batch(
            5, seed=3, max_iterations=200000, strategy="vectorized"
        )
        for scene in batch:
            assert not scene.has_collisions()
            for scenic_object in scene.objects:
                assert scene.workspace.contains_object(scenic_object)

    def test_block_size_does_not_change_accepted_scene(self, monkeypatch):
        source = scenarios.two_cars()

        def fingerprint(block_size):
            monkeypatch.setattr(VectorizedSampler, "BLOCK_SIZE", block_size)
            scenario = scenarios.compile_scenario(source)
            return scene_fingerprint(
                scenario.generate(seed=17, max_iterations=20000, strategy="vectorized")
            )

        assert fingerprint(1) == fingerprint(64)

    def test_block_ramp_ignores_soft_requirements(self):
        """Blocks ramp 1, 2, 4, ..., 128 and stay at 128, whatever the scenario.

        A ``require[p]`` draws a fresh coin with each candidate, so the ramp
        is as valid under it as a fixed block.
        """
        from repro.core.pruning import prune_scenario

        expected = [1, 2, 4, 8, 16, 32, 64, 128, 128]
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
        draw order, so the ramp, blocks of 32 and blocks of one (plain
        rejection) accept the same candidate after the same number of
        examined candidates.
        """

        from pathlib import Path

        from repro.language import compile_scenario

        class FixedBlocks(VectorizedSampler):
            def _block_sizes(self):
                return itertools.repeat(self.BLOCK_SIZE)

        program = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
        artifact = compile_scenario((program / "mars_bottleneck.scenic").read_text())

        def outcome(strategy):
            scenario = artifact.scenario()
            scene = scenario.generate(seed=20260729, max_iterations=20000, strategy=strategy)
            return scene_fingerprint(scene), scenario.last_stats.iterations

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
            batch = containment_heavy_scenario(2).generate_batch(
                40, seed=7, max_iterations=200000, strategy=strategy
            )
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

        class CountingSampler(RejectionSampler):
            """Samples like rejection and counts its draws."""

            name = "test-counting"

            def __init__(self):
                self.draws = 0

            def sample(self, scenario, max_iterations, rng):
                self.draws += 1
                return super().sample(scenario, max_iterations, rng)

        planted = CountingSampler()
        scenario = containment_heavy_scenario(1)
        scene = scenario.generate(seed=0, max_iterations=100000, strategy=planted)
        assert scene is not None
        batch = scenario.generate_batch(2, seed=0, max_iterations=100000, strategy=planted)
        assert len(batch) == 2
        assert planted.draws == 3
        assert "test-counting" not in STRATEGIES

    def test_strategy_instance_with_options_rejected(self):
        with pytest.raises(TypeError):
            RejectionSampler(workers=2)


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

    scenario = compile_scenario(program, cache=None).scenario()
    with pytest.raises(RejectionError):
        scenario.generate(seed=0, max_iterations=50, strategy=strategy)
    assert scenario.last_stats.iterations == 50


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
    scenario = builder.scenario()
    scenario.generate(seed=0, max_iterations=10, strategy=strategy)
    assert scenario.last_stats.rejections_sampling == 1
    assert scenario.last_stats.iterations == 2

    program = (
        "import gtaLib\nego = Car\nspot = Point in road.difference(road)\n"
        "require (distance to spot) > 0\n"
    )
    scenario = compile_scenario(program, cache=None).scenario()
    with pytest.raises(RejectionError):
        scenario.generate(seed=0, max_iterations=5, strategy=strategy)
    assert scenario.last_stats.iterations == 5


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
    batch = single_cause_scenario(cause).generate_batch(
        20, seed=3, max_iterations=10000, strategy=strategy
    )
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
    scenario = double_failure_scenario(first, second)
    with pytest.raises(RejectionError):
        scenario.generate(seed=0, max_iterations=5, strategy=strategy)
    stats = scenario.last_stats
    assert stats.iterations == 5
    counters = rejection_counters(stats)
    assert counters[first] == stats.iterations
    assert stats.total_rejections == counters[first]


# ---------------------------------------------------------------------------
# One scene from a fresh RNG: vectorized draws rejection's scene
# ---------------------------------------------------------------------------


def _first_scene(scenario, strategy, rng):
    """The first scene's record and its examined candidates, exhaustion included."""
    from repro.core.errors import RejectionError
    from repro.fuzz.oracles import scene_record

    try:
        record = scene_record(scenario.generate(rng=rng, max_iterations=3000, strategy=strategy))
    except RejectionError:
        record = None
    return record, scenario.last_stats.iterations


def _plain_corpus_params():
    """Every corpus program without a soft requirement; the first of each bucket is tier-1.

    The ``require[p]`` programs have a test of their own below.
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
    from repro.language import compile_scenario
    from repro.service.protocol import derive_scene_seeds

    scenario = compile_scenario(entry.source()).scenario()
    assert not any(requirement.is_soft for requirement in scenario.requirements)
    for seed in derive_scene_seeds(777, 1 if entry.difficulty == "hard" else 4):
        outcomes = {
            strategy: _first_scene(scenario, strategy, random.Random(seed))
            for strategy in sorted(STRATEGIES)
        }
        assert outcomes["vectorized"] == outcomes["rejection"], (entry.id, seed)


@pytest.mark.parametrize(
    "requirement", ["require (0, 1) < 0.3", "require[0.5] (0, 1) < 0.3"], ids=["own-value", "soft"]
)
def test_a_requires_values_do_not_split_the_strategies(requirement):
    """The uniform the condition reaches, and the soft twin's coin, are drawn with the candidate.

    So ``vectorized``, which examines a block after drawing all of it, reads
    them where ``rejection`` does: the same first scene and the same count of
    examined candidates from ``Random(seed)`` at every seed.
    """
    from repro.language import compile_scenario

    source = "ego = Object at (0, 0) @ (0, 0)\nObject at (-20, 20) @ (-20, 20)\n"
    scenario = compile_scenario(source + requirement + "\n").scenario()
    for seed in range(200):
        assert _first_scene(scenario, "vectorized", random.Random(seed)) == _first_scene(
            scenario, "rejection", random.Random(seed)
        ), seed


def _soft_corpus_params():
    from repro.evals.corpus import Manifest

    return [
        pytest.param(entry, id=entry.id)
        for entry in Manifest.load()
        if "soft-require" in entry.features
    ]


@pytest.mark.parametrize("entry", _soft_corpus_params())
def test_vectorized_draws_rejections_scene_under_require_p(entry):
    """Every corpus ``require[p]`` program: the same first scene at seeds 1-3, coins included."""
    from repro.language import compile_scenario

    scenario = compile_scenario(entry.source()).scenario()
    assert any(requirement.is_soft for requirement in scenario.requirements)
    for seed in (1, 2, 3):
        assert _first_scene(scenario, "vectorized", random.Random(seed)) == _first_scene(
            scenario, "rejection", random.Random(seed)
        ), (entry.id, seed)

