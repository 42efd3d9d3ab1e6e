"""Unit tests for the probabilistic core (Table 1 distributions and derived values)."""

import gc
import math
import random
from pathlib import Path

import pytest

from repro.core.distributions import (
    Discrete,
    Distribution,
    FunctionDistribution,
    Normal,
    OperatorDistribution,
    Options,
    Range,
    Sample,
    TruncatedNormal,
    Uniform,
    concretize,
    distribution_function,
    make_random_vector,
    needs_sampling,
    option_index,
    resample,
    supporting_interval,
)
from repro.core.errors import ScenicError
from repro.core.objects import Constructible
from repro.core.program import current_program
from repro.core.pruning import prune_scenario
from repro.core.vectors import Vector
from repro.evals.corpus import Manifest
from repro.fuzz.oracles import check_planned_draws, run_oracles
from repro.language import compile_scenario, scenario_from_string

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
CORPUS = Manifest.load()
#: The first program of every (world, difficulty) bucket: 12 programs.
PLAN_SLICE = [bucket[0] for _, bucket in sorted(CORPUS.by_bucket().items())]


def draw(value, seed=0):
    return concretize(value, Sample(random.Random(seed)))


class TestPrimitives:
    def test_range_samples_within_interval(self, rng):
        distribution = Range(2.0, 5.0)
        for _ in range(100):
            value = distribution.sample(rng)
            assert 2.0 <= value <= 5.0

    def test_range_support_interval(self):
        assert supporting_interval(Range(2, 5)) == (2, 5)
        assert supporting_interval(3.0) == (3.0, 3.0)

    def test_normal_mean(self, rng):
        distribution = Normal(10.0, 0.5)
        values = [distribution.sample(rng) for _ in range(500)]
        assert sum(values) / len(values) == pytest.approx(10.0, abs=0.2)

    def test_truncated_normal_respects_bounds(self, rng):
        distribution = TruncatedNormal(0.0, 5.0, -1.0, 1.0)
        for _ in range(100):
            assert -1.0 <= distribution.sample(rng) <= 1.0

    def test_uniform_options(self, rng):
        distribution = Uniform("a", "b", "c")
        seen = {distribution.sample(rng) for _ in range(200)}
        assert seen == {"a", "b", "c"}

    def test_discrete_weights(self, rng):
        distribution = Discrete({"heads": 3.0, "tails": 1.0})
        values = [distribution.sample(rng) for _ in range(2000)]
        heads_fraction = values.count("heads") / len(values)
        assert 0.68 < heads_fraction < 0.82

    def test_empty_options_rejected(self):
        with pytest.raises(ScenicError):
            Options([])
        with pytest.raises(ScenicError):
            Discrete({})

    @staticmethod
    def linear_scan(cumulative, target):
        """The option search ``Options`` used before bisection."""
        for index, threshold in enumerate(cumulative):
            if target <= threshold:
                return index
        return len(cumulative) - 1

    def test_option_index_bisects_as_the_linear_scan_picks(self):
        rng = random.Random(5)
        for size in (1, 2, 9, 13, 40):
            weights = [rng.choice([0.0, 0.5, 1.0, rng.uniform(0.01, 9.0)]) for _ in range(size)]
            weights[-1] = weights[-1] or 1.0
            cumulative = Options(dict(enumerate(weights)))._cumulative
            targets = [rng.random() * cumulative[-1] for _ in range(300)]
            targets += list(cumulative) + [0.0, cumulative[-1], cumulative[-1] * (1 + 1e-12)]
            for target in targets:
                assert option_index(cumulative, target) == self.linear_scan(cumulative, target)
        assert option_index([0.2, 0.7, 1.0], 1.0000000000000002) == 2

    def test_options_draw_the_option_the_linear_scan_picks(self):
        class FixedDraw:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        node = Discrete({"a": 1.0, "b": 0.0, "c": 2.0, "d": 3.0})
        values = node._dependencies[0]
        for u in [0.0, 1 / 6, 0.5, 0.5 + 1e-16, 0.999999, 1 / 3, 0.49]:
            expected = values[self.linear_scan(node._cumulative, u * node._cumulative[-1])]
            assert node.sample_given([values], FixedDraw(u)) == expected


class TestDerivedValues:
    def test_arithmetic_on_distributions(self, rng):
        value = Range(0.0, 1.0) * 10 + 5
        assert isinstance(value, Distribution)
        for _ in range(50):
            sample = value.sample(rng)
            assert 5.0 <= sample <= 15.0

    def test_comparisons_build_random_booleans(self, rng):
        condition = Range(0.0, 1.0) < 2.0
        assert isinstance(condition, OperatorDistribution)
        assert condition.sample(rng) is True

    def test_branching_on_random_value_is_an_error(self):
        with pytest.raises(ScenicError):
            if Range(0, 1):
                pass

    def test_shared_subexpressions_sampled_once(self):
        # The paper: ``x = (0, 1); y = x @ x`` lies on the diagonal.
        x = Range(0.0, 1.0)
        y = make_random_vector(x, x)
        for seed in range(20):
            vector = draw(y, seed)
            assert vector.x == pytest.approx(vector.y)

    def test_resample_draws_independently(self):
        x = Range(0.0, 1.0)
        y = resample(x)
        sample = Sample(random.Random(7))
        assert concretize(x, sample) != pytest.approx(concretize(y, sample))

    def test_resample_of_constant_is_identity(self):
        assert resample(5.0) == 5.0

    def test_attribute_access_on_random_value(self, rng):
        choice = Uniform(Vector(1, 2), Vector(3, 4))
        xs = {choice.x.sample(rng) for _ in range(100)}
        assert xs <= {1.0, 3.0}

    def test_function_distribution(self, rng):
        lifted = distribution_function(math.hypot)
        value = lifted(Range(3, 3), 4.0)
        assert isinstance(value, FunctionDistribution)
        assert value.sample(rng) == pytest.approx(5.0)

    def test_distribution_function_immediate_when_concrete(self):
        lifted = distribution_function(math.hypot)
        assert lifted(3.0, 4.0) == pytest.approx(5.0)

    def test_support_interval_of_sums_and_products(self):
        interval = supporting_interval(Range(1, 2) + Range(3, 4))
        assert interval == (4, 6)
        interval = supporting_interval(Range(1, 2) * 2)
        assert interval == (2, 4)
        low, high = supporting_interval(abs(Range(-3, 1)))
        assert (low, high) == (0.0, 3.0)


class TestSampleMemoisation:
    def test_needs_sampling(self):
        assert needs_sampling(Range(0, 1))
        assert needs_sampling([1, Range(0, 1)])
        assert needs_sampling({"key": Range(0, 1)})
        assert not needs_sampling([1, 2, 3])

    def test_concretize_containers(self):
        sample = Sample(random.Random(0))
        result = concretize({"a": Range(0, 1), "b": (Range(0, 1), 5)}, sample)
        assert set(result) == {"a", "b"}
        assert isinstance(result["b"], tuple)

    def test_same_node_has_one_value_per_sample(self):
        node = Range(0, 1)
        sample = Sample(random.Random(0))
        assert concretize(node, sample) == concretize(node, sample)

    def test_different_samples_differ(self):
        node = Range(0, 1)
        assert draw(node, 1) != pytest.approx(draw(node, 2))


def _scene_positions(scenario):
    """Scenes under both strategies, drawn through ``generate`` and ``generate_batch``."""
    scenes = []
    for strategy in ("rejection", "vectorized"):
        scenes.append(scenario.generate(seed=1, strategy=strategy))
        scenes.extend(scenario.generate_batch(3, seed=2, strategy=strategy))
    return [[(tuple(obj.position), float(obj.heading)) for obj in scene.objects]
            for scene in scenes]


class TestDrawPlans:
    """A scenario's draw program follows edits made after it was built."""

    def test_plan_follows_pruned_dependencies(self):
        """``prune_scenario`` after a draw swaps in a region the next draw must use."""
        source = (SCENARIO_DIR / "close_car.scenic").read_text()
        sampled = scenario_from_string(source)
        unpruned = _scene_positions(sampled)
        prune_scenario(sampled)
        pruned_first = scenario_from_string(source)
        prune_scenario(pruned_first)
        after = _scene_positions(sampled)
        assert after != unpruned
        assert after == _scene_positions(pruned_first)

    @pytest.mark.parametrize("scale", [lambda: 1.0, lambda: Range(0.5, 1.5)],
                             ids=["constant", "random"])
    def test_plan_follows_mutate_after_first_draw(self, scale):
        """What ``mutate`` does after a draw equals doing it before the first one."""
        source = (SCENARIO_DIR / "close_car.scenic").read_text()
        drawn = scenario_from_string(source)
        unmutated = _scene_positions(drawn)
        drawn.objects[1]._assign_property("mutationScale", scale())
        mutated_first = scenario_from_string(source)
        mutated_first.objects[1]._assign_property("mutationScale", scale())
        after = _scene_positions(drawn)
        assert after != unmutated
        assert after == _scene_positions(mutated_first)

    def test_list_argument_is_fresh_on_every_draw(self):
        seen = []

        def grow(items):
            seen.append(list(items))
            items.append("extra")
            return len(items)

        node = FunctionDistribution(grow, ([1.0, 2.0],))
        assert [draw(node, seed) for seed in range(3)] == [3, 3, 3]
        assert seen == [[1.0, 2.0]] * 3

    def test_list_dependency_that_grows_is_seen_whole(self):
        items = [1.0]
        node = FunctionDistribution(sum, (items,))
        assert draw(node) == 1.0
        items.append(Range(2.0, 3.0))
        assert 3.0 <= draw(node) <= 4.0

    def test_dropped_programs_leave_no_nodes_alive(self):
        """Plans live on their nodes: nothing outlives the programs it was built for."""
        sources = [entry.source() for entry in sorted(CORPUS, key=lambda e: e.id)
                   if entry.difficulty == "easy"][:20]

        def compile_and_sample():
            for source in sources:
                compile_scenario(source, cache=None).scenario().generate_batch(2, seed=0)

        def live_nodes():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, (Distribution, Constructible))]

        compile_and_sample()  # loads the worlds and fills module-level caches
        before = live_nodes()
        known = {id(node) for node in before}
        compile_and_sample()
        left = [node for node in live_nodes() if id(node) not in known]
        assert left == []


@pytest.mark.parametrize("entry", PLAN_SLICE, ids=lambda entry: entry.id)
def test_planned_draws_equal_reference_walk(entry):
    """Oracle F on one program per corpus bucket (all 165 in the slow test below)."""
    scenario = scenario_from_string(entry.source())
    assert current_program(scenario).steps is not None, "the program fell back to the walk"
    assert check_planned_draws(scenario, seed=7) == []


def test_run_oracles_flags_a_plan_that_draws_out_of_order(monkeypatch):
    from repro.core import program

    build = program.build_program

    def swapped(scenario):
        built = build(scenario)
        built.steps[0], built.steps[1] = built.steps[1], built.steps[0]
        return built

    monkeypatch.setattr(program, "build_program", swapped)
    report = run_oracles("ego = Object at (0, 1) @ (2, 3)\n", seed=0)
    assert report.verdict == "fail"
    assert [failure.oracle for failure in report.failures] == ["plan-equivalence"]


@pytest.mark.slow
def test_planned_draws_equal_reference_walk_on_whole_corpus():
    """No corpus or example program falls back, and each draws as the reference walk."""
    sources = {entry.id: entry.source() for entry in CORPUS}
    sources.update((path.name, path.read_text()) for path in SCENARIO_DIR.glob("*.scenic"))
    assert len(sources) == 165 + 36
    failures = {}
    for name, source in sorted(sources.items()):
        scenario = scenario_from_string(source)
        if current_program(scenario).steps is None:
            failures[name] = ["the program fell back to the walk"]
        elif problems := check_planned_draws(scenario, seed=7):
            failures[name] = problems
    assert failures == {}
