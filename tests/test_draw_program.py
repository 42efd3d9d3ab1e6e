"""The draw program's edges: which values keep the walk, and what stays in the program."""

import collections
import random
import sys
import threading

import pytest

from repro.core.columns import column_plan
from repro.core.distributions import FunctionDistribution, Range, Sample, Uniform
from repro.core.errors import RejectSample
from repro.core.objects import Object
from repro.core.program import current_program, draw_candidate, requirement_roots
from repro.core.requirements import Requirement
from repro.core.scenario import Scenario
from repro.core.specifiers import At
from repro.evals.corpus import Manifest
from repro.fuzz.oracles import check_column_draws, check_planned_draws
from repro.language import scenario_from_string
from repro.sampling.strategies import check_user_requirements

#: A program whose ``require`` reaches a uniform of its own, and its soft twin.
OWN_VALUE_PROGRAM = (
    "ego = Object at (0, 0) @ (0, 0)\n"
    "Object at (-20, 20) @ (-20, 20)\n"
    "require (0, 1) < 0.3\n"
)
SOFT_PROGRAM = OWN_VALUE_PROGRAM.replace("require ", "require[0.5] ")


def _positions(scenario, seed):
    scene = scenario.generate(seed=seed)
    return [(tuple(obj.position), float(obj.heading)) for obj in scene.objects]


def _scenario(**params):
    return Scenario(objects=[], ego=Object(At((Range(-1, 1), Range(-1, 1)))), params=params)


def test_a_list_argument_keeps_the_walk():
    scenario = _scenario(total=FunctionDistribution(sum, ([Range(0, 1), 2.0],)))
    assert current_program(scenario).steps is None
    assert check_planned_draws(scenario, seed=3) == []


def test_a_list_that_grows_is_seen_whole_through_generate():
    items = [1.0]
    scenario = _scenario(total=FunctionDistribution(sum, (items,)))
    assert scenario.generate(seed=0).params["total"] == 1.0
    items.append(Range(2.0, 3.0))
    assert 3.0 <= scenario.generate(seed=0).params["total"] <= 4.0


def test_a_dict_that_is_not_a_nodes_own_kwargs_keeps_the_walk():
    argument = FunctionDistribution(len, ({"low": Range(0, 1), "high": 2.0},))
    for scenario in (_scenario(size=argument), _scenario(bounds={"low": Range(0, 1)})):
        assert current_program(scenario).steps is None
        assert check_planned_draws(scenario, seed=3) == []


def test_random_kwargs_and_namedtuples_stay_in_the_program():
    Pair = collections.namedtuple("Pair", "low high")
    scenario = _scenario(
        rounded=FunctionDistribution(round, (Range(0, 10),), {"ndigits": Uniform(0, 1, 2)}),
        pair=Pair(Range(0, 1), 5.0),
    )
    assert current_program(scenario).steps is not None
    assert check_planned_draws(scenario, seed=3) == []
    _, _, _, params = draw_candidate(scenario, random.Random(0))
    assert type(params["pair"]) is tuple and params["pair"][1] == 5.0


def test_a_node_reached_twice_keeps_one_value():
    scenario = scenario_from_string("x = (0, 1)\nego = Object at x @ x\n")
    sample, objects, ego, _ = draw_candidate(scenario, random.Random(5))
    assert ego.position.x == ego.position.y
    assert objects == [ego]
    assert isinstance(sample, Sample) and sample.value_for(scenario.ego) is ego


def test_threads_sharing_a_scenario_draw_what_one_thread_draws():
    """The program is built once and read by every thread; each draw keeps its own values."""
    scenario = scenario_from_string("ego = Object at (0, 1) @ (2, 3)\nObject at (5, 9) @ (5, 9)\n")
    seeds = range(24)
    serial = [_positions(scenario, seed) for seed in seeds]
    results = {}

    def work(offset):
        for seed in seeds[offset::4]:
            results[seed] = _positions(scenario, seed)

    scenario._draw_program = None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[seed] for seed in seeds] == serial


def test_a_param_set_after_a_draw_is_drawn():
    scenario = _scenario(speed=Range(0, 1))
    assert 0 <= scenario.generate(seed=0).params["speed"] <= 1
    scenario.params["speed"] = Range(10, 11)
    scenario.params["lane"] = Uniform("left", "right")
    params = scenario.generate(seed=0).params
    assert 10 <= params["speed"] <= 11 and params["lane"] in ("left", "right")


def _first_drawn_sample(scenario, seed):
    """The sample of the first candidate from ``Random(seed)`` that draws without raising."""
    rng = random.Random(seed)
    while True:
        try:
            return draw_candidate(scenario, rng)[0]
        except RejectSample:
            continue


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(OWN_VALUE_PROGRAM, id="own-value"),
        pytest.param(SOFT_PROGRAM, id="soft"),
        pytest.param(Manifest.load().get("fz1054582454").source(), id="fz1054582454"),
    ],
)
def test_a_candidates_draw_holds_its_requirements_values(source):
    """The coins and the values only a ``require`` reaches are drawn with the candidate.

    So the draw program, the walk it replaces (oracle F) and the column draw
    (oracle G) read them at the same point of the stream, and checking the
    candidate reads nothing.
    """
    scenario = scenario_from_string(source)
    roots = list(requirement_roots(scenario))
    assert roots
    sample = _first_drawn_sample(scenario, 5)
    assert all(sample.has_value_for(root) for root in roots)
    state = sample.rng.getstate()
    check_user_requirements(scenario, sample)
    assert sample.rng.getstate() == state
    assert column_plan(current_program(scenario)) is not None
    assert check_planned_draws(scenario, seed=5) == []
    assert check_column_draws(scenario, seed=5) == []


def test_a_soft_requirement_added_after_a_draw_rebuilds_the_program():
    scenario = _scenario()
    scenario.generate(seed=0)
    program = current_program(scenario)
    requirement = Requirement(True, 0.5)
    scenario.requirements.append(requirement)
    assert current_program(scenario) is not program
    assert draw_candidate(scenario, random.Random(0))[0].has_value_for(requirement.coin)
    assert check_planned_draws(scenario, seed=3) == []


def test_a_list_in_a_condition_keeps_the_walk():
    """The walk draws the list whole at each candidate, an item added later too."""
    items = [Range(0, 1)]
    scenario = _scenario()
    scenario.requirements.append(Requirement(FunctionDistribution(len, (items,))))
    assert current_program(scenario).steps is None
    items.append(Range(2, 3))
    assert draw_candidate(scenario, random.Random(0))[0].has_value_for(items[-1])
    assert check_planned_draws(scenario, seed=3) == []
