"""Blocks drawn as columns (``repro/core/columns.py``) equal the scalar draw program."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core import In, Object, RejectionError, ScenarioBuilder
from repro.core import columns
from repro.core.columns import ColumnPlan, column_plan
from repro.core.errors import ScenicError
from repro.core.program import current_program
from repro.core.regions import CircularRegion, DifferenceRegion
from repro.evals.corpus import Manifest
from repro.fuzz.oracles import check_column_draws, run_oracles
from repro.language import scenario_from_string
from repro.sampling import RejectionSampler, VectorizedSampler

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
CORPUS = Manifest.load()
SLICE = [bucket[0] for _, bucket in sorted(CORPUS.by_bucket().items())]

#: Programs whose draw has an RNG step with random arguments and no recipe
#: (a point in a random region), so they keep the scalar program.
SCALAR_PROGRAMS = {"badly_parked", "badly_parked.scenic"}


def _draws_without_raising(scenario):
    """Both block sizes the sampler draws as columns build without an exception."""
    plan = column_plan(current_program(scenario))
    for count in (VectorizedSampler.COLUMN_MIN_BLOCK, VectorizedSampler.BLOCK_SIZE):
        plan.draw(random.Random(7), count).geometry()
    return plan


@pytest.mark.parametrize("entry", SLICE, ids=lambda entry: entry.id)
def test_column_draws_equal_program_draws(entry):
    """Oracle G on one program per corpus bucket (all of them in the slow test below)."""
    scenario = scenario_from_string(entry.source())
    if entry.id not in SCALAR_PROGRAMS:
        _draws_without_raising(scenario)
    assert check_column_draws(scenario, seed=7) == []


@pytest.mark.slow
def test_column_draws_equal_program_draws_on_whole_corpus():
    """Only ``badly_parked`` keeps the scalar program; every other block equals it."""
    sources = {entry.id: entry.source() for entry in CORPUS}
    sources.update((path.name, path.read_text()) for path in SCENARIO_DIR.glob("*.scenic"))
    assert len(sources) == 165 + 36
    declined, failures = set(), {}
    for name, source in sorted(sources.items()):
        scenario = scenario_from_string(source)
        if column_plan(current_program(scenario)) is None:
            declined.add(name)
            continue
        _draws_without_raising(scenario)
        if problems := check_column_draws(scenario, seed=7):
            failures[name] = problems
    assert failures == {}
    assert declined == SCALAR_PROGRAMS


# ---------------------------------------------------------------------------
# The oracle catches a wrong column
# ---------------------------------------------------------------------------

RANGE_PROGRAM = "ego = Object at (0, 5) @ (0, 5)\n"


def test_run_oracles_flags_a_range_recipe_one_ulp_off(monkeypatch):
    range_column = columns._range_column

    def one_ulp_up(args, reads, count):
        return columns.Floats(np.nextafter(range_column(args, reads, count).values, np.inf))

    monkeypatch.setattr(columns, "_range_column", one_ulp_up)
    report = run_oracles(RANGE_PROGRAM, seed=0)
    assert report.verdict == "fail"
    assert [failure.oracle for failure in report.failures] == ["column-equivalence"]


def test_run_oracles_flags_two_swapped_raw_reads(monkeypatch):
    raw_phase = ColumnPlan._raw_phase

    def swapped(plan, rng, count):
        first, second, *rest = raw_phase(plan, rng, count)
        return [second, first, *rest]

    monkeypatch.setattr(ColumnPlan, "_raw_phase", swapped)
    report = run_oracles(RANGE_PROGRAM, seed=0)
    assert report.verdict == "fail"
    assert [failure.oracle for failure in report.failures] == ["column-equivalence"]


def test_run_oracles_passes_the_column_draw():
    assert run_oracles(RANGE_PROGRAM, seed=0).verdict == "pass"


# ---------------------------------------------------------------------------
# Blocks that raise are redrawn by the scalar program
# ---------------------------------------------------------------------------


def ring_scenario():
    """A point of a thin ring, drawn by rejection: 200 misses raise ``RejectSample``.

    About a third of the draws raise, and the requirement accepts about one
    candidate in sixty, so most scenes need a block drawn as columns.
    """
    ring = DifferenceRegion(CircularRegion((0, 0), 10.0), CircularRegion((0, 0), 9.97))
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(requireVisible=False))
        target = Object(In(ring), requireVisible=False, width=0.1, height=0.1)
        builder.require(lambda value: value(target).position.x > 9.97)
    return builder.scenario()


def _outcome(scenario, seed, strategy):
    try:
        scene = scenario.generate(seed=seed, max_iterations=400, strategy=strategy)
        positions = [tuple(scenic_object.position) for scenic_object in scene.objects]
    except RejectionError:
        positions = None
    stats = scenario.last_stats
    return positions, stats.iterations, stats.rejections_sampling, stats.rejections_user


def test_a_block_that_raises_reject_sample_is_redrawn_candidate_by_candidate():
    """Same scenes, candidate counts and ``"sampling"`` rejections as ``rejection``."""
    scenario = ring_scenario()
    outcomes = {
        name: [_outcome(scenario, seed, strategy) for seed in range(6)]
        for name, strategy in (("rejection", RejectionSampler()), ("vectorized", VectorizedSampler()))
    }
    assert outcomes["vectorized"] == outcomes["rejection"]
    assert sum(outcome[2] for outcome in outcomes["rejection"]) > 0
    assert scenario._draw_program.columns.replays > 0


EMPTY_INTERVAL_PROGRAM = """\
x = (0, 1)
ego = Object with width (x, 0.99)
require ego.width > 5
"""


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_a_random_empty_interval_raises_the_scalar_error(seed):
    """The block raises, is redrawn, and the same candidate raises the same error.

    At these seeds the first empty interval falls in a block drawn as columns.
    """
    messages = {}
    for strategy in (RejectionSampler(), VectorizedSampler()):
        scenario = scenario_from_string(EMPTY_INTERVAL_PROGRAM)
        with pytest.raises(ScenicError) as raised:
            scenario.generate(seed=seed, max_iterations=5000, strategy=strategy)
        messages[strategy.name] = str(raised.value)
    assert messages["vectorized"] == messages["rejection"]
    assert "is empty" in messages["rejection"]
    assert scenario._draw_program.columns.replays == 1


def test_division_by_a_random_zero_is_redrawn():
    """numpy would divide by zero quietly; the block is redrawn and Python raises."""
    options = ", ".join(str(float(value)) for value in range(100))
    source = f"x = Uniform({options})\nego = Object with width 1 / x\nrequire ego.width > 5\n"
    errors = {}
    for strategy in (RejectionSampler(), VectorizedSampler()):
        scenario = scenario_from_string(source)
        with pytest.raises(ZeroDivisionError) as raised:
            scenario.generate(seed=3, max_iterations=5000, strategy=strategy)
        errors[strategy.name] = str(raised.value)
    assert errors["vectorized"] == errors["rejection"]
    assert scenario._draw_program.columns.replays == 1


# ---------------------------------------------------------------------------
# The threshold
# ---------------------------------------------------------------------------

INFEASIBLE_PROGRAM = "ego = Object at (0, 5) @ (0, 5)\nrequire ego.position.x > 6\n"


@pytest.mark.parametrize("size,built", [
    (VectorizedSampler.COLUMN_MIN_BLOCK - 1, False),
    (VectorizedSampler.COLUMN_MIN_BLOCK, True),
])
def test_only_blocks_from_the_threshold_up_build_the_column_plan(size, built):
    class FixedBlocks(VectorizedSampler):
        def _block_sizes(self):
            return itertools.repeat(size)

    scenario = scenario_from_string(INFEASIBLE_PROGRAM)
    with pytest.raises(RejectionError):
        scenario.generate(seed=0, max_iterations=4 * size, strategy=FixedBlocks())
    plan = scenario._draw_program.columns
    assert isinstance(plan, ColumnPlan) if built else plan is None


def test_a_dropped_scenario_frees_its_program_and_plan_without_the_cycle_collector():
    """The program holds its column plan and the plan holds no program, so a
    scenario dropped after a block drawn as columns (and the scene it gave)
    is freed by reference counting alone: no collection runs here."""
    import gc
    import weakref

    from repro.language import compile_scenario

    source = "import gtaLib\nego = Car\nother = Car offset by (-10, 10) @ (20, 40)\n"
    gc.collect()
    gc.disable()
    try:
        scenario = compile_scenario(source, cache=None).scenario(fresh=True)
        sampler = VectorizedSampler()
        rng = random.Random(3)
        program = current_program(scenario)
        sampler._draw_block(scenario, rng, VectorizedSampler.COLUMN_MIN_BLOCK)
        plan = column_plan(program)
        assert plan is not None and program.columns is plan
        scene = sampler.sample(scenario, 100, rng)[0]
        program_ref, plan_ref = weakref.ref(program), weakref.ref(plan)
        del scenario, sampler, program, plan, scene
        assert program_ref() is None and plan_ref() is None
    finally:
        gc.enable()
