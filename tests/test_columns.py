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
    """The smallest, stream and largest blocks the sampler draws as columns build without an exception."""
    plan = column_plan(current_program(scenario))
    for count in (VectorizedSampler.COLUMN_MIN_BLOCK, VectorizedSampler.BLOCK_SIZE,
                  VectorizedSampler.COLUMN_MAX_BLOCK):
        plan.draw(random.Random(7), count, VectorizedSampler.BLOCK_SIZE).geometry()
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

    def swapped(plan, rng, count, stride):
        (first, second, *rest), ends = raw_phase(plan, rng, count, stride)
        return [second, first, *rest], ends

    monkeypatch.setattr(ColumnPlan, "_raw_phase", swapped)
    report = run_oracles(RANGE_PROGRAM, seed=0)
    assert report.verdict == "fail"
    assert [failure.oracle for failure in report.failures] == ["column-equivalence"]


def test_run_oracles_flags_boundary_states_one_boundary_late(monkeypatch):
    """A block whose recorded stream-block ends are each one boundary late
    would rewind the sampler past the accepted candidate's stream block."""
    raw_phase = ColumnPlan._raw_phase

    def one_late(plan, rng, count, stride):
        raw, ends = raw_phase(plan, rng, count, stride)
        return raw, ends[1:] + [rng.getstate()] if ends else ends

    monkeypatch.setattr(ColumnPlan, "_raw_phase", one_late)
    report = run_oracles(RANGE_PROGRAM, seed=0)
    assert report.verdict == "fail"
    assert [failure.oracle for failure in report.failures] == ["column-equivalence"]
    assert "RNG state after candidate 32" in report.failures[0].detail


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


# ---------------------------------------------------------------------------
# Blocks past the ramp leave the RNG where blocks of 32 leave it
# ---------------------------------------------------------------------------


class StreamBlocks(VectorizedSampler):
    """Blocks that stay at ``BLOCK_SIZE`` past the ramp."""

    COLUMN_MAX_BLOCK = VectorizedSampler.BLOCK_SIZE


def _stream(source, sampler, seed, max_iterations, count=1):
    """A batch's scenes (or its error), counts and column replays, and the RNG state it leaves."""
    scenario = scenario_from_string(source)
    rng = random.Random(seed)
    try:
        batch = scenario.generate_batch(count, max_iterations, rng=rng, strategy=sampler)
        outcome = [[(*obj.position, obj.heading, obj.width) for obj in scene.objects] for scene in batch]
    except ScenicError as error:
        outcome = repr(error)
    stats = scenario.last_stats
    plan = scenario._draw_program.columns
    counts = (stats.iterations, stats.rejections_containment, stats.rejections_collision,
              stats.rejections_user, stats.rejections_sampling)
    return outcome, counts, plan.replays if plan else None, rng.getstate()


#: Accepts about one candidate in a hundred.
RARE_PROGRAM = "ego = Object at (0, 5) @ (0, 5)\nrequire ego.position.x > 4.95\n"

ACCEPT_BEFORE_AN_EMPTY_INTERVAL = """\
x = (0, 1)
ego = Object with width (x, 0.99)
require ego.width > 0.98
"""


@pytest.mark.parametrize("seed,accepted", [(1232, 73), (1297, 68), (1404, 81)])
def test_an_error_in_the_second_half_of_a_64_block_is_never_reached(seed, accepted):
    """At these seeds candidate *accepted* (63 to 94) passes, and a later
    candidate before 127 has an empty interval.  Blocks of 32 accept before
    drawing it.  The block of 64 raises in its column draw, and its scalar
    redraw examines its first 32 candidates before drawing the rest."""
    stream = _stream(ACCEPT_BEFORE_AN_EMPTY_INTERVAL, StreamBlocks(), seed, 5000)
    larger = _stream(ACCEPT_BEFORE_AN_EMPTY_INTERVAL, VectorizedSampler(), seed, 5000)
    assert stream[1][0] == larger[1][0] == accepted
    assert (stream[2], larger[2]) == (0, 1)
    assert larger[:2] + larger[3:] == stream[:2] + stream[3:]


@pytest.mark.parametrize("max_iterations", [140, 159, 160, 200, 254])
@pytest.mark.parametrize("source", [INFEASIBLE_PROGRAM, RARE_PROGRAM], ids=["infeasible", "rare"])
def test_a_budget_that_ends_inside_a_128_block_cuts_it_where_blocks_of_32_end(source, max_iterations):
    """The ramp and a block of 64 cover 127 candidates; the budget ends in the next block."""
    for seed in range(4):
        stream = _stream(source, StreamBlocks(), seed, max_iterations, count=3)
        assert _stream(source, VectorizedSampler(), seed, max_iterations, count=3) == stream


@pytest.mark.parametrize("name", ["fz2089620438", "merging_traffic", "fz360743916"])
def test_a_batch_leaves_the_callers_rng_where_blocks_of_32_leave_it(name):
    """Scenes accepted deep in blocks of 128: every scene and the caller's RNG are unmoved."""
    source = CORPUS.get(name).source()
    for seed in (0, 1):
        stream = _stream(source, StreamBlocks(), seed, 20000, count=4)
        assert _stream(source, VectorizedSampler(), seed, 20000, count=4) == stream


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
