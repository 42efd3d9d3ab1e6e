"""Seed-equivalence regression corpus: golden scenes for every example program.

Each ``examples/scenarios/*.scenic`` file was compiled and sampled with a
fixed seed under every golden run (``repro.evals.golden.GOLDEN_RUNS``: the
rejection and vectorized strategies, plus rejection and
vectorized after the automatic pruning pass); the resulting
positions/headings live in ``tests/golden/*.json`` at full float
precision.  These tests replay the exact same generations and compare to
1e-9 — they pin down the RNG-consumption order of every strategy, so any
refactor of the samplers or the geometry predicates that silently changes
sampled scenes fails here rather than shipping a distribution shift.

To update after an *intended* behaviour change::

    PYTHONPATH=src python tests/golden/regen.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.evals.golden import GOLDEN_RUNS, GOLDEN_SEED, golden_sample

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

TOLERANCE = 1e-9

#: Scenarios whose generation is heavy enough to live in the slow suite
#: (they are still part of the corpus; ``regen.py`` always writes them).
SLOW_SCENARIOS = {"perception_stress", "platoon"}


def scenario_stems():
    return sorted(path.stem for path in regen.SCENARIO_DIR.glob("*.scenic"))


def corpus_params():
    params = []
    for stem in scenario_stems():
        for strategy in GOLDEN_RUNS:
            marks = [pytest.mark.slow] if stem in SLOW_SCENARIOS else []
            params.append(pytest.param(stem, strategy, marks=marks, id=f"{stem}-{strategy}"))
    return params


def test_corpus_is_complete():
    """Every shipped scenario has a committed golden file covering every run."""
    stems = scenario_stems()
    assert len(stems) >= 10
    for stem in stems:
        path = regen.golden_path(stem)
        assert path.exists(), (
            f"missing golden file for {stem!r}; run: PYTHONPATH=src python tests/golden/regen.py {stem}"
        )
        entry = json.loads(path.read_text())
        assert set(entry["strategies"]) == set(GOLDEN_RUNS)
        assert entry["seed"] == GOLDEN_SEED


@pytest.mark.parametrize("stem,strategy", corpus_params())
def test_golden_scene_matches(stem, strategy):
    golden = json.loads(regen.golden_path(stem).read_text())["strategies"][strategy]
    scenic_path = regen.SCENARIO_DIR / f"{stem}.scenic"
    generated = regen.generate_entry(scenic_path, strategy)

    assert generated["ego_index"] == golden["ego_index"]
    assert generated["iterations"] == golden["iterations"]
    assert len(generated["objects"]) == len(golden["objects"])
    for index, (got, expected) in enumerate(zip(generated["objects"], golden["objects"])):
        assert got["class"] == expected["class"], f"object {index} class changed"
        for axis in (0, 1):
            assert abs(got["position"][axis] - expected["position"][axis]) <= TOLERANCE, (
                f"{stem}/{strategy}: object {index} position drifted "
                f"({got['position']} vs {expected['position']})"
            )
        for key in ("heading", "width", "height"):
            assert abs(got[key] - expected[key]) <= TOLERANCE, (
                f"{stem}/{strategy}: object {index} {key} drifted"
            )


#: Strategies replayed bit for bit: the pair whose RNG stream the kernel
#: predicates sit directly inside, so any change to the kernel's arithmetic
#: surfaces as a scene change.
BIT_EXACT_REPLAY_STRATEGIES = ("rejection", "vectorized")


def _compare_entry_exactly(stem, strategy, generated, golden):
    """Diff one generation against its golden bit for bit; returns mismatch strings."""
    problems = []

    def check(label, got, expected):
        if got != expected:
            problems.append(f"{stem}/{strategy}: {label} = {got!r}, golden {expected!r}")

    if generated["ego_index"] != golden["ego_index"]:
        problems.append(f"{stem}/{strategy}: ego_index changed")
    if generated["iterations"] != golden["iterations"]:
        problems.append(
            f"{stem}/{strategy}: iterations {generated['iterations']} "
            f"vs golden {golden['iterations']} (acceptance pattern changed)"
        )
    for index, (got, expected) in enumerate(zip(generated["objects"], golden["objects"])):
        for axis in (0, 1):
            check(f"object {index} position[{axis}]", got["position"][axis],
                  expected["position"][axis])
        for key in ("heading", "width", "height"):
            check(f"object {index} {key}", got[key], expected[key])
    return problems


@pytest.mark.parametrize("strategy", BIT_EXACT_REPLAY_STRATEGIES)
def test_golden_corpus_replays_bit_exact(strategy):
    """Replay the (fast) corpus and reproduce every golden **bit for bit**.

    Stronger than :func:`test_golden_scene_matches`' 1e-9 tolerance: the
    numpy kernel is the code that generated the goldens, so any drift at
    all is a change to the sampled scenes.
    """
    mismatches = []
    for stem in scenario_stems():
        if stem in SLOW_SCENARIOS:
            continue
        golden = json.loads(regen.golden_path(stem).read_text())["strategies"][strategy]
        generated = regen.generate_entry(regen.SCENARIO_DIR / f"{stem}.scenic", strategy)
        mismatches.extend(_compare_entry_exactly(stem, strategy, generated, golden))
    assert mismatches == [], (
        f"{len(mismatches)} values diverged:\n" + "\n".join(mismatches[:20])
    )


#: Golden runs whose scenes come from pruned regions: the prune-first runs.
PRUNED_RUNS = tuple(run for run, (_, prune_first) in GOLDEN_RUNS.items() if prune_first)


def _fresh_scenario(stem):
    from repro.language import scenario_from_file

    return scenario_from_file(regen.SCENARIO_DIR / f"{stem}.scenic")


def _prunable_indices(scenario):
    from repro.core.pruning import _mutation_enabled
    from repro.core.regions import PointInRegionDistribution, PolygonalRegion

    indices = []
    for index, obj in enumerate(scenario.objects):
        position = obj.properties.get("position")
        if (
            isinstance(position, PointInRegionDistribution)
            and isinstance(position.region, PolygonalRegion)
            and not _mutation_enabled(obj)
        ):
            indices.append(index)
    return indices


@pytest.mark.parametrize(
    "stem",
    [
        pytest.param(stem, marks=[pytest.mark.slow] if stem in SLOW_SCENARIOS else [])
        for stem in scenario_stems()
    ],
)
def test_rejection_goldens_survive_pruning(stem):
    """Corpus-level pruning soundness: valid scenes lie inside pruned regions.

    Every committed rejection golden is a requirement-satisfying scene of
    the unpruned scenario; automatic pruning of a fresh compile must keep
    each (non-mutated, region-sampled) object's recorded position — pruning
    may only discard sample-space volume that can never yield a valid
    scene, including right at polygon-cell boundaries.
    """
    from repro.core.pruning import prune_scenario

    golden = json.loads(regen.golden_path(stem).read_text())["strategies"]["rejection"]
    scenario = _fresh_scenario(stem)
    prune_scenario(scenario)
    for index in _prunable_indices(scenario):
        region = scenario.objects[index].properties["position"].region
        x, y = golden["objects"][index]["position"]
        assert region.contains_point((x, y)), (
            f"{stem}: object {index} at ({x}, {y}) satisfies the requirements "
            "but automatic pruning excluded it"
        )


@pytest.mark.parametrize(
    "stem",
    [
        pytest.param(stem, marks=[pytest.mark.slow] if stem in SLOW_SCENARIOS else [])
        for stem in scenario_stems()
    ],
)
def test_pruned_strategies_produce_valid_scenes(stem):
    """Pruned-run goldens replay into requirement-satisfying scenes.

    For requirement-free scenarios the parametrized replay test already
    pins the exact scene; here every pruned-run generation is
    additionally re-validated with the scalar checks (workspace
    containment, collisions, visibility) *and* against the unpruned
    scenario's sampling regions — the end-to-end guarantee that pruning
    changed only the proposal distribution's support, never validity.
    """
    from repro.core.vectors import Vector
    from repro.fuzz.oracles import recheck_scene

    baseline = _fresh_scenario(stem)
    unpruned_regions = {
        index: baseline.objects[index].properties["position"].region
        for index in _prunable_indices(baseline)
    }
    for run in PRUNED_RUNS:
        scenario = _fresh_scenario(stem)
        scene = golden_sample(scenario, run)
        assert recheck_scene(scenario, scene, checks=()) == []
        for index, region in unpruned_regions.items():
            point = Vector.from_any(scene.objects[index].position)
            assert region.contains_point(point), (
                f"{stem}/{run}: object {index} sampled outside the "
                "unpruned region"
            )


def test_vectorized_matches_rejection_without_soft_requirements():
    """No RNG draw separates the two strategies.

    Block-drawing candidates consumes the stream in the same order as
    one-at-a-time rejection, because only a candidate's draw reads the RNG
    (a soft requirement's coin included).  The committed corpus exhibits
    this: every golden scene of the two strategies coincides, which doubles
    as a strong whole-stack equivalence check of the kernel-backed checks
    against the scalar semantics.
    """
    for stem in scenario_stems():
        entry = json.loads(regen.golden_path(stem).read_text())["strategies"]
        assert entry["vectorized"] == entry["rejection"], stem


@pytest.mark.parametrize(
    "stem",
    [
        pytest.param(stem, marks=[pytest.mark.slow] if stem in SLOW_SCENARIOS else [])
        for stem in scenario_stems()
    ],
)
def test_golden_runs_book_each_rejection_once(stem):
    """Corpus-wide check of the one candidate loop's bookkeeping.

    Under every golden run the accepted scene passes the scalar recheck,
    and the rejection counters add up: every examined candidate but the
    accepted one is booked once under one cause.
    """
    from repro.fuzz.oracles import recheck_scene

    golden = json.loads(regen.golden_path(stem).read_text())["strategies"]
    for run in GOLDEN_RUNS:
        scenario = _fresh_scenario(stem)
        scene = golden_sample(scenario, run)
        stats = scenario.last_stats
        assert stats.iterations == golden[run]["iterations"], f"{stem}/{run}"
        assert stats.total_rejections == stats.iterations - 1, (
            f"{stem}/{run}: {stats}"
        )
        assert recheck_scene(scenario, scene, checks=()) == [], f"{stem}/{run}"
