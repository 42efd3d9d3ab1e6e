"""Columnar scene-block transport (`repro/service/transport.py`).

The contract under test: packing live scenes into a :class:`SceneBlock` and
materialising records back out is *bit-identical* to building
``scene_record`` dicts directly — per strategy (including ``direct``'s
importance weights), with params, through pickling, and through a
shared-memory segment round trip.  Segment lifecycle is pinned too: a
loaded or discarded handle leaves no segment behind.
"""

import asyncio
import pickle
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.language import scenario_from_string
from repro.sampling import SamplerEngine
from repro.service import GenerationService, SceneBlock, scene_record
from repro.service.protocol import ShardOutcome
from repro.service.transport import materialize_block

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

PARAM_SOURCE = """
param weather = Uniform('sunny', 'rain')
param speed_limit = Range(10, 20)
ego = Object at Range(-3, 3) @ 0
Object at Range(-3, 3) @ 4
"""


def _source(stem):
    return (SCENARIO_DIR / f"{stem}.scenic").read_text()


def _sample_scenes(source, strategy, n, seed=7, max_iterations=20000):
    engine = SamplerEngine(source, strategy=strategy)
    scenes, iterations = [], []
    import random

    for index in range(n):
        scene = engine.sample(max_iterations=max_iterations, rng=random.Random(seed + index))
        scenes.append(scene)
        iterations.append(engine.last_stats.iterations if engine.last_stats else None)
    return scenes, iterations


# ---------------------------------------------------------------------------
# Pack / materialise round trip == scene_record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["rejection", "vectorized", "batch", "direct"])
def test_block_records_match_scene_records(strategy):
    scenes, iterations = _sample_scenes(_source("two_cars"), strategy, n=5)
    expected = [
        scene_record(scene, iterations=count)
        for scene, count in zip(scenes, iterations)
    ]
    block = SceneBlock.pack(scenes, iterations=iterations)
    assert block.scene_count == 5
    assert block.records() == expected
    # Per-position access agrees with bulk materialisation.
    for position in range(5):
        assert block.record_at(position) == expected[position]


def test_block_preserves_params_exactly():
    scenes, iterations = _sample_scenes(PARAM_SOURCE, "rejection", n=4)
    expected = [
        scene_record(scene, iterations=count)
        for scene, count in zip(scenes, iterations)
    ]
    assert any(record["params"] for record in expected)  # the point of the test
    block = SceneBlock.pack(scenes, iterations=iterations)
    assert block.records() == expected


def test_block_importance_weights_survive():
    scenes, iterations = _sample_scenes(_source("two_cars"), "direct", n=4)
    records = SceneBlock.pack(scenes, iterations=iterations).records()
    for scene, record in zip(scenes, records):
        assert record["importance_weight"] == scene.importance_weight


def test_block_without_iterations_omits_the_key():
    scenes, _ = _sample_scenes(_source("single_car"), "rejection", n=3)
    block = SceneBlock.pack(scenes, iterations=None)
    assert all("iterations" not in record for record in block.records())
    assert block.records() == [scene_record(scene) for scene in scenes]


def test_empty_block():
    block = SceneBlock.pack([])
    assert block.scene_count == 0
    assert block.records() == []
    assert len(block) == 0


def test_block_survives_pickle():
    scenes, iterations = _sample_scenes(_source("two_cars"), "rejection", n=3)
    block = SceneBlock.pack(scenes, iterations=iterations)
    clone = pickle.loads(pickle.dumps(block))
    assert clone.records() == block.records()


# ---------------------------------------------------------------------------
# Shared-memory carriage
# ---------------------------------------------------------------------------


def test_shared_memory_round_trip_and_unlink():
    scenes, iterations = _sample_scenes(_source("two_cars"), "rejection", n=4)
    block = SceneBlock.pack(scenes, iterations=iterations)
    handle = block.to_shared_memory()
    assert handle.scene_count == 4
    loaded = handle.load()
    assert loaded.records() == block.records()
    # load() unlinked the segment: nothing to attach to any more.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.name)


def test_shared_memory_discard_frees_the_segment():
    scenes, _ = _sample_scenes(_source("single_car"), "rejection", n=2)
    handle = SceneBlock.pack(scenes).to_shared_memory()
    handle.discard()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.name)
    handle.discard()  # idempotent: a second discard is a no-op


def test_to_wire_respects_threshold():
    scenes, _ = _sample_scenes(_source("two_cars"), "rejection", n=3)
    block = SceneBlock.pack(scenes)
    # Inline (no threshold) or below threshold: the block itself goes on the wire.
    assert block.to_wire(None) is block
    assert block.to_wire(block.nbytes + 1) is block
    # At/above threshold: a handle goes on the wire.
    carrier = block.to_wire(0)
    assert carrier is not block
    assert materialize_block(carrier).records() == block.records()


def test_outcome_take_and_discard_block():
    scenes, _ = _sample_scenes(_source("single_car"), "rejection", n=2)
    block = SceneBlock.pack(scenes)
    handle = block.to_shared_memory()
    outcome = ShardOutcome(
        indices=[0, 1], block=handle, stats={}, cache_hit=False,
        worker_pid=0, elapsed_seconds=0.0,
    )
    taken = outcome.take_block()
    assert taken.records() == block.records()
    assert outcome.take_block() is taken  # second take: already materialised

    other = ShardOutcome(
        indices=[0, 1], block=block.to_shared_memory(), stats={},
        cache_hit=False, worker_pid=0, elapsed_seconds=0.0,
    )
    name = other.block.name
    other.discard_block()
    assert other.block is None
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    assert materialize_block(None) is None


# ---------------------------------------------------------------------------
# End to end: both carriers produce identical responses
# ---------------------------------------------------------------------------


def test_service_shm_and_pickle_transports_agree():
    """Every block through shared memory, or none (a threshold above any block)."""
    source = _source("two_cars")

    async def run(threshold):
        async with GenerationService(workers=2, shm_threshold=threshold) as service:
            response = await service.generate(source, n=8, seed=11, max_iterations=20000)
            return response.scenes, response.stats["shards"]

    shm_scenes, shm_shards = asyncio.run(run(0))
    pickled_scenes, pickled_shards = asyncio.run(run(1 << 40))
    assert shm_shards == pickled_shards == 2
    assert shm_scenes == pickled_scenes


def test_lazy_response_materialises_once():
    source = _source("single_car")

    async def run():
        async with GenerationService(workers=0) as service:
            return await service.generate(source, n=3, seed=5, max_iterations=20000)

    response = asyncio.run(run())
    assert response.scene_count == 3  # no materialisation needed for the count
    first = response.scenes
    assert first is response.scenes  # cached after the first access
    assert [record["ego_index"] for record in first] == [0, 0, 0]
