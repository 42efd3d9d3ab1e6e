"""Shard-stat merging and the worker's artifact LRU.

Property-style pins for the stats pipeline: however a run is cut into
shards, :func:`merge_shard_stats` over the per-shard
``AggregateStats.to_shard_stats()`` dicts must equal the single-shard
roll-up — for candidate counts and rejection breakdowns.  Plus the
worker-side artifact cache (every shard refreshes its program's recency).
"""

import random

import pytest

from repro.core.scenario import GenerationStats
from repro.language.compiler import ArtifactCache, source_fingerprint
from repro.sampling import AggregateStats
from repro.service.protocol import ShardOutcome, ShardPayload, merge_shard_stats
from repro.service import worker as worker_module


def _random_stats(rng):
    return GenerationStats(
        iterations=rng.randrange(0, 50),
        rejections_containment=rng.randrange(0, 10),
        rejections_collision=rng.randrange(0, 10),
        rejections_visibility=rng.randrange(0, 5),
        rejections_user=rng.randrange(0, 5),
        rejections_sampling=rng.randrange(0, 5),
        elapsed_seconds=rng.random() / 100,
    )


def _record_draws(aggregate, draws):
    for stats in draws:
        aggregate.record(stats, accepted=True)


def _outcome(stats_dict, pid=1000):
    return ShardOutcome(
        indices=[], records=[], stats=stats_dict, cache_hit=False,
        worker_pid=pid, elapsed_seconds=0.0,
    )


def _draws(rng, count):
    return [_random_stats(rng) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("shard_count", [2, 3, 5])
def test_sharded_merge_equals_single_shard(seed, shard_count):
    """Cutting the same draws into K shards never changes the merged stats."""
    rng = random.Random(seed)
    draws = _draws(rng, 24)

    single = AggregateStats()
    _record_draws(single, draws)
    merged_single = merge_shard_stats([_outcome(single.to_shard_stats())])

    cuts = sorted(rng.sample(range(1, len(draws)), shard_count - 1))
    shards = []
    previous = 0
    for cut in cuts + [len(draws)]:
        aggregate = AggregateStats()
        _record_draws(aggregate, draws[previous:cut])
        shards.append(aggregate)
        previous = cut
    merged_sharded = merge_shard_stats(
        [_outcome(shard.to_shard_stats(), pid=1000 + index)
         for index, shard in enumerate(shards)]
    )

    for key in ("scenes", "draws", "iterations", "candidates"):
        assert merged_sharded[key] == merged_single[key], key
    assert merged_sharded["rejections"] == merged_single["rejections"]


def test_candidates_sum_across_shards():
    """A request's ``candidates`` adds every shard's examined candidates.

    Shard A examined 40 candidates, shard B 5: the request examined 45,
    the same as its iteration count.
    """
    shard_a = AggregateStats()
    shard_a.record(GenerationStats(iterations=40))
    shard_b = AggregateStats()
    shard_b.record(GenerationStats(iterations=5))

    assert shard_a.to_shard_stats()["candidates"] == 40
    assert shard_b.to_shard_stats()["candidates"] == 5
    merged = merge_shard_stats(
        [_outcome(shard_a.to_shard_stats()), _outcome(shard_b.to_shard_stats(), pid=2)]
    )
    assert merged["candidates"] == merged["iterations"] == 45


def test_to_shard_stats_matches_aggregate_views():
    rng = random.Random(99)
    aggregate = AggregateStats()
    _record_draws(aggregate, _draws(rng, 10))
    shard = aggregate.to_shard_stats()
    combined = aggregate.combined()
    assert shard["scenes"] == aggregate.scenes
    assert shard["draws"] == aggregate.draws
    assert shard["iterations"] == combined.iterations
    assert shard["candidates"] == aggregate.total_candidates == combined.iterations
    assert shard["rejections"] == aggregate.rejection_breakdown()


# ---------------------------------------------------------------------------
# Worker artifact cache: a real LRU
# ---------------------------------------------------------------------------


def _payload(source, strategy="rejection"):
    return ShardPayload(
        fingerprint=source_fingerprint(source),
        source=source,
        strategy=strategy,
        max_iterations=100,
        indices=[0],
        seeds=[1],
        master_seed=0,
    )


def test_worker_keeps_a_reused_artifact_cached(monkeypatch):
    """Every shard refreshes its artifact's recency in the worker's LRU.

    With room for two artifacts, shards for A, B, A, C evict B: the third
    shard made A the most recently used, so C pushes out B, not A.
    """
    monkeypatch.setattr(worker_module, "_CACHE", ArtifactCache(max_memory=2))
    source_a = "ego = Object at 11 @ 0\n"
    source_b = "ego = Object at 12 @ 0\n"
    source_c = "ego = Object at 13 @ 0\n"

    hits = [
        worker_module.run_shard(_payload(source)).cache_hit
        for source in (source_a, source_b, source_a, source_c)
    ]
    assert hits == [False, False, True, False]
    assert source_fingerprint(source_a) in worker_module._CACHE
    assert source_fingerprint(source_c) in worker_module._CACHE
    assert source_fingerprint(source_b) not in worker_module._CACHE

    outcome = worker_module.run_shard(_payload(source_a, strategy="vectorized"))
    assert outcome.error is None
    assert outcome.cache_hit
