"""Worker-process side of the generation service.

Each worker in the service's process pool runs :func:`initialize_worker`
once (pool initializer) and then :func:`run_shard` per task.  Workers are
*persistent*: they hold a process-local, in-memory
:class:`~repro.language.ArtifactCache`, so the first shard of a program
pays the compile and every later shard — from any request — skips the
parser and interpreter entirely and starts sampling immediately.  The
service routes shards to workers by artifact fingerprint (*affinity*)
precisely so these per-process caches keep hitting.

Everything entering and leaving this module is plain data
(:class:`~repro.service.protocol.ShardPayload` /
:class:`~repro.service.protocol.ShardOutcome`): live scenes never cross the
process boundary.  Each scene leaves as its
:func:`~repro.service.protocol.scene_record`, the format clients receive.
Worker-side failures are folded into the outcome's ``error`` field rather
than raised, so one infeasible shard cannot poison the pool.
"""

from __future__ import annotations

import os
import random as _random
import threading
import time
from typing import Any, Dict, List, Optional

from ..core.errors import RejectionError
from ..sampling import AggregateStats, make_strategy
from .protocol import ShardOutcome, ShardPayload, scene_record

# Process-local state, created by initialize_worker (or lazily on first use
# when shards run inline in the coordinator process, workers=0).
_CACHE = None
#: LRU size of ``_CACHE``, in artifacts.
_MAX_ARTIFACTS = 64

#: Serializes run_shard within one process.  Pool workers are
#: single-threaded so this is free there; it exists for the inline
#: (``workers=0``) mode, where the service dispatches shards onto the
#: default *thread* pool and concurrent shards of one program would share
#: the artifact's interned scenario, whose tables and draw plans are built
#: lazily on first use.
_SHARD_LOCK = threading.Lock()


def initialize_worker() -> None:
    """Pool initializer: build this worker's artifact cache."""
    global _CACHE
    from ..language.compiler import ArtifactCache

    _CACHE = ArtifactCache(max_memory=_MAX_ARTIFACTS)


def _cache():
    global _CACHE
    if _CACHE is None:
        initialize_worker()
    return _CACHE


def _sample_indices(
    scenario: Any,
    payload: ShardPayload,
    aggregate: AggregateStats,
    records: List[Dict[str, Any]],
) -> None:
    """The shard sampling loop.

    Splitmix mode (``payload.seeds`` given): scene *i* is drawn with its own
    ``Random(seeds[i])``, so the result is independent of how indices were
    sharded.  Direct mode: the shard draws sequentially from
    ``Random(master_seed)``, reproducing the classic
    ``Scenario.generate_batch`` stream.  Every draw's stats, a failed one's
    too, land in *aggregate*.
    """
    strategy = make_strategy(payload.strategy)
    sequential_rng = _random.Random(payload.master_seed) if payload.seeds is None else None
    for position, index in enumerate(payload.indices):
        rng = (
            sequential_rng
            if sequential_rng is not None
            else _random.Random(payload.seeds[position])
        )
        scene, stats = strategy.sample(scenario, payload.max_iterations, rng)
        aggregate.record(stats, accepted=scene is not None)
        if scene is None:
            raise RejectionError(payload.max_iterations)
        records.append(scene_record(scene, iterations=stats.iterations))


def run_shard(payload: ShardPayload) -> ShardOutcome:
    """Sample one shard's scene indices into scene records; never raises.

    The artifact is looked up by fingerprint (the coordinator already
    content-addressed the program, so no source is re-hashed) and compiled
    only on a miss; ``cache_hit`` reports which.  Holds :data:`_SHARD_LOCK`
    for the duration: shards within one process run serially (only
    observable in the coordinator's inline ``workers=0`` mode — pool
    workers are single-threaded anyway).
    """
    start = time.perf_counter()
    aggregate = AggregateStats()
    records: List[Dict[str, Any]] = []
    error: Optional[Dict[str, Any]] = None
    cache_hit = False
    try:
        with _SHARD_LOCK:
            cache = _cache()
            artifact = cache.lookup_fingerprint(payload.fingerprint)
            cache_hit = artifact is not None
            if artifact is None:
                artifact = cache.get(payload.source)
            _sample_indices(artifact.scenario(), payload, aggregate, records)
    except Exception as exc:  # noqa: BLE001 - outcomes must always pickle home
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "index": payload.indices[len(records)]
            if len(records) < len(payload.indices)
            else None,
        }
    return ShardOutcome(
        indices=list(payload.indices[: len(records)]),
        records=records,
        stats=aggregate.to_shard_stats(),
        cache_hit=cache_hit,
        worker_pid=os.getpid(),
        elapsed_seconds=time.perf_counter() - start,
        error=error,
    )


__all__ = ["initialize_worker", "run_shard"]
