"""Worker-process side of the generation service.

Each worker in the service's process pool runs :func:`initialize_worker`
once (pool initializer) and then :func:`run_shard` per task.  Workers are
*persistent*: they hold a process-local, in-memory
:class:`~repro.language.ArtifactCache` plus a bound-engine LRU, so the first
shard of a program pays the compile and every later shard — from any
request — skips the parser and interpreter entirely and starts sampling
immediately.  The service routes shards to workers by artifact fingerprint
(*affinity*) precisely so these per-process caches keep hitting.

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
from typing import Any, Dict, List, Optional, Tuple

from .protocol import ShardOutcome, ShardPayload, scene_record

# Process-local state, created by initialize_worker (or lazily on first use
# when shards run inline in the coordinator process, workers=0).
_CACHE = None
#: Bound-engine LRU, keyed by (fingerprint, strategy): insertion order *is*
#: recency order — hits move their entry to the MRU end, eviction pops the
#: front.
_ENGINES: Dict[Tuple[str, str], Any] = {}
#: LRU sizes: artifacts in ``_CACHE``, bound engines in ``_ENGINES``.
_MAX_ARTIFACTS = 64
_MAX_ENGINES = 32

#: Serializes run_shard within one process.  Pool workers are
#: single-threaded so this is free there; it exists for the inline
#: (``workers=0``) mode, where the service dispatches shards onto the
#: default *thread* pool and the engine cache, the engines' ``last_stats``
#: and the LRU eviction above would otherwise race.
_SHARD_LOCK = threading.Lock()


def initialize_worker() -> None:
    """Pool initializer: build this worker's artifact cache."""
    global _CACHE
    from ..language.compiler import ArtifactCache

    _CACHE = ArtifactCache(max_memory=_MAX_ARTIFACTS)
    _ENGINES.clear()


def _cache():
    global _CACHE
    if _CACHE is None:
        initialize_worker()
    return _CACHE


def _engine_for(payload: ShardPayload) -> Tuple[Any, bool, bool]:
    """A bound, reusable engine for (program, strategy).

    Returns ``(engine, artifact_was_warm, engine_was_cached)``.  Engine
    reuse skips resolving the artifact's scenario and binding the strategy
    on every shard; the LRU cap bounds memory on a long-lived worker
    serving many distinct programs.

    The LRU is genuine: a hit moves the entry to the MRU end before
    returning, so eviction (pop the front) removes the least-*recently*
    used engine, not merely the least-recently *inserted* one.  Without the
    move, a steady two-program workload on a full cache would evict its own
    hottest engine every time a new program arrived.
    """
    from ..sampling import SamplerEngine

    key = (payload.fingerprint, payload.strategy)
    engine = _ENGINES.pop(key, None)
    if engine is not None:
        _ENGINES[key] = engine  # re-insert at the MRU end
        return engine, True, True

    cache = _cache()
    # The coordinator already content-addressed the program: an
    # address-by-hash lookup skips re-normalizing and re-hashing the source
    # on every shard; only a genuinely cold worker compiles.
    artifact = cache.lookup_fingerprint(payload.fingerprint)
    warm = artifact is not None
    if artifact is None:
        artifact = cache.get(payload.source)
    engine = SamplerEngine(artifact, strategy=payload.strategy)
    while len(_ENGINES) >= _MAX_ENGINES:
        _ENGINES.pop(next(iter(_ENGINES)))  # evict the LRU (front) entry
    _ENGINES[key] = engine
    return engine, warm, False


def _sample_indices(
    engine: Any, payload: ShardPayload, aggregate: Any, records: List[Dict[str, Any]]
) -> None:
    """The shard sampling loop.

    Splitmix mode (``payload.seeds`` given): scene *i* is drawn with its own
    ``Random(seeds[i])``, so the result is independent of how indices were
    sharded.  Direct mode: the shard draws sequentially from
    ``Random(master_seed)``, reproducing the classic
    ``Scenario.generate_batch`` stream.
    """
    sequential_rng = _random.Random(payload.master_seed) if payload.seeds is None else None
    for position, index in enumerate(payload.indices):
        rng = (
            sequential_rng
            if sequential_rng is not None
            else _random.Random(payload.seeds[position])
        )
        stats_before = engine.last_stats
        try:
            scene = engine.sample(max_iterations=payload.max_iterations, rng=rng)
        except Exception:
            # Keep the failing draw's diagnostics (when the engine
            # got far enough to produce any) in the shard stats.
            if engine.last_stats is not None and engine.last_stats is not stats_before:
                aggregate.record(engine.last_stats, payload.strategy, accepted=False)
            raise
        aggregate.record(engine.last_stats, payload.strategy, accepted=True)
        records.append(scene_record(scene, iterations=engine.last_stats.iterations))


def run_shard(payload: ShardPayload) -> ShardOutcome:
    """Sample one shard's scene indices into scene records; never raises.

    Holds :data:`_SHARD_LOCK` for the duration: shards within one process
    run serially (only observable in the coordinator's inline ``workers=0``
    mode — pool workers are single-threaded anyway), keeping the cached
    engines' state and stats coherent.
    """
    from ..sampling import AggregateStats

    start = time.perf_counter()
    aggregate = AggregateStats()
    records: List[Dict[str, Any]] = []
    error: Optional[Dict[str, Any]] = None
    cache_hit = False
    engine_hit = False
    try:
        with _SHARD_LOCK:
            engine, cache_hit, engine_hit = _engine_for(payload)
            _sample_indices(engine, payload, aggregate, records)
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
        engine_hit=engine_hit,
    )


__all__ = ["initialize_worker", "run_shard"]
