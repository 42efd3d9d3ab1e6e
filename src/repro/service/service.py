"""The asyncio generation front end over a persistent worker-process pool.

:class:`GenerationService` is the serving layer the ROADMAP's "heavy
traffic" north star asks for, built on the compile-once artifacts of
:mod:`repro.language.compiler`:

* **compile once** — each worker keeps a process-local, in-memory artifact
  cache, so a program's parse/interpret cost is paid once per worker, not
  once per request;
* **shard + affinity** — a batch request is cut into per-worker shards whose
  scene seeds are derived with splitmix64 from ``(master_seed,
  scene_index)``, so the merged batch is bit-identical regardless of worker
  count or shard boundaries (pinned by the service's determinism tests).
  Shards are *routed by artifact fingerprint*: shard *k* of a program goes
  to worker ``(hash(fingerprint) + k) % workers``, so repeat requests for
  the same program land on workers whose artifact caches already hold it;
* **scene records** — workers hand each shard's scenes back as
  :func:`~repro.service.protocol.scene_record` dicts, the format clients
  receive;
* **async + backpressure + streaming** — ``generate`` is a coroutine; at
  most ``max_inflight`` requests run concurrently, at most ``max_queue``
  wait, and anything beyond that fails fast with
  :class:`ServiceOverloadedError` instead of growing an unbounded queue.
  :meth:`GenerationService.generate_stream` yields each shard's records as
  it completes; ``generate`` collects those same frames into one response;
* **stats** — every response carries the request-wide
  :class:`~repro.sampling.AggregateStats`-style roll-up (iterations,
  rejection breakdown by cause, worker cache hits, wall time).

Typical use::

    import asyncio
    from repro.service import GenerationService

    async def main():
        async with GenerationService(workers=2) as service:
            response = await service.generate(source, n=100, seed=7)
            response.scenes[0]["objects"]        # scene records, index order
            response.stats["rejections"]

            async for frame in service.generate_stream(source, n=100, seed=7):
                if frame["frame"] == "block":
                    consume(frame["indices"], frame["scenes"])

    asyncio.run(main())

For the HTTP front end see :mod:`repro.service.server_http`; for the CLI,
``python -m repro.service --help`` (``docs/service.md`` walks through
both).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import aclosing
from typing import Any, AsyncIterator, Dict, List, Optional

from ..core.scenario import DEFAULT_BATCH_STRATEGY
from ..language.compiler import ArtifactCache, compile_scenario, source_fingerprint
from ..sampling.strategies import make_strategy
from .protocol import (
    DERIVE_MODES,
    GenerateResponse,
    ShardOutcome,
    ShardPayload,
    derive_scene_seeds,
    merge_shard_stats,
)
from .worker import initialize_worker, run_shard

#: The most scenes one request may ask for (156x the largest perfbench
#: request).  ``n`` above it is refused before admission, so a request never
#: allocates its per-scene seeds and records unchecked.
MAX_SCENES_PER_REQUEST = 10_000


class ServiceError(RuntimeError):
    """Base class for generation-service failures."""


class ServiceOverloadedError(ServiceError):
    """The request was shed: the inflight slots and the wait queue are full."""


class GenerationFailedError(ServiceError):
    """A shard could not produce its scenes (budget exhausted, bad program, ...)."""

    def __init__(self, message: str, detail: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.detail = detail or {}


class GenerationService:
    """Async, process-sharded scene generation over compiled artifacts.

    Parameters
    ----------
    workers:
        Size of the persistent worker pool.  Each worker is its own
        single-process executor so the service can *route* shards to
        specific workers (fingerprint affinity).  ``0`` runs shards inline
        on a thread (no subprocesses) — handy for debugging and for
        platforms where forking is unavailable; the request/response
        semantics (and determinism) are identical.
    max_inflight:
        Requests allowed to run concurrently (default ``2 * max(workers, 1)``).
    max_queue:
        Requests allowed to *wait* for an inflight slot before new arrivals
        are shed with :class:`ServiceOverloadedError`.
    """

    def __init__(
        self,
        workers: int = 2,
        max_inflight: Optional[int] = None,
        max_queue: int = 32,
    ):
        self.workers = max(0, int(workers))
        self.max_inflight = max_inflight if max_inflight is not None else 2 * max(self.workers, 1)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_queue = max(0, int(max_queue))
        self.cache = ArtifactCache()
        self._sources: Dict[str, str] = {}
        self._pools: List[ProcessPoolExecutor] = []
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._pending = 0
        self._started = False
        self.stats: Dict[str, Any] = {
            "requests": 0,
            "streams": 0,
            "scenes": 0,
            "failures": 0,
            "shed": 0,
            "peak_pending": 0,
            "engine_cache_hits": 0,
            "engine_cache_misses": 0,
        }

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "GenerationService":
        """Spin up the worker pools (idempotent).

        One single-process executor per worker, rather than one N-process
        pool: a plain pool hands tasks to whichever worker is free, which
        defeats per-worker artifact caches.  Separate executors make the
        fingerprint → worker routing in :meth:`_worker_for` possible.
        """
        if self._started:
            return self
        self._pools = [self._new_pool() for _ in range(self.workers)]
        self._started = True
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(max_workers=1, initializer=initialize_worker)
        # A fork-started pool forks its worker at the first submit; do it
        # now.  A worker forked later, while a server has connections open,
        # inherits their sockets, and a connection the server closes then
        # never reaches the client as end-of-file.
        pool.submit(int)
        return pool

    async def close(self) -> None:
        """Drain and shut the pools down; safe to call twice."""
        pools, self._pools = self._pools, []
        self._started = False
        if pools:
            loop = asyncio.get_running_loop()
            await asyncio.gather(
                *(loop.run_in_executor(None, pool.shutdown) for pool in pools)
            )

    async def __aenter__(self) -> "GenerationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- program registry ---------------------------------------------------------

    def publish(self, source: str) -> str:
        """Register *source* and return its content address.

        Published programs can later be requested by fingerprint alone
        (``generate(fingerprint, ...)``), which is how remote clients avoid
        re-sending program text on every request.  Publishing also warms the
        coordinator's artifact cache (compile errors surface here, not at
        request time).
        """
        artifact = compile_scenario(source, cache=self.cache)
        self._sources[artifact.fingerprint] = artifact.source
        return artifact.fingerprint

    def resolve(self, source_or_hash: str) -> str:
        """Map a request's ``source_or_hash`` to program source text."""
        if source_or_hash in self._sources:
            return self._sources[source_or_hash]
        return source_or_hash

    # -- admission (backpressure) -------------------------------------------------

    def _admit(self) -> None:
        """Claim a pending slot or shed; the single admission gate.

        Every admitted request — blocking or streaming — MUST pair this
        with exactly one ``self._pending -= 1`` in a ``finally``; the
        callers below structure acquisition so that cancellation while
        queued on the inflight semaphore still restores both the counter
        and the semaphore (the regression test cancels a queued request and
        asserts full capacity returns).
        """
        if self._pending >= self.max_inflight + self.max_queue:
            self.stats["shed"] += 1
            raise ServiceOverloadedError(
                f"service overloaded: {self._pending} requests pending "
                f"(max_inflight={self.max_inflight}, max_queue={self.max_queue})"
            )
        self._pending += 1
        self.stats["peak_pending"] = max(self.stats["peak_pending"], self._pending)

    def _validate(
        self, n: int, seed: int, derive: str, strategy: str, max_iterations: int
    ) -> None:
        """Reject a malformed request before it is admitted or reaches a worker.

        An unknown strategy name is the client's ``ValueError``, not a shard
        failure.  ``n``, ``seed`` and ``max_iterations`` must be integers, and
        a ``bool`` is not one; ``n`` is at most :data:`MAX_SCENES_PER_REQUEST`.
        """
        for name, value in (("n", n), ("seed", seed), ("max_iterations", max_iterations)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if n < 0:
            raise ValueError("n must be non-negative")
        if n > MAX_SCENES_PER_REQUEST:
            raise ValueError(f"n must be at most {MAX_SCENES_PER_REQUEST}, not {n}")
        if derive not in DERIVE_MODES:
            raise ValueError(f"unknown derive mode {derive!r} (known: {DERIVE_MODES})")
        make_strategy(strategy)  # raises ValueError for an unknown name
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    # -- the front door -----------------------------------------------------------

    async def generate(
        self,
        source_or_hash: str,
        n: int = 1,
        seed: int = 0,
        strategy: str = DEFAULT_BATCH_STRATEGY,
        max_iterations: int = 2000,
        derive: str = "splitmix",
    ) -> GenerateResponse:
        """Sample *n* scenes of a program; the service's one front door.

        *source_or_hash* is Scenic source text, or the fingerprint of a
        program previously :meth:`publish`\\ ed.  *derive* picks the seed
        contract (see :func:`repro.service.protocol.derive_scene_seeds`):
        ``"splitmix"`` shards freely with per-scene seeds; ``"direct"`` runs
        unsharded, draw-for-draw equal to ``Scenario.generate_batch`` (and,
        with ``n=1``, to ``Scenario.generate`` — the golden corpus) under the
        same *strategy*, which defaults to
        :data:`~repro.core.scenario.DEFAULT_BATCH_STRATEGY`.

        The response is built from the frames :meth:`generate_stream` would
        yield for the same request, reassembled by index.

        Backpressure: waits for an inflight slot while the wait queue is
        below ``max_queue``, sheds with :class:`ServiceOverloadedError`
        beyond that.  The first failed shard (infeasible program, exhausted
        budget, compile error, dead worker) raises
        :class:`GenerationFailedError` with the worker's diagnostic attached.
        """
        if not self._started:
            await self.start()
        self._validate(n, seed, derive, strategy, max_iterations)
        self._admit()
        try:
            scenes: List[Any] = [None] * n
            async with self._inflight:
                async for frame in self._stream_admitted(
                    source_or_hash, n, seed, strategy, max_iterations, derive
                ):
                    if frame["frame"] == "block":
                        for index, record in zip(frame["indices"], frame["scenes"]):
                            scenes[index] = record
        finally:
            self._pending -= 1
        end = frame  # the stream always ends with its end frame
        return GenerateResponse(end["fingerprint"], strategy, seed, derive, scenes, end["stats"])

    async def generate_stream(
        self,
        source_or_hash: str,
        n: int = 1,
        seed: int = 0,
        strategy: str = DEFAULT_BATCH_STRATEGY,
        max_iterations: int = 2000,
        derive: str = "splitmix",
    ) -> AsyncIterator[Dict[str, Any]]:
        """Like :meth:`generate`, but yield each shard's records as it completes.

        An async iterator of JSON-safe *frames*:

        * ``{"frame": "block", "indices": [...], "scenes": [...],
          "shard": k, "worker_pid": pid}`` — one per completed shard, in
          completion (not index) order; ``scenes[j]`` is the record of
          global scene index ``indices[j]``;
        * ``{"frame": "end", "fingerprint": ..., "strategy": ..., "seed":
          ..., "derive": ..., "scenes": n, "stats": {...}}`` — always last.

        Reassembling block frames by their indices gives exactly
        :meth:`generate`'s ``response.scenes`` for the same request —
        streaming changes delivery, never content.

        The request holds its admission slot until the iterator is
        exhausted *or closed*: an abandoned stream (``aclose()``, garbage
        collection, ``break``) releases its slot when it is closed, without
        waiting for shards that are still running.
        """
        if not self._started:
            await self.start()
        self._validate(n, seed, derive, strategy, max_iterations)
        self._admit()
        try:
            async with self._inflight:
                self.stats["streams"] += 1
                async with aclosing(self._stream_admitted(
                    source_or_hash, n, seed, strategy, max_iterations, derive
                )) as frames:
                    async for frame in frames:
                        yield frame
        finally:
            self._pending -= 1

    # -- request execution --------------------------------------------------------

    async def _stream_admitted(
        self,
        source_or_hash: str,
        n: int,
        seed: int,
        strategy: str,
        max_iterations: int,
        derive: str,
    ) -> AsyncIterator[Dict[str, Any]]:
        """The one shard path: run an admitted request's shards, yield its frames."""
        start = time.perf_counter()
        source = self.resolve(source_or_hash)
        fingerprint = source_fingerprint(source)
        self.stats["requests"] += 1
        payloads = self._make_payloads(
            fingerprint, source, strategy, max_iterations, n, seed,
            derive_scene_seeds(seed, n, derive),
        )
        tasks = [
            asyncio.ensure_future(
                self._run_payload(payload, self._worker_for(fingerprint, shard))
            )
            for shard, payload in enumerate(payloads)
        ]
        done: List[ShardOutcome] = []
        try:
            for future in asyncio.as_completed(tasks):
                outcome = await future
                if outcome.error is not None:
                    self.stats["failures"] += 1
                    raise GenerationFailedError(
                        f"shard failed with {outcome.error['type']}: "
                        f"{outcome.error['message']}",
                        detail=outcome.error,
                    )
                done.append(outcome)
                self._note_worker_cache(outcome)
                yield {
                    "frame": "block",
                    "indices": list(outcome.indices),
                    "scenes": outcome.take_block(),
                    "shard": len(done) - 1,
                    "worker_pid": outcome.worker_pid,
                }
        finally:
            # Failed or abandoned: stop the shards that have not started.
            # Running ones cannot be stopped; nothing waits for them.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        self.stats["scenes"] += n
        stats = merge_shard_stats(done)
        stats["wall_seconds"] = time.perf_counter() - start
        yield {
            "frame": "end",
            "fingerprint": fingerprint,
            "strategy": strategy,
            "seed": seed,
            "derive": derive,
            "scenes": n,
            "stats": stats,
        }

    def _note_worker_cache(self, outcome: ShardOutcome) -> None:
        # Keyed ``engine_cache_*`` because ``perfbench/run.py`` reads these
        # keys: a hit is a shard whose worker already held the artifact.
        key = "engine_cache_hits" if outcome.cache_hit else "engine_cache_misses"
        self.stats[key] += 1

    def _worker_for(self, fingerprint: str, shard: int) -> Optional[int]:
        """Affinity routing: which worker pool shard *shard* runs on.

        Keyed by artifact fingerprint so repeated requests for one program
        revisit the same workers (warm artifact caches), with the shard
        ordinal fanning a single request's shards across distinct workers.
        ``None`` = inline mode (no pools).
        """
        if not self._pools:
            return None
        return (int(fingerprint[:16], 16) + shard) % len(self._pools)

    def _make_payloads(
        self,
        fingerprint: str,
        source: str,
        strategy: str,
        max_iterations: int,
        n: int,
        seed: int,
        seeds: Optional[List[int]],
    ) -> List[ShardPayload]:
        """Cut the request into contiguous index shards (1 shard in direct mode)."""
        shard_count = 1 if seeds is None else max(1, min(max(self.workers, 1), n))
        base, extra = divmod(n, shard_count)
        payloads: List[ShardPayload] = []
        next_index = 0
        for shard in range(shard_count):
            size = base + (1 if shard < extra else 0)
            if size == 0:
                continue
            indices = list(range(next_index, next_index + size))
            next_index += size
            payloads.append(
                ShardPayload(
                    fingerprint=fingerprint,
                    source=source,
                    strategy=strategy,
                    max_iterations=max_iterations,
                    indices=indices,
                    seeds=None if seeds is None else [seeds[index] for index in indices],
                    master_seed=seed,
                )
            )
        return payloads

    async def _run_payload(
        self, payload: ShardPayload, worker: Optional[int]
    ) -> ShardOutcome:
        """Run one shard; a dead worker process fails the shard, not the service.

        When the worker's process has died (``BrokenProcessPool``), its
        executor is replaced so the next request is served normally, and
        the shard comes back as a failed outcome, so the request fails like
        any other shard failure.
        """
        if worker is None:
            # workers=0: the default thread pool.
            return await asyncio.get_running_loop().run_in_executor(None, run_shard, payload)
        pool = self._pools[worker]
        try:
            return await asyncio.wrap_future(pool.submit(run_shard, payload))
        except BrokenProcessPool as error:
            # Concurrent shards on the same dead pool all land here: only the
            # first replaces it.
            if self._pools and self._pools[worker] is pool:
                self._pools[worker] = self._new_pool()
                pool.shutdown(wait=False)
            return ShardOutcome(
                indices=[],
                records=[],
                stats={},
                cache_hit=False,
                worker_pid=0,
                elapsed_seconds=0.0,
                error={
                    "type": type(error).__name__,
                    "message": f"worker {worker} died: {error}",
                    "index": payload.indices[0],
                },
            )

    # -- diagnostics --------------------------------------------------------------

    def service_stats(self) -> Dict[str, Any]:
        """Service-level counters (request totals, shedding, queue, affinity)."""
        return {
            **self.stats,
            "pending": self._pending,
            "workers": self.workers,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "published_programs": len(self._sources),
            "coordinator_cache": self.cache.stats.as_dict(),
        }


def generate_sync(
    source: str,
    n: int = 1,
    seed: int = 0,
    strategy: str = DEFAULT_BATCH_STRATEGY,
    workers: int = 0,
    **kwargs: Any,
) -> GenerateResponse:
    """One-shot synchronous convenience wrapper around a temporary service.

    Spins a service up (inline workers by default), runs a single
    ``generate`` request, and tears it down — useful in scripts and tests;
    long-lived callers should manage a :class:`GenerationService` instead.
    """

    async def _run() -> GenerateResponse:
        async with GenerationService(workers=workers) as service:
            return await service.generate(source, n=n, seed=seed, strategy=strategy, **kwargs)

    return asyncio.run(_run())


__all__ = [
    "MAX_SCENES_PER_REQUEST",
    "GenerationFailedError",
    "GenerationService",
    "ServiceError",
    "ServiceOverloadedError",
    "generate_sync",
]
