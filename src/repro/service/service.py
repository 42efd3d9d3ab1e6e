"""The asyncio generation front end over a persistent worker-process pool.

:class:`GenerationService` is the serving layer the ROADMAP's "heavy
traffic" north star asks for, built on the compile-once artifacts of
:mod:`repro.language.compiler`:

* **compile once** — workers keep a process-local artifact cache (optionally
  backed by one shared disk directory), so a program's parse/interpret cost
  is paid once per worker, not once per request;
* **shard + affinity** — a batch request is cut into per-worker shards whose
  scene seeds are derived with splitmix64 from ``(master_seed,
  scene_index)``, so the merged batch is bit-identical regardless of worker
  count or shard boundaries (pinned by the service's determinism tests).
  Shards are *routed by artifact fingerprint*: shard *k* of a program goes
  to worker ``(hash(fingerprint) + k) % workers``, so repeat requests for
  the same program land on workers whose bound-engine caches already hold
  it;
* **columnar transport** — workers hand scenes back as structured numpy
  blocks (:mod:`repro.service.transport`), over shared memory for large
  shards, and JSON scene records are materialised lazily at the protocol
  edge;
* **async + backpressure + streaming** — ``generate`` is a coroutine; at
  most ``max_inflight`` requests run concurrently, at most ``max_queue``
  wait, and anything beyond that fails fast with
  :class:`ServiceOverloadedError` instead of growing an unbounded queue.
  :meth:`GenerationService.generate_stream` yields scene blocks as shards
  complete instead of buffering the whole response;
* **stats** — every response carries the request-wide
  :class:`~repro.sampling.AggregateStats`-style roll-up (iterations,
  rejection breakdown by cause, worker cache and engine-affinity hits, wall
  time).

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

For the TCP front end see :mod:`repro.service.server`, for HTTP/WebSocket
:mod:`repro.service.server_http`; for the CLI, ``python -m repro.service
--help`` (``docs/service.md`` walks through all of them).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from ..language.compiler import ArtifactCache, compile_scenario, source_fingerprint
from ..sampling.strategies import make_strategy
from .protocol import (
    DERIVE_MODES,
    TRANSPORT_MODES,
    GenerateResponse,
    ShardOutcome,
    ShardPayload,
    derive_scene_seeds,
    merge_shard_stats,
)
from .transport import DEFAULT_SHM_THRESHOLD, SceneBlock
from .worker import initialize_worker, run_shard


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
    cache_dir:
        Optional directory for the workers' shared on-disk artifact layer;
        also used by the coordinator's own cache.
    worker_cache_size:
        Per-worker in-memory artifact LRU size.
    transport:
        Cross-process scene carrier: ``"shm"`` (shared-memory segments for
        blocks above *shm_threshold* bytes) or ``"pickle"``.  Default:
        ``"shm"`` with a process pool, ``"pickle"`` inline (a segment round
        trip buys nothing in-process).
    shm_threshold:
        Minimum packed block size (bytes) before ``"shm"`` creates a
        segment; smaller blocks pickle their arrays.
    """

    def __init__(
        self,
        workers: int = 2,
        max_inflight: Optional[int] = None,
        max_queue: int = 32,
        cache_dir: Optional[str] = None,
        worker_cache_size: int = 64,
        transport: Optional[str] = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    ):
        self.workers = max(0, int(workers))
        self.max_inflight = max_inflight if max_inflight is not None else 2 * max(self.workers, 1)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_queue = max(0, int(max_queue))
        self.cache_dir = cache_dir
        self.worker_cache_size = worker_cache_size
        if transport is None:
            transport = "shm" if self.workers > 0 else "pickle"
        if transport not in TRANSPORT_MODES:
            raise ValueError(
                f"unknown transport {transport!r} (known: {TRANSPORT_MODES})"
            )
        self.transport = transport
        self.shm_threshold = int(shm_threshold)
        self.cache = ArtifactCache(disk_dir=cache_dir)
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
        defeats per-worker engine caches.  Separate executors make the
        fingerprint → worker routing in :meth:`_worker_for` possible.
        """
        if self._started:
            return self
        self._pools = [self._new_pool() for _ in range(self.workers)]
        self._started = True
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=initialize_worker,
            initargs=(self.cache_dir, self.worker_cache_size),
        )

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
        self,
        n: int,
        derive: str,
        strategy: str,
        max_iterations: int,
        strategy_options: Dict[str, Any],
    ) -> None:
        """Reject a malformed request before it is admitted or reaches a worker.

        The strategy is built once from *strategy_options* here, so an
        unknown strategy or an option it does not take is the client's
        ``ValueError``, not a shard failure.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if derive not in DERIVE_MODES:
            raise ValueError(f"unknown derive mode {derive!r} (known: {DERIVE_MODES})")
        try:
            make_strategy(strategy, **strategy_options)
        except TypeError as error:
            raise ValueError(f"bad options for strategy {strategy!r}: {error}") from error
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    # -- the front door -----------------------------------------------------------

    async def generate(
        self,
        source_or_hash: str,
        n: int = 1,
        seed: int = 0,
        strategy: str = "rejection",
        max_iterations: int = 2000,
        derive: str = "splitmix",
        **strategy_options: Any,
    ) -> GenerateResponse:
        """Sample *n* scenes of a program; the service's one front door.

        *source_or_hash* is Scenic source text, or the fingerprint of a
        program previously :meth:`publish`\\ ed.  *derive* picks the seed
        contract (see :func:`repro.service.protocol.derive_scene_seeds`):
        ``"splitmix"`` shards freely with per-scene seeds; ``"direct"`` runs
        unsharded, draw-for-draw equal to ``Scenario.generate_batch`` (and,
        with ``n=1``, to ``Scenario.generate`` — the golden corpus).

        Backpressure: waits for an inflight slot while the wait queue is
        below ``max_queue``, sheds with :class:`ServiceOverloadedError`
        beyond that.  Failures of any shard (infeasible program, exhausted
        budget, compile error) raise :class:`GenerationFailedError` with the
        worker's diagnostic attached.
        """
        if not self._started:
            await self.start()
        self._validate(n, derive, strategy, max_iterations, strategy_options)
        self._admit()
        try:
            async with self._inflight:
                return await self._generate_admitted(
                    source_or_hash, n, seed, strategy, max_iterations, derive, strategy_options
                )
        finally:
            self._pending -= 1

    async def generate_stream(
        self,
        source_or_hash: str,
        n: int = 1,
        seed: int = 0,
        strategy: str = "rejection",
        max_iterations: int = 2000,
        derive: str = "splitmix",
        **strategy_options: Any,
    ) -> AsyncIterator[Dict[str, Any]]:
        """Like :meth:`generate`, but yield scene blocks as shards complete.

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
        collection, ``break``) releases backpressure capacity and discards
        any undelivered shared-memory blocks.
        """
        if not self._started:
            await self.start()
        self._validate(n, derive, strategy, max_iterations, strategy_options)
        self._admit()
        try:
            acquired = False
            await self._inflight.acquire()
            acquired = True
            try:
                async for frame in self._stream_admitted(
                    source_or_hash, n, seed, strategy, max_iterations, derive, strategy_options
                ):
                    yield frame
            finally:
                if acquired:
                    self._inflight.release()
        finally:
            self._pending -= 1

    # -- request execution --------------------------------------------------------

    def _begin_request(
        self, source_or_hash: str, strategy: str, seed: int, derive: str
    ) -> Tuple[str, str, GenerateResponse]:
        source = self.resolve(source_or_hash)
        fingerprint = source_fingerprint(source)
        self.stats["requests"] += 1
        response = GenerateResponse(
            fingerprint=fingerprint, strategy=strategy, seed=seed, derive=derive
        )
        return source, fingerprint, response

    async def _generate_admitted(
        self,
        source_or_hash: str,
        n: int,
        seed: int,
        strategy: str,
        max_iterations: int,
        derive: str,
        strategy_options: Dict[str, Any],
    ) -> GenerateResponse:
        start = time.perf_counter()
        source, fingerprint, response = self._begin_request(
            source_or_hash, strategy, seed, derive
        )
        if n == 0:
            response.stats = merge_shard_stats([])
            response.stats["wall_seconds"] = time.perf_counter() - start
            return response

        seeds = derive_scene_seeds(seed, n, derive)
        payloads = self._make_payloads(
            fingerprint, source, strategy, strategy_options, max_iterations, n, seed, seeds
        )
        outcomes = await asyncio.gather(
            *(
                self._run_payload(payload, self._worker_for(fingerprint, shard))
                for shard, payload in enumerate(payloads)
            )
        )

        failed = next((outcome for outcome in outcomes if outcome.error is not None), None)
        if failed is not None:
            for outcome in outcomes:
                outcome.discard_block()
            self.stats["failures"] += 1
            raise GenerationFailedError(
                f"shard failed with {failed.error['type']}: {failed.error['message']}",
                detail=failed.error,
            )

        blocks: List[Tuple[List[int], SceneBlock]] = []
        for outcome in outcomes:
            block = outcome.take_block()  # releases any shm segment now
            blocks.append((outcome.indices, block))
            self._note_engine_cache(outcome)
        response.attach_blocks(blocks, n)
        response.stats = merge_shard_stats(list(outcomes))
        response.stats["wall_seconds"] = time.perf_counter() - start
        self.stats["scenes"] += n
        return response

    async def _stream_admitted(
        self,
        source_or_hash: str,
        n: int,
        seed: int,
        strategy: str,
        max_iterations: int,
        derive: str,
        strategy_options: Dict[str, Any],
    ) -> AsyncIterator[Dict[str, Any]]:
        start = time.perf_counter()
        source, fingerprint, response = self._begin_request(
            source_or_hash, strategy, seed, derive
        )
        self.stats["streams"] += 1

        def end_frame(outcomes: List[ShardOutcome]) -> Dict[str, Any]:
            stats = merge_shard_stats(outcomes)
            stats["wall_seconds"] = time.perf_counter() - start
            return {
                "frame": "end",
                "fingerprint": fingerprint,
                "strategy": strategy,
                "seed": seed,
                "derive": derive,
                "scenes": n,
                "stats": stats,
            }

        if n == 0:
            yield end_frame([])
            return

        seeds = derive_scene_seeds(seed, n, derive)
        payloads = self._make_payloads(
            fingerprint, source, strategy, strategy_options, max_iterations, n, seed, seeds
        )
        tasks = [
            asyncio.ensure_future(
                self._run_payload(payload, self._worker_for(fingerprint, shard))
            )
            for shard, payload in enumerate(payloads)
        ]
        done: List[ShardOutcome] = []
        delivered = set()  # id() of outcomes whose block we have taken
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
                block = outcome.take_block()
                delivered.add(id(outcome))
                done.append(outcome)
                self._note_engine_cache(outcome)
                yield {
                    "frame": "block",
                    "indices": list(outcome.indices),
                    "scenes": block.records(),
                    "shard": len(done) - 1,
                    "worker_pid": outcome.worker_pid,
                }
            self.stats["scenes"] += n
            yield end_frame(done)
        finally:
            # Abandoned or failed mid-stream: stop what can be stopped and
            # free every block we never handed out (incl. shm segments from
            # shards that finished after the failure).
            for task in tasks:
                if not task.done():
                    task.cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            for result in results:
                if isinstance(result, ShardOutcome) and id(result) not in delivered:
                    result.discard_block()

    def _note_engine_cache(self, outcome: ShardOutcome) -> None:
        key = "engine_cache_hits" if outcome.engine_hit else "engine_cache_misses"
        self.stats[key] += 1

    def _worker_for(self, fingerprint: str, shard: int) -> Optional[int]:
        """Affinity routing: which worker pool shard *shard* runs on.

        Keyed by artifact fingerprint so repeated requests for one program
        revisit the same workers (warm bound-engine caches), with the shard
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
        strategy_options: Dict[str, Any],
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
        transport = self.transport if self._pools else "pickle"
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
                    strategy_options=dict(strategy_options),
                    max_iterations=max_iterations,
                    indices=indices,
                    seeds=None if seeds is None else [seeds[index] for index in indices],
                    master_seed=seed,
                    transport=transport,
                    shm_threshold=self.shm_threshold,
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
            # workers=0: the default thread pool, pickle transport.
            return await asyncio.get_running_loop().run_in_executor(None, run_shard, payload)
        pool = self._pools[worker]
        try:
            future = pool.submit(run_shard, payload)
            try:
                return await asyncio.wrap_future(future)
            except asyncio.CancelledError:
                # A running shard cannot be stopped: free its block when it lands.
                if not future.cancel():
                    future.add_done_callback(_discard_late_outcome)
                raise
        except BrokenProcessPool as error:
            # Concurrent shards on the same dead pool all land here: only the
            # first replaces it.
            if self._pools and self._pools[worker] is pool:
                self._pools[worker] = self._new_pool()
                pool.shutdown(wait=False)
            return ShardOutcome(
                indices=[],
                block=None,
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
        engine_lookups = self.stats["engine_cache_hits"] + self.stats["engine_cache_misses"]
        return {
            **self.stats,
            "pending": self._pending,
            "workers": self.workers,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "transport": self.transport,
            "engine_cache_hit_rate": (
                self.stats["engine_cache_hits"] / engine_lookups if engine_lookups else 0.0
            ),
            "published_programs": len(self._sources),
            "coordinator_cache": self.cache.stats.as_dict(),
        }


def _discard_late_outcome(future: Future[ShardOutcome]) -> None:
    """Free the block of a shard whose request stopped waiting for it."""
    if not future.cancelled() and future.exception() is None:
        future.result().discard_block()


def generate_sync(
    source: str,
    n: int = 1,
    seed: int = 0,
    strategy: str = "rejection",
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
    "GenerationFailedError",
    "GenerationService",
    "ServiceError",
    "ServiceOverloadedError",
    "generate_sync",
]
