"""Async, sharded scene-generation service over compiled-scenario artifacts.

This package is the serving layer on top of the sampling stack (see
``docs/index.md`` for the full layer diagram and ``docs/service.md`` for the
guide):

* :mod:`repro.service.service` — :class:`GenerationService`, the asyncio
  front end: ``await service.generate(source_or_hash, n, seed, strategy)``
  shards a batch across a persistent worker-process pool with
  splitmix64-derived per-scene seeds (bit-identical results regardless of
  worker count), routes shards to workers by artifact fingerprint so
  per-worker engine caches stay warm, enforces backpressure, and rolls
  per-request sampling statistics up into the response.
  :meth:`GenerationService.generate_stream` yields scene blocks as shards
  complete instead of buffering the whole batch.
* :mod:`repro.service.worker` — the worker-process side: a process-local
  artifact cache plus a bound-engine LRU, so warm shards skip the parser
  and interpreter entirely.
* :mod:`repro.service.transport` — the columnar scene-block wire format
  (structured numpy buffers, optionally carried over shared memory) that
  replaces per-scene dict pickling between workers and the coordinator.
* :mod:`repro.service.server_http` — the stdlib-only HTTP front end
  (``/healthz``, ``/metrics``, ``POST /publish``, ``POST /generate`` with
  NDJSON streaming).
* :mod:`repro.service.protocol` — the plain-data request/response types and
  the seed-derivation contract.

CLI: ``python -m repro.service serve|smoke|parity|generate`` (see
``python -m repro.service --help``).
"""

from .protocol import (
    GenerateResponse,
    derive_scene_seeds,
    scene_record,
    splitmix64,
)
from .server_http import HttpGenerationServer, http_request
from .service import (
    GenerationFailedError,
    GenerationService,
    ServiceError,
    ServiceOverloadedError,
    generate_sync,
)
from .transport import SceneBlock, ShmBlockHandle

__all__ = [
    "GenerateResponse",
    "GenerationFailedError",
    "GenerationService",
    "HttpGenerationServer",
    "SceneBlock",
    "ServiceError",
    "ServiceOverloadedError",
    "ShmBlockHandle",
    "derive_scene_seeds",
    "generate_sync",
    "http_request",
    "scene_record",
    "splitmix64",
]
