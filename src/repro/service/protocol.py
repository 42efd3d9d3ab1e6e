"""Wire-level types shared by the generation service and its workers.

Everything in this module is deliberately *plain data* — dicts, lists,
dataclasses of primitives — because it crosses two boundaries: the process
boundary between the asyncio front end and the worker pool (pickle), and
the HTTP boundary between the server and remote clients (JSON).
Live :class:`~repro.core.scene.Scene` objects close over interpreter state
and cannot cross either, so scenes travel as *scene records*: the same
class/position/heading/width/height summary the golden corpus pins down
(``tests/golden/``), which is also exactly what batch consumers (training
pipelines, exporters) read off a scene.  A worker builds each record once
(:func:`scene_record`) and the same dict reaches the client.

Seed derivation lives here too, because the determinism contract is part of
the protocol: see :func:`derive_scene_seeds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> int:
    """One step of the splitmix64 mixer (public-domain constants).

    Used to derive statistically independent per-scene seeds from
    ``seed + index`` so shards can be cut anywhere without changing
    any scene: scene *i*'s RNG depends only on ``(seed, i)``.
    """
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_scene_seeds(seed: int, count: int) -> List[int]:
    """Per-scene seeds for a *count*-scene request.

    Scene *i* gets ``splitmix64(seed + i)`` and is sampled with its
    own ``random.Random``, exactly as ``Scenario.generate(rng=...)`` samples
    it — a pure function of ``(seed, i)``, so the batch is
    bit-identical no matter how it is sharded across workers or how many
    workers exist.
    """
    return [splitmix64((seed + index) & _MASK64) for index in range(count)]


# ---------------------------------------------------------------------------
# Scene records
# ---------------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


def scene_record(scene: Any, iterations: Optional[int] = None) -> Dict[str, Any]:
    """A JSON-safe, full-precision summary of one sampled scene.

    The object fields mirror the golden corpus (``tests/golden/regen.py``)
    so service output can be diffed against it directly.
    """
    from ..core.vectors import Vector

    record: Dict[str, Any] = {
        "ego_index": scene.objects.index(scene.ego),
        "objects": [
            {
                "class": type(scenic_object).__name__,
                "position": list(Vector.from_any(scenic_object.position)),
                "heading": float(scenic_object.heading),
                "width": float(scenic_object.width),
                "height": float(scenic_object.height),
            }
            for scenic_object in scene.objects
        ],
        "params": _json_safe(getattr(scene, "params", {})),
    }
    if iterations is not None:
        record["iterations"] = iterations
    return record


# ---------------------------------------------------------------------------
# Requests and responses
# ---------------------------------------------------------------------------


@dataclass
class ShardPayload:
    """One worker-pool task: sample a slice of a request's scene indices.

    Crosses the process boundary as-is (dataclass of primitives).  ``seeds``
    pairs with ``indices`` one-to-one: each scene's own seed.
    """

    fingerprint: str
    source: str
    strategy: str
    max_iterations: int
    indices: List[int]
    seeds: List[int]


@dataclass
class ShardOutcome:
    """What one worker hands back for one :class:`ShardPayload`.

    ``records`` holds the shard's scenes as :func:`scene_record` dicts, in
    ``indices`` order; they pickle home with the rest of the outcome.
    """

    indices: List[int]
    records: List[Dict[str, Any]]
    stats: Dict[str, Any]
    cache_hit: bool
    worker_pid: int
    elapsed_seconds: float
    error: Optional[Dict[str, Any]] = None

    def take_block(self) -> List[Dict[str, Any]]:
        """Hand over the shard's scene records.

        The service calls this once per delivered shard, where the shard's
        scenes reach the coordinator (``perfbench/tracing.py`` times it).
        """
        return self.records


class GenerateResponse:
    """The front end's answer to one ``generate`` request.

    ``scenes`` holds scene records in index order.  ``stats`` is the
    request-wide roll-up (merged from every shard's
    :class:`~repro.sampling.AggregateStats`): accepted scenes, candidate
    iterations, the rejection breakdown by cause, worker cache hits and
    wall-clock time.
    """

    def __init__(
        self,
        fingerprint: str,
        strategy: str,
        seed: int,
        scenes: List[Dict[str, Any]],
        stats: Dict[str, Any],
    ):
        self.fingerprint = fingerprint
        self.strategy = strategy
        self.seed = seed
        self._scenes = scenes
        self.stats = stats

    @property
    def scenes(self) -> List[Dict[str, Any]]:
        """Scene records in index order.

        A property so that a tracer can time reads at the protocol edge
        (``perfbench/tracing.py`` wraps it).
        """
        return self._scenes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "seed": self.seed,
            "scenes": self.scenes,
            "stats": self.stats,
        }

    def __repr__(self) -> str:
        return (
            f"GenerateResponse({self.fingerprint[:12]}..., strategy={self.strategy!r}, "
            f"seed={self.seed}, scenes={len(self._scenes)})"
        )


def merge_shard_stats(outcomes: List[ShardOutcome]) -> Dict[str, Any]:
    """Roll per-shard stats dicts up into one request-wide stats dict."""
    # Rejection causes are owned by AggregateStats.rejection_breakdown (the
    # worker emits them); accumulating whatever keys arrive keeps this the
    # only service-side merge and never drops a newly added cause.
    totals: Dict[str, Any] = {
        "scenes": 0,
        "draws": 0,
        "iterations": 0,
        "rejections": {},
        "sampling_seconds": 0.0,
        "shards": len(outcomes),
        "worker_cache_hits": 0,
        "workers": [],
        "candidates": 0,
    }
    for outcome in outcomes:
        shard = outcome.stats
        totals["scenes"] += shard.get("scenes", 0)
        totals["draws"] += shard.get("draws", 0)
        totals["iterations"] += shard.get("iterations", 0)
        totals["candidates"] += shard.get("candidates", 0)
        totals["sampling_seconds"] += shard.get("sampling_seconds", 0.0)
        for cause, count in shard.get("rejections", {}).items():
            totals["rejections"][cause] = totals["rejections"].get(cause, 0) + count
        totals["worker_cache_hits"] += 1 if outcome.cache_hit else 0
        if outcome.worker_pid not in totals["workers"]:
            totals["workers"].append(outcome.worker_pid)
    totals["workers"].sort()
    return totals


__all__ = [
    "GenerateResponse",
    "ShardOutcome",
    "ShardPayload",
    "derive_scene_seeds",
    "merge_shard_stats",
    "scene_record",
    "splitmix64",
]
