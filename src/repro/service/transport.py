"""Columnar scene-block transport for the generation service.

Scenes used to cross the worker → coordinator process boundary as pickled
per-scene dicts (:func:`~repro.service.protocol.scene_record` output).  That
shape is what remote clients ultimately receive, but it is a wasteful wire
format between processes: every scene re-pickles the same key strings, every
object is a dict of boxed floats, and the coordinator immediately re-walks
the whole structure to merge shards.

This module packs a shard's scenes *columnar* instead — one
:class:`SceneBlock` per shard, holding structured numpy buffers:

* ``obj_data`` — ``(total_objects, 5)`` float64 columns ``x, y, heading,
  width, height``;
* ``obj_offsets`` — the ragged index: scene *i*'s objects are rows
  ``obj_offsets[i]:obj_offsets[i+1]``;
* ``class_ids`` + a string table for object class names;
* per-scene ``ego_indices`` / ``iterations`` (−1 = not recorded) /
  ``weights`` (importance weights, 1.0 = none);
* ``params_blob`` + ``params_offsets`` — per-scene JSON-encoded ``param``
  dicts (empty slice = no params).

Blocks travel one of two ways, chosen by
:meth:`SceneBlock.to_wire`: small blocks pickle as numpy arrays (compact,
one buffer per column instead of per-scene dicts), large blocks are copied
into a :mod:`multiprocessing.shared_memory` segment and only a tiny
:class:`ShmBlockHandle` (segment name + layout counts) crosses the pipe.
The coordinator materialises JSON scene records *lazily* at the protocol
edge (:meth:`SceneBlock.records`), and the reconstruction is bit-identical
to :func:`~repro.service.protocol.scene_record`: float64 columns preserve
the exact sampled doubles and params round-trip through JSON's
shortest-repr float encoding.

Shared-memory lifecycle: the worker creates the segment, copies the block
in and closes its mapping; the coordinator attaches, copies the arrays back
out and immediately closes **and unlinks** the segment
(:meth:`ShmBlockHandle.load`, or :meth:`ShmBlockHandle.discard` on error
paths), so no segment outlives its request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Columns of ``SceneBlock.obj_data``, in storage order.
OBJECT_COLUMNS = ("x", "y", "heading", "width", "height")

#: Blocks at least this large (payload bytes) default to shared-memory
#: carriage when the worker runs in a separate process.  Below it, pickling
#: a handful of small arrays through the pool's result pipe is cheaper than
#: a segment create/attach round trip.
DEFAULT_SHM_THRESHOLD = 32_768

_ALIGN = 8


def _json_safe(value: Any) -> Any:
    """JSON-encodable view of a params value (mirrors protocol._json_safe)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


@dataclass
class SceneBlock:
    """A shard's scenes as structured column arrays plus a ragged index."""

    obj_offsets: np.ndarray  # (scenes + 1,) int64
    obj_data: np.ndarray  # (total_objects, 5) float64 — OBJECT_COLUMNS
    class_ids: np.ndarray  # (total_objects,) int32 into class_names
    class_names: List[str]
    ego_indices: np.ndarray  # (scenes,) int64
    iterations: np.ndarray  # (scenes,) int64, -1 = not recorded
    weights: np.ndarray  # (scenes,) float64 importance weights, 1.0 = none
    params_offsets: np.ndarray  # (scenes + 1,) int64 into params_blob
    params_blob: bytes  # concatenated per-scene JSON params ('' = none)

    # -- construction -------------------------------------------------------------

    @staticmethod
    def pack(
        scenes: Sequence[Any],
        iterations: Optional[Sequence[Optional[int]]] = None,
    ) -> "SceneBlock":
        """Pack live scenes into columns, worker-side.

        This replaces building one ``scene_record`` dict per scene: object
        fields go straight from the concrete objects into float64 columns
        and only the (rare) ``param`` dicts pay a JSON encode.
        """
        from ..core.vectors import Vector

        scene_count = len(scenes)
        obj_offsets = np.zeros(scene_count + 1, dtype=np.int64)
        ego_indices = np.zeros(scene_count, dtype=np.int64)
        iteration_column = np.full(scene_count, -1, dtype=np.int64)
        weights = np.ones(scene_count, dtype=np.float64)
        class_names: List[str] = []
        class_index: Dict[str, int] = {}
        rows: List[Tuple[float, float, float, float, float]] = []
        ids: List[int] = []
        params_parts: List[bytes] = []
        params_offsets = np.zeros(scene_count + 1, dtype=np.int64)

        for position, scene in enumerate(scenes):
            ego_indices[position] = scene.objects.index(scene.ego)
            if iterations is not None and iterations[position] is not None:
                iteration_column[position] = int(iterations[position])
            weights[position] = float(getattr(scene, "importance_weight", 1.0))
            for scenic_object in scene.objects:
                name = type(scenic_object).__name__
                identifier = class_index.get(name)
                if identifier is None:
                    identifier = class_index[name] = len(class_names)
                    class_names.append(name)
                ids.append(identifier)
                x, y = Vector.from_any(scenic_object.position)
                rows.append(
                    (
                        float(x),
                        float(y),
                        float(scenic_object.heading),
                        float(scenic_object.width),
                        float(scenic_object.height),
                    )
                )
            obj_offsets[position + 1] = len(rows)
            params = _json_safe(getattr(scene, "params", {}) or {})
            encoded = json.dumps(params).encode("utf-8") if params else b""
            params_parts.append(encoded)
            params_offsets[position + 1] = params_offsets[position] + len(encoded)

        obj_data = (
            np.array(rows, dtype=np.float64)
            if rows
            else np.zeros((0, 5), dtype=np.float64)
        )
        return SceneBlock(
            obj_offsets=obj_offsets,
            obj_data=obj_data,
            class_ids=np.array(ids, dtype=np.int32),
            class_names=class_names,
            ego_indices=ego_indices,
            iterations=iteration_column,
            weights=weights,
            params_offsets=params_offsets,
            params_blob=b"".join(params_parts),
        )

    # -- shape --------------------------------------------------------------------

    @property
    def scene_count(self) -> int:
        return len(self.ego_indices)

    def __len__(self) -> int:
        return self.scene_count

    @property
    def nbytes(self) -> int:
        """Payload bytes a shared-memory segment for this block needs."""
        return sum(_padded(part.nbytes) for part in self._arrays()) + _padded(
            len(self.params_blob)
        )

    def _arrays(self) -> List[np.ndarray]:
        return [
            self.obj_offsets,
            self.obj_data,
            self.class_ids,
            self.ego_indices,
            self.iterations,
            self.weights,
            self.params_offsets,
        ]

    # -- record materialisation (the protocol edge) -------------------------------

    def record_at(self, position: int) -> Dict[str, Any]:
        """Scene *position* as a JSON scene record.

        Key order and presence rules mirror
        :func:`~repro.service.protocol.scene_record` exactly: ``iterations``
        appears only when recorded, ``importance_weight`` only when ≠ 1.0.
        """
        start, end = int(self.obj_offsets[position]), int(self.obj_offsets[position + 1])
        objects = []
        data = self.obj_data
        for row in range(start, end):
            x, y, heading, width, height = data[row]
            objects.append(
                {
                    "class": self.class_names[int(self.class_ids[row])],
                    "position": [float(x), float(y)],
                    "heading": float(heading),
                    "width": float(width),
                    "height": float(height),
                }
            )
        span = self.params_blob[
            int(self.params_offsets[position]) : int(self.params_offsets[position + 1])
        ]
        record: Dict[str, Any] = {
            "ego_index": int(self.ego_indices[position]),
            "objects": objects,
            "params": json.loads(span.decode("utf-8")) if span else {},
        }
        if self.iterations[position] >= 0:
            record["iterations"] = int(self.iterations[position])
        weight = float(self.weights[position])
        if weight != 1.0:
            record["importance_weight"] = weight
        return record

    def records(self) -> List[Dict[str, Any]]:
        """All scenes as JSON scene records, in block order."""
        return [self.record_at(position) for position in range(self.scene_count)]

    # -- wire carriage ------------------------------------------------------------

    def to_wire(self, threshold: Optional[int]) -> "SceneBlock | ShmBlockHandle":
        """Choose the cross-process carrier for this block.

        Returns ``self`` (pickled as numpy columns) for blocks below
        *threshold* bytes or when *threshold* is ``None`` (inline shards),
        else a :class:`ShmBlockHandle` after copying the columns into a
        fresh shared-memory segment.
        """
        if threshold is None or self.nbytes < threshold:
            return self
        return self.to_shared_memory()

    def to_shared_memory(self) -> "ShmBlockHandle":
        """Copy the block into a new shared-memory segment (worker-side)."""
        from multiprocessing import shared_memory

        size = max(self.nbytes, 1)
        segment = shared_memory.SharedMemory(create=True, size=size)
        try:
            cursor = 0
            for array in self._arrays():
                raw = array.tobytes()
                segment.buf[cursor : cursor + len(raw)] = raw
                cursor += _padded(len(raw))
            if self.params_blob:
                segment.buf[cursor : cursor + len(self.params_blob)] = self.params_blob
            handle = ShmBlockHandle(
                name=segment.name,
                scene_count=self.scene_count,
                object_count=len(self.class_ids),
                params_nbytes=len(self.params_blob),
                class_names=list(self.class_names),
            )
        except Exception:
            segment.close()
            segment.unlink()
            raise
        segment.close()
        _transfer_ownership(segment._name, adopt=False)  # the reader unlinks
        return handle


def _padded(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _transfer_ownership(name: str, adopt: bool) -> None:
    """Move a segment's resource-tracker registration across processes.

    ``SharedMemory(create=True)`` registers the segment with the *creating*
    process's resource tracker, but pool workers (forked before any segment
    existed) each lazily spawn their own tracker — which would then warn
    about a "leaked" segment the coordinator has long since unlinked.  The
    creating worker therefore *disowns* the segment (unregister) once the
    handle is on the wire, and the coordinator *adopts* it (register)
    before unlinking, so unlink's own unregister is balanced and a crashed
    coordinator still gets its segments reaped by its tracker at exit.
    """
    from multiprocessing import resource_tracker

    try:
        if adopt:
            resource_tracker.register(name, "shared_memory")
        else:
            resource_tracker.unregister(name, "shared_memory")
    except Exception:  # pragma: no cover - tracker may be absent (exotic spawn)
        pass


@dataclass
class ShmBlockHandle:
    """The pickled stand-in for a block carried via shared memory.

    Only the segment name, the layout counts needed to slice it, and the
    class-name string table cross the process boundary; the scene data
    itself stays in the segment until :meth:`load` copies it back out.
    """

    name: str
    scene_count: int
    object_count: int
    params_nbytes: int
    class_names: List[str] = field(default_factory=list)

    def load(self) -> SceneBlock:
        """Attach, copy the columns out, then close **and unlink** the segment."""
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=self.name)
        _transfer_ownership(segment._name, adopt=True)
        try:
            cursor = 0

            def take(dtype: np.dtype, count: int, shape=None) -> np.ndarray:
                nonlocal cursor
                nbytes = np.dtype(dtype).itemsize * count
                array = np.frombuffer(
                    segment.buf, dtype=dtype, count=count, offset=cursor
                ).copy()
                cursor += _padded(nbytes)
                return array.reshape(shape) if shape is not None else array

            scenes, objects = self.scene_count, self.object_count
            obj_offsets = take(np.int64, scenes + 1)
            obj_data = take(np.float64, objects * 5, shape=(objects, 5))
            class_ids = take(np.int32, objects)
            ego_indices = take(np.int64, scenes)
            iterations = take(np.int64, scenes)
            weights = take(np.float64, scenes)
            params_offsets = take(np.int64, scenes + 1)
            params_blob = bytes(segment.buf[cursor : cursor + self.params_nbytes])
        finally:
            segment.close()
        segment.unlink()
        return SceneBlock(
            obj_offsets=obj_offsets,
            obj_data=obj_data,
            class_ids=class_ids,
            class_names=list(self.class_names),
            ego_indices=ego_indices,
            iterations=iterations,
            weights=weights,
            params_offsets=params_offsets,
            params_blob=params_blob,
        )

    def discard(self) -> None:
        """Free the segment without materialising (failed-request cleanup)."""
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return
        _transfer_ownership(segment._name, adopt=True)
        segment.close()
        segment.unlink()


def materialize_block(carrier: "SceneBlock | ShmBlockHandle | None") -> Optional[SceneBlock]:
    """Resolve a wire carrier back into a :class:`SceneBlock` (or ``None``)."""
    if carrier is None:
        return None
    if isinstance(carrier, ShmBlockHandle):
        return carrier.load()
    return carrier


__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "OBJECT_COLUMNS",
    "SceneBlock",
    "ShmBlockHandle",
    "materialize_block",
]
