"""A uniform-grid spatial index over axis-aligned bounding boxes.

Two paths need "which items are near X" queries:

* the pairwise collision check — :meth:`SpatialGrid.candidate_pairs` prunes
  the O(n²) pair enumeration down to pairs sharing at least one grid cell;
* scalar point location in large polygonal regions and fields (road maps) —
  :meth:`SpatialGrid.bucket_for_point` gives the one cell's polygons whose
  bounds cover the point.

The grid is conservative by construction: an item is registered in every
cell its (optionally margin-expanded) bounding box touches, so a query can
only over-approximate, never miss.  Exact predicates (separating-axis
overlap, ray-casting containment) run on the surviving candidates.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class SpatialGrid:
    """A uniform grid over ``(N, 4)`` boxes of (minx, miny, maxx, maxy) rows."""

    def __init__(
        self,
        boxes: np.ndarray,
        cell_size: Optional[float] = None,
        margin: float = 0.0,
    ):
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        if margin:
            boxes = boxes + np.array([-margin, -margin, margin, margin])
        self.boxes = boxes
        self.count = len(boxes)
        if self.count == 0:
            self.cell_size = 1.0
            self.origin = (0.0, 0.0)
            self._cells: Dict[Tuple[int, int], List[int]] = {}
            self._occupied_bounds = (0, 0, -1, -1)
            return
        if cell_size is None:
            # Twice the median box extent keeps most items in O(1) cells
            # while cells stay small enough to separate distant items.
            extents = np.maximum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
            cell_size = 2.0 * float(np.median(extents))
            if cell_size <= 0.0:
                cell_size = 1.0
        self.cell_size = float(cell_size)
        self.origin = (float(boxes[:, 0].min()), float(boxes[:, 1].min()))
        self._cells = {}
        for index in range(self.count):
            for key in self._covered_cells(boxes[index]):
                self._cells.setdefault(key, []).append(index)
        occupied_x = [key[0] for key in self._cells]
        occupied_y = [key[1] for key in self._cells]
        self._occupied_bounds = (
            min(occupied_x), min(occupied_y), max(occupied_x), max(occupied_y)
        )

    @classmethod
    def from_polygons(cls, polygons: Sequence[Any], margin: float = 1e-6,
                      cell_size: Optional[float] = None) -> "SpatialGrid":
        """A grid over polygon bounding boxes (margin absorbs edge tolerances)."""
        boxes = np.empty((len(polygons), 4), dtype=float)
        for index, polygon in enumerate(polygons):
            box = polygon.bounding_box()
            boxes[index] = (box.min_x, box.min_y, box.max_x, box.max_y)
        return cls(boxes, cell_size=cell_size, margin=margin)

    # -- cell arithmetic ---------------------------------------------------------

    def _cell_range(self, box: np.ndarray) -> Tuple[int, int, int, int]:
        ox, oy = self.origin
        size = self.cell_size
        min_cx = int(np.floor((box[0] - ox) / size))
        min_cy = int(np.floor((box[1] - oy) / size))
        max_cx = int(np.floor((box[2] - ox) / size))
        max_cy = int(np.floor((box[3] - oy) / size))
        return min_cx, min_cy, max_cx, max_cy

    def _covered_cells(self, box: np.ndarray) -> Iterable[Tuple[int, int]]:
        min_cx, min_cy, max_cx, max_cy = self._cell_range(box)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                yield (cx, cy)

    # -- queries -----------------------------------------------------------------

    def query_box(self, box: Any) -> np.ndarray:
        """Indices of items whose cells intersect *box*, sorted ascending.

        *box* is (minx, miny, maxx, maxy) or a ``BoundingBox``.  The result
        over-approximates true AABB intersection (cell granularity), never
        misses.
        """
        if hasattr(box, "min_x"):
            box = (box.min_x, box.min_y, box.max_x, box.max_y)
        box = np.asarray(box, dtype=float)
        if not self._cells:
            return np.zeros(0, dtype=int)
        # Clamp to the occupied cell range: a query box spanning the whole
        # workspace must not iterate millions of empty cells.
        min_cx, min_cy, max_cx, max_cy = self._cell_range(box)
        low_x, low_y, high_x, high_y = self._occupied_bounds
        found: set = set()
        for cx in range(max(min_cx, low_x), min(max_cx, high_x) + 1):
            for cy in range(max(min_cy, low_y), min(max_cy, high_y) + 1):
                bucket = self._cells.get((cx, cy))
                if bucket:
                    found.update(bucket)
        return np.array(sorted(found), dtype=int)

    def query_point(self, x: float, y: float) -> np.ndarray:
        """Indices of items whose cells cover the point, sorted ascending."""
        return self.query_box((x, y, x, y))

    def bucket_for_point(self, x: float, y: float) -> Sequence[int]:
        """Item indices of the single cell covering ``(x, y)``, ascending.

        The allocation-free fast path for scalar point location: a point maps
        to exactly one grid cell, and buckets are built by inserting item
        indices in ascending order, so the returned list is already sorted —
        scanning it in order visits items in the same order a linear scan
        over all items would.
        """
        if not self._cells:
            return ()
        ox, oy = self.origin
        size = self.cell_size
        key = (math.floor((x - ox) / size), math.floor((y - oy) / size))
        return self._cells.get(key, ())

    def candidate_pairs(self) -> np.ndarray:
        """All item pairs sharing at least one cell, as ``(M, 2)`` with i < j.

        Pairs come out in lexicographic order, so downstream results match
        the scalar double loop's enumeration order.
        """
        pairs: set = set()
        for bucket in self._cells.values():
            if len(bucket) < 2:
                continue
            for position, first in enumerate(bucket):
                for second in bucket[position + 1:]:
                    if first < second:
                        pairs.add((first, second))
                    else:
                        pairs.add((second, first))
        if not pairs:
            return np.zeros((0, 2), dtype=int)
        return np.array(sorted(pairs), dtype=int)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"SpatialGrid({self.count} items, cell={self.cell_size:g}, "
            f"{len(self._cells)} occupied cells)"
        )


__all__ = ["SpatialGrid"]
