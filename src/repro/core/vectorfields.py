"""Vector fields: an orientation associated to each point in space.

The case study's ``roadDirection`` (the prevailing traffic direction) is the
canonical example.  Vector fields are used

* by the ``facing vectorField`` heading specifier,
* by the ``on region`` specifier when a region has a preferred orientation,
* by the ``follow F [from V] for S`` operator (forward-Euler integration,
  Appendix C), and
* by orientation-based pruning, which needs fields that are *piecewise
  constant over polygons* (:class:`PolygonalVectorField`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..geometry.polygon import Polygon, on_edge_reach
from .distributions import FunctionDistribution, needs_sampling
from .utils import normalize_angle
from .vectors import Vector, VectorLike


class VectorField:
    """A heading-valued function of position."""

    def __init__(self, name: str, value_function: Callable[[Vector], float],
                 default_heading: float = 0.0):
        self.name = name
        self._value_function = value_function
        self.default_heading = default_heading

    def value_at(self, position: VectorLike) -> float:
        """Heading of the field at a concrete position."""
        return normalize_angle(self._value_function(Vector.from_any(position)))

    def at(self, position: Any) -> Any:
        """The ``F at X`` operator; defers evaluation if *position* is random."""
        if needs_sampling(position):
            return FunctionDistribution(self.value_at, (position,))
        return self.value_at(position)

    __getitem__ = at

    def follow_from(self, start: Any, distance: Any, steps: int = 4) -> Any:
        """Forward-Euler integration of the field (the ``follow`` operator).

        Matches Appendix C's ``forwardEuler``: starting at *start*, take
        *steps* equal steps of length ``distance / steps`` along the field.
        Returns the final position (a random value if the inputs are random).
        """
        if needs_sampling(start) or needs_sampling(distance):
            return FunctionDistribution(self._follow_concrete, (start, distance, steps))
        return self._follow_concrete(start, distance, steps)

    def _follow_concrete(self, start: VectorLike, distance: float, steps: int = 4) -> Vector:
        position = Vector.from_any(start)
        step_length = distance / steps
        for _ in range(steps):
            heading = self.value_at(position)
            position = position.offset_rotated(heading, Vector(0.0, step_length))
        return position

    def __repr__(self) -> str:
        return f"VectorField({self.name!r})"


class ConstantVectorField(VectorField):
    """A field with the same heading everywhere (useful in tests and examples)."""

    def __init__(self, heading: float, name: str = "constant"):
        super().__init__(name, lambda _position: heading, default_heading=heading)
        self.heading = heading


class PolygonalVectorField(VectorField):
    """A field that is constant within each polygon of a decomposition.

    This is the structure exploited by orientation-based pruning (Sec. 5.2):
    the GTA-like road map decomposes the road into convex cells, each carrying
    the local traffic direction.
    """

    #: Decompositions with at least this many cells index their bounding
    #: boxes in a :class:`~repro.geometry.spatial_index.SpatialGrid`, so the
    #: per-lookup cost is the few cells near the query point rather than a
    #: linear scan over the whole map.
    _GRID_MIN_CELLS = 8

    def __init__(self, name: str, cells: Sequence[Tuple[Polygon, float]],
                 default_heading: float = 0.0):
        self.cells: List[Tuple[Polygon, float]] = [
            (polygon, normalize_angle(heading)) for polygon, heading in cells
        ]
        self._boxes = None  # lazy (N, 4) cell bounds, see _tables()
        self._grid = None
        super().__init__(name, self._heading_at, default_heading=default_heading)

    def _tables(self):
        """Lazily built cell bounding boxes and (for large maps) a grid index.

        Each box is padded by ``max(1e-6, on_edge_reach(cell))`` so the
        scalar containment test's boundary tolerance cannot cross a box
        edge, however short the cell's edges: any cell the linear scan could
        accept is also a grid candidate, and a point inside a cell has box
        distance 0, keeping results bit-identical.
        """
        if self._boxes is None:
            import numpy as np

            boxes = np.empty((len(self.cells), 4), dtype=float)
            for index, (polygon, _heading) in enumerate(self.cells):
                box = polygon.bounding_box()
                pad = max(1e-6, on_edge_reach(polygon.vertices))
                boxes[index] = (box.min_x - pad, box.min_y - pad, box.max_x + pad, box.max_y + pad)
            if len(self.cells) >= self._GRID_MIN_CELLS:
                from ..geometry.spatial_index import SpatialGrid

                self._grid = SpatialGrid(boxes)
            self._boxes = boxes
        return self._boxes, self._grid

    def _heading_at(self, position: Vector) -> float:
        cell = self.cell_at(position)
        if cell is not None:
            return cell[1]
        # Outside every cell: fall back to the nearest cell's heading so the
        # field is total (mirrors the reference implementation's behaviour of
        # extending the road direction beyond the road).
        nearest = self.nearest_cell(position)
        return nearest[1] if nearest is not None else self.default_heading

    def cell_at(self, position: VectorLike) -> Optional[Tuple[Polygon, float]]:
        position = Vector.from_any(position)
        if len(self.cells) >= self._GRID_MIN_CELLS:
            _boxes, grid = self._tables()
            if grid is not None:
                # Bucket indices are ascending, so the first containing
                # candidate is the same cell the full scan would return.
                for index in grid.bucket_for_point(position.x, position.y):
                    polygon, heading = self.cells[index]
                    if polygon.contains_point(position):
                        return polygon, heading
                return None
        for polygon, heading in self.cells:
            if polygon.contains_point(position):
                return polygon, heading
        return None

    def nearest_cell(self, position: VectorLike) -> Optional[Tuple[Polygon, float]]:
        position = Vector.from_any(position)
        if not self.cells:
            return None
        if len(self.cells) >= self._GRID_MIN_CELLS:
            return self._nearest_cell_pruned(position)
        return min(self.cells, key=lambda cell: cell[0].distance_to_point(position))

    def _nearest_cell_pruned(self, position: Vector) -> Tuple[Polygon, float]:
        """Nearest cell via bounding-box lower bounds, identical to the scan.

        Exact point-to-polygon distance is only computed for cells whose
        box distance (a lower bound on the true distance) does not already
        exceed the best exact distance seen; every cell tied for the
        minimum has a lower bound <= that minimum, so none is skipped, and
        ties resolve to the lowest cell index — exactly ``min()``'s
        first-minimal-in-list-order behaviour.
        """
        import numpy as np

        boxes, _grid = self._tables()
        dx = np.maximum(np.maximum(boxes[:, 0] - position.x, position.x - boxes[:, 2]), 0.0)
        dy = np.maximum(np.maximum(boxes[:, 1] - position.y, position.y - boxes[:, 3]), 0.0)
        lower_bounds = np.hypot(dx, dy)
        best_distance = math.inf
        best_index = -1
        for index in np.argsort(lower_bounds, kind="stable"):
            if lower_bounds[index] > best_distance:
                break
            distance = self.cells[index][0].distance_to_point(position)
            if distance < best_distance or (distance == best_distance and index < best_index):
                best_distance = distance
                best_index = int(index)
        return self.cells[best_index]

    #: The most grid buckets one bucket table holds.  A field whose grid
    #: spans more has no batched lookup: its callers look points up one by one.
    _DENSE_BUCKETS_MAX = 1 << 16

    def locates_in_batches(self) -> bool:
        """Whether :meth:`value_at_points` serves this field: its grid fits one bucket table."""
        return len(self.cells) < self._GRID_MIN_CELLS or self._bucket_table() is not None

    def value_at_points(self, xs, ys):
        """:meth:`value_at` at ``K`` points, as an array, without calling it.

        The same verdicts as ``cell_at`` then ``nearest_cell``, for all points
        at once: each point's candidate cells are its grid bucket (every cell
        for a small map), in bucket order; one pass of ``_point_in_edges``'
        arithmetic over the cells' padded edge tables tests every (point,
        cell) pair, and a point takes its first containing cell.  A point
        inside no cell takes the scalar ``nearest_cell``.  *xs* and *ys* are
        contiguous float64 arrays; a coordinate that is not finite raises
        ``ValueError``, as the scalar grid's ``math.floor`` would.  Only for
        a field that :meth:`locates_in_batches`.
        """
        import numpy as np

        from .regions import _normalize_angles

        count = len(xs)
        if not self.cells:
            return _normalize_angles(np.full(count, float(self.default_heading)))
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("cannot locate a point that is not finite")
        edges, cell_headings = self._edge_columns()
        candidates = self._candidate_cells(xs, ys)  # (K, B), -1 past a bucket's end
        rows = edges[candidates]  # (K, B, E, 8); a -1 reads the last cell, masked below
        xi, yi, xj, yj, ex, ey, on_bound, dot_hi = (rows[..., k] for k in range(8))
        px = xs[:, None, None]
        py = ys[:, None, None]
        dx = px - xi
        dy = py - yi
        dot = dx * ex + dy * ey
        on_edge = (np.abs(ex * dy - ey * dx) <= on_bound) & (-1e-9 <= dot) & (dot <= dot_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            flips = ((yi > py) != (yj > py)) & (px < xj + (py - yj) * ex / ey)
        inside = (on_edge.any(axis=2) | (flips.sum(axis=2) % 2 == 1)) & (candidates >= 0)
        first = inside.argmax(axis=1)
        points = np.arange(count)
        headings = cell_headings[candidates[points, first]]
        for index in np.flatnonzero(~inside[points, first]).tolist():
            nearest = self.nearest_cell(Vector(xs[index], ys[index]))
            headings[index] = nearest[1] if nearest is not None else self.default_heading
        return _normalize_angles(headings)

    def _edge_columns(self):
        """Every cell's ``_edge_table`` as one ``(cells, edges, 8)`` array, and the headings.

        Short tables are padded with rows that are never on an edge
        (``on_bound`` -1) and never cross a ray (``yi == yj``).  Built once.
        """
        tables = getattr(self, "_edge_arrays", None)
        if tables is None:
            import numpy as np

            from ..geometry.polygon import _edge_table

            rows = [polygon._edges or _edge_table(polygon.vertices) for polygon, _ in self.cells]
            padded = np.zeros((len(rows), max(map(len, rows)), 8))
            padded[:, :, 6] = -1.0
            for index, table in enumerate(rows):
                padded[index, : len(table)] = table
            headings = np.array([heading for _, heading in self.cells], dtype=float)
            tables = self._edge_arrays = (padded, headings)
        return tables

    def _candidate_cells(self, xs, ys):
        """Each point's cells to test, ``(K, B)`` in bucket order, padded with -1."""
        import numpy as np

        if len(self.cells) < self._GRID_MIN_CELLS:
            return np.broadcast_to(np.arange(len(self.cells)), (len(xs), len(self.cells)))
        _boxes, grid = self._tables()
        ox, oy = grid.origin
        keys_x = np.floor((xs - ox) / grid.cell_size)
        keys_y = np.floor((ys - oy) / grid.cell_size)
        (min_x, min_y, max_x, max_y), buckets = self._bucket_table()
        inside = (keys_x >= min_x) & (keys_x <= max_x) & (keys_y >= min_y) & (keys_y <= max_y)
        slots = (keys_x - min_x) * (max_y - min_y + 1) + (keys_y - min_y)
        # The table's last row is the empty bucket of points off the grid.
        return buckets[np.where(inside, slots, len(buckets) - 1).astype(np.int64)]

    def _bucket_table(self):
        """The grid's buckets as one table (see ``_dense_buckets``), or None; built once."""
        if not hasattr(self, "_buckets"):
            self._buckets = _dense_buckets(self._tables()[1], self._DENSE_BUCKETS_MAX)
        return self._buckets

    def heading_of_cell(self, polygon: Polygon) -> Optional[float]:
        for cell_polygon, heading in self.cells:
            if cell_polygon is polygon or cell_polygon == polygon:
                return heading
        return None


def _dense_buckets(grid, limit: int):
    """*grid*'s buckets over its occupied span, as ``(bounds, table)``; None past *limit*.

    The bucket of cell ``(x, y)`` is row ``(x - min_x) * span_y + (y -
    min_y)`` of the table, its cells in ascending order as in the grid and
    padded with -1, and the last row is empty.
    """
    import numpy as np

    min_x, min_y, max_x, max_y = grid._occupied_bounds
    span_y = max_y - min_y + 1
    slots = (max_x - min_x + 1) * span_y
    if slots > limit:
        return None
    longest = max(map(len, grid._cells.values()), default=0)
    table = np.full((slots + 1, max(1, longest)), -1, dtype=np.int64)
    for (key_x, key_y), bucket in grid._cells.items():
        table[(key_x - min_x) * span_y + (key_y - min_y), : len(bucket)] = bucket
    return grid._occupied_bounds, table


class PolylineVectorField(VectorField):
    """Heading follows the nearest segment of a polyline (used for curbs)."""

    def __init__(self, name: str, polyline_region):
        self.polyline = polyline_region
        super().__init__(name, polyline_region.orientation_at)


def field_sum(first: VectorField, second: VectorField, name: Optional[str] = None) -> VectorField:
    """Pointwise sum of two fields (the ``F1 relative to F2`` operator)."""
    return VectorField(
        name or f"({first.name} + {second.name})",
        lambda position: first.value_at(position) + second.value_at(position),
    )


def field_offset(field: VectorField, offset: float, name: Optional[str] = None) -> VectorField:
    """A field rotated everywhere by a constant *offset* heading."""
    return VectorField(
        name or f"({field.name} + {offset:g})",
        lambda position: field.value_at(position) + offset,
    )


__all__ = [
    "VectorField",
    "ConstantVectorField",
    "PolygonalVectorField",
    "PolylineVectorField",
    "field_sum",
    "field_offset",
]
