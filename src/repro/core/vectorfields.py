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

import numpy as np

from ..geometry.kernel import PolygonTable
from ..geometry.polygon import Polygon, _edges_distance
from .distributions import FunctionDistribution, needs_sampling
from .regions import _normalize_angles
from .utils import normalize_angle
from .vectors import Vector, VectorLike


#: The side of a nearest-cell shortlist's square bucket (a power of two, so
#: a point's bucket is exact), and how far past a field's cells' padded boxes
#: buckets reach; a point further out scans every cell.
SHORTLIST_BUCKET = 2.0
SHORTLIST_MARGIN = 64.0


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

    #: Decompositions with at least this many cells locate a single point
    #: through a :class:`~repro.geometry.spatial_index.SpatialGrid` over their
    #: cells' padded boxes, so a scalar lookup costs the few cells near the
    #: query point rather than a linear scan over the whole map.
    _GRID_MIN_CELLS = 8

    def __init__(self, name: str, cells: Sequence[Tuple[Polygon, float]],
                 default_heading: float = 0.0):
        self.cells: List[Tuple[Polygon, float]] = [
            (polygon, normalize_angle(heading)) for polygon, heading in cells
        ]
        self._tables = None  # lazy, see _lookup_tables()
        self._shortlists = None  # lazy, see _shortlist()
        super().__init__(name, self._heading_at, default_heading=default_heading)

    def _lookup_tables(self) -> Tuple[PolygonTable, np.ndarray]:
        """The cells' :class:`~repro.geometry.kernel.PolygonTable` and their headings.

        Built at first use and published with one store, as
        ``PolygonalRegion._polygon_table`` is.  The scalar lookups read the
        table's padded boxes and its grid, so a cell the scan could accept is
        never pruned: a point inside a cell has box distance 0.
        """
        tables = self._tables
        if tables is None:
            tables = self._tables = (
                PolygonTable([polygon.vertices for polygon, _ in self.cells]),
                np.array([heading for _, heading in self.cells], dtype=float),
            )
        return tables

    def _heading_at(self, position: Vector) -> float:
        cell = self.cell_at(position)
        if cell is not None:
            return cell[1]
        # Outside every cell: fall back to the nearest cell's heading so the
        # field is total (mirrors the reference implementation's behaviour of
        # extending the road direction beyond the road).
        if not self.cells:
            return self.default_heading
        return self.cells[self._nearest(position.x, position.y)][1]

    def cell_at(self, position: VectorLike) -> Optional[Tuple[Polygon, float]]:
        position = Vector.from_any(position)
        if len(self.cells) >= self._GRID_MIN_CELLS:
            # Bucket indices are ascending, so the first containing
            # candidate is the same cell the full scan would return.
            grid = self._lookup_tables()[0].grid()
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
        """The first cell, in cell order, at the least ``distance_to_point``."""
        position = Vector.from_any(position)
        return self.cells[self._nearest(position.x, position.y, position)] if self.cells else None

    def _nearest(self, x: float, y: float, position: Optional[Vector] = None) -> int:
        """The first shortlisted cell at the least ``distance_to_point``, as ``min`` picks it.

        Without *position*, no cell holds (x, y): every distance is the edge distance.
        """
        edges = self._lookup_tables()[0].edges
        best_index, best = -1, None
        for index in self._shortlist(x, y):
            distance = (_edges_distance(x, y, edges[index]) if position is None
                        else self.cells[index][0].distance_to_point(position))
            if best is None or distance < best:
                best_index, best = index, distance
        return best_index

    def _shortlist(self, x: float, y: float) -> Sequence[int]:
        """Ascending indices of every cell that can be nearest to (x, y).

        Per bucket, at its first use: the cells whose padded box is within
        ``U`` (the least distance from a vertex to the bucket's farthest
        corner) of the bucket, plus slack; see ``docs/geometry.md``.
        """
        boxes = self._lookup_tables()[0].boxes
        if self._shortlists is None:
            extent = np.concatenate([boxes[:, :2].min(axis=0) - SHORTLIST_MARGIN,
                                     boxes[:, 2:].max(axis=0) + SHORTLIST_MARGIN])
            vertices = [v.to_tuple() for polygon, _ in self.cells for v in polygon.vertices]
            self._shortlists = (extent.tolist(), np.array(vertices).T,
                                1e-6 * (1.0 + np.abs(extent).max()), {})
        (min_x, min_y, max_x, max_y), (vertex_x, vertex_y), slack, memo = self._shortlists
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            return range(len(self.cells))
        key = (math.floor(x / SHORTLIST_BUCKET), math.floor(y / SHORTLIST_BUCKET))
        shortlist = memo.get(key)
        if shortlist is None:
            x0, y0 = key[0] * SHORTLIST_BUCKET, key[1] * SHORTLIST_BUCKET
            x1, y1 = x0 + SHORTLIST_BUCKET, y0 + SHORTLIST_BUCKET
            lower = np.hypot(np.maximum(np.maximum(boxes[:, 0] - x1, x0 - boxes[:, 2]), 0.0),
                             np.maximum(np.maximum(boxes[:, 1] - y1, y0 - boxes[:, 3]), 0.0))
            upper = np.hypot(np.maximum(np.abs(vertex_x - x0), np.abs(vertex_x - x1)),
                             np.maximum(np.abs(vertex_y - y0), np.abs(vertex_y - y1))).min()
            shortlist = memo[key] = np.flatnonzero(lower <= upper + slack).tolist()
        return shortlist

    def value_at_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`value_at` at ``K`` points, as an array, without calling it.

        The same verdicts as ``cell_at`` then ``nearest_cell``, for all points
        at once: each point takes the lowest-index cell that the cells'
        :class:`~repro.geometry.kernel.PolygonTable` says holds it, as the
        scan does, and a point inside no cell takes ``nearest_cell``'s.
        *xs* and *ys* are float64 arrays; a coordinate that is not finite
        raises ``ValueError``, as the scalar grid's ``math.floor`` would.
        """
        if not self.cells:
            return _normalize_angles(np.full(len(xs), float(self.default_heading)))
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("cannot locate a point that is not finite")
        table, cell_headings = self._lookup_tables()
        cells = table.first_holders(xs, ys)
        headings = cell_headings[cells]  # a -1 reads the last cell, replaced below
        for index in np.flatnonzero(cells < 0).tolist():
            headings[index] = self.cells[self._nearest(float(xs[index]), float(ys[index]))][1]
        return _normalize_angles(headings)

    def heading_of_cell(self, polygon: Polygon) -> Optional[float]:
        for cell_polygon, heading in self.cells:
            if cell_polygon is polygon or cell_polygon == polygon:
                return heading
        return None


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
