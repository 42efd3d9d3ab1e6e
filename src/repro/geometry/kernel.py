"""Vectorized batch-geometry kernel for the sampling hot path.

The scene-improvisation loop (Sec. 5) spends essentially all of its time on
three predicates: is a point inside a region, is an object's bounding box
inside a region, and do two objects' bounding boxes overlap.  The scalar
implementations in :mod:`repro.geometry.polygon` and
:mod:`repro.core.regions` evaluate them one point / one pair at a time in
pure Python; this module evaluates them over whole *batches* with numpy:

* :func:`contains_points` — membership of ``N`` points in a region at once,
  dispatching to the region's ``contains_points_batch`` (every built-in
  region implements a genuinely vectorized one; the :class:`~repro.core.regions.Region`
  base class provides a scalar fallback so third-party regions keep
  working).
* :class:`PolygonTable` — batched point location in a fixed polygon set:
  which polygons hold each point.  A ``PolygonalRegion``'s containment and
  a ``PolygonalVectorField``'s ``F at X`` both run on one.
* :func:`objects_contained` — containment of ``N`` objects given their
  corner arrays, using the same corners-plus-edge-midpoints test as
  ``Region.contains_object``.
* :func:`pairwise_collisions` — all overlapping pairs among ``N`` convex
  quadrilaterals via a batched separating-axis test, with an AABB prefilter
  and a :class:`~repro.geometry.spatial_index.SpatialGrid` pruning the
  O(n²) pair enumeration for large ``N``.

The predicates agree with the scalar implementations: the separating-axis
test uses closed intervals (touching counts as overlap, exactly like
``polygons_intersect``), and :class:`PolygonTable` certifies a verdict only
where the scalar ray cast provably gives it, and runs that ray cast
elsewhere, so every verdict is the scalar one.

The four batch predicates (:func:`points_in_polygon`,
:func:`objects_contained`, :func:`pairwise_collisions` and
:func:`batch_collision_free`) are methods of one :class:`NumpyKernel`
instance, :data:`KERNEL`; the module functions call them through it.
"""

from __future__ import annotations

import functools
import math
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.vectors import Vector
from .polygon import _edge_table, _point_in_edges, on_edge_reach
from .spatial_index import SpatialGrid

#: Object counts below this skip the spatial grid: enumerating all pairs is
#: cheaper than building the index.
GRID_PAIR_THRESHOLD = 16


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------


def as_points(points: Any) -> np.ndarray:
    """Coerce vectors / pairs / arrays into an ``(N, 2)`` float array."""
    if isinstance(points, np.ndarray):
        if points.size == 0:
            return points.reshape(0, 2).astype(float, copy=False)
        return points.reshape(-1, 2).astype(float, copy=False)
    rows: List = []
    for point in points:
        if hasattr(point, "x"):
            rows.append((point.x, point.y))
        else:
            rows.append((point[0], point[1]))
    if not rows:
        return np.zeros((0, 2), dtype=float)
    return np.asarray(rows, dtype=float)


#: The signs of the local corner offsets, in ``half_w`` and ``half_h``, of
#: the front-right, front-left, back-left and back-right corners.
_CORNER_SIGNS_X = np.array([1.0, -1.0, -1.0, 1.0])
_CORNER_SIGNS_Y = np.array([1.0, 1.0, -1.0, -1.0])


def corners_array(objects: Sequence[Any]) -> np.ndarray:
    """The bounding-box corners of concrete objects as an ``(N, 4, 2)`` array.

    Corner order matches ``Object.corners``: front-right first, then
    anticlockwise — so midpoint and SAT results line up with the scalar path.
    Each object's corners depend on that object alone, so the corners of a
    block of ``K`` candidates with ``N`` objects each, computed in one call
    over the ``K * N`` objects and reshaped, equal the per-candidate arrays.
    """
    if len(objects) == 0:
        return np.zeros((0, 4, 2), dtype=float)
    rows = []
    for scenic_object in objects:
        position = scenic_object.position
        if hasattr(position, "x"):
            x, y = position.x, position.y
        else:
            x, y = position[0], position[1]
        rows.append((x, y, scenic_object.heading, scenic_object.width, scenic_object.height))
    return corners_of_columns(np.array(rows, dtype=float, order="F"))


def corners_of_columns(columns: np.ndarray) -> np.ndarray:
    """The ``(N, 4, 2)`` corners of ``N`` boxes given as ``(N, 5)`` columns.

    The columns are x, y, heading, width and height, in a column-major
    array, so np.cos and np.sin read a contiguous column: numpy may take
    another loop for a strided one, and the corners must not depend on the
    memory layout.  :func:`corners_array` builds the columns from concrete
    objects; a block drawn as columns builds them from its property columns.
    """
    half_w = columns[:, 3:4] / 2.0
    half_h = columns[:, 4:5] / 2.0
    local_x = half_w * _CORNER_SIGNS_X  # (N, 4)
    local_y = half_h * _CORNER_SIGNS_Y
    cos_h = np.cos(columns[:, 2:3])
    sin_h = np.sin(columns[:, 2:3])
    corners = np.empty((len(columns), 4, 2), dtype=float)
    corners[:, :, 0] = local_x * cos_h - local_y * sin_h + columns[:, 0:1]
    corners[:, :, 1] = local_x * sin_h + local_y * cos_h + columns[:, 1:2]
    return corners


#: Each corner's successor, anticlockwise: ``corners[:, _NEXT]`` is
#: ``np.roll(corners, -1, axis=1)`` without its set-up.
_NEXT = [1, 2, 3, 0]


# ---------------------------------------------------------------------------
# point containment
# ---------------------------------------------------------------------------


def contains_points(region: Any, points: Any) -> np.ndarray:
    """Membership of each point in *region* as a boolean array.

    Dispatches to ``region.contains_points_batch`` when present (all
    built-in regions), otherwise falls back to looping the region's scalar
    ``contains_point`` — so the kernel accepts any region-like object.
    """
    pts = as_points(points)
    batch = getattr(region, "contains_points_batch", None)
    if batch is not None:
        return np.asarray(batch(pts), dtype=bool)
    return np.fromiter(
        (bool(region.contains_point((x, y))) for x, y in pts), dtype=bool, count=len(pts)
    )


def points_in_polygon(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized ray casting; boundary points count as inside."""
    return KERNEL.points_in_polygon(vertices, points)


#: Certified verdicts need every coordinate of the point and the polygon
#: within this of 0 (rounding stays below 1e-8), and a margin of at least
#: this (or the polygon's ``on_edge_reach``, if larger) from every edge line.
CERTIFIED_LIMIT = 1e6
CERTIFIED_MARGIN = 1e-6


def _half_planes(vertices: Sequence[Vector]) -> Optional[List[Tuple[float, float, float]]]:
    """The inner half-planes ``nx * x + ny * y + c >= 0`` of a convex polygon.

    One per positive-length edge, with unit normals; ``None`` unless every
    vertex lies within 1e-9 inside every edge line and the edges turn once
    around (not convex, or doubly wound), or past :data:`CERTIFIED_LIMIT`.
    """
    points = [(vertex.x, vertex.y) for vertex in vertices]
    edges = [(a, b) for a, b in zip(points[-1:] + points[:-1], points) if a != b]
    area = sum(ax * by - bx * ay for (ax, ay), (bx, by) in edges)
    if not (area and max(abs(c) for point in points for c in point) <= CERTIFIED_LIMIT):
        return None  # degenerate, too far out, or not finite
    sign = math.copysign(1.0, area)
    planes = []
    for (ax, ay), (bx, by) in edges:
        length = math.hypot(bx - ax, by - ay)
        nx, ny = sign * (ay - by) / length, sign * (bx - ax) / length
        planes.append((nx, ny, -(nx * ax + ny * ay)))
    turning = sum(
        math.atan2(mx * ny - my * nx, mx * nx + my * ny)
        for (mx, my, _), (nx, ny, _) in zip(planes[-1:] + planes[:-1], planes)
    )
    if not abs(abs(turning) - 2 * math.pi) <= 1e-6 or any(
        nx * x + ny * y + c < -1e-9 for nx, ny, c in planes for x, y in points
    ):
        return None
    return planes


class PolygonTable:
    """A fixed set of polygons, laid out for batched point location.

    Every polygon's :func:`~repro.geometry.polygon._edge_table`, and the
    unit inner half-planes ``(nx, ny, c)`` of a convex polygon's edges in
    one edge-major matrix, padded with 0 x + 0 y + 1e300 (a polygon without
    half-planes gets 0 x + 0 y + 0, which certifies nothing).  A pair whose
    point lies at least the polygon's margin ``δ = max(1e-6,
    on_edge_reach)`` inside every edge line is certified inside, at least
    ``δ`` outside one, outside: the scalar ray cast agrees
    (``docs/geometry.md`` gives the rounding argument).  Any other pair
    whose ``δ``-padded box holds the point takes ``_point_in_edges``, so
    every verdict is the scalar one.  The set's scalar lookups keep a
    :class:`SpatialGrid` over the same boxes (:meth:`grid`).
    """

    def __init__(self, vertex_lists: Sequence[Sequence[Vector]]):
        #: Each polygon's :func:`~repro.geometry.polygon._edge_table`.
        self.edges = [_edge_table(vertices) for vertices in vertex_lists]
        count, width = len(vertex_lists), max(map(len, self.edges))
        planes = np.zeros((width, count, 3))  # edge-major: min runs along polygons
        planes[:, :, 2] = 1e300  # finite: an inf would raise the FPU's invalid flag in BLAS
        margins = np.empty(count)
        boxes = np.empty((count, 4))
        for index, vertices in enumerate(vertex_lists):
            margin = margins[index] = max(CERTIFIED_MARGIN, on_edge_reach(vertices))
            xs = [vertex.x for vertex in vertices]
            ys = [vertex.y for vertex in vertices]
            boxes[index] = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
            # A polygon without half-planes gets 0 x + 0 y + 0: never certified.
            rows = _half_planes(vertices) or [(0.0, 0.0, 0.0)]
            planes[: len(rows), index] = rows
        self._planes = planes.reshape(-1, 3)  # (edges * polygons, 3)
        self._width = width
        self._margins = margins[:, None]
        #: The padded boxes, ``(polygons, 4)`` rows of (minx, miny, maxx, maxy).
        self.boxes = boxes
        self._grid: Optional[SpatialGrid] = None

    def grid(self) -> SpatialGrid:
        """A :class:`SpatialGrid` over the padded boxes, built at first use."""
        grid = self._grid
        if grid is None:
            grid = self._grid = SpatialGrid(self.boxes)
        return grid

    def held(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Whether each polygon holds each point, as a ``(polygons, points)`` array."""
        points = np.stack([xs, ys, np.ones(len(xs))])
        depth = (self._planes @ points).reshape(self._width, len(self.boxes), len(xs)).min(
            axis=0
        )  # each point's least distance inside each polygon's edge lines
        held = depth >= self._margins
        unsure = (depth > -self._margins) != held  # a NaN point is certified outside
        far = np.abs(points[:2]) > CERTIFIED_LIMIT
        if far.any():
            far = far.any(axis=0)
            held[:, far] = False
            unsure[:, far] = True
        if unsure.any():
            polygons, columns = np.nonzero(unsure)
            min_x, min_y, max_x, max_y = self.boxes[polygons].T
            px, py = xs[columns], ys[columns]
            boxed = (px >= min_x) & (py >= min_y) & (px <= max_x) & (py <= max_y)
            for polygon, column in zip(polygons[boxed].tolist(), columns[boxed].tolist()):
                held[polygon, column] = _point_in_edges(
                    float(xs[column]), float(ys[column]), self.edges[polygon]
                )
        return held

    def first_holders(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The lowest index of a polygon that holds each point; -1 where none does."""
        held = self.held(xs, ys)
        return np.where(held.any(axis=0), held.argmax(axis=0), -1)


# ---------------------------------------------------------------------------
# object containment
# ---------------------------------------------------------------------------


def region_supports_batch_objects(region: Any) -> bool:
    """True when *region* uses the default corners-plus-midpoints object test.

    Regions overriding ``contains_object`` (e.g. ``EverywhereRegion``) carry
    their own semantics; the kernel defers to the scalar method for those.
    """
    from ..core.regions import Region  # deferred: core imports this module

    contains = getattr(type(region), "contains_object", None)
    return contains is Region.contains_object


def objects_contained(region: Any, corners: np.ndarray) -> np.ndarray:
    """Containment of ``N`` objects (given their ``(N, 4, 2)`` corners).

    Only valid for regions where :func:`region_supports_batch_objects`
    holds; callers keep the scalar path otherwise.
    """
    return KERNEL.objects_contained(region, corners)


# ---------------------------------------------------------------------------
# pairwise collisions
# ---------------------------------------------------------------------------


def quads_overlap(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Batched separating-axis overlap test for convex quadrilateral pairs.

    *first* and *second* are ``(M, 4, 2)`` corner arrays; the result is a
    boolean ``(M,)`` array.  Intervals are closed (projections merely touching
    count as overlap), matching ``polygons_intersect``.  Degenerate
    zero-length edges produce zero axes, which can never separate — safe.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    edges = np.concatenate(
        [first[:, _NEXT] - first, second[:, _NEXT] - second], axis=1
    )  # (M, 8, 2)
    axes = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)  # outward-ish normals
    projections_first = axes @ first.transpose(0, 2, 1)  # (M, 8, 4)
    projections_second = axes @ second.transpose(0, 2, 1)
    separated = (projections_first.max(axis=2) < projections_second.min(axis=2)) | (
        projections_second.max(axis=2) < projections_first.min(axis=2)
    )
    return ~separated.any(axis=1)


def aabbs_of(corners: np.ndarray) -> np.ndarray:
    """Axis-aligned bounds of each quad: ``(N, 4)`` rows of (minx, miny, maxx, maxy)."""
    corners = np.asarray(corners, dtype=float)
    if corners.shape[0] == 0:
        return np.zeros((0, 4), dtype=float)
    return np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)


def pairwise_collisions(
    corners: np.ndarray,
    collidable: Optional[np.ndarray] = None,
    grid_threshold: int = GRID_PAIR_THRESHOLD,
) -> np.ndarray:
    """All overlapping object pairs as an ``(M, 2)`` array of index pairs."""
    return KERNEL.pairwise_collisions(corners, collidable, grid_threshold=grid_threshold)


def batch_collision_free(
    corners: np.ndarray, collidable: Optional[np.ndarray] = None
) -> np.ndarray:
    """Collision-freedom of ``K`` candidate scenes at once."""
    return KERNEL.batch_collision_free(corners, collidable)


# ---------------------------------------------------------------------------
# the numpy implementation
# ---------------------------------------------------------------------------


class NumpyKernel:
    """The four batch predicates, in numpy.

    Its verdicts are the scalar predicates': the separating-axis test uses
    closed intervals (touching counts as overlap, exactly like
    ``polygons_intersect``), and point containment goes through a
    :class:`PolygonTable`, whose certified verdicts are the scalar ray
    cast's.
    """

    name = "numpy"

    def points_in_polygon(self, vertices: Any, points: Any) -> np.ndarray:
        """Membership of each point in one simple polygon (boundary = inside).

        The one-polygon :class:`PolygonTable`, its edge table built from
        *vertices* in their given order, so each verdict is
        :func:`repro.geometry.polygon.point_in_polygon`'s.  Sampling does not
        call it: regions and vector fields keep their own tables.
        """
        vertices = np.asarray(vertices, dtype=float)
        pts = as_points(points)
        table = PolygonTable([[Vector(x, y) for x, y in vertices.tolist()]])
        return table.held(pts[:, 0], pts[:, 1])[0]

    def objects_contained(self, region: Any, corners: Any) -> np.ndarray:
        """Containment of ``N`` objects (``(N, 4, 2)`` corners) in *region*.

        The default ``Region.contains_object`` semantics — all four corners
        and all four edge midpoints inside — as one batched containment
        query through the region's ``contains_points_batch``.  The points go
        corner-major, ``(8, N)``, so the last test reduces along the objects.
        """
        corners = np.asarray(corners, dtype=float).transpose(1, 0, 2)  # (4, N, 2)
        n = corners.shape[1]
        if n == 0:
            return np.zeros(0, dtype=bool)
        test_points = np.concatenate([corners, (corners + corners[_NEXT]) / 2.0])
        return contains_points(region, test_points.reshape(-1, 2)).reshape(8, n).all(axis=0)

    def pairwise_collisions(
        self,
        corners: Any,
        collidable: Optional[np.ndarray] = None,
        grid_threshold: int = GRID_PAIR_THRESHOLD,
    ) -> np.ndarray:
        """All overlapping object pairs as an ``(M, 2)`` array of index pairs.

        *corners* is ``(N, 4, 2)``; *collidable* optionally masks objects out of
        the check (``allowCollisions`` objects).  For ``N >= grid_threshold`` the
        candidate pairs come from a uniform :class:`SpatialGrid` instead of the
        full upper triangle, pruning the O(n²) enumeration.  Pairs are returned
        in lexicographic order with ``i < j``, matching the scalar nested loop.
        """
        corners = np.asarray(corners, dtype=float)
        n = corners.shape[0]
        if n < 2:
            return np.zeros((0, 2), dtype=int)
        if collidable is None:
            collidable_mask = np.ones(n, dtype=bool)
        else:
            collidable_mask = np.asarray(collidable, dtype=bool)
        boxes = aabbs_of(corners)
        if n >= grid_threshold:
            pairs = SpatialGrid(boxes).candidate_pairs()
        else:
            row, col = np.triu_indices(n, k=1)
            pairs = np.stack([row, col], axis=1)
        if len(pairs) == 0:
            return np.zeros((0, 2), dtype=int)
        i, j = pairs[:, 0], pairs[:, 1]
        keep = collidable_mask[i] & collidable_mask[j]
        # Closed-interval AABB prefilter, identical to BoundingBox.intersects.
        keep &= ~(
            (boxes[i, 2] < boxes[j, 0])
            | (boxes[j, 2] < boxes[i, 0])
            | (boxes[i, 3] < boxes[j, 1])
            | (boxes[j, 3] < boxes[i, 1])
        )
        pairs = pairs[keep]
        if len(pairs) == 0:
            return pairs
        hits = quads_overlap(corners[pairs[:, 0]], corners[pairs[:, 1]])
        return pairs[hits]

    def batch_collision_free(
        self, corners: Any, collidable: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Collision-freedom of ``K`` candidate scenes at once.

        *corners* is ``(K, N, 4, 2)`` (same object count per candidate, as
        produced by concretizing one scenario ``K`` times); *collidable* is an
        optional ``(K, N)`` mask.  Returns a boolean ``(K,)`` array that is True
        where no collidable pair overlaps — the bulk form of
        ``no_pairwise_collisions`` used by the vectorized sampling strategy.
        Below :data:`GRID_PAIR_THRESHOLD` objects one broadcast ``(K, N, N)``
        AABB test picks the pairs for the exact :func:`quads_overlap`;
        larger scenes take :meth:`pairwise_collisions`' grid pairs.
        """
        corners = np.asarray(corners, dtype=float)
        k, n = corners.shape[0], corners.shape[1]
        if k == 0:
            return np.zeros(0, dtype=bool)
        if n < 2:
            return np.ones(k, dtype=bool)
        if collidable is None:
            collidable = np.ones((k, n), dtype=bool)
        collidable = np.asarray(collidable, dtype=bool)
        if n >= GRID_PAIR_THRESHOLD:
            return np.array([
                len(self.pairwise_collisions(corners[index], collidable[index])) == 0
                for index in range(k)
            ], dtype=bool)
        # Each box's min and max corner, (K, N, 2), as BoundingBox.intersects reads them.
        lo = np.minimum(np.minimum(corners[:, :, 0], corners[:, :, 1]),
                        np.minimum(corners[:, :, 2], corners[:, :, 3]))
        hi = np.maximum(np.maximum(corners[:, :, 0], corners[:, :, 1]),
                        np.maximum(corners[:, :, 2], corners[:, :, 3]))
        apart = (hi[:, :, None] < lo[:, None]) | (hi[:, None] < lo[:, :, None])  # (K, N, N, 2)
        candidate = ~(apart[..., 0] | apart[..., 1]) & _upper_triangle(n)
        candidate &= collidable[:, :, None] & collidable[:, None]
        scene_index, first, second = np.nonzero(candidate)
        free = np.ones(k, dtype=bool)
        if len(scene_index):
            hits = quads_overlap(corners[scene_index, first], corners[scene_index, second])
            free[scene_index[hits]] = False
        return free


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> np.ndarray:
    """The ``(n, n)`` mask of the pairs ``i < j``."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


#: The one kernel instance.  The module functions above look its methods up
#: on every call, so a wrapper set on this instance (a profiler's timer, a
#: test's planted fault) sees every batched predicate call.
KERNEL = NumpyKernel()


__all__ = [
    "GRID_PAIR_THRESHOLD",
    "KERNEL",
    "NumpyKernel",
    "PolygonTable",
    "as_points",
    "corners_array",
    "corners_of_columns",
    "contains_points",
    "points_in_polygon",
    "region_supports_batch_objects",
    "objects_contained",
    "quads_overlap",
    "aabbs_of",
    "pairwise_collisions",
    "batch_collision_free",
]
