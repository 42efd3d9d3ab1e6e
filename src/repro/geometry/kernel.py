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
* :func:`objects_contained` — containment of ``N`` objects given their
  corner arrays, using the same corners-plus-edge-midpoints test as
  ``Region.contains_object``.
* :func:`pairwise_collisions` — all overlapping pairs among ``N`` convex
  quadrilaterals via a batched separating-axis test, with an AABB prefilter
  and a :class:`~repro.geometry.spatial_index.SpatialGrid` pruning the
  O(n²) pair enumeration for large ``N``.

The predicates agree with the scalar implementations: the separating-axis
test uses closed intervals (touching counts as overlap, exactly like
``polygons_intersect``) and :func:`points_in_polygon` replicates the scalar
ray-casting code operation for operation, so results are bit-identical away
from ~1-ulp boundary coincidences.

The four batch predicates (:func:`points_in_polygon`,
:func:`objects_contained`, :func:`pairwise_collisions` and
:func:`batch_collision_free`) are methods of one :class:`NumpyKernel`
instance, :data:`KERNEL`; the module functions call them through it.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

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


def corners_array(objects: Sequence[Any]) -> np.ndarray:
    """The bounding-box corners of concrete objects as an ``(N, 4, 2)`` array.

    Corner order matches ``Object.corners``: front-right first, then
    anticlockwise — so midpoint and SAT results line up with the scalar path.
    """
    n = len(objects)
    if n == 0:
        return np.zeros((0, 4, 2), dtype=float)
    positions = np.empty((n, 2), dtype=float)
    headings = np.empty(n, dtype=float)
    half_w = np.empty(n, dtype=float)
    half_h = np.empty(n, dtype=float)
    for index, scenic_object in enumerate(objects):
        position = scenic_object.position
        if hasattr(position, "x"):
            positions[index, 0] = position.x
            positions[index, 1] = position.y
        else:
            positions[index, 0] = position[0]
            positions[index, 1] = position[1]
        headings[index] = float(scenic_object.heading)
        half_w[index] = float(scenic_object.width) / 2.0
        half_h[index] = float(scenic_object.height) / 2.0
    # Local corner offsets (front-right, front-left, back-left, back-right).
    local_x = np.stack([half_w, -half_w, -half_w, half_w], axis=1)
    local_y = np.stack([half_h, half_h, -half_h, -half_h], axis=1)
    cos_h = np.cos(headings)[:, None]
    sin_h = np.sin(headings)[:, None]
    world_x = local_x * cos_h - local_y * sin_h + positions[:, 0:1]
    world_y = local_x * sin_h + local_y * cos_h + positions[:, 1:2]
    return np.stack([world_x, world_y], axis=2)


def object_test_points(corners: np.ndarray) -> np.ndarray:
    """Corners plus edge midpoints: the ``(N, 8, 2)`` containment test points.

    Matches ``Region.contains_object``: four corners and the midpoint of each
    bounding-box edge (the midpoints catch boxes straddling concave notches
    that a corner-only test wrongly accepts).
    """
    corners = np.asarray(corners, dtype=float)
    midpoints = (corners + np.roll(corners, -1, axis=1)) / 2.0
    return np.concatenate([corners, midpoints], axis=1)


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
        [np.roll(first, -1, axis=1) - first, np.roll(second, -1, axis=1) - second], axis=1
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

    This is the code the golden corpus was recorded against.  Its results
    are bit-identical to the scalar predicates: the separating-axis test
    uses closed intervals (touching counts as overlap, exactly like
    ``polygons_intersect``) and :meth:`points_in_polygon` replicates the
    scalar ray casting operation for operation.
    """

    name = "numpy"

    def points_in_polygon(self, vertices: Any, points: Any) -> np.ndarray:
        """Membership of each point in one simple polygon (boundary = inside).

        A faithful replication of :func:`repro.geometry.polygon.point_in_polygon`
        (same operations in the same order), evaluated for all points at once
        with one numpy pass per polygon edge.
        """
        vertices = np.asarray(vertices, dtype=float)
        pts = as_points(points)
        x, y = pts[:, 0], pts[:, 1]
        count = len(vertices)
        inside = np.zeros(len(pts), dtype=bool)
        on_edge = np.zeros(len(pts), dtype=bool)
        j = count - 1
        for i in range(count):
            xi, yi = vertices[i]
            xj, yj = vertices[j]
            # Boundary check (scalar `_point_on_segment` with a=v_i, b=v_j).
            edge_x, edge_y = xj - xi, yj - yi
            length_sq = edge_x * edge_x + edge_y * edge_y
            tolerance = 1e-9 * max(1.0, float(np.hypot(edge_x, edge_y)))
            cross = edge_x * (y - yi) - edge_y * (x - xi)
            dot = (x - xi) * edge_x + (y - yi) * edge_y
            on_edge |= (np.abs(cross) <= tolerance) & (dot >= -1e-9) & (dot <= length_sq + 1e-9)
            # Ray crossing (same expression as the scalar code, v_i/v_j swapped
            # roles preserved: slope_x anchored at v_j).
            crosses = (yi > y) != (yj > y)
            if crosses.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope_x = xj + (y - yj) * (xi - xj) / (yi - yj)
                inside ^= crosses & (x < slope_x)
            j = i
        return inside | on_edge

    def objects_contained(self, region: Any, corners: Any) -> np.ndarray:
        """Containment of ``N`` objects (``(N, 4, 2)`` corners) in *region*.

        The default ``Region.contains_object`` semantics — all four corners
        and all four edge midpoints inside — as one batched containment
        query through the region's ``contains_points_batch``.
        """
        corners = np.asarray(corners, dtype=float)
        n = corners.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        test_points = object_test_points(corners).reshape(-1, 2)
        inside = contains_points(region, test_points).reshape(n, 8)
        return inside.all(axis=1)

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
            from .spatial_index import SpatialGrid

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
        """
        corners = np.asarray(corners, dtype=float)
        k, n = corners.shape[0], corners.shape[1]
        if k == 0:
            return np.zeros(0, dtype=bool)
        if n < 2:
            return np.ones(k, dtype=bool)
        row, col = np.triu_indices(n, k=1)
        # Cheap AABB prefilter over every (candidate, pair): the exact SAT only
        # runs on pairs whose bounds overlap — usually a small fraction.
        mins = corners.min(axis=2)  # (K, N, 2)
        maxs = corners.max(axis=2)
        candidate = ~(
            (maxs[:, row, 0] < mins[:, col, 0])
            | (maxs[:, col, 0] < mins[:, row, 0])
            | (maxs[:, row, 1] < mins[:, col, 1])
            | (maxs[:, col, 1] < mins[:, row, 1])
        )  # (K, P)
        if collidable is not None:
            mask = np.asarray(collidable, dtype=bool)
            candidate &= mask[:, row] & mask[:, col]
        scene_index, pair_index = np.nonzero(candidate)
        if len(scene_index) == 0:
            return np.ones(k, dtype=bool)
        hits = quads_overlap(
            corners[scene_index, row[pair_index]], corners[scene_index, col[pair_index]]
        )
        free = np.ones(k, dtype=bool)
        free[scene_index[hits]] = False
        return free


#: The one kernel instance.  The module functions above look its methods up
#: on every call, so a wrapper set on this instance (a profiler's timer, a
#: test's planted fault) sees every batched predicate call.
KERNEL = NumpyKernel()


__all__ = [
    "GRID_PAIR_THRESHOLD",
    "KERNEL",
    "NumpyKernel",
    "as_points",
    "corners_array",
    "object_test_points",
    "contains_points",
    "points_in_polygon",
    "region_supports_batch_objects",
    "objects_contained",
    "quads_overlap",
    "aabbs_of",
    "pairwise_collisions",
    "batch_collision_free",
]
