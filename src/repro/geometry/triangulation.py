"""Ear-clipping triangulation and uniform sampling inside polygons.

Scenic's ``on region`` specifier needs uniformly random points inside
polygonal regions (roads, curbs, workspaces).  We triangulate the polygon
once, then sample a triangle with probability proportional to its area and a
uniform point inside that triangle.

Ear clipping is robust: polygons with duplicate or collinear vertices (the
normal output of region clipping during pruning) are rescued by a
cleanup-and-retry pass instead of silently falling back to a centroid fan
that under- or over-covers non-convex inputs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..core.vectors import Vector, VectorLike
from .polygon import Polygon, point_in_polygon

Triangle = Tuple[Vector, Vector, Vector]

#: Cross products (twice the corner area) below this count as collinear in
#: the robust cleanup pass.
_COLLINEAR_EPS = 1e-12


def _triangle_area(a: Vector, b: Vector, c: Vector) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


def _is_ear(vertices: Sequence[Vector], indices: List[int], position: int) -> bool:
    count = len(indices)
    prev_vertex = vertices[indices[(position - 1) % count]]
    ear_vertex = vertices[indices[position]]
    next_vertex = vertices[indices[(position + 1) % count]]
    # The candidate ear must be a convex corner (polygon stored anticlockwise).
    cross = (ear_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
        ear_vertex.y - prev_vertex.y
    ) * (next_vertex.x - prev_vertex.x)
    if cross <= 0:
        return False
    # No other vertex may lie inside the candidate ear triangle.
    for other_position in range(count):
        if other_position in (
            (position - 1) % count,
            position,
            (position + 1) % count,
        ):
            continue
        other = vertices[indices[other_position]]
        if _point_in_triangle(other, prev_vertex, ear_vertex, next_vertex):
            return False
    return True


def _point_in_triangle(point: Vector, a: Vector, b: Vector, c: Vector) -> bool:
    d1 = (point.x - b.x) * (a.y - b.y) - (a.x - b.x) * (point.y - b.y)
    d2 = (point.x - c.x) * (b.y - c.y) - (b.x - c.x) * (point.y - c.y)
    d3 = (point.x - a.x) * (c.y - a.y) - (c.x - a.x) * (point.y - a.y)
    has_negative = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_positive = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_negative and has_positive)


def _ear_clip(vertices: Sequence[Vector], robust: bool = False) -> Optional[List[Triangle]]:
    """Ear-clip a vertex ring; ``None`` when the loop stalls before finishing.

    With ``robust=True`` the ear test skips coincident vertices and only
    counts strictly interior points as blockers (the rescue pass of
    :func:`triangulate`); the default test is the original, stricter one,
    kept bit-for-bit so previously-triangulable polygons produce the
    identical fan (the golden corpus pins the sampling streams built on it).
    """
    if len(vertices) < 3:
        return []
    if len(vertices) == 3:
        if _triangle_area(*vertices) > 1e-15:
            return [tuple(vertices)]  # type: ignore[return-value]
        return []
    ear_test = _is_ear_robust if robust else _is_ear
    indices = list(range(len(vertices)))
    triangles: List[Triangle] = []
    guard = 0
    max_iterations = len(vertices) ** 2 + 10
    while len(indices) > 3 and guard < max_iterations:
        guard += 1
        ear_found = False
        for position in range(len(indices)):
            if ear_test(vertices, indices, position):
                count = len(indices)
                prev_vertex = vertices[indices[(position - 1) % count]]
                ear_vertex = vertices[indices[position]]
                next_vertex = vertices[indices[(position + 1) % count]]
                if _triangle_area(prev_vertex, ear_vertex, next_vertex) > 1e-15:
                    triangles.append((prev_vertex, ear_vertex, next_vertex))
                del indices[position]
                ear_found = True
                break
        if not ear_found:
            return None
    if len(indices) == 3:
        a, b, c = (vertices[i] for i in indices)
        if _triangle_area(a, b, c) > 1e-15:
            triangles.append((a, b, c))
    return triangles


def _is_ear_robust(vertices: Sequence[Vector], indices: List[int], position: int) -> bool:
    """Ear test tolerant of duplicate vertices and collinear runs."""
    count = len(indices)
    prev_vertex = vertices[indices[(position - 1) % count]]
    ear_vertex = vertices[indices[position]]
    next_vertex = vertices[indices[(position + 1) % count]]
    cross = (ear_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
        ear_vertex.y - prev_vertex.y
    ) * (next_vertex.x - prev_vertex.x)
    if cross <= _COLLINEAR_EPS:
        return False
    corners = (prev_vertex, ear_vertex, next_vertex)
    for other_position in range(count):
        if other_position in (
            (position - 1) % count,
            position,
            (position + 1) % count,
        ):
            continue
        other = vertices[indices[other_position]]
        if any(_coincident(other, corner) for corner in corners):
            continue
        if _point_strictly_in_triangle(other, prev_vertex, ear_vertex, next_vertex):
            return False
        # A vertex exactly on the ear's *diagonal* (prev -> next) also
        # blocks: the boundary chain touches the cut there, and clipping
        # would pinch the ring into a weakly self-overlapping remainder
        # that double-covers area.  Points on the two existing polygon
        # edges are fine — the boundary genuinely runs along them.
        if _point_on_open_segment(other, prev_vertex, next_vertex):
            return False
    return True


def _point_on_open_segment(
    point: Vector, a: Vector, b: Vector, tolerance: float = 1e-9
) -> bool:
    """Whether *point* lies on segment ``a-b``, excluding the endpoints."""
    ab_x, ab_y = b.x - a.x, b.y - a.y
    length_sq = ab_x * ab_x + ab_y * ab_y
    if length_sq <= tolerance * tolerance:
        return False
    ap_x, ap_y = point.x - a.x, point.y - a.y
    t = (ap_x * ab_x + ap_y * ab_y) / length_sq
    if t <= 0.0 or t >= 1.0:
        return False
    cross = ap_x * ab_y - ap_y * ab_x
    return cross * cross <= (tolerance * tolerance) * length_sq


def _coincident(a: Vector, b: Vector, tolerance: float = 1e-12) -> bool:
    return abs(a.x - b.x) <= tolerance and abs(a.y - b.y) <= tolerance


def _point_strictly_in_triangle(point: Vector, a: Vector, b: Vector, c: Vector) -> bool:
    d1 = (point.x - b.x) * (a.y - b.y) - (a.x - b.x) * (point.y - b.y)
    d2 = (point.x - c.x) * (b.y - c.y) - (b.x - c.x) * (point.y - c.y)
    d3 = (point.x - a.x) * (c.y - a.y) - (c.x - a.x) * (point.y - a.y)
    return (d1 > _COLLINEAR_EPS and d2 > _COLLINEAR_EPS and d3 > _COLLINEAR_EPS) or (
        d1 < -_COLLINEAR_EPS and d2 < -_COLLINEAR_EPS and d3 < -_COLLINEAR_EPS
    )


def _drop_degenerate_vertices(vertices: Sequence[Vector]) -> List[Vector]:
    """Remove consecutive duplicates and exactly-collinear middle vertices.

    Region clipping routinely emits both (a clip edge grazing a vertex
    duplicates it; a cut through a straight edge leaves a collinear middle
    point); either can stall the strict ear test, so the rescue pass clips
    the cleaned ring instead.  The polygon's shape — and therefore its area
    — is unchanged.
    """
    cleaned: List[Vector] = []
    for vertex in vertices:
        if cleaned and _coincident(vertex, cleaned[-1]):
            continue
        cleaned.append(vertex)
    while len(cleaned) > 1 and _coincident(cleaned[0], cleaned[-1]):
        cleaned.pop()
    changed = True
    while changed and len(cleaned) > 3:
        changed = False
        for index in range(len(cleaned)):
            prev_vertex = cleaned[index - 1]
            mid_vertex = cleaned[index]
            next_vertex = cleaned[(index + 1) % len(cleaned)]
            cross = (mid_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
                mid_vertex.y - prev_vertex.y
            ) * (next_vertex.x - prev_vertex.x)
            scale = 1.0 + prev_vertex.distance_to(mid_vertex) * mid_vertex.distance_to(next_vertex)
            if abs(cross) <= _COLLINEAR_EPS * scale:
                del cleaned[index]
                changed = True
                break
    return cleaned


def triangulate(polygon: Polygon) -> List[Triangle]:
    """Split a simple polygon into triangles by ear clipping.

    The polygon's vertices are assumed to be in anticlockwise order (the
    :class:`Polygon` constructor guarantees this).  Runs in O(n^2), which is
    ample for the map polygons used in the reproduction.

    Polygons the strict ear test stalls on — duplicate vertices, collinear
    runs, both common in clipped pruned regions — are retried on a cleaned
    vertex ring with the tolerant ear test; only if that also fails does the
    legacy centroid-fan fallback apply (exact for convex input, best-effort
    otherwise).
    """
    vertices = list(polygon.vertices)
    triangles = _ear_clip(vertices)
    if triangles is None:
        cleaned = _drop_degenerate_vertices(vertices)
        if len(cleaned) >= 3:
            triangles = _ear_clip(cleaned, robust=True)
    if not triangles:
        triangles = []
        centroid = polygon.centroid
        verts = polygon.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            if _triangle_area(centroid, a, b) > 1e-15:
                triangles.append((centroid, a, b))
    return triangles


def sample_point_in_triangle(triangle: Triangle, random_source) -> Vector:
    """Uniformly random point inside a triangle via the square-root trick."""
    a, b, c = triangle
    r1 = math.sqrt(random_source.random())
    r2 = random_source.random()
    return a * (1 - r1) + b * (r1 * (1 - r2)) + c * (r1 * r2)


class TriangulatedSampler:
    """Caches a polygon's triangulation to draw many uniform samples cheaply."""

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        self.triangles = triangulate(polygon)
        self._areas = [_triangle_area(*t) for t in self.triangles]
        total = sum(self._areas)
        if total <= 0:
            raise ValueError("cannot sample from a polygon with zero area")
        self._cumulative = []
        running = 0.0
        for area in self._areas:
            running += area / total
            self._cumulative.append(running)

    def sample(self, random_source) -> Vector:
        u = random_source.random()
        for triangle, threshold in zip(self.triangles, self._cumulative):
            if u <= threshold:
                return sample_point_in_triangle(triangle, random_source)
        return sample_point_in_triangle(self.triangles[-1], random_source)


def sample_point_in_polygon(polygon: Polygon, random_source) -> Vector:
    """Uniformly random point inside *polygon* (one-shot convenience wrapper)."""
    return TriangulatedSampler(polygon).sample(random_source)


def sample_point_on_boundary(polygon: Polygon, random_source) -> Tuple[Vector, float]:
    """Random point on the polygon boundary, uniform by arc length.

    Returns the point together with the heading of the edge it lies on
    (useful for curb-like regions whose preferred orientation follows the
    boundary).
    """
    edges = polygon.edges()
    lengths = [a.distance_to(b) for a, b in edges]
    total = sum(lengths)
    if total <= 0:
        raise ValueError("cannot sample on a degenerate boundary")
    target = random_source.random() * total
    running = 0.0
    for (a, b), length in zip(edges, lengths):
        if running + length >= target:
            t = (target - running) / length if length > 0 else 0.0
            point = a + (b - a) * t
            heading = (b - a).angle()
            return point, heading
        running += length
    a, b = edges[-1]
    return b, (b - a).angle()
