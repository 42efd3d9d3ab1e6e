"""Simple polygons and the predicates the Scenic runtime needs.

A :class:`Polygon` is a simple (non-self-intersecting) polygon given by its
vertices in order (either orientation).  The runtime uses polygons for

* object bounding boxes (always convex quadrilaterals),
* road / curb / workspace regions (unions of convex pieces in the synthetic
  GTA-like map, arbitrary simple polygons elsewhere), and
* the pruning algorithms of Sec. 5.2, which intersect, dilate, and erode
  polygonal pieces of the map.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.vectors import Vector, VectorLike


class BoundingBox:
    """An axis-aligned rectangle given by its min/max corners."""

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        if min_x > max_x or min_y > max_y:
            raise ValueError("bounding box corners are inverted")
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    @staticmethod
    def of_points(points: Iterable[VectorLike]) -> "BoundingBox":
        xs, ys = [], []
        for point in points:
            vec = Vector.from_any(point)
            xs.append(vec.x)
            ys.append(vec.y)
        if not xs:
            raise ValueError("bounding box of empty point set")
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Vector:
        return Vector((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains_point(self, point: VectorLike) -> bool:
        vec = Vector.from_any(point)
        return self.min_x <= vec.x <= self.max_x and self.min_y <= vec.y <= self.max_y

    def intersects(self, other: "BoundingBox") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def expanded(self, margin: float) -> "BoundingBox":
        return BoundingBox(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    def to_polygon(self) -> "Polygon":
        return Polygon(
            [
                (self.min_x, self.min_y),
                (self.max_x, self.min_y),
                (self.max_x, self.max_y),
                (self.min_x, self.max_y),
            ]
        )

    def sample_point(self, random_source) -> Vector:
        """Uniformly random point inside the box, using ``random_source.uniform``."""
        return Vector(
            random_source.uniform(self.min_x, self.max_x),
            random_source.uniform(self.min_y, self.max_y),
        )

    def __repr__(self) -> str:
        return (
            f"BoundingBox({self.min_x:g}, {self.min_y:g}, {self.max_x:g}, {self.max_y:g})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return (self.min_x, self.min_y, self.max_x, self.max_y) == (
            other.min_x,
            other.min_y,
            other.max_x,
            other.max_y,
        )


def _orientation(a: Vector, b: Vector, c: Vector) -> float:
    """Twice the signed area of triangle abc (positive = anticlockwise)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_intersect(
    p1: VectorLike, p2: VectorLike, q1: VectorLike, q2: VectorLike
) -> bool:
    """True iff the closed segments ``p1p2`` and ``q1q2`` intersect."""
    p1, p2 = Vector.from_any(p1), Vector.from_any(p2)
    q1, q2 = Vector.from_any(q1), Vector.from_any(q2)
    d1 = _orientation(q1, q2, p1)
    d2 = _orientation(q1, q2, p2)
    d3 = _orientation(p1, p2, q1)
    d4 = _orientation(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a: Vector, b: Vector, c: Vector) -> bool:
        return (
            min(a.x, b.x) <= c.x <= max(a.x, b.x)
            and min(a.y, b.y) <= c.y <= max(a.y, b.y)
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def point_in_polygon(point: VectorLike, vertices: Sequence[Vector]) -> bool:
    """Ray-casting containment test; boundary points count as inside."""
    point = Vector.from_any(point)
    return _point_in_edges(point.x, point.y, _edge_table(vertices))


#: The tolerance of the on-edge test: a point within it of an edge is inside.
_ON_EDGE_TOLERANCE = 1e-9


def _edge_table(vertices: Sequence[Vector]) -> Tuple[Tuple[float, ...], ...]:
    """One row per ray-casting edge ``(v_i, v_j)``, with ``j = i - 1``.

    A row is ``(xi, yi, xj, yj, ex, ey, on_bound, dot_hi)``: the edge's
    vertices, its delta ``v_j - v_i``, the bound on the cross product below
    which a point may lie on the edge (``1e-9 * max(1, |v_i - v_j|)``) and
    the upper bound of the on-edge dot-product test (``|v_j - v_i|^2 +
    1e-9``).  A point ``p`` is on the edge when ``|ex * (py - yi) - ey *
    (px - xi)| <= on_bound`` and ``-1e-9 <= (px - xi) * ex + (py - yi) * ey
    <= dot_hi``.

    A zero-length edge (a repeated vertex) gets ``on_bound = -1``, so no
    point is on it: its cross and dot products are 0 for *every* point.
    Its vertex is still on the two neighbouring edges.
    """
    tolerance = _ON_EDGE_TOLERANCE
    rows = []
    vj = vertices[-1]
    for vi in vertices:
        ex, ey = vj.x - vi.x, vj.y - vi.y
        length = math.hypot(vi.x - vj.x, vi.y - vj.y)
        rows.append((
            vi.x, vi.y, vj.x, vj.y, ex, ey,
            tolerance * max(1.0, length) if length > 0 else -1.0,
            ex ** 2 + ey ** 2 + tolerance,
        ))
        vj = vi
    return tuple(rows)


def on_edge_reach(vertices: Sequence[Vector]) -> float:
    """How far outside the polygon its on-edge test can still accept a point.

    A point is on an edge of length ``L`` when it lies within ``1e-9 *
    max(1, L) / L`` of the edge's line and projects at most ``1e-9 / L``
    beyond either end, so it is within ``2e-9 * max(1, L) / L`` of the
    edge.  The largest such reach over the positive-length edges (a
    zero-length edge accepts no point); 0 when the polygon has none.
    """
    reach = 0.0
    previous = vertices[-1]
    for vertex in vertices:
        length = math.hypot(vertex.x - previous.x, vertex.y - previous.y)
        if length > 0:
            reach = max(reach, 2.0 * _ON_EDGE_TOLERANCE * max(1.0, length) / length)
        previous = vertex
    return reach


def _point_in_edges(px: float, py: float, edges: Sequence[Tuple[float, ...]]) -> bool:
    """The ray cast of :func:`point_in_polygon` over an :func:`_edge_table`.

    Edge by edge: a point on the edge (within the tolerance) is inside at
    once, and otherwise the edge flips ``inside`` when a ray from the point
    towards +x crosses it.  The dot product is only formed for a point near
    the edge's line, and the square root of the cross-product bound is
    taken once per edge, when the table is built.  The crossing abscissa
    ``xj + (py - yj) * ex / ey`` equals the numpy kernel's ``xj + (py - yj)
    * (xi - xj) / (yi - yj)`` up to the sign of a zero, since IEEE
    subtraction and division are sign-symmetric, and the sign of a zero
    never changes ``px < slope_x``.
    """
    inside = False
    for xi, yi, xj, yj, ex, ey, on_bound, dot_hi in edges:
        dx = px - xi
        dy = py - yi
        if abs(ex * dy - ey * dx) <= on_bound and (
            -_ON_EDGE_TOLERANCE <= dx * ex + dy * ey <= dot_hi
        ):
            return True
        if (yi > py) != (yj > py) and px < xj + (py - yj) * ex / ey:
            inside = not inside
    return inside


def _edges_distance(px: float, py: float, edges: Sequence[Tuple[float, ...]]) -> float:
    """The least distance from ``(px, py)`` to an edge of an :func:`_edge_table`.

    Per edge, the distance to the closest point ``a + t * (b - a)`` of the
    segment from ``a = v_j`` to ``b = v_i``, with ``t`` the projection
    parameter clamped to [0, 1], or to ``a`` for a zero-length edge.  The
    row holds ``v_j - v_i``, and ``b - a`` is its exact negation (IEEE
    subtraction is sign-symmetric), so each distance is bit for bit the one
    the same formula gives in Vector arithmetic, with no Vector built.
    """
    best = None
    for _xi, _yi, xj, yj, ex, ey, _on_bound, _dot_hi in edges:
        length_sq = ex * ex + ey * ey
        if length_sq == 0:
            distance = math.hypot(px - xj, py - yj)
        else:
            t = max(0.0, min(1.0, ((px - xj) * -ex + (py - yj) * -ey) / length_sq))
            distance = math.hypot(px - (xj - ex * t), py - (yj - ey * t))
        if best is None or distance < best:
            best = distance
    return best


class Polygon:
    """A simple polygon, stored with anticlockwise vertex order."""

    __slots__ = ("vertices", "_edges")

    def __init__(self, vertices: Sequence[VectorLike]):
        points = [Vector.from_any(v) for v in vertices]
        if len(points) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if _signed_area(points) < 0:
            points = list(reversed(points))
        self.vertices: Tuple[Vector, ...] = tuple(points)
        # The _edge_table of contains_point and distance_to_point, built at
        # first use.
        self._edges: Optional[Tuple[Tuple[float, ...], ...]] = None

    # -- basic measures --------------------------------------------------------

    @property
    def area(self) -> float:
        return abs(_signed_area(self.vertices))

    @property
    def centroid(self) -> Vector:
        signed = _signed_area(self.vertices)
        if signed == 0:
            xs = [v.x for v in self.vertices]
            ys = [v.y for v in self.vertices]
            return Vector(sum(xs) / len(xs), sum(ys) / len(ys))
        cx = cy = 0.0
        verts = self.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            cross = a.x * b.y - b.x * a.y
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Vector(cx * factor, cy * factor)

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.of_points(self.vertices)

    def edges(self) -> List[Tuple[Vector, Vector]]:
        verts = self.vertices
        return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]

    def is_convex(self, tolerance: float = 1e-9) -> bool:
        verts = self.vertices
        count = len(verts)
        for i in range(count):
            a, b, c = verts[i], verts[(i + 1) % count], verts[(i + 2) % count]
            if _orientation(a, b, c) < -tolerance:
                return False
        return True

    # -- predicates ------------------------------------------------------------

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        edges = self._edges
        if edges is None:
            edges = self._edges = _edge_table(self.vertices)
        return _point_in_edges(point.x, point.y, edges)

    def contains_polygon(self, other: "Polygon") -> bool:
        """Conservative containment: all of *other*'s vertices inside and no edge crossings."""
        if not all(self.contains_point(v) for v in other.vertices):
            return False
        for a1, a2 in self.edges():
            for b1, b2 in other.edges():
                if segments_intersect(a1, a2, b1, b2):
                    # Edges may touch at shared boundary points; treat proper
                    # crossings only as violations by checking midpoints.
                    mid = (b1 + b2) / 2
                    if not self.contains_point(mid):
                        return False
        return True

    def intersects(self, other: "Polygon") -> bool:
        return polygons_intersect(self, other)

    def distance_to_point(self, point: VectorLike) -> float:
        """Distance from *point* to the polygon (0 if inside)."""
        point = Vector.from_any(point)
        if self.contains_point(point):
            return 0.0
        return _edges_distance(point.x, point.y, self._edges)  # built by contains_point

    # -- transforms ------------------------------------------------------------

    def translated(self, offset: VectorLike) -> "Polygon":
        offset = Vector.from_any(offset)
        return Polygon([v + offset for v in self.vertices])

    def rotated(self, angle: float, about: Optional[VectorLike] = None) -> "Polygon":
        pivot = Vector.from_any(about) if about is not None else Vector(0, 0)
        return Polygon([(v - pivot).rotated_by(angle) + pivot for v in self.vertices])

    def scaled(self, factor: float, about: Optional[VectorLike] = None) -> "Polygon":
        pivot = Vector.from_any(about) if about is not None else self.centroid
        return Polygon([(v - pivot) * factor + pivot for v in self.vertices])

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polygon({[v.to_tuple() for v in self.vertices]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    @staticmethod
    def rectangle(center: VectorLike, width: float, height: float, heading: float = 0.0) -> "Polygon":
        """Axis-aligned w×h rectangle rotated to *heading* about its centre.

        This is exactly the bounding box of an :class:`Object` in the paper:
        ``width`` spans the local x axis and ``height`` the local y axis.
        """
        center = Vector.from_any(center)
        half_w, half_h = width / 2.0, height / 2.0
        corners = [
            Vector(-half_w, -half_h),
            Vector(half_w, -half_h),
            Vector(half_w, half_h),
            Vector(-half_w, half_h),
        ]
        return Polygon([center + corner.rotated_by(heading) for corner in corners])


def _signed_area(vertices: Sequence[Vector]) -> float:
    total = 0.0
    count = len(vertices)
    for i in range(count):
        a, b = vertices[i], vertices[(i + 1) % count]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


def polygons_intersect(p: Polygon, q: Polygon) -> bool:
    """True iff the two polygons overlap (share interior or boundary points)."""
    if not p.bounding_box().intersects(q.bounding_box()):
        return False
    for a1, a2 in p.edges():
        for b1, b2 in q.edges():
            if segments_intersect(a1, a2, b1, b2):
                return True
    # No edge crossings: one may contain the other entirely.
    return p.contains_point(q.vertices[0]) or q.contains_point(p.vertices[0])


def convex_hull(points: Iterable[VectorLike]) -> Polygon:
    """Andrew's monotone-chain convex hull."""
    pts = sorted({Vector.from_any(p).to_tuple() for p in points})
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")
    pts = [Vector(x, y) for x, y in pts]

    def half_hull(sequence):
        hull: List[Vector] = []
        for point in sequence:
            while len(hull) >= 2 and _orientation(hull[-2], hull[-1], point) <= 0:
                hull.pop()
            hull.append(point)
        return hull

    lower = half_hull(pts)
    upper = half_hull(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # All points collinear: fall back to a degenerate thin rectangle.
        a, b = pts[0], pts[-1]
        direction = (b - a)
        if direction.norm() == 0:
            raise ValueError("convex hull of coincident points")
        normal = Vector(-direction.y, direction.x) * (1e-9 / direction.norm())
        return Polygon([a + normal, b + normal, b - normal, a - normal])
    return Polygon(hull)


def clip_polygon(subject: Polygon, clip: Polygon) -> Optional[Polygon]:
    """Sutherland–Hodgman clipping of *subject* against a convex *clip* polygon.

    Returns the intersection polygon, or ``None`` if it is empty.  The result
    is exact when *clip* is convex (the only case the pruning algorithms
    need); *subject* may be any simple polygon, in which case the output is a
    (possibly degenerate) superset of the true intersection boundary, which
    keeps the pruning algorithms sound.
    """
    output = list(subject.vertices)
    clip_vertices = clip.vertices
    count = len(clip_vertices)
    for i in range(count):
        if not output:
            return None
        a, b = clip_vertices[i], clip_vertices[(i + 1) % count]
        input_list = output
        output = []

        def inside(point: Vector) -> bool:
            return _orientation(a, b, point) >= -1e-12

        def line_intersection(p1: Vector, p2: Vector) -> Vector:
            # Intersection of segment p1p2 with the infinite line ab.
            d1 = _orientation(a, b, p1)
            d2 = _orientation(a, b, p2)
            if d1 == d2:
                return p1
            t = d1 / (d1 - d2)
            return p1 + (p2 - p1) * t

        for index, current in enumerate(input_list):
            previous = input_list[index - 1]
            if inside(current):
                if not inside(previous):
                    output.append(line_intersection(previous, current))
                output.append(current)
            elif inside(previous):
                output.append(line_intersection(previous, current))
    # Remove (near-)duplicate consecutive vertices before constructing.
    cleaned: List[Vector] = []
    for vertex in output:
        if not cleaned or not vertex.is_close_to(cleaned[-1], tolerance=1e-9):
            cleaned.append(vertex)
    if len(cleaned) >= 2 and cleaned[0].is_close_to(cleaned[-1], tolerance=1e-9):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    result = Polygon(cleaned)
    if result.area < 1e-12:
        return None
    return result
