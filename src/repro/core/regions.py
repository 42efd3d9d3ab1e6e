"""Regions: sets of points in the workspace (one of Scenic's primitive types).

Regions support three operations the runtime needs:

* membership (``contains_point`` / ``contains_object``) for the built-in and
  user requirements (``X is in region``);
* uniform sampling, used by the ``(in | on) region`` and ``visible`` position
  specifiers — sampling a region yields a :class:`PointInRegionDistribution`
  so the draw happens per scene;
* an optional *preferred orientation* (a vector field), which the ``on
  region`` specifier uses to optionally specify ``heading``.

The concrete region classes mirror the reference implementation: circles,
sectors (view cones), rotated rectangles, polygonal regions (unions of simple
polygons), polylines (for curbs) and finite point sets, plus lazy
intersection and difference regions evaluated by rejection.
"""

from __future__ import annotations

import math
import random as _random
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import kernel as _kernel
from ..geometry.polygon import BoundingBox, Polygon, polygons_intersect
from ..geometry.triangulation import TriangulatedSampler
from .distributions import Distribution
from .errors import RejectSample, ScenicError
from .utils import normalize_angle
from .vectors import Vector, VectorLike


class PointInRegionDistribution(Distribution):
    """A uniformly random point of a region (drawn once per scene)."""

    def __init__(self, region: "Region"):
        super().__init__(region)
        self.region = region

    def sample_given(self, dependency_values, rng):
        (region,) = dependency_values
        return region.uniform_point(rng)

    def __repr__(self) -> str:
        return f"PointInRegionDistribution({self.region!r})"


class Region:
    """Abstract base class for all regions."""

    def __init__(self, name: str, orientation: Optional[Any] = None):
        self.name = name
        #: Optional preferred orientation (a :class:`VectorField`).
        self.orientation = orientation

    # -- membership -------------------------------------------------------------

    def contains_point(self, point: VectorLike) -> bool:
        raise NotImplementedError

    def contains_points_batch(self, points: Any) -> "np.ndarray":
        """Membership of ``N`` points at once, as a boolean array.

        This scalar fallback simply loops :meth:`contains_point`, so
        third-party regions inherit batch semantics for free; every built-in
        region overrides it with a genuinely vectorized implementation (the
        contract: identical results to calling ``contains_point`` per point,
        up to ~1-ulp boundary coincidences).  *points* may be an ``(N, 2)``
        array or any iterable of vector-likes.
        """
        pts = _kernel.as_points(points)
        return np.fromiter(
            (bool(self.contains_point((x, y))) for x, y in pts), dtype=bool, count=len(pts)
        )

    def contains_object(self, scenic_object: Any) -> bool:
        """An object is inside iff its corners *and* edge midpoints all are.

        Corners alone wrongly accept a box straddling a concave notch of the
        region (all four corners inside, the middle of an edge outside); the
        midpoints catch that case while staying exact for convex regions,
        where corner containment already implies full containment.
        """
        corners = scenic_object.corners
        if not all(self.contains_point(corner) for corner in corners):
            return False
        count = len(corners)
        return all(
            self.contains_point((corners[i] + corners[(i + 1) % count]) / 2)
            for i in range(count)
        )

    # -- sampling ---------------------------------------------------------------

    def uniform_point(self, rng: _random.Random) -> Vector:
        """Draw a uniformly random point; may raise :class:`RejectSample`."""
        raise NotImplementedError

    def uniform_point_distribution(self) -> PointInRegionDistribution:
        return PointInRegionDistribution(self)

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> Optional[BoundingBox]:
        """Axis-aligned bounds, or ``None`` when unbounded."""
        return None

    def area(self) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no finite area")

    def intersect(self, other: "Region") -> "Region":
        """The intersection region (sampled by rejection unless specialised)."""
        if isinstance(other, EverywhereRegion):
            return self
        if isinstance(self, EverywhereRegion):
            return other
        return IntersectionRegion(self, other)

    def difference(self, other: "Region") -> "Region":
        return DifferenceRegion(self, other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class EverywhereRegion(Region):
    """The whole plane: everything is contained, nothing can be sampled."""

    def __init__(self, name: str = "everywhere"):
        super().__init__(name)

    def contains_point(self, point: VectorLike) -> bool:
        return True

    def contains_points_batch(self, points: Any) -> np.ndarray:
        return np.ones(len(_kernel.as_points(points)), dtype=bool)

    def contains_object(self, scenic_object: Any) -> bool:
        return True

    def uniform_point(self, rng):
        raise ScenicError("cannot sample a uniformly random point of the whole plane")


class EmptyRegion(Region):
    """The empty set (useful as an identity for unions and error cases)."""

    def __init__(self, name: str = "empty"):
        super().__init__(name)

    def contains_point(self, point: VectorLike) -> bool:
        return False

    def contains_points_batch(self, points: Any) -> np.ndarray:
        return np.zeros(len(_kernel.as_points(points)), dtype=bool)

    def contains_object(self, scenic_object: Any) -> bool:
        return False

    def uniform_point(self, rng):
        raise RejectSample("sampling from an empty region")

    def area(self) -> float:
        return 0.0


everywhere = EverywhereRegion()
nowhere = EmptyRegion()


class CircularRegion(Region):
    """A disc of the given radius about a centre point."""

    def __init__(self, center: VectorLike, radius: float, name: str = "circle"):
        super().__init__(name)
        self.center = Vector.from_any(center)
        self.radius = float(radius)
        if self.radius < 0:
            raise ScenicError("circle radius must be non-negative")

    def contains_point(self, point: VectorLike) -> bool:
        return self.center.distance_to(point) <= self.radius + 1e-9

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        distances = np.hypot(pts[:, 0] - self.center.x, pts[:, 1] - self.center.y)
        return distances <= self.radius + 1e-9

    def uniform_point(self, rng):
        r = self.radius * math.sqrt(rng.random())
        theta = rng.uniform(0, 2 * math.pi)
        return self.center + Vector(r * math.cos(theta), r * math.sin(theta))

    def bounding_box(self):
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def area(self) -> float:
        return math.pi * self.radius ** 2


class SectorRegion(Region):
    """A circular sector: the view cone of an :class:`OrientedPoint`.

    ``heading`` is the direction of the bisector and ``angle`` the full
    opening angle; an angle of ``2*pi`` (or more) degenerates to a disc.
    """

    def __init__(
        self,
        center: VectorLike,
        radius: float,
        heading: float,
        angle: float,
        name: str = "sector",
    ):
        super().__init__(name)
        self.center = Vector.from_any(center)
        self.radius = float(radius)
        self.heading = float(heading)
        self.angle = float(angle)
        if self.radius < 0:
            raise ScenicError("sector radius must be non-negative")
        if self.angle <= 0:
            raise ScenicError("sector angle must be positive")

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        offset = point - self.center
        if offset.norm() > self.radius + 1e-9:
            return False
        if self.angle >= 2 * math.pi - 1e-9:
            return True
        if offset.norm() < 1e-12:
            return True
        relative = abs(normalize_angle(offset.angle() - self.heading))
        return relative <= self.angle / 2 + 1e-9

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        dx = pts[:, 0] - self.center.x
        dy = pts[:, 1] - self.center.y
        norms = np.hypot(dx, dy)
        in_radius = norms <= self.radius + 1e-9
        if self.angle >= 2 * math.pi - 1e-9:
            return in_radius
        # Heading of the offset (anticlockwise from North), wrapped to (-pi, pi].
        angles = np.arctan2(-dx, dy)
        relative = np.abs(_normalize_angles(angles - self.heading))
        in_cone = (relative <= self.angle / 2 + 1e-9) | (norms < 1e-12)
        return in_radius & in_cone

    def uniform_point(self, rng):
        half = min(self.angle, 2 * math.pi) / 2
        theta = self.heading + rng.uniform(-half, half)
        r = self.radius * math.sqrt(rng.random())
        # theta is a *heading* (anticlockwise from North).
        return self.center + Vector(-r * math.sin(theta), r * math.cos(theta))

    def bounding_box(self):
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def area(self) -> float:
        fraction = min(self.angle, 2 * math.pi) / (2 * math.pi)
        return math.pi * self.radius ** 2 * fraction


class RectangularRegion(Region):
    """A rectangle with arbitrary heading, given by centre, width and height."""

    def __init__(
        self,
        center: VectorLike,
        heading: float,
        width: float,
        height: float,
        name: str = "rectangle",
        orientation: Optional[Any] = None,
    ):
        super().__init__(name, orientation)
        self.center = Vector.from_any(center)
        self.heading = float(heading)
        self.width = float(width)
        self.height = float(height)
        self.polygon = Polygon.rectangle(self.center, self.width, self.height, self.heading)

    def contains_point(self, point: VectorLike) -> bool:
        local = (Vector.from_any(point) - self.center).rotated_by(-self.heading)
        return abs(local.x) <= self.width / 2 + 1e-9 and abs(local.y) <= self.height / 2 + 1e-9

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        dx = pts[:, 0] - self.center.x
        dy = pts[:, 1] - self.center.y
        cos_h = math.cos(-self.heading)
        sin_h = math.sin(-self.heading)
        local_x = dx * cos_h - dy * sin_h
        local_y = dx * sin_h + dy * cos_h
        return (np.abs(local_x) <= self.width / 2 + 1e-9) & (
            np.abs(local_y) <= self.height / 2 + 1e-9
        )

    def uniform_point(self, rng):
        local = Vector(
            rng.uniform(-self.width / 2, self.width / 2),
            rng.uniform(-self.height / 2, self.height / 2),
        )
        return self.center + local.rotated_by(self.heading)

    def bounding_box(self):
        return self.polygon.bounding_box()

    def area(self) -> float:
        return self.width * self.height


class PolygonalRegion(Region):
    """A union of simple polygons, optionally with a preferred orientation."""

    def __init__(
        self,
        polygons: Sequence[Polygon],
        name: str = "polygonal",
        orientation: Optional[Any] = None,
    ):
        super().__init__(name, orientation)
        polygon_list = list(polygons)
        if not polygon_list:
            raise ScenicError("a polygonal region needs at least one polygon")
        self.polygons: Tuple[Polygon, ...] = tuple(polygon_list)
        self._samplers = [TriangulatedSampler(polygon) for polygon in self.polygons]
        self._areas = [polygon.area for polygon in self.polygons]
        self._total_area = sum(self._areas)
        if self._total_area <= 0:
            raise ScenicError("polygonal region has zero total area")
        self._cumulative: List[float] = []
        running = 0.0
        for polygon_area in self._areas:
            running += polygon_area / self._total_area
            self._cumulative.append(running)
        self._table: Optional[_kernel.PolygonTable] = None

    #: Unions with at least this many pieces locate a single point through
    #: a SpatialGrid over their pieces' padded boxes.
    _GRID_MIN_POLYGONS = 8

    def _polygon_table(self) -> _kernel.PolygonTable:
        """The pieces' :class:`~repro.geometry.kernel.PolygonTable`, built at first use."""
        table = self._table
        if table is None:
            # Published with one store of a whole table: parallel sampling
            # shares one region across worker threads, and a reader must
            # never see a table whose columns or boxes are still missing.
            table = self._table = _kernel.PolygonTable(
                [polygon.vertices for polygon in self.polygons]
            )
        return table

    def contains_point(self, point: VectorLike) -> bool:
        if len(self.polygons) >= self._GRID_MIN_POLYGONS:
            # Large unions (road maps) test only the pieces whose grid cell
            # covers the point.  The grid over-approximates (padded bounding
            # boxes), so the boolean verdict is identical to the linear scan.
            point = Vector.from_any(point)
            grid = self._polygon_table().grid()
            return any(
                self.polygons[index].contains_point(point)
                for index in grid.bucket_for_point(point.x, point.y)
            )
        return any(polygon.contains_point(point) for polygon in self.polygons)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        return self._polygon_table().held(pts[:, 0], pts[:, 1]).any(axis=0)

    def uniform_point(self, rng):
        u = rng.random()
        for sampler, threshold in zip(self._samplers, self._cumulative):
            if u <= threshold:
                return sampler.sample(rng)
        return self._samplers[-1].sample(rng)

    def triangle_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """:meth:`uniform_point`'s tables as arrays, for drawing many points at once.

        The pieces' running area shares; each piece's triangle shares, padded
        with ``inf`` to one ``(pieces, triangles)`` array; each piece's first
        row in the flat triangle list and its triangle count; and that list's
        ``a``, ``b`` and ``c`` coordinates as six columns.  Built once.
        """
        tables = getattr(self, "_triangle_tables", None)
        if tables is None:
            samplers = self._samplers
            shares = np.full((len(samplers), max(len(s._cumulative) for s in samplers)), np.inf)
            corners = []
            for index, sampler in enumerate(samplers):
                shares[index, : len(sampler._cumulative)] = sampler._cumulative
                corners.extend((a.x, a.y, b.x, b.y, c.x, c.y) for a, b, c in sampler.triangles)
            counts = np.array([len(sampler.triangles) for sampler in samplers])
            tables = self._triangle_tables = (
                np.array(self._cumulative, dtype=float),
                shares,
                np.cumsum(counts) - counts,
                counts,
                tuple(np.ascontiguousarray(column) for column in np.array(corners).T),
            )
        return tables

    def bounding_box(self):
        boxes = [polygon.bounding_box() for polygon in self.polygons]
        return BoundingBox(
            min(box.min_x for box in boxes),
            min(box.min_y for box in boxes),
            max(box.max_x for box in boxes),
            max(box.max_y for box in boxes),
        )

    def area(self) -> float:
        return self._total_area

    def intersects_polygon(self, polygon: Polygon) -> bool:
        return any(polygons_intersect(piece, polygon) for piece in self.polygons)

    def restricted_to(self, polygons: Sequence[Polygon], name: Optional[str] = None) -> "PolygonalRegion":
        """A new region made of the given polygons but keeping this region's orientation."""
        return PolygonalRegion(polygons, name or f"{self.name}*", orientation=self.orientation)


class PolylineRegion(Region):
    """A chain (or union of chains) of line segments, e.g. the curb.

    Sampling is uniform by arc length.  The region has a natural preferred
    orientation: the heading of the segment a point lies on.  That
    orientation is exposed both through :meth:`orientation_at` and, when the
    region is constructed, through a segment-based vector field assigned to
    ``self.orientation`` by the caller (the GTA world library does this).
    """

    def __init__(self, chains: Sequence[Sequence[VectorLike]], name: str = "polyline",
                 orientation: Optional[Any] = None):
        super().__init__(name, orientation)
        self.segments: List[Tuple[Vector, Vector]] = []
        for chain in chains:
            points = [Vector.from_any(p) for p in chain]
            for start, end in zip(points[:-1], points[1:]):
                if start.distance_to(end) > 0:
                    self.segments.append((start, end))
        if not self.segments:
            raise ScenicError("a polyline region needs at least one segment")
        self._lengths = [a.distance_to(b) for a, b in self.segments]
        self._total_length = sum(self._lengths)

    def contains_point(self, point: VectorLike, tolerance: float = 0.5) -> bool:
        point = Vector.from_any(point)
        return any(
            _point_segment_distance(point, a, b) <= tolerance for a, b in self.segments
        )

    def contains_points_batch(self, points: Any, tolerance: float = 0.5) -> np.ndarray:
        pts = _kernel.as_points(points)
        result = np.zeros(len(pts), dtype=bool)
        if len(pts) == 0:
            return result
        starts = np.array([(a.x, a.y) for a, _b in self.segments], dtype=float)
        ends = np.array([(b.x, b.y) for _a, b in self.segments], dtype=float)
        segments = ends - starts  # (S, 2)
        lengths_sq = (segments ** 2).sum(axis=1)
        # Project every point onto every segment: (N, S) parameters clamped to [0, 1].
        offsets_x = pts[:, 0:1] - starts[None, :, 0]
        offsets_y = pts[:, 1:2] - starts[None, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (offsets_x * segments[None, :, 0] + offsets_y * segments[None, :, 1]) / lengths_sq
        t = np.clip(np.where(lengths_sq > 0, t, 0.0), 0.0, 1.0)
        nearest_dx = offsets_x - t * segments[None, :, 0]
        nearest_dy = offsets_y - t * segments[None, :, 1]
        distances = np.hypot(nearest_dx, nearest_dy)
        return (distances <= tolerance).any(axis=1)

    def uniform_point(self, rng):
        target = rng.random() * self._total_length
        running = 0.0
        for (a, b), length in zip(self.segments, self._lengths):
            if running + length >= target:
                t = (target - running) / length
                return a + (b - a) * t
            running += length
        a, b = self.segments[-1]
        return b

    def orientation_at(self, point: VectorLike) -> float:
        """Heading of the nearest segment at *point*."""
        point = Vector.from_any(point)
        best_segment = min(
            self.segments, key=lambda seg: _point_segment_distance(point, seg[0], seg[1])
        )
        return (best_segment[1] - best_segment[0]).angle()

    def bounding_box(self):
        points = [p for segment in self.segments for p in segment]
        return BoundingBox.of_points(points)

    def length(self) -> float:
        return self._total_length

    def area(self) -> float:
        return 0.0


class PointSetRegion(Region):
    """A finite set of points (e.g. parking spots); sampling picks one uniformly."""

    def __init__(self, points: Iterable[VectorLike], name: str = "points",
                 orientation: Optional[Any] = None, tolerance: float = 1e-6):
        super().__init__(name, orientation)
        self.points = [Vector.from_any(p) for p in points]
        if not self.points:
            raise ScenicError("a point-set region needs at least one point")
        self.tolerance = tolerance

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return any(point.distance_to(p) <= self.tolerance for p in self.points)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        anchors = np.array([(p.x, p.y) for p in self.points], dtype=float)
        distances = np.hypot(
            pts[:, 0:1] - anchors[None, :, 0], pts[:, 1:2] - anchors[None, :, 1]
        )
        return (distances <= self.tolerance).any(axis=1)

    def uniform_point(self, rng):
        return rng.choice(self.points)

    def bounding_box(self):
        return BoundingBox.of_points(self.points)

    def area(self) -> float:
        return 0.0


class IntersectionRegion(Region):
    """Intersection of two regions, sampled by rejection from the smaller one."""

    def __init__(self, first: Region, second: Region, name: Optional[str] = None,
                 max_attempts: int = 200):
        super().__init__(name or f"({first.name} ∩ {second.name})",
                         first.orientation or second.orientation)
        self.first = first
        self.second = second
        self.max_attempts = max_attempts

    def _sampling_order(self) -> Tuple[Region, Region]:
        """Sample from the region with the smaller (known) area, test the other."""
        try:
            first_area = self.first.area()
        except (NotImplementedError, ScenicError):
            first_area = math.inf
        try:
            second_area = self.second.area()
        except (NotImplementedError, ScenicError):
            second_area = math.inf
        if second_area < first_area:
            return self.second, self.first
        return self.first, self.second

    def contains_point(self, point: VectorLike) -> bool:
        return self.first.contains_point(point) and self.second.contains_point(point)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        return self.first.contains_points_batch(pts) & self.second.contains_points_batch(pts)

    def uniform_point(self, rng):
        source, filter_region = self._sampling_order()
        for _ in range(self.max_attempts):
            candidate = source.uniform_point(rng)
            if filter_region.contains_point(candidate):
                return candidate
        raise RejectSample(f"could not sample a point in {self.name}")

    def bounding_box(self):
        first_box = self.first.bounding_box()
        second_box = self.second.bounding_box()
        if first_box is None:
            return second_box
        if second_box is None:
            return first_box
        return BoundingBox(
            max(first_box.min_x, second_box.min_x),
            max(first_box.min_y, second_box.min_y),
            min(first_box.max_x, second_box.max_x),
            min(first_box.max_y, second_box.max_y),
        )


class DifferenceRegion(Region):
    """Points of ``first`` that are not in ``second`` (rejection sampled)."""

    def __init__(self, first: Region, second: Region, name: Optional[str] = None,
                 max_attempts: int = 200):
        super().__init__(name or f"({first.name} \\ {second.name})", first.orientation)
        self.first = first
        self.second = second
        self.max_attempts = max_attempts

    def contains_point(self, point: VectorLike) -> bool:
        return self.first.contains_point(point) and not self.second.contains_point(point)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        return self.first.contains_points_batch(pts) & ~self.second.contains_points_batch(pts)

    def uniform_point(self, rng):
        for _ in range(self.max_attempts):
            candidate = self.first.uniform_point(rng)
            if not self.second.contains_point(candidate):
                return candidate
        raise RejectSample(f"could not sample a point in {self.name}")

    def bounding_box(self):
        return self.first.bounding_box()

    def area(self) -> float:
        return self.first.area()


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.utils.normalize_angle`: wrap into (-pi, pi]."""
    wrapped = np.mod(angles, 2 * math.pi)
    return np.where(wrapped > math.pi, wrapped - 2 * math.pi, wrapped)


def _point_segment_distance(point: Vector, a: Vector, b: Vector) -> float:
    segment = b - a
    length_sq = segment.dot(segment)
    if length_sq == 0:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(segment) / length_sq))
    return point.distance_to(a + segment * t)


__all__ = [
    "Region",
    "EverywhereRegion",
    "EmptyRegion",
    "everywhere",
    "nowhere",
    "CircularRegion",
    "SectorRegion",
    "RectangularRegion",
    "PolygonalRegion",
    "PolylineRegion",
    "PointSetRegion",
    "IntersectionRegion",
    "DifferenceRegion",
    "PointInRegionDistribution",
]
