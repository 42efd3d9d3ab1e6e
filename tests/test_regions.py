"""Unit tests for regions and vector fields."""

import math

import pytest

from repro.core.errors import RejectSample, ScenicError
from repro.core.regions import (
    CircularRegion,
    DifferenceRegion,
    EmptyRegion,
    IntersectionRegion,
    PointInRegionDistribution,
    PointSetRegion,
    PolygonalRegion,
    PolylineRegion,
    RectangularRegion,
    SectorRegion,
    everywhere,
    nowhere,
)
from repro.core.vectorfields import (
    ConstantVectorField,
    PolygonalVectorField,
    PolylineVectorField,
    VectorField,
    field_offset,
    field_sum,
)
from repro.core.vectors import Vector
from repro.geometry.polygon import Polygon


class TestBasicRegions:
    def test_everywhere_and_nowhere(self):
        assert everywhere.contains_point((1e9, -1e9))
        assert not nowhere.contains_point((0, 0))
        with pytest.raises(ScenicError):
            everywhere.uniform_point(None)
        with pytest.raises(RejectSample):
            nowhere.uniform_point(None)

    def test_circular_region(self, rng):
        region = CircularRegion((5, 5), 2.0)
        assert region.contains_point((6, 5))
        assert not region.contains_point((8, 5))
        for _ in range(100):
            assert region.contains_point(region.uniform_point(rng))
        assert region.area() == pytest.approx(math.pi * 4)

    def test_sector_region_respects_view_cone(self, rng):
        # A 90-degree cone facing North.
        region = SectorRegion((0, 0), 10.0, 0.0, math.pi / 2)
        assert region.contains_point((0, 5))
        assert region.contains_point((2, 5))
        assert not region.contains_point((5, -5))
        assert not region.contains_point((0, 20))
        for _ in range(100):
            assert region.contains_point(region.uniform_point(rng))

    def test_sector_with_full_angle_is_a_disc(self):
        region = SectorRegion((0, 0), 5.0, 1.0, 2 * math.pi)
        assert region.contains_point((0, -4.9))

    def test_rectangular_region(self, rng):
        region = RectangularRegion((0, 0), math.pi / 2, 4.0, 2.0)
        # Rotated 90°: the long (width) axis now runs along y... actually
        # width spans the local x axis, which after rotation points along -y.
        assert region.contains_point((0.9, 1.9))
        assert not region.contains_point((1.9, 0.9))
        for _ in range(100):
            assert region.contains_point(region.uniform_point(rng))

    def test_point_set_region(self, rng):
        region = PointSetRegion([(0, 0), (1, 1), (2, 2)])
        assert region.contains_point((1, 1))
        assert not region.contains_point((0.5, 0.5))
        assert region.uniform_point(rng) in [Vector(0, 0), Vector(1, 1), Vector(2, 2)]


class TestPolygonalRegion:
    def test_union_of_polygons(self, rng):
        region = PolygonalRegion(
            [Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])]
        )
        assert region.contains_point((0.5, 0.5))
        assert region.contains_point((5.5, 5.5))
        assert not region.contains_point((3, 3))
        assert region.area() == pytest.approx(2.0)
        for _ in range(200):
            assert region.contains_point(region.uniform_point(rng))

    def test_sampling_weighted_by_area(self, rng):
        big = Polygon([(0, 0), (9, 0), (9, 1), (0, 1)])
        small = Polygon([(100, 0), (101, 0), (101, 1), (100, 1)])
        region = PolygonalRegion([big, small])
        in_big = sum(1 for _ in range(1000) if region.uniform_point(rng).x < 50)
        assert in_big > 820

    def test_contains_object(self):
        region = PolygonalRegion([Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])])
        from repro.core import At, Facing, Object

        inside = Object(At((5, 5)), Facing(0.0), width=2, height=2)
        straddling = Object(At((9.5, 5)), Facing(0.0), width=2, height=2)
        assert region.contains_object(inside)
        assert not region.contains_object(straddling)

    def test_contains_object_rejects_box_straddling_concave_notch(self):
        # Regression: a U-shaped region whose notch cuts into an object's
        # edge.  All four corners sit inside the arms of the U, but the
        # bottom edge's midpoint hangs over the notch — the historical
        # corner-only test wrongly accepted this object.
        from repro.core import At, Facing, Object

        u_shape = PolygonalRegion(
            [
                Polygon(
                    [
                        (0, 0), (10, 0), (10, 10), (6, 10),
                        (6, 2), (4, 2), (4, 10), (0, 10),
                    ]
                )
            ]
        )
        over_notch = Object(At((5, 5)), Facing(0.0), width=8, height=2)
        corners_only = all(u_shape.contains_point(corner) for corner in over_notch.corners)
        assert corners_only  # the broken approximation would have said "contained"
        assert not u_shape.contains_object(over_notch)
        # The batched kernel agrees with the fixed scalar test.
        from repro.geometry import kernel

        assert kernel.objects_contained(
            u_shape, kernel.corners_array([over_notch])
        ).tolist() == [False]
        # Objects genuinely inside one arm of the U are still accepted.
        in_arm = Object(At((2, 6)), Facing(0.0), width=2, height=2)
        assert u_shape.contains_object(in_arm)

    def test_empty_region_list_rejected(self):
        with pytest.raises(ScenicError):
            PolygonalRegion([])


class TestPolylineRegion:
    def test_sampling_and_orientation(self, rng):
        region = PolylineRegion([[(0, 0), (10, 0)]])
        point = region.uniform_point(rng)
        assert 0 <= point.x <= 10 and point.y == pytest.approx(0.0)
        # The segment runs East, so its heading is -pi/2.
        assert region.orientation_at((5, 0)) == pytest.approx(-math.pi / 2)
        assert region.length() == pytest.approx(10.0)

    def test_contains_point_with_tolerance(self):
        region = PolylineRegion([[(0, 0), (10, 0)]])
        assert region.contains_point((5, 0.2))
        assert not region.contains_point((5, 2.0))


class TestCompositeRegions:
    def test_intersection(self, rng):
        first = CircularRegion((0, 0), 5.0)
        second = CircularRegion((4, 0), 5.0)
        intersection = first.intersect(second)
        assert isinstance(intersection, IntersectionRegion)
        assert intersection.contains_point((2, 0))
        assert not intersection.contains_point((-3, 0))
        for _ in range(50):
            assert intersection.contains_point(intersection.uniform_point(rng))

    def test_intersection_with_everywhere_is_identity(self):
        circle = CircularRegion((0, 0), 1.0)
        assert circle.intersect(everywhere) is circle
        assert everywhere.intersect(circle) is circle

    def test_difference(self, rng):
        base = CircularRegion((0, 0), 5.0)
        hole = CircularRegion((0, 0), 1.0)
        difference = DifferenceRegion(base, hole)
        assert difference.contains_point((3, 0))
        assert not difference.contains_point((0.5, 0))
        for _ in range(50):
            assert difference.contains_point(difference.uniform_point(rng))

    def test_impossible_intersection_rejects(self, rng):
        disjoint = IntersectionRegion(
            CircularRegion((0, 0), 1.0), CircularRegion((10, 0), 1.0), max_attempts=20
        )
        with pytest.raises(RejectSample):
            disjoint.uniform_point(rng)

    def test_point_in_region_distribution(self, rng):
        region = CircularRegion((0, 0), 1.0)
        distribution = PointInRegionDistribution(region)
        assert region.contains_point(distribution.sample(rng))


class TestVectorFields:
    def test_constant_field(self):
        field = ConstantVectorField(0.7)
        assert field.value_at((123, 456)) == pytest.approx(0.7)
        assert field.at((1, 2)) == pytest.approx(0.7)

    def test_field_at_random_position_is_deferred(self, rng):
        from repro.core.distributions import Distribution, Range, make_random_vector

        field = ConstantVectorField(0.7)
        value = field.at(make_random_vector(Range(0, 1), Range(0, 1)))
        assert isinstance(value, Distribution)
        assert value.sample(rng) == pytest.approx(0.7)

    def test_polygonal_field(self):
        cells = [
            (Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.0),
            (Polygon([(1, 0), (2, 0), (2, 1), (1, 1)]), math.pi / 2),
        ]
        field = PolygonalVectorField("test", cells)
        assert field.value_at((0.5, 0.5)) == pytest.approx(0.0)
        assert field.value_at((1.5, 0.5)) == pytest.approx(math.pi / 2)
        # Outside every cell: nearest cell's heading.
        assert field.value_at((10, 0.5)) == pytest.approx(math.pi / 2)

    def test_follow_straight_field(self):
        field = ConstantVectorField(0.0)  # everywhere North
        end = field.follow_from(Vector(0, 0), 10.0)
        assert end.is_close_to(Vector(0, 10))

    def test_follow_turning_field(self):
        # Heading rotates with x: following it should curve (end differs from straight line).
        field = VectorField("curl", lambda position: 0.05 * position.y)
        end = field.follow_from(Vector(0, 0), 20.0, steps=8)
        assert end.y < 20.0
        assert end.x != pytest.approx(0.0)

    def test_field_combinators(self):
        field = ConstantVectorField(0.3)
        assert field_sum(field, field).value_at((0, 0)) == pytest.approx(0.6)
        assert field_offset(field, 0.4).value_at((0, 0)) == pytest.approx(0.7)

    def test_polyline_field(self):
        region = PolylineRegion([[(0, 0), (0, 10)]])
        field = PolylineVectorField("curbDir", region)
        assert field.value_at((1, 5)) == pytest.approx(0.0)


class TestGridPointLocation:
    """Grid-indexed point location must be *bit-identical* to a linear scan.

    Large polygon unions and vector-field decompositions (>= 8 pieces)
    route point queries through a :class:`SpatialGrid` over padded bounding
    boxes.  The grid is an over-approximating prefilter, so every verdict —
    containment, first containing cell, nearest cell (including ties) —
    must match what scanning every piece in list order would return.
    """

    @staticmethod
    def _strip_polygons(count):
        return [
            Polygon([(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)])
            for i in range(count)
        ]

    @staticmethod
    def _probe_points(rng, count=200):
        points = [(rng.uniform(-2, 14), rng.uniform(-2, 3)) for _ in range(count)]
        # Boundary and corner points: the padded boxes must not prune a
        # piece the tolerance-accepting scalar test would accept.
        points += [(i, 0.5) for i in range(13)]
        points += [(0.5, 1.0), (11.5, 0.0), (12.0, 1.0), (-1e-10, 0.5)]
        return points

    def test_region_contains_point_matches_linear_scan(self, rng):
        region = PolygonalRegion(self._strip_polygons(12))
        for point in self._probe_points(rng):
            via_scan = any(
                polygon.contains_point(Vector(*point)) for polygon in region.polygons
            )
            assert region.contains_point(point) == via_scan, point
        assert region._polygon_table()._grid is not None  # the grid path was exercised

    def test_region_batch_containment_matches_scalar(self, rng):
        region = PolygonalRegion(self._strip_polygons(12))
        points = self._probe_points(rng)
        batch = region.contains_points_batch(points)
        assert list(batch) == [region.contains_point(point) for point in points]

    def test_small_union_skips_the_grid(self):
        region = PolygonalRegion(self._strip_polygons(3))
        assert region.contains_point((0.5, 0.5))
        assert not region.contains_point((5.5, 0.5))
        assert region._polygon_table()._grid is None

    def test_field_cell_at_matches_linear_scan(self, rng):
        cells = [(polygon, 0.1 * i) for i, polygon in enumerate(self._strip_polygons(10))]
        field = PolygonalVectorField("strips", cells)
        field.cell_at((0.5, 0.5))
        assert field._lookup_tables()[0]._grid is not None  # the grid path is exercised
        for point in self._probe_points(rng):
            position = Vector(*point)
            via_scan = next(
                (cell for cell in field.cells if cell[0].contains_point(position)),
                None,
            )
            via_grid = field.cell_at(position)
            if via_scan is None:
                assert via_grid is None, point
            else:
                # Same *object*: the first containing cell in list order.
                assert via_grid is not None and via_grid[0] is via_scan[0], point
                assert via_grid[1] == via_scan[1]

    def test_field_nearest_cell_matches_min_scan(self, rng):
        cells = [(polygon, 0.1 * i) for i, polygon in enumerate(self._strip_polygons(10))]
        field = PolygonalVectorField("strips", cells)
        outside = [(rng.uniform(-5, 15), rng.choice([-1, 2]) * rng.uniform(1, 4))
                   for _ in range(50)]
        # Ties: (3.0, 2.0) is equidistant from cells 2 and 3; min() takes
        # the first in list order and the pruned search must agree.
        outside += [(3.0, 2.0), (7.0, -1.5), (-2.0, 0.5), (14.0, 0.5)]
        for point in outside:
            position = Vector(*point)
            via_scan = min(
                field.cells, key=lambda cell: cell[0].distance_to_point(position)
            )
            via_pruned = field.nearest_cell(position)
            assert via_pruned[0] is via_scan[0], point
