"""Unit tests for the geometry substrate: polygons, triangulation, morphology."""

import math
import random

import pytest

from repro.core.vectors import Vector
from repro.geometry.morphology import dilate_polygon, erode_polygon, minimum_width
from repro.geometry.polygon import (
    BoundingBox,
    Polygon,
    clip_polygon,
    convex_hull,
    point_in_polygon,
    polygons_intersect,
    segments_intersect,
)
from repro.geometry.triangulation import (
    TriangulatedSampler,
    _triangle_area,
    sample_point_in_polygon,
    sample_point_on_boundary,
    triangulate,
)


class TestBoundingBox:
    def test_basic_properties(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.center == Vector(2, 1)

    def test_of_points(self):
        box = BoundingBox.of_points([(1, 2), (5, -1), (3, 3)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (1, -1, 5, 3)

    def test_contains_and_intersects(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains_point((1, 1))
        assert not box.contains_point((3, 1))
        assert box.intersects(BoundingBox(1, 1, 3, 3))
        assert not box.intersects(BoundingBox(5, 5, 6, 6))

    def test_expanded(self):
        assert BoundingBox(0, 0, 1, 1).expanded(1).width == 3

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)


class TestSegments:
    def test_crossing_segments(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_parallel_segments(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoints(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


class TestPolygon:
    def test_area_and_centroid(self, unit_square):
        assert unit_square.area == pytest.approx(1.0)
        assert unit_square.centroid.is_close_to(Vector(0.5, 0.5))

    def test_orientation_normalised(self):
        clockwise = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert clockwise.area == pytest.approx(1.0)

    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_containment(self, unit_square, l_shape):
        assert unit_square.contains_point((0.5, 0.5))
        assert not unit_square.contains_point((1.5, 0.5))
        assert l_shape.contains_point((0.5, 1.5))
        assert not l_shape.contains_point((1.5, 1.5))

    def test_boundary_points_count_as_inside(self, unit_square):
        assert unit_square.contains_point((0.5, 0.0))
        assert unit_square.contains_point((1.0, 1.0))

    def test_convexity(self, unit_square, l_shape):
        assert unit_square.is_convex()
        assert not l_shape.is_convex()

    def test_contains_polygon(self, unit_square):
        inner = Polygon([(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])
        assert unit_square.contains_polygon(inner)
        assert not inner.contains_polygon(unit_square)

    def test_intersection_predicate(self, unit_square):
        overlapping = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
        disjoint = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        contained = Polygon([(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)])
        assert polygons_intersect(unit_square, overlapping)
        assert not polygons_intersect(unit_square, disjoint)
        assert polygons_intersect(unit_square, contained)

    def test_distance_to_point(self, unit_square):
        assert unit_square.distance_to_point((0.5, 0.5)) == 0.0
        assert unit_square.distance_to_point((2.0, 0.5)) == pytest.approx(1.0)

    def test_transforms(self, unit_square):
        translated = unit_square.translated((2, 3))
        assert translated.centroid.is_close_to(Vector(2.5, 3.5))
        rotated = unit_square.rotated(math.pi / 2, about=(0, 0))
        assert rotated.area == pytest.approx(1.0)
        scaled = unit_square.scaled(2.0)
        assert scaled.area == pytest.approx(4.0)

    def test_rectangle_constructor(self):
        rect = Polygon.rectangle((0, 0), 2.0, 4.0, heading=0.0)
        assert rect.area == pytest.approx(8.0)
        assert rect.contains_point((0.9, 1.9))
        rotated = Polygon.rectangle((0, 0), 2.0, 4.0, heading=math.pi / 2)
        # After rotating to face West, the long axis lies along x.
        assert rotated.contains_point((1.9, 0.9))
        assert not rotated.contains_point((0.9, 1.9))


class TestConvexHullAndClipping:
    def test_convex_hull_of_square_with_interior_point(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert hull.area == pytest.approx(1.0)
        assert len(hull.vertices) == 4

    def test_clip_overlapping_squares(self, unit_square):
        other = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
        clipped = clip_polygon(unit_square, other)
        assert clipped is not None
        assert clipped.area == pytest.approx(0.25)

    def test_clip_disjoint_returns_none(self, unit_square):
        other = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert clip_polygon(unit_square, other) is None

    def test_clip_contained_returns_subject(self, unit_square):
        big = Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        clipped = clip_polygon(unit_square, big)
        assert clipped is not None
        assert clipped.area == pytest.approx(1.0)


class TestTriangulation:
    def test_triangulation_covers_area(self, unit_square, l_shape):
        for polygon in (unit_square, l_shape):
            triangles = triangulate(polygon)
            total = sum(
                abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2
                for a, b, c in triangles
            )
            assert total == pytest.approx(polygon.area, rel=1e-6)

    def test_samples_are_inside(self, l_shape, rng):
        sampler = TriangulatedSampler(l_shape)
        for _ in range(200):
            point = sampler.sample(rng)
            assert l_shape.contains_point(point)

    def test_sampling_is_roughly_uniform(self, rng):
        # Two equal halves of a rectangle should each get about half the samples.
        rectangle = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        left = sum(
            1 for _ in range(2000) if sample_point_in_polygon(rectangle, rng).x < 1.0
        )
        assert 800 < left < 1200

    def test_boundary_sampling(self, unit_square, rng):
        point, heading = sample_point_on_boundary(unit_square, rng)
        assert unit_square.distance_to_point(point) < 1e-9
        assert -math.pi < heading <= math.pi

    def test_triangulation_survives_duplicate_and_collinear_vertices(self):
        """Clipped pruned regions routinely emit both; areas must still add up."""
        ring = [
            (0.0, 0.0),
            (2.0, 0.0),
            (2.0, 0.0),  # duplicate vertex
            (4.0, 0.0),  # collinear middle point on the bottom edge
            (6.0, 0.0),
            (6.0, 3.0),
            (3.0, 1.5),  # a reflex corner so a centroid fan would be wrong
            (0.0, 3.0),
        ]
        polygon = Polygon(ring)
        triangles = triangulate(polygon)
        total = sum(_triangle_area(*triangle) for triangle in triangles)
        assert abs(total - polygon.area) <= 1e-9 * max(1.0, polygon.area)


class TestMorphology:
    def test_erosion_shrinks_convex_polygon(self, unit_square):
        eroded = erode_polygon(unit_square, 0.2)
        assert eroded is not None
        assert eroded.area == pytest.approx(0.36, rel=1e-6)
        assert unit_square.contains_polygon(eroded)

    def test_erosion_to_nothing(self, unit_square):
        assert erode_polygon(unit_square, 0.6) is None

    def test_erosion_of_nonconvex_is_conservative(self, l_shape):
        # Sound fallback: the polygon itself (a superset of the true erosion).
        assert erode_polygon(l_shape, 0.1) is l_shape

    def test_dilation_contains_original_and_true_dilation(self, unit_square, rng):
        dilated = dilate_polygon(unit_square, 0.5)
        assert dilated.contains_polygon(unit_square)
        # Any point within 0.5 of the square must be inside the dilation.
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            boundary_point = Vector(rng.uniform(0, 1), rng.choice([0.0, 1.0]))
            offset = Vector(0.49 * math.cos(angle), 0.49 * math.sin(angle))
            assert dilated.contains_point(boundary_point + offset)

    def test_minimum_width(self):
        thin = Polygon([(0, 0), (10, 0), (10, 1), (0, 1)])
        assert minimum_width(thin) == pytest.approx(1.0)
        assert minimum_width(Polygon.rectangle((0, 0), 3, 7)) == pytest.approx(3.0)
