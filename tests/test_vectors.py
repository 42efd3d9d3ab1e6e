"""Unit tests for 2-D vectors, rotations and the heading convention."""

import copy
import math
import pickle

import pytest

from repro.core.utils import normalize_angle
from repro.core.vectors import (
    Vector,
    centroid,
    heading_of_segment,
    heading_to_direction,
    rotate,
)


class TestVectorBasics:
    def test_construction_and_equality(self):
        assert Vector(1, 2) == Vector(1.0, 2.0)
        assert Vector(1, 2) == (1, 2)
        assert Vector(1, 2) != Vector(2, 1)

    def test_is_immutable(self):
        vector = Vector(1, 2)
        with pytest.raises(AttributeError):
            vector.x = 5

    def test_from_any_accepts_tuples_and_vectors(self):
        assert Vector.from_any((3, 4)) == Vector(3, 4)
        assert Vector.from_any(Vector(3, 4)) == Vector(3, 4)

    def test_from_any_rejects_garbage(self):
        with pytest.raises(TypeError):
            Vector.from_any("not a vector")

    def test_arithmetic(self):
        assert Vector(1, 2) + Vector(3, 4) == Vector(4, 6)
        assert Vector(3, 4) - (1, 1) == Vector(2, 3)
        assert Vector(1, 2) * 3 == Vector(3, 6)
        assert 3 * Vector(1, 2) == Vector(3, 6)
        assert Vector(2, 4) / 2 == Vector(1, 2)
        assert -Vector(1, -2) == Vector(-1, 2)

    def test_norm_and_distance(self):
        assert Vector(3, 4).norm() == pytest.approx(5.0)
        assert Vector(0, 0).distance_to(Vector(3, 4)) == pytest.approx(5.0)

    def test_dot_and_cross(self):
        assert Vector(1, 2).dot(Vector(3, 4)) == pytest.approx(11.0)
        assert Vector(1, 0).cross(Vector(0, 1)) == pytest.approx(1.0)

    def test_iteration_and_indexing(self):
        vector = Vector(5, 7)
        assert list(vector) == [5, 7]
        assert vector[0] == 5 and vector[1] == 7
        assert len(vector) == 2

    def test_copy_deepcopy_and_pickle_round_trip(self):
        vector = Vector(0.1, -2.5e-300)
        for twin in (
            copy.copy(vector),
            copy.deepcopy(vector),
            *(pickle.loads(pickle.dumps(vector, protocol)) for protocol in range(6)),
        ):
            assert type(twin) is Vector
            assert (twin.x, twin.y) == (vector.x, vector.y)
            with pytest.raises(AttributeError):
                twin.x = 5
        with pytest.raises(AttributeError):
            vector.y = 5

    def test_polygon_with_a_built_edge_table_round_trips(self):
        from repro.geometry.polygon import Polygon

        polygon = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        assert polygon.contains_point((1, 1))  # builds the edge table
        assert polygon._edges is not None
        for twin in (copy.deepcopy(polygon), pickle.loads(pickle.dumps(polygon))):
            assert twin.vertices == polygon.vertices
            assert all(type(vertex) is Vector for vertex in twin.vertices)
            assert twin._edges == polygon._edges
            assert twin.contains_point((1, 1)) and not twin.contains_point((5, 1))
            assert twin.distance_to_point((7, 3)) == polygon.distance_to_point((7, 3)) == 3.0


class TestHeadingConvention:
    """Headings are radians anticlockwise from North (+y), as in the paper."""

    def test_north_has_heading_zero(self):
        assert Vector(0, 1).angle() == pytest.approx(0.0)

    def test_west_has_positive_heading(self):
        assert Vector(-1, 0).angle() == pytest.approx(math.pi / 2)

    def test_east_has_negative_heading(self):
        assert Vector(1, 0).angle() == pytest.approx(-math.pi / 2)

    def test_heading_to_direction_round_trip(self):
        for heading in (-3.0, -1.2, 0.0, 0.7, 2.9):
            direction = heading_to_direction(heading)
            assert direction.angle() == pytest.approx(normalize_angle(heading), abs=1e-9)

    def test_rotation_by_quarter_turn(self):
        rotated = Vector(0, 1).rotated_by(math.pi / 2)
        assert rotated.is_close_to(Vector(-1, 0))

    def test_offset_rotated_matches_local_frame_semantics(self):
        # "-2 @ 3 means 2 meters left and 3 ahead" for a local frame facing West.
        origin = Vector(10, 10)
        heading = math.pi / 2  # facing West
        result = origin.offset_rotated(heading, Vector(-2, 3))
        # Ahead (West) by 3 and left (South) by 2.
        assert result.is_close_to(Vector(10 - 3, 10 - 2))

    def test_heading_of_segment(self):
        assert heading_of_segment((0, 0), (0, 5)) == pytest.approx(0.0)
        assert heading_of_segment((0, 0), (-5, 0)) == pytest.approx(math.pi / 2)

    def test_angle_from(self):
        assert Vector(0, 10).angle_from(Vector(0, 0)) == pytest.approx(0.0)


class TestHelpers:
    def test_rotate_function_matches_method(self):
        assert rotate((1, 0), math.pi).is_close_to(Vector(-1, 0))

    def test_centroid(self):
        points = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert centroid(points) == Vector(1, 1)

    def test_centroid_of_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])
