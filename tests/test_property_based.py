"""Property-based tests (Hypothesis) for core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.distributions import Options, Range, Sample, concretize
from repro.core.utils import normalize_angle
from repro.core.vectors import Vector
from repro.geometry.morphology import dilate_polygon, erode_polygon
from repro.geometry.polygon import Polygon, convex_hull
from repro.geometry.triangulation import TriangulatedSampler
from repro.perception.metrics import iou

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-10 * math.pi, max_value=10 * math.pi, allow_nan=False)
coordinates = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def vectors(draw):
    return Vector(draw(coordinates), draw(coordinates))


@st.composite
def convex_polygons(draw):
    """A convex polygon from the hull of a handful of non-degenerate points."""
    points = draw(
        st.lists(st.tuples(coordinates, coordinates), min_size=5, max_size=12, unique=True)
    )
    xs = {round(x, 3) for x, _ in points}
    ys = {round(y, 3) for _, y in points}
    if len(xs) < 2 or len(ys) < 2:
        return Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    try:
        hull = convex_hull(points)
    except ValueError:
        return Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    # Distinct rounded coordinates do not rule out a sliver hull such as
    # (0, 0), (1e-298, 0), (1, 1); triangulation drops triangles that thin.
    if hull.area < 1e-6:
        return Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    return hull


class TestVectorProperties:
    @given(vectors(), vectors())
    def test_addition_commutes(self, a, b):
        assert (a + b).is_close_to(b + a)

    @given(vectors(), angles)
    def test_rotation_preserves_length(self, vector, angle):
        assert math.isclose(vector.rotated_by(angle).norm(), vector.norm(), abs_tol=1e-6)

    @given(vectors(), angles)
    def test_rotation_round_trip(self, vector, angle):
        assert vector.rotated_by(angle).rotated_by(-angle).is_close_to(vector, tolerance=1e-6)

    @given(angles)
    def test_normalize_angle_is_idempotent_and_in_range(self, angle):
        normalized = normalize_angle(angle)
        assert -math.pi < normalized <= math.pi + 1e-12
        assert math.isclose(normalize_angle(normalized), normalized, abs_tol=1e-9)

    @given(vectors(), vectors())
    def test_distance_is_symmetric_and_nonnegative(self, a, b):
        assert a.distance_to(b) >= 0
        assert math.isclose(a.distance_to(b), b.distance_to(a), abs_tol=1e-9)


class TestDistributionProperties:
    @given(st.floats(-100, 100), st.floats(0, 100), st.integers(0, 2 ** 32 - 1))
    def test_range_samples_stay_in_interval(self, low, width, seed):
        distribution = Range(low, low + width)
        value = distribution.sample(random.Random(seed))
        assert low - 1e-9 <= value <= low + width + 1e-9

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=10), st.integers(0, 2 ** 32 - 1))
    def test_options_only_produce_given_values(self, options, seed):
        value = Options(options).sample(random.Random(seed))
        assert value in options

    @given(st.integers(0, 2 ** 32 - 1))
    def test_sample_memoisation_is_consistent(self, seed):
        base = Range(0, 1)
        derived = base * 2
        sample = Sample(random.Random(seed))
        assert concretize(derived, sample) == 2 * concretize(base, sample)


class TestGeometryProperties:
    @settings(max_examples=30, deadline=None)
    @given(convex_polygons(), st.integers(0, 2 ** 32 - 1))
    def test_uniform_samples_lie_inside(self, polygon, seed):
        sampler = TriangulatedSampler(polygon)
        rng = random.Random(seed)
        for _ in range(10):
            assert polygon.contains_point(sampler.sample(rng))

    @settings(max_examples=30, deadline=None)
    @given(convex_polygons(), st.floats(0.1, 5.0))
    def test_dilation_contains_original(self, polygon, radius):
        dilated = dilate_polygon(polygon, radius)
        assert all(dilated.contains_point(v) for v in polygon.vertices)

    @settings(max_examples=30, deadline=None)
    @given(convex_polygons(), st.floats(0.01, 2.0))
    def test_erosion_is_inside_original(self, polygon, radius):
        eroded = erode_polygon(polygon, radius)
        if eroded is not None:
            assert all(polygon.contains_point(v) for v in eroded.vertices)
            assert eroded.area <= polygon.area + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(convex_polygons())
    def test_triangulation_preserves_area(self, polygon):
        triangles = TriangulatedSampler(polygon).triangles
        total = sum(
            abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2 for a, b, c in triangles
        )
        assert math.isclose(total, polygon.area, rel_tol=1e-3, abs_tol=1e-6)


boxes = st.tuples(
    st.floats(0, 100), st.floats(0, 100), st.floats(1, 100), st.floats(1, 100)
).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestMetricProperties:
    @given(boxes)
    def test_iou_with_itself_is_one(self, box):
        assert math.isclose(iou(box, box), 1.0, abs_tol=1e-9)

    @given(boxes, boxes)
    def test_iou_is_symmetric_and_bounded(self, a, b):
        forward = iou(a, b)
        assert math.isclose(forward, iou(b, a), abs_tol=1e-12)
        assert 0.0 <= forward <= 1.0 + 1e-12
