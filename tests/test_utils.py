"""Unit tests for the small numeric helpers."""

import math

import pytest

from repro.core.utils import (
    angle_difference,
    argmax,
    clamp,
    close_enough,
    cumulative_weights,
    degrees_to_radians,
    mean,
    normalize_angle,
    pairwise,
    radians_to_degrees,
)


class TestAngles:
    def test_normalize_within_range(self):
        assert normalize_angle(0.5) == pytest.approx(0.5)

    def test_normalize_wraps_positive(self):
        assert normalize_angle(2 * math.pi + 0.25) == pytest.approx(0.25)

    def test_normalize_wraps_negative(self):
        assert normalize_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_angle_difference_is_signed_and_small(self):
        assert angle_difference(0.1, -0.1) == pytest.approx(0.2)
        assert abs(angle_difference(math.pi - 0.05, -math.pi + 0.05)) == pytest.approx(0.1)

    def test_degree_radian_round_trip(self):
        assert radians_to_degrees(degrees_to_radians(37.5)) == pytest.approx(37.5)


class TestMisc:
    def test_clamp(self):
        assert clamp(5, 0, 10) == 5
        assert clamp(-5, 0, 10) == 0
        assert clamp(15, 0, 10) == 10

    def test_clamp_empty_interval_raises(self):
        with pytest.raises(ValueError):
            clamp(1, 5, 2)

    def test_mean(self):
        assert mean([1, 2, 3, 4]) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            mean([])

    def test_cumulative_weights(self):
        assert cumulative_weights([1, 2, 3]) == [1, 3, 6]

    def test_cumulative_weights_rejects_negative(self):
        with pytest.raises(ValueError):
            cumulative_weights([1, -2])
        with pytest.raises(ValueError):
            cumulative_weights([1.0, float("nan")])

    def test_cumulative_weights_rejects_zero_total(self):
        with pytest.raises(ValueError):
            cumulative_weights([0, 0])

    def test_argmax(self):
        assert argmax([1, 5, 3]) == 1
        assert argmax([2, 2, 2]) == 0
        with pytest.raises(ValueError):
            argmax([])

    def test_pairwise(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]
        assert list(pairwise([1])) == []

    def test_close_enough(self):
        assert close_enough(1.0, 1.0 + 1e-12)
        assert not close_enough(1.0, 1.1)
