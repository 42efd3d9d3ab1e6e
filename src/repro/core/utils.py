"""Small numeric helpers used across the geometry and core layers."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

TWO_PI = 2 * math.pi


def normalize_angle(angle: float) -> float:
    """Wrap *angle* (radians) into the half-open interval ``(-pi, pi]``.

    Headings in the reproduction follow the paper's convention: radians,
    measured anticlockwise from North (the positive y axis).
    """
    angle = angle % TWO_PI
    if angle > math.pi:
        angle -= TWO_PI
    return angle


def angle_difference(a: float, b: float) -> float:
    """Signed smallest rotation taking heading *b* to heading *a*."""
    return normalize_angle(a - b)


def degrees_to_radians(deg: float) -> float:
    return deg * math.pi / 180.0


def radians_to_degrees(rad: float) -> float:
    return rad * 180.0 / math.pi


def clamp(value: float, low: float, high: float) -> float:
    """Restrict *value* to the closed interval ``[low, high]``."""
    if low > high:
        raise ValueError(f"clamp interval is empty: [{low}, {high}]")
    return min(max(value, low), high)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def cumulative_weights(weights: Iterable[float]) -> list[float]:
    """Return the running totals of *weights* (used by discrete sampling)."""
    totals: list[float] = []
    running = 0.0
    for w in weights:
        if not w >= 0:  # a NaN weight fails this too
            raise ValueError("weights must be non-negative")
        running += w
        totals.append(running)
    if not totals or totals[-1] <= 0:
        raise ValueError("weights must sum to a positive value")
    return totals


def argmax(values: Sequence[float]) -> int:
    """Index of the largest element (first occurrence on ties)."""
    if not values:
        raise ValueError("argmax of empty sequence")
    best, best_index = values[0], 0
    for index, value in enumerate(values):
        if value > best:
            best, best_index = value, index
    return best_index


def pairwise(items: Sequence) -> Iterable[tuple]:
    """Yield consecutive pairs ``(items[i], items[i+1])``."""
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


def close_enough(a: float, b: float, tolerance: float = 1e-9) -> bool:
    """Absolute/relative float comparison tolerant to both small and large values."""
    return math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)
