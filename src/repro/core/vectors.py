"""2-D vectors and rotations.

The paper works in a 2-D workspace where positions are vectors constructed
with the ``X @ Y`` syntax and headings are single angles measured
anticlockwise from North (the positive y axis).  This module provides the
concrete :class:`Vector` value type used throughout the runtime, along with
the rotation helpers used by the specifier and operator semantics
(Appendix C): ``rotate``, ``offsetLocal``, and the heading of a displacement.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Tuple, Union

from .utils import normalize_angle

VectorLike = Union["Vector", Tuple[float, float], list]


class Vector:
    """An immutable 2-D vector (position or offset) in metres.

    Supports the arithmetic used by the operator semantics: addition,
    subtraction, scalar multiplication, rotation about the origin, and
    conversion to/from plain coordinate pairs.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Vector instances are immutable")

    def __reduce__(self):
        # Rebuild through __init__: restoring the slots one by one would go
        # through the __setattr__ above.  Serves pickle, copy and deepcopy.
        return (Vector, (self.x, self.y))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_any(value: VectorLike) -> "Vector":
        """Coerce a ``Vector``, pair, or object with a ``position`` into a Vector."""
        if isinstance(value, Vector):
            return value
        if hasattr(value, "to_vector"):
            return value.to_vector()
        if hasattr(value, "position"):
            return Vector.from_any(value.position)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Vector(value[0], value[1])
        raise TypeError(f"cannot interpret {value!r} as a vector")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: VectorLike) -> "Vector":
        other = Vector.from_any(other)
        return Vector(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: VectorLike) -> "Vector":
        other = Vector.from_any(other)
        return Vector(self.x - other.x, self.y - other.y)

    def __rsub__(self, other: VectorLike) -> "Vector":
        other = Vector.from_any(other)
        return Vector(other.x - self.x, other.y - self.y)

    def __mul__(self, scalar: float) -> "Vector":
        return Vector(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vector":
        return Vector(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vector":
        return Vector(-self.x, -self.y)

    # -- geometry --------------------------------------------------------------

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: VectorLike) -> float:
        other = Vector.from_any(other)
        return math.hypot(self.x - other.x, self.y - other.y)

    def dot(self, other: VectorLike) -> float:
        other = Vector.from_any(other)
        return self.x * other.x + self.y * other.y

    def cross(self, other: VectorLike) -> float:
        """Z component of the 3-D cross product (signed area of the parallelogram)."""
        other = Vector.from_any(other)
        return self.x * other.y - self.y * other.x

    def rotated_by(self, angle: float) -> "Vector":
        """Rotate anticlockwise by *angle* radians about the origin.

        This is the ``rotate`` operation of Appendix C (Fig. 26).
        """
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        return Vector(self.x * cos_a - self.y * sin_a, self.x * sin_a + self.y * cos_a)

    def angle(self) -> float:
        """Heading of this vector interpreted as a displacement from the origin.

        The paper's convention (``arctan`` in Appendix C) measures headings
        anticlockwise from North, so a displacement straight "ahead" (+y) has
        heading 0 and a displacement to the left (-x) has heading +pi/2.
        """
        if self.x == 0.0 and self.y == 0.0:
            return 0.0
        return normalize_angle(math.atan2(-self.x, self.y))

    def angle_from(self, origin: VectorLike) -> float:
        """Heading of the line of sight from *origin* to this vector."""
        return (self - Vector.from_any(origin)).angle()

    def offset_rotated(self, heading: float, offset: VectorLike) -> "Vector":
        """Translate by *offset* expressed in the local frame with the given heading.

        This is ``offsetLocal`` from Appendix C: the offset's y axis points
        along *heading* and its x axis points to the right of it.
        """
        return self + Vector.from_any(offset).rotated_by(heading)

    # -- conversions and protocol methods --------------------------------------

    def to_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def to_vector(self) -> "Vector":
        return self

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index: int) -> float:
        return (self.x, self.y)[index]

    def __eq__(self, other) -> bool:
        try:
            other = Vector.from_any(other)
        except TypeError:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Vector({self.x:g}, {self.y:g})"

    def is_close_to(self, other: VectorLike, tolerance: float = 1e-9) -> bool:
        other = Vector.from_any(other)
        return (
            math.isclose(self.x, other.x, abs_tol=tolerance, rel_tol=tolerance)
            and math.isclose(self.y, other.y, abs_tol=tolerance, rel_tol=tolerance)
        )


ZERO_VECTOR = Vector(0.0, 0.0)


def rotate(vector: VectorLike, angle: float) -> Vector:
    """Functional form of :meth:`Vector.rotated_by` (matches Appendix C notation)."""
    return Vector.from_any(vector).rotated_by(angle)


def heading_of_segment(start: VectorLike, end: VectorLike) -> float:
    """Heading of the directed segment from *start* to *end*."""
    return (Vector.from_any(end) - Vector.from_any(start)).angle()


def heading_to_direction(heading: float) -> Vector:
    """Unit vector pointing along *heading* (0 = North = +y)."""
    return Vector(-math.sin(heading), math.cos(heading))


def centroid(points: Iterable[VectorLike]) -> Vector:
    """Arithmetic mean of a non-empty collection of points."""
    total_x = total_y = 0.0
    count = 0
    for point in points:
        vec = Vector.from_any(point)
        total_x += vec.x
        total_y += vec.y
        count += 1
    if count == 0:
        raise ValueError("centroid of empty point collection")
    return Vector(total_x / count, total_y / count)
