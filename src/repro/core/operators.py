"""Scenic's geometric operator library (Fig. 7 and Appendix C).

Every operator here follows the same recipe: a concrete implementation over
plain values, lifted with :func:`distribution_function` so that applying it
to random values produces a derived distribution, and (where required by the
specifier semantics) additionally lifted with :func:`lazy_function` so that
applying it to values depending on the object under construction produces a
:class:`DelayedArgument`.

The operators are grouped by result type to match Fig. 7: scalar operators,
boolean operators (predicates), heading operators, vector operators, region
operators and OrientedPoint operators.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from .distributions import (
    Distribution,
    FunctionDistribution,
    distribution_function,
)
from .regions import CircularRegion, Region, SectorRegion
from .utils import normalize_angle
from .vectors import Vector


# ---------------------------------------------------------------------------
# Coercions
# ---------------------------------------------------------------------------


def _coerce_position(value: Any) -> Vector:
    """Concrete coercion: a vector, or anything with a ``position``."""
    if isinstance(value, Vector):
        return value
    if hasattr(value, "position"):
        return Vector.from_any(value.position)
    return Vector.from_any(value)


def _coerce_heading(value: Any) -> float:
    """Concrete coercion: a scalar heading, or anything with a ``heading``."""
    if isinstance(value, (int, float)):
        return float(value)
    if hasattr(value, "heading"):
        return float(value.heading)
    raise TypeError(f"cannot interpret {value!r} as a heading")


def position_of(value: Any) -> Any:
    """Interpret *value* as a vector (Point/OrientedPoint/Object → its position).

    For random values the coercion is deferred to sampling time, since only
    then is it known whether the sample is a bare vector or an oriented point.
    """
    if isinstance(value, Distribution):
        return FunctionDistribution(_coerce_position, (value,))
    if isinstance(value, Vector):
        return value
    if hasattr(value, "position"):
        return value.position
    return Vector.from_any(value)


def heading_of(value: Any) -> Any:
    """Interpret *value* as a heading (OrientedPoint/Object → its heading)."""
    if isinstance(value, Distribution):
        if _is_scalar_like(value):
            return value
        return FunctionDistribution(_coerce_heading, (value,))
    if isinstance(value, (int, float)):
        return float(value)
    if hasattr(value, "heading"):
        return value.heading
    raise TypeError(f"cannot interpret {value!r} as a heading")


def _is_scalar_like(value: Distribution) -> bool:
    """Heuristic: primitive scalar distributions are headings, not objects."""
    from .distributions import Normal, Options, Range, OperatorDistribution

    return isinstance(value, (Range, Normal, OperatorDistribution))


# ---------------------------------------------------------------------------
# Concrete implementations
# ---------------------------------------------------------------------------


def _concrete_vector(value: Any) -> Vector:
    if hasattr(value, "position") and not isinstance(value, Vector):
        return Vector.from_any(value.position)
    return Vector.from_any(value)


def _concrete_heading(value: Any) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    if hasattr(value, "heading"):
        return float(value.heading)
    raise TypeError(f"cannot interpret {value!r} as a heading")


def _offset_local(origin: Any, heading: Any, offset: Any) -> Vector:
    """``offsetLocal`` from Appendix C over concrete values."""
    return _concrete_vector(origin).offset_rotated(float(heading), _concrete_vector(offset))


# -- scalar operators --------------------------------------------------------


def _relative_heading(of_heading: Any, from_heading: Any) -> float:
    return normalize_angle(_concrete_heading(of_heading) - _concrete_heading(from_heading))


def _apparent_heading(oriented_point: Any, from_position: Any) -> float:
    position = _concrete_vector(oriented_point)
    heading = _concrete_heading(oriented_point)
    return normalize_angle(heading - position.angle_from(_concrete_vector(from_position)))


def _distance(from_position: Any, to_position: Any) -> float:
    return _concrete_vector(from_position).distance_to(_concrete_vector(to_position))


def _angle(from_position: Any, to_position: Any) -> float:
    return _concrete_vector(to_position).angle_from(_concrete_vector(from_position))


relative_heading = distribution_function(_relative_heading)
apparent_heading = distribution_function(_apparent_heading)
distance_between = distribution_function(_distance)
angle_between = distribution_function(_angle)


# -- boolean operators (predicates) -------------------------------------------


def visible_region_of(viewer: Any) -> Region:
    """The region a concrete Point/OrientedPoint/Object can see (Fig. 26)."""
    position = _concrete_vector(viewer)
    view_distance = float(getattr(viewer, "viewDistance", 50.0))
    view_angle = getattr(viewer, "viewAngle", None)
    heading = getattr(viewer, "heading", None)
    if view_angle is None or heading is None or view_angle >= 2 * math.pi - 1e-9:
        return CircularRegion(position, view_distance, name="visible")
    return SectorRegion(position, view_distance, float(heading), float(view_angle), name="visible")


def _can_see(viewer: Any, target: Any) -> bool:
    """``X can see Y``: target point in view region, or object bounding box visible.

    For objects we test the centre and the four bounding-box corners, which
    matches the paper's "an Object is visible iff its bounding box is" up to
    the (conservative) polygon-versus-sector approximation.
    """
    region = visible_region_of(viewer)
    corners = getattr(target, "corners", None)
    if corners is None:
        return region.contains_point(_concrete_vector(target))
    if region.contains_point(_concrete_vector(target)):
        return True
    return any(region.contains_point(corner) for corner in corners)


def _is_in_region(value: Any, region: Region) -> bool:
    """``X is in region``: point containment, or full bounding-box containment."""
    if hasattr(value, "corners"):
        return region.contains_object(value)
    return region.contains_point(_concrete_vector(value))


can_see = distribution_function(_can_see)
is_in_region = distribution_function(_is_in_region)


# -- heading operators ---------------------------------------------------------


def _heading_relative_to(first: Any, second: Any) -> float:
    return normalize_angle(_concrete_heading(first) + _concrete_heading(second))


heading_relative_to = distribution_function(_heading_relative_to)


def field_at(field, position: Any) -> Any:
    """``F at X`` (delegates to the field, which handles random positions)."""
    return field.at(position)


# -- vector operators ----------------------------------------------------------


def _vector_offset_by(base: Any, offset: Any) -> Vector:
    return _concrete_vector(base) + _concrete_vector(offset)


def _vector_relative_to(offset: Any, base: Any) -> Vector:
    return _concrete_vector(base) + _concrete_vector(offset)


def _vector_offset_along(base: Any, heading: Any, offset: Any) -> Vector:
    return _offset_local(base, heading, offset)


vector_offset_by = distribution_function(_vector_offset_by)
vector_relative_to = distribution_function(_vector_relative_to)
vector_offset_along = distribution_function(_vector_offset_along)


def vector_offset_along_direction(base: Any, direction: Any, offset: Any) -> Any:
    """``V1 offset along (H | F) by V2`` — fields are evaluated at the base point.

    *base* must already be a (possibly random) vector value.
    """
    from .vectorfields import VectorField

    if isinstance(direction, VectorField):
        heading = direction.at(base)
    else:
        heading = heading_of(direction)
    return vector_offset_along(base, heading, offset)


# -- region operators ----------------------------------------------------------


def _region_visible_from(region: Region, viewer: Any) -> Region:
    """``R visible from X`` (and ``visible R`` with the ego as viewer)."""
    return region.intersect(visible_region_of(viewer))


#: Lifted form: with a random viewer (the usual case — the ego's position is
#: random) this evaluates to a region-valued distribution, resolved per scene.
region_visible_from = distribution_function(_region_visible_from)


# -- OrientedPoint operators ---------------------------------------------------


def _make_oriented_point(position: Vector, heading: float):
    # Imported lazily to avoid a circular import at module load time.
    from .objects import OrientedPoint

    return OrientedPoint._make(position=position, heading=normalize_angle(heading))


def _op_relative_to(offset: Any, base: Any):
    """``V relative to OP`` / ``OP offset by V`` → an OrientedPoint (Fig. 35)."""
    heading = _concrete_heading(base)
    position = _offset_local(base, heading, offset)
    return _make_oriented_point(position, heading)


def _op_follow(field, start: Any, distance: Any):
    end = field._follow_concrete(_concrete_vector(start), float(distance))
    return _make_oriented_point(end, field.value_at(end))


def _edge_point(scenic_object: Any, local_offset: Tuple[float, float]):
    heading = _concrete_heading(scenic_object)
    position = _offset_local(scenic_object, heading, Vector(*local_offset))
    return _make_oriented_point(position, heading)


def _front_of(obj: Any):
    return _edge_point(obj, (0.0, float(obj.height) / 2.0))


def _back_of(obj: Any):
    return _edge_point(obj, (0.0, -float(obj.height) / 2.0))


def _left_edge_of(obj: Any):
    return _edge_point(obj, (-float(obj.width) / 2.0, 0.0))


def _right_edge_of(obj: Any):
    return _edge_point(obj, (float(obj.width) / 2.0, 0.0))


def _front_left_of(obj: Any):
    return _edge_point(obj, (-float(obj.width) / 2.0, float(obj.height) / 2.0))


def _front_right_of(obj: Any):
    return _edge_point(obj, (float(obj.width) / 2.0, float(obj.height) / 2.0))


def _back_left_of(obj: Any):
    return _edge_point(obj, (-float(obj.width) / 2.0, -float(obj.height) / 2.0))


def _back_right_of(obj: Any):
    return _edge_point(obj, (float(obj.width) / 2.0, -float(obj.height) / 2.0))


oriented_point_relative_to = distribution_function(_op_relative_to)
follow_field = distribution_function(_op_follow)
front_of = distribution_function(_front_of)
back_of = distribution_function(_back_of)
left_edge_of = distribution_function(_left_edge_of)
right_edge_of = distribution_function(_right_edge_of)
front_left_of = distribution_function(_front_left_of)
front_right_of = distribution_function(_front_right_of)
back_left_of = distribution_function(_back_left_of)
back_right_of = distribution_function(_back_right_of)


# -- beyond --------------------------------------------------------------------


def _beyond(base: Any, offset: Any, from_position: Any) -> Vector:
    """``beyond A by O from B``: O in the local frame of the line of sight B→A."""
    base_vector = _concrete_vector(base)
    line_of_sight = base_vector.angle_from(_concrete_vector(from_position))
    return base_vector.offset_rotated(line_of_sight, _concrete_vector(offset))


beyond_from = distribution_function(_beyond)


__all__ = [
    "position_of",
    "heading_of",
    "relative_heading",
    "apparent_heading",
    "distance_between",
    "angle_between",
    "can_see",
    "is_in_region",
    "visible_region_of",
    "heading_relative_to",
    "field_at",
    "vector_offset_by",
    "vector_relative_to",
    "vector_offset_along",
    "vector_offset_along_direction",
    "region_visible_from",
    "oriented_point_relative_to",
    "follow_field",
    "front_of",
    "back_of",
    "left_edge_of",
    "right_edge_of",
    "front_left_of",
    "front_right_of",
    "back_left_of",
    "back_right_of",
    "beyond_from",
]
