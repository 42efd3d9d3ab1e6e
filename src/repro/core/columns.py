"""A block of candidates drawn as columns (Sec. 5: one joint draw per candidate).

A large block of ``K`` candidates is drawn from a scenario's
:class:`~repro.core.program.DrawProgram` in two phases, then examined:

* **Raw phase.**  Candidate by candidate, every RNG read the scalar program
  would make, in step order: the same stream, read in the same order.  An
  RNG step needs a fixed recipe: ``Range`` and ``Options`` read one
  ``random()``; a point of a constant ``PolygonalRegion`` four (piece,
  triangle, ``r1``, ``r2``), of a ``RectangularRegion`` or a viewer's
  visible region two; an object's mutation three ``gauss`` reads.  Any
  other RNG step whose arguments are all constant runs whole here.  A
  program with an RNG step that has neither keeps the scalar program:
  :class:`ColumnPlan` declines.  It also records the RNG state after every
  stride of candidates, where the sampler rewinds to after an acceptance.
* **Column phase.**  Step by step over the ``K`` candidates: floats are
  arrays (:class:`Floats`), vectors ``(x, y)`` array pairs
  (:class:`Vectors`), objects and oriented points dicts of property columns
  (:class:`Points`), and anything else a list of per-candidate values
  (:class:`Rows`); a value shared by every candidate stays a plain
  constant.  A step without a column implementation for its arguments runs
  its scalar function ``K`` times on materialised rows, which is safe
  because only the raw phase reads the RNG.

Objects are built only for the candidates that reach the chain's late
checks (:meth:`ColumnBlock.__getitem__`): the candidate's objects, a memo
entry for every slotted node and its params, each slot's value one instance
shared by everything that holds it.  Geometry comes straight from the
object columns (:meth:`ColumnBlock.geometry`).

Every value is computed with the scalar code's own float arithmetic in the
same order.  ``np.cos``, ``np.sin``, ``np.sqrt`` and ``np.remainder`` agree
with ``math`` and Python's ``%`` on contiguous float64 arrays, but
``np.arctan2`` does not, so angles of displacements go through
``math.atan2`` element by element.  Any exception in either phase, an IEEE
exception numpy would otherwise turn into ``inf`` or ``nan`` included, makes
the sampler restore the RNG and redraw the block through the scalar
program, so every error and ``RejectSample`` happens where it always did.
"""

from __future__ import annotations

import math
import operator
import types
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..geometry.kernel import corners_of_columns
from . import operators, specifiers
from .distributions import (
    AttributeDistribution,
    OperatorDistribution,
    Options,
    Range,
    Sample,
    VectorDistribution,
)
from .objects import Constructible, OrientedPoint
from .program import _CALL, _NO_RNG, _OBJECT, _PACK, Candidate, DrawProgram
from .regions import PointInRegionDistribution, PolygonalRegion, RectangularRegion, _normalize_angles
from .utils import normalize_angle
from .vectorfields import PolygonalVectorField, VectorField
from .vectors import Vector

#: ``VectorField.value_at`` as defined, before any wrapper a profiler sets.
_VALUE_AT = VectorField.value_at


class _Decline(Exception):
    """The program has an RNG step the raw phase cannot replay."""


class _Escape(Exception):
    """No column implementation for these argument kinds: run the scalar step."""


# ---------------------------------------------------------------------------
# Column kinds
# ---------------------------------------------------------------------------


class Column:
    """One step's values for the ``K`` candidates of a block."""

    __slots__ = ()

    def row(self, index: int) -> Any:
        raise NotImplementedError

    def rows(self, count: int) -> List[Any]:
        return [self.row(index) for index in range(count)]


class Floats(Column):
    """Python floats, as one contiguous float64 array."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def row(self, index: int) -> float:
        return float(self.values[index])

    def rows(self, count: int) -> List[float]:
        return self.values.tolist()


class _Cached(Column):
    """A column whose rows are built once each, so every holder shares one instance."""

    __slots__ = ("_built",)

    def __init__(self) -> None:
        self._built: Dict[int, Any] = {}

    def row(self, index: int) -> Any:
        value = self._built.get(index, _Cached)
        if value is _Cached:
            value = self._built[index] = self._build(index)
        return value

    def _build(self, index: int) -> Any:
        raise NotImplementedError


class Vectors(_Cached):
    """:class:`Vector` values, as ``x`` and ``y`` arrays."""

    __slots__ = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray, built: Optional[List[Vector]] = None):
        super().__init__()
        self.x = x
        self.y = y
        if built is not None:
            self._built = dict(enumerate(built))

    def _build(self, index: int) -> Vector:
        return Vector(self.x[index], self.y[index])


class Rows(Column):
    """Any other values, one per candidate."""

    __slots__ = ("items",)

    def __init__(self, items: List[Any]):
        self.items = items

    def row(self, index: int) -> Any:
        return self.items[index]

    def rows(self, count: int) -> List[Any]:
        return self.items


class Points(_Cached):
    """Objects or oriented points, as a dict of property columns.

    ``props`` holds each property's column or constant, in property order;
    ``make`` builds one candidate's instance from the rows.
    """

    __slots__ = ("cls", "props", "make")

    def __init__(self, cls: type, props: Dict[str, Any], make: Callable[[int], Any]):
        super().__init__()
        self.cls = cls
        self.props = props
        self.make = make

    def _build(self, index: int) -> Any:
        return self.make(index)

    def attr(self, name: str) -> Any:
        """``instance.name`` for every candidate."""
        if name in self.props:
            return self.props[name]
        raise _Escape

    def has(self, name: str) -> bool:
        """``hasattr(instance, name)``, for a property or nothing at all."""
        if name in self.props:
            return True
        if hasattr(self.cls, name):
            raise _Escape
        return False


class Packed(_Cached):
    """A tuple or a kwargs dict packed from other columns."""

    __slots__ = ("function", "items")

    def __init__(self, function: Callable, items: List[Any]):
        super().__init__()
        self.function = function
        self.items = items

    def _build(self, index: int) -> Any:
        return self.function([row_of(item, index) for item in self.items])


def row_of(value: Any, index: int) -> Any:
    """Candidate *index*'s value of a column, or the constant itself."""
    return value.row(index) if isinstance(value, Column) else value


def rows_of(value: Any, count: int) -> List[Any]:
    """All ``K`` candidates' values of a column or a constant."""
    return value.rows(count) if isinstance(value, Column) else [value] * count


def promote(results: List[Any]) -> Column:
    """A column of scalar results: floats and vectors as arrays, else rows."""
    kinds = set(map(type, results))
    if kinds == {float}:
        return Floats(np.array(results, dtype=float))
    if kinds == {Vector}:
        return Vectors(
            np.array([vector.x for vector in results]),
            np.array([vector.y for vector in results]),
            results,
        )
    return Rows(results)


# ---------------------------------------------------------------------------
# Reading columns as the scalar code reads values
# ---------------------------------------------------------------------------


def _full(value: Any, count: int) -> np.ndarray:
    return value if isinstance(value, np.ndarray) else np.full(count, value, dtype=float)


def _as_float(value: Any) -> Any:
    """``float(value)`` per candidate: an array, or one Python float."""
    if isinstance(value, Floats):
        return value.values
    if type(value) in (float, int, bool):
        return float(value)
    if isinstance(value, Rows) and {type(item) for item in value.items} <= {int, float}:
        return np.array(value.items, dtype=float)
    raise _Escape


def _as_vector(value: Any) -> Tuple[Any, Any]:
    """``Vector.from_any(value)`` (or ``_concrete_vector``) per candidate, as ``(x, y)``."""
    if isinstance(value, Vectors):
        return value.x, value.y
    if type(value) is Vector:
        return value.x, value.y
    if isinstance(value, Points):
        return _as_vector(value.attr("position"))
    if type(value) is tuple and len(value) == 2:
        return float(value[0]), float(value[1])
    raise _Escape


def _as_heading(value: Any) -> Any:
    """``_concrete_heading(value)`` per candidate."""
    if isinstance(value, Points):
        return _as_float(value.attr("heading"))
    if isinstance(value, (Floats, Rows)) or type(value) in (float, int, bool):
        return _as_float(value)
    raise _Escape


def _cos(angle: Any) -> Any:
    return np.cos(angle) if isinstance(angle, np.ndarray) else math.cos(angle)


def _sin(angle: Any) -> Any:
    return np.sin(angle) if isinstance(angle, np.ndarray) else math.sin(angle)


def _normalized(angle: Any) -> Any:
    return _normalize_angles(angle) if isinstance(angle, np.ndarray) else normalize_angle(angle)


def _floats(value: Any) -> Any:
    return Floats(value) if isinstance(value, np.ndarray) else value


def _vectors(x: Any, y: Any, count: int) -> Any:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return Vectors(_full(x, count), _full(y, count))
    return Vector(x, y)


def _rotated(x: Any, y: Any, angle: Any) -> Tuple[Any, Any]:
    """``Vector(x, y).rotated_by(angle)``."""
    cos_a, sin_a = _cos(angle), _sin(angle)
    return x * cos_a - y * sin_a, x * sin_a + y * cos_a


def _offset_rotated(base: Tuple[Any, Any], angle: Any, offset: Tuple[Any, Any]) -> Tuple[Any, Any]:
    """``base.offset_rotated(angle, offset)``: base plus the rotated offset."""
    x, y = _rotated(offset[0], offset[1], angle)
    return base[0] + x, base[1] + y


def _angles_from(x: Any, y: Any, origin_x: Any, origin_y: Any, count: int) -> Any:
    """``Vector(x, y).angle_from(origin)``, through ``math.atan2`` per candidate."""
    dx = _full(x - origin_x, count).tolist()
    dy = _full(y - origin_y, count).tolist()
    return np.array([
        0.0 if ddx == 0.0 and ddy == 0.0 else normalize_angle(math.atan2(-ddx, ddy))
        for ddx, ddy in zip(dx, dy)
    ])


def _oriented_points(position: Any, heading: Any, count: int) -> Points:
    """``_make_oriented_point(position, heading)`` per candidate."""
    heading = _floats(_normalized(heading))
    props = {"position": position, "heading": heading}
    return Points(OrientedPoint, props, lambda index: OrientedPoint._from_properties({
        "position": row_of(position, index), "heading": row_of(heading, index),
    }))


def _uniform(low: Any, high: Any, u: np.ndarray) -> Any:
    """``random.uniform(low, high)`` given its ``random()`` read."""
    return low + (high - low) * u


# ---------------------------------------------------------------------------
# Column implementations of the call and draw steps
# ---------------------------------------------------------------------------


def _edge_offset_from_op(args, count):
    point, local = args
    if isinstance(point, Points):
        base = _as_vector(point.attr("position") if point.has("position") else point)
        heading = _as_float(point.attr("heading")) if point.has("heading") else 0.0
    elif isinstance(point, Vectors) or type(point) is Vector:
        base, heading = _as_vector(point), 0.0
    else:
        raise _Escape
    return _vectors(*_offset_rotated(base, heading, _as_vector(local)), count)


def _make_vector(args, count):
    x, y = args
    return _vectors(_as_float(x), _as_float(y), count)


def _coerce_heading(args, count):
    return _floats(_as_heading(args[0]))


def _coerce_position(args, count):
    (value,) = args
    if isinstance(value, Points):
        value = value.attr("position")
    if isinstance(value, Vectors) or type(value) is Vector:
        return value
    return _vectors(*_as_vector(value), count)


def _edge_point(side: str, args, count):
    """``_front_of``, ``_back_of``, ``_left_edge_of`` or ``_right_edge_of``."""
    (target,) = args
    if not isinstance(target, Points):
        raise _Escape
    if side in ("front", "back"):
        height = _as_float(target.attr("height"))
        local = (0.0, height / 2.0 if side == "front" else -height / 2.0)
    else:
        width = _as_float(target.attr("width"))
        local = (-width / 2.0 if side == "left" else width / 2.0, 0.0)
    heading = _as_heading(target)
    position = _offset_rotated(_as_vector(target), heading, local)
    return _oriented_points(_vectors(*position, count), heading, count)


def _field_values(field: PolygonalVectorField, x: Any, y: Any, count: int) -> np.ndarray:
    """``field.value_at`` at every candidate's point, batched."""
    return field.value_at_points(_full(x, count), _full(y, count))


def _is_polygonal_field(field: Any) -> bool:
    """A road-map field whose lookups have a column implementation."""
    return type(field) is PolygonalVectorField and field._value_function == field._heading_at


def _value_at(field: PolygonalVectorField, args, count):
    x, y = _as_vector(args[0])
    return Floats(_field_values(field, x, y, count))


def _op_follow(args, count):
    field, start, distance = args
    if isinstance(field, Column) or not _is_polygonal_field(field):
        raise _Escape
    position = _as_vector(start)
    step = _as_float(distance) / 4
    for _ in range(4):
        heading = _field_values(field, position[0], position[1], count)
        position = _offset_rotated(position, heading, (0.0, step))
    heading = _field_values(field, position[0], position[1], count)
    return _oriented_points(_vectors(*position, count), heading, count)


def _angle(args, count):
    origin, target = args
    x, y = _as_vector(target)
    origin_x, origin_y = _as_vector(origin)
    return Floats(_angles_from(x, y, origin_x, origin_y, count))


def _beyond(args, count):
    base, offset, origin = args
    base = _as_vector(base)
    origin_x, origin_y = _as_vector(origin)
    line_of_sight = _angles_from(base[0], base[1], origin_x, origin_y, count)
    return _vectors(*_offset_rotated(base, line_of_sight, _as_vector(offset)), count)


def _arithmetic_kind(value: Any) -> str:
    """``"float"``, ``"int"``, ``"vector"`` or ``""`` for an operand."""
    if isinstance(value, Floats) or type(value) is float:
        return "float"
    if type(value) in (int, bool) or (
        isinstance(value, Rows) and {type(item) for item in value.items} <= {int, bool}
    ):
        return "int"
    if isinstance(value, Vectors) or type(value) is Vector:
        return "vector"
    return ""


#: The arithmetic an ``OperatorDistribution`` step has a column implementation for.
_ARITHMETIC = {"+": operator.add, "*": operator.mul, "/": operator.truediv}


def _nonzero(divisor: Any) -> Any:
    if np.any(np.equal(divisor, 0.0)):
        raise ZeroDivisionError("float division by zero")
    return divisor


def _operator(symbol: str, args, count):
    """``+``, ``*`` and ``/`` where floats are involved, and vector sums and scalings.

    Two ints stay Python ints, so the scalar step computes them.
    """
    kinds = tuple(map(_arithmetic_kind, args))
    function = _ARITHMETIC.get(symbol)
    if function is None or "" in kinds:
        raise _Escape
    left, right = args
    if "float" in kinds and "vector" not in kinds:
        divisor = _nonzero(_as_float(right)) if symbol == "/" else _as_float(right)
        return _floats(function(_as_float(left), divisor))
    if kinds == ("vector", "vector") and symbol == "+":
        (ax, ay), (bx, by) = _as_vector(left), _as_vector(right)
        return _vectors(function(ax, bx), function(ay, by), count)
    # ``Vector * s``, ``s * Vector`` (its ``__rmul__``) and ``Vector / s``.
    if kinds.count("vector") == 1 and (symbol == "*" or (symbol == "/" and kinds[0] == "vector")):
        vector, scalar = (left, right) if kinds[0] == "vector" else (right, left)
        x, y = _as_vector(vector)
        s = _nonzero(_as_float(scalar)) if symbol == "/" else _as_float(scalar)
        return _vectors(function(x, s), function(y, s), count)
    raise _Escape


def _attribute(name: str, args, count):
    (target,) = args
    if isinstance(target, Points):
        return target.attr(name)
    if isinstance(target, Vectors) and name in ("x", "y"):
        return Floats(target.x if name == "x" else target.y)
    raise _Escape


#: Column implementations of call steps, by the function the step calls.
_CALLS: Dict[Any, Callable] = {
    specifiers._edge_offset_from_op: _edge_offset_from_op,
    operators._coerce_heading: _coerce_heading,
    operators._coerce_position: _coerce_position,
    operators._front_of: partial(_edge_point, "front"),
    operators._back_of: partial(_edge_point, "back"),
    operators._left_edge_of: partial(_edge_point, "left"),
    operators._right_edge_of: partial(_edge_point, "right"),
    operators._op_follow: _op_follow,
    operators._angle: _angle,
    operators._beyond: _beyond,
}

#: The ``lambda a, b: Vector(a, b)`` of ``_local_offset`` and ``_as_position``.
_VECTOR_LAMBDAS = frozenset(
    constant
    for function in (specifiers._local_offset, specifiers._as_position)
    for constant in function.__code__.co_consts
    if isinstance(constant, types.CodeType)
)


def _call_implementation(function: Any) -> Optional[Callable]:
    try:
        implementation = _CALLS.get(function)
    except TypeError:  # an unhashable callable has none
        return None
    if implementation is not None:
        return implementation
    if getattr(function, "__code__", None) in _VECTOR_LAMBDAS:
        return _make_vector
    field = getattr(function, "__self__", None)
    if _is_polygonal_field(field) and function.__func__ in (_VALUE_AT, VectorField.value_at):
        return partial(_value_at, field)
    return None


def _draw_implementation(node: Any) -> Optional[Callable]:
    kind = type(node)
    if kind is OperatorDistribution:
        return partial(_operator, node.operator)
    if kind is AttributeDistribution:
        return partial(_attribute, node.attribute)
    if kind is VectorDistribution:
        return _make_vector
    return None


# ---------------------------------------------------------------------------
# Raw-phase recipes: the RNG reads of one step, then its column
# ---------------------------------------------------------------------------

#: Raw reads: ``random()``, ``gauss(0.0, sigma)``, or a whole constant step.
_RANDOM, _GAUSS, _WHOLE = range(3)


def _range_column(args, reads, count):
    low, high = [_as_float(value) if isinstance(value, Column) else value for value in args]
    if np.any(np.greater(low, high)):
        raise ValueError("empty uniform interval")
    return Floats(_uniform(low, high, reads[0]))


class _OptionsRecipe:
    """``Options``: the option each ``random()`` read picks, by ``option_index``."""

    def __init__(self, node: Options):
        self.cumulative = np.array(node._cumulative, dtype=float)
        self.total = node._cumulative[-1]

    def __call__(self, args, reads, count):
        index = np.minimum(
            np.searchsorted(self.cumulative, reads[0] * self.total, side="left"),
            len(self.cumulative) - 1,
        )
        (values,) = args
        if isinstance(values, Column):
            return promote([values.row(k)[i] for k, i in enumerate(index.tolist())])
        return promote([values[i] for i in index.tolist()])


def _polygon_column(region: PolygonalRegion, args, reads, count):
    """A point of a constant ``PolygonalRegion``: piece, triangle, ``r1``, ``r2``."""
    pieces, shares, first, counts, corners = region.triangle_tables()
    u_piece, u_triangle, u_r1, r2 = reads
    piece = np.minimum(np.searchsorted(pieces, u_piece, side="left"), len(pieces) - 1)
    # bisect_left within the piece: how many of its shares lie below u.
    below = (shares[piece] < u_triangle[:, None]).sum(axis=1)
    triangle = first[piece] + np.minimum(below, counts[piece] - 1)
    ax, ay, bx, by, cx, cy = (column[triangle] for column in corners)
    r1 = np.sqrt(u_r1)
    x = ax * (1 - r1) + bx * (r1 * (1 - r2)) + cx * (r1 * r2)
    y = ay * (1 - r1) + by * (r1 * (1 - r2)) + cy * (r1 * r2)
    return Vectors(x, y)


def _rectangle_column(region: RectangularRegion, args, reads, count):
    x = _uniform(-region.width / 2, region.width / 2, reads[0])
    y = _uniform(-region.height / 2, region.height / 2, reads[1])
    return Vectors(*_offset_rotated((region.center.x, region.center.y), region.heading, (x, y)))


def _circle_point(center_x, center_y, radius, u_radius, u_angle):
    r = radius * np.sqrt(u_radius)
    theta = _uniform(0, 2 * math.pi, u_angle)
    return center_x + r * np.cos(theta), center_y + r * np.sin(theta)


def _sector_point(center_x, center_y, radius, heading, angle, u_angle, u_radius):
    half = np.minimum(angle, 2 * math.pi) / 2
    theta = heading + _uniform(-half, half, u_angle)
    r = radius * np.sqrt(u_radius)
    return center_x + -r * np.sin(theta), center_y + r * np.cos(theta)


def _visible_column(args, reads, count):
    """A point of ``visible_region_of(viewer)``: a disc, or the viewer's sector."""
    (viewer,) = args
    x, y = _as_vector(viewer)
    radius, angle, heading = 50.0, None, None
    if isinstance(viewer, Points):
        radius = _as_float(viewer.attr("viewDistance")) if viewer.has("viewDistance") else 50.0
        angle = viewer.attr("viewAngle") if viewer.has("viewAngle") else None
        heading = viewer.attr("heading") if viewer.has("heading") else None
    if np.any(np.less(radius, 0.0)):
        raise ValueError("negative view distance")
    x, y, radius = _full(x, count), _full(y, count), _full(radius, count)
    if angle is None or heading is None:
        return Vectors(*_circle_point(x, y, radius, *reads))
    angle, heading = _full(_as_float(angle), count), _full(_as_float(heading), count)
    disc = angle >= 2 * math.pi - 1e-9
    if np.any(~disc & (angle <= 0)):
        raise ValueError("sector angle must be positive")
    disc_x, disc_y = _circle_point(x, y, radius, *reads)
    sector_x, sector_y = _sector_point(x, y, radius, heading, angle, *reads)
    return Vectors(np.where(disc, disc_x, sector_x), np.where(disc, disc_y, sector_y))


def _whole_column(args, reads, count):
    return promote(reads[0])


#: Recipes of a point drawn from a constant region, by the region's exact type.
_REGION_RECIPES = {
    PolygonalRegion: (4, lambda region: partial(_polygon_column, region)),
    RectangularRegion: (2, lambda region: partial(_rectangle_column, region)),
}


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class ColumnPlan:
    """A draw program's block form: raw reads, then one column step per program step.

    Built once per program, at its first block of at least
    ``VectorizedSampler.COLUMN_MIN_BLOCK`` candidates; raises
    :class:`_Decline` when an RNG step has no recipe and random arguments.
    """

    def __init__(self, program: DrawProgram):
        if not program.object_slots:
            raise _Decline("no objects")
        # The program holds its plan, so the plan holds only the program's
        # slot layout: reference counting alone then frees both.
        self.nodes, self.memo_ids = program.nodes, program.memo_ids
        self.object_slots, self.ego_slot = program.object_slots, program.ego_slot
        self.param_slots, self.param_names = program.param_slots, program.param_names
        self._constants = (program.constant_slots, len(program.template))
        #: Each candidate's RNG reads, in order: ``(kind, argument)``.
        self.reads: List[Tuple[int, Any]] = []
        #: Slot values before a block: the constants; filled step by step.
        self.template: List[Any] = list(program.template)
        self.steps: List[Tuple[int, Callable]] = []
        #: How many blocks raised and were redrawn by the scalar program.
        self.replays = 0
        for slot, kind, function, arguments, whole in program.source_steps:
            if whole:
                arguments = [self._constant(value) for value in self.template[arguments[0]]]
            self.steps.append((slot, self._compile(kind, function, arguments)))
        self.width = len(self.reads)

    def _constant(self, value: Any) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def _is_constant(self, slot: int) -> bool:
        constant_slots, template_size = self._constants
        return slot in constant_slots or slot >= template_size

    def _read(self, *reads: Tuple[int, Any]) -> int:
        offset = len(self.reads)
        self.reads.extend(reads)
        return offset

    def _compile(self, kind: int, function: Any, arguments: List[int]) -> Callable:
        if kind == _PACK:
            return partial(_pack, function, arguments)
        if kind == _OBJECT:
            return self._object(function, arguments)
        if kind == _CALL:
            return partial(_step, _call_implementation(function), arguments, partial(_escape_call, function))
        node = function.__self__
        if type(node) in _NO_RNG:
            return partial(_step, _draw_implementation(node), arguments, partial(_escape_draw, function))
        constant = all(map(self._is_constant, arguments))
        recipe = self._recipe(node, arguments, constant)
        if recipe is not None:
            reads, column = recipe
            offset = self._read(*[(_RANDOM, None)] * reads)
            return partial(_raw_step, column, arguments, offset, reads)
        if not constant:
            raise _Decline(f"{type(node).__name__} with random arguments has no recipe")
        values = tuple(self.template[slot] for slot in arguments)
        offset = self._read((_WHOLE, partial(function, values)))
        return partial(_raw_step, _whole_column, arguments, offset, 1)

    def _recipe(self, node: Any, arguments: List[int], constant: bool):
        kind = type(node)
        if kind is Range:
            return 1, _range_column
        if kind is Options:
            return 1, _OptionsRecipe(node)
        if kind is PointInRegionDistribution and constant:
            region = self.template[arguments[0]]
            recipe = _REGION_RECIPES.get(type(region))
            if recipe is not None:
                return recipe[0], recipe[1](region)
        if kind is specifiers.PointInVisibleRegionDistribution:
            return 2, _visible_column
        return None

    def _object(self, step, arguments: List[int]) -> Callable:
        if type(step.node)._apply_mutation is Constructible._apply_mutation:
            return partial(_object_step, step, arguments, None)
        properties = step.properties
        if any(name in step.names for name in ("mutationScale", "positionStdDev", "headingStdDev")):
            raise _Decline("random mutation parameters")
        try:
            scale = float(properties.get("mutationScale", 0.0) or 0.0)
            if scale == 0.0:
                return partial(_object_step, step, arguments, None)
            position_std = scale * float(properties.get("positionStdDev", 1.0))
            heading_std = scale * float(properties.get("headingStdDev", math.radians(5.0)))
        except (TypeError, ValueError) as error:
            raise _Decline(f"mutation parameters: {error}") from error
        # The program built this step, so the hook is ``Object._apply_mutation``.
        offset = self._read((_GAUSS, position_std), (_GAUSS, position_std), (_GAUSS, heading_std))
        return partial(_object_step, step, arguments, offset)

    # -- drawing a block --------------------------------------------------------

    def draw(self, rng, count: int, stride: int) -> "ColumnBlock":
        """The raw phase, then the column phase, for a block of *count* candidates.

        The block records the RNG state after every *stride* candidates
        short of its last (``ColumnBlock.ends``).
        """
        raw, ends = self._raw_phase(rng, count, stride)
        columns = self.template.copy()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for slot, step in self.steps:
                columns[slot] = step(columns, raw, count)
        return ColumnBlock(self, columns, count, rng, ends)

    def _raw_phase(self, rng, count: int, stride: int) -> Tuple[List[Any], List[Any]]:
        """Every candidate's reads, candidate by candidate, then one column per read.

        A float read's column is a contiguous array; a whole step's, a list.
        Also returns ``rng.getstate()`` after every *stride* candidates short
        of the last.
        """
        width = self.width
        calls = [
            rng.random if kind == _RANDOM
            else partial(rng.gauss, 0.0, argument) if kind == _GAUSS
            else partial(argument, rng)
            for kind, argument in self.reads
        ]
        raw, ends = [], []
        for start in range(0, count, stride):
            if start:
                ends.append(rng.getstate())
            raw += [call() for _ in range(min(stride, count - start)) for call in calls]
        columns = [
            raw[offset::width] if kind == _WHOLE else np.array(raw[offset::width])
            for offset, (kind, _) in enumerate(self.reads)
        ]
        return columns, ends


def _step(implementation, arguments, escape, columns, raw, count):
    args = [columns[slot] for slot in arguments]
    if implementation is not None:
        try:
            return implementation(args, count)
        except _Escape:
            pass
    return escape(args, count)


def _argument_rows(args, count) -> List[Tuple[Any, ...]]:
    return list(zip(*(rows_of(arg, count) for arg in args))) if args else [()] * count


def _escape_call(function, args, count):
    return promote([function(*row) for row in _argument_rows(args, count)])


def _escape_draw(function, args, count):
    # These distributions never read the RNG: ``None`` stands in for it.
    return promote([function(row, None) for row in _argument_rows(args, count)])


def _raw_step(column, arguments, offset, reads, columns, raw, count):
    return column([columns[slot] for slot in arguments], raw[offset:offset + reads], count)


def _pack(function, arguments, columns, raw, count):
    return Packed(function, [columns[slot] for slot in arguments])


def _object_step(step, arguments, offset, columns, raw, count):
    """A scenario object: its properties' columns, with mutation noise if any."""
    args = [columns[slot] for slot in arguments]
    props = dict(step.properties)
    props.update(zip(step.names, args))
    noise = None
    if offset is not None:
        gx, gy, gh = raw[offset:offset + 3]
        x, y = _as_vector(props["position"])
        noise = (x + gx, y + gy, _normalize_angles(_as_float(props["heading"]) + gh))
        props["position"] = Vectors(noise[0], noise[1])
        props["heading"] = Floats(noise[2])

    def make(index: int):
        properties = step.properties.copy()
        properties.update(zip(step.names, [row_of(arg, index) for arg in args]))
        concrete = step.make(properties)
        concrete._source_object = step.node
        if noise is not None:
            concrete._assign_property("position", props["position"].row(index))
            concrete._assign_property("heading", float(noise[2][index]))
        return concrete

    return Points(type(step.node), props, make)


# ---------------------------------------------------------------------------
# A drawn block
# ---------------------------------------------------------------------------


class ColumnBlock:
    """``K`` candidates as columns; indexing builds one candidate's parts."""

    def __init__(self, plan: ColumnPlan, columns: List[Any], count: int, rng, ends: List[Any]):
        self.plan = plan
        self.columns = columns
        self.count = count
        self.rng = rng
        self.ends = ends
        self._candidates: Dict[int, Candidate] = {}

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> Candidate:
        """Candidate *index*: its sample, objects, ego and params, as the scalar draw gives them."""
        candidate = self._candidates.get(index)
        if candidate is None:
            plan = self.plan
            columns = self.columns
            values = [row_of(columns[slot], index) for slot in range(len(plan.nodes))]
            sample = Sample(self.rng)
            sample._values = dict(zip(plan.memo_ids, values))
            sample._keep_alive.append(plan.nodes)  # no id() key is recycled
            params = [row_of(columns[slot], index) for slot in plan.param_slots]
            candidate = self._candidates[index] = Candidate(
                sample,
                [values[slot] for slot in plan.object_slots],
                values[plan.ego_slot],
                dict(zip(plan.param_names, params)),
            )
        return candidate

    def geometry(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(K, N, 4, 2)`` corners and the ``(K, N)`` collidable mask, from the columns.

        The ``(K * N, 5)`` columns are those ``kernel.corners_array`` builds
        from the ``K * N`` objects, candidate by candidate.
        """
        count = self.count
        objects = [self.columns[slot] for slot in self.plan.object_slots]
        table = np.empty((count * len(objects), 5), dtype=float, order="F")
        collidable = np.empty((count, len(objects)), dtype=bool)
        for position, points in enumerate(objects):
            x, y = _box_position(points.attr("position"), count)
            fields = (x, y) + tuple(_box_value(points.attr(name), count)
                                    for name in ("heading", "width", "height"))
            for column, value in enumerate(fields):
                table[:, column].reshape(count, -1)[:, position] = value
            allowed = points.attr("allowCollisions")
            collidable[:, position] = (
                [not item for item in rows_of(allowed, count)] if isinstance(allowed, Column)
                else not allowed
            )
        corners = corners_of_columns(table).reshape(count, len(objects), 4, 2)
        return corners, collidable


def _box_position(position: Any, count: int) -> Tuple[Any, Any]:
    """An object's x and y as ``corners_array`` reads them."""
    if isinstance(position, Vectors):
        return position.x, position.y
    if isinstance(position, Column):
        rows = rows_of(position, count)
        return (
            np.array([p.x if hasattr(p, "x") else p[0] for p in rows], dtype=float),
            np.array([p.y if hasattr(p, "x") else p[1] for p in rows], dtype=float),
        )
    if hasattr(position, "x"):
        return position.x, position.y
    return position[0], position[1]


def _box_value(value: Any, count: int) -> Any:
    if isinstance(value, Floats):
        return value.values
    if isinstance(value, Column):
        return np.array(rows_of(value, count), dtype=float)
    return value


def column_plan(program: DrawProgram) -> Optional[ColumnPlan]:
    """*program*'s column plan, built at its first use; ``None`` if it declined."""
    plan = program.columns
    if plan is None:
        if program.steps is None:
            plan = False
        else:
            try:
                plan = ColumnPlan(program)
            except _Decline:
                plan = False
        program.columns = plan
    return plan or None


__all__ = ["ColumnBlock", "ColumnPlan", "Floats", "Points", "Rows", "Vectors", "column_plan"]
