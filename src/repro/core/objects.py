"""Scenic's object model: ``Point``, ``OrientedPoint`` and ``Object`` (Sec. 4.1).

Objects are constructed from specifiers (see :mod:`repro.core.specifiers`);
their properties may hold random values (distributions) which are resolved
per scene by :meth:`Constructible._concretize`.  Classes declare *default
value expressions* for their properties through the ``_scenic_properties``
class attribute: a mapping from property name to a zero-argument factory
returning the default-value expression.  Factories are called once per
instance, so random defaults (e.g. a car's model) are independent across
objects, exactly as required by the paper ("Default value expressions are
evaluated each time an object is created").

Table 2's built-in properties and defaults are reproduced verbatim.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from ..geometry.polygon import Polygon
from .context import register_object
from .distributions import Sample, concretize, needs_sampling
from .errors import ScenicError
from .specifiers import Specifier, With, resolve_specifiers
from .utils import normalize_angle
from .vectors import Vector

PropertyFactory = Callable[[], Any]


class Constructible:
    """Base class providing the default-property and specifier machinery."""

    #: Default-value factories for the properties introduced by this class.
    _scenic_properties: Dict[str, PropertyFactory] = {}

    #: How many times :meth:`_assign_property` has run on this instance; a
    #: draw program that read the object is current only while it is unchanged.
    _edits = 0

    # -- class-level helpers ----------------------------------------------------

    @classmethod
    def _property_defaults(cls) -> Dict[str, PropertyFactory]:
        """Defaults for all properties, with subclasses overriding superclasses."""
        defaults: Dict[str, PropertyFactory] = {}
        for klass in reversed(cls.__mro__):
            class_defaults = klass.__dict__.get("_scenic_properties")
            if class_defaults:
                defaults.update(class_defaults)
        return defaults

    @classmethod
    def _make(cls, **properties: Any) -> "Constructible":
        """Build an instance directly from property values, bypassing specifiers.

        Used internally, e.g. for intermediate OrientedPoints produced by
        operators such as ``front of``.
        """
        return cls._from_properties(properties)

    @classmethod
    def _from_properties(cls, properties: Dict[str, Any]) -> "Constructible":
        """An instance that takes *properties*, a fresh dict, as its own.

        The dict becomes the instance's ``properties`` without a copy, and
        each property is also set as an attribute.
        """
        instance = cls.__new__(cls)
        instance.properties = properties
        instance.__dict__.update(properties)
        instance._registered = False
        return instance

    # -- construction -----------------------------------------------------------

    def __init__(self, *specifiers: Specifier, **extra_properties: Any):
        specifier_list: List[Specifier] = list(specifiers)
        for name, value in extra_properties.items():
            specifier_list.append(With(name, value))
        assignments = resolve_specifiers(type(self)._property_defaults(), specifier_list)
        self.properties: Dict[str, Any] = {}
        for specifier, assigned in assignments:
            values = specifier.evaluate(self)
            for prop in assigned:
                if prop not in values:
                    raise ScenicError(
                        f"specifier {specifier.name} did not produce a value for '{prop}'"
                    )
                self._assign_property(prop, values[prop])
        self._registered = False
        self._validate()
        self._register_if_physical()

    def _assign_property(self, name: str, value: Any) -> None:
        self.properties[name] = value
        object.__setattr__(self, name, value)
        self._edits += 1

    def _validate(self) -> None:
        """Subclasses may check property consistency here."""

    def _register_if_physical(self) -> None:
        """Physical objects (Object subclasses) register with the active context."""

    # -- sampling ---------------------------------------------------------------

    def _needs_sampling(self) -> bool:
        return any(needs_sampling(value) for value in self.properties.values())

    def _concretize(self, sample: Sample) -> "Constructible":
        """Return a copy of this object with all properties made concrete.

        Copies are memoised per :class:`Sample`, so an object referenced from
        several places (e.g. by requirements and by other objects' specifiers)
        has a single concrete incarnation per scene.
        """
        concrete = sample.get(self)
        if concrete is not None:
            return concrete
        concrete = type(self)._from_properties(
            {name: concretize(value, sample) for name, value in self.properties.items()}
        )
        concrete._source_object = self
        sample.set_value_for(self, concrete)
        concrete._apply_mutation(sample)
        return concrete

    def _apply_mutation(self, sample: Sample) -> None:
        """Hook: ``Object`` adds Gaussian noise when mutation is enabled."""

    # -- convenience ------------------------------------------------------------

    def to_vector(self) -> Vector:
        return Vector.from_any(self.position)

    def distance_to(self, other: Any) -> float:
        return Vector.from_any(self.position).distance_to(other)

    def __repr__(self) -> str:
        interesting = {
            name: value
            for name, value in self.properties.items()
            if name in ("position", "heading", "width", "height")
        }
        summary = ", ".join(f"{name}={value!r}" for name, value in interesting.items())
        return f"{type(self).__name__}({summary})"


class Point(Constructible):
    """A position in space, together with visibility and mutation parameters.

    Properties (Table 2): ``position``, ``viewDistance``, ``mutationScale``,
    ``positionStdDev``.
    """

    _scenic_properties = {
        "position": lambda: Vector(0.0, 0.0),
        "viewDistance": lambda: 50.0,
        "mutationScale": lambda: 0.0,
        "positionStdDev": lambda: 1.0,
        # Points have no extent; Object overrides these with a real bounding
        # box.  Giving them defaults here lets edge-relative specifiers
        # (``left of X by D``) apply to Points and OrientedPoints too.
        "width": lambda: 0.0,
        "height": lambda: 0.0,
    }

    @property
    def visible_region(self):
        from .operators import visible_region_of

        return visible_region_of(self)

    def can_see(self, other: Any) -> Any:
        from .operators import can_see

        return can_see(self, other)


class OrientedPoint(Point):
    """A position plus a heading, defining a local coordinate system.

    Adds ``heading``, ``viewAngle`` and ``headingStdDev`` (Table 2).
    """

    _scenic_properties = {
        "heading": lambda: 0.0,
        "viewAngle": lambda: math.tau,
        "headingStdDev": lambda: math.radians(5.0),
    }

    def relativize(self, offset: Any) -> Any:
        """``offset relative to self`` — an OrientedPoint offset in our local frame."""
        from .operators import oriented_point_relative_to

        return oriented_point_relative_to(offset, self)

    def to_heading(self) -> Any:
        return self.heading


class Object(OrientedPoint):
    """A physical object with a bounding box; the things scenes are made of.

    Adds ``width``, ``height``, ``allowCollisions`` and ``requireVisible``
    (Table 2).  Creating an ``Object`` registers it with the active scenario
    context, which is the side effect through which Scenic programs build up
    their scenes.
    """

    _scenic_properties = {
        "width": lambda: 1.0,
        "height": lambda: 1.0,
        "allowCollisions": lambda: False,
        "requireVisible": lambda: True,
    }

    def _register_if_physical(self) -> None:
        register_object(self)
        self._registered = True

    # -- geometry (meaningful on concrete objects) ------------------------------

    @property
    def corners(self) -> List[Vector]:
        """The four corners of the bounding box (front-right first, anticlockwise)."""
        position = Vector.from_any(self.position)
        heading = float(self.heading)
        half_w = float(self.width) / 2.0
        half_h = float(self.height) / 2.0
        offsets = [
            Vector(half_w, half_h),
            Vector(-half_w, half_h),
            Vector(-half_w, -half_h),
            Vector(half_w, -half_h),
        ]
        return [position + offset.rotated_by(heading) for offset in offsets]

    @property
    def bounding_polygon(self) -> Polygon:
        return Polygon(self.corners)

    @property
    def min_radius(self) -> float:
        """Lower bound on centre-to-bounding-box distance (used by pruning)."""
        return min(float(self.width), float(self.height)) / 2.0

    @property
    def max_radius(self) -> float:
        """Circumradius of the bounding box."""
        return math.hypot(float(self.width) / 2.0, float(self.height) / 2.0)

    def intersects(self, other: "Object") -> bool:
        return self.bounding_polygon.intersects(other.bounding_polygon)

    def contains_point(self, point: Any) -> bool:
        return self.bounding_polygon.contains_point(point)

    # -- mutation ---------------------------------------------------------------

    def _apply_mutation(self, sample: Sample) -> None:
        """Add Gaussian noise to position and heading when mutation is enabled.

        Matches the paper's "Termination, Step 1": the noise standard
        deviations are ``positionStdDev`` and ``headingStdDev`` scaled by
        ``mutationScale``.
        """
        scale = float(self.properties.get("mutationScale", 0.0) or 0.0)
        if scale == 0.0:
            return
        rng = sample.rng
        position_std = scale * float(self.properties.get("positionStdDev", 1.0))
        heading_std = scale * float(self.properties.get("headingStdDev", math.radians(5.0)))
        position = Vector.from_any(self.position)
        noisy_position = position + Vector(rng.gauss(0.0, position_std), rng.gauss(0.0, position_std))
        noisy_heading = normalize_angle(float(self.heading) + rng.gauss(0.0, heading_std))
        self._assign_property("position", noisy_position)
        self._assign_property("heading", noisy_heading)


__all__ = ["Constructible", "Point", "OrientedPoint", "Object"]
