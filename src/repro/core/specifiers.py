"""Specifiers and the dependency-resolution algorithm (Sec. 4.3, Alg. 1).

An object is created from a class plus a list of *specifiers*, each a
function from some properties it depends on (its *dependencies*) to values
for the properties it specifies, some of them only *optionally* (another
specifier may override them).  ``resolve_specifiers`` implements Algorithm 1
of the paper: it pairs every property of the new object with a unique
specifier (preferring non-optional over optional over class defaults),
builds the dependency graph, rejects cycles, and returns the specifiers in a
valid evaluation order.

The second half of this module provides factory functions for every built-in
specifier of Tables 3 and 4, e.g. :func:`LeftOf`, :func:`Beyond`, :func:`On`,
:func:`Facing`, together with the generic :func:`With`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .context import current_ego
from .distributions import (
    Distribution,
    FunctionDistribution,
    distribution_function,
    needs_sampling,
)
from .errors import (
    AmbiguousSpecifierError,
    CyclicDependencyError,
    MissingPropertyError,
)
from .lazy import DelayedArgument, required_properties_of, value_in_context
from .operators import (
    beyond_from,
    heading_of,
    position_of,
    visible_region_of,
)
from .regions import PointInRegionDistribution
from .vectors import Vector


class Specifier:
    """A named bundle of property values, some of which may be optional.

    ``properties`` maps property names to values; values may be plain Python
    values, :class:`Distribution` nodes, or :class:`DelayedArgument` closures
    over properties of the object being constructed (the specifier's
    dependencies).
    """

    def __init__(self, name: str, properties: Dict[str, Any], optional: Iterable[str] = ()):
        self.name = name
        self._values = dict(properties)
        self.optional_targets: FrozenSet[str] = frozenset(optional)
        unknown_optional = self.optional_targets - set(self._values)
        if unknown_optional:
            raise ValueError(f"optional properties {unknown_optional} not specified by {name}")
        self.required_targets: FrozenSet[str] = frozenset(self._values) - self.optional_targets
        dependencies: set = set()
        for value in self._values.values():
            dependencies |= required_properties_of(value)
        self.dependencies: FrozenSet[str] = frozenset(dependencies)

    @property
    def all_targets(self) -> FrozenSet[str]:
        return self.required_targets | self.optional_targets

    def evaluate(self, context: Any) -> Dict[str, Any]:
        """Resolve all delayed values against the partially-built object."""
        return {prop: value_in_context(value, context) for prop, value in self._values.items()}

    def __repr__(self) -> str:
        return f"Specifier({self.name!r}, targets={sorted(self.all_targets)})"


ResolvedSpecifiers = List[Tuple[Specifier, List[str]]]


def resolve_specifiers(property_defaults: Dict[str, Any], specifiers: Sequence[Specifier]) -> ResolvedSpecifiers:
    """Algorithm 1 (``resolveSpecifiers``) from the paper.

    *property_defaults* maps property names to zero-argument factories
    producing the default-value expression for that property (evaluated
    afresh for each object, so random defaults are independent across
    instances).  Returns ``[(specifier, properties_it_assigns), ...]`` in a
    dependency-respecting evaluation order.
    """
    specifier_for_property: Dict[str, Specifier] = {}
    optional_specifiers: Dict[str, List[Specifier]] = defaultdict(list)

    # Gather all specified properties.
    for specifier in specifiers:
        for prop in specifier.required_targets:
            if prop in specifier_for_property:
                raise AmbiguousSpecifierError(
                    f"property '{prop}' is specified twice "
                    f"(by {specifier_for_property[prop].name} and {specifier.name})"
                )
            specifier_for_property[prop] = specifier
        for prop in specifier.optional_targets:
            optional_specifiers[prop].append(specifier)

    # Filter optional specifications: non-optional wins; two optionals clash.
    for prop, candidates in optional_specifiers.items():
        if prop in specifier_for_property:
            continue
        if len(candidates) > 1:
            raise AmbiguousSpecifierError(
                f"property '{prop}' is optionally specified by multiple specifiers: "
                + ", ".join(candidate.name for candidate in candidates)
            )
        specifier_for_property[prop] = candidates[0]

    # Add default-value specifiers for everything still unspecified.
    for prop, factory in property_defaults.items():
        if prop not in specifier_for_property:
            default_specifier = Specifier(f"default({prop})", {prop: factory()})
            specifier_for_property[prop] = default_specifier

    # Build the dependency graph over specifiers.
    chosen_specifiers = list(dict.fromkeys(specifier_for_property.values()))
    edges: Dict[Specifier, set] = {specifier: set() for specifier in chosen_specifiers}
    for specifier in chosen_specifiers:
        for dependency in specifier.dependencies:
            if dependency not in specifier_for_property:
                raise MissingPropertyError(
                    f"specifier {specifier.name} depends on property '{dependency}', "
                    "which is not specified and has no default"
                )
            provider = specifier_for_property[dependency]
            if provider is not specifier:
                edges[specifier].add(provider)
            else:
                raise CyclicDependencyError(
                    f"specifier {specifier.name} depends on a property it itself specifies"
                )

    # Topological sort (Kahn's algorithm); a leftover node means a cycle.
    in_degree = {specifier: len(deps) for specifier, deps in edges.items()}
    dependents: Dict[Specifier, List[Specifier]] = defaultdict(list)
    for specifier, deps in edges.items():
        for provider in deps:
            dependents[provider].append(specifier)
    ready = [specifier for specifier, degree in in_degree.items() if degree == 0]
    ordered: List[Specifier] = []
    while ready:
        specifier = ready.pop()
        ordered.append(specifier)
        for dependent in dependents[specifier]:
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                ready.append(dependent)
    if len(ordered) != len(chosen_specifiers):
        unresolved = [s.name for s in chosen_specifiers if s not in ordered]
        raise CyclicDependencyError(
            "specifiers have cyclic dependencies: " + ", ".join(unresolved)
        )

    assignments: ResolvedSpecifiers = []
    for specifier in ordered:
        assigned = [prop for prop, provider in specifier_for_property.items() if provider is specifier]
        assignments.append((specifier, assigned))
    return assignments


# ---------------------------------------------------------------------------
# Helper distributions used by sampling specifiers
# ---------------------------------------------------------------------------


class PointInVisibleRegionDistribution(Distribution):
    """A uniformly random point visible from a (possibly random) viewer."""

    def __init__(self, viewer: Any):
        super().__init__(viewer)

    def sample_given(self, dependency_values, rng):
        (viewer,) = dependency_values
        return visible_region_of(viewer).uniform_point(rng)


class PointInRegionVisibleFromDistribution(Distribution):
    """A uniformly random point of *region* that is visible from *viewer*."""

    def __init__(self, region: Any, viewer: Any):
        super().__init__(region, viewer)

    def sample_given(self, dependency_values, rng):
        region, viewer = dependency_values
        return region.intersect(visible_region_of(viewer)).uniform_point(rng)


# ---------------------------------------------------------------------------
# Concrete geometry for edge-relative placement
# ---------------------------------------------------------------------------


def _edge_offset_from_vector(base: Vector, heading: float, local_offset: Vector) -> Vector:
    return Vector.from_any(base).offset_rotated(float(heading), local_offset)


_edge_offset_from_vector = distribution_function(_edge_offset_from_vector)


def _edge_offset_from_op(oriented_point: Any, local_offset: Vector) -> Vector:
    position = Vector.from_any(oriented_point.position if hasattr(oriented_point, "position") else oriented_point)
    heading = float(oriented_point.heading) if hasattr(oriented_point, "heading") else 0.0
    return position.offset_rotated(heading, local_offset)


_edge_offset_from_op_lifted = distribution_function(_edge_offset_from_op)


def _local_offset(x: Any, y: Any) -> Any:
    if needs_sampling(x) or needs_sampling(y):
        return FunctionDistribution(lambda a, b: Vector(a, b), (x, y))
    return Vector(x, y)


# ---------------------------------------------------------------------------
# Position specifiers (Table 3)
# ---------------------------------------------------------------------------


def At(position: Any) -> Specifier:
    """``at vector`` — absolute position."""
    return Specifier("at", {"position": _as_position(position)})


def OffsetBy(offset: Any, ego: Any = None) -> Specifier:
    """``offset by vector`` — offset in the ego's local coordinate system.

    Note: Appendix C formalises this as a global offset from ``ego.position``;
    the prose (Sec. 3, "20–40 m ahead of the camera") and the reference
    implementation treat the offset as being in the ego's local frame, which
    is what we implement.
    """
    ego_object = ego if ego is not None else current_ego()
    position = _edge_offset_from_op_lifted(ego_object, _as_position(offset))
    return Specifier("offset by", {"position": position})


def OffsetAlong(direction: Any, offset: Any, ego: Any = None) -> Specifier:
    """``offset along (H | F) by vector`` — offset in the frame of an explicit heading."""
    from .operators import vector_offset_along_direction

    ego_object = ego if ego is not None else current_ego()
    position = vector_offset_along_direction(position_of(ego_object), direction, _as_position(offset))
    return Specifier("offset along", {"position": position})


def _side_of_vector(side: str, vector: Any, by: Any = 0) -> Specifier:
    """Common implementation of left/right/ahead/behind a plain vector."""
    dimension = "width" if side in ("left", "right") else "height"
    sign = -1.0 if side in ("left", "behind") else 1.0

    def evaluator(obj: Any) -> Any:
        extent = getattr(obj, dimension)
        magnitude = extent / 2 + by
        if side in ("left", "right"):
            local = _local_offset(sign * magnitude, 0)
        else:
            local = _local_offset(0, sign * magnitude)
        return _edge_offset_from_vector(_as_position(vector), obj.heading, local)

    value = DelayedArgument({dimension, "heading"}, evaluator)
    return Specifier(f"{side} of (vector)", {"position": value})


def LeftOfVector(vector: Any, by: Any = 0) -> Specifier:
    return _side_of_vector("left", vector, by)


def RightOfVector(vector: Any, by: Any = 0) -> Specifier:
    return _side_of_vector("right", vector, by)


def AheadOfVector(vector: Any, by: Any = 0) -> Specifier:
    return _side_of_vector("ahead", vector, by)


def BehindVector(vector: Any, by: Any = 0) -> Specifier:
    return _side_of_vector("behind", vector, by)


def _side_of_oriented_point(side: str, oriented_point: Any, by: Any = 0) -> Specifier:
    """left/right/ahead of/behind an OrientedPoint (optionally specifying heading)."""
    dimension = "width" if side in ("left", "right") else "height"
    sign = -1.0 if side in ("left", "behind") else 1.0

    def evaluator(obj: Any) -> Any:
        extent = getattr(obj, dimension)
        magnitude = extent / 2 + by
        if side in ("left", "right"):
            local = _local_offset(sign * magnitude, 0)
        else:
            local = _local_offset(0, sign * magnitude)
        return _edge_offset_from_op_lifted(oriented_point, local)

    position = DelayedArgument({dimension}, evaluator)
    heading = heading_of(oriented_point)
    return Specifier(
        f"{side} of (OrientedPoint)",
        {"position": position, "heading": heading},
        optional=("heading",),
    )


def _side_of_object(side: str, scenic_object: Any, by: Any = 0) -> Specifier:
    """left/right/ahead of/behind an Object: measured from the matching edge."""
    from .operators import back_of, front_of, left_edge_of, right_edge_of

    edge_function = {
        "left": left_edge_of,
        "right": right_edge_of,
        "ahead": front_of,
        "behind": back_of,
    }[side]
    return _side_of_oriented_point(side, edge_function(scenic_object), by)


def LeftOf(reference: Any, by: Any = 0) -> Specifier:
    """``left of X [by D]`` dispatching on the reference type (Table 3)."""
    return _directional("left", reference, by)


def RightOf(reference: Any, by: Any = 0) -> Specifier:
    return _directional("right", reference, by)


def AheadOf(reference: Any, by: Any = 0) -> Specifier:
    return _directional("ahead", reference, by)


def Behind(reference: Any, by: Any = 0) -> Specifier:
    return _directional("behind", reference, by)


def _directional(side: str, reference: Any, by: Any) -> Specifier:
    from .objects import Object, OrientedPoint

    if isinstance(reference, Object):
        return _side_of_object(side, reference, by)
    if isinstance(reference, OrientedPoint) or (
        isinstance(reference, Distribution) and not isinstance(reference, (PointInRegionDistribution,))
        and hasattr(reference, "heading")
    ):
        return _side_of_oriented_point(side, reference, by)
    if isinstance(reference, Distribution):
        # A random value: assume it concretises to an OrientedPoint-like value.
        return _side_of_oriented_point(side, reference, by)
    return _side_of_vector(side, reference, by)


def Beyond(base: Any, offset: Any, from_point: Any = None) -> Specifier:
    """``beyond A by O [from B]`` (B defaults to the ego)."""
    viewer = from_point if from_point is not None else current_ego()
    offset_value = _as_position_or_scalar_ahead(offset)
    position = beyond_from(position_of(base), offset_value, position_of(viewer))
    return Specifier("beyond", {"position": position})


def Visible(viewer: Any = None) -> Specifier:
    """``visible [from (Point | OrientedPoint)]`` — uniform over the visible region."""
    viewing_object = viewer if viewer is not None else current_ego()
    return Specifier("visible", {"position": PointInVisibleRegionDistribution(viewing_object)})


def In(region: Any) -> Specifier:
    """``(in | on) region`` — uniform in the region, orientation optional.

    If the region has a preferred orientation, the specifier optionally
    specifies ``heading`` as the orientation at the sampled position.
    """
    position = PointInRegionDistribution(region) if not isinstance(region, Distribution) else PointInRegionDistribution(region)
    properties: Dict[str, Any] = {"position": position}
    optional: Tuple[str, ...] = ()
    orientation = getattr(region, "orientation", None)
    if isinstance(region, Distribution):
        # The region itself is random (e.g. ``visible road``): defer the
        # orientation lookup to sampling time.
        properties["heading"] = FunctionDistribution(_orientation_at, (region, position))
        optional = ("heading",)
    elif orientation is not None:
        properties["heading"] = orientation.at(position)
        optional = ("heading",)
    return Specifier("on", properties, optional=optional)


On = In


def _orientation_at(region: Any, position: Any) -> float:
    orientation = getattr(region, "orientation", None)
    if orientation is None:
        return 0.0
    return orientation.value_at(position)


def VisibleFromRegion(region: Any, viewer: Any = None) -> Specifier:
    """``on visible region`` — uniform over the part of *region* the viewer sees."""
    viewing_object = viewer if viewer is not None else current_ego()
    position = PointInRegionVisibleFromDistribution(region, viewing_object)
    properties: Dict[str, Any] = {"position": position}
    optional: Tuple[str, ...] = ()
    orientation = getattr(region, "orientation", None)
    if orientation is not None:
        properties["heading"] = orientation.at(position)
        optional = ("heading",)
    return Specifier("on visible", properties, optional=optional)


def Following(field: Any, distance: Any, from_point: Any = None) -> Specifier:
    """``following vectorField [from vector] for scalar``."""
    from .operators import follow_field

    start = from_point if from_point is not None else current_ego()
    oriented_point = follow_field(field, position_of(start), distance)
    return Specifier(
        "following",
        {
            "position": position_of(oriented_point),
            "heading": heading_of(oriented_point),
        },
        optional=("heading",),
    )


# ---------------------------------------------------------------------------
# Heading specifiers (Table 4)
# ---------------------------------------------------------------------------


def Facing(heading_or_field: Any) -> Specifier:
    """``facing H`` or ``facing vectorField``."""
    from .vectorfields import VectorField

    if isinstance(heading_or_field, VectorField):
        field = heading_or_field
        value = DelayedArgument({"position"}, lambda obj: field.at(obj.position))
        return Specifier("facing (field)", {"heading": value})
    if isinstance(heading_or_field, DelayedArgument):
        return Specifier("facing", {"heading": heading_or_field})
    return Specifier("facing", {"heading": heading_of(heading_or_field)})


def FacingToward(target: Any) -> Specifier:
    """``facing toward vector`` — depends on the object's own position."""
    from .operators import angle_between

    value = DelayedArgument({"position"}, lambda obj: angle_between(obj.position, position_of(target)))
    return Specifier("facing toward", {"heading": value})


def FacingAwayFrom(target: Any) -> Specifier:
    """``facing away from vector``."""
    from .operators import angle_between

    value = DelayedArgument({"position"}, lambda obj: angle_between(position_of(target), obj.position))
    return Specifier("facing away from", {"heading": value})


def ApparentlyFacing(heading: Any, from_point: Any = None) -> Specifier:
    """``apparently facing H [from V]`` — heading relative to the line of sight."""
    from .lazy import required_properties_of, value_in_context
    from .operators import angle_between

    viewer = from_point if from_point is not None else current_ego()

    def evaluator(obj: Any) -> Any:
        # H may itself be lazy (e.g. ``H relative to field``): resolve it
        # against the object under construction before coercing to a heading.
        resolved = value_in_context(heading, obj)
        return heading_of(resolved) + angle_between(position_of(viewer), obj.position)

    requirements = {"position"} | required_properties_of(heading)
    return Specifier("apparently facing", {"heading": DelayedArgument(requirements, evaluator)})


# ---------------------------------------------------------------------------
# The generic specifier
# ---------------------------------------------------------------------------


def With(property_name: str, value: Any) -> Specifier:
    """``with property value`` — set any property, built-in or user-defined."""
    return Specifier(f"with {property_name}", {property_name: value})


# ---------------------------------------------------------------------------
# small coercion helpers
# ---------------------------------------------------------------------------


def _as_position(value: Any) -> Any:
    """Coerce to a (possibly random) vector."""
    if isinstance(value, (Distribution, DelayedArgument)):
        return value
    if isinstance(value, Vector):
        return value
    if hasattr(value, "position"):
        return value.position
    if isinstance(value, (tuple, list)) and len(value) == 2:
        if needs_sampling(value):
            return FunctionDistribution(lambda a, b: Vector(a, b), tuple(value))
        return Vector(value[0], value[1])
    return value


def _as_position_or_scalar_ahead(value: Any) -> Any:
    """``beyond A by O``: a scalar O means "O metres further along the line of sight"."""
    if isinstance(value, (int, float)):
        return Vector(0.0, float(value))
    return _as_position(value)


__all__ = [
    "Specifier",
    "resolve_specifiers",
    "At",
    "OffsetBy",
    "OffsetAlong",
    "LeftOf",
    "RightOf",
    "AheadOf",
    "Behind",
    "LeftOfVector",
    "RightOfVector",
    "AheadOfVector",
    "BehindVector",
    "Beyond",
    "Visible",
    "VisibleFromRegion",
    "In",
    "On",
    "Following",
    "Facing",
    "FacingToward",
    "FacingAwayFrom",
    "ApparentlyFacing",
    "With",
    "PointInVisibleRegionDistribution",
    "PointInRegionVisibleFromDistribution",
]
