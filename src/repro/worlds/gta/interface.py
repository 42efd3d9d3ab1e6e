"""The namespace a Scenic program sees after ``import gtaLib``.

Also provides the platoon helper functions of Appendix A.10/A.11
(``createPlatoonAt``, ``carAheadOfCar``) so gallery scenarios can use them
directly, mirroring the paper's library.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...core import specifiers as spec
from ...core.distributions import resample
from ...core.objects import OrientedPoint
from ...core.operators import follow_field, front_of, oriented_point_relative_to
from ...core.workspace import Workspace
from .carlib import Car, CarColor, CarModel, EgoCar
from .roads import RoadMap, default_map
from .weather import default_time_distribution, default_weather_distribution


def car_ahead_of_car(car: Car, gap: Any, offsetX: Any = 0, wiggle: Any = 0) -> Car:
    """Place a new car *gap* metres ahead of *car* (Appendix A.11, Fig. 20)."""
    road_direction = default_map().road_direction
    front = front_of(car)
    pos = oriented_point_relative_to(Vector_from(offsetX, gap), front)
    heading_spec = spec.Facing(_wiggled(road_direction, wiggle))
    return Car(spec.AheadOf(pos), heading_spec)


def create_platoon_at(car: Car, numCars: int, model: Any = None, dist: Any = None,
                      shift: Any = None, wiggle: Any = 0) -> list:
    """Create a platoon of cars behind *car* (Appendix A.10, Fig. 18)."""
    from ...core.distributions import Range

    if dist is None:
        dist = Range(2, 8)
    if shift is None:
        shift = Range(-0.5, 0.5)
    road_direction = default_map().road_direction
    cars = [car]
    last_car = car
    for _ in range(numCars - 1):
        center = follow_field(road_direction, _position_of(front_of(last_car)), resample(dist))
        pos = OrientedPoint(
            spec.RightOf(center, resample(shift)),
            spec.Facing(_wiggled(road_direction, wiggle)),
        )
        chosen_model = car.properties.get("model") if model is None else resample(model)
        last_car = Car(spec.AheadOf(pos), spec.With("model", chosen_model))
        cars.append(last_car)
    return cars


def _wiggled(field, wiggle):
    """A heading value: the field's direction at the object plus a wiggle offset."""
    from ...core.lazy import DelayedArgument

    return DelayedArgument(
        {"position"},
        lambda obj: field.at(obj.position) + resample(wiggle),
    )


def _position_of(value):
    from ...core.operators import position_of

    return position_of(value)


def Vector_from(x, y):
    """Build a possibly-random vector from scalars (helper for the library)."""
    from ...core.distributions import make_random_vector

    return make_random_vector(x, y)


def scenic_namespace(road_map: Optional[RoadMap] = None) -> Dict[str, Any]:
    """All names exported to Scenic programs importing ``gtaLib``."""
    world = road_map if road_map is not None else default_map()
    return {
        "road": world.road,
        "roadSurface": world.road_surface,
        "curb": world.curb,
        "roadDirection": world.road_direction,
        "Car": Car,
        "EgoCar": EgoCar,
        "CarModel": CarModel,
        "CarColor": CarColor,
        "createPlatoonAt": create_platoon_at,
        "carAheadOfCar": car_ahead_of_car,
        "defaultWeather": default_weather_distribution,
        "defaultTime": default_time_distribution,
    }


def default_workspace(road_map: Optional[RoadMap] = None) -> Workspace:
    world = road_map if road_map is not None else default_map()
    return world.workspace


__all__ = [
    "scenic_namespace",
    "default_workspace",
    "create_platoon_at",
    "car_ahead_of_car",
]
