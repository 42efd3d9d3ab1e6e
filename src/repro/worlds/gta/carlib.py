"""Car models, colours and the ``Car`` / ``EgoCar`` classes of ``gtaLib``.

Follows the class definition in Appendix A.1 of the paper: a ``Car``'s
default position is a uniformly random point on the road, its default
heading is the road direction plus a ``roadDeviation`` (default 0), its size
comes from its (random) model, it has an 80° view cone with a 30 m view
distance, and its colour follows real-world colour statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ...core.distributions import Discrete, Options
from ...core.lazy import DelayedArgument
from ...core.objects import Object
from .roads import default_map


@dataclass(frozen=True)
class CarModel:
    """A car model with its bounding-box dimensions (metres).

    ``CarModel.models`` maps the 13 model names used in the case study to
    instances (dimensions are typical values for the corresponding vehicle
    segments; GTA V's exact meshes are not available, and only width/height
    matter to Scenic).
    """

    name: str
    width: float
    height: float

    @classmethod
    def default_model(cls) -> Options:
        """Uniform distribution over the 13 models (as in the paper)."""
        return Options(list(cls.models.values()))

    def __repr__(self) -> str:
        return f"CarModel({self.name!r}, {self.width}x{self.height})"


# Kept for compatibility with the paper's snippets (camelCase).
CarModel.defaultModel = CarModel.default_model


_MODEL_SPECS: List[Tuple[str, float, float]] = [
    ("BLISTA", 1.85, 4.10),      # compact hatchback
    ("BUS", 2.55, 11.0),         # city bus
    ("NINEF", 1.95, 4.50),       # sports coupe
    ("ASEA", 1.80, 4.40),        # sedan
    ("BALLER", 2.00, 4.90),      # luxury SUV
    ("BISON", 2.05, 5.30),       # pickup truck
    ("BUFFALO", 1.95, 4.80),     # muscle sedan
    ("BOBCATXL", 2.10, 5.40),    # utility pickup
    ("DOMINATOR", 1.90, 4.70),   # muscle car
    ("GRANGER", 2.10, 5.60),     # full-size SUV
    ("JACKAL", 1.90, 4.60),      # executive coupe
    ("ORACLE", 1.95, 4.90),      # executive sedan
    ("PATRIOT", 2.20, 5.10),     # off-road SUV
]

CarModel.models = {name: CarModel(name, width, height) for name, width, height in _MODEL_SPECS}


class CarColor:
    """RGB car colours with the real-world popularity prior of [8] (DuPont 2012)."""

    #: (colour name, rgb in [0, 1], weight %) following the 2012 DuPont report.
    POPULARITY: List[Tuple[str, Tuple[float, float, float], float]] = [
        ("white", (0.95, 0.95, 0.95), 23.0),
        ("black", (0.05, 0.05, 0.05), 21.0),
        ("silver", (0.75, 0.75, 0.78), 16.0),
        ("gray", (0.50, 0.50, 0.52), 15.0),
        ("red", (0.75, 0.10, 0.10), 10.0),
        ("blue", (0.10, 0.20, 0.65), 7.0),
        ("brown", (0.45, 0.30, 0.15), 5.0),
        ("green", (0.10, 0.45, 0.15), 2.0),
        ("yellow", (0.90, 0.80, 0.10), 1.0),
    ]

    @classmethod
    def default_color(cls) -> Discrete:
        """Weighted distribution over RGB triples matching real-world statistics."""
        return Discrete({rgb: weight for _name, rgb, weight in cls.POPULARITY})

    defaultColor = default_color

    @staticmethod
    def byte_to_real(rgb_bytes) -> Tuple[float, float, float]:
        """Convert a ``[0, 255]`` RGB triple to the ``[0, 1]`` range."""
        red, green, blue = rgb_bytes
        return (red / 255.0, green / 255.0, blue / 255.0)

    byteToReal = byte_to_real


def _default_position():
    return default_map().road.uniform_point_distribution()


def _default_heading():
    road_direction = default_map().road_direction
    return DelayedArgument(
        {"position", "roadDeviation"},
        lambda obj: road_direction.at(obj.position) + obj.roadDeviation,
    )


class Car(Object):
    """A car on the road (Appendix A.1).

    By default it sits at a uniformly random point on the road, faces the
    traffic direction there (offset by ``roadDeviation``), and draws its
    dimensions from a random model and its colour from real-world statistics.
    """

    _scenic_properties = {
        "position": _default_position,
        "heading": _default_heading,
        "roadDeviation": lambda: 0.0,
        "model": lambda: CarModel.default_model(),
        "width": lambda: DelayedArgument({"model"}, lambda obj: obj.model.width),
        "height": lambda: DelayedArgument({"model"}, lambda obj: obj.model.height),
        "color": lambda: CarColor.default_color(),
        "viewAngle": lambda: math.radians(80.0),
        "visibleDistance": lambda: 30.0,
        "viewDistance": lambda: DelayedArgument(
            {"visibleDistance"}, lambda obj: obj.visibleDistance
        ),
    }


class EgoCar(Car):
    """The camera car: a fixed model, as in the paper's GTA V interface."""

    _scenic_properties = {
        "model": lambda: CarModel.models["ASEA"],
    }


__all__ = ["Car", "EgoCar", "CarModel", "CarColor"]
