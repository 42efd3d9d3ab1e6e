"""Rendering Scenic scenes into labelled synthetic images.

For every car visible from the ego camera the renderer produces a ground
truth bounding box (with an occlusion-aware visibility fraction) and paints
the car into a small grayscale raster.  Image quality degrades with the
scene's ``weather`` and ``time`` parameters (darkness and precipitation add
noise and reduce contrast), which is how the "testing under different
conditions" experiment of Sec. 6.2 manifests in this reproduction.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.scene import Scene
from ..core.vectors import Vector
from ..worlds.gta.weather import time_difficulty, weather_difficulty
from .camera import Camera, CameraConfig

Box = Tuple[float, float, float, float]


@dataclass
class GroundTruthBox:
    """One labelled car in an image."""

    box: Box
    #: Fraction of the box's pixels not hidden by closer cars (1 = unoccluded).
    visibility: float
    #: Distance from the camera, metres.
    distance: float
    #: Luminance the car was painted with (depends on its colour).
    luminance: float
    #: Index of the source object within the scene.
    object_index: int

    @property
    def area(self) -> float:
        x1, y1, x2, y2 = self.box
        return max(0.0, x2 - x1) * max(0.0, y2 - y1)


@dataclass
class LabeledImage:
    """A rendered image with its ground-truth boxes (the training/test unit)."""

    pixels: np.ndarray
    boxes: List[GroundTruthBox]
    params: dict = field(default_factory=dict)
    difficulty: float = 0.0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pixels.shape  # (rows, columns)

    def copy(self) -> "LabeledImage":
        return LabeledImage(self.pixels.copy(), list(self.boxes), dict(self.params), self.difficulty)


@dataclass
class RendererConfig:
    """Knobs controlling rasterisation and degradation."""

    camera: CameraConfig = field(default_factory=CameraConfig)
    #: Base background luminance of the road.
    background_level: float = 0.35
    #: Base pixel-noise standard deviation in perfect conditions.
    base_noise: float = 0.02
    #: Additional noise at maximal difficulty (midnight blizzard).
    difficulty_noise: float = 0.18
    #: Contrast retained at maximal difficulty.
    min_contrast: float = 0.35
    #: Ground-truth boxes whose visible fraction falls below this are dropped
    #: (fully hidden cars cannot be labelled by the simulator either).
    min_visibility: float = 0.03


def scene_difficulty(scene: Scene) -> float:
    """Image-quality degradation in [0, 1] implied by the scene's parameters."""
    weather = scene.params.get("weather", "CLEAR")
    minutes = scene.params.get("time", 12 * 60.0)
    try:
        minutes = float(minutes)
    except (TypeError, ValueError):
        minutes = 12 * 60.0
    darkness = time_difficulty(minutes)
    weather_factor = weather_difficulty(str(weather))
    return min(1.0, 0.6 * darkness + 0.6 * weather_factor)


def _car_luminance(scenic_object) -> float:
    """Painted luminance of a car: dominated by its colour, clamped to a usable range."""
    color = scenic_object.properties.get("color", (0.5, 0.5, 0.5))
    try:
        red, green, blue = color
        luminance = 0.299 * float(red) + 0.587 * float(green) + 0.114 * float(blue)
    except (TypeError, ValueError):
        luminance = 0.5
    return 0.15 + 0.8 * luminance


def render_scene(
    scene: Scene,
    config: Optional[RendererConfig] = None,
    rng: Optional[_random.Random] = None,
) -> LabeledImage:
    """Render *scene* from the ego's viewpoint into a labelled image."""
    config = config if config is not None else RendererConfig()
    rng = rng if rng is not None else _random.Random()
    camera = Camera.from_ego(scene.ego, config.camera)
    height = config.camera.image_height
    width = config.camera.image_width
    difficulty = scene_difficulty(scene)
    contrast = 1.0 - (1.0 - config.min_contrast) * difficulty

    numpy_rng = np.random.default_rng(rng.getrandbits(32))
    pixels = np.full((height, width), config.background_level, dtype=np.float64)
    # Simple road texture: horizontal luminance gradient toward the horizon.
    rows = np.arange(height, dtype=np.float64).reshape(-1, 1)
    pixels += 0.06 * (rows / max(height - 1, 1) - 0.5)

    # Project every non-ego car, sorted far-to-near so nearer cars overwrite
    # (paint) farther ones, letting us measure occlusion per pixel.
    candidates = []
    for index, scenic_object in enumerate(scene.objects):
        if scenic_object is scene.ego:
            continue
        box = camera.project_object(scenic_object)
        if box is None:
            continue
        distance = camera.distance_to(Vector.from_any(scenic_object.position))
        candidates.append((distance, index, scenic_object, box))
    candidates.sort(key=lambda item: -item[0])

    owner = np.full((height, width), -1, dtype=np.int64)
    luminances = {}
    for distance, index, scenic_object, box in candidates:
        x1, y1, x2, y2 = (int(round(v)) for v in box)
        x1, x2 = max(0, x1), min(width, x2)
        y1, y2 = max(0, y1), min(height, y2)
        if x2 <= x1 or y2 <= y1:
            continue
        luminance = _car_luminance(scenic_object) * contrast
        luminances[index] = luminance
        pixels[y1:y2, x1:x2] = luminance
        # A darker strip along the bottom (shadow/wheels) adds structure the
        # detector's features can latch onto.
        shadow_top = max(y1, y2 - max(1, (y2 - y1) // 5))
        pixels[shadow_top:y2, x1:x2] = luminance * 0.5
        owner[y1:y2, x1:x2] = index

    ground_truth: List[GroundTruthBox] = []
    for distance, index, scenic_object, box in candidates:
        x1, y1, x2, y2 = (int(round(v)) for v in box)
        x1, x2 = max(0, x1), min(width, x2)
        y1, y2 = max(0, y1), min(height, y2)
        total = max(1, (x2 - x1) * (y2 - y1))
        visible = int(np.count_nonzero(owner[y1:y2, x1:x2] == index))
        visibility = visible / total
        if visibility < config.min_visibility:
            continue
        ground_truth.append(
            GroundTruthBox(
                box=box,
                visibility=visibility,
                distance=distance,
                luminance=luminances.get(index, 0.5),
                object_index=index,
            )
        )

    # Degradation: additive noise plus a global darkening with difficulty.
    noise_std = config.base_noise + config.difficulty_noise * difficulty
    pixels = pixels * (1.0 - 0.3 * difficulty)
    pixels = pixels + numpy_rng.normal(0.0, noise_std, size=pixels.shape)
    np.clip(pixels, 0.0, 1.0, out=pixels)

    return LabeledImage(pixels=pixels, boxes=ground_truth, params=dict(scene.params), difficulty=difficulty)


def render_scenes(
    scenes: Sequence[Scene],
    config: Optional[RendererConfig] = None,
    seed: Optional[int] = None,
) -> List[LabeledImage]:
    """Render a batch of scenes with a shared RNG (deterministic given *seed*)."""
    rng = _random.Random(seed)
    return [render_scene(scene, config, rng) for scene in scenes]


__all__ = [
    "GroundTruthBox",
    "LabeledImage",
    "RendererConfig",
    "render_scene",
    "render_scenes",
    "scene_difficulty",
]
