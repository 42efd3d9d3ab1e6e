"""Feature extraction for the car detector.

The detector scores *proposals* (candidate boxes found by blob detection)
with a logistic-regression classifier.  The features below describe a
proposal's shape, contrast with its surroundings, and the internal structure
of its column-intensity profile, which is what lets the learned occlusion
splitter tell one car from two partially overlapping ones.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

Box = Tuple[float, float, float, float]

#: Number of features produced by :func:`proposal_features`.
FEATURE_COUNT = 12


def _box_slice(pixels: np.ndarray, box: Box) -> np.ndarray:
    height, width = pixels.shape
    x1, y1, x2, y2 = box
    x1 = int(max(0, min(width - 1, round(x1))))
    x2 = int(max(x1 + 1, min(width, round(x2))))
    y1 = int(max(0, min(height - 1, round(y1))))
    y2 = int(max(y1 + 1, min(height, round(y2))))
    return pixels[y1:y2, x1:x2]


def column_profile(pixels: np.ndarray, box: Box) -> np.ndarray:
    """Mean intensity of each pixel column inside the box."""
    patch = _box_slice(pixels, box)
    if patch.size == 0:
        return np.zeros(1)
    return patch.mean(axis=0)


def profile_valley_depth(profile: np.ndarray) -> float:
    """How pronounced the deepest interior valley of the profile is.

    Two adjacent cars produce a bright-dark-bright column profile (the gap or
    the occlusion boundary is darker); a single car's profile is flat.  The
    returned value is the drop from the surrounding peaks to the deepest
    interior minimum, normalised by the profile's dynamic range.
    """
    if profile.size < 5:
        return 0.0
    interior = profile[1:-1]
    valley_index = int(np.argmin(interior)) + 1
    left_peak = float(profile[:valley_index].max())
    right_peak = float(profile[valley_index:].max())
    valley = float(profile[valley_index])
    reference = max(left_peak, right_peak) - min(float(profile.min()), valley)
    if reference <= 1e-9:
        return 0.0
    depth = min(left_peak, right_peak) - valley
    return max(0.0, depth / reference)


def profile_split_column(profile: np.ndarray) -> int:
    """Index of the deepest interior valley (where a split would be made)."""
    if profile.size < 3:
        return profile.size // 2
    interior = profile[1:-1]
    return int(np.argmin(interior)) + 1


def proposal_features(pixels: np.ndarray, box: Box, background_level: float = 0.35) -> np.ndarray:
    """The feature vector for one proposal box."""
    height, width = pixels.shape
    patch = _box_slice(pixels, box)
    if patch.size == 0:
        return np.zeros(FEATURE_COUNT)
    x1, y1, x2, y2 = box
    box_width = max(1.0, x2 - x1)
    box_height = max(1.0, y2 - y1)
    aspect = box_width / box_height
    mean_intensity = float(patch.mean())
    std_intensity = float(patch.std())
    contrast = mean_intensity - background_level

    profile = patch.mean(axis=0)
    valley = profile_valley_depth(profile)
    row_profile = patch.mean(axis=1)
    vertical_gradient = float(row_profile[-1] - row_profile[0]) if row_profile.size > 1 else 0.0

    # Context contrast: compare against a one-box-wide border region.
    border = _box_slice(
        pixels,
        (x1 - box_width * 0.3, y1 - box_height * 0.3, x2 + box_width * 0.3, y2 + box_height * 0.3),
    )
    border_mean = float(border.mean()) if border.size else background_level
    context_contrast = mean_intensity - border_mean

    return np.array(
        [
            1.0,                                  # bias
            box_width / width,                    # relative width
            box_height / height,                  # relative height
            aspect / 4.0,                         # aspect ratio (cars are wide)
            (box_width * box_height) / (width * height),  # relative area
            mean_intensity,
            std_intensity,
            contrast,
            context_contrast,
            valley,                               # occlusion/two-car evidence
            vertical_gradient,                    # shadow at the bottom
            (y2 / height),                        # vertical position (cars sit low)
        ],
        dtype=np.float64,
    )


__all__ = [
    "FEATURE_COUNT",
    "proposal_features",
    "column_profile",
    "profile_valley_depth",
    "profile_split_column",
]
