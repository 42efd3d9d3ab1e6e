"""A trainable car detector standing in for squeezeDet.

The detector follows a classic propose-then-classify architecture,
implemented entirely in NumPy so it trains in seconds on a laptop:

1. **Proposals** — connected bright regions of the image (cars are painted
   brighter or darker than the road, so thresholding against the local
   background finds candidate blobs).
2. **Scoring** — a logistic-regression classifier over the features of
   :mod:`repro.perception.features` decides whether a proposal is a car.
3. **Splitting** — a second logistic-regression head decides whether a
   proposal actually covers *two* partially-overlapping cars and, if so,
   splits it at the valley of its column-intensity profile.

What matters for the paper's experiments is that the detector's behaviour is
*learned from the training distribution*: a training set with few
overlapping cars gives a splitter that rarely fires (hurting precision and
recall on occlusion-heavy test sets), degraded night/rain images yield more
spurious proposals, and retraining with Scenic-generated hard cases improves
exactly those weaknesses — the qualitative shape of Tables 6–10.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import (
    FEATURE_COUNT,
    column_profile,
    profile_split_column,
    proposal_features,
)
from .metrics import iou
from .renderer import LabeledImage

Box = Tuple[float, float, float, float]


@dataclass
class Detection:
    """One predicted car: a box plus a confidence score."""

    box: Box
    score: float


@dataclass
class DetectorConfig:
    """Proposal-generation and training hyper-parameters."""

    #: Threshold (in absolute deviation from the background estimate) above
    #: which a pixel is considered "interesting".
    pixel_threshold: float = 0.10
    #: Proposals smaller than this (pixels on a side) are discarded.
    min_proposal_size: int = 3
    #: Maximum number of proposals per image (largest first).
    max_proposals: int = 12
    #: Detections scoring below this are suppressed at prediction time.
    score_threshold: float = 0.5
    #: Probability threshold above which a proposal is split into two boxes.
    split_threshold: float = 0.5
    #: L2 regularisation for both logistic-regression heads.
    l2: float = 1e-3
    #: SGD learning rate.
    learning_rate: float = 0.15
    #: IoU above which a proposal counts as matching a ground-truth box when
    #: building classifier training labels.
    match_iou: float = 0.3


def _sigmoid(value: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(value, -30.0, 30.0)))


def find_proposals(pixels: np.ndarray, config: DetectorConfig) -> List[Box]:
    """Connected-component blob detection against the estimated background."""
    background = float(np.median(pixels))
    mask = np.abs(pixels - background) > config.pixel_threshold
    height, width = mask.shape
    labels = np.zeros((height, width), dtype=np.int64)
    current_label = 0
    boxes: List[Box] = []
    for row in range(height):
        for column in range(width):
            if not mask[row, column] or labels[row, column] != 0:
                continue
            current_label += 1
            # Flood fill (iterative) to find the connected component.
            stack = [(row, column)]
            labels[row, column] = current_label
            min_row = max_row = row
            min_col = max_col = column
            count = 0
            while stack:
                r, c = stack.pop()
                count += 1
                min_row, max_row = min(min_row, r), max(max_row, r)
                min_col, max_col = min(min_col, c), max(max_col, c)
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < height and 0 <= nc < width and mask[nr, nc] and labels[nr, nc] == 0:
                        labels[nr, nc] = current_label
                        stack.append((nr, nc))
            if (max_row - min_row + 1) >= config.min_proposal_size and (
                max_col - min_col + 1
            ) >= config.min_proposal_size:
                boxes.append((float(min_col), float(min_row), float(max_col + 1), float(max_row + 1)))
    boxes.sort(key=lambda box: -(box[2] - box[0]) * (box[3] - box[1]))
    return boxes[: config.max_proposals]


def split_box(pixels: np.ndarray, box: Box, overlap_fraction: float = 0.50) -> Tuple[Box, Box]:
    """Split a box into two car boxes at the deepest valley of its column profile.

    When one car partially occludes another, their ground-truth boxes overlap
    each other; splitting the blob into two *disjoint* halves would
    systematically under-cover the occluded car.  Each half is therefore
    extended past the valley by ``overlap_fraction`` of the blob width, so
    the two predicted boxes overlap the way the true boxes do.
    """
    profile = column_profile(pixels, box)
    split = profile_split_column(profile)
    x1, y1, x2, y2 = box
    width = x2 - x1
    split_x = min(max(x1 + split, x1 + 2), x2 - 2)
    extension = overlap_fraction * width / 2.0
    left_box = (x1, y1, min(x2, split_x + extension), y2)
    right_box = (max(x1, split_x - extension), y1, x2, y2)
    return left_box, right_box


class CarDetector:
    """The trainable detector (score head + split head)."""

    def __init__(self, config: Optional[DetectorConfig] = None, seed: int = 0):
        self.config = config if config is not None else DetectorConfig()
        rng = np.random.default_rng(seed)
        self.score_weights = rng.normal(0.0, 0.01, FEATURE_COUNT)
        self.split_weights = rng.normal(0.0, 0.01, FEATURE_COUNT)
        self.trained_iterations = 0

    # -- prediction -----------------------------------------------------------------

    def predict(self, image: LabeledImage) -> List[Detection]:
        """Detect cars in *image*, returning scored boxes sorted by confidence."""
        config = self.config
        detections: List[Detection] = []
        for proposal in find_proposals(image.pixels, config):
            features = proposal_features(image.pixels, proposal)
            score = float(_sigmoid(features @ self.score_weights))
            if score < config.score_threshold:
                continue
            split_probability = float(_sigmoid(features @ self.split_weights))
            if split_probability > config.split_threshold:
                first, second = split_box(image.pixels, proposal)
                for part in (first, second):
                    part_features = proposal_features(image.pixels, part)
                    part_score = float(_sigmoid(part_features @ self.score_weights))
                    detections.append(Detection(part, 0.5 * (score + part_score)))
            else:
                detections.append(Detection(proposal, score))
        detections.sort(key=lambda detection: -detection.score)
        return detections

    def predict_boxes(self, image: LabeledImage) -> List[Box]:
        return [detection.box for detection in self.predict(image)]

    # -- training -------------------------------------------------------------------

    def _training_examples(self, image: LabeledImage) -> List[Tuple[np.ndarray, float, Optional[float]]]:
        """Per-proposal training rows: (features, is-car label, split label or None)."""
        config = self.config
        truth_boxes = [gt.box for gt in image.boxes]
        rows: List[Tuple[np.ndarray, float, Optional[float]]] = []
        for proposal in find_proposals(image.pixels, config):
            features = proposal_features(image.pixels, proposal)
            overlaps = [iou(proposal, truth) for truth in truth_boxes]
            matched = [overlap for overlap in overlaps if overlap >= config.match_iou]
            # Count ground-truth cars mostly covered by this proposal: the
            # split head should fire when a blob merges two cars.
            covered = 0
            for truth in truth_boxes:
                tx1, ty1, tx2, ty2 = truth
                truth_area = max(1e-9, (tx2 - tx1) * (ty2 - ty1))
                ix1, iy1 = max(proposal[0], tx1), max(proposal[1], ty1)
                ix2, iy2 = min(proposal[2], tx2), min(proposal[3], ty2)
                inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
                if inter / truth_area > 0.5:
                    covered += 1
            is_car = 1.0 if matched or covered >= 1 else 0.0
            split_label: Optional[float] = None
            if is_car:
                split_label = 1.0 if covered >= 2 else 0.0
            rows.append((features, is_car, split_label))
        return rows

    def train(
        self,
        images: Sequence[LabeledImage],
        iterations: int = 400,
        batch_size: int = 20,
        seed: int = 0,
        learning_rate: Optional[float] = None,
    ) -> None:
        """Train both heads with mini-batch SGD on logistic loss."""
        config = self.config
        rate = learning_rate if learning_rate is not None else config.learning_rate
        rng = _random.Random(seed)

        score_rows: List[Tuple[np.ndarray, float]] = []
        split_rows: List[Tuple[np.ndarray, float]] = []
        for image in images:
            for features, is_car, split_label in self._training_examples(image):
                score_rows.append((features, is_car))
                if split_label is not None:
                    split_rows.append((features, split_label))

        if not score_rows:
            return

        def sgd(rows: List[Tuple[np.ndarray, float]], weights: np.ndarray) -> np.ndarray:
            if not rows:
                return weights
            for _ in range(iterations):
                batch = [rows[rng.randrange(len(rows))] for _ in range(min(batch_size, len(rows)))]
                features_matrix = np.stack([row[0] for row in batch])
                labels = np.array([row[1] for row in batch])
                predictions = _sigmoid(features_matrix @ weights)
                gradient = features_matrix.T @ (predictions - labels) / len(batch)
                gradient += config.l2 * weights
                weights = weights - rate * gradient
            return weights

        self.score_weights = sgd(score_rows, self.score_weights)
        self.split_weights = sgd(split_rows, self.split_weights)
        self.trained_iterations += iterations

    # -- persistence ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, List[float]]:
        return {
            "score_weights": self.score_weights.tolist(),
            "split_weights": self.split_weights.tolist(),
        }

    def load_state_dict(self, state: Dict[str, List[float]]) -> None:
        self.score_weights = np.asarray(state["score_weights"], dtype=np.float64)
        self.split_weights = np.asarray(state["split_weights"], dtype=np.float64)

    def clone(self) -> "CarDetector":
        copy = CarDetector(self.config)
        copy.load_state_dict(self.state_dict())
        copy.trained_iterations = self.trained_iterations
        return copy


__all__ = ["CarDetector", "DetectorConfig", "Detection", "find_proposals", "split_box"]
