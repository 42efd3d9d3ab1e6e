"""Sec. 6.4 — debugging a failure (Table 7) and retraining (Table 8).

Starting from a single scene the model handles badly, the paper writes nine
scenarios that vary different aspects of the scene (model/colour, background,
local position, distance, view angle) and measures the model on 150 images
from each, identifying which features matter.  It then retrains the model,
replacing 10 % of the generic training set with images of cars close to the
camera (or close and at a shallow angle), and compares against classical
image augmentation of the single failure image.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, Optional

from ..perception.augmentation import augment_dataset
from ..perception.detector import CarDetector
from ..perception.metrics import DetectionMetrics
from ..perception.training import Dataset, TrainingConfig, evaluate_detector, train_detector
from . import scenarios
from .conditions import build_generic_training_set
from .reporting import TableRow, format_table


# ---------------------------------------------------------------------------
# Table 7: variant scenarios around the misclassified scene
# ---------------------------------------------------------------------------


@dataclass
class VariantAnalysisResult:
    """Per-variant-scenario metrics of an already-trained model."""

    metrics: Dict[str, DetectionMetrics]
    images_per_variant: int

    def to_table(self) -> str:
        rows = [
            TableRow(name, {"Precision": 100 * metric.precision, "Recall": 100 * metric.recall})
            for name, metric in self.metrics.items()
        ]
        return format_table("Scenario", ["Precision", "Recall"], rows)


def run_variant_analysis(
    detector: Optional[CarDetector] = None,
    scale: float = 0.1,
    seed: int = 0,
    training_config: Optional[TrainingConfig] = None,
) -> VariantAnalysisResult:
    """Evaluate a detector on the nine Table 7 variant scenarios.

    If *detector* is ``None``, a model is first trained on a (scaled-down)
    generic training set, mirroring M_generic in the paper.
    """
    if detector is None:
        training_set = build_generic_training_set(max(10, int(round(1000 * scale))), seed=seed)
        detector = train_detector(training_set, training_config)
    images_per_variant = max(5, int(round(150 * scale)))
    metrics: Dict[str, DetectionMetrics] = {}
    for name, source in scenarios.debugging_variants().items():
        scenario = scenarios.compile_scenario(source)
        dataset = Dataset.from_scenario(scenario, images_per_variant, name, seed=seed + hash(name) % 1000)
        metrics[name] = evaluate_detector(detector, dataset)
    return VariantAnalysisResult(metrics=metrics, images_per_variant=images_per_variant)


# ---------------------------------------------------------------------------
# Table 8: retraining with replacement data
# ---------------------------------------------------------------------------


@dataclass
class RetrainingResult:
    """Metrics on T_generic after retraining with different replacement data."""

    metrics: Dict[str, DetectionMetrics]
    replaced_fraction: float
    training_images: int

    def to_table(self) -> str:
        rows = [
            TableRow(name, {"Precision": 100 * metric.precision, "Recall": 100 * metric.recall})
            for name, metric in self.metrics.items()
        ]
        return format_table("Replacement data", ["Precision", "Recall"], rows)


def run_retraining_experiment(
    scale: float = 0.05,
    replaced_fraction: float = 0.10,
    seed: int = 0,
    training_config: Optional[TrainingConfig] = None,
) -> RetrainingResult:
    """Run the Table 8 experiment.

    Four training sets are compared, all of the same size: the original
    generic set, the generic set with 10 % replaced by classical
    augmentations of the failure image, by close-car images, and by
    close-car-at-shallow-angle images.  All models are evaluated on a
    generic test set.
    """
    rng = _random.Random(seed)
    train_per_count = max(10, int(round(1000 * scale)))
    test_per_count = max(5, int(round(100 * scale)))

    base_training = build_generic_training_set(train_per_count, seed=seed)
    generic_test_scenario = scenarios.compile_scenario(scenarios.generic_cars(1))
    test_images = []
    for car_count in range(1, 5):
        scenario = scenarios.compile_scenario(scenarios.generic_cars(car_count))
        test_images.extend(
            Dataset.from_scenario(scenario, test_per_count, f"T_generic-{car_count}", seed=seed + 50 + car_count).images
        )
    t_generic = Dataset("T_generic", test_images)

    replacement_count = int(round(len(base_training) * replaced_fraction))

    # Replacement pools.
    failure_scenario = scenarios.compile_scenario(scenarios.original_failure())
    failure_image = Dataset.from_scenario(failure_scenario, 1, "failure", seed=seed).images[0]
    classical_pool = augment_dataset(failure_image, max(replacement_count, 1), seed=seed)
    close_pool = Dataset.from_scenario(
        scenarios.compile_scenario(scenarios.close_car()), max(replacement_count, 1), "close", seed=seed + 60
    )
    shallow_pool = Dataset.from_scenario(
        scenarios.compile_scenario(scenarios.close_car_shallow_angle()),
        max(replacement_count, 1),
        "close-shallow",
        seed=seed + 61,
    )

    def replaced_with(pool: Dataset, name: str) -> Dataset:
        fraction = replacement_count / max(1, len(base_training))
        return base_training.mixed_with(pool, fraction, _random.Random(seed + 7), name=name)

    training_sets = {
        "Original (no replacement)": base_training,
        "Classical augmentation": replaced_with(classical_pool, "classical"),
        "Close car": replaced_with(close_pool, "close-car"),
        "Close car at shallow angle": replaced_with(shallow_pool, "close-shallow"),
    }

    metrics: Dict[str, DetectionMetrics] = {}
    for name, training_set in training_sets.items():
        config = training_config if training_config is not None else TrainingConfig(seed=seed)
        detector = train_detector(training_set, config)
        metrics[name] = evaluate_detector(detector, t_generic)
    return RetrainingResult(metrics=metrics, replaced_fraction=replaced_fraction, training_images=len(base_training))


#: Table 7 as reported in the paper (percent).
PAPER_TABLE7 = {
    "(1) varying model and color": {"precision": 80.3, "recall": 100.0},
    "(2) varying background": {"precision": 50.5, "recall": 99.3},
    "(3) varying local position, orientation": {"precision": 62.8, "recall": 100.0},
    "(4) varying position but staying close": {"precision": 53.1, "recall": 99.3},
    "(5) any position, same apparent angle": {"precision": 58.9, "recall": 98.6},
    "(6) any position and angle": {"precision": 67.5, "recall": 100.0},
    "(7) varying background, model, color": {"precision": 61.3, "recall": 100.0},
    "(8) staying close, same apparent angle": {"precision": 52.4, "recall": 100.0},
    "(9) staying close, varying model": {"precision": 58.6, "recall": 100.0},
}

#: Table 8 as reported in the paper (percent).
PAPER_TABLE8 = {
    "Original (no replacement)": {"precision": 82.9, "recall": 92.7},
    "Classical augmentation": {"precision": 78.7, "recall": 92.1},
    "Close car": {"precision": 87.4, "recall": 91.6},
    "Close car at shallow angle": {"precision": 84.0, "recall": 92.1},
}


__all__ = [
    "VariantAnalysisResult",
    "run_variant_analysis",
    "RetrainingResult",
    "run_retraining_experiment",
    "PAPER_TABLE7",
    "PAPER_TABLE8",
]
