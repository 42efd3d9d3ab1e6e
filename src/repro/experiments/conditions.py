"""Sec. 6.2 — testing the detector under different conditions.

The paper trains a model on 4 000 images from generic 1–4-car scenarios and
evaluates it on a generic test set, a good-conditions set (noon, sunny) and
a bad-conditions set (midnight, rain), finding precision of 83.1 / 85.7 /
72.8 % and recall of 92.6 / 94.3 / 92.8 %: the model is noticeably worse on
rainy nights.  This harness reproduces that pipeline end-to-end on the
synthetic substrate; the expected qualitative result is the same ordering
(bad-conditions precision clearly below the other two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..perception.metrics import DetectionMetrics
from ..perception.training import Dataset, TrainingConfig, evaluate_detector, train_detector
from . import scenarios
from .reporting import TableRow, format_table


@dataclass
class ConditionsResult:
    """Outcome of the different-conditions experiment."""

    metrics: Dict[str, DetectionMetrics]
    training_images: int
    test_images_per_set: int

    def to_table(self) -> str:
        rows = [
            TableRow(name, {"Precision": 100 * metric.precision, "Recall": 100 * metric.recall})
            for name, metric in self.metrics.items()
        ]
        return format_table("Test set", ["Precision", "Recall"], rows)


def build_generic_training_set(
    images_per_car_count: int,
    seed: int = 0,
    max_cars: int = 4,
    name: str = "X_generic",
) -> Dataset:
    """The generic training set: equal parts 1..max_cars-car scenarios."""
    images = []
    for car_count in range(1, max_cars + 1):
        scenario = scenarios.compile_scenario(scenarios.generic_cars(car_count))
        subset = Dataset.from_scenario(
            scenario, images_per_car_count, f"{name}-{car_count}", seed=seed + car_count
        )
        images.extend(subset.images)
    return Dataset(name, images)


def build_condition_test_sets(
    images_per_car_count: int,
    seed: int = 100,
    max_cars: int = 4,
) -> Dict[str, Dataset]:
    """Generic / good / bad test sets, images_per_car_count per car count each."""
    test_sets: Dict[str, Dataset] = {}
    for label, source_function in (
        ("T_generic", scenarios.generic_cars),
        ("T_good", scenarios.good_conditions),
        ("T_bad", scenarios.bad_conditions),
    ):
        images = []
        for car_count in range(1, max_cars + 1):
            scenario = scenarios.compile_scenario(source_function(car_count))
            subset = Dataset.from_scenario(
                scenario, images_per_car_count, f"{label}-{car_count}", seed=seed + car_count
            )
            images.extend(subset.images)
        test_sets[label] = Dataset(label, images)
    return test_sets


def run_conditions_experiment(
    scale: float = 0.05,
    seed: int = 0,
    training_config: Optional[TrainingConfig] = None,
) -> ConditionsResult:
    """Run the Sec. 6.2 experiment.

    ``scale=1.0`` corresponds to the paper's sizes (1 000 training images per
    car count, 50 test images per car count and condition); the default
    ``scale=0.05`` uses 5 % of that, which reruns in well under a minute.
    """
    train_per_count = max(5, int(round(1000 * scale)))
    test_per_count = max(3, int(round(50 * scale)))

    training_set = build_generic_training_set(train_per_count, seed=seed)
    test_sets = build_condition_test_sets(test_per_count, seed=seed + 1000)

    detector = train_detector(training_set, training_config)
    metrics = {name: evaluate_detector(detector, dataset) for name, dataset in test_sets.items()}
    return ConditionsResult(
        metrics=metrics,
        training_images=len(training_set),
        test_images_per_set=len(next(iter(test_sets.values()))),
    )


#: The numbers reported in the paper (percent), for EXPERIMENTS.md comparisons.
PAPER_RESULTS = {
    "T_generic": {"precision": 83.1, "recall": 92.6},
    "T_good": {"precision": 85.7, "recall": 94.3},
    "T_bad": {"precision": 72.8, "recall": 92.8},
}


__all__ = [
    "ConditionsResult",
    "build_generic_training_set",
    "build_condition_test_sets",
    "run_conditions_experiment",
    "PAPER_RESULTS",
]
