"""Datasets, training loops and evaluation for the detection pipeline."""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.scenario import Scenario
from .detector import CarDetector, DetectorConfig
from .metrics import (
    DetectionMetrics,
    average_precision_from_images,
    precision_recall,
)
from .renderer import LabeledImage, RendererConfig, render_scene


@dataclass
class Dataset:
    """A named collection of labelled images (a training or test set)."""

    name: str
    images: List[LabeledImage] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)

    def subset(self, count: int, rng: Optional[_random.Random] = None, name: Optional[str] = None) -> "Dataset":
        """A random subset of *count* images (without replacement)."""
        rng = rng if rng is not None else _random.Random(0)
        chosen = rng.sample(self.images, min(count, len(self.images)))
        return Dataset(name or f"{self.name}[{count}]", list(chosen))

    def mixed_with(
        self,
        other: "Dataset",
        fraction_other: float,
        rng: Optional[_random.Random] = None,
        name: Optional[str] = None,
    ) -> "Dataset":
        """Replace a random *fraction_other* of this set with images from *other*.

        Keeps the total size constant, which is how the paper's mixture
        experiments (Tables 6 and 10) are constructed.
        """
        rng = rng if rng is not None else _random.Random(0)
        total = len(self.images)
        replace_count = int(round(total * fraction_other))
        keep_count = total - replace_count
        kept = rng.sample(self.images, keep_count)
        added = [
            other.images[rng.randrange(len(other.images))] for _ in range(replace_count)
        ] if other.images else []
        mixture_name = name or f"{100 - int(100 * fraction_other)}/{int(100 * fraction_other)}"
        return Dataset(mixture_name, kept + added)

    @staticmethod
    def from_scenario(
        scenario: Scenario,
        count: int,
        name: str,
        seed: int = 0,
        renderer: Optional[RendererConfig] = None,
        max_iterations: int = 4000,
        strategy: str = "rejection",
    ) -> "Dataset":
        """Sample *count* scenes from *scenario* and render them.

        Scene generation goes through one :class:`repro.sampling.SamplerEngine`,
        whose aggregate statistics cover the whole dataset.
        """
        from ..sampling import SamplerEngine

        engine = SamplerEngine(scenario, strategy=strategy)
        rng = _random.Random(seed)
        images: List[LabeledImage] = []
        for _ in range(count):
            scene = engine.sample(max_iterations=max_iterations, rng=rng)
            images.append(render_scene(scene, renderer, rng))
        return Dataset(name, images)


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run (mirrors the paper's Sec. 6.1 setup)."""

    iterations: int = 400
    batch_size: int = 20
    seed: int = 0
    detector: DetectorConfig = field(default_factory=DetectorConfig)


def train_detector(dataset: Dataset, config: Optional[TrainingConfig] = None) -> CarDetector:
    """Train a fresh detector on *dataset*."""
    config = config if config is not None else TrainingConfig()
    detector = CarDetector(config.detector, seed=config.seed)
    detector.train(
        dataset.images,
        iterations=config.iterations,
        batch_size=config.batch_size,
        seed=config.seed,
    )
    return detector


def evaluate_detector(detector: CarDetector, dataset: Dataset) -> DetectionMetrics:
    """Precision/recall of *detector* on *dataset* (Sec. 6.1 metrics)."""
    pairs = []
    for image in dataset.images:
        predicted = detector.predict_boxes(image)
        truth = [gt.box for gt in image.boxes]
        pairs.append((predicted, truth))
    return precision_recall(pairs)


def evaluate_average_precision(detector: CarDetector, dataset: Dataset) -> float:
    """AP of *detector* on *dataset* (the metric of Table 9)."""
    per_image = []
    for image in dataset.images:
        scored = [(detection.score, detection.box) for detection in detector.predict(image)]
        truth = [gt.box for gt in image.boxes]
        per_image.append((scored, truth))
    return average_precision_from_images(per_image)


def train_and_evaluate(
    training_set: Dataset,
    test_sets: Sequence[Dataset],
    config: Optional[TrainingConfig] = None,
) -> Tuple[CarDetector, List[DetectionMetrics]]:
    """Convenience wrapper used by the experiment harnesses."""
    detector = train_detector(training_set, config)
    return detector, [evaluate_detector(detector, test_set) for test_set in test_sets]


def averaged_runs(
    run: "callable",
    repetitions: int = 3,
) -> List[List[DetectionMetrics]]:
    """Run a training/evaluation function several times (with different seeds).

    The paper averages over 8 training runs with different random mixtures;
    the experiment harnesses use a smaller default to stay laptop-friendly
    while still reporting mean ± spread.
    """
    return [run(seed) for seed in range(repetitions)]


__all__ = [
    "Dataset",
    "TrainingConfig",
    "train_detector",
    "evaluate_detector",
    "evaluate_average_precision",
    "train_and_evaluate",
    "averaged_runs",
]
