"""Sec. 6.3 — training on rare events (Table 6 and Table 9).

The paper trains squeezeDet on 5 000 'Driving in the Matrix' images, finds
that precision on a Scenic-generated overlapping-cars test set is much lower
than on the Matrix test set, then replaces a random 5 % of the training set
with Scenic-generated overlapping images.  Precision on the overlapping test
set improves markedly while performance on the original test set is
unchanged (Table 6); the same holds under the AP metric (Table 9).

This harness reproduces the full pipeline against the synthetic substrate:
a matrix-like baseline training set, an overlap training set generated from
the Fig. 8 scenario, mixtures at a configurable replacement fraction, and
evaluation on both test sets, averaged over several random mixtures.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..perception.training import (
    Dataset,
    TrainingConfig,
    evaluate_average_precision,
    evaluate_detector,
    train_detector,
)
from . import scenarios
from .reporting import TableRow, format_table, mean_and_spread


@dataclass
class MixtureOutcome:
    """Metrics of one mixture ratio, averaged over training runs."""

    mixture_label: str
    matrix_precision: Tuple[float, float]
    matrix_recall: Tuple[float, float]
    overlap_precision: Tuple[float, float]
    overlap_recall: Tuple[float, float]
    matrix_ap: Tuple[float, float] = (0.0, 0.0)
    overlap_ap: Tuple[float, float] = (0.0, 0.0)


@dataclass
class RareEventsResult:
    """Outcome of the Table 6 / Table 9 experiment."""

    outcomes: List[MixtureOutcome]
    training_images: int
    runs: int

    def to_table(self) -> str:
        rows = []
        for outcome in self.outcomes:
            rows.append(
                TableRow(
                    outcome.mixture_label,
                    {
                        "T_matrix Prec": 100 * outcome.matrix_precision[0],
                        "T_matrix Rec": 100 * outcome.matrix_recall[0],
                        "T_overlap Prec": 100 * outcome.overlap_precision[0],
                        "T_overlap Rec": 100 * outcome.overlap_recall[0],
                    },
                )
            )
        return format_table(
            "Mixture", ["T_matrix Prec", "T_matrix Rec", "T_overlap Prec", "T_overlap Rec"], rows
        )

    def to_ap_table(self) -> str:
        rows = [
            TableRow(
                outcome.mixture_label,
                {"T_matrix AP": 100 * outcome.matrix_ap[0], "T_overlap AP": 100 * outcome.overlap_ap[0]},
            )
            for outcome in self.outcomes
        ]
        return format_table("Mixture", ["T_matrix AP", "T_overlap AP"], rows)


def build_datasets(scale: float, seed: int = 0, strategy: str = "rejection") -> Dict[str, Dataset]:
    """The four datasets of the experiment (training and test, matrix and overlap).

    *strategy* selects the :mod:`repro.sampling` strategy used to draw every
    scene; the default reproduces the historical rejection-sampling datasets
    draw-for-draw.
    """
    matrix_train_count = max(20, int(round(5000 * scale)))
    overlap_train_count = max(10, int(round(250 * scale * 4)))  # enough to draw mixtures from
    test_count = max(10, int(round(200 * scale * 2)))

    matrix_scenario = scenarios.compile_scenario(scenarios.matrix_like())
    overlap_scenario = scenarios.compile_scenario(scenarios.overlapping_cars())

    return {
        "X_matrix": Dataset.from_scenario(
            matrix_scenario, matrix_train_count, "X_matrix", seed=seed, strategy=strategy
        ),
        "X_overlap": Dataset.from_scenario(
            overlap_scenario, overlap_train_count, "X_overlap", seed=seed + 1, strategy=strategy
        ),
        "T_matrix": Dataset.from_scenario(
            matrix_scenario, test_count, "T_matrix", seed=seed + 2, strategy=strategy
        ),
        "T_overlap": Dataset.from_scenario(
            overlap_scenario, test_count, "T_overlap", seed=seed + 3, strategy=strategy
        ),
    }


def run_rare_events_experiment(
    scale: float = 0.02,
    replacement_fractions: Tuple[float, ...] = (0.0, 0.05),
    runs: int = 3,
    seed: int = 0,
    training_config: Optional[TrainingConfig] = None,
    compute_ap: bool = True,
    strategy: str = "rejection",
) -> RareEventsResult:
    """Run the Table 6 experiment (and Table 9 if ``compute_ap``).

    ``replacement_fractions`` lists how much of the matrix training set is
    replaced by overlap images: ``(0.0, 0.05)`` reproduces Table 6's two rows.
    """
    datasets = build_datasets(scale, seed, strategy=strategy)
    outcomes: List[MixtureOutcome] = []

    for fraction in replacement_fractions:
        matrix_precisions: List[float] = []
        matrix_recalls: List[float] = []
        overlap_precisions: List[float] = []
        overlap_recalls: List[float] = []
        matrix_aps: List[float] = []
        overlap_aps: List[float] = []
        for run in range(runs):
            rng = _random.Random(seed + 1000 * run + int(fraction * 100))
            if fraction > 0:
                training_set = datasets["X_matrix"].mixed_with(datasets["X_overlap"], fraction, rng)
            else:
                training_set = datasets["X_matrix"]
            config = training_config if training_config is not None else TrainingConfig(seed=run)
            detector = train_detector(training_set, config)
            matrix_metrics = evaluate_detector(detector, datasets["T_matrix"])
            overlap_metrics = evaluate_detector(detector, datasets["T_overlap"])
            matrix_precisions.append(matrix_metrics.precision)
            matrix_recalls.append(matrix_metrics.recall)
            overlap_precisions.append(overlap_metrics.precision)
            overlap_recalls.append(overlap_metrics.recall)
            if compute_ap:
                matrix_aps.append(evaluate_average_precision(detector, datasets["T_matrix"]))
                overlap_aps.append(evaluate_average_precision(detector, datasets["T_overlap"]))
        label = f"{100 - int(100 * fraction)} / {int(100 * fraction)}"
        outcomes.append(
            MixtureOutcome(
                mixture_label=label,
                matrix_precision=mean_and_spread(matrix_precisions),
                matrix_recall=mean_and_spread(matrix_recalls),
                overlap_precision=mean_and_spread(overlap_precisions),
                overlap_recall=mean_and_spread(overlap_recalls),
                matrix_ap=mean_and_spread(matrix_aps),
                overlap_ap=mean_and_spread(overlap_aps),
            )
        )
    return RareEventsResult(outcomes=outcomes, training_images=len(datasets["X_matrix"]), runs=runs)


#: Table 6 as reported in the paper (percent).
PAPER_TABLE6 = {
    "100 / 0": {"matrix_precision": 72.9, "matrix_recall": 37.1, "overlap_precision": 62.8, "overlap_recall": 65.7},
    "95 / 5": {"matrix_precision": 73.1, "matrix_recall": 37.0, "overlap_precision": 68.9, "overlap_recall": 67.3},
}

#: Table 9 (AP metric) as reported in the paper.
PAPER_TABLE9 = {
    "100 / 0": {"matrix_ap": 36.1, "overlap_ap": 61.7},
    "95 / 5": {"matrix_ap": 36.0, "overlap_ap": 65.8},
}


__all__ = [
    "MixtureOutcome",
    "RareEventsResult",
    "build_datasets",
    "run_rare_events_experiment",
    "PAPER_TABLE6",
    "PAPER_TABLE9",
]
