"""Formatting helpers: render experiment results the way the paper's tables do."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple


@dataclass
class TableRow:
    """One row of a results table: a label plus column values."""

    label: str
    values: Dict[str, float]


def mean_and_spread(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and (population) standard deviation of a sequence."""
    if not values:
        return (0.0, 0.0)
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return mean, math.sqrt(variance)


def format_percentage(value: float, spread: Optional[float] = None) -> str:
    if spread is None:
        return f"{100 * value:.1f}"
    return f"{100 * value:.1f} ± {100 * spread:.1f}"


def format_table(title: str, columns: Sequence[str], rows: Iterable[TableRow]) -> str:
    """A fixed-width text table in the style of the paper's result tables."""
    rows = list(rows)
    label_width = max([len(row.label) for row in rows] + [len(title), 8])
    column_width = max([len(column) for column in columns] + [10])
    header = title.ljust(label_width) + " | " + " | ".join(column.rjust(column_width) for column in columns)
    divider = "-" * len(header)
    lines = [header, divider]
    for row in rows:
        cells = []
        for column in columns:
            value = row.values.get(column)
            if value is None:
                cells.append("-".rjust(column_width))
            elif isinstance(value, str):
                cells.append(value.rjust(column_width))
            else:
                cells.append(f"{value:.1f}".rjust(column_width))
        lines.append(row.label.ljust(label_width) + " | " + " | ".join(cells))
    return "\n".join(lines)


def metrics_row(label: str, metrics, prefix: str = "") -> TableRow:
    """A row built from a :class:`DetectionMetrics` (values as percentages)."""
    return TableRow(
        label,
        {
            f"{prefix}Precision": 100 * metrics.precision,
            f"{prefix}Recall": 100 * metrics.recall,
        },
    )


__all__ = ["TableRow", "mean_and_spread", "format_percentage", "format_table", "metrics_row"]
