"""Static analysis of Scenic programs (Sec. 5.2's requirement analysis).

The package has three layers:

* :mod:`repro.analysis.intervals` — real and circular (heading) interval
  arithmetic, safe across the ±π branch cut;
* :mod:`repro.analysis.bounds` — the :class:`PruneBounds` artifact cached
  alongside compiled scenarios;
* :mod:`repro.analysis.analyzer` — ``analyze_program``, the AST walk that
  derives the bounds.

``analyze_program`` is re-exported lazily: :mod:`repro.core.pruning`
imports the light-weight interval/bounds layers at module import time,
while the analyzer (which reaches into the language and world layers) only
loads when analysis actually runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bounds import HeadingConstraint, ObjectBounds, PruneBounds
from .intervals import CircularInterval, Interval

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import analyze_program

__all__ = [
    "CircularInterval",
    "HeadingConstraint",
    "Interval",
    "ObjectBounds",
    "PruneBounds",
    "analyze_program",
]


def __getattr__(name: str):
    if name == "analyze_program":
        from .analyzer import analyze_program

        return analyze_program
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
