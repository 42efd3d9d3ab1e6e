"""The ``PruneBounds`` artifact: what static analysis hands to the pruner.

``PruneBounds`` is plain data — it is computed once per compiled program
(by :mod:`repro.analysis.analyzer`), cached on the
:class:`~repro.language.CompiledScenario` artifact, and consumed by
:func:`repro.core.pruning.prune_scenario` to run the orientation (Alg. 2)
and size (Alg. 3) pruning techniques without any caller-supplied bounds.

Every bound is *sound by construction*: it over-approximates the set of
object configurations the program's hard requirements admit, so pruning
with it can only remove sample-space volume that could never appear in a
valid scene.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

@dataclass(frozen=True)
class HeadingConstraint:
    """A relative-heading constraint between two field-aligned objects.

    The allowed arc is ``heading(partner) - heading(self) ∈ center ±
    half_width`` (a circular interval — it may straddle ±π), valid whenever
    the two objects are within ``max_distance`` metres (``M`` in Alg. 2).
    ``deviation`` is the *total* heading slack: the sum of both objects'
    bounds on how far their actual heading may deviate from the field
    direction at their position (δ_self + δ_partner).  ``half_width < 0``
    encodes a statically *empty* constraint: the program's hard requirements
    admit no relative heading at all, so the scenario is infeasible.
    """

    partner: int
    center: float
    half_width: float
    max_distance: float
    deviation: float = 0.0
    source: str = ""

    @property
    def is_empty(self) -> bool:
        return self.half_width < 0.0


@dataclass(frozen=True)
class ObjectBounds:
    """Static pruning facts about one scenario object (by scenario index)."""

    index: int
    class_name: str = ""
    #: Lower bound on the object's centre-to-edge distance (containment
    #: pruning erodes containers by this much).  0 = unknown.
    min_radius: float = 0.0
    #: Tightest distance bound to any anchored partner (diagnostics; the
    #: per-constraint ``max_distance`` is what the algorithms consume).
    max_distance: Optional[float] = None
    heading_constraints: Tuple[HeadingConstraint, ...] = ()
    #: Algorithm 3 inputs: cells narrower than ``min_configuration_width``
    #: can only host this object within ``narrowness_distance`` of another
    #: cell.  ``None`` disables size pruning for the object.
    min_configuration_width: Optional[float] = None
    narrowness_distance: Optional[float] = None


@dataclass(frozen=True)
class PruneBounds:
    """Per-object pruning bounds derived by static requirement analysis."""

    objects: Tuple[ObjectBounds, ...] = ()
    #: Whether the AST→object-index mapping was verified against the
    #: artifact metadata.  When ``False``, ``objects`` is empty and pruning
    #: falls back to containment-only behaviour.
    mapped: bool = False
    #: Human-readable analysis log (what fired, what was skipped and why).
    notes: Tuple[str, ...] = ()

    def for_object(self, index: int) -> Optional[ObjectBounds]:
        for entry in self.objects:
            if entry.index == index:
                return entry
        return None

    @property
    def has_orientation_constraints(self) -> bool:
        return any(entry.heading_constraints for entry in self.objects)

    def containment_only(self) -> "PruneBounds":
        """A copy with every orientation/size bound stripped.

        This is the benchmark baseline: containment pruning (min-fit radii)
        still applies, but Algorithms 2 and 3 are disabled.
        """
        return replace(
            self,
            objects=tuple(
                replace(
                    entry,
                    heading_constraints=(),
                    min_configuration_width=None,
                    narrowness_distance=None,
                )
                for entry in self.objects
            ),
            notes=self.notes + ("containment-only copy",),
        )

    def summary(self) -> Dict[str, int]:
        return {
            "objects": len(self.objects),
            "heading_constraints": sum(
                len(entry.heading_constraints) for entry in self.objects
            ),
            "with_min_radius": sum(1 for entry in self.objects if entry.min_radius > 0),
            "with_size_bounds": sum(
                1 for entry in self.objects if entry.min_configuration_width is not None
            ),
        }


__all__ = [
    "HeadingConstraint",
    "ObjectBounds",
    "PruneBounds",
]
