"""Aggregated diagnostics for the sampling engine.

``GenerationStats`` (defined in :mod:`repro.core.scenario`) describes a
single scene draw.  The engine produces many scenes, possibly via different
strategies, so :class:`AggregateStats` rolls per-scene stats up into totals,
per-strategy breakdowns and acceptance rates.  Totals are accumulated as
running sums, so a long-lived engine stays O(1) in memory; each draw's own
stats stay with its caller (``SamplerEngine.last_stats``).  :class:`SceneBatch`
is the result type of batched sampling: it *is* a list of scenes (so
existing callers of ``Scenario.generate_batch`` keep working) but carries
the aggregated statistics of the whole batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.scenario import GenerationStats

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scene import Scene


_COUNTER_FIELDS = (
    "iterations",
    "rejections_containment",
    "rejections_collision",
    "rejections_visibility",
    "rejections_user",
    "rejections_sampling",
)


def merge_generation_stats(into: GenerationStats, other: GenerationStats) -> GenerationStats:
    """Add *other*'s counters (and elapsed time) into *into*, returning it."""
    for name in _COUNTER_FIELDS:
        setattr(into, name, getattr(into, name) + getattr(other, name, 0))
    into.elapsed_seconds += other.elapsed_seconds
    return into


class AggregateStats:
    """Roll-up of per-scene :class:`GenerationStats` across a sampling run.

    Totals (:meth:`combined`, :meth:`by_strategy`, the ``total_*``
    properties) are exact over every recorded draw.
    """

    def __init__(self) -> None:
        self.scenes = 0  # accepted scenes only
        self.draws = 0  # every recorded draw, including failed ones
        self._combined = GenerationStats()
        self._by_strategy: Dict[str, GenerationStats] = {}

    def record(
        self, stats: GenerationStats, strategy: str = "rejection", accepted: bool = True
    ) -> None:
        """Fold one draw's stats in; *accepted* is False for a failed draw."""
        self.draws += 1
        if accepted:
            self.scenes += 1
        merge_generation_stats(self._combined, stats)
        merge_generation_stats(self._by_strategy.setdefault(strategy, GenerationStats()), stats)

    def merge_from(self, other: "AggregateStats") -> None:
        """Fold another roll-up (e.g. one batch's stats) into this one."""
        self.scenes += other.scenes
        self.draws += other.draws
        merge_generation_stats(self._combined, other._combined)
        for strategy, stats in other._by_strategy.items():
            merge_generation_stats(
                self._by_strategy.setdefault(strategy, GenerationStats()), stats
            )

    # -- roll-ups ---------------------------------------------------------------

    def combined(self) -> GenerationStats:
        """All per-scene stats summed into a single :class:`GenerationStats`."""
        return merge_generation_stats(GenerationStats(), self._combined)

    def by_strategy(self) -> Dict[str, GenerationStats]:
        """Per-strategy roll-up (useful when strategies are mixed or compared)."""
        return {
            strategy: merge_generation_stats(GenerationStats(), stats)
            for strategy, stats in self._by_strategy.items()
        }

    @property
    def total_iterations(self) -> int:
        return self._combined.iterations

    @property
    def total_rejections(self) -> int:
        return self._combined.total_rejections

    @property
    def elapsed_seconds(self) -> float:
        return self._combined.elapsed_seconds

    @property
    def acceptance_rate(self) -> float:
        """Accepted scenes per candidate scene, over the whole run."""
        if self.total_iterations <= 0:
            return 0.0
        return self.scenes / self.total_iterations

    def rejection_breakdown(self) -> Dict[str, int]:
        """Total rejections by cause, e.g. ``{"containment": 12, ...}``."""
        return {
            "containment": self._combined.rejections_containment,
            "collision": self._combined.rejections_collision,
            "visibility": self._combined.rejections_visibility,
            "user": self._combined.rejections_user,
            "sampling": self._combined.rejections_sampling,
        }

    @property
    def total_candidates(self) -> int:
        """Candidates examined across the run: :attr:`total_iterations`."""
        return self._combined.iterations

    def to_shard_stats(self) -> Dict[str, object]:
        """This roll-up as the plain-data *shard stats* dict the service merges.

        This is the single owner of the worker → coordinator stats shape:
        service workers pickle exactly this dict home per shard, and
        :func:`repro.service.protocol.merge_shard_stats` folds many of them
        into one request-wide dict.  ``candidates`` is
        :attr:`total_candidates`.
        """
        combined = self.combined()
        return {
            "scenes": self.scenes,
            "draws": self.draws,
            "iterations": combined.iterations,
            "candidates": self.total_candidates,
            "sampling_seconds": combined.elapsed_seconds,
            "rejections": self.rejection_breakdown(),
        }

    def as_eval_metrics(self) -> Dict[str, object]:
        """This roll-up as the flat metric dict the quality-eval harness scores.

        Single owner of the per-(scenario, strategy) metric shape consumed
        by :mod:`repro.evals.scoring` and published in the committed
        ``results/EVALS.json`` scorecard: accepted scenes, draws,
        candidate iterations and candidates, acceptance rate, sampling wall
        time and the rejection breakdown.
        """
        return {
            "scenes": self.scenes,
            "draws": self.draws,
            "iterations": self.total_iterations,
            "candidates": self.total_candidates,
            "acceptance_rate": self.acceptance_rate,
            "sampling_seconds": self.elapsed_seconds,
            "rejections": self.rejection_breakdown(),
        }

    def __repr__(self) -> str:
        return (
            f"AggregateStats({self.scenes} scenes, {self.total_iterations} iterations, "
            f"acceptance={self.acceptance_rate:.3f})"
        )


class SceneBatch(list):
    """A list of scenes plus the aggregated statistics of generating them.

    Subclassing ``list`` keeps every existing consumer of
    ``Scenario.generate_batch`` (which returned a plain ``List[Scene]``)
    working unchanged while exposing :attr:`stats` on the result.
    """

    def __init__(self, scenes: List["Scene"], stats: AggregateStats):
        super().__init__(scenes)
        self.stats = stats


__all__ = ["AggregateStats", "SceneBatch", "merge_generation_stats"]
