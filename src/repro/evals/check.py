"""Baseline-relative regression gating: ``python -m repro.evals check``.

``check`` re-scores the stratified CI slice of the corpus with the exact
parameters recorded in the committed scorecard (seed, samples, iteration
budget, strategy set) and compares every deterministic metric against the
baseline within per-metric tolerance bands:

===================  =========================================================
metric               band (see :class:`Tolerances`)
===================  =========================================================
status               must not get *worse* (ok → exhausted/error fails; an
                     entry that was already exhausted/error may stay so)
acceptance rate      ``|cur - base| <= max(abs, rel * base)``
candidates drawn     ``cur <= base * factor + slack`` (more candidates for
                     the same scenes = the strategy's acceptance regressed)
coverage max-TV      ``cur <= base + margin`` (distributional drift away
                     from rejection ground truth)
pruning area ratio   ``|cur - base| <= abs`` (the static analyzer weakened
                     or over-pruned)
scenes               ``cur >= ceil(base * scene_fraction)``
wall time            never gated (informational only)
===================  =========================================================

Every metric except wall time is a pure function of the recorded seed, so
on the machine that produced the baseline the comparison is exact; the
bands only absorb cross-platform float wiggle — and are calibrated so the
planted-regression selfcheck (:mod:`repro.evals.selfcheck`), which biases a
sampler far beyond any numeric wiggle, demonstrably fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Tolerances:
    """Per-metric tolerance bands for :func:`compare_scorecards`."""

    acceptance_abs: float = 0.02
    acceptance_rel: float = 0.15
    candidates_factor: float = 1.25
    candidates_slack: int = 25
    coverage_tv_margin: float = 0.12
    area_ratio_abs: float = 0.02
    scene_fraction: float = 0.9


DEFAULT_TOLERANCES = Tolerances()

_STATUS_RANK = {"ok": 0, "budget_exhausted": 1}


def _status_rank(status: str) -> int:
    return _STATUS_RANK.get(status, 2)  # any error:* is worst


def compare_strategy_records(
    scenario_id: str,
    strategy: str,
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> List[str]:
    """Tolerance-band comparison of one (scenario, strategy) record."""
    problems: List[str] = []
    where = f"{scenario_id}/{strategy}"

    cur_status = str(current.get("status", "ok"))
    base_status = str(baseline.get("status", "ok"))
    if _status_rank(cur_status) > _status_rank(base_status):
        problems.append(f"{where}: status regressed {base_status} -> {cur_status}")
        return problems  # metric comparisons are meaningless past this

    base_rate = float(baseline.get("acceptance_rate", 0.0))
    cur_rate = float(current.get("acceptance_rate", 0.0))
    band = max(tolerances.acceptance_abs, tolerances.acceptance_rel * base_rate)
    if abs(cur_rate - base_rate) > band:
        problems.append(
            f"{where}: acceptance rate {cur_rate:.4f} outside ±{band:.4f} "
            f"of baseline {base_rate:.4f}"
        )

    base_candidates = int(baseline.get("candidates", 0))
    cur_candidates = int(current.get("candidates", 0))
    ceiling = base_candidates * tolerances.candidates_factor + tolerances.candidates_slack
    if cur_candidates > ceiling:
        problems.append(
            f"{where}: {cur_candidates} candidates drawn exceeds "
            f"{ceiling:.0f} (baseline {base_candidates} x "
            f"{tolerances.candidates_factor} + {tolerances.candidates_slack})"
        )

    base_scenes = int(baseline.get("scenes", 0))
    cur_scenes = int(current.get("scenes", 0))
    floor = math.ceil(base_scenes * tolerances.scene_fraction)
    if cur_scenes < floor:
        problems.append(
            f"{where}: only {cur_scenes} scenes vs baseline {base_scenes} "
            f"(floor {floor})"
        )

    base_coverage = baseline.get("coverage")
    cur_coverage = current.get("coverage")
    if base_coverage and cur_coverage:
        base_tv = float(base_coverage["max_tv"])
        cur_tv = float(cur_coverage["max_tv"])
        if cur_tv > base_tv + tolerances.coverage_tv_margin:
            problems.append(
                f"{where}: coverage max-TV {cur_tv:.3f} exceeds baseline "
                f"{base_tv:.3f} + {tolerances.coverage_tv_margin}"
            )
    elif base_coverage and not cur_coverage:
        problems.append(f"{where}: coverage was measured in the baseline but not now")
    return problems


def compare_scorecards(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    scenario_ids: Optional[Sequence[str]] = None,
) -> List[str]:
    """All tolerance-band violations of *current* against *baseline*.

    Compares every scenario present in *current* (or just *scenario_ids*);
    scenarios only in the baseline are ignored — the CI slice is a subset
    of the full committed run by design.  A scenario in *current* that the
    baseline has never scored is an error (the manifest and scorecard must
    move together).
    """
    problems: List[str] = []
    for key in ("seed", "samples", "max_iterations", "reference"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"parameter mismatch: {key} = {current.get(key)!r} here but "
                f"{baseline.get(key)!r} in the baseline (rerun with the "
                f"baseline's parameters)"
            )
    wanted = set(scenario_ids) if scenario_ids is not None else None
    for scenario_id, result in sorted(current.get("scenarios", {}).items()):
        if wanted is not None and scenario_id not in wanted:
            continue
        base_result = baseline.get("scenarios", {}).get(scenario_id)
        if base_result is None:
            problems.append(
                f"{scenario_id}: not in the baseline scorecard (regenerate "
                f"the committed scorecard baseline after changing the corpus)"
            )
            continue
        pruning = result.get("pruning", {})
        base_pruning = base_result.get("pruning", {})
        if pruning.get("error") is None and base_pruning.get("error") is None:
            base_ratio = base_pruning.get("area_ratio")
            cur_ratio = pruning.get("area_ratio")
            if base_ratio is not None and cur_ratio is not None:
                if abs(float(cur_ratio) - float(base_ratio)) > tolerances.area_ratio_abs:
                    problems.append(
                        f"{scenario_id}: pruning area ratio {cur_ratio:.4f} vs "
                        f"baseline {base_ratio:.4f} (band ±{tolerances.area_ratio_abs})"
                    )
        elif pruning.get("error") and not base_pruning.get("error"):
            problems.append(
                f"{scenario_id}: pruning now fails ({pruning['error']}) but "
                f"succeeded in the baseline"
            )
        for strategy, record in sorted(result.get("strategies", {}).items()):
            base_record = base_result.get("strategies", {}).get(strategy)
            if base_record is None:
                problems.append(f"{scenario_id}/{strategy}: not in the baseline scorecard")
                continue
            problems.extend(
                compare_strategy_records(scenario_id, strategy, record, base_record, tolerances)
            )
    return problems


__all__ = ["DEFAULT_TOLERANCES", "Tolerances", "compare_scorecards", "compare_strategy_records"]
