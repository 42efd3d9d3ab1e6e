"""Planted-regression selfcheck: prove the gate can actually catch a bias.

A regression gate that has never fired is untested infrastructure.  The
selfcheck plants a known distributional bug — :class:`BiasedStrategy`
draws :data:`BIAS_PICKS` accepted scenes per request and keeps the one
whose first object sits furthest in +x, a classic max-selection bias that
shifts the ``object0.x`` marginal far beyond any numeric tolerance — and
runs the *same* comparison CI runs:

1. score a small scenario slice honestly → ``evals check`` against those
   very results must pass (the bands absorb zero drift);
2. score the same slice with the biased sampler smuggled in under the real
   strategy name (via :func:`score_scenario`'s ``strategy_factory`` hook)
   → ``evals check`` must *fail*, flagging the coverage max-TV band and
   the inflated candidates-drawn count.

``python -m repro.evals selfcheck`` exits non-zero unless both halves hold;
``tests/test_evals_metrics.py`` runs the same routine in-process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.scenario import GenerationStats
from ..sampling.stats import merge_generation_stats
from ..sampling.strategies import SamplingStrategy, make_strategy
from .check import DEFAULT_TOLERANCES, Tolerances, compare_scorecards
from .metrics import scene_features

#: Accepted scenes drawn per request by the biased sampler; 3 picks shift
#: the object0.x marginal by roughly half its spread (TV ≈ 0.4 against a
#: 0.12 band) and triple the candidates drawn (against a 1.25x band).
BIAS_PICKS = 3

#: The marginal the planted bug skews.
BIAS_PROPERTY = "object0.x"


class BiasedStrategy(SamplingStrategy):
    """A deliberately wrong sampler: max-of-N selection on one marginal.

    Wraps a real strategy and, per draw, takes *picks* accepted scenes and
    keeps the one maximizing *prop* — the kind of subtle
    acceptance-ordering bug the coverage metrics exist to catch.  Presents
    the inner strategy's registry name so scorecard records line up.
    """

    def __init__(
        self,
        inner: SamplingStrategy,
        picks: int = BIAS_PICKS,
        prop: str = BIAS_PROPERTY,
    ) -> None:
        self._inner = inner
        self._picks = picks
        self._prop = prop
        self.name = inner.name

    def bind(self, scenario) -> None:
        self._inner.bind(scenario)

    def sample(self, scenario, max_iterations, rng):
        merged = GenerationStats()
        best: Optional[Tuple[float, Any]] = None
        for _ in range(self._picks):
            scene, stats = self._inner.sample(scenario, max_iterations, rng)
            merge_generation_stats(merged, stats)
            if scene is None:
                return None, merged
            key = scene_features(scene).get(self._prop, 0.0)
            if best is None or key > best[0]:
                best = (key, scene)
        assert best is not None
        return best[1], merged


def biased_factory(
    picks: int = BIAS_PICKS,
    prop: str = BIAS_PROPERTY,
    only: Optional[Sequence[str]] = None,
) -> Callable[[str], SamplingStrategy]:
    """A ``strategy_factory`` for :func:`score_scenario` planting the bias.

    With *only*, just those strategy names are biased and the rest run
    honestly — the selfcheck uses this to keep the rejection reference
    clean, so the bias shows up as coverage drift instead of cancelling
    out of both sides of the comparison.
    """

    def factory(strategy: str) -> SamplingStrategy:
        inner = make_strategy(strategy)
        if only is not None and strategy not in only:
            return inner
        return BiasedStrategy(inner, picks=picks, prop=prop)

    return factory


def run_selfcheck(
    scenario_ids: Optional[Sequence[str]] = None,
    *,
    seed: int = 4242,
    samples: int = 40,
    max_iterations: int = 3000,
    strategies: Sequence[str] = ("vectorized",),
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run both halves of the planted-regression selfcheck.

    Returns ``{"passed": bool, "honest_problems": [...], "biased_problems":
    [...]}`` — passing means the honest re-run is clean *and* the biased
    run is flagged.
    """
    from .corpus import Manifest
    from .scorecard import build_scorecard

    manifest = Manifest.load()
    if scenario_ids is None:
        entries = [
            entry
            for entry in manifest
            if entry.difficulty == "easy" and entry.objects >= 2
        ][:3]
    else:
        wanted = set(scenario_ids)
        entries = [entry for entry in manifest if entry.id in wanted]
    if not entries:
        raise ValueError("selfcheck found no eligible corpus scenarios")

    def card(factory: Optional[Callable[[str], Any]] = None) -> Dict[str, Any]:
        return build_scorecard(
            manifest,
            entries,
            seed=seed,
            samples=samples,
            max_iterations=max_iterations,
            strategies=strategies,
            strategy_factory=factory,
            progress=progress,
        )

    if progress is not None:
        progress(f"selfcheck slice: {', '.join(entry.id for entry in entries)}")
    baseline = card()
    honest_problems = compare_scorecards(card(), baseline, tolerances)
    biased_problems = compare_scorecards(
        card(biased_factory(only=list(strategies))), baseline, tolerances
    )

    return {
        "passed": not honest_problems and bool(biased_problems),
        "scenarios": [entry.id for entry in entries],
        "honest_problems": honest_problems,
        "biased_problems": biased_problems,
    }


__all__ = [
    "BIAS_PICKS",
    "BIAS_PROPERTY",
    "BiasedStrategy",
    "biased_factory",
    "run_selfcheck",
]
