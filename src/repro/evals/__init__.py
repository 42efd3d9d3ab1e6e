"""Graded scenario corpus + engine quality-eval harness.

The evals subsystem turns "does the engine still work?" into a committed,
CI-gated number.  It has three moving parts:

* a **graded corpus** (``corpus/manifest.json``): every gallery scenario
  plus ~130 auto-promoted fuzzer programs, each tagged with world, feature
  list and a measured difficulty tier (:mod:`repro.evals.corpus`,
  :mod:`repro.evals.promote`);
* a **scoring pass** (:mod:`repro.evals.scoring`,
  :mod:`repro.evals.metrics`): fixed-seed acceptance/candidates/pruning
  metrics per (scenario, strategy), plus distributional coverage against a
  rejection ground-truth batch;
* a **scorecard + gate** (:mod:`repro.evals.scorecard`,
  :mod:`repro.evals.check`): the committed ``results/EVALS.json``
  baseline, its markdown rendering, and tolerance-band regression checks —
  validated end-to-end by the planted-regression selfcheck
  (:mod:`repro.evals.selfcheck`).

Command line (see ``docs/evals.md``)::

    python -m repro.evals promote            # grow/refresh the corpus
    python -m repro.evals run                # full scoring pass -> results/
    python -m repro.evals check              # CI slice vs committed baseline
    python -m repro.evals selfcheck          # prove the gate catches a bias
"""

from .check import DEFAULT_TOLERANCES, Tolerances, compare_scorecards
from .corpus import CorpusEntry, Manifest, difficulty_tier, infer_features, infer_world
from .metrics import coverage_summary, emd_distance, feature_columns, histogram_distance
from .promote import ingest_examples, measure_source, promote_from_fuzzer
from .scorecard import (
    SCORECARD_JSON,
    SCORECARD_MD,
    build_scorecard,
    load_scorecard,
    render_markdown,
    write_scorecard,
)
from .scoring import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SAMPLES,
    DEFAULT_STRATEGIES,
    REFERENCE_STRATEGY,
    score_scenario,
)
from .selfcheck import BiasedStrategy, biased_factory, run_selfcheck

__all__ = [
    "BiasedStrategy",
    "CorpusEntry",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_SAMPLES",
    "DEFAULT_STRATEGIES",
    "DEFAULT_TOLERANCES",
    "Manifest",
    "REFERENCE_STRATEGY",
    "SCORECARD_JSON",
    "SCORECARD_MD",
    "Tolerances",
    "biased_factory",
    "build_scorecard",
    "compare_scorecards",
    "coverage_summary",
    "difficulty_tier",
    "emd_distance",
    "feature_columns",
    "histogram_distance",
    "infer_features",
    "infer_world",
    "ingest_examples",
    "load_scorecard",
    "measure_source",
    "promote_from_fuzzer",
    "render_markdown",
    "run_selfcheck",
    "score_scenario",
    "write_scorecard",
]
