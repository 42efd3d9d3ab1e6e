"""Scorecard assembly: the committed ``results/EVALS.json`` + markdown.

A scorecard is one fixed-seed scoring pass over (a slice of) the graded
corpus, serialized as a machine-diffable JSON document, plus a human-readable
markdown rendering.
The JSON document is the CI baseline: ``python -m repro.evals check``
re-scores the stratified CI slice with the parameters recorded *in the
document* and compares within tolerance bands (:mod:`repro.evals.check`).

Document shape (schema 1)::

    {
      "schema": 1,
      "kind": "engine-quality-evals",
      "seed": ..., "samples": ..., "max_iterations": ...,
      "reference": "rejection",
      "strategies": ["vectorized", ...],
      "subset": {"per_bucket": 8, "difficulties": ["easy","medium"]} | null,
      "corpus": {"total": 153, "scored": 153, "by_world": ..., "by_difficulty": ...},
      "scenarios": {id: <score_scenario() result + tags>},
      "aggregates": {strategy: {...means/worst-cases...}}
    }

Floats are rounded before serialization so reruns diff cleanly and the
committed artifact stays reviewable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from .corpus import CorpusEntry, Manifest, REPO_ROOT
from .scoring import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SAMPLES,
    DEFAULT_STRATEGIES,
    REFERENCE_STRATEGY,
    score_scenario,
)

SCORECARD_SCHEMA = 1

#: The committed dashboard artifacts; git history is their trajectory.
RESULTS_DIR = REPO_ROOT / "results"
SCORECARD_JSON = RESULTS_DIR / "EVALS.json"
SCORECARD_MD = RESULTS_DIR / "EVALS.md"


def _round_floats(value: Any, digits: int = 6) -> Any:
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_floats(item, digits) for item in value]
    return value


def build_scorecard(
    manifest: Manifest,
    entries: Optional[Sequence[CorpusEntry]] = None,
    *,
    seed: int,
    samples: int = DEFAULT_SAMPLES,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    reference: str = REFERENCE_STRATEGY,
    via_service: bool = False,
    subset: Optional[Dict[str, Any]] = None,
    root: Path = REPO_ROOT,
    strategy_factory: Optional[Callable[[str], Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Score *entries* (default: the whole manifest) into a scorecard dict."""
    chosen = list(entries) if entries is not None else list(manifest)
    scenarios: Dict[str, Any] = {}
    for index, entry in enumerate(sorted(chosen, key=lambda e: e.id)):
        result = score_scenario(
            entry.source(root),
            strategies=strategies,
            reference=reference,
            seed=seed,
            samples=samples,
            max_iterations=max_iterations,
            via_service=via_service,
            strategy_factory=strategy_factory,
        )
        result["world"] = entry.world
        result["difficulty"] = entry.difficulty
        scenarios[entry.id] = result
        if progress is not None:
            status = result["status"]
            progress(f"[{index + 1}/{len(chosen)}] {entry.id}: {status}")

    by_world: Dict[str, int] = {}
    by_difficulty: Dict[str, int] = {}
    for entry in manifest:
        by_world[entry.world] = by_world.get(entry.world, 0) + 1
        by_difficulty[entry.difficulty] = by_difficulty.get(entry.difficulty, 0) + 1

    document = {
        "schema": SCORECARD_SCHEMA,
        "kind": "engine-quality-evals",
        "seed": seed,
        "samples": samples,
        "max_iterations": max_iterations,
        "reference": reference,
        "strategies": list(strategies),
        "via_service": via_service,
        "subset": subset,
        "corpus": {
            "total": len(manifest),
            "scored": len(chosen),
            "by_world": dict(sorted(by_world.items())),
            "by_difficulty": dict(sorted(by_difficulty.items())),
            "feature_coverage": manifest.feature_coverage(),
        },
        "scenarios": scenarios,
        "aggregates": aggregate_scores(scenarios, [reference, *strategies]),
    }
    return _round_floats(document)


def aggregate_scores(
    scenarios: Dict[str, Any], strategies: Sequence[str]
) -> Dict[str, Any]:
    """Per-strategy roll-up over every scored scenario."""
    aggregates: Dict[str, Any] = {}
    for strategy in dict.fromkeys(strategies):  # preserve order, drop dups
        acceptance: List[float] = []
        candidates = 0
        scenes = 0
        wall = 0.0
        tv_values: List[float] = []
        worst_tv: Optional[tuple] = None
        ok = 0
        exhausted = 0
        errors = 0
        for scenario_id, result in sorted(scenarios.items()):
            record = result.get("strategies", {}).get(strategy)
            if record is None:
                continue
            status = record.get("status", "ok")
            if status == "ok":
                ok += 1
            elif status == "budget_exhausted":
                exhausted += 1
            else:
                errors += 1
            acceptance.append(float(record.get("acceptance_rate", 0.0)))
            candidates += int(record.get("candidates", 0))
            scenes += int(record.get("scenes", 0))
            wall += float(record.get("wall_seconds", 0.0))
            coverage = record.get("coverage")
            if coverage:
                tv = float(coverage["max_tv"])
                tv_values.append(tv)
                if worst_tv is None or tv > worst_tv[0]:
                    worst_tv = (tv, scenario_id)
        aggregates[strategy] = {
            "scenarios": len(acceptance),
            "ok": ok,
            "budget_exhausted": exhausted,
            "errors": errors,
            "scenes": scenes,
            "candidates": candidates,
            "mean_acceptance_rate": (
                sum(acceptance) / len(acceptance) if acceptance else 0.0
            ),
            "wall_seconds": wall,
        }
        if tv_values:
            aggregates[strategy]["coverage"] = {
                "scenarios": len(tv_values),
                "mean_max_tv": sum(tv_values) / len(tv_values),
                "worst_max_tv": worst_tv[0],
                "worst_scenario": worst_tv[1],
            }
    return aggregates


# ---------------------------------------------------------------------------
# Persistence + markdown rendering
# ---------------------------------------------------------------------------


def write_scorecard(
    document: Dict[str, Any],
    json_path: Path = SCORECARD_JSON,
    md_path: Optional[Path] = SCORECARD_MD,
) -> List[Path]:
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    written = [json_path]
    if md_path is not None:
        md_path = Path(md_path)
        md_path.write_text(render_markdown(document))
        written.append(md_path)
    return written


def load_scorecard(path: Path = SCORECARD_JSON) -> Dict[str, Any]:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != SCORECARD_SCHEMA:
        raise ValueError(
            f"unsupported scorecard schema {document.get('schema')!r} "
            f"(expected {SCORECARD_SCHEMA})"
        )
    return document


def render_markdown(document: Dict[str, Any]) -> str:
    """A human-readable scorecard next to the JSON artifact."""
    corpus = document["corpus"]
    lines = [
        "# Engine quality scorecard",
        "",
        f"Fixed-seed quality evals over the graded scenario corpus "
        f"(seed {document['seed']}, {document['samples']} scenes per "
        f"scenario/strategy, reference strategy `{document['reference']}`). "
        f"Regenerate with `python -m repro.evals run`; CI gates regressions "
        f"with `python -m repro.evals check` (see docs/evals.md).",
        "",
        "## Corpus",
        "",
        f"- scenarios: **{corpus['total']}** (scored here: {corpus['scored']})",
        f"- by world: "
        + ", ".join(f"{world} = {count}" for world, count in corpus["by_world"].items()),
        f"- by difficulty: "
        + ", ".join(f"{tier} = {count}" for tier, count in corpus["by_difficulty"].items()),
        f"- feature tags covered: {len(corpus['feature_coverage'])}",
        "",
        "## Per-strategy aggregates",
        "",
        "| strategy | scenarios | ok | exhausted | errors | mean acceptance | candidates | mean max-TV | worst max-TV (scenario) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for strategy, agg in document["aggregates"].items():
        coverage = agg.get("coverage")
        if coverage:
            mean_tv = f"{coverage['mean_max_tv']:.3f}"
            worst = f"{coverage['worst_max_tv']:.3f} ({coverage['worst_scenario']})"
        else:
            mean_tv = "—"
            worst = "—"
        lines.append(
            f"| `{strategy}` | {agg['scenarios']} | {agg['ok']} | "
            f"{agg['budget_exhausted']} | {agg['errors']} | "
            f"{agg['mean_acceptance_rate']:.3f} | {agg['candidates']} | "
            f"{mean_tv} | {worst} |"
        )
    lines += [
        "",
        "## Worst-covered scenarios (gated strategies)",
        "",
        "| scenario | world | difficulty | strategy | max TV | max KS | acceptance |",
        "|---|---|---|---|---|---|---|",
    ]
    worst_rows = []
    for scenario_id, result in document["scenarios"].items():
        for strategy, record in result.get("strategies", {}).items():
            coverage = record.get("coverage")
            if coverage:
                worst_rows.append(
                    (
                        float(coverage["max_tv"]),
                        scenario_id,
                        result.get("world", "?"),
                        result.get("difficulty", "?"),
                        strategy,
                        coverage,
                        record,
                    )
                )
    worst_rows.sort(reverse=True, key=lambda row: row[0])
    for tv, scenario_id, world, difficulty, strategy, coverage, record in worst_rows[:12]:
        lines.append(
            f"| {scenario_id} | {world} | {difficulty} | `{strategy}` | "
            f"{tv:.3f} | {coverage['max_ks']:.3f} | {record['acceptance_rate']:.3f} |"
        )
    lines += [
        "",
        "Wall-time columns in the JSON document are informational only — "
        "`evals check` never gates on timing.",
        "",
    ]
    return "\n".join(lines)


__all__ = [
    "SCORECARD_JSON",
    "SCORECARD_MD",
    "SCORECARD_SCHEMA",
    "aggregate_scores",
    "build_scorecard",
    "load_scorecard",
    "render_markdown",
    "write_scorecard",
]
