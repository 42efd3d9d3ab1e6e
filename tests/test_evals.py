"""The graded corpus and the eval harness around it.

Pins the contracts the CI evals job relies on: the committed manifest is
valid and big enough, every entry's file still matches its recorded
fingerprint, the stratified CI slice is deterministic, scoring results are
reproducible functions of the seed, and the scorecard comparison logic
flags exactly the regressions it documents.  The committed
``results/EVALS.json`` itself is validated for shape and corpus
agreement (its numbers are re-derived in CI by ``python -m repro.evals
check``, not here — tier-1 stays fast).
"""

import json
from pathlib import Path

import pytest

from repro.evals import (
    Manifest,
    build_scorecard,
    compare_scorecards,
    difficulty_tier,
    infer_features,
    infer_world,
    load_scorecard,
    render_markdown,
    score_scenario,
    write_scorecard,
)
from repro.evals.corpus import DIFFICULTIES, WORLDS
from repro.evals.scorecard import SCORECARD_JSON, SCORECARD_MD
from repro.language import compile_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The committed corpus
# ---------------------------------------------------------------------------


def test_manifest_is_valid_and_at_scale():
    manifest = Manifest.load()
    assert manifest.validate() == []
    assert len(manifest) >= 150
    for entry in manifest:
        assert entry.world in WORLDS
        assert entry.difficulty in DIFFICULTIES
        assert entry.features, entry.id
    # Every world is exercised, and so is every difficulty tier.
    buckets = manifest.by_bucket()
    assert {world for world, _ in buckets} == set(WORLDS)
    assert {tier for _, tier in buckets} == set(DIFFICULTIES)


def test_manifest_fingerprints_match_files():
    """Corpus files and manifest move together: recompiling every scenario
    must reproduce the recorded content fingerprint."""
    manifest = Manifest.load()
    for entry in manifest:
        artifact = compile_scenario(entry.source(REPO_ROOT))
        assert artifact.fingerprint == entry.fingerprint, entry.id


def test_stratified_subset_is_deterministic_and_stratified():
    manifest = Manifest.load()
    first = manifest.stratified_subset(per_bucket=2, difficulties=("easy", "medium"))
    second = manifest.stratified_subset(per_bucket=2, difficulties=("easy", "medium"))
    assert [entry.id for entry in first] == [entry.id for entry in second]
    assert all(entry.difficulty in ("easy", "medium") for entry in first)
    # No (world, difficulty) bucket dominates the slice.
    per_bucket = {}
    for entry in first:
        key = (entry.world, entry.difficulty)
        per_bucket[key] = per_bucket.get(key, 0) + 1
    assert max(per_bucket.values()) <= 2
    assert {world for world, _ in per_bucket} == set(WORLDS)


def test_subset_scenarios_generate_under_rejection():
    """One scene per CI-slice scenario: the compile+generate acceptance bar."""
    from repro.language import compile_scenario

    manifest = Manifest.load()
    for entry in manifest.stratified_subset(per_bucket=1, difficulties=("easy",)):
        scenario = compile_scenario(entry.source(REPO_ROOT)).scenario()
        scene = scenario.generate(max_iterations=5000, seed=1, strategy="rejection")
        assert len(scene.objects) == entry.objects


def test_tagging_helpers():
    source = "import gtaLib\nego = EgoCar\nrequire ego.position.x > 0\n"
    assert infer_world(source) == "gtaLib"
    assert "require" in infer_features(source)
    assert infer_world("ego = Object at 0 @ 0") == "inline"
    assert difficulty_tier(1.0) == "easy"
    assert difficulty_tier(30.0) == "medium"
    assert difficulty_tier(2000.0) == "hard"


def test_tagging_resolves_world_aliases():
    """Regression: alias imports used to mistag as world="inline"."""
    assert infer_world("import gta\nego = Car\n") == "gtaLib"
    assert infer_world("import webotsLib\nego = Rover\n") == "mars"
    assert infer_world("import warehouse\nego = Robot at 0 @ 0\n") == "warehouse"
    # Unregistered imports still fall back to the inline bucket.
    assert infer_world("import noSuchWorld\nego = Object at 0 @ 0\n") == "inline"


# ---------------------------------------------------------------------------
# Scoring determinism + scorecard round trip
# ---------------------------------------------------------------------------

INLINE = "ego = Object at Range(-4, 4) @ 0\nObject at Range(-4, 4) @ 5\n"


def _strip_timing(result):
    clean = json.loads(json.dumps(result))  # deep copy
    for record in clean["strategies"].values():
        record.pop("wall_seconds")
        record.pop("sampling_seconds")
    return clean


def test_score_scenario_is_deterministic_up_to_wall_time():
    first = score_scenario(INLINE, seed=7, samples=12, max_iterations=500)
    second = score_scenario(INLINE, seed=7, samples=12, max_iterations=500)
    assert _strip_timing(first) == _strip_timing(second)
    # And a different seed actually changes the draws.
    third = score_scenario(INLINE, seed=8, samples=12, max_iterations=500)
    assert _strip_timing(third) != _strip_timing(first)


@pytest.mark.parametrize("stem", ["two_cars", "warehouse_cross_traffic"])
def test_score_scenario_via_service_is_ok_and_deterministic(stem):
    """The ``--via-service`` path: scored through an inline generation service.

    Both the reference and the scored strategy run through
    ``_run_service_batch``; the result is a full scorecard record with a
    coverage block, and the same record again on a second run.
    """
    source = (REPO_ROOT / "examples" / "scenarios" / f"{stem}.scenic").read_text()
    first = score_scenario(source, samples=24, via_service=True)
    second = score_scenario(source, samples=24, via_service=True)
    assert first["status"] == "ok"
    assert first["via_service"] is True
    for strategy, record in first["strategies"].items():
        assert record["status"] == "ok", strategy
        assert record["scenes"] == 24, strategy
    scored = first["strategies"]["vectorized"]
    assert scored["coverage"] is not None
    assert scored["coverage"]["properties"]
    assert _strip_timing(first) == _strip_timing(second)


def test_scorecard_round_trip_and_self_comparison(tmp_path):
    manifest = Manifest.load()
    entries = manifest.stratified_subset(per_bucket=1, difficulties=("easy",))[:2]
    document = build_scorecard(
        manifest, entries, seed=3, samples=8, max_iterations=800
    )
    json_path = tmp_path / "card.json"
    md_path = tmp_path / "card.md"
    write_scorecard(document, json_path=json_path, md_path=md_path)
    loaded = load_scorecard(json_path)
    assert loaded == json.loads(json.dumps(document))  # JSON-stable
    assert compare_scorecards(loaded, loaded) == []
    rendered = render_markdown(loaded)
    assert "Engine quality scorecard" in rendered
    assert "`rejection`" in rendered


def test_load_scorecard_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError):
        load_scorecard(bad)


# ---------------------------------------------------------------------------
# Comparison semantics
# ---------------------------------------------------------------------------


def _card(**overrides):
    record = {
        "status": "ok",
        "acceptance_rate": 0.9,
        "candidates": 100,
        "scenes": 40,
        "coverage": {"max_tv": 0.3},
    }
    record.update(overrides)
    return {
        "schema": 1,
        "seed": 1,
        "samples": 40,
        "max_iterations": 3000,
        "reference": "rejection",
        "strategies": ["vectorized"],
        "scenarios": {
            "s1": {
                "status": "ok",
                "pruning": {"applied": True, "area_ratio": 0.5, "error": None},
                "strategies": {"vectorized": record},
            }
        },
    }


def test_compare_scorecards_parameter_mismatch():
    baseline = _card()
    current = _card()
    current["seed"] = 2
    problems = compare_scorecards(current, baseline)
    assert any("parameter mismatch" in problem for problem in problems)


def test_compare_scorecards_scenario_missing_from_baseline():
    baseline = _card()
    current = _card()
    current["scenarios"]["s2"] = current["scenarios"]["s1"]
    problems = compare_scorecards(current, baseline)
    assert any("s2" in problem and "not in the baseline" in problem for problem in problems)


def test_compare_scorecards_area_ratio_band():
    baseline = _card()
    current = _card()
    current["scenarios"]["s1"]["pruning"]["area_ratio"] = 0.8
    problems = compare_scorecards(current, baseline)
    assert any("area ratio" in problem for problem in problems)
    # Within the band is fine.
    current["scenarios"]["s1"]["pruning"]["area_ratio"] = 0.51
    assert compare_scorecards(current, baseline) == []


def test_compare_scorecards_scenario_ids_filter():
    baseline = _card()
    current = _card()
    current["scenarios"]["s1"]["strategies"]["vectorized"]["candidates"] = 10_000
    assert compare_scorecards(current, baseline, scenario_ids=["s1"])
    assert compare_scorecards(current, baseline, scenario_ids=["other"]) == []


# ---------------------------------------------------------------------------
# The committed scorecard artifact
# ---------------------------------------------------------------------------


def test_committed_scorecard_matches_corpus():
    document = load_scorecard(SCORECARD_JSON)
    manifest = Manifest.load()
    assert document["kind"] == "engine-quality-evals"
    assert set(document["scenarios"]) == set(manifest.ids())
    assert document["corpus"]["total"] == len(manifest)
    # Every scored strategy carries the gated metrics.
    for result in document["scenarios"].values():
        for name, record in result["strategies"].items():
            assert "acceptance_rate" in record and "candidates" in record
            if name != document["reference"] and record["status"] == "ok":
                assert "coverage" in record
    # The markdown rendering is committed alongside and reflects the JSON.
    markdown = SCORECARD_MD.read_text()
    assert f"seed {document['seed']}" in markdown


@pytest.mark.parametrize("command", ["promote", "run", "check", "selfcheck"])
def test_quiet_is_accepted_before_and_after_the_subcommand(command, monkeypatch):
    """``--quiet`` works on either side of the subcommand, and only there."""
    from repro.evals import __main__ as cli

    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args.quiet) or 0)
    assert cli.main(["--quiet", command]) == 0
    assert cli.main([command, "--quiet"]) == 0
    assert cli.main([command]) == 0
    assert seen == [True, True, False]
