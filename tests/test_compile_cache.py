"""The compiled-scenario artifact cache (`repro/language/compiler.py`).

Covers the content-addressing contract (hash stability across trivially
equivalent sources, invalidation on real edits), the in-memory LRU, and —
most importantly — that warm-path scenarios sample *bit-identically* to
cold compiles against the committed golden corpus.
"""

import json
from pathlib import Path

import pytest

from repro.language import compiler as compiler_module
from repro.language.compiler import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactCache,
    compile_scenario,
    normalize_source,
    scenario_from_string,
    source_fingerprint,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

SIMPLE = "ego = Object at 1 @ 2, facing 0.5\nObject at 4 @ 5\n"
TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self):
        assert source_fingerprint(SIMPLE) == source_fingerprint(SIMPLE)
        assert len(source_fingerprint(SIMPLE)) == 64  # sha256 hex

    def test_stable_across_equivalent_sources(self):
        """Line endings, trailing whitespace and trailing blank lines are erased."""
        reference = source_fingerprint(SIMPLE)
        assert source_fingerprint(SIMPLE.replace("\n", "\r\n")) == reference
        assert source_fingerprint(SIMPLE.replace("\n", "   \n")) == reference
        assert source_fingerprint(SIMPLE + "\n\n\n") == reference
        assert source_fingerprint(SIMPLE.rstrip("\n")) == reference

    def test_real_edits_change_the_fingerprint(self):
        assert source_fingerprint(SIMPLE) != source_fingerprint(SIMPLE.replace("4 @ 5", "4 @ 6"))
        # Leading (indentation) whitespace is significant, only trailing is not.
        assert source_fingerprint("x = 1\n") != source_fingerprint(" x = 1\n")

    def test_normalize_source(self):
        assert normalize_source("a \r\nb\r\n\r\n") == "a\nb\n"
        assert normalize_source("") == ""
        assert normalize_source("\n\n") == ""

    def test_format_version_is_folded_into_the_hash(self, monkeypatch):
        before = source_fingerprint(SIMPLE)
        monkeypatch.setattr(compiler_module, "ARTIFACT_FORMAT_VERSION", ARTIFACT_FORMAT_VERSION + 1)
        assert source_fingerprint(SIMPLE) != before


# ---------------------------------------------------------------------------
# The memory layer
# ---------------------------------------------------------------------------


class TestMemoryCache:
    def test_compile_twice_parses_once(self):
        cache = ArtifactCache()
        first = cache.get(SIMPLE)
        second = cache.get(SIMPLE)
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_equivalent_sources_share_one_artifact(self):
        cache = ArtifactCache()
        assert cache.get(SIMPLE) is cache.get(SIMPLE.replace("\n", "\r\n"))

    def test_invalidation_on_source_edit(self):
        cache = ArtifactCache()
        original = cache.get(SIMPLE)
        edited = cache.get(SIMPLE.replace("4 @ 5", "7 @ 8"))
        assert original is not edited
        assert original.fingerprint != edited.fingerprint
        # Both stay addressable.
        assert cache.get(SIMPLE) is original
        assert cache.get(SIMPLE.replace("4 @ 5", "7 @ 8")) is edited

    def test_lru_eviction(self):
        cache = ArtifactCache(max_memory=2)
        first = cache.get("ego = Object at 1 @ 1\n")
        cache.get("ego = Object at 2 @ 2\n")
        cache.get("ego = Object at 3 @ 3\n")  # evicts the first
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert first.fingerprint not in cache
        # A re-get recompiles (miss), it does not error.
        again = cache.get("ego = Object at 1 @ 1\n")
        assert again.fingerprint == first.fingerprint
        assert again is not first

    def test_lru_recency_order(self):
        cache = ArtifactCache(max_memory=2)
        first = cache.get("ego = Object at 1 @ 1\n")
        cache.get("ego = Object at 2 @ 2\n")
        cache.get(first.source)  # touch: first becomes most-recent
        cache.get("ego = Object at 3 @ 3\n")  # evicts the *second* entry
        assert first.fingerprint in cache

    def test_default_cache_is_used_by_compile_scenario(self):
        artifact = compile_scenario(SIMPLE)
        assert compile_scenario(SIMPLE) is artifact

    def test_cache_none_bypasses_caching(self):
        first = compile_scenario(SIMPLE, cache=None)
        second = compile_scenario(SIMPLE, cache=None)
        assert first is not second
        assert first.fingerprint == second.fingerprint

    def test_syntax_errors_are_not_cached(self):
        from repro.core.errors import ScenicError

        cache = ArtifactCache()
        with pytest.raises(ScenicError):
            cache.get("ego = = Object\n")
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Artifacts: scenarios and metadata
# ---------------------------------------------------------------------------


class TestCompiledScenario:
    def test_shared_vs_fresh_scenarios(self):
        artifact = compile_scenario(SIMPLE, cache=None)
        shared = artifact.scenario()
        assert artifact.scenario() is shared
        fresh = artifact.scenario(fresh=True)
        assert fresh is not shared
        assert shared.compiled_artifact is artifact
        assert fresh.compiled_artifact is artifact

    def test_scenario_from_string_returns_independent_scenarios(self):
        first = scenario_from_string(SIMPLE)
        second = scenario_from_string(SIMPLE)
        assert first is not second
        assert first.objects[0] is not second.objects[0]

    def test_metadata(self):
        source = (
            "class Debris:\n"
            "    width: 0.5\n"
            "    height: (0.3, 0.9)\n"
            "ego = Object at 0 @ 0\n"
            "Debris at (1, 2) @ 3\n"
            "Debris at -1 @ -1\n"
            "param difficulty = 2\n"
            "require ego.position.x == 0\n"
        )
        metadata = compile_scenario(source, cache=None).metadata
        assert metadata.ego_index == 0
        assert [(entry.index, entry.class_name) for entry in metadata.objects] == [
            (0, "Object"),
            (1, "Debris"),
            (2, "Debris"),
        ]


# ---------------------------------------------------------------------------
# Cold-vs-warm equivalence against the golden corpus
# ---------------------------------------------------------------------------


def _record(scene):
    from repro.core.vectors import Vector

    return [
        (
            type(obj).__name__,
            tuple(Vector.from_any(obj.position)),
            float(obj.heading),
            float(obj.width),
            float(obj.height),
        )
        for obj in scene.objects
    ]


@pytest.mark.parametrize("stem", ["simplest", "two_cars", "mars_rubble_field"])
def test_warm_artifact_reproduces_golden_scenes(stem):
    """A cold compile and a warm cached artifact both sample the exact
    golden scene (same seed, 1e-9)."""
    golden = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    source = (SCENARIO_DIR / f"{stem}.scenic").read_text()
    seed = golden["seed"]
    expected = golden["strategies"]["rejection"]

    cache = ArtifactCache()
    cold_scene = cache.get(source).scenario(fresh=True).generate(
        seed=seed, max_iterations=golden["max_iterations"]
    )
    warm_scene = cache.get(source).scenario().generate(
        seed=seed, max_iterations=golden["max_iterations"]
    )
    assert cache.stats.misses == 1 and cache.stats.memory_hits == 1

    for scene in (cold_scene, warm_scene):
        got = _record(scene)
        assert len(got) == len(expected["objects"])
        assert scene.objects.index(scene.ego) == expected["ego_index"]
        for (klass, position, heading, width, height), want in zip(got, expected["objects"]):
            assert klass == want["class"]
            assert abs(position[0] - want["position"][0]) <= TOLERANCE
            assert abs(position[1] - want["position"][1]) <= TOLERANCE
            assert abs(heading - want["heading"]) <= TOLERANCE
            assert abs(width - want["width"]) <= TOLERANCE
            assert abs(height - want["height"]) <= TOLERANCE
