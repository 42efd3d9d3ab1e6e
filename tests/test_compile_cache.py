"""The compiled-scenario artifact cache (`repro/language/compiler.py`).

Covers the content-addressing contract (hash stability across trivially
equivalent sources, invalidation on real edits), both cache layers (LRU
memory, on-disk pickles incl. corruption and format-staleness recovery),
pickle round-trips of artifacts, and — most importantly — that warm-path
scenarios sample *bit-identically* to cold compiles against the committed
golden corpus.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.core.scenario import Scenario
from repro.language import compiler as compiler_module
from repro.language.compiler import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactCache,
    CompiledScenario,
    compile_scenario,
    normalize_source,
    scenario_from_string,
    source_fingerprint,
)
from repro.sampling import SamplerEngine, resolve_scenario

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
# The disk layer
# ---------------------------------------------------------------------------


class TestDiskCache:
    def test_cross_cache_disk_hit_skips_the_parser(self, tmp_path):
        writer = ArtifactCache(disk_dir=tmp_path)
        artifact = writer.get(SIMPLE)
        assert list(tmp_path.glob("*.scenic-artifact.pkl"))

        reader = ArtifactCache(disk_dir=tmp_path)
        loaded = reader.get(SIMPLE)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert loaded is not artifact
        assert loaded.fingerprint == artifact.fingerprint
        # Disk hits are promoted into the memory layer.
        assert reader.get(SIMPLE) is loaded
        assert reader.stats.memory_hits == 1

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        writer = ArtifactCache(disk_dir=tmp_path)
        artifact = writer.get(SIMPLE)
        (entry,) = tmp_path.glob("*.scenic-artifact.pkl")
        entry.write_bytes(b"definitely not a pickle")

        reader = ArtifactCache(disk_dir=tmp_path)
        loaded = reader.get(SIMPLE)
        assert reader.stats.misses == 1
        assert loaded.fingerprint == artifact.fingerprint

    def test_stale_format_version_recompiles(self, tmp_path, monkeypatch):
        writer = ArtifactCache(disk_dir=tmp_path)
        monkeypatch.setattr(compiler_module, "ARTIFACT_FORMAT_VERSION", ARTIFACT_FORMAT_VERSION + 1)
        stale = writer.get(SIMPLE)  # pickled with version+1 in its state
        monkeypatch.undo()
        assert stale.fingerprint != source_fingerprint(SIMPLE)  # re-addressed too

        # Force a same-name stale entry to exercise the unpickle guard.
        (entry,) = tmp_path.glob("*.scenic-artifact.pkl")
        target = tmp_path / f"{source_fingerprint(SIMPLE)}.scenic-artifact.pkl"
        entry.rename(target)
        reader = ArtifactCache(disk_dir=tmp_path)
        loaded = reader.get(SIMPLE)
        assert reader.stats.disk_hits == 0
        assert reader.stats.misses == 1
        assert loaded.fingerprint == source_fingerprint(SIMPLE)

    def test_clear_disk(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.get(SIMPLE)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.scenic-artifact.pkl"))


# ---------------------------------------------------------------------------
# Artifacts: scenarios, metadata, pickling
# ---------------------------------------------------------------------------


class TestCompiledScenario:
    def test_shared_vs_fresh_scenarios(self):
        artifact = compile_scenario(SIMPLE, cache=None)
        shared = artifact.scenario()
        assert artifact.scenario() is shared
        fresh = artifact.scenario(fresh=True)
        assert fresh is not shared
        assert shared.compiled_fingerprint == artifact.fingerprint
        assert fresh.compiled_fingerprint == artifact.fingerprint

    def test_scenario_from_string_returns_independent_scenarios(self):
        first = scenario_from_string(SIMPLE)
        second = scenario_from_string(SIMPLE)
        assert first is not second
        assert first.objects[0] is not second.objects[0]

    def test_scenario_from_source_classmethod(self):
        scenario = Scenario.from_source(SIMPLE)
        assert len(scenario.objects) == 2
        shared = Scenario.from_source(SIMPLE, fresh=False)
        assert Scenario.from_source(SIMPLE, fresh=False) is shared

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
        assert metadata.object_count == 3
        assert metadata.ego_index == 0
        assert metadata.param_names == ("difficulty",)
        assert metadata.requirement_count == 1
        assert metadata.soft_requirement_count == 0
        (debris,) = [entry for entry in metadata.class_table if entry.name == "Debris"]
        assert debris.superclass is None
        assert debris.properties == ("width", "height")
        assert metadata.objects[1].class_name == "Debris"
        assert "position" in metadata.objects[1].random_properties
        assert metadata.objects[0].is_static
        assert not metadata.objects[1].is_static
        # Three objects with disjoint randomness -> three dependency groups.
        assert metadata.dependency_groups == ((0,), (1,), (2,))

    def test_pickle_round_trip_preserves_identity_and_metadata(self):
        artifact = compile_scenario(SIMPLE, cache=None)
        _ = artifact.metadata  # force; metadata must travel with the pickle
        clone = pickle.loads(pickle.dumps(artifact))
        assert clone.fingerprint == artifact.fingerprint
        assert clone.source == artifact.source
        assert clone.metadata == artifact.metadata
        # The interned live scenario does NOT travel; it is rebuilt lazily.
        assert clone._shared_scenario is None
        assert len(clone.scenario().objects) == 2

    def test_engine_accepts_artifacts_and_source(self):
        artifact = compile_scenario(SIMPLE, cache=None)
        engine = SamplerEngine(artifact)
        assert engine.scenario is artifact.scenario()
        # direct prunes in place, so it must not share the interned scenario.
        direct = SamplerEngine(artifact, strategy="direct")
        assert direct.scenario is not artifact.scenario()
        # Raw source routes through the default cache.
        from_source = SamplerEngine(SIMPLE)
        assert from_source.scenario is compile_scenario(SIMPLE).scenario()
        with pytest.raises(TypeError):
            resolve_scenario(123)


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
def test_warm_artifact_reproduces_golden_scenes(stem, tmp_path):
    """Cold compile, warm in-memory artifact and disk-round-tripped artifact
    all sample the exact golden scene (same seed, 1e-9)."""
    golden = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    source = (SCENARIO_DIR / f"{stem}.scenic").read_text()
    seed = golden["seed"]
    expected = golden["strategies"]["rejection"]

    cache = ArtifactCache(disk_dir=tmp_path)
    cold_scene = cache.get(source).scenario(fresh=True).generate(
        seed=seed, max_iterations=golden["max_iterations"]
    )
    warm_scene = cache.get(source).scenario().generate(
        seed=seed, max_iterations=golden["max_iterations"]
    )
    disk_scene = (
        ArtifactCache(disk_dir=tmp_path)
        .get(source)
        .scenario()
        .generate(seed=seed, max_iterations=golden["max_iterations"])
    )

    for scene in (cold_scene, warm_scene, disk_scene):
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


def test_pickled_artifact_reproduces_cold_scenes_across_strategies():
    """pickle → unpickle → sample equals a cold compile, for every golden strategy."""
    source = (SCENARIO_DIR / "two_cars.scenic").read_text()
    artifact = compile_scenario(source, cache=None)
    clone = pickle.loads(pickle.dumps(artifact))
    for strategy in ("rejection", "batch", "vectorized"):
        cold = scenario_from_string(source).generate(
            seed=99, strategy=strategy, max_iterations=20000
        )
        warm = clone.scenario(fresh=True).generate(
            seed=99, strategy=strategy, max_iterations=20000
        )
        assert _record(cold) == _record(warm)
