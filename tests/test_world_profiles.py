"""The WorldProfile plugin seam: registry hygiene, resolution properties,
and the grep-level guarantee that no world name leaks outside ``worlds/``.

Three layers:

* registry hygiene — duplicate/reserved/collision registration errors,
  ``unregister_world``, canonical-vs-alias listings;
* Hypothesis properties — alias resolution round-trips, unknown worlds
  fall back to the ``inline`` bucket, and every registered fuzz profile
  carries a complete magnitude table;
* a literal-scan meta-test pinning the tentpole's whole point: the fuzz,
  analysis and evals subsystems contain no quoted world names, so adding
  a world is a plugin module under ``src/repro/worlds/`` and nothing else.
"""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.evals.corpus import WORLDS, infer_world
from repro.worlds.profile import (
    MAGNITUDE_KEYS,
    CorpusProfile,
    EgoSpec,
    FuzzProfile,
    WorldProfile,
)
from repro.worlds.registry import (
    RESERVED_NAMES,
    fuzz_profiles,
    get_world,
    register_world,
    registered_worlds,
    resolve_world_name,
    unregister_world,
    world_aliases,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _dummy_profile(name="testworld", aliases=()):
    return WorldProfile(name=name, aliases=tuple(aliases), loader=lambda: ({}, None))


@pytest.fixture
def scratch_world():
    """Register a throwaway world; always unregister it afterwards."""
    profile = _dummy_profile(aliases=("testalias",))
    register_world(profile)
    try:
        yield profile
    finally:
        try:
            unregister_world(profile.name)
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# Registry hygiene
# ---------------------------------------------------------------------------


class TestRegistryHygiene:
    def test_builtin_worlds_are_registered(self):
        assert registered_worlds() == ("gtaLib", "mars", "warehouse")
        assert set(world_aliases().items()) == {("gta", "gtaLib"), ("webotsLib", "mars")}

    def test_registered_worlds_distinguishes_aliases(self):
        canonical = registered_worlds()
        with_aliases = registered_worlds(include_aliases=True)
        assert set(canonical) < set(with_aliases)
        assert "gta" in with_aliases and "gta" not in canonical
        assert "webotsLib" in with_aliases and "webotsLib" not in canonical

    def test_duplicate_registration_raises(self, scratch_world):
        with pytest.raises(ValueError, match="already registered"):
            register_world(_dummy_profile(name=scratch_world.name))

    def test_alias_collision_raises(self, scratch_world):
        with pytest.raises(ValueError, match="already registered"):
            register_world(_dummy_profile(name="otherworld", aliases=("testalias",)))

    def test_overwrite_replaces(self, scratch_world):
        replacement = _dummy_profile(name=scratch_world.name, aliases=("newalias",))
        register_world(replacement, overwrite=True)
        assert get_world(scratch_world.name) is replacement
        assert resolve_world_name("newalias") == scratch_world.name
        # The old alias died with the old profile.
        assert resolve_world_name("testalias") is None

    def test_unregister_by_alias(self, scratch_world):
        unregister_world("testalias")
        assert get_world(scratch_world.name) is None
        assert resolve_world_name("testalias") is None

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown world"):
            unregister_world("neverregistered")

    def test_reserved_names_rejected(self):
        for reserved in RESERVED_NAMES:
            with pytest.raises(ValueError, match="reserved"):
                register_world(_dummy_profile(name=reserved))
            with pytest.raises(ValueError, match="reserved"):
                register_world(_dummy_profile(name="okname", aliases=(reserved,)))

    def test_malformed_profile_rejected(self):
        bad_fuzz = FuzzProfile(
            weight=1,
            magnitudes={},  # all six magnitude ranges missing
            ego=EgoSpec(classes=("X",)),
            class_bases=("X",),
            object_pool=("X",),
            generous_distance=(1.0, 2.0),
        )
        profile = WorldProfile(name="badworld", loader=lambda: ({}, None), fuzz=bad_fuzz)
        with pytest.raises(ValueError, match="magnitude"):
            register_world(profile)

    def test_registration_is_visible_to_the_interpreter(self, scratch_world):
        from repro.language import scenario_from_string

        scenario = scenario_from_string("import testalias\nego = Object at 0 @ 0")
        assert len(scenario.objects) == 1


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


_registered_names = st.sampled_from(registered_worlds(include_aliases=True))
_random_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,14}", fullmatch=True)


class TestResolutionProperties:
    @given(name=_registered_names)
    def test_alias_resolution_round_trips(self, name):
        profile = get_world(name)
        assert profile is not None
        canonical = resolve_world_name(name)
        assert canonical == profile.name
        assert name in profile.import_names
        # Resolving the canonical name again is a fixed point.
        assert resolve_world_name(canonical) == canonical

    @given(name=_registered_names)
    def test_registered_imports_tag_their_canonical_bucket(self, name):
        source = f"import {name}\nego = Object at 0 @ 0"
        assert infer_world(source) == resolve_world_name(name)

    @given(name=_random_names)
    def test_unknown_worlds_fall_back_to_inline(self, name):
        if resolve_world_name(name) is not None:
            return  # drew a real registered name
        assert infer_world(f"import {name}\nego = Object at 0 @ 0") == "inline"
        assert get_world(name) is None

    @given(name=st.sampled_from(sorted(fuzz_profiles())))
    def test_fuzz_magnitude_tables_are_complete(self, name):
        profile = fuzz_profiles()[name]
        assert profile.missing_magnitudes() == []
        for key in MAGNITUDE_KEYS:
            lo, hi = profile.magnitudes[key]
            assert lo <= hi

    def test_corpus_worlds_are_inline_plus_registry(self):
        assert WORLDS == ("inline",) + registered_worlds()

    def test_every_bucket_defaults_to_the_canonical_name(self):
        for name in registered_worlds():
            profile = get_world(name)
            assert profile.bucket == (profile.corpus.bucket or name)


# ---------------------------------------------------------------------------
# The literal-scan meta-test
# ---------------------------------------------------------------------------


class TestNoWorldLiteralsOutsideWorlds:
    #: Every name that resolves to a world today.  Quoting one of these in
    #: the fuzzer, analyzer or evals layer means a per-world conditional
    #: snuck back in; route the knowledge through the WorldProfile instead.
    BANNED = ("gtaLib", "gta", "mars", "webotsLib", "warehouse")
    SUBSYSTEMS = ("src/repro/fuzz", "src/repro/analysis", "src/repro/evals")

    def test_subsystems_have_no_quoted_world_names(self):
        offenders = []
        for subsystem in self.SUBSYSTEMS:
            for path in sorted((REPO_ROOT / subsystem).rglob("*.py")):
                text = path.read_text()
                for lineno, line in enumerate(text.splitlines(), start=1):
                    for name in self.BANNED:
                        for quoted in (f'"{name}"', f"'{name}'"):
                            if quoted in line:
                                offenders.append(
                                    f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}"
                                )
        assert not offenders, (
            "world-name literals outside src/repro/worlds/ "
            "(move the knowledge into that world's WorldProfile):\n"
            + "\n".join(offenders)
        )

    def test_banned_list_covers_the_registry(self):
        """If a world is added, it must join BANNED (kept in lockstep)."""
        assert set(registered_worlds(include_aliases=True)) <= set(self.BANNED)
