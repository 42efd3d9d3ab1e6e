"""Registry of :class:`~repro.worlds.profile.WorldProfile` plugins.

The paper's workflow (Sec. 1) requires "writing a small Scenic library
defining the types of objects supported by the simulator, as well as the
geometry of the workspace".  Each world here registers one
:class:`WorldProfile` bundling that Scenic library (namespace + workspace
loader) with the engine-facing knowledge the other subsystems need —
fuzzer tuning, static-analysis hooks, evals-corpus metadata — so the
fuzzer, analyzer and evals layers resolve everything through this registry
instead of hardcoding per-world conditionals (see ``docs/worlds.md``).

Duplicate registrations raise unless ``overwrite=True``,
:func:`unregister_world` removes a profile (and its aliases), and
:func:`registered_worlds` lists canonical names only unless asked to include
aliases.  Name resolution is priority-free: every import name (canonical or
alias) maps to exactly one profile.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.workspace import Workspace
from .profile import AnalysisProfile, FuzzProfile, WorldProfile

#: Names no profile may claim: ``inline`` is the fuzzer/evals bucket for
#: programs that import no world at all.
RESERVED_NAMES = ("inline",)

_PROFILES: Dict[str, WorldProfile] = {}  # canonical name -> profile
_NAMES: Dict[str, str] = {}  # any import name (incl. canonical) -> canonical
_builtins_registered = False


def register_world(profile: WorldProfile, *, overwrite: bool = False) -> WorldProfile:
    """Register *profile* under its canonical name and every alias.

    Raises ``ValueError`` on a malformed profile, a reserved name, or a
    name/alias collision with an already-registered profile (unless
    *overwrite* is true, which first drops the colliding profiles).
    Returns the profile, so it can be used in expression position.
    """
    problems = profile.validate()
    if problems:
        raise ValueError(f"invalid world profile {profile.name!r}: {'; '.join(problems)}")
    for name in profile.import_names:
        if name in RESERVED_NAMES:
            raise ValueError(f"world name {name!r} is reserved")
    taken = {
        name: _NAMES[name]
        for name in profile.import_names
        if name in _NAMES and _NAMES[name] != profile.name
    }
    if taken and not overwrite:
        claims = ", ".join(f"{name!r} (world {owner!r})" for name, owner in taken.items())
        raise ValueError(
            f"cannot register world {profile.name!r}: name already registered: "
            f"{claims}; pass overwrite=True to replace"
        )
    for owner in set(taken.values()):
        unregister_world(owner)
    if profile.name in _PROFILES:
        if not overwrite:
            raise ValueError(
                f"world {profile.name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        unregister_world(profile.name)
    _PROFILES[profile.name] = profile
    for name in profile.import_names:
        _NAMES[name] = profile.name
    return profile


def unregister_world(name: str) -> None:
    """Remove the profile registered under *name* (canonical or alias)."""
    canonical = _NAMES.get(name)
    if canonical is None:
        raise ValueError(f"unknown world {name!r}")
    profile = _PROFILES.pop(canonical)
    for import_name in profile.import_names:
        _NAMES.pop(import_name, None)


def get_world(name: str) -> Optional[WorldProfile]:
    """The profile *name* (canonical or alias) resolves to, or ``None``."""
    _ensure_builtin_worlds()
    canonical = _NAMES.get(name)
    if canonical is None:
        return None
    return _PROFILES.get(canonical)


def resolve_world_name(name: str) -> Optional[str]:
    """Canonical name for any import name (alias-aware), or ``None``."""
    profile = get_world(name)
    return profile.name if profile is not None else None


def registered_worlds(include_aliases: bool = False) -> Tuple[str, ...]:
    """Registered canonical world names, sorted (optionally plus aliases)."""
    _ensure_builtin_worlds()
    if include_aliases:
        return tuple(sorted(_NAMES))
    return tuple(sorted(_PROFILES))


def world_aliases() -> Dict[str, str]:
    """Mapping of every registered *alias* to its canonical name."""
    _ensure_builtin_worlds()
    return {name: canonical for name, canonical in sorted(_NAMES.items()) if name != canonical}


def load_world(name: str) -> Tuple[Optional[Dict[str, Any]], Optional[Workspace]]:
    """Load the world library *name* imports (or ``(None, None)``)."""
    profile = get_world(name)
    if profile is None:
        return None, None
    return profile.load()


def fuzz_profiles() -> Dict[str, FuzzProfile]:
    """Canonical name -> :class:`FuzzProfile`, for worlds that define one."""
    _ensure_builtin_worlds()
    return {
        name: profile.fuzz
        for name, profile in sorted(_PROFILES.items())
        if profile.fuzz is not None
    }


def analysis_profile(name: str) -> Optional[AnalysisProfile]:
    """The :class:`AnalysisProfile` of the world *name* imports, if any."""
    profile = get_world(name)
    return profile.analysis if profile is not None else None


def corpus_feature_tokens() -> Tuple[Tuple[str, str], ...]:
    """World-contributed ``(token, label)`` feature pairs, in name order."""
    _ensure_builtin_worlds()
    tokens: List[Tuple[str, str]] = []
    for _, profile in sorted(_PROFILES.items()):
        tokens.extend(profile.corpus.feature_tokens)
    return tuple(tokens)


def _ensure_builtin_worlds() -> None:
    """Register the built-in world profiles exactly once."""
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    from .gta.profile import PROFILE as gta_profile
    from .mars.profile import PROFILE as mars_profile
    from .warehouse.profile import PROFILE as warehouse_profile

    for profile in (gta_profile, mars_profile, warehouse_profile):
        if profile.name not in _PROFILES:
            register_world(profile)


__all__ = [
    "RESERVED_NAMES",
    "WorldProfile",
    "analysis_profile",
    "corpus_feature_tokens",
    "fuzz_profiles",
    "get_world",
    "load_world",
    "register_world",
    "registered_worlds",
    "resolve_world_name",
    "unregister_world",
    "world_aliases",
]
