"""Compile-once, sample-many: scenario artifacts and the artifact cache.

The paper treats a Scenic program as an artifact that is *compiled once and
sampled many times* (Sec. 5), but historically every ``Scenario``
construction re-lexed, re-parsed and re-interpreted the source.  This module
splits compilation into an explicit, reusable step:

``compile_scenario(source)`` returns a :class:`CompiledScenario` — the
parsed AST plus lazily-derived metadata (the ego's index and each object's
class) — and caches it,
keyed by a content hash of the source, in a process-wide in-memory LRU
(:class:`ArtifactCache`).  Warm-path construction therefore skips the
lexer and parser entirely; the fully
interned fast path (``compile_scenario(source).scenario()``) also skips the
interpreter and returns a shared, ready-to-sample
:class:`~repro.core.scenario.Scenario`.

Typical use::

    from repro.language import compile_scenario

    artifact = compile_scenario(open("two_cars.scenic").read())
    artifact.fingerprint            # content address (sha256, stable)
    scenario = artifact.scenario()  # shared instance; parser+interpreter skipped when warm
    scene = scenario.generate(seed=0)

    fresh = artifact.scenario(fresh=True)   # independent Scenario (e.g. for pruning)
    artifact.metadata.objects               # (ObjectSummary(index=0, class_name='Car'), ...)

Artifacts never leave their process: :mod:`repro.service` ships a
program's source text to its workers, and each worker compiles it into its
own cache.

Sharing caveat: ``artifact.scenario()`` returns one shared ``Scenario``
instance per artifact.  ``prune_scenario`` rewrites sampling regions in
place, so anything that mutates a scenario should request
``scenario(fresh=True)``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.scenario import Scenario
from . import ast_nodes as ast
from .parser import parse_program

#: Salt folded into every fingerprint.  It stays fixed: fingerprints are
#: published content addresses (``corpus/manifest.json`` pins them), so
#: changing it would re-address every program.
ARTIFACT_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def normalize_source(source: str) -> str:
    """Canonical text form used for fingerprinting.

    Differences that cannot change the token stream — line-ending style,
    trailing whitespace, trailing blank lines — are erased, so equivalent
    sources share one artifact.
    """
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n" if lines else ""


def source_fingerprint(source: str) -> str:
    """The artifact cache key: a stable sha256 over the normalized source.

    The hash is salted with :data:`ARTIFACT_FORMAT_VERSION`.
    """
    digest = hashlib.sha256()
    digest.update(f"scenic-artifact-v{ARTIFACT_FORMAT_VERSION}\n".encode("utf-8"))
    digest.update(normalize_source(source).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Static metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectSummary:
    """One scenario object, by scenario index: what its creation made."""

    index: int
    class_name: str


@dataclass(frozen=True)
class ArtifactMetadata:
    """Per-program facts, derived once and cached on the artifact.

    Plain data: the pruning analysis cross-checks the object creations it
    sees in the AST against these (``analysis.analyzer`` ``verify_mapping``).
    """

    ego_index: int
    objects: Tuple[ObjectSummary, ...]


def _metadata_from_scenario(scenario: Scenario) -> ArtifactMetadata:
    return ArtifactMetadata(
        ego_index=scenario.objects.index(scenario.ego),
        objects=tuple(
            ObjectSummary(index=index, class_name=type(scenic_object).__name__)
            for index, scenic_object in enumerate(scenario.objects)
        ),
    )


# ---------------------------------------------------------------------------
# The compiled artifact
# ---------------------------------------------------------------------------


class CompiledScenario:
    """A compile-once, sample-many Scenic program artifact.

    Holds the parsed AST (``program``), the content address
    (``fingerprint``) and lazily-computed :class:`ArtifactMetadata`.  The
    interpreter runs only when a :class:`Scenario` is actually requested;
    the default call interns one shared scenario per artifact so repeated
    warm-path construction costs a dictionary lookup.
    """

    def __init__(self, source: str, fingerprint: str, program: ast.Program):
        self.source = source
        self.fingerprint = fingerprint
        self.program = program
        self._lock = threading.Lock()
        self._shared_scenario: Optional[Scenario] = None
        self._metadata: Optional[ArtifactMetadata] = None
        self._prune_bounds: Optional[Any] = None

    # -- scenario construction ---------------------------------------------------

    def scenario(
        self,
        fresh: bool = False,
        workspace: Optional[Any] = None,
        extra_names: Optional[Dict[str, Any]] = None,
    ) -> Scenario:
        """A :class:`Scenario` for this program, skipping the parser entirely.

        With no arguments, returns a *shared* interned scenario (built on
        first use): the warm fast path.  ``fresh=True`` — or passing a
        *workspace* / *extra_names* override — re-runs the interpreter over
        the cached AST and returns an independent scenario; use it whenever
        the scenario will be mutated (``prune_scenario`` rewrites sampling
        regions in place) or when call sites must not share RNG-free state
        such as ``last_stats``.
        """
        if fresh or workspace is not None or extra_names is not None:
            return self._interpret(workspace=workspace, extra_names=extra_names)
        with self._lock:
            if self._shared_scenario is None:
                self._shared_scenario = self._interpret()
            return self._shared_scenario

    def _interpret(
        self,
        workspace: Optional[Any] = None,
        extra_names: Optional[Dict[str, Any]] = None,
    ) -> Scenario:
        from .interpreter import Interpreter

        interpreter = Interpreter(extra_names=extra_names)
        scenario = interpreter.run_program(self.program, workspace=workspace)
        # Back-reference for bound resolution: pruning asks the artifact for
        # its cached static-analysis bounds (see ``prune_bounds``).
        scenario.compiled_artifact = self
        return scenario

    # -- static analysis -----------------------------------------------------------

    @property
    def metadata(self) -> ArtifactMetadata:
        """Facts about the program's objects (computed once, then cached).

        Deriving them needs one interpretation, so first access builds (and
        interns) the shared scenario as a side effect; subsequent accesses
        are free.
        """
        with self._lock:
            if self._metadata is not None:
                return self._metadata
        scenario = self.scenario()
        with self._lock:
            if self._metadata is None:
                self._metadata = _metadata_from_scenario(scenario)
            return self._metadata

    def prune_bounds(self) -> Any:
        """Static pruning bounds for this program (Sec. 5.2's analysis).

        Runs :func:`repro.analysis.analyze_program` over the cached AST and
        metadata on first call, then returns the cached
        :class:`~repro.analysis.PruneBounds`, so a program is analyzed
        once per process.
        """
        with self._lock:
            if self._prune_bounds is not None:
                return self._prune_bounds
        from ..analysis import analyze_program

        bounds = analyze_program(self.program, self.metadata)
        with self._lock:
            if self._prune_bounds is None:
                self._prune_bounds = bounds
            return self._prune_bounds

    def __repr__(self) -> str:
        return f"CompiledScenario({self.fingerprint[:12]}…, {len(self.source)} chars)"


# ---------------------------------------------------------------------------
# The artifact cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ArtifactCache`."""

    memory_hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class ArtifactCache:
    """Content-addressed, in-process LRU of :class:`CompiledScenario` artifacts.

    Holds up to ``max_memory`` artifacts and is thread-safe.  ``get`` is the
    only entry point most callers need::

        cache = ArtifactCache(max_memory=64)
        artifact = cache.get(source)      # compiles at most once per content
        cache.stats.memory_hits
    """

    def __init__(self, max_memory: int = 128):
        self.max_memory = max(1, int(max_memory))
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, CompiledScenario]" = OrderedDict()

    # -- lookup -------------------------------------------------------------------

    def get(self, source: str) -> CompiledScenario:
        """The artifact for *source*: a cache hit or a fresh compile."""
        fingerprint = source_fingerprint(source)
        artifact = self._lookup(fingerprint)
        if artifact is not None:
            return artifact
        with self._lock:
            self.stats.misses += 1
        artifact = CompiledScenario(source, fingerprint, parse_program(source))
        self.put(artifact)
        return artifact

    def lookup_fingerprint(self, fingerprint: str) -> Optional[CompiledScenario]:
        """The cached artifact for a known content address, or ``None``.

        Lets clients address previously published programs by hash alone
        (the :mod:`repro.service` protocol does this); unlike :meth:`get`
        it can not compile, so a miss is just ``None``.
        """
        return self._lookup(fingerprint)

    def _lookup(self, fingerprint: str) -> Optional[CompiledScenario]:
        with self._lock:
            artifact = self._memory.get(fingerprint)
            if artifact is not None:
                self._memory.move_to_end(fingerprint)
                self.stats.memory_hits += 1
            return artifact

    # -- insertion ----------------------------------------------------------------

    def put(self, artifact: CompiledScenario) -> None:
        """Insert an artifact (evicting LRU entries as needed)."""
        with self._lock:
            self._memory[artifact.fingerprint] = artifact
            self._memory.move_to_end(artifact.fingerprint)
            while len(self._memory) > self.max_memory:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached artifact."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._memory


# ---------------------------------------------------------------------------
# Module-level default cache and entry points
# ---------------------------------------------------------------------------

_default_cache = ArtifactCache()

#: Sentinel distinguishing "use the default cache" from "no cache at all".
_USE_DEFAULT = object()


def compile_scenario(source: str, cache: Optional[ArtifactCache] = _USE_DEFAULT) -> CompiledScenario:
    """Compile Scenic *source* into a cached :class:`CompiledScenario`.

    The single front door to compilation: the artifact is looked up in
    *cache* (the process-wide default unless overridden; pass ``None`` to
    force an uncached fresh compile) by content hash, so compiling the same
    program twice parses it once.  Syntax errors surface immediately as
    :class:`~repro.core.errors.ScenicError` subclasses and are never cached;
    runtime errors surface when a scenario is requested from the artifact.
    """
    if cache is None:
        source_text = str(source)
        return CompiledScenario(
            source_text, source_fingerprint(source_text), parse_program(source_text)
        )
    if cache is _USE_DEFAULT:
        cache = _default_cache
    return cache.get(str(source))


def scenario_from_string(
    source: str,
    workspace: Optional[Any] = None,
    extra_names: Optional[Dict[str, Any]] = None,
) -> Scenario:
    """Compile a Scenic program given as a string into a Scenario.

    Routed through the artifact cache: repeated compilation of the same
    source skips the lexer and parser and re-runs only the interpreter, so
    each call still gets an *independent* scenario (matching the historical
    semantics — callers may prune or otherwise mutate the result freely).
    For the fully interned fast path that also skips the interpreter, use
    ``compile_scenario(source).scenario()``.
    """
    return compile_scenario(source).scenario(
        fresh=True, workspace=workspace, extra_names=extra_names
    )


def scenario_from_file(
    path: Any,
    workspace: Optional[Any] = None,
    extra_names: Optional[Dict[str, Any]] = None,
) -> Scenario:
    """Compile a ``.scenic`` file into a Scenario (see :func:`scenario_from_string`)."""
    source = Path(path).read_text()
    return scenario_from_string(source, workspace=workspace, extra_names=extra_names)


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactCache",
    "ArtifactMetadata",
    "CacheStats",
    "CompiledScenario",
    "ObjectSummary",
    "compile_scenario",
    "normalize_source",
    "scenario_from_file",
    "scenario_from_string",
    "source_fingerprint",
]
