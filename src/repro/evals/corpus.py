"""The graded scenario corpus: manifest model, tagging, and subset selection.

The corpus is the set of ``.scenic`` programs the quality-eval harness
scores the engine against.  It is described by a single committed document,
``corpus/manifest.json``::

    {
      "schema": 1,
      "scenarios": [
        {
          "id": "two_cars",
          "path": "examples/scenarios/two_cars.scenic",
          "world": "...",                    # registered world name | inline
          "features": ["facing", "require", ...],
          "difficulty": "medium",            # easy | medium | hard
          "origin": "paper-example",         # paper-example | fuzz-promoted
          "objects": 3,
          "fingerprint": "sha256...",        # content address (dedup key)
          "iterations_per_scene": 12.5       # measured at promotion time
        },
        ...
      ]
    }

Scenario programs live in two places: the hand-written paper gallery under
``examples/scenarios/`` (which also feeds the golden corpus) and the
fuzzer-promoted programs under ``corpus/scenarios/``.  ``path`` is always
relative to the repository root, so the manifest is position-independent.

Difficulty is *measured*, not guessed: the promotion pipeline samples a
small fixed-seed rejection batch and tiers the scenario by mean candidate
iterations per accepted scene (:func:`difficulty_tier`).  The tags drive
the CI subset (:meth:`Manifest.stratified_subset`): cheap tiers run on
every push, the full graded corpus runs in the local ``evals run`` pass
that produces the committed scorecard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Repository root (src/repro/evals/corpus.py -> three parents up from src/).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default manifest + promoted-scenario locations, relative to the repo root.
CORPUS_DIR = REPO_ROOT / "corpus"
MANIFEST_PATH = CORPUS_DIR / "manifest.json"
PROMOTED_DIR = CORPUS_DIR / "scenarios"
EXAMPLES_DIR = REPO_ROOT / "examples" / "scenarios"

MANIFEST_SCHEMA = 1


def _registered_worlds() -> Tuple[str, ...]:
    from ..worlds.registry import registered_worlds

    return registered_worlds()


#: Stratification buckets: every registered world plus ``inline`` (no world
#: imported).  Derived from the world registry, so adding a world extends
#: the corpus schema without touching this module.
WORLDS: Tuple[str, ...] = ("inline",) + _registered_worlds()
DIFFICULTIES = ("easy", "medium", "hard")

#: Tier thresholds on mean rejection iterations per accepted scene.  An
#: ``easy`` scenario accepts almost every candidate; a ``hard`` one burns a
#: three-digit candidate budget per scene (visibility cones, tight
#: clearances) and is what the pruning pass exists for.
EASY_MAX_ITERATIONS_PER_SCENE = 8.0
MEDIUM_MAX_ITERATIONS_PER_SCENE = 60.0

#: Source tokens scanned by :func:`infer_features`; ordered so feature lists
#: are stable across runs.  These mirror the fuzzer's feature labels, so
#: hand-written gallery scenarios and promoted fuzz programs are tagged in
#: the same vocabulary.  World-specific tokens (region names, deviation
#: properties) come from each world's :class:`CorpusProfile` and are
#: appended after these generic ones.
_GENERIC_FEATURE_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("class ", "class"),
    ("def ", "def"),
    ("if ", "if"),
    ("for ", "for"),
    ("while ", "while"),
    ("param ", "param"),
    ("require[", "soft-require"),
    ("require", "require"),
    ("mutate", "mutate"),
    ("at ", "at"),
    ("offset by", "offset by"),
    ("left of", "left of"),
    ("right of", "right of"),
    ("ahead of", "ahead of"),
    ("behind", "behind"),
    ("beyond", "beyond"),
    ("visible", "visible"),
    ("following", "following"),
    ("facing toward", "facing toward"),
    ("facing away from", "facing away from"),
    ("apparently facing", "apparently facing"),
    ("facing", "facing"),
    ("relative to", "relative to"),
    ("with ", "with"),
    ("Range(", "Range"),
    ("Normal(", "Normal"),
    ("TruncatedNormal(", "Normal"),
    ("Uniform(", "Uniform"),
    ("Discrete(", "Discrete"),
    ("resample(", "resample"),
    (" deg", "deg"),
)


def _feature_tokens() -> Tuple[Tuple[str, str], ...]:
    """Generic tokens plus every registered world's corpus tokens."""
    from ..worlds.registry import corpus_feature_tokens

    return _GENERIC_FEATURE_TOKENS + corpus_feature_tokens()


def infer_features(source: str) -> List[str]:
    """Feature tags for *source*, by token scan (stable order, no dups)."""
    found: List[str] = []
    for token, label in _feature_tokens():
        if token in source and label not in found:
            found.append(label)
    return found


def infer_world(source: str) -> str:
    """Which world a program compiles against (``inline`` = none imported).

    Import names are resolved through the world registry's alias map, so
    ``import gta`` tags the same bucket as the canonical library name.
    """
    from ..worlds.registry import resolve_world_name

    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("import "):
            name = stripped.split()[1]
            canonical = resolve_world_name(name)
            if canonical is not None:
                return canonical
    return "inline"


def difficulty_tier(iterations_per_scene: float) -> str:
    """Tier a scenario by measured rejection cost per accepted scene."""
    if iterations_per_scene <= EASY_MAX_ITERATIONS_PER_SCENE:
        return "easy"
    if iterations_per_scene <= MEDIUM_MAX_ITERATIONS_PER_SCENE:
        return "medium"
    return "hard"


@dataclass
class CorpusEntry:
    """One graded scenario of the corpus (see the module docstring)."""

    id: str
    path: str  # relative to the repository root
    world: str
    features: List[str]
    difficulty: str
    origin: str
    objects: int
    fingerprint: str
    iterations_per_scene: float
    #: Promotion provenance for fuzz-promoted entries (campaign derive seed).
    seed: Optional[int] = None

    def source(self, root: Path = REPO_ROOT) -> str:
        return (root / self.path).read_text()

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "id": self.id,
            "path": self.path,
            "world": self.world,
            "features": list(self.features),
            "difficulty": self.difficulty,
            "origin": self.origin,
            "objects": self.objects,
            "fingerprint": self.fingerprint,
            "iterations_per_scene": round(float(self.iterations_per_scene), 3),
        }
        if self.seed is not None:
            record["seed"] = self.seed
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "CorpusEntry":
        return cls(
            id=str(record["id"]),
            path=str(record["path"]),
            world=str(record["world"]),
            features=[str(feature) for feature in record.get("features", [])],
            difficulty=str(record["difficulty"]),
            origin=str(record.get("origin", "unknown")),
            objects=int(record.get("objects", 0)),
            fingerprint=str(record.get("fingerprint", "")),
            iterations_per_scene=float(record.get("iterations_per_scene", 0.0)),
            seed=int(record["seed"]) if record.get("seed") is not None else None,
        )


@dataclass
class Manifest:
    """The corpus manifest: a validated list of :class:`CorpusEntry`."""

    entries: List[CorpusEntry] = field(default_factory=list)

    # -- persistence --------------------------------------------------------------

    @classmethod
    def load(cls, path: Path = MANIFEST_PATH) -> "Manifest":
        document = json.loads(Path(path).read_text())
        if document.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported corpus manifest schema {document.get('schema')!r} "
                f"(expected {MANIFEST_SCHEMA})"
            )
        return cls(entries=[CorpusEntry.from_dict(r) for r in document["scenarios"]])

    def save(self, path: Path = MANIFEST_PATH) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": MANIFEST_SCHEMA,
            "scenarios": [entry.as_dict() for entry in sorted(self.entries, key=lambda e: e.id)],
        }
        path.write_text(json.dumps(document, indent=1) + "\n")
        return path

    # -- integrity ----------------------------------------------------------------

    def validate(self, root: Path = REPO_ROOT) -> List[str]:
        """Structural problems with the manifest (empty list = valid)."""
        problems: List[str] = []
        seen_ids: set = set()
        seen_fingerprints: set = set()
        for entry in self.entries:
            if entry.id in seen_ids:
                problems.append(f"duplicate scenario id {entry.id!r}")
            seen_ids.add(entry.id)
            if entry.fingerprint:
                if entry.fingerprint in seen_fingerprints:
                    problems.append(f"{entry.id}: duplicate fingerprint {entry.fingerprint[:12]}…")
                seen_fingerprints.add(entry.fingerprint)
            if entry.world not in WORLDS:
                problems.append(f"{entry.id}: unknown world {entry.world!r}")
            if entry.difficulty not in DIFFICULTIES:
                problems.append(f"{entry.id}: unknown difficulty {entry.difficulty!r}")
            if not entry.features:
                problems.append(f"{entry.id}: no feature tags")
            if not (root / entry.path).is_file():
                problems.append(f"{entry.id}: missing program file {entry.path}")
        return problems

    # -- lookups ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(sorted(self.entries, key=lambda entry: entry.id))

    def ids(self) -> List[str]:
        return sorted(entry.id for entry in self.entries)

    def get(self, scenario_id: str) -> CorpusEntry:
        for entry in self.entries:
            if entry.id == scenario_id:
                return entry
        raise KeyError(scenario_id)

    def fingerprints(self) -> set:
        return {entry.fingerprint for entry in self.entries if entry.fingerprint}

    def by_bucket(self) -> Dict[Tuple[str, str], List[CorpusEntry]]:
        """Entries grouped by ``(world, difficulty)``, each group id-sorted."""
        buckets: Dict[Tuple[str, str], List[CorpusEntry]] = {}
        for entry in sorted(self.entries, key=lambda e: e.id):
            buckets.setdefault((entry.world, entry.difficulty), []).append(entry)
        return buckets

    def feature_coverage(self) -> Dict[str, int]:
        """How many scenarios exercise each feature tag."""
        coverage: Dict[str, int] = {}
        for entry in self.entries:
            for feature in entry.features:
                coverage[feature] = coverage.get(feature, 0) + 1
        return dict(sorted(coverage.items()))

    def stratified_subset(
        self,
        per_bucket: int = 8,
        difficulties: Sequence[str] = ("easy", "medium"),
        include: Iterable[str] = (),
    ) -> List[CorpusEntry]:
        """A difficulty-capped, world-stratified subset (the CI slice).

        Takes up to *per_bucket* id-sorted entries from every
        ``(world, difficulty)`` bucket whose tier is in *difficulties*, plus
        every id in *include* (regardless of tier) — deterministic, so the
        committed scorecard and the CI rerun always pick the same slice.
        """
        wanted = set(include)
        chosen: List[CorpusEntry] = []
        for (_world, difficulty), bucket in sorted(self.by_bucket().items()):
            if difficulty in difficulties:
                chosen.extend(bucket[:per_bucket])
        chosen_ids = {entry.id for entry in chosen}
        for entry in sorted(self.entries, key=lambda e: e.id):
            if entry.id in wanted and entry.id not in chosen_ids:
                chosen.append(entry)
        return sorted(chosen, key=lambda entry: entry.id)


__all__ = [
    "CorpusEntry",
    "Manifest",
    "CORPUS_DIR",
    "EXAMPLES_DIR",
    "MANIFEST_PATH",
    "MANIFEST_SCHEMA",
    "PROMOTED_DIR",
    "REPO_ROOT",
    "DIFFICULTIES",
    "WORLDS",
    "difficulty_tier",
    "infer_features",
    "infer_world",
]
