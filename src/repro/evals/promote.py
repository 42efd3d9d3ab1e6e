"""Corpus growth: auto-promote interesting fuzzer programs into the corpus.

The fuzzer's grammar walk (:mod:`repro.fuzz.program_gen`) generates far
more well-formed programs than the hand-written gallery — the promotion
pipeline turns the good ones into permanent, graded corpus scenarios:

1. **Enumerate** the same derived-seed stream a fuzz campaign would
   (``derive_seed(master, index)``), so every promoted program is
   reproducible from ``(master seed, index)`` alone.
2. **Filter**: the program must compile and fill a small fixed-seed
   rejection batch within the iteration budget (compile+generate success —
   the acceptance bar every corpus entry must clear).
3. **Dedup** by compiled-artifact fingerprint — the same content address
   the artifact cache and the service use — against everything already in
   the manifest, so re-running promotion never duplicates a scenario.
4. **Stratify**: per-``(world, difficulty)`` bucket caps keep the corpus
   balanced instead of drowning in the easy inline programs the grammar
   emits most often; a program exercising a feature tag the corpus has
   seen fewer than :data:`RARE_FEATURE_COUNT` times is admitted even when
   its bucket is full.
5. **Tag**: world, feature list and measured difficulty tier land in the
   manifest entry (:class:`~repro.evals.corpus.CorpusEntry`).

Promoted programs are written under ``corpus/scenarios/`` as
``fz<seed>.scenic``; :func:`promote_to_examples` graduates the best of
them into ``examples/scenarios/`` (and thus into the golden-corpus replay)
when they prove feasible under every golden run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import RejectionError, ScenicError
from ..fuzz.program_gen import generate_program
from ..fuzz.runner import derive_seed
from .corpus import (
    CorpusEntry,
    EXAMPLES_DIR,
    Manifest,
    PROMOTED_DIR,
    REPO_ROOT,
    difficulty_tier,
    infer_features,
    infer_world,
)
from .golden import GOLDEN_MAX_ITERATIONS, GOLDEN_RUNS, golden_sample

#: Fixed-seed trial-generation parameters for the promotion filter.
TRIAL_SCENES = 4
TRIAL_MAX_ITERATIONS = 2500
TRIAL_SEED = 0x5EED

#: Per-(world, difficulty) cap on fuzz-promoted entries, as a fraction of
#: the growth target; keeps the corpus stratified (step 4 above).
BUCKET_FRACTION = 0.14

#: A feature tag seen fewer than this many times corpus-wide admits its
#: program past a full bucket.
RARE_FEATURE_COUNT = 3


@dataclass
class Measurement:
    fingerprint: str
    objects: int
    iterations_per_scene: float


def measure_source(
    source: str,
    trial_scenes: int = TRIAL_SCENES,
    max_iterations: int = TRIAL_MAX_ITERATIONS,
    seed: int = TRIAL_SEED,
) -> Measurement:
    """Compile + trial-generate *source* under rejection; raise on failure.

    Raises :class:`ScenicError` (compile/interpret problems) or
    :class:`RejectionError` (the budget ran out) — a program that raises
    either is not promoted.
    """
    from ..language import compile_scenario

    artifact = compile_scenario(source)
    scenario = artifact.scenario()
    iterations = 0
    for index in range(trial_scenes):
        scenario.generate(max_iterations=max_iterations, seed=derive_seed(seed, index))
        iterations += scenario.last_stats.iterations
    return Measurement(
        fingerprint=artifact.fingerprint,
        objects=len(scenario.objects),
        iterations_per_scene=iterations / trial_scenes,
    )


# ---------------------------------------------------------------------------
# Manifest construction
# ---------------------------------------------------------------------------


def ingest_examples(
    manifest: Manifest,
    examples_dir: Path = EXAMPLES_DIR,
    root: Path = REPO_ROOT,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Add every gallery scenario not yet in the manifest (measured + tagged).

    Gallery programs are known feasible (the golden corpus replays them),
    so they get the golden iteration budget rather than the promotion
    filter's tight one.
    """
    known = {entry.id for entry in manifest.entries}
    added = 0
    for path in sorted(examples_dir.glob("*.scenic")):
        if path.stem in known:
            continue
        source = path.read_text()
        measured = measure_source(
            source, trial_scenes=2, max_iterations=GOLDEN_MAX_ITERATIONS
        )
        entry = CorpusEntry(
            id=path.stem,
            path=str(path.relative_to(root)),
            world=infer_world(source),
            features=infer_features(source),
            difficulty=difficulty_tier(measured.iterations_per_scene),
            origin="paper-example",
            objects=measured.objects,
            fingerprint=measured.fingerprint,
            iterations_per_scene=measured.iterations_per_scene,
        )
        manifest.entries.append(entry)
        added += 1
        if progress is not None:
            progress(f"ingested {entry.id} ({entry.world}/{entry.difficulty})")
    return added


def _bucket_counts(manifest: Manifest) -> Dict[Tuple[str, str], int]:
    counts: Dict[Tuple[str, str], int] = {}
    for entry in manifest.entries:
        key = (entry.world, entry.difficulty)
        counts[key] = counts.get(key, 0) + 1
    return counts


def promote_from_fuzzer(
    manifest: Manifest,
    target: int,
    campaign_seed: int,
    max_programs: int = 10_000,
    promoted_dir: Path = PROMOTED_DIR,
    root: Path = REPO_ROOT,
    world: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Grow *manifest* to *target* scenarios from the fuzzer's seed stream.

    Returns the number of programs promoted.  Deterministic: the same
    ``(manifest state, target, campaign_seed, world)`` always promotes the
    same programs, because candidates are enumerated in derive-seed order
    and admission depends only on the manifest built so far.  Passing
    *world* pins every candidate to that registered world (or ``inline``),
    which is how a newly added world seeds its corpus strata.
    """
    promoted_dir.mkdir(parents=True, exist_ok=True)
    fingerprints = manifest.fingerprints()
    bucket_cap = max(8, math.ceil(target * BUCKET_FRACTION))
    promoted = 0
    for index in range(max_programs):
        if len(manifest) >= target:
            break
        seed = derive_seed(campaign_seed, index)
        program = generate_program(seed, world=world)
        scenario_id = f"fz{seed}"
        if any(entry.id == scenario_id for entry in manifest.entries):
            continue
        try:
            measured = measure_source(program.source)
        except (ScenicError, RejectionError):
            continue
        if measured.fingerprint in fingerprints:
            continue
        world = program.world or "inline"
        difficulty = difficulty_tier(measured.iterations_per_scene)
        features = sorted(set(program.features) | set(infer_features(program.source)))
        coverage = manifest.feature_coverage()
        rare = any(coverage.get(feature, 0) < RARE_FEATURE_COUNT for feature in features)
        counts = _bucket_counts(manifest)
        if counts.get((world, difficulty), 0) >= bucket_cap and not rare:
            continue
        path = promoted_dir / f"{scenario_id}.scenic"
        path.write_text(program.source)
        entry = CorpusEntry(
            id=scenario_id,
            path=str(path.relative_to(root)),
            world=world,
            features=features,
            difficulty=difficulty,
            origin="fuzz-promoted",
            objects=measured.objects,
            fingerprint=measured.fingerprint,
            iterations_per_scene=measured.iterations_per_scene,
            seed=seed,
        )
        manifest.entries.append(entry)
        fingerprints.add(measured.fingerprint)
        promoted += 1
        if progress is not None:
            progress(
                f"promoted {scenario_id} ({world}/{difficulty}, "
                f"{measured.iterations_per_scene:.1f} it/scene) "
                f"[{len(manifest)}/{target}]"
            )
    return promoted


# ---------------------------------------------------------------------------
# Golden-corpus graduation
# ---------------------------------------------------------------------------


def survives_golden_runs(source: str) -> bool:
    """Whether one scene generates under every golden run (:data:`GOLDEN_RUNS`)."""
    from ..language import compile_scenario

    for run in GOLDEN_RUNS:
        try:
            golden_sample(compile_scenario(source).scenario(fresh=True), run)
        except (ScenicError, RejectionError):
            return False
    return True


def promote_to_examples(
    manifest: Manifest,
    count: int,
    examples_dir: Path = EXAMPLES_DIR,
    root: Path = REPO_ROOT,
    progress: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Graduate *count* fuzz-promoted scenarios into the example gallery.

    Moves the ``.scenic`` file into ``examples/scenarios/`` (where the
    golden corpus, the fuzzer's mutation mode and the gallery tests pick it
    up) and repoints the manifest entry.  Candidates are screened with
    :func:`survives_golden_runs`, preferring world diversity (the
    golden corpus should stress every world, not just the easy inline
    programs).  Returns the graduated scenario ids — run
    ``tests/golden/regen.py`` on them afterwards to pin their streams.
    """
    candidates = [
        entry
        for entry in manifest
        if entry.origin == "fuzz-promoted" and entry.path.startswith("corpus/")
    ]
    # Round-robin the worlds so graduation is not all-inline.
    by_world: Dict[str, List[CorpusEntry]] = {}
    for entry in candidates:
        by_world.setdefault(entry.world, []).append(entry)
    ordered: List[CorpusEntry] = []
    while any(by_world.values()):
        for world in sorted(by_world):
            if by_world[world]:
                ordered.append(by_world[world].pop(0))
    graduated: List[str] = []
    for entry in ordered:
        if len(graduated) >= count:
            break
        source = entry.source(root)
        if not survives_golden_runs(source):
            continue
        old_path = root / entry.path
        new_path = examples_dir / f"{entry.id}.scenic"
        new_path.write_text(source)
        old_path.unlink()
        entry.path = str(new_path.relative_to(root))
        graduated.append(entry.id)
        if progress is not None:
            progress(f"graduated {entry.id} -> {entry.path}")
    return graduated


__all__ = [
    "Measurement",
    "ingest_examples",
    "measure_source",
    "promote_from_fuzzer",
    "promote_to_examples",
    "survives_golden_runs",
]
