"""Fuzz campaign runner: generate, oracle-check, shrink, persist reproducers.

A campaign is a pure function of its master seed: program ``i`` uses the
derived seed ``derive_seed(master, i)``, so any find can be reproduced from
``(master seed, index)`` alone.  Campaigns mix three modes:

* **valid** — grammar-generated programs through the full oracle set;
* **invalid** — deliberately broken programs; compiling them must raise a
  :class:`~repro.core.errors.ScenicError` (anything else is a front-end
  crash bug);
* **mutation** — perturbed corpus programs (when a corpus is supplied);
  compile failures must be ScenicErrors, compile successes run the oracles.

Every failure is delta-shrunk to a minimal reproducer and written to the
regression directory (``tests/fuzz_regressions/`` by default) as a
``.scenic`` file plus a ``.json`` triage record, so each find becomes a
permanent regression test (``tests/test_fuzz_regressions.py`` replays the
directory).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..core.errors import ScenicError
from .oracles import OracleReport, run_oracles
from .program_gen import generate_invalid_program, generate_program, mutate_program
from .shrink import shrink_program

#: Default location for shrunk reproducers, relative to the repository root.
DEFAULT_REGRESSION_DIR = Path("tests") / "fuzz_regressions"


def derive_seed(master_seed: int, index: int) -> int:
    """A stable, well-mixed per-program seed (splitmix64-style)."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


@dataclass
class CampaignConfig:
    seed: int = 0
    count: int = 200
    time_budget: Optional[float] = None  # seconds; None = unlimited
    invalid_fraction: float = 0.2
    mutation_fraction: float = 0.1
    max_iterations: int = 300
    regression_dir: Optional[Path] = None  # None = don't persist finds
    shrink: bool = True
    strategies: Optional[Sequence] = None
    #: Run oracle E (statistical equivalence of ``batch`` vs ``rejection``)
    #: on every valid program — batch-sized, so opt-in (``--equivalence``).
    statistical: bool = False
    equivalence_samples: int = 120
    #: Pin every generated program to one registered world (``--world``;
    #: ``inline`` = no world import).  None keeps the generator's weighted
    #: world mix.
    world: Optional[str] = None


@dataclass
class Find:
    index: int
    seed: int
    mode: str
    source: str
    shrunk_source: str
    failures: List[str]

    def name(self) -> str:
        return f"fuzz_{self.mode}_{self.seed}"


@dataclass
class CampaignResult:
    config: CampaignConfig
    executed: int = 0
    passed: int = 0
    skipped: int = 0
    invalid_ok: int = 0
    finds: List[Find] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    mode_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.finds

    def summary(self) -> str:
        cut_short = (
            f" -- the time budget cut it short at {self.executed} of {self.config.count}"
            if self.executed < self.config.count else ""
        )
        lines = [
            f"fuzz campaign: {self.executed} programs in {self.elapsed_seconds:.1f}s "
            f"(seed {self.config.seed}){cut_short}",
            f"  pass={self.passed} skip={self.skipped} invalid-ok={self.invalid_ok} "
            f"finds={len(self.finds)}",
            f"  modes: "
            + ", ".join(f"{mode}={count}" for mode, count in sorted(self.mode_counts.items())),
        ]
        for find in self.finds:
            lines.append(f"  FIND #{find.index} seed={find.seed} mode={find.mode}:")
            for failure in find.failures[:4]:
                lines.append(f"    {failure}")
            lines.append("    reproducer:")
            for line in find.shrunk_source.splitlines():
                lines.append(f"      {line}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Invalid-program oracle
# ---------------------------------------------------------------------------


def check_invalid_program(source: str) -> Optional[str]:
    """Compile *source*, expecting a clean ScenicError (or a valid program).

    Returns a failure description when compilation escapes with anything
    that is not a :class:`ScenicError` — the "never crashes" contract of the
    front end.  Runs through :func:`repro.language.compile_scenario` so the
    artifact-cache layer is itself under the fuzzer's crash contract, and so
    a mutation-mode recheck of an already-seen program skips the parser.
    """
    from ..language import compile_scenario

    try:
        compile_scenario(source).scenario(fresh=True)
    except ScenicError:
        return None
    except Exception as error:  # noqa: BLE001 - this is the point
        return f"compile raised {type(error).__name__}: {error}"
    return None  # corrupted into a still-valid program; fine


# ---------------------------------------------------------------------------
# The campaign loop
# ---------------------------------------------------------------------------


def _pick_mode(seed: int, config: CampaignConfig, corpus: Sequence[str]) -> str:
    roll = (seed % 1000) / 1000.0
    if roll < config.invalid_fraction:
        return "invalid"
    if corpus and roll < config.invalid_fraction + config.mutation_fraction:
        return "mutation"
    return "valid"


def run_campaign(
    config: CampaignConfig,
    corpus: Sequence[str] = (),
    oracle: Optional[Callable[..., OracleReport]] = None,
    progress: Optional[Callable[[str], None]] = None,
    collector: Optional[Callable[..., None]] = None,
) -> CampaignResult:
    """Run one fuzz campaign; see the module docstring for the modes.

    *collector*, when given, is called as ``collector(program, report)`` for
    every grammar-generated program whose oracles all pass — the promotion
    hook the corpus pipeline (:mod:`repro.evals.promote`) uses to harvest
    known-good programs from a campaign instead of re-generating them.
    """
    oracle = oracle or run_oracles
    result = CampaignResult(config=config)
    start = time.perf_counter()

    for index in range(config.count):
        if config.time_budget is not None and time.perf_counter() - start > config.time_budget:
            break
        seed = derive_seed(config.seed, index)
        mode = _pick_mode(seed, config, corpus)
        result.mode_counts[mode] = result.mode_counts.get(mode, 0) + 1
        result.executed += 1

        if mode == "invalid":
            source = generate_invalid_program(seed)
            failure = check_invalid_program(source)
            if failure is None:
                result.invalid_ok += 1
                continue
            find = _make_find(index, seed, mode, source, [failure], config)
            result.finds.append(find)
            if progress:
                progress(f"FIND (invalid) at index {index}: {failure}")
            continue

        if mode == "mutation":
            base = corpus[seed % len(corpus)]
            source = mutate_program(base, seed)
            failure = check_invalid_program(source)
            if failure is not None:
                find = _make_find(index, seed, mode, source, [failure], config)
                result.finds.append(find)
                if progress:
                    progress(f"FIND (mutation) at index {index}: {failure}")
                continue
            # Corpus programs include the heavyweight examples (platoons,
            # perception stress); a tight budget keeps mutation mode cheap -
            # an infeasible mutant is a skip, which is fine.
            report = oracle(
                source,
                seed=seed,
                max_iterations=min(80, config.max_iterations),
                strategies=config.strategies,
                expect_valid=False,
            )
        else:
            program = generate_program(seed, world=config.world)
            report = oracle(
                program,
                max_iterations=config.max_iterations,
                strategies=config.strategies,
                statistical=config.statistical,
                equivalence_samples=config.equivalence_samples,
            )
            source = program.source

        if report.verdict == "pass":
            result.passed += 1
            if collector is not None and mode == "valid":
                collector(program, report)
        elif report.verdict == "skip":
            result.skipped += 1
        else:
            failures = [str(failure) for failure in report.failures]
            checks = getattr(program, "checks", ()) if mode == "valid" else ()
            find = _make_find(
                index, seed, mode, source, failures, config, oracle=oracle, checks=checks
            )
            result.finds.append(find)
            if progress:
                progress(f"FIND ({mode}) at index {index}: {failures[0]}")

    result.elapsed_seconds = time.perf_counter() - start
    if config.regression_dir is not None:
        persist_finds(result.finds, config.regression_dir)
    return result


def _make_find(
    index: int,
    seed: int,
    mode: str,
    source: str,
    failures: List[str],
    config: CampaignConfig,
    oracle: Optional[Callable[..., OracleReport]] = None,
    checks: Sequence = (),
) -> Find:
    shrunk = source
    if config.shrink:
        if mode in ("invalid", "mutation") and oracle is None:
            predicate = lambda candidate: check_invalid_program(candidate) is not None  # noqa: E731
        else:
            oracle = oracle or run_oracles

            def predicate(candidate: str) -> bool:
                # The generator's check plan is threaded through so planned-
                # check findings stay reproducible on shrunk candidates;
                # strict_checks=False drops checks whose object was removed.
                report = oracle(
                    candidate,
                    seed=seed,
                    max_iterations=config.max_iterations,
                    strategies=config.strategies,
                    expect_valid=False,
                    checks=checks,
                    strict_checks=False,
                )
                return report.verdict == "fail"

        shrunk = shrink_program(source, predicate)
    return Find(index, seed, mode, source, shrunk, failures)


def persist_finds(finds: Sequence[Find], directory: Path) -> List[Path]:
    """Write each find as ``<name>.scenic`` + ``<name>.json`` under *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for find in finds:
        scenic_path = directory / f"{find.name()}.scenic"
        scenic_path.write_text(find.shrunk_source)
        meta_path = directory / f"{find.name()}.json"
        meta_path.write_text(
            json.dumps(
                {
                    "seed": find.seed,
                    "index": find.index,
                    "mode": find.mode,
                    "failures": find.failures,
                    "original_source": find.source,
                },
                indent=1,
            )
            + "\n"
        )
        written.extend([scenic_path, meta_path])
    return written


__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Find",
    "run_campaign",
    "derive_seed",
    "check_invalid_program",
    "persist_finds",
    "DEFAULT_REGRESSION_DIR",
]
