"""``python -m repro.evals`` — corpus promotion, scoring, and CI gating.

Subcommands::

    promote    grow the corpus from the fuzzer's seed stream (+ optionally
               graduate scenarios into the golden-corpus gallery)
    run        fixed-seed scoring pass -> results/EVALS.json (+ EVALS.md)
    check      re-score the stratified CI slice with the committed
               baseline's parameters and gate within tolerance bands
    selfcheck  plant a biased sampler and prove `check` flags it

Exit status: 0 on success; 1 when `check` finds regressions, `selfcheck`
fails, or `promote` misses its target.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .corpus import Manifest, MANIFEST_PATH
from .scorecard import (
    SCORECARD_JSON,
    SCORECARD_MD,
    build_scorecard,
    load_scorecard,
    write_scorecard,
)
from .scoring import DEFAULT_MAX_ITERATIONS, DEFAULT_SAMPLES, DEFAULT_STRATEGIES

#: The fixed seed behind the committed ``results/EVALS.json``.
EVALS_SEED = 20260808

#: Default stratified CI slice: a few scenarios per (world, difficulty)
#: bucket, hard tier excluded — sized to keep the CI evals job well under
#: its five-minute budget.
CI_PER_BUCKET = 2
CI_DIFFICULTIES = ("easy", "medium")


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda message: print(message, flush=True)


def _strategy_list(raw: Optional[str]) -> List[str]:
    if raw is None:
        return list(DEFAULT_STRATEGIES)
    return [name.strip() for name in raw.split(",") if name.strip()]


def _subset_entries(manifest: Manifest, args: argparse.Namespace):
    difficulties = tuple(
        tier.strip() for tier in args.difficulties.split(",") if tier.strip()
    )
    entries = manifest.stratified_subset(
        per_bucket=args.per_bucket, difficulties=difficulties
    )
    description = {
        "per_bucket": args.per_bucket,
        "difficulties": list(difficulties),
        "scenarios": [entry.id for entry in entries],
    }
    return entries, description


def cmd_promote(args: argparse.Namespace) -> int:
    from .promote import ingest_examples, promote_from_fuzzer, promote_to_examples

    progress = _progress(args.quiet)
    manifest = Manifest.load() if MANIFEST_PATH.exists() else Manifest()
    ingested = ingest_examples(manifest, progress=progress)
    promoted = promote_from_fuzzer(
        manifest,
        target=args.target,
        campaign_seed=args.seed,
        max_programs=args.max_programs,
        world=args.world,
        progress=progress,
    )
    graduated: List[str] = []
    if args.goldens:
        graduated = promote_to_examples(manifest, args.goldens, progress=progress)
    problems = manifest.validate()
    if problems:
        for problem in problems:
            print(f"manifest problem: {problem}", file=sys.stderr)
        return 1
    manifest.save()
    print(
        f"corpus: {len(manifest)} scenarios "
        f"({ingested} ingested, {promoted} promoted, {len(graduated)} graduated) "
        f"-> {MANIFEST_PATH}"
    )
    if graduated:
        print("regen goldens for: " + " ".join(graduated))
    return 0 if len(manifest) >= args.target else 1


def cmd_run(args: argparse.Namespace) -> int:
    manifest = Manifest.load()
    subset = None
    entries = None
    if args.subset == "ci":
        entries, subset = _subset_entries(manifest, args)
    document = build_scorecard(
        manifest,
        entries,
        seed=args.seed,
        samples=args.samples,
        max_iterations=args.max_iterations,
        strategies=_strategy_list(args.strategies),
        via_service=args.via_service,
        subset=subset,
        progress=_progress(args.quiet),
    )
    written = write_scorecard(
        document, json_path=Path(args.out), md_path=None if args.no_md else Path(args.md)
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import compare_scorecards

    baseline = load_scorecard(Path(args.baseline))
    manifest = Manifest.load()
    problems = manifest.validate()
    if problems:
        for problem in problems:
            print(f"manifest problem: {problem}", file=sys.stderr)
        return 1
    entries, subset = _subset_entries(manifest, args)
    # Score with the *baseline's* parameters so every deterministic metric
    # is directly comparable; only the slice is ours.
    current = build_scorecard(
        manifest,
        entries,
        seed=int(baseline["seed"]),
        samples=int(baseline["samples"]),
        max_iterations=int(baseline["max_iterations"]),
        strategies=[s for s in baseline["strategies"]],
        reference=str(baseline["reference"]),
        via_service=bool(baseline.get("via_service", False)),
        subset=subset,
        progress=_progress(args.quiet),
    )
    failures = compare_scorecards(current, baseline)
    if args.report:
        Path(args.report).write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    if failures:
        print(f"evals check: {len(failures)} regression(s) vs {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    scored = len(current.get("scenarios", {}))
    print(f"evals check: OK ({scored} scenarios within tolerance of {args.baseline})")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck

    outcome = run_selfcheck(
        seed=args.seed, samples=args.samples, progress=_progress(args.quiet)
    )
    print(f"selfcheck slice: {', '.join(outcome['scenarios'])}")
    print(f"honest re-run problems: {len(outcome['honest_problems'])} (want 0)")
    print(f"biased-run problems:    {len(outcome['biased_problems'])} (want > 0)")
    for problem in outcome["biased_problems"]:
        print(f"  flagged: {problem}")
    if outcome["passed"]:
        print("selfcheck: OK — the gate catches the planted bias")
        return 0
    print("selfcheck: FAILED — the regression gate is not doing its job", file=sys.stderr)
    return 1


def _add_subset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--per-bucket",
        type=int,
        default=CI_PER_BUCKET,
        help="scenarios per (world, difficulty) bucket in the CI slice",
    )
    parser.add_argument(
        "--difficulties",
        default=",".join(CI_DIFFICULTIES),
        help="comma-separated difficulty tiers included in the CI slice",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evals",
        description="graded scenario corpus + engine quality evals",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    # --quiet after the subcommand too; SUPPRESS keeps a --quiet given before it.
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress progress lines"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    promote = commands.add_parser(
        "promote", parents=[quiet], help="grow the corpus from the fuzzer"
    )
    promote.add_argument("--target", type=int, default=150, help="corpus size to reach")
    promote.add_argument("--seed", type=int, default=EVALS_SEED, help="master seed")
    promote.add_argument(
        "--max-programs", type=int, default=10_000, help="fuzzer programs to consider"
    )
    promote.add_argument(
        "--world",
        help="pin every candidate to one registered world (seeds a new world's strata)",
    )
    promote.add_argument(
        "--goldens",
        type=int,
        default=0,
        help="graduate this many promoted scenarios into examples/scenarios/",
    )
    promote.set_defaults(func=cmd_promote)

    run = commands.add_parser("run", parents=[quiet], help="score the corpus into a scorecard")
    run.add_argument("--seed", type=int, default=EVALS_SEED)
    run.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    run.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS)
    run.add_argument(
        "--strategies", help="comma-separated strategies scored against the reference"
    )
    run.add_argument(
        "--subset",
        choices=("full", "ci"),
        default="full",
        help="score the whole corpus or the stratified CI slice",
    )
    run.add_argument(
        "--via-service",
        action="store_true",
        help="score through the generation service instead of in-process",
    )
    run.add_argument("--out", default=str(SCORECARD_JSON))
    run.add_argument("--md", default=str(SCORECARD_MD))
    run.add_argument("--no-md", action="store_true", help="skip the markdown rendering")
    _add_subset_arguments(run)
    run.set_defaults(func=cmd_run)

    check = commands.add_parser(
        "check", parents=[quiet], help="gate the CI slice against the baseline"
    )
    check.add_argument("--baseline", default=str(SCORECARD_JSON))
    check.add_argument(
        "--report", help="also write the freshly scored slice to this JSON path"
    )
    _add_subset_arguments(check)
    check.set_defaults(func=cmd_check)

    selfcheck = commands.add_parser(
        "selfcheck", parents=[quiet], help="prove `check` flags a planted bias"
    )
    selfcheck.add_argument("--seed", type=int, default=4242)
    selfcheck.add_argument("--samples", type=int, default=40)
    selfcheck.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
