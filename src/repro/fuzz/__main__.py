"""Command-line entry point: ``python -m repro.fuzz``.

Examples::

    # A 500-program campaign with a 60 s budget (the CI smoke job):
    PYTHONPATH=src python -m repro.fuzz --seed 20260729 --n 500 --time-budget 60

    # Reproduce one program of a campaign:
    PYTHONPATH=src python -m repro.fuzz --seed 20260729 --repro 17

    # Self-check: plant a strategy bug and verify the shrinker reduces it
    # to a <= 10-line reproducer:
    PYTHONPATH=src python -m repro.fuzz --selfcheck
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .oracles import run_oracles
from .program_gen import generate_program
from .runner import (
    DEFAULT_REGRESSION_DIR,
    CampaignConfig,
    derive_seed,
    run_campaign,
)


def _corpus_sources() -> list:
    """The example scenarios, used as the mutation-mode corpus when present."""
    scenario_dir = Path("examples") / "scenarios"
    if not scenario_dir.is_dir():
        return []
    return [path.read_text() for path in sorted(scenario_dir.glob("*.scenic"))]


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.world is not None and args.world != "inline":
        from repro.worlds.registry import registered_worlds, resolve_world_name

        if resolve_world_name(args.world) is None:
            names = ", ".join(("inline",) + registered_worlds(include_aliases=True))
            print(f"--world {args.world}: unknown world (try one of: {names})", file=sys.stderr)
            return 2
    regression_dir = None
    if args.out is not None:
        regression_dir = Path(args.out)
    elif not args.no_persist and DEFAULT_REGRESSION_DIR.parent.is_dir():
        regression_dir = DEFAULT_REGRESSION_DIR
    config = CampaignConfig(
        seed=args.seed,
        count=args.n,
        time_budget=args.time_budget,
        invalid_fraction=args.invalid_fraction,
        mutation_fraction=args.mutation_fraction,
        max_iterations=args.max_iterations,
        regression_dir=regression_dir,
        shrink=not args.no_shrink,
        world=args.world,
    )
    result = run_campaign(config, corpus=_corpus_sources(), progress=print)
    print(result.summary())
    if result.finds and regression_dir is not None:
        print(f"reproducers written to {regression_dir}/")
    return 0 if result.ok else 1


def _cmd_repro(args: argparse.Namespace) -> int:
    seed = derive_seed(args.seed, args.repro)
    program = generate_program(seed, world=args.world)
    print(f"# program {args.repro} of campaign seed {args.seed} ({program.describe()})")
    print(program.source)
    report = run_oracles(program, max_iterations=args.max_iterations)
    print(f"verdict: {report.verdict}" + (f" ({report.skip_reason})" if report.skip_reason else ""))
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.ok else 1


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Plant a differential bug and prove the pipeline catches + shrinks it.

    A deliberately buggy strategy (rejection plus a tiny heading drift on
    scenes with >= 3 objects) joins the exact-equivalence oracle set; the
    campaign must flag it, and the shrinker must reduce the find to a
    minimal (<= 10 line) reproducer.
    """
    from .selfcheck import run_selfcheck

    ok, report = run_selfcheck(seed=args.seed, max_programs=args.n, verbose=True)
    print(report)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Fuzz the Scenic pipeline with differential oracles.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign master seed")
    parser.add_argument("--n", type=int, default=200, help="number of programs to generate")
    parser.add_argument(
        "--time-budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--max-iterations", type=int, default=300, help="sampling budget per strategy"
    )
    parser.add_argument("--invalid-fraction", type=float, default=0.2)
    parser.add_argument("--mutation-fraction", type=float, default=0.1)
    parser.add_argument(
        "--out", type=str, default=None, help="directory for shrunk reproducers"
    )
    parser.add_argument(
        "--no-persist", action="store_true", help="do not write reproducer files"
    )
    parser.add_argument("--no-shrink", action="store_true", help="skip delta-shrinking finds")
    parser.add_argument(
        "--world", type=str, default=None, metavar="NAME",
        help="pin every generated program to one registered world "
        "('inline' = no world import); default keeps the weighted mix",
    )
    parser.add_argument(
        "--repro", type=int, default=None, metavar="INDEX",
        help="regenerate + re-oracle one program of the campaign and exit",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="plant a strategy bug and verify detection + shrinking end to end",
    )
    args = parser.parse_args(argv)

    if args.selfcheck:
        return _cmd_selfcheck(args)
    if args.repro is not None:
        return _cmd_repro(args)
    return _cmd_campaign(args)


if __name__ == "__main__":
    sys.exit(main())
