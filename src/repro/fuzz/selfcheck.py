"""End-to-end validation of the fuzzing pipeline on a *planted* bug.

``run_selfcheck`` registers a deliberately faulty sampling strategy — plain
rejection plus a tiny heading drift on the last object of any scene with at
least three objects — in the oracle's exact-equivalence set, then verifies:

1. the differential oracle flags a generated program within a bounded
   number of attempts, and
2. the ddmin shrinker reduces the failing program to a minimal reproducer
   of at most :data:`MAX_REPRODUCER_LINES` lines (an ego plus two objects is
   all the bug needs).

This is the acceptance gate for "a planted oracle violation shrinks to a
<= 10-line reproducer", runnable any time with
``python -m repro.fuzz --selfcheck`` and exercised by
``tests/test_fuzz_shrink.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sampling.strategies import RejectionSampler
from .oracles import OracleReport, run_oracles
from .program_gen import generate_program
from .runner import derive_seed
from .shrink import shrink_program

MAX_REPRODUCER_LINES = 10


class PlantedDriftSampler(RejectionSampler):
    """Rejection sampling with a planted bug: drifts one heading slightly.

    The drift (1e-3 rad on the last object) is far above the oracles'
    1e-9 tolerance but small enough that nothing else (containment,
    collisions) notices — exactly the kind of silent distribution shift the
    differential oracle exists to catch.
    """

    name = "planted-drift"

    def sample(self, scenario, max_iterations, rng):
        scene, stats = super().sample(scenario, max_iterations, rng)
        if scene is not None and len(scene.objects) >= 3:
            victim = scene.objects[-1]
            victim._assign_property("heading", float(victim.heading) + 1e-3)
        return scene, stats


def _oracle_strategies():
    # The planted strategy mimics rejection's RNG stream, so it joins the
    # exact-equivalence set via its instance (no registry mutation needed).
    return ["rejection", "vectorized", PlantedDriftSampler()]


def planted_oracle(program, **kwargs) -> OracleReport:
    """The oracle configured with the planted-buggy strategy."""
    kwargs.setdefault("strategies", _oracle_strategies())
    return run_oracles(program, **kwargs)


# The exact-equivalence oracle only compares the contract names it lists, so
# teach it about the planted one for the duration of a self-check.
def _with_planted_contract():
    import repro.fuzz.oracles as oracles_module

    class _Patch:
        def __enter__(self):
            self._saved = oracles_module.EXACT_EQUIVALENCE_STRATEGIES
            oracles_module.EXACT_EQUIVALENCE_STRATEGIES = tuple(self._saved) + ("planted-drift",)
            return self

        def __exit__(self, *exc):
            oracles_module.EXACT_EQUIVALENCE_STRATEGIES = self._saved

    return _Patch()


def run_selfcheck(
    seed: int = 0, max_programs: int = 200, verbose: bool = False
) -> Tuple[bool, str]:
    """Returns ``(ok, human-readable report)``; see the module docstring."""
    with _with_planted_contract():
        failing_program = None
        failing_seed: Optional[int] = None
        attempts = 0
        for index in range(max_programs):
            attempts += 1
            program_seed = derive_seed(seed, index)
            program = generate_program(program_seed)
            if program.object_count < 3:
                continue  # the planted bug needs >= 3 objects
            report = planted_oracle(program, max_iterations=300)
            if report.verdict == "fail" and any(
                failure.oracle == "strategy-equivalence" for failure in report.failures
            ):
                failing_program = program
                failing_seed = program_seed
                break
        if failing_program is None:
            return False, f"planted bug not detected in {attempts} programs (seed {seed})"

        def predicate(source: str) -> bool:
            candidate_report = planted_oracle(
                source, seed=failing_seed, max_iterations=300, expect_valid=False
            )
            return candidate_report.verdict == "fail" and any(
                failure.oracle == "strategy-equivalence"
                for failure in candidate_report.failures
            )

        shrunk = shrink_program(failing_program.source, predicate)
        line_count = len([line for line in shrunk.splitlines() if line.strip()])
        ok = line_count <= MAX_REPRODUCER_LINES
        lines = [
            f"planted-drift bug detected after {attempts} programs "
            f"(program seed {failing_seed})",
            f"original reproducer: {len(failing_program.source.splitlines())} lines; "
            f"shrunk: {line_count} lines (limit {MAX_REPRODUCER_LINES})",
        ]
        if verbose or not ok:
            lines.append("shrunk reproducer:")
            lines.extend(f"  {line}" for line in shrunk.splitlines())
        lines.append("selfcheck PASSED" if ok else "selfcheck FAILED")
        return ok, "\n".join(lines)


__all__ = ["PlantedDriftSampler", "run_selfcheck", "planted_oracle", "MAX_REPRODUCER_LINES"]
