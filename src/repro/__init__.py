"""Reproduction of "Scenic: A Language for Scenario Specification and Scene
Generation" (Fremont et al., PLDI 2019).

Subpackages
-----------

* :mod:`repro.core` — the probabilistic runtime (distributions, objects,
  specifiers, scenarios, rejection sampling and pruning).
* :mod:`repro.geometry` — the computational-geometry substrate (scalar ops
  plus the vectorized batch kernel).
* :mod:`repro.language` — the Scenic DSL: lexer, parser, interpreter, and
  the compile-once artifact cache (``compile_scenario``).
* :mod:`repro.analysis` — static requirement analysis: interval arithmetic
  and the AST walk deriving the ``PruneBounds`` that make Sec. 5.2 pruning
  automatic.
* :mod:`repro.sampling` — the pluggable scene-sampling engine: one
  candidate loop and its strategies (rejection / batch / vectorized).
* :mod:`repro.service` — the async, process-sharded generation service over
  compiled artifacts (``GenerationService``, HTTP server, CLI).
* :mod:`repro.fuzz` — the grammar-driven scenario fuzzer and differential
  oracles guarding all of the above.
* :mod:`repro.worlds` — world libraries (the GTA-like road world used by the
  case study, and the Mars-rover world).
* :mod:`repro.perception` — the synthetic rendering + car-detection pipeline
  standing in for GTA V + squeezeDet.
* :mod:`repro.experiments` — harnesses regenerating every table and figure of
  the paper's evaluation.

The documentation site under ``docs/`` starts at ``docs/index.md`` (layered
architecture overview) and ``docs/language.md`` (the language reference).
"""

__version__ = "1.0.0"

from . import core, geometry

__all__ = ["core", "geometry", "__version__"]
