"""Hard and soft requirements (the declarative part of a scenario).

``require B`` conditions the scenario's distribution on ``B`` holding
(equivalent to an "observation" in other PPLs); ``require[p] B`` is a soft
requirement enforced with probability ``p`` per candidate scene (Sec. 5.1):
each candidate draws a fresh coin, and only a candidate whose coin comes up
enforced must satisfy ``B``.  That does *not* guarantee ``B`` holds with
probability at least ``p`` in the induced distribution.  With ``q`` the
probability that ``B`` holds in a candidate passing every other check, the
accepted scenes satisfy ``B`` with probability ``q / (1 - p + p q)``: at
least ``q``, but below ``p`` whenever ``q < p / (1 + p)`` (0.769 for
``p = 0.9`` and ``q = 0.25``).

A requirement's condition can be given in two forms:

* a *value* — typically a random boolean built from lifted operators, which
  is concretised against the scene's joint sample; this is what the DSL
  interpreter produces;
* a *callable* — convenient for the Python builder API; it receives a
  :class:`SampleResolver` that maps any random value or scenario object to
  its concrete incarnation in the candidate scene.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .distributions import Range, Sample, concretize
from .errors import ScenicError


class SampleResolver:
    """Gives requirement callables access to the candidate scene's values."""

    def __init__(self, sample: Sample):
        self._sample = sample

    def value(self, thing: Any) -> Any:
        """Concrete value of a distribution or scenario object in this scene."""
        return concretize(thing, self._sample)

    __call__ = value


class Requirement:
    """One ``require`` statement: a condition plus an enforcement probability.

    A soft requirement's coin is :attr:`coin`, a ``Range(0, 1)`` node.  The
    candidate's draw reads it after the params, together with every random
    value that only a value condition reaches
    (:func:`repro.core.program.requirement_roots`), so checking a candidate
    reads no RNG.  A random value that only a callable condition resolves is
    the exception: it is still read when the candidate is examined.
    """

    def __init__(
        self,
        condition: Union[Any, Callable[[SampleResolver], Any]],
        probability: float = 1.0,
        name: Optional[str] = None,
        line: Optional[int] = None,
    ):
        if not (0.0 <= probability <= 1.0):
            raise ScenicError(f"requirement probability must be in [0, 1], got {probability}")
        self.condition = condition
        self.probability = float(probability)
        self.name = name or ("require" if probability >= 1.0 else f"require[{probability}]")
        self.line = line
        #: Drawn with each candidate; its value is ``random()``, which
        #: :meth:`enforced_in` compares with the probability.
        self.coin = Range(0.0, 1.0) if self.is_soft else None

    @property
    def is_soft(self) -> bool:
        return self.probability < 1.0

    @property
    def is_callable(self) -> bool:
        """The condition is a callable of a :class:`SampleResolver` (builder API only)."""
        return callable(self.condition) and not hasattr(self.condition, "sample_in")

    def enforced_in(self, sample: Sample) -> bool:
        """Whether this candidate checks the requirement: its drawn coin, never a new draw."""
        return self.coin is None or sample.value_for(self.coin) < self.probability

    def holds_in(self, sample: Sample) -> bool:
        """Evaluate the condition against the candidate scene's joint sample."""
        if self.is_callable:
            result = self.condition(SampleResolver(sample))
        else:
            result = concretize(self.condition, sample)
        return bool(result)

    def __repr__(self) -> str:
        return f"Requirement({self.name!r}, p={self.probability:g})"


__all__ = ["Requirement", "SampleResolver"]
