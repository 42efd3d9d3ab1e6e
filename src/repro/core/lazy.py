"""Lazy values whose meaning depends on the object being constructed.

Several Scenic constructs cannot be evaluated until part of the object they
help define is known.  The canonical example from the paper is

    Car offset by (-10, 10) @ (20, 40), facing (-5, 5) deg relative to roadDirection

where the heading expression depends on the *position* of the very car being
created.  Such expressions evaluate to a :class:`DelayedArgument`: a closure
plus the set of properties it needs.  Specifiers carry their delayed
dependencies, the dependency-resolution algorithm (Alg. 1) orders specifiers
so those properties are assigned first, and the delayed argument is then
evaluated against the partially-constructed object.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Set


class LazilyEvaluable:
    """A value that needs (some properties of) the object under construction."""

    def __init__(self, required_properties: Iterable[str]):
        self._required_properties: FrozenSet[str] = frozenset(required_properties)

    @property
    def required_properties(self) -> FrozenSet[str]:
        return self._required_properties

    def evaluate_in(self, context: Any) -> Any:
        """Evaluate against *context*, an object providing the required properties."""
        raise NotImplementedError


class DelayedArgument(LazilyEvaluable):
    """A deferred computation over properties of the object being specified."""

    def __init__(self, required_properties: Iterable[str], evaluator: Callable[[Any], Any]):
        super().__init__(required_properties)
        self._evaluator = evaluator

    def evaluate_in(self, context: Any) -> Any:
        value = self._evaluator(context)
        # The evaluator may itself produce another delayed argument (nested
        # lazy constructs); keep evaluating until we reach a plain value.
        while isinstance(value, DelayedArgument):
            value = value.evaluate_in(context)
        return value

    # Arithmetic on delayed arguments stays delayed.

    def _binary(self, other: Any, operation: Callable[[Any, Any], Any]) -> "DelayedArgument":
        requirements = set(self.required_properties) | required_properties_of(other)
        return DelayedArgument(
            requirements,
            lambda context: operation(self.evaluate_in(context), value_in_context(other, context)),
        )

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __neg__(self):
        return DelayedArgument(self.required_properties, lambda context: -self.evaluate_in(context))

    def __repr__(self) -> str:
        return f"DelayedArgument({sorted(self.required_properties)})"


def is_lazy(value: Any) -> bool:
    """True iff *value* (possibly nested in containers) needs the object context."""
    if isinstance(value, LazilyEvaluable):
        return True
    if isinstance(value, (tuple, list)):
        return any(is_lazy(item) for item in value)
    return False


def required_properties_of(value: Any) -> Set[str]:
    """All object properties *value* needs before it can be evaluated."""
    if isinstance(value, LazilyEvaluable):
        return set(value.required_properties)
    if isinstance(value, (tuple, list)):
        requirements: Set[str] = set()
        for item in value:
            requirements |= required_properties_of(item)
        return requirements
    return set()


def value_in_context(value: Any, context: Any) -> Any:
    """Resolve any delayed arguments in *value* against *context*."""
    if isinstance(value, LazilyEvaluable):
        return value.evaluate_in(context)
    if isinstance(value, tuple):
        return tuple(value_in_context(item, context) for item in value)
    if isinstance(value, list):
        return [value_in_context(item, context) for item in value]
    return value


def make_delayed_function(function: Callable, *args: Any, **kwargs: Any) -> Any:
    """Apply *function*, deferring the call if any argument is delayed.

    This is the lazy analogue of
    :func:`repro.core.distributions.distribution_function`: if any argument
    needs the object under construction, the whole call becomes a
    :class:`DelayedArgument`; otherwise the function is applied immediately
    (and may still build a derived distribution if arguments are random).
    """
    all_values = list(args) + list(kwargs.values())
    if not any(is_lazy(value) for value in all_values):
        return function(*args, **kwargs)
    requirements: Set[str] = set()
    for value in all_values:
        requirements |= required_properties_of(value)

    def evaluator(context: Any) -> Any:
        concrete_args = [value_in_context(arg, context) for arg in args]
        concrete_kwargs = {key: value_in_context(val, context) for key, val in kwargs.items()}
        return function(*concrete_args, **concrete_kwargs)

    return DelayedArgument(requirements, evaluator)


def lazy_function(function: Callable) -> Callable:
    """Decorator form of :func:`make_delayed_function`."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return make_delayed_function(function, *args, **kwargs)

    wrapper.__name__ = getattr(function, "__name__", "lazy_wrapped")
    wrapper.__doc__ = function.__doc__
    wrapper.__wrapped__ = function
    return wrapper


__all__ = [
    "LazilyEvaluable",
    "DelayedArgument",
    "is_lazy",
    "required_properties_of",
    "value_in_context",
    "make_delayed_function",
    "lazy_function",
]
