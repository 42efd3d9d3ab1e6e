"""The probabilistic core: random values and derived expressions over them.

A Scenic program is an imperative prior over scenes (Sec. 5.1).  Evaluating
the program does *not* draw samples immediately; instead, every random
primitive (Table 1: uniform interval, ``Uniform``, ``Discrete``, ``Normal``)
evaluates to a :class:`Distribution` node, and operations on such nodes
produce *derived* distributions (:class:`OperatorDistribution`,
:class:`FunctionDistribution`).  A scenario therefore holds a DAG of
samplable values; the rejection sampler (``Scenario.generate``) draws a
consistent joint sample of the whole DAG for each candidate scene.

The key entry points are:

* :func:`needs_sampling` — does a value contain randomness?
* :class:`Sample` — one joint assignment of concrete values to the DAG,
  memoised so shared sub-expressions are sampled once per scene.
* :func:`concretize` — map any value (distribution, container, object with a
  ``_concretize`` hook) to its concrete value under a :class:`Sample`.
* :func:`distribution_function` — lift a plain function so it builds a
  derived distribution when any argument is random.
"""

from __future__ import annotations

import numbers
import random as _random
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ScenicError
from .utils import cumulative_weights
from .vectors import Vector


class Sample:
    """One joint sample of the random DAG: an RNG plus a memo table.

    Distributions are keyed by identity so that a distribution reachable
    through several expressions receives a single concrete value per scene,
    matching the paper's semantics where ``x = (0, 1); y = x @ x`` puts ``y``
    on the diagonal of the unit square rather than spreading it uniformly.
    """

    def __init__(self, rng: Optional[_random.Random] = None):
        self.rng = rng if rng is not None else _random.Random()
        self._values: Dict[int, Any] = {}
        self._keep_alive: List[Any] = []

    def has_value_for(self, node: Any) -> bool:
        return id(node) in self._values

    def value_for(self, node: Any) -> Any:
        return self._values[id(node)]

    def get(self, node: Any, default: Any = None) -> Any:
        """*node*'s memoised value, or *default* when it has none."""
        return self._values.get(id(node), default)

    def set_value_for(self, node: Any, value: Any) -> None:
        self._values[id(node)] = value
        # Keep a reference so id() keys cannot be recycled mid-sample.
        self._keep_alive.append(node)


def needs_sampling(value: Any) -> bool:
    """True iff *value* contains randomness that must be resolved per scene."""
    if isinstance(value, Distribution):
        return True
    if hasattr(value, "_needs_sampling"):
        return bool(value._needs_sampling())
    if isinstance(value, (tuple, list)):
        return any(needs_sampling(item) for item in value)
    if isinstance(value, dict):
        return any(needs_sampling(v) for v in value.values())
    return False


#: Builtin leaf types ``concretize`` returns at once, before its ladder.  A
#: fixed set: a cache keyed by program-defined types would keep every
#: compiled program's classes, and through them its DAG, alive.
_LEAF_TYPES = frozenset({float, int, bool, str, type(None), Vector})


def concretize(value: Any, sample: Sample) -> Any:
    """Resolve *value* to a concrete (non-random) value under *sample*."""
    if type(value) in _LEAF_TYPES:
        return value
    if isinstance(value, Distribution):
        return value.sample_in(sample)
    if hasattr(value, "_concretize"):
        return value._concretize(sample)
    if isinstance(value, tuple):
        return tuple(concretize(item, sample) for item in value)
    if isinstance(value, list):
        return [concretize(item, sample) for item in value]
    if isinstance(value, dict):
        return {key: concretize(item, sample) for key, item in value.items()}
    return value


def is_constant(value: Any) -> bool:
    """True when ``concretize`` returns *value* unchanged and draws nothing.

    That is a leaf (no ``Distribution``, ``_concretize`` hook, tuple, list
    or dict) or an exact ``tuple`` of constants.  Namedtuples are not
    constant (``concretize`` turns them into plain tuples), and neither is
    any list or dict: it is walked on every draw and comes back fresh.
    """
    if type(value) in _LEAF_TYPES:
        return True
    if type(value) is tuple:
        return all(is_constant(item) for item in value)
    return not (
        isinstance(value, (Distribution, tuple, list, dict)) or hasattr(value, "_concretize")
    )


#: Marks a node with no value yet in a :class:`Sample`'s memo.
_UNSET = object()


def supporting_interval(value: Any) -> Tuple[Optional[float], Optional[float]]:
    """Best-effort (lower, upper) bounds on a scalar value; ``None`` = unbounded.

    Used by the pruning machinery (Sec. 5.2) to extract bounds such as the
    maximum distance between two objects from the scenario's distributions
    without sampling.
    """
    if isinstance(value, Distribution):
        return value.support_interval()
    if isinstance(value, (int, float)):
        return (float(value), float(value))
    return (None, None)


class Distribution:
    """Base class for every random value in the DAG."""

    def __init__(self, *dependencies: Any):
        self._dependencies: Tuple[Any, ...] = tuple(dependencies)

    # -- sampling --------------------------------------------------------------

    def sample_in(self, sample: Sample) -> Any:
        """This node's value in *sample*: its memo, or a draw over its dependencies.

        The plain walk.  A scenario's candidates are drawn by its
        :mod:`~repro.core.program` instead; this serves requirement
        conditions, :meth:`sample` and the scenarios that keep the walk.
        """
        value = sample._values.get(id(self), _UNSET)
        if value is not _UNSET:
            return value
        value = self.sample_given(
            [concretize(dependency, sample) for dependency in self._dependencies], sample.rng
        )
        sample.set_value_for(self, value)
        return value

    def sample_given(self, dependency_values: Sequence[Any], rng: _random.Random) -> Any:
        raise NotImplementedError

    def sample(self, rng: Optional[_random.Random] = None) -> Any:
        """Draw a single independent sample (convenience for tests and examples)."""
        return self.sample_in(Sample(rng))

    # -- analysis --------------------------------------------------------------

    def support_interval(self) -> Tuple[Optional[float], Optional[float]]:
        return (None, None)

    def dependencies(self) -> Tuple[Any, ...]:
        return self._dependencies

    def clone(self) -> "Distribution":
        """Independent copy drawing fresh samples (used by ``resample``)."""
        raise NotImplementedError(f"{type(self).__name__} does not support resample")

    # -- operator overloading builds derived distributions ---------------------

    def __add__(self, other):
        return OperatorDistribution("+", self, other)

    def __radd__(self, other):
        return OperatorDistribution("+", other, self)

    def __sub__(self, other):
        return OperatorDistribution("-", self, other)

    def __rsub__(self, other):
        return OperatorDistribution("-", other, self)

    def __mul__(self, other):
        return OperatorDistribution("*", self, other)

    def __rmul__(self, other):
        return OperatorDistribution("*", other, self)

    def __truediv__(self, other):
        return OperatorDistribution("/", self, other)

    def __rtruediv__(self, other):
        return OperatorDistribution("/", other, self)

    def __floordiv__(self, other):
        return OperatorDistribution("//", self, other)

    def __mod__(self, other):
        return OperatorDistribution("%", self, other)

    def __pow__(self, other):
        return OperatorDistribution("**", self, other)

    def __neg__(self):
        return OperatorDistribution("neg", self)

    def __abs__(self):
        return OperatorDistribution("abs", self)

    # Comparisons build random booleans.  (Equality is intentionally left as
    # identity so distributions remain usable in sets and as dict keys.)

    def __lt__(self, other):
        return OperatorDistribution("<", self, other)

    def __le__(self, other):
        return OperatorDistribution("<=", self, other)

    def __gt__(self, other):
        return OperatorDistribution(">", self, other)

    def __ge__(self, other):
        return OperatorDistribution(">=", self, other)

    def __getitem__(self, index):
        return OperatorDistribution("getitem", self, index)

    #: Attribute names that must *not* be turned into lazy attribute accesses,
    #: because other code uses them for duck typing (``hasattr`` probes).
    _PLAIN_ATTRIBUTES = frozenset(
        {"to_vector", "to_tuple", "position", "heading", "sample_given", "clone"}
    )

    def __getattr__(self, name):
        # Only called when normal lookup fails; build an attribute access node
        # for property-style access on random objects (e.g. ``car.model.width``).
        if name.startswith("_") or name in Distribution._PLAIN_ATTRIBUTES:
            raise AttributeError(name)
        return AttributeDistribution(self, name)

    def __bool__(self):
        raise ScenicError(
            "cannot branch on a random value: Scenic forbids conditional control flow "
            "depending on distributions (Sec. 4)"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._dependencies))})"


_BINARY_OPERATIONS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "**": lambda a, b: a ** b,
    "getitem": lambda a, b: a[b],
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}

_UNARY_OPERATIONS: Dict[str, Callable[[Any], Any]] = {
    "neg": lambda a: -a,
    "abs": abs,
    "not": lambda a: not a,
}


class OperatorDistribution(Distribution):
    """A unary or binary operation applied to (possibly random) operands."""

    def __init__(self, operator: str, *operands: Any):
        super().__init__(*operands)
        self.operator = operator

    def sample_given(self, dependency_values, rng):
        if self.operator in _UNARY_OPERATIONS:
            return _UNARY_OPERATIONS[self.operator](dependency_values[0])
        return _BINARY_OPERATIONS[self.operator](dependency_values[0], dependency_values[1])

    def support_interval(self):
        if self.operator in ("+", "-", "*"):
            left_low, left_high = supporting_interval(self._dependencies[0])
            right_low, right_high = supporting_interval(self._dependencies[1])
            if None in (left_low, left_high, right_low, right_high):
                return (None, None)
            if self.operator == "+":
                return (left_low + right_low, left_high + right_high)
            if self.operator == "-":
                return (left_low - right_high, left_high - right_low)
            products = [
                left_low * right_low,
                left_low * right_high,
                left_high * right_low,
                left_high * right_high,
            ]
            return (min(products), max(products))
        if self.operator == "neg":
            low, high = supporting_interval(self._dependencies[0])
            if None in (low, high):
                return (None, None)
            return (-high, -low)
        if self.operator == "abs":
            low, high = supporting_interval(self._dependencies[0])
            if None in (low, high):
                return (None, None)
            if low >= 0:
                return (low, high)
            if high <= 0:
                return (-high, -low)
            return (0.0, max(-low, high))
        return (None, None)


class AttributeDistribution(Distribution):
    """Attribute access on a random value (e.g. ``model.width`` where model is random)."""

    def __init__(self, target: Any, attribute: str):
        super().__init__(target)
        self.attribute = attribute

    def sample_given(self, dependency_values, rng):
        return getattr(dependency_values[0], self.attribute)

    def __call__(self, *args, **kwargs):
        return MethodCallDistribution(self._dependencies[0], self.attribute, args, kwargs)


class MethodCallDistribution(Distribution):
    """A method call on a random value, with possibly random arguments."""

    def __init__(self, target: Any, method: str, args: Sequence[Any], kwargs: Dict[str, Any]):
        super().__init__(target, tuple(args), dict(kwargs))
        self.method = method

    def sample_given(self, dependency_values, rng):
        target, args, kwargs = dependency_values
        return getattr(target, self.method)(*args, **kwargs)


class FunctionDistribution(Distribution):
    """A plain function applied to (possibly random) arguments."""

    def __init__(self, function: Callable, args: Sequence[Any], kwargs: Optional[Dict[str, Any]] = None):
        super().__init__(tuple(args), dict(kwargs or {}))
        self.function = function

    def sample_given(self, dependency_values, rng):
        args, kwargs = dependency_values
        return self.function(*args, **kwargs)

    def __repr__(self) -> str:
        name = getattr(self.function, "__name__", repr(self.function))
        return f"FunctionDistribution({name}, {self._dependencies[0]!r})"


def distribution_function(function: Callable) -> Callable:
    """Lift *function* so it defers evaluation when any argument is random."""

    def wrapper(*args, **kwargs):
        if needs_sampling(args) or needs_sampling(kwargs):
            return FunctionDistribution(function, args, kwargs)
        return function(*args, **kwargs)

    wrapper.__name__ = getattr(function, "__name__", "wrapped")
    wrapper.__doc__ = function.__doc__
    wrapper.__wrapped__ = function
    return wrapper


def make_random_vector(x: Any, y: Any):
    """Build the vector ``x @ y`` where either coordinate may be random."""
    if needs_sampling(x) or needs_sampling(y):
        return VectorDistribution(x, y)
    return Vector(x, y)


class VectorDistribution(Distribution):
    """A vector whose coordinates are (possibly) random scalars."""

    def __init__(self, x: Any, y: Any):
        super().__init__(x, y)

    def sample_given(self, dependency_values, rng):
        x, y = dependency_values
        return Vector(x, y)

    @property
    def x(self):
        return OperatorDistribution("getitem", self, 0)

    @property
    def y(self):
        return OperatorDistribution("getitem", self, 1)


# ---------------------------------------------------------------------------
# Primitive distributions (Table 1)
# ---------------------------------------------------------------------------


def _check_interval(kind: str, low: Any, high: Any) -> None:
    """Raise when concrete endpoints make an empty interval.

    ``sample_given`` calls this on every draw.  The constructors call it
    too when both endpoints are constant reals, so such an interval fails
    at compile time instead of on every sample.
    """
    if low > high:
        raise ScenicError(f"{kind} ({low}, {high}) is empty")


class Range(Distribution):
    """Uniform distribution on an interval — the paper's ``(low, high)`` syntax."""

    def __init__(self, low: Any, high: Any):
        if isinstance(low, numbers.Real) and isinstance(high, numbers.Real):
            _check_interval("uniform interval", low, high)
        super().__init__(low, high)
        self.low = low
        self.high = high

    def sample_given(self, dependency_values, rng):
        low, high = dependency_values
        _check_interval("uniform interval", low, high)
        return rng.uniform(low, high)

    def support_interval(self):
        low_bounds = supporting_interval(self.low)
        high_bounds = supporting_interval(self.high)
        return (low_bounds[0], high_bounds[1])

    def clone(self):
        return Range(self.low, self.high)


class Normal(Distribution):
    """Gaussian with the given mean and standard deviation."""

    def __init__(self, mean: Any, std_dev: Any):
        super().__init__(mean, std_dev)
        self.mean = mean
        self.std_dev = std_dev

    def sample_given(self, dependency_values, rng):
        mean, std_dev = dependency_values
        if std_dev < 0:
            raise ScenicError(f"Normal standard deviation must be non-negative, got {std_dev}")
        return rng.gauss(mean, std_dev)

    def clone(self):
        return Normal(self.mean, self.std_dev)


def option_index(cumulative: Sequence[float], target: float) -> int:
    """The option a draw of *target* picks: the first whose running total reaches it.

    That is ``bisect_left``, clamped to the last option for a target that
    rounding put above the total.
    """
    return min(bisect_left(cumulative, target), len(cumulative) - 1)


class Options(Distribution):
    """Uniform or weighted choice over a finite set of (possibly random) values.

    Covers both ``Uniform(value, ...)`` and ``Discrete({value: weight, ...})``
    from Table 1.
    """

    def __init__(self, options: Any):
        if isinstance(options, dict):
            if not options:
                raise ScenicError("Discrete distribution needs at least one option")
            values = list(options.keys())
            weights = [float(w) for w in options.values()]
        else:
            values = list(options)
            if not values:
                raise ScenicError("Uniform distribution needs at least one option")
            weights = [1.0] * len(values)
        super().__init__(tuple(values))
        self.option_values = values
        self.weights = weights
        self._cumulative = cumulative_weights(weights)

    def sample_given(self, dependency_values, rng):
        (values,) = dependency_values
        return values[option_index(self._cumulative, rng.random() * self._cumulative[-1])]

    def support_interval(self):
        bounds = [supporting_interval(value) for value in self.option_values]
        lows = [b[0] for b in bounds]
        highs = [b[1] for b in bounds]
        if any(b is None for b in lows) or any(b is None for b in highs):
            return (None, None)
        return (min(lows), max(highs))

    def clone(self):
        if all(weight == 1.0 for weight in self.weights):
            return Options(list(self.option_values))
        return Options(dict(zip(self.option_values, self.weights)))


def Uniform(*options: Any) -> Options:
    """Uniform choice over the given values (``Uniform(value, ...)`` in Table 1)."""
    return Options(list(options))


def Discrete(weighted_options: Dict[Any, float]) -> Options:
    """Weighted discrete choice (``Discrete({value: weight, ...})`` in Table 1)."""
    return Options(dict(weighted_options))


class TruncatedNormal(Distribution):
    """Gaussian restricted to an interval (used by some world libraries)."""

    def __init__(self, mean: Any, std_dev: Any, low: Any, high: Any):
        if isinstance(low, numbers.Real) and isinstance(high, numbers.Real):
            _check_interval("TruncatedNormal interval", low, high)
        super().__init__(mean, std_dev, low, high)

    def sample_given(self, dependency_values, rng):
        mean, std_dev, low, high = dependency_values
        _check_interval("TruncatedNormal interval", low, high)
        for _ in range(1000):
            value = rng.gauss(mean, std_dev)
            if low <= value <= high:
                return value
        return min(max(rng.gauss(mean, std_dev), low), high)

    def support_interval(self):
        return (supporting_interval(self._dependencies[2])[0], supporting_interval(self._dependencies[3])[1])

    def clone(self):
        return TruncatedNormal(*self._dependencies)


def resample(distribution: Any) -> Any:
    """Independent re-draw from the same primitive distribution (Sec. 4.2).

    Conditioned on the distribution's parameters, the clone shares them but
    draws its own value; resampling a non-random value returns it unchanged.
    """
    if isinstance(distribution, Distribution):
        return distribution.clone()
    return distribution


__all__ = [
    "Sample",
    "Distribution",
    "OperatorDistribution",
    "AttributeDistribution",
    "MethodCallDistribution",
    "FunctionDistribution",
    "VectorDistribution",
    "Range",
    "Normal",
    "TruncatedNormal",
    "Options",
    "option_index",
    "Uniform",
    "Discrete",
    "resample",
    "needs_sampling",
    "concretize",
    "is_constant",
    "supporting_interval",
    "distribution_function",
    "make_random_vector",
]
