"""A scenario's draw as one flat program (Sec. 5: one joint draw per candidate).

Every candidate scene is a joint draw of the scenario's random DAG: the
objects, the ego, the params and the requirement roots
(:func:`requirement_roots`), in that order.  :func:`current_program`
compiles that draw once per scenario into a :class:`DrawProgram`, a flat
list of steps, so that a candidate is one pass over a list instead of the
recursive ``concretize`` walk.

* **Slots.**  Every node the draw reaches gets a slot in first-reach order;
  a node reached twice keeps its one slot, as the :class:`Sample` memo does.
  Constants sit in slots of their own, filled from a template.
* **Steps**, in the order the walk finishes the nodes (post-order), which
  is the order in which it reads the RNG.  A step is a slot, a function and
  its argument slots, of one of five kinds: a distribution
  (``node.sample_given(args, rng)``); a ``FunctionDistribution`` without
  kwargs (``node.function(*args)``, all its ``sample_given`` does then); a
  scenario object (its properties with the random ones filled in, then
  ``_from_properties``, ``_source_object`` and ``_apply_mutation``); a
  tuple (a fresh plain tuple at each reach, namedtuples included); and the
  kwargs dict that a ``FunctionDistribution`` or ``MethodCallDistribution``
  builds for itself.
* **Memo.**  After the pass, the candidate's :class:`Sample` memo receives
  every node's value in one call, so requirement conditions, the
  ``SampleResolver`` and the fuzz rechecks read what they read after the
  walk.  The sample keeps the program alive, and the program keeps every
  node it has a slot for, so no ``id()`` key can be recycled.
* **Fallback.**  A list, any other dict, or any other value with a
  ``_concretize`` hook is drawn live, so the whole scenario then keeps the
  walk: a mixed draw would draw a shared node twice.
* **Rebuilds.**  A program is current while the scenario's objects, ego,
  params and requirements are the ones it was built from, every
  distribution it read still has the dependency tuple it was built from
  (``prune_scenario`` swaps it), and no object it read went through
  ``_assign_property`` since.  The samplers check that once per scene and
  rebuild a stale program.
"""

from __future__ import annotations

import functools
import random as _random
from operator import attrgetter, is_, itemgetter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .distributions import (
    _LEAF_TYPES,
    AttributeDistribution,
    Distribution,
    FunctionDistribution,
    MethodCallDistribution,
    OperatorDistribution,
    Sample,
    VectorDistribution,
    concretize,
    is_constant,
)
from .objects import Constructible, Object

#: Step kinds, by how a step's function is called on its argument values.
_DRAW, _CALL, _OBJECT, _PACK = range(4)

_DEPENDENCIES = attrgetter("_dependencies")
_EDITS = attrgetter("_edits")

#: The ``_apply_mutation`` hooks an object step may call: they read only
#: ``sample.rng``, so they need no memo during the pass.
_MUTATIONS = (Constructible._apply_mutation, Object._apply_mutation)

#: What a candidate's draw returns: its sample, objects, ego and params.
CandidateParts = Tuple[Sample, List[Any], Any, Dict[str, Any]]

#: Draw steps that never read the RNG, by their exact type.
_NO_RNG = (
    OperatorDistribution,
    AttributeDistribution,
    MethodCallDistribution,
    FunctionDistribution,
    VectorDistribution,
)


class Candidate(NamedTuple):
    """One drawn candidate scene: its joint sample and concrete values."""

    sample: Sample
    objects: List[Any]
    ego: Any
    params: Dict[str, Any]


class _Fallback(Exception):
    """The walk met a value that no step can draw."""


def _getter(slots: List[int]):
    """A function from the value list to the values at *slots*, as a sequence."""
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(*slots) if slots else itemgetter(slice(0, 0))


def _keyed_dict(keys: Tuple[Any, ...], values) -> Dict[Any, Any]:
    return dict(zip(keys, values))


class _ObjectStep:
    """A scenario object's draw: ``Constructible._concretize`` past its memo."""

    __slots__ = ("node", "properties", "names", "make")

    def __init__(self, node: Constructible, properties: Dict[str, Any], names: List[str]):
        self.node = node
        self.properties = properties
        self.names = names
        self.make = type(node)._from_properties

    def __call__(self, values, sample: Sample) -> Constructible:
        properties = self.properties.copy()
        properties.update(zip(self.names, values))
        concrete = self.make(properties)
        concrete._source_object = self.node
        concrete._apply_mutation(sample)
        return concrete


def _kwargs_index(node: Distribution) -> Optional[int]:
    """Where *node*'s dependencies hold the kwargs dict it built for itself, if anywhere."""
    if isinstance(node, FunctionDistribution):
        return 1
    return 2 if isinstance(node, MethodCallDistribution) else None


def requirement_roots(scenario) -> Iterator[Any]:
    """What a candidate draws for the scenario's requirements, after its params.

    For each requirement in order: its coin, if it is soft, then every node
    its condition reaches that may read the RNG, in ``concretize``'s order.
    Such a node is anything but a ``_NO_RNG`` distribution, a tuple, a
    ``_NO_RNG`` node's own kwargs dict, or a constant; any other list or
    dict is one, so the scenario keeps the walk, which draws it whole.  The
    derived nodes above the roots (comparisons, distances, ``can see``)
    stay lazy: the late check computes them from the memo, only for a
    candidate it examines.  A callable condition is skipped.
    """
    seen: set = set()

    def readers(value: Any) -> Iterator[Any]:
        if is_constant(value) or id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, tuple):
            items = list(value)
        elif type(value) in _NO_RNG:
            items = list(value._dependencies)
            at = _kwargs_index(value)
            if at is not None and type(items[at]) is dict:
                items[at:at + 1] = items[at].values()
        else:
            yield value
            return
        for item in items:
            yield from readers(item)

    for requirement in scenario.requirements:
        if requirement.coin is not None:
            yield requirement.coin
        if not requirement.is_callable:
            yield from readers(requirement.condition)


def walk(scenario, rng: _random.Random) -> CandidateParts:
    """One candidate through the ``concretize`` walk: objects, ego, params, then requirement roots."""
    sample = Sample(rng)
    objects = [scenic_object._concretize(sample) for scenic_object in scenario.objects]
    ego = scenario.ego._concretize(sample)
    params = {name: concretize(value, sample) for name, value in scenario.params.items()}
    for root in requirement_roots(scenario):
        concretize(root, sample)
    return sample, objects, ego, params


class _Builder:
    """One walk over a scenario in the draw's order, emitting its steps.

    Slots are numbered in two spaces while the walk runs: memoised nodes
    (distributions and objects) from 0 in first-reach order, and everything
    else (constants, tuples, kwargs dicts) as ``~k``.  The program puts the
    memoised nodes first, so the memo is filled from a prefix of the values.
    """

    def __init__(self) -> None:
        self.memo: Dict[int, int] = {}
        self.nodes: List[Any] = []
        self.extra: List[Any] = []
        self.constants: Dict[int, int] = {}
        self.constant_slots: set = set()
        #: ``(slot, kind, function, argument slots, whole)``; *whole* means
        #: the one argument slot holds the argument sequence itself.
        self.steps: List[Tuple[int, int, Any, List[int], bool]] = []
        self.distributions: List[Distribution] = []
        self.dependencies: List[Tuple[Any, ...]] = []
        self.objects: List[Constructible] = []
        self.edits: List[int] = []

    def constant(self, value: Any) -> int:
        slot = self.constants.get(id(value))
        if slot is None:
            self.extra.append(value)
            slot = self.constants[id(value)] = ~(len(self.extra) - 1)
            self.constant_slots.add(slot)
        return slot

    def pack(self, function, slots: List[int]) -> int:
        self.extra.append(None)
        slot = ~(len(self.extra) - 1)
        self.steps.append((slot, _PACK, function, slots, False))
        return slot

    def reach(self, node: Any) -> Tuple[int, bool]:
        """*node*'s slot, and whether this is its first reach."""
        slot = self.memo.get(id(node))
        if slot is not None:
            return slot, False
        slot = self.memo[id(node)] = len(self.nodes)
        self.nodes.append(node)
        return slot, True

    def value(self, value: Any) -> int:
        """The slot of *value*'s draw, down ``concretize``'s ladder."""
        if type(value) in _LEAF_TYPES:
            return self.constant(value)
        if isinstance(value, Distribution):
            return self.distribution(value)
        if hasattr(value, "_concretize"):
            return self.object(value)
        if isinstance(value, tuple):
            if type(value) is tuple and is_constant(value):
                return self.constant(value)
            return self.pack(tuple, [self.value(item) for item in value])
        if isinstance(value, (list, dict)):
            raise _Fallback(f"a {type(value).__name__} is drawn live")
        return self.constant(value)

    def distribution(self, node: Distribution) -> int:
        slot, first = self.reach(node)
        if not first:
            return slot
        if type(node).sample_in is not Distribution.sample_in:
            raise _Fallback(f"{type(node).__name__} draws itself")
        dependencies = node._dependencies
        self.distributions.append(node)
        self.dependencies.append(dependencies)
        if (
            type(node).sample_given is FunctionDistribution.sample_given
            and len(dependencies) == 2
            and type(dependencies[0]) is tuple
            and type(dependencies[1]) is dict
            and not dependencies[1]
        ):
            # ``function(*args)`` is all its ``sample_given`` does with no
            # kwargs; the args tuple and the empty dict are never seen.
            slots = [self.value(item) for item in dependencies[0]]
            self.steps.append((slot, _CALL, node.function, slots, False))
            return slot
        kwargs_at = _kwargs_index(node)
        slots = []
        for index, item in enumerate(dependencies):
            if index == kwargs_at and type(item) is dict:
                # The kwargs dict the node built for itself: nothing else holds it.
                keys = tuple(item)
                item_slots = [self.value(value) for value in item.values()]
                slots.append(self.pack(functools.partial(_keyed_dict, keys) if keys else dict,
                                       item_slots))
            else:
                slots.append(self.value(item))
        if self.constant_slots.issuperset(slots):
            # No item is random: the node draws from its dependency tuple itself.
            self.steps.append((slot, _DRAW, node.sample_given, [self.constant(dependencies)], True))
        else:
            self.steps.append((slot, _DRAW, node.sample_given, slots, False))
        return slot

    def object(self, node: Any) -> int:
        kind = type(node)
        if not (
            isinstance(node, Constructible)
            and kind._concretize is Constructible._concretize
            and kind._apply_mutation in _MUTATIONS
        ):
            raise _Fallback(f"{kind.__name__} concretizes itself")
        slot, first = self.reach(node)
        if not first:
            return slot
        self.objects.append(node)
        self.edits.append(node._edits)
        properties = dict(node.properties)
        names = [name for name, value in properties.items() if not is_constant(value)]
        slots = [self.value(properties[name]) for name in names]
        self.steps.append((slot, _OBJECT, _ObjectStep(node, properties, names), slots, False))
        return slot


class DrawProgram:
    """A scenario's candidate draw, compiled by :func:`current_program`.

    ``steps`` is ``None`` when the scenario keeps the walk; then
    :meth:`draw` is :func:`walk`.
    """

    def __init__(self, scenario, builder: _Builder, roots: Optional[Tuple[Any, ...]]):
        self.objects = tuple(scenario.objects)
        self.ego = scenario.ego
        self.param_names = list(scenario.params)
        self.param_values = list(scenario.params.values())
        self.requirements = list(scenario.requirements)
        self.distributions = builder.distributions
        self.dependencies = builder.dependencies
        self.read = builder.objects
        self.edits = builder.edits
        self.steps: Optional[List[Tuple[int, int, Any, Any]]] = None
        #: The block-of-columns form (:mod:`repro.core.columns`): ``None``
        #: until a large block first asks for it, ``False`` if it declined.
        self.columns: Any = None
        if roots is None:
            return
        memoised = self.memoised = len(builder.nodes)

        def real(slot: int) -> int:
            return slot if slot >= 0 else memoised + ~slot

        def getter(slots: List[int], whole: bool = False):
            return itemgetter(real(slots[0])) if whole else _getter([real(s) for s in slots])

        object_slots, ego_slot, param_slots = roots
        #: Every memoised node, in slot order; the program keeps them alive.
        self.nodes = builder.nodes
        self.memo_ids = [id(node) for node in builder.nodes]
        self.template = [None] * memoised + builder.extra
        self.objects_of = getter(object_slots)
        self.ego_slot = real(ego_slot)
        self.params_of = getter(param_slots)
        self.steps = [
            (real(slot), kind, function, getter(slots, whole))
            for slot, kind, function, slots, whole in builder.steps
        ]
        # What the columns form is built from: the steps with their argument
        # slots, and the roots' and constants' slots.
        self.source_steps = [
            (real(slot), kind, function, [real(s) for s in slots], whole)
            for slot, kind, function, slots, whole in builder.steps
        ]
        self.constant_slots = frozenset(map(real, builder.constant_slots))
        self.object_slots = [real(slot) for slot in object_slots]
        self.param_slots = [real(slot) for slot in param_slots]

    def is_current(self, scenario) -> bool:
        """Nothing this program was built from has changed since."""
        return (
            scenario.ego is self.ego
            and len(scenario.objects) == len(self.objects)
            and all(map(is_, scenario.objects, self.objects))
            and list(scenario.params) == self.param_names
            and all(map(is_, scenario.params.values(), self.param_values))
            and len(scenario.requirements) == len(self.requirements)
            and all(map(is_, scenario.requirements, self.requirements))
            and all(map(is_, map(_DEPENDENCIES, self.distributions), self.dependencies))
            and list(map(_EDITS, self.read)) == self.edits
        )

    def draw(self, scenario, rng: _random.Random) -> CandidateParts:
        """One candidate: a pass over the steps, then the memo in one call."""
        steps = self.steps
        if steps is None:
            return walk(scenario, rng)
        sample = Sample(rng)
        values = self.template.copy()
        for slot, kind, function, arguments in steps:
            if kind == _DRAW:
                values[slot] = function(arguments(values), rng)
            elif kind == _CALL:
                values[slot] = function(*arguments(values))
            elif kind == _OBJECT:
                values[slot] = function(arguments(values), sample)
            else:
                values[slot] = function(arguments(values))
        sample._values = dict(zip(self.memo_ids, values))
        sample._keep_alive.append(self)
        return (
            sample,
            list(self.objects_of(values)),
            values[self.ego_slot],
            dict(zip(self.param_names, self.params_of(values))),
        )


def build_program(scenario) -> DrawProgram:
    """Walk *scenario* once in the draw's order and compile its draw."""
    builder = _Builder()
    try:
        roots = (
            [builder.object(scenic_object) for scenic_object in scenario.objects],
            builder.object(scenario.ego),
            [builder.value(value) for value in scenario.params.values()],
        )
        for root in requirement_roots(scenario):
            builder.value(root)  # only the memo reads its value
    except _Fallback:
        roots = None
    return DrawProgram(scenario, builder, roots)


def current_program(scenario) -> DrawProgram:
    """*scenario*'s draw program, rebuilt first if an edit made it stale.

    The program is published on the scenario only once it is fully built.
    """
    program = scenario._draw_program
    if program is None or not program.is_current(scenario):
        program = scenario._draw_program = build_program(scenario)
    return program


def draw_candidate(scenario, rng: _random.Random) -> CandidateParts:
    """One candidate of *scenario* from *rng*, through its current program.

    Builds the program at the first draw; the samplers check it is current
    once per scene with :func:`current_program`.
    """
    program = scenario._draw_program
    if program is None:
        program = current_program(scenario)
    return program.draw(scenario, rng)


__all__ = [
    "Candidate",
    "DrawProgram",
    "build_program",
    "current_program",
    "draw_candidate",
    "requirement_roots",
    "walk",
]
