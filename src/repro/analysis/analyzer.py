"""Static requirement analysis for automatic pruning (Sec. 5.2).

``analyze_program`` walks a compiled Scenic AST (the
:class:`~repro.language.CompiledScenario` ``program``), cross-checks what it
finds against the artifact's :class:`~repro.language.ArtifactMetadata`, and
derives the bounds the pruning algorithms of Sec. 5.2 need — without the
caller supplying anything:

* **max-distance bounds** ``M`` between object pairs, from ``offset by``
  specifiers with statically bounded offsets, ``visible`` specifiers,
  ``X can see Y`` requirements, ``(distance to X) <= d`` requirements, and
  the built-in ``requireVisible`` constraint;
* **relative-heading arcs** between field-aligned objects, from hard
  ``relative heading of X`` comparisons (including ``abs(...)`` forms, and
  arcs straddling ±π) and from the *oncoming pattern* — an object placed
  ``offset by`` a bounded box ahead of a field-aligned anchor that it must
  ``can see`` through a narrow view cone;
* **minimum-fit radii** from the class table's width/height lower bounds
  (for the GTA world, the minimum over the 13 car models), which drive
  containment pruning, plus the Algorithm 3 narrowness inputs.

The analysis is *conservative*: every extracted bound over-approximates
what the program's hard requirements admit.  Soft requirements
(``require[p]``) are ignored — they do not always hold, so pruning on them
would change the induced distribution.  When the AST→object mapping cannot
be established statically (objects created inside loops, functions or
helpers like ``createPlatoonAt``), the analyzer returns an *unmapped*
:class:`~repro.analysis.bounds.PruneBounds` and pruning degrades to the
sound containment-only behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..language import ast_nodes as ast
from .bounds import HeadingConstraint, ObjectBounds, PruneBounds
from .intervals import CircularInterval, Interval

#: Class names that never register a scenario object (helpers like the
#: ``spot`` OrientedPoint in the badly-parked example).
NON_OBJECT_CLASSES = {"Point", "OrientedPoint"}

#: Library functions known to create scenario objects internally; a call to
#: any of these makes the AST→object mapping untrustworthy.
KNOWN_CREATOR_FUNCTIONS = {"createPlatoonAt", "carAheadOfCar"}


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VecInterval:
    """A box of vectors: independent intervals for the two coordinates."""

    x: Interval
    y: Interval

    @property
    def max_norm(self) -> float:
        return math.hypot(self.x.magnitude, self.y.magnitude)

    @property
    def min_norm(self) -> float:
        return math.hypot(self.x.min_magnitude, self.y.min_magnitude)

    def heading_cone(self) -> Optional[Interval]:
        """Bounds on the local heading of the box's vectors (None if unbounded).

        Headings follow the repo convention (anticlockwise from +y, i.e.
        ``atan2(-x, y)``); the cone is only derivable when the box lies
        strictly ahead (``y > 0``).  The heading is monotone decreasing in
        x; in y it widens *away* from 0, so each endpoint's extreme sits at
        ``y.low`` only when its x bound reaches the centreline — a box
        entirely on one side attains the near-0 endpoint at ``y.high``.
        """
        if self.y.low <= 0:
            return None
        low = math.atan2(-self.x.high, self.y.low if self.x.high >= 0 else self.y.high)
        high = math.atan2(-self.x.low, self.y.low if self.x.low <= 0 else self.y.high)
        return Interval(low, high)


#: Unknown abstract value.
UNKNOWN = None


# ---------------------------------------------------------------------------
# Per-class static facts
# ---------------------------------------------------------------------------


@dataclass
class ClassFacts:
    """What the analyzer statically knows about one Scenic class."""

    name: str
    is_scenario_object: bool = True
    #: The object's heading is the orientation field at its position plus a
    #: bounded deviation.  ``None`` deviation = not field-aligned.
    deviation: Optional[Interval] = None
    width: Optional[Interval] = None
    height: Optional[Interval] = None
    view_distance: Optional[float] = None  # upper bound, metres
    view_angle: Optional[float] = None  # upper bound, radians
    require_visible: Optional[bool] = None

    @property
    def min_radius(self) -> float:
        """Sound lower bound on the centre-to-edge distance (0 = unknown)."""
        if self.width is None or self.height is None:
            return 0.0
        low = min(self.width.low, self.height.low)
        return max(0.0, low / 2.0)

    @property
    def max_corner_radius(self) -> Optional[float]:
        """Sound upper bound on the centre-to-corner distance (None = unknown)."""
        if self.width is None or self.height is None:
            return None
        return math.hypot(self.width.magnitude, self.height.magnitude) / 2.0

    def copy(self) -> "ClassFacts":
        return replace(self)


def _facts_from_python_class(
    name: str, python_class: Any, profiles: Sequence[Any] = ()
) -> ClassFacts:
    """Derive facts for a world-library class by inspecting its defaults.

    *profiles* are the :class:`~repro.worlds.profile.AnalysisProfile` hooks
    of the imported worlds; the first hook that recognizes the class may
    patch the width/height/deviation intervals (e.g. field-aligned classes
    whose dimensions come from a model table).
    """
    from ..core.distributions import supporting_interval
    from ..core.lazy import is_lazy
    from ..core.objects import Object

    facts = ClassFacts(name=name)
    try:
        facts.is_scenario_object = issubclass(python_class, Object)
    except TypeError:
        facts.is_scenario_object = False
    defaults = {}
    try:
        defaults = python_class._property_defaults()
    except Exception:
        return facts

    def static_interval(prop: str) -> Optional[Interval]:
        factory = defaults.get(prop)
        if factory is None:
            return None
        try:
            value = factory()
        except Exception:
            return None
        if is_lazy(value):
            return None
        low, high = supporting_interval(value)
        if low is None or high is None:
            return None
        return Interval(low, high)

    facts.width = static_interval("width")
    facts.height = static_interval("height")
    view = static_interval("viewDistance") or static_interval("visibleDistance")
    facts.view_distance = view.high if view is not None else None
    angle = static_interval("viewAngle")
    facts.view_angle = angle.high if angle is not None else None
    visible = defaults.get("requireVisible")
    if visible is not None:
        try:
            value = visible()
            if isinstance(value, bool):
                facts.require_visible = value
        except Exception:
            pass

    # World-specific patches (field alignment, model-table dimensions)
    # come from the imported worlds' analysis profiles; a class no profile
    # recognizes keeps the sound defaults derived above.
    for profile in profiles:
        if profile is None or profile.class_facts is None:
            continue
        try:
            patch = profile.class_facts(python_class, static_interval)
        except Exception:
            patch = None
        if not patch:
            continue
        if "deviation" in patch:
            facts.deviation = patch["deviation"]
        if "width" in patch:
            facts.width = patch["width"]
        if "height" in patch:
            facts.height = patch["height"]
        break
    return facts


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


@dataclass
class _Creation:
    """One statically-mapped object creation."""

    order: int  # creation order among scenario objects
    node: ast.ObjectCreation
    name: Optional[str] = None  # variable it was assigned to, if any
    facts: Optional[ClassFacts] = None
    offset_box: Optional[VecInterval] = None  # ``offset by`` box, local frame
    offset_anchor: Optional[int] = None  # creation order of the anchor (ego)
    visible_from: Optional[int] = None  # ``visible [from X]`` viewer


@dataclass
class _PairBound:
    max_distance: float
    source: str


class _Analyzer:
    def __init__(self, program: ast.Program, metadata: Any):
        self.program = program
        self.metadata = metadata
        self.notes: List[str] = []
        self.env: Dict[str, Any] = {}
        self.creations: List[_Creation] = []
        self.by_name: Dict[str, _Creation] = {}
        self.ego: Optional[_Creation] = None
        self.mapped = True
        self.world_namespace: Dict[str, Any] = {}
        # Analysis hooks of the imported worlds (in import order), plus the
        # union of their field-deviation property names and model-table
        # symbols (see AnalysisProfile).
        self.analysis_profiles: List[Any] = []
        self.deviation_properties: Set[str] = set()
        self.model_symbols: Set[str] = set()
        # The class definition each name is bound to at the current point of
        # the scan, and (by definition id) the definition its base name was
        # bound to where it was defined; None = a world or builtin class.
        self.class_defs: Dict[str, ast.ClassDefinition] = {}
        self.class_bases: Dict[int, Optional[ast.ClassDefinition]] = {}
        self.creator_functions: Set[str] = set(KNOWN_CREATOR_FUNCTIONS)
        # Facts of world/builtin classes by name, of program classes by
        # definition id (a redefined name gets a fresh entry).
        self.facts_cache: Dict[str, ClassFacts] = {}
        self.definition_facts: Dict[int, ClassFacts] = {}
        # Constraints, keyed by unordered creation-order pairs.
        self.distance_bounds: Dict[Tuple[int, int], List[_PairBound]] = {}
        # Arcs of heading(b) - heading(a), keyed by the *ordered* pair (a, b).
        self.heading_arcs: Dict[Tuple[int, int], List[Tuple[CircularInterval, str]]] = {}
        self.infeasible_pairs: Dict[Tuple[int, int], str] = {}

    def note(self, message: str) -> None:
        self.notes.append(message)

    def bail(self, reason: str) -> None:
        if self.mapped:
            self.mapped = False
            self.note(f"mapping abandoned: {reason}")

    # -- abstract expression evaluation ---------------------------------------

    def eval(self, node: Optional[ast.Node]) -> Any:
        """Abstract-evaluate *node* to an Interval/VecInterval/str, or None."""
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.NumberLiteral):
            return Interval.point(node.value)
        if isinstance(node, ast.StringLiteral):
            return node.value
        if isinstance(node, ast.Degrees):
            value = self.eval(node.value)
            return value.scaled(math.pi / 180.0) if isinstance(value, Interval) else UNKNOWN
        if isinstance(node, ast.IntervalDistribution):
            low, high = self.eval(node.low), self.eval(node.high)
            if isinstance(low, Interval) and isinstance(high, Interval):
                if low.low <= high.high:
                    return Interval(min(low.low, high.low), max(low.high, high.high))
            return UNKNOWN
        if isinstance(node, ast.VectorLiteral):
            x, y = self.eval(node.x), self.eval(node.y)
            if isinstance(x, Interval) and isinstance(y, Interval):
                return VecInterval(x, y)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self.env.get(node.identifier, UNKNOWN)
        if isinstance(node, ast.UnaryOp) and node.operator == "-":
            value = self.eval(node.operand)
            return -value if isinstance(value, Interval) else UNKNOWN
        if isinstance(node, ast.BinaryOp):
            left, right = self.eval(node.left), self.eval(node.right)
            if isinstance(left, Interval) and isinstance(right, Interval):
                if node.operator == "+":
                    return left + right
                if node.operator == "-":
                    return left - right
                if node.operator == "*":
                    return left * right
                if node.operator == "/":
                    return left.divided_by(right)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> Any:
        function = node.function
        if isinstance(function, ast.Name):
            name = function.identifier
            if name == "abs" and len(node.args) == 1:
                value = self.eval(node.args[0])
                return value.abs() if isinstance(value, Interval) else UNKNOWN
            if name == "resample" and len(node.args) == 1:
                return self.eval(node.args[0])
            if name == "Uniform" and node.args:
                values = [self.eval(arg) for arg in node.args]
                if all(isinstance(v, Interval) for v in values):
                    hull = values[0]
                    for value in values[1:]:
                        hull = hull.hull(value)
                    return hull
        return UNKNOWN

    # -- statement scan ---------------------------------------------------------

    def scan(self) -> None:
        for statement in self.program.statements:
            if not self.mapped:
                return
            self._scan_statement(statement)

    def _scan_statement(self, statement: ast.Node) -> None:
        if isinstance(statement, ast.ImportStatement):
            self._load_world(statement.module)
            return
        if isinstance(statement, ast.ClassDefinition):
            # Like the interpreter, resolve the base to the binding visible
            # here: ``class Crate(Crate):`` extends the earlier ``Crate``.
            self.class_bases[id(statement)] = self.class_defs.get(
                statement.superclass or "Object"
            )
            self.class_defs[statement.name] = statement
            if any(_contains_creation(expr) for _name, expr in statement.properties):
                self.bail(f"class {statement.name} has creating property defaults")
            return
        if isinstance(statement, ast.FunctionDefinition):
            if any(_contains_creation(child) for child in statement.body):
                self.creator_functions.add(statement.name)
            return
        if isinstance(statement, ast.Assignment):
            self._scan_assignment(statement)
            return
        if isinstance(statement, ast.ExpressionStatement):
            expression = statement.expression
            if isinstance(expression, ast.ObjectCreation):
                self._record_creation(expression, name=None)
                return
            if _contains_creation(expression) or self._calls_creator(expression):
                self.bail(f"dynamic object creation at line {statement.line}")
            return
        if isinstance(statement, ast.RequireStatement):
            if statement.probability is None:  # soft requirements must not prune
                self._scan_require(statement.condition)
            return
        if isinstance(statement, (ast.ParamStatement, ast.MutateStatement)):
            return  # mutation is handled per-object at prune time
        # Control flow: creations inside are unmappable; assignments inside
        # make the assigned names unknown (the branch may or may not run) —
        # including which *object* a name refers to, so creation bindings
        # are invalidated too, and a conditional ego rebinding gives up.
        if isinstance(statement, (ast.IfStatement, ast.ForStatement, ast.WhileStatement)):
            if _contains_creation(statement) or self._calls_creator(statement):
                self.bail(f"object creation under control flow at line {statement.line}")
                return
            assigned = _assigned_names(statement)
            if "ego" in assigned:
                self.bail(f"ego reassigned under control flow at line {statement.line}")
                return
            for name in assigned:
                self.env.pop(name, None)
                self.by_name.pop(name, None)
            return
        # Anything else (return at top level etc.) carries no creations.
        if _contains_creation(statement) or self._calls_creator(statement):
            self.bail(f"unanalyzed creating statement at line {statement.line}")

    def _scan_assignment(self, statement: ast.Assignment) -> None:
        target = statement.target
        value = statement.value
        if isinstance(value, ast.ObjectCreation):
            creation = self._record_creation(
                value, name=target.identifier if isinstance(target, ast.Name) else None
            )
            if (
                creation is not None
                and isinstance(target, ast.Name)
                and target.identifier == "ego"
            ):
                self.ego = creation
            return
        if _contains_creation(value) or self._calls_creator(value):
            self.bail(f"dynamic object creation in assignment at line {statement.line}")
            return
        if isinstance(target, ast.Name):
            if target.identifier == "ego":
                # ``ego = existingObject`` re-points the ego.
                existing = (
                    self.by_name.get(value.identifier)
                    if isinstance(value, ast.Name)
                    else None
                )
                if existing is not None:
                    self.ego = existing
                else:
                    self.bail(f"ego rebound to an unanalyzable value at line {statement.line}")
                return
            # Any reassignment invalidates a previous creation binding for
            # the name; only a recognized alias (``c2 = c``) re-points it.
            self.by_name.pop(target.identifier, None)
            abstract = self.eval(value)
            if abstract is UNKNOWN:
                self.env.pop(target.identifier, None)
                if isinstance(value, ast.Name) and value.identifier in self.by_name:
                    self.by_name[target.identifier] = self.by_name[value.identifier]
            else:
                self.env[target.identifier] = abstract

    def _calls_creator(self, node: ast.Node) -> bool:
        for child in _walk(node):
            if isinstance(child, ast.Call) and isinstance(child.function, ast.Name):
                if child.function.identifier in self.creator_functions:
                    return True
        return False

    def _load_world(self, module: str) -> None:
        try:
            from ..worlds.registry import analysis_profile, load_world

            namespace, _workspace = load_world(module)
            profile = analysis_profile(module)
        except Exception:
            namespace = None
            profile = None
        if namespace:
            self.world_namespace.update(namespace)
        if profile is not None and profile not in self.analysis_profiles:
            self.analysis_profiles.append(profile)
            self.deviation_properties.update(profile.deviation_properties)
            self.model_symbols.update(profile.model_symbols)

    # -- creations ---------------------------------------------------------------

    def _record_creation(
        self, node: ast.ObjectCreation, name: Optional[str]
    ) -> Optional[_Creation]:
        facts = self._facts_for_class(node.class_name)
        if not facts.is_scenario_object:
            if name is not None:
                self.by_name.pop(name, None)
            return None  # helper Points/OrientedPoints never join the scenario
        creation = _Creation(order=len(self.creations), node=node, name=name, facts=facts.copy())
        self.creations.append(creation)
        if name is not None:
            self.by_name[name] = creation
        self._apply_specifiers(creation)
        return creation

    def _facts_for_class(self, class_name: str) -> ClassFacts:
        definition = self.class_defs.get(class_name)
        if definition is not None:
            return self._facts_for_definition(definition)
        return self._facts_for_builtin(class_name)

    def _facts_for_definition(self, definition: ast.ClassDefinition) -> ClassFacts:
        cached = self.definition_facts.get(id(definition))
        if cached is not None:
            return cached
        base = self.class_bases[id(definition)]
        if base is not None:
            facts = self._facts_for_definition(base).copy()
        else:
            facts = self._facts_for_builtin(definition.superclass or "Object").copy()
        facts.name = definition.name
        self._apply_class_overrides(facts, definition)
        self.definition_facts[id(definition)] = facts
        return facts

    def _facts_for_builtin(self, class_name: str) -> ClassFacts:
        """Facts of a class the program did not define (world or builtin)."""
        cached = self.facts_cache.get(class_name)
        if cached is not None:
            return cached
        python_class = self.world_namespace.get(class_name)
        if python_class is None and class_name in NON_OBJECT_CLASSES:
            facts = ClassFacts(name=class_name, is_scenario_object=False)
        elif python_class is None and class_name == "Object":
            from ..core.objects import Object

            facts = _facts_from_python_class(class_name, Object, self.analysis_profiles)
        elif python_class is not None:
            facts = _facts_from_python_class(class_name, python_class, self.analysis_profiles)
        else:
            facts = ClassFacts(name=class_name)
        self.facts_cache[class_name] = facts
        return facts

    def _apply_class_overrides(self, facts: ClassFacts, definition: ast.ClassDefinition) -> None:
        for prop, expr in definition.properties:
            self._apply_property(facts, prop, expr)

    def _apply_property(self, facts: ClassFacts, prop: str, expr: ast.Node) -> None:
        """Fold one ``with``-style property override into *facts* (soundly)."""
        if prop == "width":
            value = self.eval(expr)
            facts.width = value if isinstance(value, Interval) else None
        elif prop == "height":
            value = self.eval(expr)
            facts.height = value if isinstance(value, Interval) else None
        elif prop in self.deviation_properties:
            value = self.eval(expr)
            if facts.deviation is not None:
                facts.deviation = value if isinstance(value, Interval) else None
        elif prop in ("visibleDistance", "viewDistance"):
            value = self.eval(expr)
            facts.view_distance = value.high if isinstance(value, Interval) else None
        elif prop == "viewAngle":
            value = self.eval(expr)
            facts.view_angle = value.high if isinstance(value, Interval) else None
        elif prop == "requireVisible":
            if isinstance(expr, ast.BooleanLiteral):
                facts.require_visible = expr.value
            else:
                facts.require_visible = None
        elif prop == "model":
            dims = self._model_dimensions(expr)
            facts.width, facts.height = dims if dims is not None else (None, None)
        elif prop == "heading":
            facts.deviation = self._heading_deviation(expr)

    def _model_table(self, symbol: str) -> Optional[Any]:
        """The model table *symbol* binds, when an imported world declares it."""
        if symbol not in self.model_symbols:
            return None
        table = self.world_namespace.get(symbol)
        if table is None or not isinstance(getattr(table, "models", None), dict):
            return None
        return table

    def _model_dimensions(self, expr: ast.Node) -> Optional[Tuple[Interval, Interval]]:
        """Width/height bounds for a recognizable ``model`` expression.

        Recognizes ``<Table>.models['NAME']`` and ``<Table>.defaultModel()``
        / ``<Table>.default_model()`` where ``<Table>`` is a model symbol
        declared by an imported world's analysis profile.
        """
        if isinstance(expr, ast.Call) and isinstance(expr.function, ast.Name):
            if expr.function.identifier == "resample" and len(expr.args) == 1:
                return self._model_dimensions(expr.args[0])
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.target, ast.Attribute)
            and isinstance(expr.target.target, ast.Name)
            and expr.target.attribute == "models"
            and isinstance(expr.index, ast.StringLiteral)
        ):
            table = self._model_table(expr.target.target.identifier)
            if table is not None:
                model = table.models.get(expr.index.value)
                if model is not None:
                    return Interval.point(model.width), Interval.point(model.height)
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.function, ast.Attribute)
            and isinstance(expr.function.target, ast.Name)
            and expr.function.attribute in ("defaultModel", "default_model")
        ):
            table = self._model_table(expr.function.target.identifier)
            if table is not None:
                widths = [model.width for model in table.models.values()]
                heights = [model.height for model in table.models.values()]
                return Interval(min(widths), max(widths)), Interval(min(heights), max(heights))
        return None

    def _heading_deviation(self, expr: ast.Node) -> Optional[Interval]:
        """Deviation interval when a heading expression is field-relative."""
        if isinstance(expr, ast.RelativeTo) and self._is_orientation_field(expr.reference):
            value = self.eval(expr.value)
            return value if isinstance(value, Interval) else None
        if self._is_orientation_field(expr):
            return Interval.point(0.0)
        return None

    def _is_orientation_field(self, node: ast.Node) -> bool:
        from ..core.vectorfields import VectorField

        return isinstance(node, ast.Name) and isinstance(
            self.world_namespace.get(node.identifier), VectorField
        )

    def _apply_specifiers(self, creation: _Creation) -> None:
        facts = creation.facts
        for spec in creation.node.specifiers:
            kind = spec.kind
            if kind == "with" and spec.name:
                self._apply_property(facts, spec.name, spec.operands[0])
            elif kind == "offset by" and spec.operands:
                value = self.eval(spec.operands[0])
                if isinstance(value, VecInterval) and self.ego is not None:
                    creation.offset_box = value
                    creation.offset_anchor = self.ego.order
            elif kind == "visible":
                viewer = self.ego
                if spec.operands:
                    operand = spec.operands[0]
                    viewer = (
                        self.by_name.get(operand.identifier)
                        if isinstance(operand, ast.Name)
                        else None
                    )
                if viewer is not None:
                    creation.visible_from = viewer.order
            elif kind == "facing" and spec.operands:
                facts.deviation = self._heading_deviation(spec.operands[0])
            elif kind in ("facing toward", "facing away from", "apparently facing"):
                facts.deviation = None

    # -- requirements ------------------------------------------------------------

    def _scan_require(self, condition: ast.Node) -> None:
        for conjunct in _conjuncts(condition):
            self._scan_conjunct(conjunct)

    def _resolve_object(self, node: Optional[ast.Node]) -> Optional[_Creation]:
        if node is None:
            return self.ego
        if isinstance(node, ast.Name):
            if node.identifier == "ego":
                return self.ego
            return self.by_name.get(node.identifier)
        return None

    def _scan_conjunct(self, node: ast.Node) -> None:
        if isinstance(node, ast.CanSee):
            viewer = self._resolve_object(node.viewer)
            target = self._resolve_object(node.target)
            if viewer is not None and target is not None and viewer is not target:
                self._add_can_see(viewer, target)
            return
        if isinstance(node, ast.Comparison):
            self._scan_comparison(node)

    def _scan_comparison(self, node: ast.Comparison) -> None:
        operator = node.operator
        left, right = node.left, node.right
        # Normalize to <constrained expr> <op> <static bound>.
        bound = self.eval(right)
        expr = left
        if not isinstance(bound, Interval):
            bound = self.eval(left)
            expr = right
            operator = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(operator, operator)
        if not isinstance(bound, Interval):
            return
        upper = operator in ("<", "<=")
        lower = operator in (">", ">=")
        if not (upper or lower):
            return

        if isinstance(expr, ast.DistanceTo) and upper:
            origin = self._resolve_object(expr.origin)
            target = self._resolve_object(expr.target)
            if origin is not None and target is not None and origin is not target:
                self._add_distance(origin, target, bound.high, "distance requirement")
            return

        relative, absolute = _relative_heading_operand(expr)
        if relative is None:
            return
        origin = self._resolve_object(relative.reference)
        target = self._resolve_object(relative.heading)
        if origin is None or target is None or origin is target:
            return
        # The arc of heading(target) - heading(origin) this conjunct allows.
        if absolute:
            if upper:
                arc = CircularInterval.from_sweep(-bound.high, bound.high)
            else:  # abs(rh) >= a: the complement arc through pi
                arc = CircularInterval.from_sweep(bound.low, 2 * math.pi - bound.low)
        else:
            # relative heading is normalized into (-pi, pi]; one-sided
            # comparisons clamp against those inherent limits.
            if upper:
                arc = CircularInterval.from_sweep(-math.pi, bound.high)
            else:
                arc = CircularInterval.from_sweep(bound.low, math.pi)
        self._add_heading_arc(origin, target, arc, "relative-heading requirement")

    # -- constraint recording ------------------------------------------------------

    def _add_distance(self, a: _Creation, b: _Creation, bound: float, source: str) -> None:
        key = (min(a.order, b.order), max(a.order, b.order))
        self.distance_bounds.setdefault(key, []).append(_PairBound(bound, source))

    def _add_heading_arc(
        self, origin: _Creation, target: _Creation, arc: CircularInterval, source: str
    ) -> None:
        key = (origin.order, target.order)
        self.heading_arcs.setdefault(key, []).append((arc, source))

    def _add_can_see(self, viewer: _Creation, target: _Creation) -> None:
        # Distance: the target is visible when its centre *or a corner* lies
        # in the view region, so the centre distance is bounded by the view
        # distance plus the target's corner radius.
        corner = target.facts.max_corner_radius
        view_distance = viewer.facts.view_distance
        if view_distance is not None and corner is not None:
            self._add_distance(viewer, target, view_distance + corner, "can see")
        # The oncoming pattern (Alg. 2's flagship derivation): the viewer is
        # placed ``offset by`` a bounded box in the target's frame and must
        # see the target through a bounded cone, so the relative heading
        # between the two field directions is pinned to an arc around pi.
        if (
            viewer.offset_anchor is not None
            and viewer.offset_anchor == target.order
            and viewer.offset_box is not None
            and viewer.facts.view_angle is not None
            and view_distance is not None
            and corner is not None
        ):
            cone = viewer.offset_box.heading_cone()
            min_distance = viewer.offset_box.min_norm
            if cone is None or min_distance <= corner:
                return
            slack = viewer.facts.view_angle / 2.0 + math.asin(corner / min_distance)
            arc = CircularInterval.from_sweep(
                math.pi + cone.low - slack, math.pi + cone.high + slack
            )
            # heading(viewer) - heading(target) ∈ arc.
            self._add_heading_arc(target, viewer, arc, "can-see cone (oncoming pattern)")

    def _implicit_pair_bounds(self) -> None:
        """Distance bounds implied by specifiers and built-in requirements."""
        for creation in self.creations:
            if creation.offset_box is not None and creation.offset_anchor is not None:
                anchor = self.creations[creation.offset_anchor]
                self._add_distance(
                    anchor, creation, creation.offset_box.max_norm, "offset by"
                )
            if creation.visible_from is not None:
                viewer = self.creations[creation.visible_from]
                if viewer.facts.view_distance is not None:
                    # The *centre* is sampled inside the view region, so the
                    # view distance bounds it directly (no corner slack).
                    self._add_distance(
                        viewer, creation, viewer.facts.view_distance, "visible specifier"
                    )
            if (
                creation.facts.require_visible
                and self.ego is not None
                and creation is not self.ego
            ):
                view_distance = self.ego.facts.view_distance
                corner = creation.facts.max_corner_radius
                if view_distance is not None and corner is not None:
                    self._add_distance(
                        self.ego, creation, view_distance + corner, "requireVisible"
                    )

    # -- assembly ------------------------------------------------------------------

    def verify_mapping(self) -> bool:
        """Cross-check the statically collected creations against metadata."""
        if not self.mapped:
            return False
        summaries = getattr(self.metadata, "objects", ())
        if len(self.creations) != len(summaries):
            self.bail(
                f"saw {len(self.creations)} creations but the scenario has "
                f"{len(summaries)} objects"
            )
            return False
        for creation, summary in zip(self.creations, summaries):
            if creation.node.class_name != summary.class_name:
                self.bail(
                    f"object {summary.index} is a {summary.class_name}, "
                    f"analysis saw {creation.node.class_name}"
                )
                return False
        if self.ego is not None and self.ego.order != getattr(self.metadata, "ego_index", 0):
            self.bail(
                f"ego mapped to index {self.ego.order} but the scenario's ego "
                f"is index {self.metadata.ego_index}"
            )
            return False
        return True

    def result(self) -> PruneBounds:
        if not self.verify_mapping():
            return PruneBounds(objects=(), mapped=False, notes=tuple(self.notes))
        self._implicit_pair_bounds()

        def tightest(a: int, b: int) -> Optional[_PairBound]:
            bounds = self.distance_bounds.get((min(a, b), max(a, b)))
            if not bounds:
                return None
            return min(bounds, key=lambda pair: pair.max_distance)

        # Intersect all heading arcs per ordered pair.
        combined_arcs: Dict[Tuple[int, int], Tuple[Optional[CircularInterval], str]] = {}
        for (a, b), arcs in self.heading_arcs.items():
            arc: Optional[CircularInterval] = arcs[0][0]
            sources = [arcs[0][1]]
            for other, source in arcs[1:]:
                sources.append(source)
                arc = arc.intersect(other) if arc is not None else None
            combined_arcs[(a, b)] = (arc, " + ".join(dict.fromkeys(sources)))

        entries: List[ObjectBounds] = []
        for creation in self.creations:
            facts = creation.facts
            constraints: List[HeadingConstraint] = []
            tightest_distance: Optional[float] = None
            for (a, b), (arc, source) in combined_arcs.items():
                if creation.order not in (a, b):
                    continue
                partner_order = b if creation.order == a else a
                partner = self.creations[partner_order]
                if facts.deviation is None or partner.facts.deviation is None:
                    self.note(
                        f"heading arc {a}->{b} dropped: object not field-aligned"
                    )
                    continue
                pair = tightest(a, b)
                if pair is None:
                    self.note(f"heading arc {a}->{b} dropped: no distance bound")
                    continue
                deviation = facts.deviation.magnitude + partner.facts.deviation.magnitude
                if arc is None:
                    constraints.append(
                        HeadingConstraint(
                            partner=partner_order,
                            center=0.0,
                            half_width=-1.0,
                            max_distance=pair.max_distance,
                            deviation=deviation,
                            source=f"{source} (statically empty)",
                        )
                    )
                    continue
                if arc.is_full:
                    continue
                oriented = arc if creation.order == a else arc.negated()
                constraints.append(
                    HeadingConstraint(
                        partner=partner_order,
                        center=oriented.center,
                        half_width=oriented.half_width,
                        max_distance=pair.max_distance,
                        deviation=deviation,
                        source=f"{source} [{pair.source}]",
                    )
                )
            for other in self.creations:
                if other is creation:
                    continue
                pair = tightest(creation.order, other.order)
                if pair is not None:
                    if tightest_distance is None or pair.max_distance < tightest_distance:
                        tightest_distance = pair.max_distance

            # Algorithm 3 inputs: any partner bound within M means the whole
            # pair must fit locally; no cell narrower than the fatter
            # object's thin dimension can host it in isolation.
            min_configuration_width: Optional[float] = None
            narrowness_distance: Optional[float] = None
            if tightest_distance is not None:
                partner_radii = [
                    self.creations[o].facts.min_radius
                    for o in range(len(self.creations))
                    if o != creation.order
                    and tightest(creation.order, o) is not None
                ]
                width = 2.0 * max([facts.min_radius] + partner_radii)
                if width > 0:
                    min_configuration_width = width
                    narrowness_distance = tightest_distance

            entries.append(
                ObjectBounds(
                    index=creation.order,
                    class_name=creation.node.class_name,
                    min_radius=facts.min_radius,
                    max_distance=tightest_distance,
                    heading_constraints=tuple(constraints),
                    min_configuration_width=min_configuration_width,
                    narrowness_distance=narrowness_distance,
                )
            )
        return PruneBounds(objects=tuple(entries), mapped=True, notes=tuple(self.notes))


# ---------------------------------------------------------------------------
# AST walking helpers
# ---------------------------------------------------------------------------


def _walk(node: ast.Node):
    stack: List[Any] = [node]
    while stack:
        current = stack.pop()
        if not isinstance(current, ast.Node):
            continue
        yield current
        for value in vars(current).values():
            if isinstance(value, ast.Node):
                stack.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, ast.Node):
                        stack.append(item)
                    elif isinstance(item, tuple):
                        stack.extend(sub for sub in item if isinstance(sub, ast.Node))


def _contains_creation(node: ast.Node) -> bool:
    return any(isinstance(child, ast.ObjectCreation) for child in _walk(node))


def _assigned_names(node: ast.Node) -> Set[str]:
    names: Set[str] = set()
    for child in _walk(node):
        if isinstance(child, ast.Assignment) and isinstance(child.target, ast.Name):
            names.add(child.target.identifier)
        elif isinstance(child, ast.ForStatement):
            names.add(child.variable)
    return names


def _conjuncts(node: ast.Node) -> List[ast.Node]:
    if isinstance(node, ast.BoolOp) and node.operator == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _relative_heading_operand(node: ast.Node) -> Tuple[Optional[ast.RelativeHeading], bool]:
    """Unwrap ``relative heading of X`` / ``abs(relative heading of X)``."""
    if isinstance(node, ast.RelativeHeading):
        return node, False
    if (
        isinstance(node, ast.Call)
        and isinstance(node.function, ast.Name)
        and node.function.identifier == "abs"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.RelativeHeading)
    ):
        return node.args[0], True
    return None, False


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def analyze_program(program: ast.Program, metadata: Any) -> PruneBounds:
    """Derive :class:`PruneBounds` for a compiled program.

    *metadata* is the artifact's :class:`~repro.language.ArtifactMetadata`;
    it is used to *verify* the static AST→object mapping (object count,
    class names, ego index) before any per-object bound is trusted.  On any
    mismatch the result is unmapped and pruning falls back to
    containment-only behaviour — never to wrong bounds.
    """
    analyzer = _Analyzer(program, metadata)
    analyzer.scan()
    return analyzer.result()


__all__ = ["analyze_program", "ClassFacts", "VecInterval"]
