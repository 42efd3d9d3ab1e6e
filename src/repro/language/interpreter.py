"""Tree-walking interpreter for Scenic programs.

Executing a program's statements has the side effects described in Sec. 5.1:
objects are created (and registered with the active scenario context), the
ego is assigned, requirements are declared, and global parameters are set.
Random sub-expressions evaluate to distribution nodes rather than concrete
values, so the interpreter's output — a :class:`repro.core.Scenario` — is a
symbolic description of the scene distribution, later sampled by rejection.

Following the paper's restriction (Sec. 4), conditional control flow may not
depend on random values; the interpreter raises an error if a branch
condition is random.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from ..core import specifiers as core_specifiers
from ..core.context import ScenarioContext, pop_context, push_context
from ..core.distributions import (
    AttributeDistribution,
    Discrete,
    Distribution,
    Normal,
    OperatorDistribution,
    Range,
    TruncatedNormal,
    Uniform,
    needs_sampling,
    resample,
)
from ..core.errors import InterpreterError, ScenicError
from ..core.lazy import (
    DelayedArgument,
    is_lazy,
    make_delayed_function,
)
from ..core.objects import Object, OrientedPoint, Point
from ..core.operators import (
    angle_between,
    apparent_heading,
    back_left_of,
    back_of,
    back_right_of,
    can_see,
    distance_between,
    follow_field,
    front_left_of,
    front_of,
    front_right_of,
    heading_of,
    heading_relative_to,
    is_in_region,
    left_edge_of,
    oriented_point_relative_to,
    position_of,
    region_visible_from,
    relative_heading,
    right_edge_of,
    vector_offset_along_direction,
)
from ..core.regions import Region
from ..core.requirements import Requirement
from ..core.scenario import Scenario
from ..core.vectorfields import VectorField
from ..core.vectors import Vector
from ..core.workspace import Workspace
from . import ast_nodes as ast
from .parser import parse_program

DEGREES_TO_RADIANS = math.pi / 180.0


class _ReturnValue(Exception):
    """Internal control flow for ``return`` statements."""

    def __init__(self, value: Any, line: Optional[int] = None):
        self.value = value
        self.line = line


class _BreakLoop(Exception):
    def __init__(self, line: Optional[int] = None):
        self.line = line
        super().__init__()


class _ContinueLoop(Exception):
    def __init__(self, line: Optional[int] = None):
        self.line = line
        super().__init__()


#: Python-level exceptions that user programs can trigger at evaluation time
#: (bad arithmetic, bad indexing, bad coercions in the core runtime, ...).
#: They are converted to :class:`InterpreterError` with the source line so
#: the front end never leaks a raw Python traceback for a program bug.
_RUNTIME_ERRORS = (
    TypeError,
    ValueError,
    KeyError,
    IndexError,
    AttributeError,
    ArithmeticError,  # includes ZeroDivisionError and OverflowError
    RecursionError,
)


class _SelfPlaceholder:
    """Stands for ``self`` inside class default-value expressions.

    Attribute access on the placeholder produces a :class:`DelayedArgument`
    depending on that property, which is how default values such as
    ``roadDirection at self.position`` become dependencies resolved by
    Algorithm 1.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<self>"


class Environment:
    """A lexical scope: name bindings with an optional parent scope."""

    def __init__(self, parent: Optional["Environment"] = None):
        self.bindings: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise InterpreterError(f"name '{name}' is not defined")

    def contains(self, name: str) -> bool:
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                return True
            scope = scope.parent
        return False

    def assign(self, name: str, value: Any) -> None:
        self.bindings[name] = value


class ScenicFunction:
    """A function defined inside a Scenic program."""

    def __init__(self, definition: ast.FunctionDefinition, closure: Environment, interpreter: "Interpreter"):
        self.definition = definition
        self.closure = closure
        self.interpreter = interpreter

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        definition = self.definition
        interpreter = self.interpreter
        if interpreter.call_depth >= interpreter.MAX_CALL_DEPTH:
            raise InterpreterError(
                f"maximum call depth ({interpreter.MAX_CALL_DEPTH}) exceeded "
                f"while calling {definition.name}()",
                definition.line,
            )
        scope = Environment(self.closure)
        parameters = definition.parameters
        if len(args) > len(parameters):
            raise InterpreterError(
                f"{definition.name}() takes at most {len(parameters)} arguments", definition.line
            )
        bound = dict(zip(parameters, args))
        for name, value in kwargs.items():
            if name not in parameters:
                raise InterpreterError(f"{definition.name}() got unexpected argument '{name}'", definition.line)
            if name in bound:
                raise InterpreterError(f"{definition.name}() got duplicate argument '{name}'", definition.line)
            bound[name] = value
        for parameter, default in zip(parameters, definition.defaults):
            if parameter not in bound:
                if default is None:
                    raise InterpreterError(
                        f"{definition.name}() missing required argument '{parameter}'", definition.line
                    )
                bound[parameter] = self.interpreter.evaluate(default, self.closure)
        for name, value in bound.items():
            scope.assign(name, value)
        interpreter.call_depth += 1
        try:
            self.interpreter.execute_block(definition.body, scope)
        except _ReturnValue as result:
            return result.value
        except _BreakLoop as escape:
            raise InterpreterError("'break' outside a loop", escape.line) from None
        except _ContinueLoop as escape:
            raise InterpreterError("'continue' outside a loop", escape.line) from None
        finally:
            interpreter.call_depth -= 1
        return None

    def __repr__(self) -> str:
        return f"<scenic function {self.definition.name}>"


def _make_builtins() -> Dict[str, Any]:
    """Names available to every Scenic program."""
    return {
        "Uniform": Uniform,
        "Discrete": Discrete,
        "Normal": Normal,
        "TruncatedNormal": TruncatedNormal,
        "Range": Range,
        "resample": resample,
        "Point": Point,
        "OrientedPoint": OrientedPoint,
        "Object": Object,
        "Vector": Vector,
        # A subset of Python builtins that scenario code tends to use.
        "range": range,
        "len": len,
        "abs": _scenic_abs,
        "min": min,
        "max": max,
        "int": int,
        "float": float,
        "str": str,
        "round": round,
        "print": print,
        "math": math,
        "True": True,
        "False": False,
        "None": None,
    }


def _scenic_abs(value: Any) -> Any:
    """``abs`` that also works on random values (returns a derived distribution)."""
    if isinstance(value, Distribution):
        return OperatorDistribution("abs", value)
    if isinstance(value, DelayedArgument):
        return make_delayed_function(_scenic_abs, value)
    return abs(value)


class Interpreter:
    """Executes Scenic programs against the core runtime."""

    #: Maximum nesting of Scenic-level function calls before the interpreter
    #: reports unbounded recursion instead of dying with a RecursionError.
    #: Each Scenic call costs a couple of dozen Python frames, so the cap
    #: must fire well before CPython's own recursion limit would.
    MAX_CALL_DEPTH = 32

    #: Maximum number of objects one program run may create.  A runaway
    #: loop that creates an object per pass would otherwise hold a worker
    #: (and its memory) until the ``while`` cap fires, or for as long as a
    #: long ``for`` runs; the largest corpus program creates 13.
    MAX_OBJECTS = 10_000

    def __init__(self, extra_names: Optional[Dict[str, Any]] = None):
        self.globals = Environment()
        for name, value in _make_builtins().items():
            self.globals.assign(name, value)
        if extra_names:
            for name, value in extra_names.items():
                self.globals.assign(name, value)
        self.context: Optional[ScenarioContext] = None
        self.workspace: Optional[Workspace] = None
        self.call_depth = 0
        self.objects_created = 0

    # -- top level ---------------------------------------------------------------

    def run(self, source: str, workspace: Optional[Workspace] = None) -> Scenario:
        """Parse and execute *source*, returning the resulting scenario.

        Equivalent to ``run_program(parse_program(source))``; callers with a
        pre-parsed AST (the compiled-artifact warm path of
        :mod:`repro.language.compiler`) should call :meth:`run_program`
        directly and skip the lexer and parser entirely.
        """
        return self.run_program(parse_program(source), workspace=workspace)

    def run_program(self, program: ast.Program, workspace: Optional[Workspace] = None) -> Scenario:
        """Execute an already-parsed *program* and return the resulting scenario.

        Program failures surface as :class:`~repro.core.errors.ScenicError`
        subclasses, with source lines wherever they are known; ``break`` /
        ``continue`` / ``return`` at module level are reported rather than
        leaking the interpreter's internal control-flow exceptions, and any
        residual Python exception is converted as a last resort (the
        "never crashes" contract relied on by :mod:`repro.fuzz`).

        The AST is treated as read-only: one parsed program may be executed
        any number of times (each run yields an independent scenario), which
        is what makes :class:`~repro.language.compiler.CompiledScenario`
        artifacts reusable and shareable across threads and processes.
        """
        self.context = push_context()
        self.workspace = workspace
        self.objects_created = 0
        try:
            self.execute_block(program.statements, self.globals)
        except _BreakLoop as escape:
            raise InterpreterError("'break' outside a loop", escape.line) from None
        except _ContinueLoop as escape:
            raise InterpreterError("'continue' outside a loop", escape.line) from None
        except _ReturnValue as escape:
            raise InterpreterError("'return' outside a function", escape.line) from None
        except ScenicError:
            raise
        except Exception as error:
            raise InterpreterError(f"internal error: {type(error).__name__}: {error}") from error
        finally:
            context = pop_context()
        self.context = None
        scenario = Scenario.from_context(context, workspace=self.workspace)
        return scenario

    # -- statements ---------------------------------------------------------------

    def execute_block(self, statements: Sequence[ast.Node], env: Environment) -> None:
        for statement in statements:
            self.execute(statement, env)

    def execute(self, node: ast.Node, env: Environment) -> None:
        method = getattr(self, f"_execute_{type(node).__name__}", None)
        if method is None:
            raise InterpreterError(f"cannot execute {type(node).__name__} statement", node.line)
        method(node, env)

    def _execute_ImportStatement(self, node: ast.ImportStatement, env: Environment) -> None:
        from ..worlds.registry import load_world, registered_worlds

        namespace, workspace = load_world(node.module)
        if namespace is None:
            known = ", ".join(registered_worlds(include_aliases=True))
            raise InterpreterError(
                f"unknown Scenic library '{node.module}' (registered: {known})",
                node.line,
            )
        for name, value in namespace.items():
            self.globals.assign(name, value)
        if workspace is not None and self.workspace is None:
            self.workspace = workspace

    def _execute_Assignment(self, node: ast.Assignment, env: Environment) -> None:
        value = self.evaluate(node.value, env)
        target = node.target
        if isinstance(target, ast.Name):
            env.assign(target.identifier, value)
            if target.identifier == "ego":
                self._require_context(node).set_ego(value)
            return
        if isinstance(target, ast.Attribute):
            base = self.evaluate(target.target, env)
            self._guard(node, setattr, base, target.attribute, value)
            return
        if isinstance(target, ast.Subscript):
            base = self.evaluate(target.target, env)
            index = self.evaluate(target.index, env)
            self._guard(node, lambda: base.__setitem__(index, value))
            return
        raise InterpreterError("invalid assignment target", node.line)

    def _execute_ParamStatement(self, node: ast.ParamStatement, env: Environment) -> None:
        context = self._require_context(node)
        for name, expression in node.assignments:
            context.set_param(name, self.evaluate(expression, env))

    def _execute_RequireStatement(self, node: ast.RequireStatement, env: Environment) -> None:
        context = self._require_context(node)
        condition = self.evaluate(node.condition, env)
        probability = 1.0
        if node.probability is not None:
            probability = self.evaluate(node.probability, env)
            if needs_sampling(probability):
                raise InterpreterError("the probability of a soft requirement must be a constant", node.line)
            if (
                isinstance(probability, bool)
                or not isinstance(probability, (int, float))
                or not 0 <= probability <= 1
            ):
                raise InterpreterError(
                    f"the probability of a soft requirement must be a number in [0, 1], "
                    f"not {probability!r}",
                    node.line,
                )
        context.add_requirement(Requirement(condition, probability, line=node.line))

    def _execute_MutateStatement(self, node: ast.MutateStatement, env: Environment) -> None:
        context = self._require_context(node)
        scale: Any = 1.0
        if node.scale is not None:
            scale = self.evaluate(node.scale, env)
        if node.targets:
            targets = [env.lookup(name) for name in node.targets]
        else:
            targets = list(context.objects)
        for target in targets:
            if not isinstance(target, Point):
                raise InterpreterError("mutate targets must be scenario objects", node.line)
            target._assign_property("mutationScale", scale)

    def _execute_ExpressionStatement(self, node: ast.ExpressionStatement, env: Environment) -> None:
        self.evaluate(node.expression, env)

    def _execute_IfStatement(self, node: ast.IfStatement, env: Environment) -> None:
        condition = self.evaluate(node.condition, env)
        self._check_not_random(condition, node, "conditional branching")
        if condition:
            self.execute_block(node.body, env)
        else:
            self.execute_block(node.orelse, env)

    def _execute_ForStatement(self, node: ast.ForStatement, env: Environment) -> None:
        iterable = self.evaluate(node.iterable, env)
        self._check_not_random(iterable, node, "loop iteration")
        iterable = self._guard(node, iter, iterable)
        for item in iterable:
            env.assign(node.variable, item)
            try:
                self.execute_block(node.body, env)
            except _BreakLoop:
                break
            except _ContinueLoop:
                continue

    def _execute_WhileStatement(self, node: ast.WhileStatement, env: Environment) -> None:
        iterations = 0
        while True:
            condition = self.evaluate(node.condition, env)
            self._check_not_random(condition, node, "loop condition")
            if not condition:
                break
            iterations += 1
            if iterations > 1_000_000:
                raise InterpreterError("while loop exceeded 1,000,000 iterations", node.line)
            try:
                self.execute_block(node.body, env)
            except _BreakLoop:
                break
            except _ContinueLoop:
                continue

    def _execute_FunctionDefinition(self, node: ast.FunctionDefinition, env: Environment) -> None:
        env.assign(node.name, ScenicFunction(node, env, self))

    def _execute_ReturnStatement(self, node: ast.ReturnStatement, env: Environment) -> None:
        value = self.evaluate(node.value, env) if node.value is not None else None
        raise _ReturnValue(value, node.line)

    def _execute_BreakStatement(self, node: ast.BreakStatement, env: Environment) -> None:
        raise _BreakLoop(node.line)

    def _execute_ContinueStatement(self, node: ast.ContinueStatement, env: Environment) -> None:
        raise _ContinueLoop(node.line)

    def _execute_PassStatement(self, node: ast.PassStatement, env: Environment) -> None:
        return None

    def _execute_ClassDefinition(self, node: ast.ClassDefinition, env: Environment) -> None:
        if node.superclass is not None:
            if not env.contains(node.superclass):
                raise InterpreterError(f"name '{node.superclass}' is not defined", node.line)
            superclass = env.lookup(node.superclass)
            if not (isinstance(superclass, type) and issubclass(superclass, Point)):
                raise InterpreterError(f"'{node.superclass}' is not a Scenic class", node.line)
        else:
            superclass = Object
        defaults: Dict[str, Callable[[], Any]] = {}
        for property_name, expression in node.properties:
            defaults[property_name] = self._make_default_factory(expression, env)
        new_class = type(node.name, (superclass,), {"_scenic_properties": defaults})
        env.assign(node.name, new_class)

    def _make_default_factory(self, expression: ast.Node, env: Environment) -> Callable[[], Any]:
        def factory() -> Any:
            scope = Environment(env)
            scope.assign("self", _SelfPlaceholder())
            return self.evaluate(expression, scope)

        return factory

    # -- expressions ----------------------------------------------------------------

    def evaluate(self, node: ast.Node, env: Environment) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise InterpreterError(f"cannot evaluate {type(node).__name__} expression", node.line)
        return method(node, env)

    # literals

    def _eval_NumberLiteral(self, node: ast.NumberLiteral, env: Environment) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: ast.StringLiteral, env: Environment) -> Any:
        return node.value

    def _eval_BooleanLiteral(self, node: ast.BooleanLiteral, env: Environment) -> Any:
        return node.value

    def _eval_NoneLiteral(self, node: ast.NoneLiteral, env: Environment) -> Any:
        return None

    def _eval_Name(self, node: ast.Name, env: Environment) -> Any:
        if env.contains(node.identifier):
            return env.lookup(node.identifier)
        if node.identifier == "ego":
            context = self._require_context(node)
            if context.ego is not None:
                return context.ego
        raise InterpreterError(f"name '{node.identifier}' is not defined", node.line)

    def _eval_ListLiteral(self, node: ast.ListLiteral, env: Environment) -> Any:
        return [self.evaluate(element, env) for element in node.elements]

    def _eval_DictLiteral(self, node: ast.DictLiteral, env: Environment) -> Any:
        return {self.evaluate(key, env): self.evaluate(value, env) for key, value in node.items}

    def _eval_IntervalDistribution(self, node: ast.IntervalDistribution, env: Environment) -> Any:
        low = self.evaluate(node.low, env)
        high = self.evaluate(node.high, env)
        return Range(low, high)

    # operators

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Environment) -> Any:
        operand = self.evaluate(node.operand, env)
        if node.operator == "-":
            return self._guard(node, self._unary, "neg", operand, lambda value: -value)
        if node.operator == "not":
            return self._guard(node, self._unary, "not", operand, lambda value: not value)
        raise InterpreterError(f"unknown unary operator {node.operator}", node.line)

    def _eval_BinaryOp(self, node: ast.BinaryOp, env: Environment) -> Any:
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        return self._guard(node, self._binary, node.operator, left, right)

    def _eval_Comparison(self, node: ast.Comparison, env: Environment) -> Any:
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        if node.operator == "is":
            return left is right
        if node.operator == "is not":
            return left is not right
        return self._guard(node, self._binary, node.operator, left, right)

    def _eval_BoolOp(self, node: ast.BoolOp, env: Environment) -> Any:
        left = self.evaluate(node.left, env)
        if not needs_sampling(left) and not is_lazy(left):
            # Short circuit on concrete values, as Python does.
            if node.operator == "and" and not left:
                return left
            if node.operator == "or" and left:
                return left
            return self.evaluate(node.right, env)
        right = self.evaluate(node.right, env)
        return self._binary(node.operator, left, right)

    def _eval_Conditional(self, node: ast.Conditional, env: Environment) -> Any:
        condition = self.evaluate(node.condition, env)
        self._check_not_random(condition, node, "conditional expressions")
        if condition:
            return self.evaluate(node.then_value, env)
        return self.evaluate(node.else_value, env)

    def _eval_Attribute(self, node: ast.Attribute, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        return self._attribute(target, node.attribute, node)

    def _eval_Subscript(self, node: ast.Subscript, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        index = self.evaluate(node.index, env)
        if isinstance(target, Distribution) or isinstance(index, Distribution):
            return OperatorDistribution("getitem", target, index)
        return self._guard(node, lambda: target[index])

    def _eval_Call(self, node: ast.Call, env: Environment) -> Any:
        function = self.evaluate(node.function, env)
        args = [self.evaluate(argument, env) for argument in node.args]
        kwargs = {name: self.evaluate(value, env) for name, value in node.keyword_args}
        if not callable(function):
            raise InterpreterError(f"{function!r} is not callable", node.line)
        return self._guard(node, function, *args, **kwargs)

    # Scenic-specific expressions

    def _eval_VectorLiteral(self, node: ast.VectorLiteral, env: Environment) -> Any:
        from ..core.distributions import make_random_vector

        x = self.evaluate(node.x, env)
        y = self.evaluate(node.y, env)
        return self._apply(make_random_vector, x, y, name="vector")

    def _eval_Degrees(self, node: ast.Degrees, env: Environment) -> Any:
        value = self.evaluate(node.value, env)
        return self._binary("*", value, DEGREES_TO_RADIANS)

    def _eval_RelativeTo(self, node: ast.RelativeTo, env: Environment) -> Any:
        value = self.evaluate(node.value, env)
        reference = self.evaluate(node.reference, env)
        return self._relative_to(value, reference, node)

    def _eval_OffsetBy(self, node: ast.OffsetBy, env: Environment) -> Any:
        value = self.evaluate(node.value, env)
        offset = self.evaluate(node.offset, env)
        if isinstance(value, (OrientedPoint,)) or (
            isinstance(value, Object)
        ):
            return oriented_point_relative_to(offset, value)
        return self._binary("+", self._coerce_vector(value), self._coerce_vector(offset))

    def _eval_OffsetAlong(self, node: ast.OffsetAlong, env: Environment) -> Any:
        value = self.evaluate(node.value, env)
        direction = self.evaluate(node.direction, env)
        offset = self.evaluate(node.offset, env)
        return self._apply(
            vector_offset_along_direction, self._coerce_vector(value), direction, self._coerce_vector(offset),
            name="offset along",
        )

    def _eval_FieldAt(self, node: ast.FieldAt, env: Environment) -> Any:
        field = self.evaluate(node.field_expr, env)
        position = self.evaluate(node.position, env)
        if not isinstance(field, VectorField):
            raise InterpreterError("'at' expects a vector field on its left-hand side", node.line)
        return self._apply(field.at, position, name="field at")

    def _eval_CanSee(self, node: ast.CanSee, env: Environment) -> Any:
        viewer = self.evaluate(node.viewer, env)
        target = self.evaluate(node.target, env)
        return self._apply(can_see, viewer, target, name="can see")

    def _eval_IsIn(self, node: ast.IsIn, env: Environment) -> Any:
        value = self.evaluate(node.value, env)
        region = self.evaluate(node.region, env)
        if isinstance(region, Region) or isinstance(region, Distribution):
            return self._apply(is_in_region, value, region, name="is in")
        # Fall back to Python membership for lists/sets.
        return value in region

    def _eval_DistanceTo(self, node: ast.DistanceTo, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        origin = self.evaluate(node.origin, env) if node.origin is not None else self._ego(node)
        return self._apply(distance_between, position_of(origin), position_of(target), name="distance")

    def _eval_AngleTo(self, node: ast.AngleTo, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        origin = self.evaluate(node.origin, env) if node.origin is not None else self._ego(node)
        return self._apply(angle_between, position_of(origin), position_of(target), name="angle")

    def _eval_RelativeHeading(self, node: ast.RelativeHeading, env: Environment) -> Any:
        heading = self.evaluate(node.heading, env)
        reference = (
            self.evaluate(node.reference, env) if node.reference is not None else self._ego(node)
        )
        return self._apply(relative_heading, heading_of(heading), heading_of(reference), name="relative heading")

    def _eval_ApparentHeading(self, node: ast.ApparentHeading, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        origin = self.evaluate(node.origin, env) if node.origin is not None else self._ego(node)
        return self._apply(apparent_heading, target, position_of(origin), name="apparent heading")

    def _eval_VisibleRegionExpr(self, node: ast.VisibleRegionExpr, env: Environment) -> Any:
        region = self.evaluate(node.region, env)
        viewer = self.evaluate(node.viewer, env) if node.viewer is not None else self._ego(node)
        return self._apply(region_visible_from, region, viewer, name="visible region")

    def _eval_Follow(self, node: ast.Follow, env: Environment) -> Any:
        field = self.evaluate(node.field_expr, env)
        distance = self.evaluate(node.distance, env)
        start = self.evaluate(node.start, env) if node.start is not None else self._ego(node)
        if not isinstance(field, VectorField):
            raise InterpreterError("'follow' expects a vector field", node.line)
        return self._apply(follow_field, field, position_of(start), distance, name="follow")

    def _eval_EdgeOf(self, node: ast.EdgeOf, env: Environment) -> Any:
        target = self.evaluate(node.target, env)
        functions = {
            "front": front_of,
            "back": back_of,
            "left": left_edge_of,
            "right": right_edge_of,
            "front left": front_left_of,
            "front right": front_right_of,
            "back left": back_left_of,
            "back right": back_right_of,
        }
        return self._apply(functions[node.which], target, name=node.which)

    def _eval_ObjectCreation(self, node: ast.ObjectCreation, env: Environment) -> Any:
        klass = env.lookup(node.class_name) if env.contains(node.class_name) else None
        if klass is None:
            raise InterpreterError(f"unknown class '{node.class_name}'", node.line)
        if not (isinstance(klass, type) and issubclass(klass, Point)):
            raise InterpreterError(f"'{node.class_name}' is not a Scenic class", node.line)
        self.objects_created += 1
        if self.objects_created > self.MAX_OBJECTS:
            raise InterpreterError(f"program creates more than {self.MAX_OBJECTS} objects", node.line)
        specifiers = [
            self._guard(spec, self._build_specifier, spec, env) for spec in node.specifiers
        ]
        return self._guard(node, klass, *specifiers)

    # -- specifier construction ------------------------------------------------------

    def _build_specifier(self, node: ast.SpecifierNode, env: Environment) -> core_specifiers.Specifier:
        kind = node.kind
        operands = [self.evaluate(operand, env) for operand in node.operands]

        if kind == "with":
            return core_specifiers.With(node.name, operands[0])
        if kind == "at":
            return core_specifiers.At(operands[0])
        if kind == "offset by":
            return core_specifiers.OffsetBy(operands[0], ego=self._ego(node))
        if kind == "offset along":
            return core_specifiers.OffsetAlong(operands[0], operands[1], ego=self._ego(node))
        if kind == "left of":
            return core_specifiers.LeftOf(operands[0], operands[1] if len(operands) > 1 else 0)
        if kind == "right of":
            return core_specifiers.RightOf(operands[0], operands[1] if len(operands) > 1 else 0)
        if kind == "ahead of":
            return core_specifiers.AheadOf(operands[0], operands[1] if len(operands) > 1 else 0)
        if kind == "behind":
            return core_specifiers.Behind(operands[0], operands[1] if len(operands) > 1 else 0)
        if kind == "beyond":
            from_point = operands[2] if len(operands) > 2 else self._ego(node)
            return core_specifiers.Beyond(operands[0], operands[1], from_point)
        if kind == "visible":
            viewer = operands[0] if operands else self._ego(node)
            return core_specifiers.Visible(viewer)
        if kind == "in":
            return core_specifiers.In(operands[0])
        if kind == "following":
            field = operands[0]
            distance = operands[1]
            start = operands[2] if len(operands) > 2 else self._ego(node)
            return core_specifiers.Following(field, distance, start)
        if kind == "facing":
            return core_specifiers.Facing(operands[0])
        if kind == "facing toward":
            return core_specifiers.FacingToward(operands[0])
        if kind == "facing away from":
            return core_specifiers.FacingAwayFrom(operands[0])
        if kind == "apparently facing":
            from_point = operands[1] if len(operands) > 1 else self._ego(node)
            return core_specifiers.ApparentlyFacing(operands[0], from_point)
        raise InterpreterError(f"unknown specifier kind '{kind}'", node.line)

    # -- helpers -----------------------------------------------------------------------

    def _guard(self, node: ast.Node, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run *function*, converting raw Python errors to InterpreterErrors.

        ScenicErrors (including RejectSample and errors already carrying a
        line) pass through untouched; everything in :data:`_RUNTIME_ERRORS`
        becomes an :class:`InterpreterError` pinned to *node*'s source line.
        """
        try:
            return function(*args, **kwargs)
        except ScenicError:
            raise
        except (_ReturnValue, _BreakLoop, _ContinueLoop):
            raise
        except _RUNTIME_ERRORS as error:
            message = str(error) or type(error).__name__
            raise InterpreterError(f"{type(error).__name__}: {message}", node.line) from error

    def _require_context(self, node: ast.Node) -> ScenarioContext:
        if self.context is None:
            raise InterpreterError("no active scenario context", node.line)
        return self.context

    def _ego(self, node: ast.Node) -> Any:
        context = self._require_context(node)
        if context.ego is None:
            raise InterpreterError("the ego object is not defined yet", node.line)
        return context.ego

    def _check_not_random(self, value: Any, node: ast.Node, construct: str) -> None:
        if needs_sampling(value) or is_lazy(value):
            raise InterpreterError(
                f"{construct} may not depend on random values (Scenic restriction, Sec. 4)",
                node.line,
            )

    def _apply(self, function: Callable, *args: Any, name: str = "operator") -> Any:
        """Apply an operator, deferring if any argument is lazy (``self``-dependent)."""
        if any(is_lazy(argument) for argument in args):
            return make_delayed_function(function, *args)
        return function(*args)

    def _unary(self, operator: str, operand: Any, concrete: Callable[[Any], Any]) -> Any:
        if is_lazy(operand):
            return make_delayed_function(lambda value: self._unary(operator, value, concrete), operand)
        if needs_sampling(operand):
            return OperatorDistribution(operator, operand)
        return concrete(operand)

    def _binary(self, operator: str, left: Any, right: Any) -> Any:
        if is_lazy(left) or is_lazy(right):
            return make_delayed_function(lambda a, b: self._binary(operator, a, b), left, right)
        if needs_sampling(left) or needs_sampling(right):
            return OperatorDistribution(operator, left, right)
        from ..core.distributions import _BINARY_OPERATIONS

        if operator not in _BINARY_OPERATIONS:
            raise ScenicError(f"unsupported binary operator '{operator}'")
        return _BINARY_OPERATIONS[operator](left, right)

    def _attribute(self, target: Any, attribute: str, node: ast.Node) -> Any:
        if isinstance(target, _SelfPlaceholder):
            return DelayedArgument({attribute}, lambda obj: getattr(obj, attribute))
        if is_lazy(target):
            return make_delayed_function(lambda value: self._attribute(value, attribute, node), target)
        if isinstance(target, Distribution):
            return AttributeDistribution(target, attribute)
        try:
            return getattr(target, attribute)
        except AttributeError as error:
            raise InterpreterError(str(error), node.line)

    def _coerce_vector(self, value: Any) -> Any:
        if isinstance(value, (Point,)):
            return value.position
        return value

    def _relative_to(self, value: Any, reference: Any, node: ast.Node) -> Any:
        """The (heavily overloaded) ``X relative to Y`` operator."""
        value_is_field = isinstance(value, VectorField)
        reference_is_field = isinstance(reference, VectorField)
        if value_is_field and reference_is_field:
            # F1 relative to F2: a heading depending on the object's position.
            return DelayedArgument(
                {"position"},
                lambda obj: self._binary("+", value.at(obj.position), reference.at(obj.position)),
            )
        if reference_is_field:
            # H relative to F: offset the field's heading at the object's position.
            return DelayedArgument(
                {"position"},
                lambda obj: self._binary("+", heading_of(value), reference.at(obj.position)),
            )
        if value_is_field:
            # F relative to H.
            return DelayedArgument(
                {"position"},
                lambda obj: self._binary("+", value.at(obj.position), heading_of(reference)),
            )
        if is_lazy(value) or is_lazy(reference):
            return make_delayed_function(lambda a, b: self._relative_to(a, b, node), value, reference)

        value_vectorish = self._is_vector_like(value)
        reference_oriented = isinstance(reference, OrientedPoint)
        reference_vectorish = self._is_vector_like(reference) and not reference_oriented
        if value_vectorish and reference_oriented:
            return oriented_point_relative_to(value, reference)
        if value_vectorish and reference_vectorish:
            return self._binary("+", self._coerce_vector(value), self._coerce_vector(reference))
        if value_vectorish and isinstance(reference, Distribution):
            return oriented_point_relative_to(value, reference)
        # Otherwise interpret both sides as headings.
        return self._apply(heading_relative_to, heading_of(value), heading_of(reference), name="relative to")

    @staticmethod
    def _is_vector_like(value: Any) -> bool:
        from ..core.distributions import VectorDistribution

        if isinstance(value, (Vector, VectorDistribution)):
            return True
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return True
        if isinstance(value, Point) and not isinstance(value, OrientedPoint):
            return True
        return False


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def scenario_from_string(
    source: str,
    workspace: Optional[Workspace] = None,
    extra_names: Optional[Dict[str, Any]] = None,
) -> Scenario:
    """Compile a Scenic program given as a string into a Scenario.

    Delegates to :mod:`repro.language.compiler`, which caches the parsed AST
    by content hash — repeated compilations of the same source skip the
    lexer and parser while still returning independent scenarios.
    """
    from .compiler import scenario_from_string as _compile

    return _compile(source, workspace=workspace, extra_names=extra_names)


def scenario_from_file(
    path: Any,
    workspace: Optional[Workspace] = None,
    extra_names: Optional[Dict[str, Any]] = None,
) -> Scenario:
    """Compile a ``.scenic`` file into a Scenario (see :func:`scenario_from_string`)."""
    source = Path(path).read_text()
    return scenario_from_string(source, workspace=workspace, extra_names=extra_names)


__all__ = ["Interpreter", "scenario_from_string", "scenario_from_file", "Environment", "ScenicFunction"]
