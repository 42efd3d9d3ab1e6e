"""AST node definitions for the Scenic language.

The node set mirrors the grammar of Fig. 5: ordinary imperative constructs
(assignments, conditionals, loops, function and class definitions), Scenic's
statements (``param``, ``require``, ``mutate``), and expression nodes for
distributions, vectors, the geometric operator phrases, and object
construction with specifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Node:
    """Base class for all AST nodes; carries a source line for error reports."""

    line: int = field(default=0, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class NumberLiteral(Node):
    value: float


@dataclass
class StringLiteral(Node):
    value: str


@dataclass
class BooleanLiteral(Node):
    value: bool


@dataclass
class NoneLiteral(Node):
    pass


@dataclass
class Name(Node):
    identifier: str


@dataclass
class Attribute(Node):
    target: Node
    attribute: str


@dataclass
class Subscript(Node):
    target: Node
    index: Node


@dataclass
class Call(Node):
    function: Node
    args: List[Node]
    keyword_args: List[Tuple[str, Node]]


@dataclass
class UnaryOp(Node):
    operator: str  # '-', 'not'
    operand: Node


@dataclass
class BinaryOp(Node):
    operator: str  # '+', '-', '*', '/', '//', '%', '**'
    left: Node
    right: Node


@dataclass
class Comparison(Node):
    operator: str  # '==', '!=', '<', '>', '<=', '>=', 'is', 'is not', 'in', 'not in'
    left: Node
    right: Node


@dataclass
class BoolOp(Node):
    operator: str  # 'and', 'or'
    left: Node
    right: Node


@dataclass
class Conditional(Node):
    """``then_value if condition else else_value``."""

    then_value: Node
    condition: Node
    else_value: Node


@dataclass
class ListLiteral(Node):
    elements: List[Node]


@dataclass
class DictLiteral(Node):
    items: List[Tuple[Node, Node]]


@dataclass
class IntervalDistribution(Node):
    """``(low, high)`` — uniform on an interval (Table 1)."""

    low: Node
    high: Node


@dataclass
class VectorLiteral(Node):
    """``X @ Y`` — a vector from xy coordinates."""

    x: Node
    y: Node


@dataclass
class Degrees(Node):
    """``X deg`` — convert degrees to radians."""

    value: Node


@dataclass
class RelativeTo(Node):
    """``X relative to Y`` (headings, vectors, fields, OrientedPoints)."""

    value: Node
    reference: Node


@dataclass
class OffsetBy(Node):
    """``X offset by Y`` (vector or OrientedPoint offset)."""

    value: Node
    offset: Node


@dataclass
class OffsetAlong(Node):
    """``X offset along D by Y``."""

    value: Node
    direction: Node
    offset: Node


@dataclass
class FieldAt(Node):
    """``F at X`` — value of a vector field at a point."""

    field_expr: Node
    position: Node


@dataclass
class CanSee(Node):
    viewer: Node
    target: Node


@dataclass
class IsIn(Node):
    value: Node
    region: Node


@dataclass
class DistanceTo(Node):
    """``distance [from X] to Y`` (X defaults to the ego)."""

    target: Node
    origin: Optional[Node] = None


@dataclass
class AngleTo(Node):
    """``angle [from X] to Y``."""

    target: Node
    origin: Optional[Node] = None


@dataclass
class RelativeHeading(Node):
    """``relative heading of H [from H2]``."""

    heading: Node
    reference: Optional[Node] = None


@dataclass
class ApparentHeading(Node):
    """``apparent heading of OP [from V]``."""

    target: Node
    origin: Optional[Node] = None


@dataclass
class VisibleRegionExpr(Node):
    """``visible R`` or ``R visible from X``."""

    region: Node
    viewer: Optional[Node] = None


@dataclass
class Follow(Node):
    """``follow F [from V] for S`` — an OrientedPoint along a field."""

    field_expr: Node
    distance: Node
    start: Optional[Node] = None


@dataclass
class EdgeOf(Node):
    """``front of O``, ``back left of O``, ... (Fig. 7, OrientedPoint operators)."""

    which: str  # 'front', 'back', 'left', 'right', 'front left', ...
    target: Node


# -- object construction -----------------------------------------------------


@dataclass
class SpecifierNode(Node):
    """One specifier in an object definition, e.g. ``left of spot by 0.5``."""

    kind: str
    #: Positional operands, meaning depends on ``kind``.
    operands: List[Node] = field(default_factory=list)
    #: Extra named operand (e.g. the property name of a ``with`` specifier).
    name: Optional[str] = None


@dataclass
class ObjectCreation(Node):
    """``ClassName specifier, specifier, ...``."""

    class_name: str
    specifiers: List[SpecifierNode] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Program(Node):
    statements: List[Node] = field(default_factory=list)


@dataclass
class ImportStatement(Node):
    module: str


@dataclass
class Assignment(Node):
    target: Node  # Name, Attribute, or Subscript
    value: Node


@dataclass
class ParamStatement(Node):
    assignments: List[Tuple[str, Node]] = field(default_factory=list)


@dataclass
class RequireStatement(Node):
    condition: Node
    probability: Optional[Node] = None  # None = hard requirement


@dataclass
class MutateStatement(Node):
    targets: List[str] = field(default_factory=list)  # empty = all objects
    scale: Optional[Node] = None


@dataclass
class ExpressionStatement(Node):
    expression: Node


@dataclass
class IfStatement(Node):
    condition: Node
    body: List[Node] = field(default_factory=list)
    orelse: List[Node] = field(default_factory=list)


@dataclass
class ForStatement(Node):
    variable: str
    iterable: Node = None
    body: List[Node] = field(default_factory=list)


@dataclass
class WhileStatement(Node):
    condition: Node
    body: List[Node] = field(default_factory=list)


@dataclass
class FunctionDefinition(Node):
    name: str
    parameters: List[str] = field(default_factory=list)
    defaults: List[Optional[Node]] = field(default_factory=list)
    body: List[Node] = field(default_factory=list)


@dataclass
class ReturnStatement(Node):
    value: Optional[Node] = None


@dataclass
class BreakStatement(Node):
    pass


@dataclass
class ContinueStatement(Node):
    pass


@dataclass
class PassStatement(Node):
    pass


@dataclass
class ClassDefinition(Node):
    name: str
    superclass: Optional[str] = None
    #: Property defaults: (property name, default value expression).
    properties: List[Tuple[str, Node]] = field(default_factory=list)
    #: Method definitions (ordinary function definitions).
    methods: List[FunctionDefinition] = field(default_factory=list)


__all__ = [name for name in dir() if not name.startswith("_")]
