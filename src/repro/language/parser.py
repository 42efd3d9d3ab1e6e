"""Recursive-descent parser for the Scenic language.

The grammar follows Fig. 5 of the paper.  Expressions are parsed with a
precedence ladder (loosest to tightest):

    ternary ``A if C else B``
    ``or`` / ``and`` / ``not``
    comparisons, ``can see``, ``is in``
    Scenic phrase operators: ``@``, ``deg``, ``relative to``, ``offset by``,
        ``offset along ... by``, ``at``, ``visible from``
    ``+`` / ``-``
    ``*`` / ``/`` / ``//`` / ``%``
    unary ``-``
    ``**``
    postfix: attribute access, calls, subscripts
    atoms, including the prefix constructs ``visible R``, ``front of O``,
        ``follow F from V for S``, ``distance to``, ``angle to``,
        ``relative heading of``, ``apparent heading of``

Object creation (``ClassName specifier, specifier, ...``) is recognised at
statement level (and for assignment right-hand sides and ``return`` values)
by the convention that Scenic class names are capitalised.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast_nodes as ast
from .errors import syntax_error
from .lexer import Token, TokenKind, tokenize

#: Names that may follow a capitalised name as the start of a specifier.
_SPECIFIER_STARTERS = {
    "with", "at", "offset", "left", "right", "ahead", "behind", "beyond",
    "visible", "in", "on", "following", "facing", "apparently",
}

#: Names that continue an ordinary expression and therefore must *not* cause a
#: capitalised name to be parsed as an object creation.
_EXPRESSION_CONTINUATIONS = {"if", "is", "and", "or", "not", "deg", "relative", "can"}


# Enum member lookups are slow; the parser tests kinds through these.
_NAME, _NUMBER, _STRING, _NEWLINE, _INDENT, _DEDENT, _END = (
    TokenKind.NAME, TokenKind.NUMBER, TokenKind.STRING, TokenKind.NEWLINE,
    TokenKind.INDENT, TokenKind.DEDENT, TokenKind.END,
)


class _TokenStream:
    """The parser's cursor.  Tokens are tested by ``tag`` (see the lexer)."""

    def __init__(self, tokens: List[Token]):
        # One END of padding: the deepest lookahead is ``peek(1)``, and
        # ``advance`` never moves past the first END.
        self._tokens = tokens + tokens[-1:]
        self._index = 0

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not _END:
            self._index += 1
        return token

    def match(self, tag: str) -> Optional[Token]:
        """Consume and return the next token if it is the name or operator *tag*."""
        token = self._tokens[self._index]
        if token.tag == tag:
            self._index += 1
            return token
        return None

    def expect_operator(self, operator: str) -> Token:
        token = self._tokens[self._index]
        if token.tag != operator:
            raise syntax_error(f"expected '{operator}', found {token.value!r}", token.line, token.column)
        self._index += 1
        return token

    def expect_name(self, name: Optional[str] = None) -> Token:
        token = self._tokens[self._index]
        if token.kind is not _NAME or (name is not None and token.value != name):
            expected = name or "a name"
            raise syntax_error(f"expected {expected}, found {token.value!r}", token.line, token.column)
        self._index += 1
        return token

    def expect_newline(self) -> None:
        token = self._tokens[self._index]
        if token.kind is _NEWLINE:
            self._index += 1
        elif token.kind is not _END and token.kind is not _DEDENT:
            raise syntax_error(f"expected end of statement, found {token.value!r}", token.line, token.column)

    def skip_newlines(self) -> None:
        while self._tokens[self._index].kind is _NEWLINE:
            self._index += 1


class Parser:
    """Parses a token stream into a :class:`repro.language.ast_nodes.Program`."""

    #: Maximum expression-nesting depth: 31 levels of parentheses, unary
    #: minuses, ``not``s, ``**``s or conditionals parse, and the 32nd raises.
    #: A parenthesised level costs 16 Python stack frames (the whole
    #: precedence ladder, from ``parse_expression`` down to
    #: ``_parse_parenthesised``), a ``**`` level 2 and the others 1, so
    #: without a cap a few hundred nested parentheses would escape as a raw
    #: ``RecursionError`` instead of a proper syntax error.  31 parenthesised
    #: levels take about 500 frames, which leaves ample headroom under
    #: CPython's default limit of 1,000 even when the host process starts
    #: deep in its own call stack (e.g. pytest).
    MAX_EXPRESSION_DEPTH = 32

    #: Maximum statement (block) nesting depth.
    MAX_STATEMENT_DEPTH = 50

    def __init__(self, tokens: List[Token]):
        self.stream = _TokenStream(tokens)
        self._expression_depth = 0
        self._statement_depth = 0

    def _descend(self, kind: str) -> None:
        if kind == "expression":
            self._expression_depth += 1
            if self._expression_depth > self.MAX_EXPRESSION_DEPTH:
                token = self.stream.peek()
                raise syntax_error(
                    f"expression nesting exceeds {self.MAX_EXPRESSION_DEPTH} levels",
                    token.line,
                    token.column,
                )
        else:
            self._statement_depth += 1
            if self._statement_depth > self.MAX_STATEMENT_DEPTH:
                token = self.stream.peek()
                raise syntax_error(
                    f"statement nesting exceeds {self.MAX_STATEMENT_DEPTH} levels",
                    token.line,
                    token.column,
                )

    # -- program and statements -------------------------------------------------

    def parse_program(self) -> ast.Program:
        statements: List[ast.Node] = []
        self.stream.skip_newlines()
        while self.stream.peek().kind is not _END:
            statements.append(self.parse_statement())
            self.stream.skip_newlines()
        return ast.Program(statements, line=1)

    def parse_statement(self) -> ast.Node:
        self._descend("statement")
        try:
            return self._parse_statement_inner()
        finally:
            self._statement_depth -= 1

    def _parse_statement_inner(self) -> ast.Node:
        token = self.stream.peek()
        if token.kind is _NAME:
            keyword = token.value
            if keyword == "import":
                return self._parse_import()
            if keyword == "param":
                return self._parse_param()
            if keyword == "require":
                return self._parse_require()
            if keyword == "mutate":
                return self._parse_mutate()
            if keyword == "class":
                return self._parse_class()
            if keyword == "def":
                return self._parse_function()
            if keyword == "if":
                return self._parse_if()
            if keyword == "for":
                return self._parse_for()
            if keyword == "while":
                return self._parse_while()
            if keyword == "return":
                return self._parse_return()
            if keyword == "break":
                self.stream.advance()
                self.stream.expect_newline()
                return ast.BreakStatement(line=token.line)
            if keyword == "continue":
                self.stream.advance()
                self.stream.expect_newline()
                return ast.ContinueStatement(line=token.line)
            if keyword == "pass":
                self.stream.advance()
                self.stream.expect_newline()
                return ast.PassStatement(line=token.line)
        return self._parse_assignment_or_expression()

    def _parse_import(self) -> ast.Node:
        token = self.stream.expect_name("import")
        module = self.stream.expect_name().value
        self.stream.expect_newline()
        return ast.ImportStatement(module, line=token.line)

    def _parse_param(self) -> ast.Node:
        token = self.stream.expect_name("param")
        assignments: List[Tuple[str, ast.Node]] = []
        while True:
            name = self.stream.expect_name().value
            self.stream.expect_operator("=")
            value = self.parse_creation_or_expression()
            assignments.append((name, value))
            if not self.stream.match(","):
                break
        self.stream.expect_newline()
        return ast.ParamStatement(assignments, line=token.line)

    def _parse_require(self) -> ast.Node:
        token = self.stream.expect_name("require")
        probability: Optional[ast.Node] = None
        if self.stream.match("["):
            probability = self.parse_expression()
            self.stream.expect_operator("]")
        condition = self.parse_expression()
        self.stream.expect_newline()
        return ast.RequireStatement(condition, probability, line=token.line)

    def _parse_mutate(self) -> ast.Node:
        token = self.stream.expect_name("mutate")
        targets: List[str] = []
        scale: Optional[ast.Node] = None
        while self.stream.peek().kind is _NAME and self.stream.peek().tag != "by":
            targets.append(self.stream.advance().value)
            if not self.stream.match(","):
                break
        if self.stream.match("by"):
            scale = self.parse_expression()
        self.stream.expect_newline()
        return ast.MutateStatement(targets, scale, line=token.line)

    def _parse_class(self) -> ast.Node:
        token = self.stream.expect_name("class")
        name = self.stream.expect_name().value
        superclass: Optional[str] = None
        if self.stream.match("("):
            if self.stream.peek().tag != ")":
                superclass = self.stream.expect_name().value
            self.stream.expect_operator(")")
        self.stream.expect_operator(":")
        properties: List[Tuple[str, ast.Node]] = []
        methods: List[ast.FunctionDefinition] = []
        self.stream.expect_newline()
        if self.stream.peek().kind is _INDENT:
            self.stream.advance()
            self.stream.skip_newlines()
            while self.stream.peek().kind is not _DEDENT:
                if self.stream.peek().tag == "def":
                    methods.append(self._parse_function())
                elif self.stream.peek().tag == "pass":
                    self.stream.advance()
                    self.stream.expect_newline()
                else:
                    property_name = self.stream.expect_name().value
                    self.stream.expect_operator(":")
                    value = self.parse_creation_or_expression()
                    self.stream.expect_newline()
                    properties.append((property_name, value))
                self.stream.skip_newlines()
            self.stream.advance()  # DEDENT
        return ast.ClassDefinition(name, superclass, properties, methods, line=token.line)

    def _parse_function(self) -> ast.FunctionDefinition:
        token = self.stream.expect_name("def")
        name = self.stream.expect_name().value
        self.stream.expect_operator("(")
        parameters: List[str] = []
        defaults: List[Optional[ast.Node]] = []
        while self.stream.peek().tag != ")":
            parameters.append(self.stream.expect_name().value)
            if self.stream.match("="):
                defaults.append(self.parse_expression())
            else:
                defaults.append(None)
            if not self.stream.match(","):
                break
        self.stream.expect_operator(")")
        self.stream.expect_operator(":")
        body = self._parse_block()
        return ast.FunctionDefinition(name, parameters, defaults, body, line=token.line)

    def _parse_if(self) -> ast.Node:
        token = self.stream.expect_name("if")
        condition = self.parse_expression()
        self.stream.expect_operator(":")
        body = self._parse_block()
        orelse: List[ast.Node] = []
        self.stream.skip_newlines()
        if self.stream.peek().tag == "elif":
            orelse = [self._parse_elif()]
        elif self.stream.peek().tag == "else":
            self.stream.advance()
            self.stream.expect_operator(":")
            orelse = self._parse_block()
        return ast.IfStatement(condition, body, orelse, line=token.line)

    def _parse_elif(self) -> ast.Node:
        token = self.stream.expect_name("elif")
        condition = self.parse_expression()
        self.stream.expect_operator(":")
        body = self._parse_block()
        orelse: List[ast.Node] = []
        self.stream.skip_newlines()
        if self.stream.peek().tag == "elif":
            orelse = [self._parse_elif()]
        elif self.stream.peek().tag == "else":
            self.stream.advance()
            self.stream.expect_operator(":")
            orelse = self._parse_block()
        return ast.IfStatement(condition, body, orelse, line=token.line)

    def _parse_for(self) -> ast.Node:
        token = self.stream.expect_name("for")
        variable = self.stream.expect_name().value
        self.stream.expect_name("in")
        iterable = self.parse_expression()
        self.stream.expect_operator(":")
        body = self._parse_block()
        return ast.ForStatement(variable, iterable, body, line=token.line)

    def _parse_while(self) -> ast.Node:
        token = self.stream.expect_name("while")
        condition = self.parse_expression()
        self.stream.expect_operator(":")
        body = self._parse_block()
        return ast.WhileStatement(condition, body, line=token.line)

    def _parse_return(self) -> ast.Node:
        token = self.stream.expect_name("return")
        value: Optional[ast.Node] = None
        if self.stream.peek().kind not in (_NEWLINE, _END, _DEDENT):
            value = self.parse_creation_or_expression()
        self.stream.expect_newline()
        return ast.ReturnStatement(value, line=token.line)

    def _parse_block(self) -> List[ast.Node]:
        """An indented block of statements (single-line suites are also allowed)."""
        if self.stream.peek().kind is not _NEWLINE:
            # Single-line suite: ``if x: y = 1``
            statement = self.parse_statement()
            return [statement]
        self.stream.advance()  # NEWLINE
        self.stream.skip_newlines()
        if self.stream.peek().kind is not _INDENT:
            token = self.stream.peek()
            raise syntax_error("expected an indented block", token.line, token.column)
        self.stream.advance()
        statements: List[ast.Node] = []
        self.stream.skip_newlines()
        while self.stream.peek().kind is not _DEDENT:
            statements.append(self.parse_statement())
            self.stream.skip_newlines()
        self.stream.advance()  # DEDENT
        return statements

    def _parse_assignment_or_expression(self) -> ast.Node:
        token = self.stream.peek()
        # ``name = value`` (but not ``name == value``).
        if (
            token.kind is _NAME
            and self.stream.peek(1).tag == "="
        ):
            name_token = self.stream.advance()
            self.stream.advance()  # '='
            value = self.parse_creation_or_expression()
            self.stream.expect_newline()
            return ast.Assignment(ast.Name(name_token.value, line=name_token.line), value, line=name_token.line)
        # ``obj.attr = value`` / ``obj[idx] = value``
        expression = self.parse_creation_or_expression()
        if self.stream.match("="):
            value = self.parse_creation_or_expression()
            self.stream.expect_newline()
            return ast.Assignment(expression, value, line=token.line)
        self.stream.expect_newline()
        return ast.ExpressionStatement(expression, line=token.line)

    # -- object creation ---------------------------------------------------------

    def parse_creation_or_expression(self) -> ast.Node:
        """Parse either an object creation or an ordinary expression."""
        token = self.stream.peek()
        if self._looks_like_creation(token):
            return self._parse_object_creation()
        return self.parse_expression()

    def _looks_like_creation(self, token: Token) -> bool:
        if token.kind is not _NAME or not token.value[:1].isupper():
            return False
        if token.value in ("True", "False", "None"):
            return False
        following = self.stream.peek(1)
        if following.kind in (_NEWLINE, _END, _DEDENT):
            return True
        if following.kind is _NAME and following.value not in _EXPRESSION_CONTINUATIONS:
            return True
        return False

    def _parse_object_creation(self) -> ast.ObjectCreation:
        name_token = self.stream.expect_name()
        specifiers: List[ast.SpecifierNode] = []
        if self.stream.peek().kind is _NAME:
            specifiers.append(self._parse_specifier())
            while self.stream.match(","):
                specifiers.append(self._parse_specifier())
        return ast.ObjectCreation(name_token.value, specifiers, line=name_token.line)

    def _parse_specifier(self) -> ast.SpecifierNode:
        token = self.stream.peek()
        if token.kind is not _NAME:
            raise syntax_error(f"expected a specifier, found {token.value!r}", token.line, token.column)
        keyword = token.value
        line = token.line

        if keyword == "with":
            self.stream.advance()
            property_name = self.stream.expect_name().value
            value = self.parse_expression()
            return ast.SpecifierNode("with", [value], name=property_name, line=line)

        if keyword == "at":
            self.stream.advance()
            return ast.SpecifierNode("at", [self.parse_expression()], line=line)

        if keyword == "offset":
            self.stream.advance()
            if self.stream.match("along"):
                direction = self.parse_expression()
                self.stream.expect_name("by")
                offset = self.parse_expression()
                return ast.SpecifierNode("offset along", [direction, offset], line=line)
            self.stream.expect_name("by")
            return ast.SpecifierNode("offset by", [self.parse_expression()], line=line)

        if keyword in ("left", "right", "ahead"):
            self.stream.advance()
            self.stream.expect_name("of")
            reference = self.parse_expression()
            operands = [reference]
            if self.stream.match("by"):
                operands.append(self.parse_expression())
            kind = {"left": "left of", "right": "right of", "ahead": "ahead of"}[keyword]
            return ast.SpecifierNode(kind, operands, line=line)

        if keyword == "behind":
            self.stream.advance()
            reference = self.parse_expression()
            operands = [reference]
            if self.stream.match("by"):
                operands.append(self.parse_expression())
            return ast.SpecifierNode("behind", operands, line=line)

        if keyword == "beyond":
            self.stream.advance()
            base = self.parse_expression()
            self.stream.expect_name("by")
            offset = self.parse_expression()
            operands = [base, offset]
            if self.stream.match("from"):
                operands.append(self.parse_expression())
            return ast.SpecifierNode("beyond", operands, line=line)

        if keyword == "visible":
            self.stream.advance()
            operands = []
            if self.stream.match("from"):
                operands.append(self.parse_expression())
            return ast.SpecifierNode("visible", operands, line=line)

        if keyword in ("in", "on"):
            self.stream.advance()
            return ast.SpecifierNode("in", [self.parse_expression()], line=line)

        if keyword == "following":
            self.stream.advance()
            field_expr = self.parse_expression()
            operands = [field_expr]
            start: Optional[ast.Node] = None
            if self.stream.match("from"):
                start = self.parse_expression()
            self.stream.expect_name("for")
            distance = self.parse_expression()
            operands.append(distance)
            if start is not None:
                operands.append(start)
            return ast.SpecifierNode("following", operands, line=line)

        if keyword == "facing":
            self.stream.advance()
            if self.stream.match("toward"):
                return ast.SpecifierNode("facing toward", [self.parse_expression()], line=line)
            if self.stream.match("away"):
                self.stream.expect_name("from")
                return ast.SpecifierNode("facing away from", [self.parse_expression()], line=line)
            return ast.SpecifierNode("facing", [self.parse_expression()], line=line)

        if keyword == "apparently":
            self.stream.advance()
            self.stream.expect_name("facing")
            heading = self.parse_expression()
            operands = [heading]
            if self.stream.match("from"):
                operands.append(self.parse_expression())
            return ast.SpecifierNode("apparently facing", operands, line=line)

        raise syntax_error(f"unknown specifier starting with {keyword!r}", token.line, token.column)

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self) -> ast.Node:
        self._descend("expression")
        try:
            return self._parse_ternary()
        finally:
            self._expression_depth -= 1

    def _parse_ternary(self) -> ast.Node:
        value = self._parse_disjunction()
        if self.stream.peek().tag == "if":
            line = self.stream.advance().line
            condition = self._parse_disjunction()
            self.stream.expect_name("else")
            self._descend("expression")
            try:
                else_value = self._parse_ternary()
            finally:
                self._expression_depth -= 1
            return ast.Conditional(value, condition, else_value, line=line)
        return value

    def _parse_disjunction(self) -> ast.Node:
        left = self._parse_conjunction()
        while self.stream.peek().tag == "or":
            line = self.stream.advance().line
            right = self._parse_conjunction()
            left = ast.BoolOp("or", left, right, line=line)
        return left

    def _parse_conjunction(self) -> ast.Node:
        left = self._parse_negation()
        while self.stream.peek().tag == "and":
            line = self.stream.advance().line
            right = self._parse_negation()
            left = ast.BoolOp("and", left, right, line=line)
        return left

    def _parse_negation(self) -> ast.Node:
        if self.stream.peek().tag == "not":
            line = self.stream.advance().line
            self._descend("expression")
            try:
                operand = self._parse_negation()
            finally:
                self._expression_depth -= 1
            return ast.UnaryOp("not", operand, line=line)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Node:
        left = self._parse_scenic()
        token = self.stream.peek()
        if token.tag in {"==", "!=", "<", ">", "<=", ">="}:
            operator = self.stream.advance().value
            right = self._parse_scenic()
            return ast.Comparison(operator, left, right, line=token.line)
        if token.tag == "can":
            self.stream.advance()
            self.stream.expect_name("see")
            right = self._parse_scenic()
            return ast.CanSee(left, right, line=token.line)
        if token.tag == "is":
            self.stream.advance()
            if self.stream.match("in"):
                right = self._parse_scenic()
                return ast.IsIn(left, right, line=token.line)
            if self.stream.match("not"):
                right = self._parse_scenic()
                return ast.Comparison("is not", left, right, line=token.line)
            right = self._parse_scenic()
            return ast.Comparison("is", left, right, line=token.line)
        return left

    def _parse_scenic(self) -> ast.Node:
        """Vector construction and the word-phrase operators."""
        left = self._parse_additive()
        while True:
            token = self.stream.peek()
            if token.tag == "@":
                line = self.stream.advance().line
                right = self._parse_additive()
                left = ast.VectorLiteral(left, right, line=line)
                continue
            if token.tag == "deg":
                line = self.stream.advance().line
                left = ast.Degrees(left, line=line)
                continue
            if token.tag == "relative":
                line = self.stream.advance().line
                self.stream.expect_name("to")
                right = self._parse_additive()
                left = ast.RelativeTo(left, right, line=line)
                continue
            if token.tag == "offset":
                line = self.stream.advance().line
                if self.stream.match("along"):
                    direction = self._parse_additive()
                    self.stream.expect_name("by")
                    offset = self._parse_additive()
                    left = ast.OffsetAlong(left, direction, offset, line=line)
                else:
                    self.stream.expect_name("by")
                    offset = self._parse_additive()
                    left = ast.OffsetBy(left, offset, line=line)
                continue
            if token.tag == "at":
                line = self.stream.advance().line
                position = self._parse_additive()
                left = ast.FieldAt(left, position, line=line)
                continue
            if token.tag == "visible" and self.stream.peek(1).tag == "from":
                line = self.stream.advance().line
                self.stream.advance()  # 'from'
                viewer = self._parse_additive()
                left = ast.VisibleRegionExpr(left, viewer, line=line)
                continue
            break
        return left

    def _parse_additive(self) -> ast.Node:
        left = self._parse_multiplicative()
        while self.stream.peek().tag in {"+", "-"}:
            token = self.stream.advance()
            right = self._parse_multiplicative()
            left = ast.BinaryOp(token.value, left, right, line=token.line)
        return left

    def _parse_multiplicative(self) -> ast.Node:
        left = self._parse_unary()
        while self.stream.peek().tag in {"*", "/", "//", "%"}:
            token = self.stream.advance()
            right = self._parse_unary()
            left = ast.BinaryOp(token.value, left, right, line=token.line)
        return left

    def _parse_unary(self) -> ast.Node:
        token = self.stream.peek()
        if token.tag in {"-", "+"}:
            self.stream.advance()
            self._descend("expression")
            try:
                operand = self._parse_unary()
            finally:
                self._expression_depth -= 1
            if token.tag == "+":
                return operand
            return ast.UnaryOp("-", operand, line=token.line)
        return self._parse_power()

    def _parse_power(self) -> ast.Node:
        base = self._parse_postfix()
        if self.stream.peek().tag == "**":
            token = self.stream.advance()
            self._descend("expression")
            try:
                exponent = self._parse_unary()
            finally:
                self._expression_depth -= 1
            return ast.BinaryOp("**", base, exponent, line=token.line)
        return base

    def _parse_postfix(self) -> ast.Node:
        value = self._parse_atom()
        while True:
            token = self.stream.peek()
            if token.tag == ".":
                self.stream.advance()
                attribute = self.stream.expect_name().value
                value = ast.Attribute(value, attribute, line=token.line)
                continue
            if token.tag == "(":
                self.stream.advance()
                args, keyword_args = self._parse_call_arguments()
                value = ast.Call(value, args, keyword_args, line=token.line)
                continue
            if token.tag == "[":
                self.stream.advance()
                index = self.parse_expression()
                self.stream.expect_operator("]")
                value = ast.Subscript(value, index, line=token.line)
                continue
            break
        return value

    def _parse_call_arguments(self) -> Tuple[List[ast.Node], List[Tuple[str, ast.Node]]]:
        args: List[ast.Node] = []
        keyword_args: List[Tuple[str, ast.Node]] = []
        self.stream.skip_newlines()
        while self.stream.peek().tag != ")":
            token = self.stream.peek()
            if token.kind is _NAME and self.stream.peek(1).tag == "=":
                name = self.stream.advance().value
                self.stream.advance()  # '='
                keyword_args.append((name, self.parse_expression()))
            else:
                args.append(self.parse_expression())
            self.stream.skip_newlines()
            if not self.stream.match(","):
                break
            self.stream.skip_newlines()
        self.stream.expect_operator(")")
        return args, keyword_args

    def _parse_atom(self) -> ast.Node:
        token = self.stream.peek()

        if token.kind is _NUMBER:
            self.stream.advance()
            text = token.value
            value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            return ast.NumberLiteral(value, line=token.line)

        if token.kind is _STRING:
            self.stream.advance()
            return ast.StringLiteral(token.value, line=token.line)

        if token.kind is _NAME:
            return self._parse_name_atom()

        if token.tag == "(":
            return self._parse_parenthesised()

        if token.tag == "[":
            self.stream.advance()
            elements: List[ast.Node] = []
            self.stream.skip_newlines()
            while self.stream.peek().tag != "]":
                elements.append(self.parse_expression())
                self.stream.skip_newlines()
                if not self.stream.match(","):
                    break
                self.stream.skip_newlines()
            self.stream.expect_operator("]")
            return ast.ListLiteral(elements, line=token.line)

        if token.tag == "{":
            self.stream.advance()
            items: List[Tuple[ast.Node, ast.Node]] = []
            self.stream.skip_newlines()
            while self.stream.peek().tag != "}":
                key = self.parse_expression()
                self.stream.expect_operator(":")
                value = self.parse_expression()
                items.append((key, value))
                self.stream.skip_newlines()
                if not self.stream.match(","):
                    break
                self.stream.skip_newlines()
            self.stream.expect_operator("}")
            return ast.DictLiteral(items, line=token.line)

        raise syntax_error(f"unexpected token {token.value!r}", token.line, token.column)

    def _parse_name_atom(self) -> ast.Node:
        token = self.stream.peek()
        name = token.value

        if name in ("True", "False"):
            self.stream.advance()
            return ast.BooleanLiteral(name == "True", line=token.line)
        if name == "None":
            self.stream.advance()
            return ast.NoneLiteral(line=token.line)

        # Prefix constructs.
        if name == "visible":
            self.stream.advance()
            region = self._parse_additive()
            return ast.VisibleRegionExpr(region, None, line=token.line)

        if name == "follow":
            self.stream.advance()
            field_expr = self._parse_additive()
            start: Optional[ast.Node] = None
            if self.stream.match("from"):
                start = self._parse_additive()
            self.stream.expect_name("for")
            distance = self._parse_additive()
            return ast.Follow(field_expr, distance, start, line=token.line)

        if name == "distance":
            self.stream.advance()
            origin: Optional[ast.Node] = None
            if self.stream.match("from"):
                origin = self._parse_additive()
            self.stream.expect_name("to")
            target = self._parse_additive()
            return ast.DistanceTo(target, origin, line=token.line)

        if name == "angle":
            self.stream.advance()
            origin = None
            if self.stream.match("from"):
                origin = self._parse_additive()
            self.stream.expect_name("to")
            target = self._parse_additive()
            return ast.AngleTo(target, origin, line=token.line)

        if name == "relative" and self.stream.peek(1).tag == "heading":
            self.stream.advance()
            self.stream.advance()
            self.stream.expect_name("of")
            heading = self._parse_additive()
            reference: Optional[ast.Node] = None
            if self.stream.match("from"):
                reference = self._parse_additive()
            return ast.RelativeHeading(heading, reference, line=token.line)

        if name == "apparent" and self.stream.peek(1).tag == "heading":
            self.stream.advance()
            self.stream.advance()
            self.stream.expect_name("of")
            target = self._parse_additive()
            origin = None
            if self.stream.match("from"):
                origin = self._parse_additive()
            return ast.ApparentHeading(target, origin, line=token.line)

        if name in ("front", "back") and self.stream.peek(1).tag in {"left", "right"}:
            self.stream.advance()
            side = self.stream.advance().value
            self.stream.expect_name("of")
            target = self._parse_additive()
            return ast.EdgeOf(f"{name} {side}", target, line=token.line)

        if name in ("front", "back", "left", "right") and self.stream.peek(1).tag == "of":
            self.stream.advance()
            self.stream.advance()
            target = self._parse_additive()
            return ast.EdgeOf(name, target, line=token.line)

        self.stream.advance()
        return ast.Name(name, line=token.line)

    def _parse_parenthesised(self) -> ast.Node:
        token = self.stream.expect_operator("(")
        self.stream.skip_newlines()
        first = self.parse_creation_or_expression()
        self.stream.skip_newlines()
        if self.stream.match(","):
            self.stream.skip_newlines()
            elements = [first]
            while self.stream.peek().tag != ")":
                elements.append(self.parse_expression())
                self.stream.skip_newlines()
                if not self.stream.match(","):
                    break
                self.stream.skip_newlines()
            self.stream.expect_operator(")")
            if len(elements) == 2:
                return ast.IntervalDistribution(elements[0], elements[1], line=token.line)
            return ast.ListLiteral(elements, line=token.line)
        self.stream.expect_operator(")")
        return first


def parse_program(source: str) -> ast.Program:
    """Tokenize and parse a complete Scenic program."""
    return Parser(tokenize(source)).parse_program()


__all__ = ["Parser", "parse_program"]
