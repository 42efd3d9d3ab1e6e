"""Unit tests for the Scenic lexer and parser."""

import pytest

from repro.core.errors import ScenicSyntaxError
from repro.language import ast_nodes as ast
from repro.language.lexer import Token, TokenKind, tokenize
from repro.language.parser import parse_program


def kinds(source):
    return [token.kind for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source) if token.kind in (TokenKind.NAME, TokenKind.NUMBER, TokenKind.OPERATOR, TokenKind.STRING)]


class TestLexer:
    def test_names_numbers_operators(self):
        assert values("x = 3 + 4.5") == ["x", "=", "3", "+", "4.5"]

    def test_comments_are_stripped(self):
        assert values("x = 1  # the answer") == ["x", "=", "1"]

    def test_strings(self):
        tokens = tokenize("param weather = 'RAIN'")
        string_tokens = [t for t in tokens if t.kind is TokenKind.STRING]
        assert len(string_tokens) == 1 and string_tokens[0].value == "RAIN"

    def test_hash_inside_string_is_not_a_comment(self):
        tokens = tokenize("name = 'a#b'")
        string_tokens = [t for t in tokens if t.kind is TokenKind.STRING]
        assert string_tokens[0].value == "a#b"

    def test_indentation_tokens(self):
        source = "def f():\n    x = 1\n    y = 2\nz = 3\n"
        token_kinds = kinds(source)
        assert TokenKind.INDENT in token_kinds
        assert TokenKind.DEDENT in token_kinds

    def test_backslash_continuation(self):
        tokens = tokenize("x = 1 + \\\n    2\n")
        assert sum(1 for t in tokens if t.kind is TokenKind.NEWLINE) == 1

    def test_brackets_allow_multiline(self):
        tokens = tokenize("x = f(1,\n      2)\n")
        assert sum(1 for t in tokens if t.kind is TokenKind.NEWLINE) == 1

    def test_unterminated_string_raises(self):
        with pytest.raises(ScenicSyntaxError):
            tokenize("x = 'oops")

    def test_unknown_character_raises(self):
        with pytest.raises(ScenicSyntaxError):
            tokenize("x = 1 ~ 2")

    def test_multi_character_operators(self):
        assert "<=" in values("require x <= 3")
        assert "==" in values("require x == 3")


def layout_free(source):
    """``(kind, value, line, column)`` of every token but NEWLINE, INDENT, DEDENT and END."""
    layout = (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT, TokenKind.END)
    return [(t.kind.name, t.value, t.line, t.column) for t in tokenize(source) if t.kind not in layout]


X_EQUALS = [("NAME", "x", 1, 1), ("OPERATOR", "=", 1, 3)]


@pytest.mark.parametrize(
    "source,expected",
    [
        # Number forms.
        ("x = 1.e5", X_EQUALS + [("NUMBER", "1.e5", 1, 5)]),
        ("x = .5", X_EQUALS + [("NUMBER", ".5", 1, 5)]),
        ("x = .5.5", X_EQUALS + [("NUMBER", ".5", 1, 5), ("NUMBER", ".5", 1, 7)]),
        ("x = 1e+", X_EQUALS + [("NUMBER", "1", 1, 5), ("NAME", "e", 1, 6), ("OPERATOR", "+", 1, 7)]),
        ("x = 1e5.2", X_EQUALS + [("NUMBER", "1e5", 1, 5), ("NUMBER", ".2", 1, 8)]),
        ("x = 5..real", X_EQUALS + [("NUMBER", "5.", 1, 5), ("OPERATOR", ".", 1, 7), ("NAME", "real", 1, 8)]),
        ("x = 0x10", X_EQUALS + [("NUMBER", "0", 1, 5), ("NAME", "x10", 1, 6)]),
        # Maximal munch.
        ("a ** b", [("NAME", "a", 1, 1), ("OPERATOR", "**", 1, 3), ("NAME", "b", 1, 6)]),
        ("a // b", [("NAME", "a", 1, 1), ("OPERATOR", "//", 1, 3), ("NAME", "b", 1, 6)]),
        ("a -> b", [("NAME", "a", 1, 1), ("OPERATOR", "->", 1, 3), ("NAME", "b", 1, 6)]),
        ("a <= b", [("NAME", "a", 1, 1), ("OPERATOR", "<=", 1, 3), ("NAME", "b", 1, 6)]),
        ("a != b", [("NAME", "a", 1, 1), ("OPERATOR", "!=", 1, 3), ("NAME", "b", 1, 6)]),
        # Comments and strings.
        ("x = 'a#b'", X_EQUALS + [("STRING", "a#b", 1, 5)]),
        ("x = 'a' # b", X_EQUALS + [("STRING", "a", 1, 5)]),
        # An escaped quote neither ends the string nor hides a comment.
        ("x = 'a\\'b' # c", X_EQUALS + [("STRING", "a\\'b", 1, 5)]),
        ("x = 'a\\'#b'", X_EQUALS + [("STRING", "a\\'#b", 1, 5)]),
        # Every lexer error, with its line and column.
        ("x = 1 $ 2", "unexpected character '$' (line 1, column 7)"),
        ("x = 1 ! 2", "unexpected character '!' (line 1, column 7)"),
        ("x = \u00e9", "unexpected character '\u00e9' (line 1, column 5)"),
        ("x = 1\xa0", "unexpected character '\\xa0' (line 1, column 6)"),
        ("x = 'oops", "unterminated string literal (line 1, column 5)"),
        ("x = 1]", "unmatched closing bracket (line 1, column 6)"),
        ("x = (1\n", "unclosed bracket at end of file (line 1, column 1)"),
        ("if x:\n    y = 1\n  z = 2\n", "inconsistent indentation (line 3, column 1)"),
    ],
)
def test_lexer_table(source, expected):
    if isinstance(expected, str):
        with pytest.raises(ScenicSyntaxError) as info:
            tokenize(source)
        assert str(info.value) == expected
    else:
        assert layout_free(source) == expected


def test_escaped_quote_lines_end_in_one_newline():
    for source in ("x = 'a\\'b' # c", "x = 'a\\'#b'"):
        assert kinds(source) == [
            TokenKind.NAME, TokenKind.OPERATOR, TokenKind.STRING, TokenKind.NEWLINE, TokenKind.END,
        ]


class TestParserStatements:
    def test_import(self):
        program = parse_program("import gtaLib\n")
        assert isinstance(program.statements[0], ast.ImportStatement)
        assert program.statements[0].module == "gtaLib"

    def test_assignment_and_ego(self):
        program = parse_program("ego = Car\n")
        statement = program.statements[0]
        assert isinstance(statement, ast.Assignment)
        assert isinstance(statement.value, ast.ObjectCreation)
        assert statement.value.class_name == "Car"

    def test_param(self):
        program = parse_program("param time = 12 * 60, weather = 'RAIN'\n")
        statement = program.statements[0]
        assert isinstance(statement, ast.ParamStatement)
        assert [name for name, _ in statement.assignments] == ["time", "weather"]

    def test_require_hard_and_soft(self):
        program = parse_program("require x > 1\nrequire[0.5] y\n")
        hard, soft = program.statements
        assert isinstance(hard, ast.RequireStatement) and hard.probability is None
        assert isinstance(soft, ast.RequireStatement) and soft.probability is not None

    def test_mutate_forms(self):
        program = parse_program("mutate\nmutate taxi\nmutate taxi by 2\n")
        bare, single, scaled = program.statements
        assert bare.targets == [] and bare.scale is None
        assert single.targets == ["taxi"]
        assert scaled.targets == ["taxi"] and isinstance(scaled.scale, ast.NumberLiteral)

    def test_class_definition_with_properties(self):
        source = (
            "class Car:\n"
            "    position: Point on road\n"
            "    heading: roadDirection at self.position\n"
        )
        program = parse_program(source)
        definition = program.statements[0]
        assert isinstance(definition, ast.ClassDefinition)
        assert [name for name, _ in definition.properties] == ["position", "heading"]

    def test_function_definition_and_control_flow(self):
        source = (
            "def helper(a, b=2):\n"
            "    if a > b:\n"
            "        return a\n"
            "    for i in range(3):\n"
            "        b = b + i\n"
            "    return b\n"
        )
        program = parse_program(source)
        function = program.statements[0]
        assert isinstance(function, ast.FunctionDefinition)
        assert function.parameters == ["a", "b"]
        assert isinstance(function.body[0], ast.IfStatement)
        assert isinstance(function.body[1], ast.ForStatement)


class TestParserExpressions:
    def _expression(self, text):
        program = parse_program(f"x = {text}\n")
        return program.statements[0].value

    def test_interval_distribution(self):
        node = self._expression("(1, 5)")
        assert isinstance(node, ast.IntervalDistribution)

    def test_vector_literal(self):
        node = self._expression("1 @ 2")
        assert isinstance(node, ast.VectorLiteral)

    def test_degrees_and_relative_to(self):
        node = self._expression("(-5, 5) deg relative to roadDirection")
        assert isinstance(node, ast.RelativeTo)
        assert isinstance(node.value, ast.Degrees)

    def test_precedence_of_at_over_arithmetic(self):
        node = self._expression("roadDirection at self.position")
        assert isinstance(node, ast.FieldAt)

    def test_can_see_predicate(self):
        program = parse_program("require car2 can see ego\n")
        condition = program.statements[0].condition
        assert isinstance(condition, ast.CanSee)

    def test_prefix_constructs(self):
        assert isinstance(self._expression("front of lastCar"), ast.EdgeOf)
        assert isinstance(self._expression("back right of lastCar"), ast.EdgeOf)
        assert isinstance(self._expression("visible curb"), ast.VisibleRegionExpr)
        assert isinstance(self._expression("distance to spot"), ast.DistanceTo)
        assert isinstance(self._expression("angle from a to b"), ast.AngleTo)
        assert isinstance(self._expression("relative heading of c"), ast.RelativeHeading)
        assert isinstance(self._expression("apparent heading of c from v"), ast.ApparentHeading)
        follow = self._expression("follow roadDirection from (front of c) for 10")
        assert isinstance(follow, ast.Follow)

    def test_conditional_expression(self):
        node = self._expression("a if b is None else c")
        assert isinstance(node, ast.Conditional)

    def test_calls_with_keyword_arguments(self):
        node = self._expression("createPlatoonAt(c2, 5, dist=(2, 8))")
        assert isinstance(node, ast.Call)
        assert node.keyword_args[0][0] == "dist"

    def test_attribute_and_subscript(self):
        node = self._expression("CarModel.models['DOMINATOR']")
        assert isinstance(node, ast.Subscript)
        assert isinstance(node.target, ast.Attribute)


class TestParserSpecifiers:
    def _creation(self, text):
        program = parse_program(text + "\n")
        statement = program.statements[0]
        value = statement.value if isinstance(statement, ast.Assignment) else statement.expression
        assert isinstance(value, ast.ObjectCreation)
        return value

    def test_simple_creation(self):
        creation = self._creation("Car")
        assert creation.class_name == "Car" and creation.specifiers == []

    def test_multiple_specifiers(self):
        creation = self._creation("Car at 1 @ 2, facing 30 deg, with model BUS")
        kinds_found = [spec.kind for spec in creation.specifiers]
        assert kinds_found == ["at", "facing", "with"]

    def test_left_of_by(self):
        creation = self._creation("Car left of spot by 0.5")
        specifier = creation.specifiers[0]
        assert specifier.kind == "left of" and len(specifier.operands) == 2

    def test_beyond_with_from(self):
        creation = self._creation("Car beyond c by 1 @ 2 from ego")
        specifier = creation.specifiers[0]
        assert specifier.kind == "beyond" and len(specifier.operands) == 3

    def test_following_specifier(self):
        creation = self._creation("Car following roadDirection from spot for (1, 5)")
        specifier = creation.specifiers[0]
        assert specifier.kind == "following" and len(specifier.operands) == 3

    def test_apparently_facing(self):
        creation = self._creation("Car visible, apparently facing 90 deg")
        assert [spec.kind for spec in creation.specifiers] == ["visible", "apparently facing"]

    def test_lowercase_names_are_not_creations(self):
        program = parse_program("x = taxi\n")
        assert isinstance(program.statements[0].value, ast.Name)

    def test_capitalised_call_is_not_a_creation(self):
        program = parse_program("m = CarModel.defaultModel()\n")
        assert isinstance(program.statements[0].value, ast.Call)

    def test_unknown_specifier_raises(self):
        with pytest.raises(ScenicSyntaxError):
            parse_program("Car sideways of spot\n")
