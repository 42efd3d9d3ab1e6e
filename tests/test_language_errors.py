"""Error-path ergonomics of the language front end.

The contract (established while fuzzing invalid programs, see
``tests/fuzz_regressions/``): the lexer, parser and interpreter only ever
raise :class:`~repro.core.errors.ScenicError` subclasses for program bugs —
never raw ``IndexError`` / ``KeyError`` / ``TypeError`` / ``RecursionError``
— and the message carries the offending source line.
"""

import random

import pytest

from repro.core.errors import (
    InterpreterError,
    ScenicError,
    ScenicSyntaxError,
)
from repro.language import scenario_from_string
from repro.language.errors import format_syntax_error
from repro.language.interpreter import Interpreter
from repro.language.lexer import tokenize
from repro.language.parser import Parser, parse_program


def compile_error(source: str) -> ScenicError:
    with pytest.raises(ScenicError) as info:
        scenario_from_string(source)
    return info.value


class TestLexerErrors:
    def test_unexpected_character_reports_position(self):
        error = compile_error("x = 1 ? 2\n")
        assert isinstance(error, ScenicSyntaxError)
        assert error.line == 1
        assert "'?'" in str(error)
        assert "(line 1" in str(error)

    def test_unterminated_string(self):
        error = compile_error("label = 'oops\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "unterminated string" in str(error)
        assert error.line == 1

    def test_unclosed_bracket(self):
        error = compile_error("x = (1 + 2\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "bracket" in str(error)

    def test_inconsistent_indentation(self):
        error = compile_error("if 1 > 0:\n    x = 1\n  y = 2\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "indentation" in str(error)
        assert error.line == 3


class TestParserErrors:
    def test_unknown_specifier_names_the_keyword(self):
        error = compile_error("ego = Object sideways of ego\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "sideways" in str(error)
        assert error.line == 1

    def test_missing_expression_after_require(self):
        error = compile_error("require\n")
        assert isinstance(error, ScenicSyntaxError)

    def test_deep_expression_nesting_is_a_syntax_error(self):
        source = "x = " + "(" * 200 + "1" + ")" * 200 + "\n"
        error = compile_error(source)
        assert isinstance(error, ScenicSyntaxError)
        assert "nesting" in str(error)

    def test_deep_unary_chain_is_a_syntax_error(self):
        error = compile_error("x = " + "-" * 400 + "1\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "nesting" in str(error)

    def test_deep_not_chain_is_a_syntax_error(self):
        error = compile_error("x = " + "not " * 400 + "True\n")
        assert isinstance(error, ScenicSyntaxError)

    def test_deep_power_chain_is_a_syntax_error(self):
        # ``**`` is right-recursive through _parse_power -> _parse_unary.
        error = compile_error("x = " + "1 ** " * 600 + "1\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "nesting" in str(error)

    def test_deep_ternary_chain_is_a_syntax_error(self):
        error = compile_error("x = " + "1 if 1 > 0 else " * 600 + "1\n")
        assert isinstance(error, ScenicSyntaxError)
        assert "nesting" in str(error)

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "x = " + "(" * n + "1" + ")" * n + "\n",
            lambda n: "x = " + "-" * n + "1\n",
            lambda n: "x = " + "not " * n + "True\n",
            lambda n: "x = " + "1 ** " * n + "1\n",
            lambda n: "x = " + "1 if 1 > 0 else " * n + "1\n",
        ],
        ids=["parentheses", "unary-minus", "not", "power", "conditional"],
    )
    def test_expression_nesting_boundary(self, nest):
        """31 nested levels parse and 32 raise, for each recursive form."""
        assert Parser.MAX_EXPRESSION_DEPTH == 32
        parse_program(nest(31))
        with pytest.raises(ScenicSyntaxError, match="expression nesting exceeds 32 levels"):
            parse_program(nest(32))

    def test_deep_statement_nesting_is_a_syntax_error(self):
        depth = Parser.MAX_STATEMENT_DEPTH + 5
        lines = []
        for level in range(depth):
            lines.append("    " * level + "if 1 > 0:")
        lines.append("    " * depth + "x = 1")
        error = compile_error("\n".join(lines) + "\n")
        assert isinstance(error, ScenicSyntaxError)

    def test_format_syntax_error_shows_caret(self):
        source = "x = 1 ? 2\n"
        with pytest.raises(ScenicSyntaxError) as info:
            parse_program(source)
        rendered = format_syntax_error(source, info.value)
        assert "x = 1 ? 2" in rendered
        assert "^" in rendered


class TestInterpreterErrors:
    @pytest.mark.parametrize(
        "source,needle",
        [
            ("x = 1 + 'a'\n", "TypeError"),
            ("x = 1 / 0\n", "ZeroDivisionError"),
            ("x = [1, 2][10]\n", "IndexError"),
            ("x = {1: 2}[3]\n", "KeyError"),
            ("x = int('zzz')\n", "ValueError"),
        ],
        ids=["type", "zerodiv", "index", "key", "value"],
    )
    def test_runtime_errors_become_interpreter_errors_with_line(self, source, needle):
        error = compile_error(source)
        assert isinstance(error, InterpreterError)
        assert needle in str(error)
        assert error.line == 1
        assert "(line 1)" in str(error)

    def test_undefined_name_reports_line(self):
        error = compile_error("y = 1\nx = undefinedName\n")
        assert isinstance(error, InterpreterError)
        assert "undefinedName" in str(error)
        assert error.line == 2

    @pytest.mark.parametrize("keyword", ["break", "continue"])
    def test_loop_keywords_at_top_level(self, keyword):
        error = compile_error(f"x = 1\n{keyword}\n")
        assert isinstance(error, InterpreterError)
        assert keyword in str(error)
        assert error.line == 2

    def test_return_at_top_level(self):
        error = compile_error("return 5\n")
        assert isinstance(error, InterpreterError)
        assert "return" in str(error)

    def test_break_inside_function_body_outside_loop(self):
        error = compile_error("def f():\n    break\nx = f()\n")
        assert isinstance(error, InterpreterError)
        assert "break" in str(error)

    def test_unbounded_recursion_is_reported(self):
        error = compile_error("def f():\n    return f()\nx = f()\n")
        assert isinstance(error, InterpreterError)
        # The interpreter's own cap normally fires ("maximum call depth");
        # if the host stack is already deep, the wrapped RecursionError is
        # an acceptable fallback - either way it is a proper ScenicError.
        assert "call depth" in str(error) or "RecursionError" in str(error)

    def test_runaway_object_loop_hits_the_object_cap(self, monkeypatch):
        monkeypatch.setattr(Interpreter, "MAX_OBJECTS", 50)
        error = compile_error("for i in range(20000):\n    Object at i @ 0\n")
        assert isinstance(error, InterpreterError)
        assert error.line == 2
        assert "more than 50 objects" in str(error)

    def test_unknown_import(self):
        error = compile_error("import noSuchWorld\n")
        assert isinstance(error, InterpreterError)
        assert "noSuchWorld" in str(error)

    def test_unknown_superclass_reports_line(self):
        error = compile_error("class C(NotAClass):\n    pass\n")
        assert isinstance(error, InterpreterError)
        assert error.line == 1

    def test_attribute_store_on_number(self):
        error = compile_error("x = 5\nx.y = 3\n")
        assert isinstance(error, InterpreterError)
        assert error.line == 2

    def test_bad_subscript_store(self):
        error = compile_error("x = [1]\nx['a'] = 2\n")
        assert isinstance(error, InterpreterError)
        assert error.line == 2

    def test_random_loop_iterable_still_rejected(self):
        error = compile_error("for i in (0, 1):\n    pass\n")
        assert isinstance(error, InterpreterError)
        assert "random" in str(error)

    def test_mutate_non_object(self):
        error = compile_error("x = 5\nmutate x\n")
        assert isinstance(error, InterpreterError)

    def test_bad_specifier_operand_reports_line(self):
        # A scalar where a vector is required used to surface a raw
        # TypeError from the core specifier machinery.
        error = compile_error("ego = Object facing toward 2.8\n")
        assert isinstance(error, InterpreterError)
        assert "vector" in str(error)
        assert error.line == 1

    @pytest.mark.parametrize(
        "expression,needle",
        [
            ("(2.434, 0.858)", "uniform interval (2.434, 0.858) is empty"),
            ("Range(3, 1)", "uniform interval (3, 1) is empty"),
            ("TruncatedNormal(0, 1, 2, -2)", "TruncatedNormal interval (2, -2) is empty"),
        ],
    )
    def test_constant_empty_interval_fails_at_compile_time(self, expression, needle):
        # Constant endpoints with low > high can never be sampled, so the
        # program is rejected when it runs, not on every draw afterwards.
        error = compile_error(f"ego = Object with width {expression}\n")
        assert needle in str(error)

    @pytest.mark.parametrize("probability", ['"a"', "(0.5,)", "1.5", "-0.5", '"0.5"', "True"])
    def test_soft_requirement_probability_must_be_a_number_in_the_unit_interval(
        self, probability
    ):
        # A string, a tuple, a bool or a number outside [0, 1] is the
        # program's error, reported at the require statement's line.
        error = compile_error(f"ego = Object\nrequire[{probability}] ego.position.x > -1\n")
        assert isinstance(error, InterpreterError)
        assert "must be a number in [0, 1]" in str(error)
        assert error.line == 2

    def test_random_empty_interval_still_fails_per_draw(self):
        from repro.core.distributions import Range, Sample, concretize

        interval = Range(Range(2, 3), 1)  # empty on every draw, known only when drawn
        with pytest.raises(ScenicError, match="is empty"):
            concretize(interval, Sample(random.Random(0)))


class TestLexerTotality:
    """The lexer itself only raises ScenicSyntaxError on arbitrary bytes."""

    @pytest.mark.parametrize(
        "source",
        ["\x00", "x = `y`", "@@@@", '"' , "'" , "((((", "\t\tx", "0x = 1"],
    )
    def test_garbage_input(self, source):
        try:
            tokenize(source)
        except ScenicError:
            pass  # fine - a proper Scenic error
