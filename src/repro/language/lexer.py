"""Tokenizer for the Scenic language.

Scenic's lexical structure is Python-like: identifiers, numbers, strings,
operators and punctuation, ``#`` comments, and significant indentation
(INDENT/DEDENT tokens delimit blocks).  Multi-word constructs such as
``left of`` or ``relative to`` are handled in the parser, not here; the
lexer just produces NAME tokens for each word.

Each line is lexed by matching one compiled regular expression at each
position (:data:`_TOKEN`).  Its alternatives, in order: spaces and tabs;
ASCII names; numbers (``1``, ``1.``, ``.5``, ``1.5e-3``); ``'...'`` or
``"..."`` strings, where ``\\`` escapes the next character and the value is
the raw text between the quotes; and operators, longest first.  A ``#``
outside a string starts a comment, and a string is recognised before the
comment scan looks at it, so ``'a\\'#b'`` is one string.  Any other
character, including a non-ASCII letter or space, is a syntax error.

Line continuations follow Python: an expression inside unclosed brackets may
span lines, and a trailing backslash joins physical lines.

Every token carries a ``tag``: its spelling for a NAME or OPERATOR, ``None``
otherwise.  No name is spelled like an operator, so the parser tests
``token.tag == "or"`` or ``token.tag == "("`` without looking at the kind,
and a STRING ``'or'`` never reads as the keyword.
"""

from __future__ import annotations

import enum
import re
from typing import List, Optional

from .errors import syntax_error


class TokenKind(enum.Enum):
    NAME = "NAME"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    NEWLINE = "NEWLINE"
    INDENT = "INDENT"
    DEDENT = "DEDENT"
    END = "END"


class Token:
    """One token: its kind, source text, 1-based line and column, and tag."""

    __slots__ = ("kind", "value", "line", "column", "tag")

    def __init__(self, kind: TokenKind, value: str, line: int, column: int,
                 tag: Optional[str] = None):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column
        self.tag = tag

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, line {self.line})"


#: Operators, longest first so maximal munch works.
_OPERATORS = [
    "**", "//", "==", "!=", "<=", ">=", "->",
    "+", "-", "*", "/", "%", "<", ">", "=",
    "(", ")", "[", "]", "{", "}",
    ",", ":", ".", "@",
]

#: A string's opening quote and body, in which ``\`` escapes the next
#: character.  The token and comment scans share them, so they agree on
#: where every string ends.
_SINGLE_QUOTED = r"'(?:\\.|[^'\\])*"
_DOUBLE_QUOTED = r'"(?:\\.|[^"\\])*'

#: One token per match; the group number is the token's class.
_TOKEN = re.compile(
    r"([ \t]+)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    rf"|({_SINGLE_QUOTED}'|{_DOUBLE_QUOTED}\")"
    r"|(" + "|".join(re.escape(operator) for operator in _OPERATORS) + ")"
)
_NAME_GROUP, _NUMBER_GROUP, _STRING_GROUP, _OPERATOR_GROUP = 2, 3, 4, 5

#: The code before a line's comment: everything but quotes and ``#``, and
#: whole strings.  An unterminated string runs to the end of the line (a
#: trailing lone backslash included), so a ``#`` inside it is no comment.
_CODE = re.compile(rf"(?:[^'\"#]+|{_SINGLE_QUOTED}(?:'|\\)?|{_DOUBLE_QUOTED}(?:\"|\\)?)*")

_OPENERS = {"(", "[", "{"}
_CLOSERS = {")", "]", "}"}

# Enum member lookups are slow; the per-token paths use these.
_NAME, _NUMBER, _STRING, _OPERATOR, _NEWLINE = (
    TokenKind.NAME, TokenKind.NUMBER, TokenKind.STRING, TokenKind.OPERATOR, TokenKind.NEWLINE,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, producing a flat token list ending with an END token."""
    tokens: List[Token] = []
    indent_stack = [0]
    bracket_depth = 0
    lines = source.splitlines()

    # Join explicit (backslash) continuations before indentation handling.
    # Each entry is (line_number, text, text without its comment).
    physical: List[tuple] = []
    pending: Optional[tuple] = None
    for line_number, text in enumerate(lines, start=1):
        if pending is not None:
            pending = (pending[0], pending[1] + " " + text)
        else:
            pending = (line_number, text)
        code = _strip_comment(pending[1])
        if "\\" in code:
            continued = code.rstrip()
            if continued.endswith("\\"):
                pending = (pending[0], continued[:-1])
                continue
        physical.append(pending + (code,))
        pending = None
    if pending is not None:
        physical.append(pending + (_strip_comment(pending[1]),))

    for line_number, raw_line, text in physical:
        if bracket_depth == 0:
            stripped = text.strip()
            if not stripped:
                continue
            indentation = _measure_indent(text, line_number)
            if indentation > indent_stack[-1]:
                indent_stack.append(indentation)
                tokens.append(Token(TokenKind.INDENT, "", line_number, 1))
            else:
                while indentation < indent_stack[-1]:
                    indent_stack.pop()
                    tokens.append(Token(TokenKind.DEDENT, "", line_number, 1))
                if indentation != indent_stack[-1]:
                    raise syntax_error("inconsistent indentation", line_number, 1)

        count = len(tokens)
        bracket_depth = _tokenize_line(text, line_number, bracket_depth, tokens)
        if bracket_depth == 0 and len(tokens) > count:
            tokens.append(Token(_NEWLINE, "\n", line_number, len(raw_line) + 1))

    if bracket_depth != 0:
        raise syntax_error("unclosed bracket at end of file", len(lines) or 1, 1)
    final_line = (physical[-1][0] if physical else 1)
    while len(indent_stack) > 1:
        indent_stack.pop()
        tokens.append(Token(TokenKind.DEDENT, "", final_line, 1))
    tokens.append(Token(TokenKind.END, "", final_line + 1, 1))
    return tokens


def _strip_comment(text: str) -> str:
    """Remove a ``#`` comment, respecting string literals."""
    if "#" not in text:
        return text
    return text[:_CODE.match(text).end()]


def _measure_indent(text: str, line_number: int) -> int:
    indent = 0
    for character in text:
        if character == " ":
            indent += 1
        elif character == "\t":
            indent += 8 - (indent % 8)
        else:
            break
    return indent


def _tokenize_line(text: str, line_number: int, bracket_depth: int, tokens: List[Token]) -> int:
    """Append *text*'s tokens to *tokens*; return the new bracket depth."""
    match_token = _TOKEN.match
    append = tokens.append
    position = 0
    length = len(text)
    while position < length:
        match = match_token(text, position)
        if match is None:
            character = text[position]
            if character in "'\"":
                raise syntax_error("unterminated string literal", line_number, position + 1)
            raise syntax_error(f"unexpected character {character!r}", line_number, position + 1)
        group = match.lastindex
        end = match.end()
        if group == _NAME_GROUP:
            value = match.group()
            append(Token(_NAME, value, line_number, position + 1, value))
        elif group == _OPERATOR_GROUP:
            value = match.group()
            append(Token(_OPERATOR, value, line_number, position + 1, value))
            if value in _OPENERS:
                bracket_depth += 1
            elif value in _CLOSERS:
                bracket_depth -= 1
                if bracket_depth < 0:
                    raise syntax_error("unmatched closing bracket", line_number, position + 1)
        elif group == _NUMBER_GROUP:
            append(Token(_NUMBER, match.group(), line_number, position + 1))
        elif group == _STRING_GROUP:
            append(Token(_STRING, text[position + 1:end - 1], line_number, position + 1))
        position = end
    return bracket_depth


__all__ = ["tokenize", "Token", "TokenKind"]
