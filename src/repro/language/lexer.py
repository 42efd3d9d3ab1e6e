"""Tokenizer for the Scenic language.

Scenic's lexical structure is Python-like: identifiers, numbers, strings,
operators and punctuation, ``#`` comments, and significant indentation
(INDENT/DEDENT tokens delimit blocks).  Multi-word constructs such as
``left of`` or ``relative to`` are handled in the parser, not here; the
lexer just produces NAME tokens for each word.

Line continuations follow Python: an expression inside unclosed brackets may
span lines, and a trailing backslash joins physical lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: str
    line: int
    column: int

    def is_name(self, *names: str) -> bool:
        return self.kind is TokenKind.NAME and (not names or self.value in names)

    def is_operator(self, *operators: str) -> bool:
        return self.kind is TokenKind.OPERATOR and (not operators or self.value in operators)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, line {self.line})"


#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "**", "//", "==", "!=", "<=", ">=", "->",
    "+", "-", "*", "/", "%", "<", ">", "=",
    "(", ")", "[", "]", "{", "}",
    ",", ":", ".", "@",
]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONTINUE = _NAME_START | set("0123456789")
_DIGITS = set("0123456789")


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, producing a flat token list ending with an END token."""
    tokens: List[Token] = []
    indent_stack = [0]
    bracket_depth = 0
    lines = source.splitlines()

    # Join explicit (backslash) continuations before indentation handling.
    physical: List[tuple] = []  # (line_number, text)
    pending: Optional[tuple] = None
    for line_number, text in enumerate(lines, start=1):
        if pending is not None:
            pending = (pending[0], pending[1] + " " + text)
        else:
            pending = (line_number, text)
        stripped_for_continuation = _strip_comment(pending[1])
        if stripped_for_continuation.rstrip().endswith("\\"):
            pending = (pending[0], stripped_for_continuation.rstrip()[:-1])
            continue
        physical.append(pending)
        pending = None
    if pending is not None:
        physical.append(pending)

    for line_number, raw_line in physical:
        text = _strip_comment(raw_line)
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

        line_tokens, bracket_depth = _tokenize_line(text, line_number, bracket_depth)
        tokens.extend(line_tokens)
        if bracket_depth == 0 and line_tokens:
            tokens.append(Token(TokenKind.NEWLINE, "\n", line_number, len(raw_line) + 1))

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
    result = []
    in_string: Optional[str] = None
    for character in text:
        if in_string:
            result.append(character)
            if character == in_string:
                in_string = None
            continue
        if character in ("'", '"'):
            in_string = character
            result.append(character)
            continue
        if character == "#":
            break
        result.append(character)
    return "".join(result)


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


def _tokenize_line(text: str, line_number: int, bracket_depth: int) -> tuple:
    tokens: List[Token] = []
    position = 0
    length = len(text)
    while position < length:
        character = text[position]
        column = position + 1
        if character in " \t":
            position += 1
            continue
        if character in _NAME_START:
            end = position + 1
            while end < length and text[end] in _NAME_CONTINUE:
                end += 1
            tokens.append(Token(TokenKind.NAME, text[position:end], line_number, column))
            position = end
            continue
        if character in _DIGITS or (character == "." and position + 1 < length and text[position + 1] in _DIGITS):
            end = position
            seen_dot = False
            seen_exponent = False
            while end < length:
                next_character = text[end]
                if next_character in _DIGITS:
                    end += 1
                elif next_character == "." and not seen_dot and not seen_exponent:
                    seen_dot = True
                    end += 1
                elif next_character in "eE" and not seen_exponent and end + 1 < length and (
                    text[end + 1] in _DIGITS or (text[end + 1] in "+-" and end + 2 < length and text[end + 2] in _DIGITS)
                ):
                    seen_exponent = True
                    end += 2 if text[end + 1] in "+-" else 1
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, text[position:end], line_number, column))
            position = end
            continue
        if character in ("'", '"'):
            end = position + 1
            while end < length and text[end] != character:
                if text[end] == "\\":
                    end += 1
                end += 1
            if end >= length:
                raise syntax_error("unterminated string literal", line_number, column)
            tokens.append(Token(TokenKind.STRING, text[position + 1:end], line_number, column))
            position = end + 1
            continue
        matched = False
        for operator in _OPERATORS:
            if text.startswith(operator, position):
                tokens.append(Token(TokenKind.OPERATOR, operator, line_number, column))
                if operator in "([{":
                    bracket_depth += 1
                elif operator in ")]}":
                    bracket_depth -= 1
                    if bracket_depth < 0:
                        raise syntax_error("unmatched closing bracket", line_number, column)
                position += len(operator)
                matched = True
                break
        if not matched:
            raise syntax_error(f"unexpected character {character!r}", line_number, column)
    return tokens, bracket_depth


__all__ = ["tokenize", "Token", "TokenKind"]
