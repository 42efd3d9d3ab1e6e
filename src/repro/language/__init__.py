"""The Scenic domain-specific language: lexer, parser, interpreter, compiler.

This package implements the surface syntax of Fig. 5 (and Appendix A's
gallery of scenarios): Python-like statements plus Scenic's specifiers,
geometric operators, distributions, ``require``/``mutate``/``param``
statements, and class definitions with default-value properties.

The top-level entry points are :func:`compile_scenario` — which turns a
program into a cached :class:`CompiledScenario` artifact (the
compile-once, sample-many unit; see ``docs/index.md``) — and the classic
:func:`scenario_from_string` / :func:`scenario_from_file`, which compile a
Scenic program straight into a :class:`repro.core.Scenario` ready for
sampling (routed through the artifact cache, so repeated compiles skip the
lexer and parser).
"""

from .lexer import tokenize, Token, TokenKind
from .parser import parse_program
from .interpreter import Interpreter
from .compiler import (
    ArtifactCache,
    ArtifactMetadata,
    CompiledScenario,
    compile_scenario,
    scenario_from_file,
    scenario_from_string,
    source_fingerprint,
)
from .errors import format_syntax_error

__all__ = [
    "tokenize",
    "Token",
    "TokenKind",
    "parse_program",
    "Interpreter",
    "ArtifactCache",
    "ArtifactMetadata",
    "CompiledScenario",
    "compile_scenario",
    "source_fingerprint",
    "scenario_from_string",
    "scenario_from_file",
    "format_syntax_error",
]
