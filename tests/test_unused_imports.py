"""No module of ``src/repro`` imports a name at module level that it never uses.

An AST scan, without a lint dependency: a module-level ``import`` or
``from ... import`` binds names, and each must be read somewhere in the
module (in code, or in a string annotation).  Package ``__init__.py``
files re-export what they import, and so does any name a module lists in a
literal ``__all__``; both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SOURCE.rglob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """``{name: line}`` of the names that module-level imports bind."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module):
    """Every name the module reads, including names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id for inner in ast.walk(annotation) if isinstance(inner, ast.Name)
            )
    return used


def _exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(source: str):
    """``(name, line)`` of each module-level import the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree) | _exported_names(tree)
    return sorted(
        (name, line) for name, line in _imported_names(tree).items() if name not in used
    )


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, List, Optional\n"
        "from .x import exported, unused_helper\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return [np.floor(a)]\n"
    )
    assert unused_imports(source) == [("Any", 5), ("math", 2), ("os", 3), ("unused_helper", 6)]


def test_modules_are_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SOURCE)) for path in MODULES]
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
