"""The documentation can never rot: every snippet compiles, every link resolves.

Walks ``docs/**/*.md`` plus ``README.md`` and

* compiles every fenced ``scenic`` block through the real front end
  (:func:`repro.language.compile_scenario` → interpreter), so the language
  reference in ``docs/language.md`` is permanently executable;
* syntax-checks every fenced ``python`` block (non-REPL ones) with
  :func:`compile`;
* resolves every relative Markdown link (and any ``[[wiki-style]]`` link)
  to an existing file, so the cross-link structure of the docs site cannot
  silently break;
* checks that every backticked repository path (``src/...``, ``tests/...``,
  ``repro/...`` and the other top-level directories) still exists, so the
  docs cannot name a deleted file or test.

Runs as part of tier-1 (the CI ``tier1`` job).
"""

import glob
import re
from pathlib import Path

import pytest

from repro.language import compile_scenario

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("**/*.md")) + [ROOT / "README.md"]

_FENCE = re.compile(r"^(\s*)```+\s*([A-Za-z0-9_+-]*)\s*$")
_MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_WIKI_LINK = re.compile(r"\[\[([^\]|#]+)(?:[|#][^\]]*)?\]\]")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPO_DIRS = (
    "src/", "tests/", "perfbench/", "benchmarks/", "examples/", "corpus/", "results/",
    "repro/",
)


def fenced_blocks(path):
    """``(language, first_line_number, text)`` for every fenced block in *path*."""
    blocks = []
    language = None
    start = 0
    buffer = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = _FENCE.match(line)
        if match and language is None:
            language = match.group(2).lower()
            start = number + 1
            buffer = []
        elif match:
            blocks.append((language, start, "\n".join(buffer) + "\n"))
            language = None
        elif language is not None:
            buffer.append(line)
    return blocks


def _collect(language):
    collected = []
    for path in DOC_FILES:
        for block_language, line, text in fenced_blocks(path):
            if block_language == language:
                collected.append(
                    pytest.param(
                        path, text, id=f"{path.relative_to(ROOT)}:{line}"
                    )
                )
    return collected


SCENIC_SNIPPETS = _collect("scenic")
PYTHON_SNIPPETS = _collect("python")


def test_docs_exist_and_snippets_were_found():
    """The extraction itself is under test: an empty sweep means a broken checker."""
    names = {path.name for path in DOC_FILES}
    assert {
        "index.md", "language.md", "sampling.md", "geometry.md",
        "fuzzing.md", "service.md", "README.md",
    } <= names
    # The language reference alone contributes dozens of compiled examples.
    assert len(SCENIC_SNIPPETS) >= 25, "scenic snippet extraction found too few blocks"
    assert len(PYTHON_SNIPPETS) >= 10


@pytest.mark.parametrize("path,snippet", SCENIC_SNIPPETS)
def test_scenic_snippet_compiles(path, snippet):
    """Every fenced ``scenic`` block is a complete, compilable program."""
    artifact = compile_scenario(snippet, cache=None)
    scenario = artifact.scenario(fresh=True)  # run the interpreter too
    assert scenario.ego is not None


@pytest.mark.parametrize("path,snippet", PYTHON_SNIPPETS)
def test_python_snippet_is_valid_syntax(path, snippet):
    if ">>>" in snippet:
        pytest.skip("REPL-style block")
    compile(snippet, "<doc snippet>", "exec")


def prose(path):
    """The text of *path* outside its fenced blocks."""
    stripped = []
    in_fence = False
    for line in path.read_text().splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            stripped.append(line)
    return "\n".join(stripped)


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_relative_links_resolve(path):
    # Fenced blocks are skipped: code examples may legitimately contain brackets.
    body = prose(path)

    for target in _MARKDOWN_LINK.findall(body):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        assert resolved.exists(), f"{path.name}: broken relative link -> {target}"

    for name in _WIKI_LINK.findall(body):
        candidate = (ROOT / "docs" / f"{name.strip()}.md").resolve()
        assert candidate.exists(), f"{path.name}: broken wiki link -> [[{name}]]"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_named_repo_paths_exist(path):
    """Every backticked repository path in the prose names something that exists.

    ``repro/`` paths resolve under ``src/``; ``*`` and ``<name>``
    placeholders match like a glob; a ``::name`` suffix (a pytest node id)
    must name a ``def`` or ``class`` in that file.
    """
    for reference in _CODE_SPAN.findall(prose(path)):
        if not reference.startswith(_REPO_DIRS):
            continue
        target, *nodes = reference.split("::")
        pattern = re.sub(r"<[^>]*>", "*", target)
        if pattern.startswith("repro/"):
            pattern = "src/" + pattern
        matches = glob.glob(str(ROOT / pattern))
        assert matches, f"{path.name}: `{reference}` names no file"
        for node in nodes:
            name = re.escape(node.split("[", 1)[0])
            found = re.search(rf"^\s*(?:def|class) {name}\b", Path(matches[0]).read_text(), re.M)
            assert found, f"{path.name}: `{reference}` names no such test"
