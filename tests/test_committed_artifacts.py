"""Every results artifact that code, tests, benchmarks, docs or CI name is committed.

A file under ``results/`` that some module, CI step or doc page points at
but that ``.gitignore`` keeps out of the repository breaks a fresh checkout
(tier-1 and the CI gates read it).  This scans the tracked files of the
directories that may name such artifacts and requires every named
``results/<file>`` to be tracked by git.
"""

import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level directories whose files may name results artifacts.
SCANNED_DIRS = ("src", "tests", "benchmarks", "docs", ".github")

RESULTS_PATH = re.compile(r"\bresults/[A-Za-z0-9_.\-]+\.(?:json|md|txt)\b")


def _tracked_files():
    """``git ls-files`` of the repository, or ``None`` outside a git checkout."""
    try:
        listing = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return set(listing.stdout.splitlines()) or None


def test_named_results_artifacts_are_committed():
    tracked = _tracked_files()
    if tracked is None:
        pytest.skip("not a git checkout")
    missing = {}
    for name in sorted(tracked):
        if name.split("/", 1)[0] not in SCANNED_DIRS:
            continue
        path = REPO_ROOT / name
        if not path.is_file():
            continue
        for artifact in RESULTS_PATH.findall(path.read_text(errors="ignore")):
            if artifact not in tracked:
                missing.setdefault(artifact, []).append(name)
    assert not missing, "results artifacts named but not committed: " + "; ".join(
        f"{artifact} (named in {', '.join(names)})" for artifact, names in missing.items()
    )
