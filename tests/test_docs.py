"""Documentation checks as tier-1 tests (doc rot fails the build).

Runs the same checker CI uses (``tools/check_docs.py``) over README.md,
ROADMAP.md and docs/*.md: every relative link must point at an existing
file and every ``#fragment`` at a real heading anchor.  The distributed
wire's message-flow diagram is checked against the code's handler tables,
and every pattern in ``tools/reach_keep.txt`` against the definitions in
``src/repro``; ``tools/reach.py``'s report refuses an unreadable dump.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def test_docs_links_and_anchors_are_valid():
    result = subprocess.run(
        [sys.executable, str(CHECKER)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"documentation check failed:\n{result.stderr or result.stdout}"
    )


def test_docs_tree_exists():
    """The documented entry points stay where README links point."""
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "executors.md").is_file()


def test_message_flow_diagram_covers_every_message_kind():
    """Each side of the distributed wire dispatches inbound messages from one
    handler table: every kind in either table — and the kinds handled
    outside them — is a ``("kind"`` arrow in architecture.md's diagram, and
    the diagram draws no arrow for a kind the code does not speak."""
    from repro.execution.executors import DistributedExecutor, _WorkerConnection

    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.split("## Distributed executor message flow", 1)[1]
    diagram = section.split("```")[1]
    kinds = set(DistributedExecutor._WORKER_MESSAGES) | set(_WorkerConnection._HANDLERS)
    kinds |= {"register", "shutdown"}
    drawn = set(re.findall(r'\("(\w+)"', diagram))
    assert not kinds - drawn, f"message kinds missing from the diagram: {sorted(kinds - drawn)}"
    assert not drawn - kinds, f"diagram arrows for unknown kinds: {sorted(drawn - kinds)}"


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


def test_every_reach_keep_pattern_matches_a_definition():
    """A keep-list entry whose definition was deleted or renamed is stale:
    each pattern in ``tools/reach_keep.txt`` must match at least one
    ``<file>:<qualname>`` that ``tools/reach.py`` finds under ``src/repro``."""
    reach = _load_reach()
    names = [f"{unit.file}:{unit.name}" for unit in reach.definitions().values()]
    stale = [
        pattern
        for patterns in reach.keep_reasons().values()
        for pattern in patterns
        if not any(fnmatch.fnmatchcase(name, pattern) for name in names)
    ]
    assert not stale, f"reach_keep.txt patterns matching no definition: {stale}"


def test_reach_report_names_an_unreadable_dump(tmp_path):
    """An empty or torn per-process dump stops the report with an error
    naming the file, rather than a bare JSONDecodeError or a silent skip."""
    (tmp_path / "e2e:census_reuse@1.json").write_text("[]")
    (tmp_path / "serve+submit@2.json").write_text("")
    with pytest.raises(SystemExit, match=r"unreadable reach dump .*serve\+submit@2\.json"):
        _load_reach().report(tmp_path)
