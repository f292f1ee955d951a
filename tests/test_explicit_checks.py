"""Load-bearing checks are explicit raises.  `python -O` strips every
`assert` statement and makes `__debug__` false, so a check written either
way would vanish there; tier-1 under `-O` would notice only on the paths it
reaches.  This scans the package and the test helpers that are not test
modules, whose asserts pytest does not rewrite."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "layerlat").rglob("*.py")) + [
    ROOT / "tests" / name for name in ("guards.py", "table_search.py", "conftest.py", "model.py")]


def debug_only_checks(source: str, name: str) -> list[str]:
    """``name:line`` of every assert statement and every `__debug__` read."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(f"{name}:{node.lineno}: __debug__")
    return found


def test_the_scan_finds_asserts_and_debug_reads():
    source = "x = 1\nassert x\nif __debug__:\n    pass\n"
    assert debug_only_checks(source, "m.py") == ["m.py:2: assert statement", "m.py:3: __debug__"]


def test_no_module_checks_by_assert_or_debug():
    assert len(SCANNED) > 3 and all(path.is_file() for path in SCANNED)
    found = [hit for path in SCANNED
             for hit in debug_only_checks(path.read_text(), str(path.relative_to(ROOT)))]
    assert found == []
