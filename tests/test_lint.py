"""Static checks on the package source: no import goes unused.

An import counts as used when its bound name appears anywhere else in the
module as a name or as the root of an attribute chain.  `__init__.py`
(whose imports are the public API), `from __future__` imports and lines
marked `# noqa: F401` (deliberate re-exports) are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "migsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = alias.lineno
                if "# noqa: F401" in lines[line - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = line
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads  # noqa: F401\nfrom re import match\nmatch\n"
    assert unused_imports(source) == ["os (line 1)"]
