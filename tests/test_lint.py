"""Static checks on the package source: no import goes unused, no
private function, method or class goes unused, and no `assert` statement
stands in for a check (`python -O` strips them).

An import counts as used when its bound name appears anywhere else in the
module as a name or as the root of an attribute chain.  `__init__.py`
(whose imports are the public API), `from __future__` imports and lines
marked `# noqa: F401` (deliberate re-exports) are skipped.  A re-export is
kept only for `bench/tracing.py`, so each must name a function that the
tracer patches on that module.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "migsim"
TRACING_FILE = ROOT / "bench" / "tracing.py"
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


def unused_private_defs(sources: list[str]) -> list[str]:
    """Each `_private` (not dunder) function, method or class defined in
    `sources` whose name appears in them only where it is defined.  Any
    other mention counts, a docstring's too: a reference implementation
    that the code's own documentation names is kept."""
    defined = Counter(
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    )
    text = "\n".join(sources)
    return sorted(name for name, n in defined.items() if len(re.findall(rf"\b{name}\b", text)) <= n)


def assert_lines(source: str) -> list[int]:
    """The line of every `assert` statement in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def reexports(source: str) -> list[str]:
    """The names a module imports on lines marked `# noqa: F401`."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def traced_module_names(source: str) -> set[tuple[str, str]]:
    """(module, attribute) of every `SPANS` or `COUNTED` entry whose owner
    is a bare module name, from the tracer's source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            for _name, owner, attr in (entry.elts for entry in node.value.elts):
                if isinstance(owner, ast.Name):
                    out.add((owner.id, attr.value))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads  # noqa: F401\nfrom re import match\nmatch\n"
    assert unused_imports(source) == ["os (line 1)"]


def test_no_unused_private_definitions():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_defs(sources) == []


def test_checker_flags_an_unused_private_definition():
    source = (
        "def _used(): pass\n_used()\nclass _Dead:\n    def _gone(self): pass\n"
        "    def __init__(self): pass\n"
    )
    other = "x._other()\ndef _other(): pass\ndef _twice(): pass\n"
    assert unused_private_defs([source, other, "def _twice(): pass\n"]) == [
        "_Dead", "_gone", "_twice"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reexports_are_names_the_tracer_patches(path):
    traced = traced_module_names(TRACING_FILE.read_text(encoding="utf-8"))
    assert traced, "no module-level hook points found in bench/tracing.py"
    module = path.stem
    untraced = [
        name for name in reexports(path.read_text(encoding="utf-8"))
        if (module, name) not in traced
    ]
    assert untraced == []


def test_reexport_checker_flags_an_untraced_name():
    source = "from .domain import (\n    map_source,  # noqa: F401\n    read_group,\n)\n"
    assert reexports(source) == ["map_source"]
    tracer = 'SPANS = (("a.b", verifiers, "run"), ("c", verifiers.Job, "step"))\n'
    assert traced_module_names(tracer) == {("verifiers", "run")}
