"""Unused-import guard over the package sources, using the standard library
only: a name bound by an import must be read somewhere in its module."""

import ast
from pathlib import Path

import pytest

import motionscope

SOURCES = sorted(Path(motionscope.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_guard_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom re import sub\nos.sep\n"
    assert unused_imports(source) == ["line 2: json", "line 4: sub"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
