"""Unused-import and dead-API guards over the package sources, using the
standard library only: a name bound by an import must be read somewhere in its
module, and a function, class or method the package defines must be referenced
somewhere in `src/` or `bench/`."""

import ast
from pathlib import Path

import pytest

import motionscope

SOURCES = sorted(Path(motionscope.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# defined for the tests alone: the finite-difference oracle of every gradient test
UNREFERENCED_ALLOWED = {"grad_check"}


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


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function, method and class defined in `source`,
    dunders excepted."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name read and every attribute named in `source`."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced(defining: dict[str, str], referencing: list[str]) -> list[str]:
    """`module:line: name` of each definition in `defining` (module -> source)
    that no source in `referencing` names."""
    used = set().union(*(references(source) for source in referencing))
    return [f"{module}:{line}: {name}" for module, source in sorted(defining.items())
            for name, line in definitions(source)
            if name not in used and name not in UNREFERENCED_ALLOWED]


def test_guard_flags_unreferenced_definitions():
    defining = {"m": "class K:\n    def __init__(self): pass\n    def used(self): pass\n"
                     "    def dead(self): pass\ndef helper(): pass\ndef grad_check(): pass\n"}
    caller = "from m import K, helper\nK().used()\nhelper()\n"
    assert unreferenced(defining, [caller]) == ["m:4: dead"]
    assert unreferenced(defining, [caller, "x.dead"]) == []


def test_no_unreferenced_definitions():
    referencing = [p.read_text() for d in ("src", "bench") for p in sorted((REPO / d).rglob("*.py"))]
    assert unreferenced({p.name: p.read_text() for p in SOURCES}, referencing) == []
