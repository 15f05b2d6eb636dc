"""Unused-import, dead-API and gradient-writer guards over the package
sources, using the standard library only: a name bound by an import must be
read somewhere in its module, a function, class or method the package defines
must be referenced somewhere in `src/` or `bench/`, and so must every
dataclass field be read as an attribute there; and only the autodiff core's
own bookkeeping may assign a `.grad` attribute."""

import ast
from pathlib import Path

import pytest

import motionscope

SOURCES = sorted(Path(motionscope.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# forward-pass intermediates the package never reads back: test_model checks
# through the first three how each ablation switch routes the forward pass, and
# a linked-trajectory IoU of the video masks needs the linker's assignments
UNREAD_FIELDS_ALLOWED = {"ForwardOutput.cues", "ForwardOutput.motion_cues",
                         "ForwardOutput.motion_tokens", "TrajectorySet.assignments"}
# a tensor and a graph node start with no gradient, `backward` alone computes
# and accumulates gradients, and the optimizer clears them between steps
GRAD_WRITERS_ALLOWED = {"Tensor.__init__", "node", "Tensor.backward", "Parameter.zero_grad"}


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
            for name, line in definitions(source) if name not in used]


def test_guard_flags_unreferenced_definitions():
    defining = {"m": "class K:\n    def __init__(self): pass\n    def used(self): pass\n"
                     "    def dead(self): pass\ndef helper(): pass\n"}
    caller = "from m import K, helper\nK().used()\nhelper()\n"
    assert unreferenced(defining, [caller]) == ["m:4: dead"]
    assert unreferenced(defining, [caller, "x.dead"]) == []


def repo_sources() -> list[str]:
    """Every Python source under `src/` and `bench/`."""
    return [p.read_text() for d in ("src", "bench") for p in sorted((REPO / d).rglob("*.py"))]


def test_no_unreferenced_definitions():
    assert unreferenced({p.name: p.read_text() for p in SOURCES}, repo_sources()) == []


def dataclass_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) of every annotated field of every `@dataclass`
    class in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        out.extend((node.name, item.target.id, item.lineno) for item in node.body
                   if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return out


def unread_fields(defining: dict[str, str], referencing: list[str]) -> list[str]:
    """`module:line: Class.field` of each dataclass field in `defining` whose
    name no source in `referencing` reads as an attribute."""
    read = {node.attr for source in referencing for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{line}: {cls}.{name}" for module, source in sorted(defining.items())
            for cls, name, line in dataclass_fields(source)
            if name not in read and f"{cls}.{name}" not in UNREAD_FIELDS_ALLOWED]


def test_guard_flags_unread_dataclass_fields():
    defining = {"m": "@dataclass\nclass D:\n    read: int\n    stored: int\n"
                     "@dataclasses.dataclass(frozen=True)\nclass ForwardOutput:\n    cues: int\n"
                     "class Plain:\n    never: int\n"}
    assert unread_fields(defining, ["d.read\nd.stored = 1\n"]) == ["m:4: D.stored"]
    assert unread_fields(defining, ["d.read\nd.stored\n"]) == []


def test_no_unread_dataclass_fields():
    assert unread_fields({p.name: p.read_text() for p in SOURCES}, repo_sources()) == []


def grad_writers(source: str) -> list[str]:
    """Qualified name of each function (`<module>` outside any) in `source`
    that assigns or augments a `.grad` attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "grad"
                    and isinstance(child.ctx, ast.Store)):
                found.add(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (*scope, child.name) if named else scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_guard_flags_gradient_writers():
    source = ("class Tensor:\n    def __init__(self):\n        self.grad = None\n"
              "    def _accumulate(self, g):\n        self.grad += g\n"
              "    def backward(self):\n        def bw(g):\n            p.grad, q = g, 1\n"
              "def reader(p):\n    p.grad[0] = 0.0\n    return p.grad\n")
    assert grad_writers(source) == ["Tensor.__init__", "Tensor._accumulate", "Tensor.backward.bw"]


def test_only_backward_writes_gradients():
    assert [f"{p.name}: {name}" for p in SOURCES for name in grad_writers(p.read_text())
            if name not in GRAD_WRITERS_ALLOWED] == []
