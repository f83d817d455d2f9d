"""Import hygiene: every name a package module imports is used in it, and
every function, class and method it defines is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "quantoda").glob("*.py"))


def _unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in `source` that no
    expression of it reads (`from __future__` imports excepted)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("from functools import partial\nx = 1\n", [(1, "partial")]),
    ("from dataclasses import dataclass, field\n@dataclass\nclass C:\n    a: int = 0\n",
     [(1, "field")]),
    ("import numpy as np\nimport os.path\nos.path.join(np.pi)\n", []),
    ("def f():\n    from . import gz\n    return gz.x\n", []),
    ("from __future__ import annotations\n", []),
], ids=["unused", "one-of-two", "attribute-reads", "local-import", "future"])
def test_unused_imports_finds_exactly_the_unread_names(source, unused):
    assert _unused_imports(source) == unused


def _dead_names(defining: dict, reading: list) -> list:
    """(module, line, name) of each function, class or method defined in the
    sources `defining` ({module: source}) whose name no Name, Attribute or
    import alias of `reading` (sources) reads, dunder names excepted.  A
    definition does not read its own name; a recursive call does."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return sorted((module, node.lineno, node.name)
                  for module, source in defining.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in read)


def test_every_defined_name_is_read():
    reading = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert _dead_names({p.stem: p.read_text() for p in MODULES}, reading) == []


@pytest.mark.parametrize("source, dead", [
    ("def f():\n    pass\n", [("m", 1, "f")]),
    ("def f():\n    pass\nf()\n", []),
    ("class C:\n    def g(self):\n        pass\nC()\n", [("m", 2, "g")]),
    ("class C:\n    def g(self):\n        pass\nC().g\n", []),
    ("class C:\n    def __len__(self):\n        return 0\nC()\n", []),
    ("def f():\n    pass\nfrom m import f as h\n", []),
    ("def f():\n    pass\nf = 1\n", [("m", 1, "f")]),
], ids=["unread", "called", "unread-method", "attribute", "dunder", "alias", "store"])
def test_dead_names_finds_exactly_the_unread_definitions(source, dead):
    assert _dead_names({"m": source}, [source]) == dead
