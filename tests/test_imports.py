"""Import hygiene: every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "quantoda").glob("*.py"))


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
