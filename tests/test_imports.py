"""Every name a module of ``hbv`` imports is used in that module.

A stdlib ``ast`` check, standing in for a linter's unused-import rule:
``__init__.py`` is left out, since its imports are the package's exports,
and so are ``__future__`` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hbv"


def unused_imports(source: str) -> list:
    """The names bound by the imports of ``source`` that nothing in it
    reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_unused_imports_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from heapq import heappush, heappop as pop\n"
              "os.path.join(pop([1]))\n")
    assert unused_imports(source) == ["heappush"]
