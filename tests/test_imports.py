"""Every name a module of ``hbv`` imports is used in that module, every
plain local name a function of it assigns is read, and so is every parameter
of its functions.

Stdlib ``ast`` checks, standing in for a linter's unused-import,
unused-variable and unused-argument rules.  For imports, ``__init__.py`` is
left out, since its imports are the package's exports, and so are
``__future__`` imports."""

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


def unused_locals(source: str) -> list:
    """``(function, name)`` for each name a function of ``source`` binds by a
    plain assignment (``x = ...``, ``x: T = ...``, ``x += ...``) and that
    nothing in the function, nested functions included, reads.  Tuple
    targets and loop variables are not plain assignments; nor is a name the
    function declares ``global`` or ``nonlocal``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, functions):
            continue
        assigned, declared = [], set()
        # the function's own statements, not those of functions nested in it
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Assign):
                assigned += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif (isinstance(node, (ast.AnnAssign, ast.AugAssign))
                  and isinstance(node.target, ast.Name)
                  and getattr(node, "value", None) is not None):
                assigned.append(node.target.id)
            if not isinstance(node, functions + (ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(fn.name, name) for name in dict.fromkeys(assigned)
                  if name not in read and name not in declared]
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_local(path):
    assert unused_locals((SRC / path).read_text()) == []


def test_unused_locals_finds_an_unread_name():
    source = ("def f(rows):\n"
              "    total = 0\n"
              "    seen: set = set()\n"
              "    count = 0\n"
              "    count += 1\n"
              "    first, rest = rows[0], rows[1:]\n"
              "    for row in rest:\n"
              "        total += row\n"
              "    def g():\n"
              "        unused = seen\n"
              "    return total\n")
    assert unused_locals(source) == [("f", "count"), ("g", "unused")]


def unread_parameters(source: str) -> list:
    """``(function, name)`` for each parameter of a function of ``source``,
    ``self`` and ``cls`` aside, that nothing in the function, nested
    functions included, reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(fn.name, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_parameter(path):
    assert unread_parameters((SRC / path).read_text()) == []


def test_unread_parameters_finds_an_unread_parameter():
    source = ("class C:\n"
              "    def m(self, used, unused, *args, key=None, **kw):\n"
              "        def inner(x, y):\n"
              "            return y + used + key\n"
              "        return inner(0, len(kw))\n"
              "    @classmethod\n"
              "    def make(cls, n):\n"
              "        return cls\n")
    assert unread_parameters(source) == [
        ("m", "unused"), ("m", "args"), ("make", "n"), ("inner", "x")]
