"""Every name a module of the package imports is used in that module,
every private module-level name is read somewhere in the package, and every
public one is read there or exported from the package's ``__init__``.

The package's ``__init__`` re-exports what it imports, so the import check
leaves it out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "induniv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os\nimport sys as system\n"
              "from math import pi, tau\ndef f() -> tau:\n    return system.argv\n")
    assert unused_imports(source) == ["line 2: os", "line 4: pi"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_names(sources: dict[str, str], *, private: bool) -> list[str]:
    """The private names (one leading underscore), or else the public ones,
    that a module of ``sources`` binds at its top level and that no module
    reads: by name, as an attribute or in an import. An import in
    ``__init__`` reads the names it exports."""
    bound: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            bound.extend((module, name) for name in targets
                         if name.startswith("_") == private and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}: {name}" for module, name in bound if name not in read]


def test_the_checker_sees_unread_private_names():
    sources = {
        "a": "_K = 1\n_unread = 2\n__dunder__ = 3\ndef _f():\n    return _K\n",
        "b": "from .a import _f\nclass _C:\n    pass\ndef g(m):\n    return m._D\n",
        "c": "_D: int = 4\n_E = 5\n",
    }
    assert unread_names(sources, private=True) == ["a: _unread", "b: _C", "c: _E"]


def test_package_reads_every_private_name():
    assert unread_names({p.stem: p.read_text() for p in PACKAGE}, private=True) == []


def test_the_checker_sees_unread_public_names():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "K = 1\nunread = 2\n_private = 3\ndef exported():\n    return K\n",
        "b": "from .a import K\nclass C:\n    pass\ndef g(m):\n    return m.D\n",
        "c": "D: int = 4\nE = 5\n",
    }
    assert unread_names(sources, private=False) == ["a: unread", "b: C", "b: g", "c: E"]


def test_package_reads_every_public_name():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_names(sources, private=False) == []
