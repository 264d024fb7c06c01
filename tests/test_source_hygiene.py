"""Static checks on the library source: every imported name and every
private module-level definition is read in its own module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fbff"
ALL_MODULES = sorted(SRC.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _read_names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read there.

    ``from __future__`` imports are compiler directives and are exempt.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - _read_names(tree))


def unread_private_definitions(source: str) -> list[str]:
    """Private (single-underscore) functions, classes and constants bound at
    the top level of ``source`` and never read anywhere in it."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in bound if name.startswith("_") and not name.startswith("__")}
    return sorted(private - _read_names(tree))


def test_scanner_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import pi, tau\n"
        "def f(x: pi) -> None:\n"
        "    return system.exit(os.sep)\n"
    )
    assert unused_imports(source) == ["tau"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_only_unread_private_definitions():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "_A, _B = 3, 4\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    return _USED + _A\n"
        "def _orphan():\n"
        "    _local = 5\n"
        "    return _local\n"
        "class _Hidden:\n"
        "    _attr = 6\n"
        "class _Base:\n"
        "    pass\n"
        "def f(x: _Base):\n"
        "    return _helper()\n"
    )
    assert unread_private_definitions(source) == ["_B", "_Hidden", "_UNUSED", "_orphan"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_unread_private_definitions(path):
    assert unread_private_definitions(path.read_text(encoding="utf-8")) == []
