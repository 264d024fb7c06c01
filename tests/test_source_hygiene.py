"""Static checks on the library source: every imported name and every
private module-level definition is read in its own module, each module's
``__all__`` lists exactly its public definitions, and every public function
or class has a caller outside the tests."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fbff"
MODULES = sorted(SRC.glob("*.py"))
# callers outside the library: the scripts and the benchmark harness
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"

# Public definitions whose only callers are tests.  Each is the library's
# form of a claim the tests check, or the reference another function is
# tested against.
TEST_ONLY = {
    "dwt_tree",  # test_acceptance.py, criterion 5
    "packet_tree",  # test_acceptance.py, criterion 5
    "translate",  # test_acceptance.py, criterion 10
    "analysis_apply",  # test_acceptance.py, criterion 10
    "reconstruct",  # test_acceptance.py, criterion 10
    "pp_inner",  # test_acceptance.py, criterion 10
    "inner",  # test_acceptance.py, criteria 4 and 8-10: the time-domain inner product
    "synthesis_apply",  # equivalent_filter's reference and analysis_apply's adjoint in test_signals.py
    "involution",  # analysis_apply's reference in test_multilevel.py and test_signals.py
    "downsample",  # analysis_apply's reference in test_signals.py
}


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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_private_definitions(path):
    assert unread_private_definitions(path.read_text(encoding="utf-8")) == []


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _public_constants(tree: ast.Module) -> set[str]:
    return {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and not t.id.startswith("_")
    }


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def all_mismatch(source: str) -> tuple[list[str], list[str]]:
    """(public functions and classes missing from ``__all__``, ``__all__``
    entries that are neither those nor a public module-level constant)."""
    tree = ast.parse(source)
    declared = _declared_all(tree)
    public = _public_definitions(tree)
    missing = sorted(set(public) - set(declared))
    extra = sorted(set(declared) - set(public) - _public_constants(tree))
    return missing, extra


def test_all_scanner_flags_both_directions():
    source = (
        "__all__ = ['f', 'K', 'gone']\n"
        "K = 1\n"
        "J = 2\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "class _H: pass\n"
    )
    assert all_mismatch(source) == (["g"], ["gone"])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_lists_the_public_definitions(path):
    assert all_mismatch(path.read_text(encoding="utf-8")) == ([], [])


def _fbff_module(node: ast.expr, modules: dict[str, str]) -> str | None:
    """The fbff module that ``node`` names: an imported module's local name,
    or ``fbff.<module>``."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "fbff" else None
    return None


def fbff_reads(source: str, module: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs of fbff definitions that ``source`` reads.

    A read is a name imported from an fbff module, an attribute of an
    imported fbff module, or, when ``source`` is fbff module ``module``, one
    of its own public definitions read outside that definition.
    """
    tree = ast.parse(source)
    names: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: inside the package
                home = node.module or ""
            elif node.module.partition(".")[0] == "fbff":
                home = node.module.partition(".")[2]
            else:
                continue
            for a in node.names:
                if home:
                    names[a.asname or a.name] = (home, a.name)
                else:
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("fbff.") and a.asname:
                    modules[a.asname] = a.name.partition(".")[2]
    if module is not None:
        names.update((name, (module, name)) for name in _public_definitions(tree))
    reads = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    found.add(names[node.id])
            elif isinstance(node, ast.Attribute):
                home = _fbff_module(node.value, modules)
                if home is not None:
                    found.add((home, node.attr))
        if module is not None and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard((module, stmt.name))
        reads |= found
    return reads


def traced_names(source: str) -> set[str]:
    """Names that the tracer's ``"fbff.<module>:<name>[.attr]"`` binding
    strings patch; the tracer reports a deleted one as absent."""
    pattern = re.compile(r"fbff\.\w+:(\w+)")
    return {
        m.group(1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for m in [pattern.match(node.value)]
        if m
    }


def uncalled_definitions(source: str, module: str, reads: set, exempt: set) -> list[str]:
    """Public functions and classes of fbff module ``module`` that no
    (module, name) in ``reads`` reads and that are not in ``exempt``."""
    public = _public_definitions(ast.parse(source))
    return sorted(name for name in public if (module, name) not in reads and name not in exempt)


def test_caller_scanner_flags_only_uncalled_definitions():
    module = (
        "def called(): pass\n"
        "def calls(): return called()\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def traced(): pass\n"
        "def exempt(): pass\n"
        "def scripted(): pass\n"
        "class Imported: pass\n"
        "class Orphan: pass\n"
        "def _private(): pass\n"
    )
    other = "from . import mod\nfrom .mod import Imported\nx = [Imported, mod.calls]\n"
    script = "import fbff.mod as mod\nmod.scripted()\n"
    tracer = 'T = ("fbff.other:traced", "fbff.mod:Orphan.method")\n'
    reads = fbff_reads(module, "mod") | fbff_reads(other, "other") | fbff_reads(script)
    assert traced_names(tracer) == {"traced", "Orphan"}
    assert uncalled_definitions(module, "mod", reads, {"traced", "exempt"}) == [
        "Orphan",
        "recursive",
    ]
    assert uncalled_definitions(module, "mod", reads, set()) == [
        "Orphan",
        "exempt",
        "recursive",
        "traced",
    ]


@functools.cache
def _library_reads() -> frozenset[tuple[str, str]]:
    reads = set()
    for path in MODULES:
        reads |= fbff_reads(path.read_text(encoding="utf-8"), path.stem)
    for path in CALLERS:
        reads |= fbff_reads(path.read_text(encoding="utf-8"))
    return frozenset(reads)


def _traced() -> set[str]:
    return traced_names(TRACER.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_public_definitions_have_callers_outside_the_tests(path):
    source = path.read_text(encoding="utf-8")
    assert uncalled_definitions(source, path.stem, _library_reads(), _traced() | TEST_ONLY) == []


def test_one_class_for_periodic_sequences():
    # the tracer's alias names the signal class itself, not a second class
    import fbff.cyclic
    import fbff.signals

    assert fbff.cyclic.CyclicPoly is fbff.signals.Signal


def test_test_only_list_holds_exactly_the_uncalled_definitions():
    # an entry whose definition is deleted, or gains a caller, leaves the list
    uncalled = set()
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        uncalled.update(uncalled_definitions(source, path.stem, _library_reads(), _traced()))
    assert uncalled == TEST_ONLY
