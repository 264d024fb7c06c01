"""Static checks on the library source: every imported name and every
private module-level definition is read in its own module, each module's
``__all__`` lists exactly its public definitions, and every public function,
class, method or property has a caller outside the tests.  The references
that only tests call live in ``tests/refs.py``, and each is imported by a test."""

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
TESTS = ROOT / "tests"

# Public definitions whose only callers are tests: none.  A reference that
# only tests call belongs in tests/refs.py, not in the library.
TEST_ONLY: set[str] = set()


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope: ast.AST) -> set[str]:
    """Names a function or comprehension binds for itself: its parameters or
    targets and the names stored in it, outside any scope nested in it."""
    if isinstance(scope, _COMPREHENSIONS):
        names, todo = set(), [g.target for g in scope.generators]
    else:
        a = scope.args
        names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
        todo = scope.body if isinstance(scope.body, list) else [scope.body]
    todo = list(todo)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, _FUNCTIONS + _COMPREHENSIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _global_reads(node: ast.AST, local: frozenset[str] = frozenset()):
    """The name loads and attribute reads in ``node``, less the loads of
    names that an enclosing function or comprehension binds itself."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node
        return
    if isinstance(node, ast.Attribute):
        yield node
    if isinstance(node, _FUNCTIONS + _COMPREHENSIONS):
        local = local | _local_names(node)
    for child in ast.iter_child_nodes(node):
        yield from _global_reads(child, local)


def fbff_reads(source: str, module: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs of fbff definitions that ``source`` reads.

    A read is a name imported from an fbff module, an attribute of an
    imported fbff module, or, when ``source`` is fbff module ``module``, one
    of its own public definitions read outside that definition.  A name that
    a parameter or local of the enclosing function rebinds is not a read.
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
        for node in _global_reads(stmt):
            if isinstance(node, ast.Name):
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


def _binding_matches(source: str, pattern: str) -> set[str]:
    """Group 1 of ``pattern`` matched at the start of each string constant in ``source``."""
    regex = re.compile(pattern)
    return {
        m.group(1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for m in [regex.match(node.value)]
        if m
    }


def traced_names(source: str) -> set[str]:
    """Names that the tracer's ``"fbff.<module>:<name>[.attr]"`` binding
    strings patch; the tracer reports a deleted one as absent."""
    return _binding_matches(source, r"fbff\.\w+:(\w+)")


def traced_methods(source: str) -> set[str]:
    """The ``attr`` of each ``"fbff.<module>:<class>.<attr>"`` binding string:
    the methods the tracer patches on a class."""
    return _binding_matches(source, r"fbff\.\w+:\w+\.(\w+)")


def attribute_reads(source: str) -> set[str]:
    """Names of the attributes that ``source`` reads, of any object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def uncalled_methods(source: str, reads: set[str]) -> list[str]:
    """``<class>.<name>`` of each public method or property of a top-level
    class in ``source`` whose name is not in ``reads``; dunders are exempt."""
    return sorted(
        f"{cls.name}.{node.name}"
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in reads
    )


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
        "def shadowed(): pass\n"
        "def hidden(): pass\n"
        "def _takes(shadowed): return shadowed\n"
        "def _stores():\n"
        "    shadowed = 1\n"
        "    return shadowed\n"
        "class _Holder:\n"
        "    def __init__(self, shadowed): self.x = shadowed\n"
        "_LAMBDA = lambda shadowed: shadowed\n"
        "_SQUARES = [shadowed * shadowed for shadowed in range(3)]\n"
    )
    other = (
        "from . import mod\n"
        "from .mod import Imported, hidden\n"
        "x = [Imported, mod.calls]\n"
        "def g(hidden): return hidden\n"
    )
    script = "import fbff.mod as mod\nmod.scripted()\n"
    tracer = 'T = ("fbff.other:traced", "fbff.mod:Orphan.method")\n'
    reads = fbff_reads(module, "mod") | fbff_reads(other, "other") | fbff_reads(script)
    assert traced_names(tracer) == {"traced", "Orphan"}
    # a parameter or local that rebinds a public or imported name is not a call
    assert uncalled_definitions(module, "mod", reads, {"traced", "exempt"}) == [
        "Orphan",
        "hidden",
        "recursive",
        "shadowed",
    ]
    assert uncalled_definitions(module, "mod", reads, set()) == [
        "Orphan",
        "exempt",
        "hidden",
        "recursive",
        "shadowed",
        "traced",
    ]


def test_method_scanner_flags_only_unread_methods():
    module = (
        "import functools\n"
        "class A:\n"
        "    def __init__(self): self.stored = self.helper()\n"
        "    def helper(self): pass\n"
        "    def called(self): pass\n"
        "    def _private(self): pass\n"
        "    def traced(self): pass\n"
        "    def orphan(self): pass\n"
        "    def stored(self): pass\n"
        "    @property\n"
        "    def prop(self): return 1\n"
        "    @property\n"
        "    def unread_prop(self): return 1\n"
        "    @functools.cached_property\n"
        "    def cached(self): return 2\n"
        "    @classmethod\n"
        "    def make(cls): return cls()\n"
        "class _B:\n"
        "    def hidden(self): pass\n"
        "def f(a): return a.called(), a.prop, A.make\n"
    )
    script = "def g(a):\n    a.cached\n    del a.orphan\n"
    tracer = 'T = ("fbff.mod:A.traced", "fbff.mod:f")\n'
    reads = attribute_reads(module) | attribute_reads(script) | traced_methods(tracer)
    assert traced_methods(tracer) == {"traced"}
    # a store or a delete of an attribute is not a read
    assert uncalled_methods(module, reads) == ["A.orphan", "A.stored", "A.unread_prop", "_B.hidden"]
    assert uncalled_methods(module, attribute_reads(module)) == [
        "A.cached",
        "A.orphan",
        "A.stored",
        "A.traced",
        "A.unread_prop",
        "_B.hidden",
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


@functools.cache
def _method_reads() -> frozenset[str]:
    reads = traced_methods(TRACER.read_text(encoding="utf-8"))
    for path in MODULES + CALLERS:
        reads |= attribute_reads(path.read_text(encoding="utf-8"))
    return frozenset(reads)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_public_methods_have_callers_outside_the_tests(path):
    # a method is called when an attribute of its name is read outside the
    # tests, so a method that shares a name with a numpy one cannot be flagged
    assert uncalled_methods(path.read_text(encoding="utf-8"), _method_reads()) == []


def signal_type_checks(source: str) -> list[int]:
    """Lines of the ``isinstance(x, Signal)`` calls in ``source``, a tuple of
    types that names ``Signal`` or ``<module>.Signal`` included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "isinstance" or len(node.args) != 2:
            continue
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(getattr(k, "id", getattr(k, "attr", None)) == "Signal" for k in kinds):
            lines.append(node.lineno)
    return sorted(lines)


def test_signal_check_scanner_flags_only_signal_type_checks():
    source = (
        "from fbff import cyclic\n"
        "def f(x, y, z):\n"
        "    a = isinstance(x, Signal)\n"
        "    b = isinstance(y, (int, cyclic.Signal))\n"
        "    c = isinstance(z, np.ndarray)\n"
        "    d = isinstance(x, (dict, list))\n"
        "    return Signal(x), a, b, c, d\n"
    )
    assert signal_type_checks(source) == [3, 4]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cyclic.py"], ids=lambda p: p.name
)
def test_library_functions_take_one_operand_kind(path):
    # a library function takes the one operand kind its library callers pass
    # (arrays, or Signals), never either: only the Signal class itself, in
    # cyclic.py, checks whether an operand is a Signal
    assert signal_type_checks(path.read_text(encoding="utf-8")) == []


# The places outside cyclic.py, which defines it, where the library may name
# Signal, each as (module, top-level definition): the per-root Grams, whose
# functions the benchmark tracer binds, and circ_convolve, a tracer target.
# Everywhere else a filter is its sample array.  A place that stops naming
# Signal leaves this list, until the list is empty.
SIGNAL_PLACES = {("analysis", "gram_stack"), ("polyphase", "gram"), ("signals", "circ_convolve")}


def signal_places(source: str) -> set[str]:
    """The top-level statements of ``source`` that name ``Signal`` or its
    alias ``CyclicPoly``, as a name, an attribute or an import alias: each
    definition by its name, an import as ``"import"`` and any other
    statement as ``"line <n>"``."""
    tree = ast.parse(source)
    aliases = {"Signal", "CyclicPoly"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {a.asname for a in node.names if a.name in ("Signal", "CyclicPoly") and a.asname}
    places = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if any(a.name in aliases for a in stmt.names):
                places.add("import")
            continue
        named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)}
        if named & aliases:
            places.add(getattr(stmt, "name", f"line {stmt.lineno}"))
    return places


def test_signal_scanner_finds_names_attributes_and_aliases():
    source = (
        "from .cyclic import Signal as S, twist\n"
        "from . import cyclic\n"
        "def f(x): return S(x)\n"
        "def g(x): return cyclic.Signal(x)\n"
        "def h(x: 'Signal'): return twist(x, 1, 2)\n"
        "class K:\n"
        "    def m(self) -> CyclicPoly: pass\n"
        "ENTRY = [S]\n"
    )
    assert signal_places(source) == {"import", "f", "g", "K", "line 8"}


def test_signal_is_named_only_where_it_is_still_needed():
    found = set()
    for path in MODULES:
        if path.name == "cyclic.py":
            continue
        places = signal_places(path.read_text(encoding="utf-8"))
        # an import of Signal only where a definition uses it
        assert "import" not in places or len(places) > 1, path.name
        found |= {(path.stem, place) for place in places - {"import"}}
    assert found == SIGNAL_PLACES


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


def test_test_references_load_from_the_tests():
    # perfbench/ is on sys.path in the same session, with its own reference
    # module: the test references need a name that it does not shadow
    import refs

    assert Path(refs.__file__).resolve() == TESTS / "refs.py"
    assert not (ROOT / "perfbench" / "refs.py").exists()


def test_every_test_reference_is_imported_by_a_test():
    defined = {
        node.name
        for node in ast.parse((TESTS / "refs.py").read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    imported = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "refs":
                imported.update(a.name for a in node.names)
    assert sorted(defined - imported) == []
