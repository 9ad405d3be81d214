"""Static scans of the package and the tests: no unused import, no dead helper,
no import at call time.

A name bound by an import statement counts as used when it appears anywhere in
the same file as an identifier (`ast.Name`), which covers calls, attribute
bases, annotations and decorators.  `__init__.py` re-exports names on purpose
and is not scanned for imports.

A private (`_name`, not dunder) function, method, class or module-level
assigned name (`_F0 = Fraction(0)`) of the package is dead unless its own file
reads it as an identifier, or some file of the package imports it by name or
reads it as an attribute (`self._name`, `module._name`).  Identifiers count per
file, so a constant that one module orphans is found even when another module
defines and reads its own constant of the same name.

A public module-level function of the package is dead unless some file
under `src/`, `tests/` or `perfbench/` reads it: as an attribute, by an
import of its name (the re-exports of `__init__.py` do not count), or as a
loaded name outside its own body in a file with no module-level function of
that name of its own; a console entry point in `pyproject.toml` counts as a
read.

A public method of a package class is dead unless some file under `src/`,
`tests/` or `perfbench/` reads its name as an attribute (`obj.method`).  So
is a field (an annotated name in the class body, or a `self.x` assigned in
`__init__`) unless one of those files loads it as an attribute; a store
(`self.x = ...`) is not a read.

Package modules import at module level only: an import statement inside a
function body hides a dependency until the function runs.

No two package functions are copies of each other: their arguments and
bodies, docstrings excluded, must not have equal AST dumps.

One term layout: a `ModuleElement` holds the packed terms of the engine, so
outside `rings.py` a `.pack` or `.unpack` attribute appears only in the three
functions of the derivation-complex oracle, which keeps exponent tuples.

One grading: every ring variable has degree one, so no `weights` attribute,
parameter, keyword or name appears in the package.

One monomial order: grevlex is the only ring order, so no `MonomialOrder`
name, attribute, class or import and no "lex" string constant appears in the
package; docstrings are not scanned.

One bracket format: an algebra stores its bracket by the nonzero entries,
so no triple subscript of a `.gamma` attribute (`alg.gamma[a][b][mu]`, the
dense table) and no `_zeros` name, attribute, definition or import (its
builder) appears in the package or the tests.

One owner for the nilpotence ideal: `SupertranslationAlgebra.coordinate_ring`
presents I by the nonzero quadrics, so no other package file filters
`.quadrics()` by `.is_zero()`, in a comprehension condition or in an
`if ...: continue` of a `for` loop, over the call itself or over a name
assigned from it in the same file.

No wrapper result types: an analysis returns its plain value (graded
dimensions a `Counter`, component fields a dict, a twist the twisted algebra,
the universal checks a list), so no `GradedDims`, `MultipletTable`,
`TwistResult` or `UniversalCheckReport` name, attribute, class or import
appears in the package or the tests.

No dead local: a name that a function of the package or of the tests
assigns (an `ast.Name` store, tuple targets included) is loaded somewhere in
that function, nested functions included.  Names that start with `_` are exempt, so an unused half
of an unpacking is written `_`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "superconf").glob("*.py"))
SCANNED = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "perfbench" / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom a import b, c as d\nb(osp)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    shared = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(a.name for a in node.names)
    dead = []
    for tree in trees:
        defined, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        dead += [n for n in defined - read - shared if n.startswith("_") and not n.endswith("__")]
    return sorted(dead)


def test_scan_finds_a_dead_helper():
    sources = [
        "def _used(): pass\ndef _dead(): pass\nclass _Kept:\n    def __init__(self): pass\n",
        "from a import _used, _Kept\n"
        "class A:\n    def _orphan(self): pass\n    def run(self): return _used(), _Kept\n",
    ]
    assert dead_helpers(sources) == ["_dead", "_orphan"]


def test_scan_finds_a_dead_module_constant():
    sources = [
        "_F0 = 0\n_F1: int = 1\n_A = _B = 2\ndef f(): return _F1 + _A\n",
        "from a import _B\n_F0 = 0\ndef g(): return _F0\n",
    ]
    assert dead_helpers(sources) == ["_F0"]


def test_no_dead_private_helpers():
    assert dead_helpers([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def entry_points(pyproject: str) -> set[str]:
    """The function names of the `[project.scripts]` table, `name = "module:function"`."""
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    return set(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', table.group(1), re.M)) if table else set()


def dead_functions(package: dict[str, str], readers: dict[str, str], entries: set[str]) -> list[str]:
    """`file:name` of each public module-level function of the package that no
    reader reads; `package` and `readers` map file names to sources."""
    defined: dict[str, list[str]] = {}
    for path, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defined.setdefault(node.name, []).append(path)
    read = set(entries)
    for path, source in readers.items():
        tree = ast.parse(source)
        own, recursive = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own.add(node.name)
                recursive.update(id(inner) for inner in ast.walk(node)
                                 if isinstance(inner, ast.Name) and inner.id == node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not path.endswith("__init__.py"):
                read.update(a.name for a in node.names)
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and id(node) not in recursive
                  and (node.id not in own or path in defined.get(node.id, ()))):
                read.add(node.id)
    return sorted(f"{path}:{name}" for name, paths in defined.items() if name not in read
                  for path in paths)


def test_scan_finds_a_dead_module_function():
    package = {
        "a.py": "def used(): pass\ndef dead(): pass\ndef main(): pass\n"
                "def loop(n): return loop(n - 1)\ndef shadowed(): pass\n"
                "def _private(): pass\nclass C:\n    def method(self): pass\n",
        "__init__.py": "from .a import dead\n",
    }
    readers = {**package, "b.py": "from a import used\ndef shadowed(): pass\nshadowed()\n"}
    pyproject = '[project.scripts]\ntool = "pkg.a:main"\n\n[tool.other]\nx = "pkg.a:loop"\n'
    assert entry_points(pyproject) == {"main"}
    assert dead_functions(package, readers, entry_points(pyproject)) == [
        "a.py:dead", "a.py:loop", "a.py:shadowed"]


def test_no_dead_module_functions():
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}

    entries = entry_points((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert dead_functions(sources(PACKAGE), sources(READERS), entries) == []


def dead_methods(package: list[str], readers: list[str]) -> list[str]:
    """Public methods of the package's classes whose name no reader reads as an attribute."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    dead = []
    for source in package:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                dead += [f"{cls.name}.{node.name}" for node in cls.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not node.name.startswith("_") and node.name not in read]
    return sorted(dead)


def test_scan_finds_a_dead_public_method():
    package = (
        "class A:\n    def used(self): pass\n    def dead(self): pass\n"
        "    def _private(self): pass\n    @property\n    def size(self): return 1\n"
    )
    reader = "from a import A\na = A()\na.used()\nprint(a.size)\n"
    assert dead_methods([package], [package, reader]) == ["A.dead"]


def test_no_dead_public_methods():
    assert dead_methods([p.read_text(encoding="utf-8") for p in PACKAGE],
                        [p.read_text(encoding="utf-8") for p in READERS]) == []


def dead_fields(package: list[str], readers: list[str]) -> list[str]:
    """Fields of the package's classes whose name no reader loads as an attribute."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for source in package:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = {node.target.id for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    fields.update(node.attr for node in ast.walk(init)
                                  if isinstance(node, ast.Attribute)
                                  and isinstance(node.ctx, ast.Store)
                                  and isinstance(node.value, ast.Name) and node.value.id == "self")
            dead += [f"{cls.name}.{name}" for name in fields - read]
    return sorted(dead)


def test_scan_finds_a_dead_field():
    package = (
        "class A:\n    kept: int\n    orphan: int\n    LIMIT = 3\n"
        "    def __init__(self):\n        self.used = 1\n        self.stored = 2\n"
        "    def run(self):\n        self.stored = self.used + self.kept\n"
    )
    reader = "from a import A\nprint(A().orphan_count)\n"
    assert dead_fields([package], [package, reader]) == ["A.orphan", "A.stored"]


def test_no_dead_fields():
    assert dead_fields([p.read_text(encoding="utf-8") for p in PACKAGE],
                       [p.read_text(encoding="utf-8") for p in READERS]) == []


def call_time_imports(source: str) -> list[int]:
    """Line numbers of import statements inside function bodies."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_scan_finds_a_call_time_import():
    source = (
        "import os\n"
        "def f():\n    import sys\n"
        "class A:\n    def g(self):\n        def h():\n            from . import b\n"
        "async def i():\n    import json\n"
    )
    assert call_time_imports(source) == [3, 7, 9]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_call_time_imports(path):
    assert call_time_imports(path.read_text(encoding="utf-8")) == []


def duplicate_functions(sources: dict[str, str]) -> list[list[str]]:
    """Groups of functions (`module.name`) with equal arguments and bodies,
    docstrings excluded; the dumps carry no line numbers."""
    groups: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                key = ast.dump(node.args) + "".join(ast.dump(stmt) for stmt in body)
                groups.setdefault(key, []).append(f"{module}.{node.name}")
    return sorted(sorted(names) for names in groups.values() if len(names) > 1)


def test_scan_finds_a_duplicate_function():
    sources = {
        "a": "def f(x):\n    \"\"\"One.\"\"\"\n    return x + 1\n"
             "def g(x):\n    return x + 2\n",
        "b": "class B:\n    def h(self, x):\n        return x + 1\n"
             "def k(x):\n\n    return x + 1  # same body\n"
             "def m(y):\n    return y + 1\n",
    }
    assert duplicate_functions(sources) == [["a.f", "b.k"]]


def test_no_duplicate_functions():
    assert duplicate_functions({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


LAYOUT_OWNERS = {"_Sheaf.reduce_lambda", "_ideal_derivation_vectors", "derivation_complex_h0"}


def layout_conversions(source: str) -> list[tuple[str, int]]:
    """(owner, line) of each `.pack` or `.unpack` attribute.  The owner is the
    top-level function or `Class.method` it sits in, nested functions
    included, or `<module>` outside any."""
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{prefix}{child.name}.")
            elif owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, prefix)
            else:
                if isinstance(child, ast.Attribute) and child.attr in ("pack", "unpack"):
                    found.append((owner or "<module>", child.lineno))
                visit(child, owner, prefix)

    visit(ast.parse(source), None, "")
    return found


def test_scan_finds_layout_conversions():
    source = (
        "t = ring.pack(0, m)\n"
        "def f(r):\n    def g():\n        return r.unpack(1)\n    return g\n"
        "class S:\n    def m(self):\n        unpack = self.ring.unpack\n"
        "def h(r):\n    return r.packed(), r.words.pack(1)\n"
    )
    assert layout_conversions(source) == [("<module>", 1), ("f", 4), ("S.m", 8), ("h", 10)]


def test_only_the_oracle_converts_term_layouts():
    outside = [
        f"{path.name}:{line} in {owner}"
        for path in PACKAGE if path.name != "rings.py"
        for owner, line in layout_conversions(path.read_text(encoding="utf-8"))
        if owner not in LAYOUT_OWNERS
    ]
    assert outside == []


def grading_weights(source: str) -> list[int]:
    """Lines of each `weights` attribute, parameter, keyword or name."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "weights"
        or isinstance(node, (ast.arg, ast.keyword)) and node.arg == "weights"
        or isinstance(node, ast.Name) and node.id == "weights"
    )


def test_scan_finds_ring_weights():
    source = (
        "def f(ring, weights=None):\n    return ring.weights\n"
        "g(names, weights=[1, 2])\nweights = [1]\nweight = 1\n"
    )
    assert grading_weights(source) == [1, 2, 3, 4]


def test_every_ring_variable_has_degree_one():
    found = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line in grading_weights(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def order_kinds(source: str) -> list[int]:
    """Lines of each `MonomialOrder` name, attribute, class or import, and of
    each "lex" string constant that is not a docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "MonomialOrder"
        or isinstance(node, ast.Attribute) and node.attr == "MonomialOrder"
        or isinstance(node, (ast.ClassDef, ast.alias)) and node.name == "MonomialOrder"
        or isinstance(node, ast.Constant) and node.value == "lex" and id(node) not in docstrings
    )


def test_scan_finds_monomial_orders_and_lex_kinds():
    source = (
        "from .rings import MonomialOrder\n"
        "class MonomialOrder:\n    \"\"\"lex\"\"\"\n"
        "o = rings.MonomialOrder(r, \"lex\")\nk = MonomialOrder\n"
        "g = \"grevlex\"\n"
        "def f():\n    \"lex\"\n"
    )
    assert order_kinds(source) == [1, 2, 4, 4, 5]


def test_grevlex_is_the_one_monomial_order():
    found = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line in order_kinds(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def dense_brackets(source: str) -> list[int]:
    """Lines of each `.gamma[...][...][...]` and of each `_zeros` name,
    attribute, definition or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        inner = node
        for _ in range(3):
            inner = inner.value if isinstance(inner, ast.Subscript) else None
        if (isinstance(inner, ast.Attribute) and inner.attr == "gamma"
                or isinstance(node, ast.Name) and node.id == "_zeros"
                or isinstance(node, ast.Attribute) and node.attr == "_zeros"
                or isinstance(node, (ast.FunctionDef, ast.alias)) and node.name == "_zeros"):
            found.append(node.lineno)
    return sorted(found)


def test_scan_finds_dense_brackets():
    source = (
        "from .algebras import _zeros\n"
        "def _zeros(k, d):\n    return []\n"
        "g = alg.gamma[a][b][mu] + algebras._zeros(1, 1)\n"
        "row = alg.gamma[a][b]\nv = gamma[a][b][mu]\nw = alg.entries[a, b][mu]\n"
    )
    assert dense_brackets(source) == [1, 2, 4, 4]


def test_the_bracket_is_stored_by_its_nonzero_entries():
    found = [
        f"{path.name}:{line}"
        for path in PACKAGE + sorted((ROOT / "tests").glob("*.py"))
        for line in dense_brackets(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def dead_locals(source: str) -> list[tuple[str, str]]:
    """(function, name) of each name a function stores and never loads,
    nested functions included in both; names starting with `_` are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
            loaded = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
            stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
            found += [(fn.name, n) for n in sorted(stored - loaded) if not n.startswith("_")]
    return found


def test_scan_finds_dead_locals():
    source = (
        "def f(xs):\n    a, (b, _c) = xs\n    d = e = 1\n    for i in xs:\n        pass\n"
        "    def g():\n        return a + h\n    h = 2\n    return g, e\n"
        "class C:\n    def m(self):\n        n = 0\n        n += 1\n"
    )
    assert dead_locals(source) == [("f", "b"), ("f", "d"), ("f", "i"), ("m", "n")]


def test_no_dead_locals():
    found = [
        f"{path.name}: {fn}.{name}"
        for path in PACKAGE + sorted((ROOT / "tests").glob("*.py"))
        for fn, name in dead_locals(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def quadric_filters(source: str) -> list[int]:
    """Lines of each comprehension or `for` loop over `.quadrics()`, or over a
    name assigned from it, that filters by `.is_zero()`: a comprehension
    condition, or an `if` that `continue`s in the loop body."""
    tree = ast.parse(source)

    def calls(node, name):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == name for n in ast.walk(node))

    bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and calls(node.value, "quadrics")
             for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.comprehension):
            tests = node.ifs
        elif isinstance(node, ast.For):
            tests = [s.test for s in node.body if isinstance(s, ast.If)
                     and any(isinstance(c, ast.Continue) for c in s.body)]
        else:
            continue
        over = node.iter
        if ((calls(over, "quadrics") or isinstance(over, ast.Name) and over.id in bound)
                and any(calls(t, "is_zero") for t in tests)):
            found.append(over.lineno)
    return sorted(found)


def test_scan_finds_quadric_filters():
    source = (
        "rels = [q for q in alg.quadrics() if not q.is_zero()]\n"
        "for q in self.quadrics():\n    if q.is_zero():\n        continue\n    use(q)\n"
        "quadrics = alg.quadrics()\nnz = [q for q in quadrics if not q.is_zero()]\n"
        "ok = [q for q in alg.quadrics() if q.degree() == 2]\n"
        "for q in alg.quadrics():\n    if q.is_zero():\n        break\n"
        "cols = [c for c in columns if not c.is_zero()]\n"
    )
    assert quadric_filters(source) == [1, 2, 7]


def test_one_owner_presents_the_nilpotence_ideal():
    found = [
        f"{path.name}:{line}"
        for path in PACKAGE if path.name != "algebras.py"
        for line in quadric_filters(path.read_text(encoding="utf-8"))
    ]
    assert found == []


WRAPPERS = {"GradedDims", "MultipletTable", "TwistResult", "UniversalCheckReport"}


def wrapper_types(source: str) -> list[int]:
    """Lines of each name, attribute, class definition or import of a deleted
    wrapper result type."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in WRAPPERS
        or isinstance(node, ast.Attribute) and node.attr in WRAPPERS
        or isinstance(node, (ast.ClassDef, ast.alias)) and node.name in WRAPPERS
    )


def test_scan_finds_wrapper_types():
    source = (
        "from .resolutions import GradedDims\n"
        "class TwistResult:\n    twisted: int\n"
        "t = multiplets.MultipletTable(cells, betti)\n"
        "def f(r: UniversalCheckReport):\n    return r.passed\n"
        "dims = Counter()\nname = \"GradedDims\"\n"
    )
    assert wrapper_types(source) == [1, 2, 4, 5]


def test_analyses_return_plain_values():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE + sorted((ROOT / "tests").glob("*.py"))
        for line in wrapper_types(path.read_text(encoding="utf-8"))
    ]
    assert found == []
