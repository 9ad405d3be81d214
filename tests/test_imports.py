"""Every imported name is used: a static scan of the package and the tests.

A name bound by an import statement counts as used when it appears anywhere in
the same file as an identifier (`ast.Name`), which covers calls, attribute
bases, annotations and decorators.  `__init__.py` re-exports names on purpose
and is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    p for p in (ROOT / "src" / "superconf").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


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
