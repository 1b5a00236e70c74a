"""Every name a package module, test file or demo imports is used in that
file, so that a deletion leaves no orphaned import behind (``__init__.py``
re-exports its imports and is skipped)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rigidpde"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def unused_imports(source: str):
    """Names bound by the imports of ``source`` that no Name node reads
    (an attribute chain such as np.linalg.norm reads its root, np)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_orphaned_import():
    source = ("import json\nimport numpy as np\nfrom .fields import Region, grid_axes\n"
              "x = np.zeros(3)\ndef f() -> Region:\n    pass\n")
    assert unused_imports(source) == ["grid_axes", "json"]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
