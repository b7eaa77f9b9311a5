"""No module of the package or of its tests imports a name it never reads.

Deleting a function, or moving an oracle into ``tests/helpers.py``, tends
to leave its imports behind. Every name bound by an import in
``src/imcoalg/*.py`` or ``tests/*.py`` must occur as a name somewhere in
the same module; the package's ``__init__.py`` is left out, since its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "imcoalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source):
    """The names bound by imports in source that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in bound if name not in read]


def test_detects_an_unused_import():
    source = "import json\nimport os.path\nfrom .a import b, c as d\nos, d\n"
    assert unused_imports(source) == ["json", "b"]


def test_sees_the_modules():
    assert {"cli.py", "poset.py", "bisim.py"} <= {p.name for p in MODULES}
    assert {"helpers.py", "test_cli.py", "test_unused_imports.py"} <= {
        p.name for p in TEST_MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_every_test_import_is_read(path):
    assert unused_imports(path.read_text()) == []
