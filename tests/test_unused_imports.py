"""No module of the package imports a name it never reads.

Deleting a function tends to leave its imports behind. Every name bound by
an import in ``src/imcoalg/*.py`` must occur as a name somewhere in the
same module; ``__init__.py`` is left out, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "imcoalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
