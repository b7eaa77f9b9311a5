"""No module under ``tests/`` imports a test module.

A builder or an oracle that one test module imports from another ties the
two modules together and ends up defined twice. Shared instance builders
live in ``tests/helpers.py`` and oracles in ``tests/oracles.py``; a module
under ``tests/`` may import those two, and no ``test_*`` module.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted(TESTS.glob("*.py"))
TEST_MODULE_NAMES = {p.stem for p in TESTS.glob("test_*.py")}


def imported_test_modules(source, names):
    """The modules among names that source imports, in order of
    appearance."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name in names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in names:
                out.append(node.module)
    return out


def test_detects_an_import_of_a_test_module():
    source = (
        "import test_cli\n"
        "from helpers import chain2\n"
        "from test_bisim import small_frames\n"
        "import oracles\n"
    )
    names = {"test_cli", "test_bisim"}
    assert imported_test_modules(source, names) == ["test_cli", "test_bisim"]


def test_sees_the_modules():
    assert {"helpers.py", "oracles.py", "test_cli.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_no_test_module(path):
    assert imported_test_modules(path.read_text(), TEST_MODULE_NAMES) == []
