"""No test module reads a private name of the package, except a private
kernel that a test checks as code under test.

An oracle or an instance builder that calls a private kernel of the code
it checks shares that kernel's faults, so the comparison can no longer see
them. No module under ``tests/`` may read an underscore-prefixed attribute
of an ``imcoalg`` module (``bisim._refine``), nor import an
underscore-prefixed name from one (``from imcoalg.enumeration import
_permuted``), nor pass an underscore-prefixed keyword argument to a
callable of one (``Poset(labels, up, _trusted=True)``, which skips the
checks the test would rely on), unless the name is on ``CODE_UNDER_TEST``
below. Oracles and instance builders get no entry there: in
``tests/oracles.py``, where they sit beside the kernels they check, a
listed name may be read only as the kernel argument of a ``register``
call. Dunder names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# the private kernels a test reads as the code it checks, each with why
CODE_UNDER_TEST = {
    "imcoalg.bisim._disjoint_sum": (
        "truth on the sum of two models is checked against each side"
    ),
    "imcoalg.bisim._compatible": (
        "the compatibility rows are checked against the pair loop"
    ),
    "imcoalg.bisim._failing_projection": (
        "the projection test on rows is checked against is_pmorphism"
    ),
    "imcoalg.bisim._modal_clauses": (
        "the modal clauses are counted to run once per relation"
    ),
    "imcoalg.complexes._sorted_by_mask": (
        "the stage builders are checked to sort only where they must"
    ),
    "imcoalg.frames._holds_on_generators": (
        "the mix law on generating pairs is checked against the bit loop"
    ),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source, outside_kernels=False):
    """(line, "module.name") for every private name of an imcoalg module
    that source imports or reads as a module attribute, and (line,
    "module.callable(_name=)") for every private keyword argument passed
    to a callable of one, sorted; with outside_kernels, not counting the
    reads inside the kernel argument of a ``register`` call."""
    tree = ast.parse(source)
    kernels = set()
    for node in ast.walk(tree):
        if outside_kernels and _is_register(node):
            kernels.update(map(id, ast.walk(node.args[1])))
    modules = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "imcoalg":
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["imcoalg"] = "imcoalg"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] != "imcoalg":
                continue
            for alias in node.names:
                if _private(alias.name):
                    out.append((node.lineno, f"{module}.{alias.name}"))
                else:
                    modules[alias.asname or alias.name] = (
                        f"{module}.{alias.name}"
                    )
    for node in ast.walk(tree):
        if id(node) in kernels:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _private(node.attr)
        ):
            module = _resolved(modules, node.value)
            if module is not None:
                out.append((node.lineno, f"{module}.{node.attr}"))
        elif isinstance(node, ast.Call):
            private = [kw for kw in node.keywords if kw.arg and _private(kw.arg)]
            callee = _resolved(modules, node.func) if private else None
            if callee is not None:
                out += [(kw.lineno, f"{callee}({kw.arg}=)") for kw in private]
    return sorted(out)


def _resolved(modules, node):
    """The full name of an attribute chain on a name that an imcoalg import
    bound, else None."""
    path = _dotted(node)
    if path is None or path.split(".")[0] not in modules:
        return None
    head, _, rest = path.partition(".")
    return modules[head] + (f".{rest}" if rest else "")


def _is_register(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "register"
    )


def _dotted(node):
    """``a.b.c`` for a chain of attribute loads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def test_detects_private_reads():
    source = (
        "import imcoalg.poset as po\n"
        "from imcoalg import bisim\n"
        "from imcoalg.enumeration import _permuted, mix_relations\n"
        "import imcoalg\n"
        "def oracle(bis, frame):\n"
        "    bisim._refine(bis)\n"
        "    po._trusted\n"
        "    imcoalg.bisim._pair_rows\n"
        "    frame._pre\n"
        "    bisim.is_box_bisimulation(bis)\n"
        "    imcoalg.__version__\n"
        "    mix_relations._cache\n"
    )
    assert private_reads(source) == [
        (3, "imcoalg.enumeration._permuted"),
        (6, "imcoalg.bisim._refine"),
        (7, "imcoalg.poset._trusted"),
        (8, "imcoalg.bisim._pair_rows"),
        (12, "imcoalg.enumeration.mix_relations._cache"),
    ]


def test_detects_private_keyword_arguments():
    source = (
        "import imcoalg.poset as po\n"
        "from imcoalg.poset import Poset\n"
        "from helpers import relabel\n"
        "Poset(labels, up, _trusted=True)\n"
        "po.PosetMap(p, q, assign,\n"
        "            _trusted=True)\n"
        "relabel(p, perm, _fast=True)\n"
        "Poset.over_masks(masks, base, rows=None)\n"
    )
    assert private_reads(source) == [
        (4, "imcoalg.poset.Poset(_trusted=)"),
        (6, "imcoalg.poset.PosetMap(_trusted=)"),
    ]


def test_detects_private_reads_outside_kernels():
    source = (
        "from imcoalg import bisim\n"
        "register(\n"
        "    'x', lambda b: bisim._compatible(b),\n"
        "    lambda b: bisim._compatible(b), lambda: (),\n"
        ")\n"
        "def instances():\n"
        "    return bisim._failing_projection\n"
    )
    assert private_reads(source, outside_kernels=True) == [
        (4, "imcoalg.bisim._compatible"),
        (7, "imcoalg.bisim._failing_projection"),
    ]


def test_oracles_read_private_names_only_as_kernels():
    oracles = next(p for p in TEST_MODULES if p.name == "oracles.py")
    assert private_reads(oracles.read_text(), outside_kernels=True) == []


def test_helpers_read_no_private_name_of_the_package():
    helpers = next(p for p in TEST_MODULES if p.name == "helpers.py")
    assert private_reads(helpers.read_text()) == []


def test_sees_the_modules():
    assert {"helpers.py", "oracles.py", "test_bisim.py"} <= {
        p.name for p in TEST_MODULES
    }


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_reads_no_private_name_but_the_code_under_test(path):
    reads = {name for _, name in private_reads(path.read_text())}
    assert reads <= CODE_UNDER_TEST.keys()
