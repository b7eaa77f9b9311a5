"""No oracle in ``tests/helpers.py`` reads a private name of the package.

An oracle that calls a private kernel of the code it checks shares that
kernel's faults, so the comparison can no longer see them. No code in
``tests/helpers.py`` may read an underscore-prefixed attribute of an
``imcoalg`` module (``bisim._refine``), nor import an underscore-prefixed
name from one (``from imcoalg.enumeration import _permuted``). Dunder
names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """(line, "module.name") for every private name of an imcoalg module
    that source imports or reads as a module attribute, in order of
    appearance."""
    tree = ast.parse(source)
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
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _private(node.attr)
        ):
            path = _dotted(node.value)
            if path is not None and path.split(".")[0] in modules:
                head, _, rest = path.partition(".")
                module = modules[head] + (f".{rest}" if rest else "")
                out.append((node.lineno, f"{module}.{node.attr}"))
    return sorted(out)


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


def test_helpers_read_no_private_name_of_the_package():
    assert private_reads(HELPERS.read_text()) == []
