"""No class of the package stores an attribute that nothing reads.

A field that is assigned in a constructor and never read is dead weight,
and it hides what a value really holds. Every attribute that a class in
``src/imcoalg/*.py`` assigns on ``self`` must be read as an attribute
(``something.name``) somewhere in ``src/``, ``tests/`` or ``bench/``.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "imcoalg"
READERS = sorted(
    [*SRC.glob("*.py"), *TESTS.glob("*.py"), *(ROOT / "bench").glob("*.py")]
)


def self_assignments(source):
    """(class name, attribute) for every ``self.attribute = ...`` inside a
    class in source, in order of appearance."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append((cls.name, target.attr))
    return out


def attributes_read(source):
    """The names of every attribute loaded in source."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_attributes():
    read = set()
    for path in READERS:
        read |= attributes_read(path.read_text())
    return [
        (path.name, cls, attr)
        for path in sorted(SRC.glob("*.py"))
        for cls, attr in self_assignments(path.read_text())
        if attr not in read
    ]


def test_detects_an_unread_attribute():
    source = (
        "class A:\n"
        "    def __init__(self, a, b):\n"
        "        self.a = a\n"
        "        self.b: int = b\n"
        "        self.c = self.a\n"
        "other.d = 1\n"
    )
    assert self_assignments(source) == [("A", "a"), ("A", "b"), ("A", "c")]
    assert attributes_read(source) == {"a"}


def test_sees_the_readers():
    names = {p.name for p in READERS}
    assert {"complexes.py", "test_cli.py", "layers.py"} <= names


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []
