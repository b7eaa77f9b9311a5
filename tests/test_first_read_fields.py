"""No property of the package fills a cache of its own.

A value built the first time it is read is a functools.cached_property:
built at most once per object, then held in the instance's ``__dict__``
and read as a plain attribute. A ``@property`` or ``__hash__`` in
``src/imcoalg/*.py`` that writes to ``self``, by attribute assignment
(``self._x = ...``) or through ``object.__setattr__``/``setattr``, is a
hand-rolled first-read cache, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "imcoalg"


def _is_property(decorator):
    return isinstance(decorator, ast.Name) and decorator.id == "property"


def _writes_self(node):
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        setter = (
            isinstance(func, ast.Attribute) and func.attr == "__setattr__"
        ) or (isinstance(func, ast.Name) and func.id == "setattr")
        first = node.args[0]
        return setter and isinstance(first, ast.Name) and first.id == "self"
    return False


def cache_writers(source):
    """(class name, method name) for every ``@property`` or ``__hash__`` of
    a class in source that writes to self, in order of appearance."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name != "__hash__" and not any(
                map(_is_property, fn.decorator_list)
            ):
                continue
            if any(map(_writes_self, ast.walk(fn))):
                out.append((cls.name, fn.name))
    return out


def test_detects_a_hand_rolled_cache():
    source = (
        "class A:\n"
        "    @property\n"
        "    def a(self):\n"
        "        if self._a is None:\n"
        "            self._a = 1\n"
        "        return self._a\n"
        "    @property\n"
        "    def b(self):\n"
        "        object.__setattr__(self, '_b', 2)\n"
        "    @property\n"
        "    def c(self):\n"
        "        setattr(self, '_c', 3)\n"
        "    @property\n"
        "    def d(self):\n"
        "        other.d = self.d\n"
        "        return self._d\n"
        "    @functools.cached_property\n"
        "    def e(self):\n"
        "        return 5\n"
        "    def __hash__(self):\n"
        "        self._hash, = (6,)\n"
        "        return self._hash\n"
        "    def f(self):\n"
        "        self.f = 7\n"
    )
    assert cache_writers(source) == [
        ("A", "a"), ("A", "b"), ("A", "c"), ("A", "__hash__")
    ]


def test_reads_the_package():
    names = {p.name for p in SRC.glob("*.py")}
    assert {"poset.py", "frames.py", "bisim.py"} <= names


def test_no_property_fills_a_cache():
    found = [
        (path.name, *writer)
        for path in sorted(SRC.glob("*.py"))
        for writer in cache_writers(path.read_text())
    ]
    assert found == []
