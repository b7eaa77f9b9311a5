"""No property of the package fills a cache of its own.

A value built the first time it is read is a ``poset.first_read`` field:
built at most once per object, then stored with setattr and read as a
plain attribute. A ``@property`` or ``__hash__`` in ``src/imcoalg/*.py``
that writes to ``self``, by attribute assignment (``self._x = ...``) or
through ``object.__setattr__``/``setattr``, is a hand-rolled first-read
cache, and fails here. So does any use of functools.cached_property, as
a decorator, an attribute reference or an import: it writes through the
instance's ``__dict__``, which on CPython 3.11 materialises the dict and
takes every later attribute read of the object off the fast path.

The descriptor itself is checked on each class that owns such fields: the
first read builds the value once and stores it on the object, later reads
return that stored object, and a value a constructor stores is read
without a build.
"""

import ast
from pathlib import Path

from imcoalg import bisim, frames, poset as poset_module
from imcoalg.bisim import Bisimulation
from imcoalg.frames import ModalFrame
from imcoalg.poset import MaskPoset, Poset, first_read, make_poset

SRC = Path(__file__).resolve().parent.parent / "src" / "imcoalg"


def _is_property(decorator):
    return isinstance(decorator, ast.Name) and decorator.id == "property"


def _names_cached_property(node):
    """Whether node names cached_property: bare, as an attribute
    (``functools.cached_property``) or in an import."""
    return (
        (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    )


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
    a class in source that writes to self, and for every method decorated
    with cached_property, in order of appearance."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            decorators = fn.decorator_list
            if any(map(_names_cached_property, decorators)):
                out.append((cls.name, fn.name))
            elif (
                fn.name == "__hash__" or any(map(_is_property, decorators))
            ) and any(map(_writes_self, ast.walk(fn))):
                out.append((cls.name, fn.name))
    return out


def cached_property_lines(source):
    """The line of every use of cached_property in source, decorators,
    attribute references and imports alike, ascending."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        names = node.names if isinstance(node, ast.ImportFrom) else [node]
        if any(map(_names_cached_property, names)):
            lines.add(node.lineno)
    return sorted(lines)


def test_detects_a_hand_rolled_cache():
    source = (
        "from functools import cached_property\n"
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
        "    @cached_property\n"
        "    def g(self):\n"
        "        return 8\n"
        "    h = functools.cached_property(lambda self: 9)\n"
    )
    assert cache_writers(source) == [
        ("A", "a"), ("A", "b"), ("A", "c"), ("A", "e"), ("A", "__hash__"),
        ("A", "g"),
    ]
    assert cached_property_lines(source) == [1, 18, 26, 29]


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
    uses = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in cached_property_lines(path.read_text())
    ]
    assert uses == []


# -- the first_read descriptor ---------------------------------------------


def count_calls(monkeypatch, module, name):
    """Record every call of module.name from then on; returns the list of
    recorded argument tuples."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def check_first_read(owner, obj, name, calls):
    """owner's ``name`` is a first_read field that obj has not built yet;
    the first read builds it once (one call more in calls), and it is then
    held in vars(obj) and returned by every later read with no build."""
    assert isinstance(vars(owner)[name], first_read)
    assert name not in vars(obj)
    before = len(calls)
    value = getattr(obj, name)
    assert len(calls) == before + 1
    assert vars(obj)[name] is value
    assert getattr(obj, name) is value and getattr(obj, name) is value
    assert len(calls) == before + 1


def test_poset_fields_are_built_once_or_stored(monkeypatch):
    calls = count_calls(monkeypatch, poset_module, "transpose")
    p = Poset("abc", (0b111, 0b110, 0b100))
    check_first_read(Poset, p, "down", calls)
    assert p.down == (0b001, 0b011, 0b111)
    assert isinstance(vars(Poset)["_hash"], first_read)
    assert "_hash" not in vars(p)
    assert hash(p) == vars(p)["_hash"] == hash(p)
    # make_poset stores the down rows it checked and the rows it closed
    made = make_poset("abc", [("a", "b"), ("b", "c")])
    built = len(calls)
    assert made.down is vars(made)["down"] == p.down
    assert made.generating_rows is vars(made)["generating_rows"]
    assert made.generating_rows == (0b011, 0b110, 0b100) != made.up
    assert len(calls) == built


def test_mask_poset_fields_are_built_once_or_stored(monkeypatch):
    rows = count_calls(monkeypatch, poset_module, "containment_rows")
    labels = count_calls(monkeypatch, poset_module, "mask_labels")
    base = make_poset("ab", [])
    masks = (0b00, 0b01, 0b10, 0b11)
    lazy = Poset.over_masks(masks, base)
    check_first_read(MaskPoset, lazy, "up", rows)
    check_first_read(MaskPoset, lazy, "labels", labels)
    # given rows, the poset stores them as ``up``
    given = Poset.over_masks(masks, base, lazy.up)
    assert given.up is vars(given)["up"] == lazy.up
    assert len(rows) == 1


def test_modal_frame_fields_are_built_once(monkeypatch):
    pre = count_calls(monkeypatch, frames, "transpose")
    witness = count_calls(monkeypatch, frames, "mix_law_witness")
    # no constructor stores either field
    frame = ModalFrame.from_pairs(
        make_poset("ab", [("a", "b")]), [("a", "b"), ("b", "b")]
    )
    check_first_read(ModalFrame, frame, "pre", pre)
    assert frame.pre == (0, 0b11)
    check_first_read(ModalFrame, frame, "mix_witness", witness)
    assert frame.mix_witness is None


def test_bisimulation_fields_are_built_once(monkeypatch):
    cols = count_calls(monkeypatch, bisim, "transpose")
    verdict = count_calls(monkeypatch, bisim, "_failing_projection")
    frame = ModalFrame(make_poset("ab", [("a", "b")]), (0b10, 0b10))
    # no constructor stores either field
    bis = Bisimulation.from_pairs(frame, frame, [(0, 0), (1, 1)])
    check_first_read(Bisimulation, bis, "cols", cols)
    assert bis.cols == (0b01, 0b10)
    check_first_read(Bisimulation, bis, "verdict", verdict)
    assert bis.verdict is True
