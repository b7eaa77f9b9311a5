"""Formula syntax, parser, printer and the Kripke-style model checker.

Grammar (loosest to tightest): "->" right-associative, then "|", then "&",
then the unary "[]" and "~"; atoms are identifiers plus the constants "T"
and "F"; parentheses group; whitespace is ignored. "~p" is sugar for
"p -> F" and is desugared at parse time, so the AST has no negation node.

Truth sets are computed bottom-up as whole subsets: the implication clause
quantifies over principal upsets and the box clause over modal successor
sets, so memoized set computation beats per-point queries.
"""

import operator
import re
from functools import partial

from .config import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    FormulaSyntaxError,
    UndeclaredLetter,
    UnknownToken,
    ValueNotUpset,
)
from .heyting import box_mask, impl_mask


class Formula:
    """AST node base. Nodes are immutable by convention and cache their
    hash at construction: truth sets memoize on subformulas, so hashing
    must not walk the tree every time."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other):
        return type(other) is Var and other.name == self.name

    __hash__ = Formula.__hash__

    def __repr__(self):
        return f"Var({self.name!r})"


class Top(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("top")

    def __eq__(self, other):
        return type(other) is Top

    __hash__ = Formula.__hash__

    def __repr__(self):
        return "Top()"


class Bot(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("bot")

    def __eq__(self, other):
        return type(other) is Bot

    __hash__ = Formula.__hash__

    def __repr__(self):
        return "Bot()"


class _Binary(Formula):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Formula.__hash__

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class And(_Binary):
    __slots__ = ()
    _tag = "and"


class Or(_Binary):
    __slots__ = ()
    _tag = "or"


class Impl(_Binary):
    __slots__ = ()
    _tag = "impl"


class Box(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self._hash = hash(("box", body._hash))

    def __eq__(self, other):
        return type(other) is Box and other.body == self.body

    __hash__ = Formula.__hash__

    def __repr__(self):
        return f"Box({self.body!r})"


TOP = Top()
BOT = Bot()


def neg(phi):
    return Impl(phi, BOT)


def iff(a, b):
    return And(Impl(a, b), Impl(b, a))


_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN = re.compile(r"\s*(\[\]|->|[~|&()]|" + _IDENTIFIER + ")")
_LETTER = re.compile(_IDENTIFIER)


def is_letter(name):
    """Whether a formula can name the letter: an identifier of the grammar
    other than the constants "T" and "F"."""
    return name not in ("T", "F") and _LETTER.fullmatch(name) is not None


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise UnknownToken(f"unexpected character {text[at]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next_pos(self):
        return (
            self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.length
        )

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        if self.peek() != text:
            raise FormulaSyntaxError(f"expected {text!r}", self.next_pos())
        self.take()

    def parse_impl(self):
        left = self.parse_or()
        if self.peek() == "->":
            self.take()
            return Impl(left, self.parse_impl())
        return left

    def parse_or(self):
        out = self.parse_and()
        while self.peek() == "|":
            self.take()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self):
        out = self.parse_unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self):
        tok = self.peek()
        if tok == "[]":
            self.take()
            return Box(self.parse_unary())
        if tok == "~":
            self.take()
            return neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.length)
        if tok == "(":
            self.take()
            out = self.parse_impl()
            self.expect(")")
            return out
        if tok in ("->", "|", "&", ")"):
            raise FormulaSyntaxError(f"unexpected {tok!r}", self.next_pos())
        self.take()
        if tok == "T":
            return TOP
        if tok == "F":
            return BOT
        return Var(tok)


def parse(text):
    parser = _Parser(_tokenize(text), len(text))
    out = parser.parse_impl()
    if parser.peek() is not None:
        raise FormulaSyntaxError(
            f"trailing input {parser.peek()!r}", parser.next_pos()
        )
    return out


_PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _prec(phi):
    if isinstance(phi, Impl):
        return _PREC_IMPL
    if isinstance(phi, Or):
        return _PREC_OR
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, Box):
        return _PREC_UNARY
    return 5


def print_formula(phi):
    """Emit the grammar back with minimal parentheses (parse . print = id)."""

    def wrap(child, limit):
        text = print_formula(child)
        return f"({text})" if _prec(child) < limit else text

    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, Top):
        return "T"
    if isinstance(phi, Bot):
        return "F"
    if isinstance(phi, Box):
        return "[]" + wrap(phi.body, _PREC_UNARY)
    if isinstance(phi, And):
        return wrap(phi.left, _PREC_AND) + " & " + wrap(phi.right, _PREC_AND + 1)
    if isinstance(phi, Or):
        return wrap(phi.left, _PREC_OR) + " | " + wrap(phi.right, _PREC_OR + 1)
    if isinstance(phi, Impl):
        return (
            wrap(phi.left, _PREC_IMPL + 1) + " -> " + wrap(phi.right, _PREC_IMPL)
        )
    raise TypeError(f"not a formula: {phi!r}")


def letters_of(phi):
    if isinstance(phi, Var):
        return {phi.name}
    if isinstance(phi, (Top, Bot)):
        return set()
    if isinstance(phi, Box):
        return letters_of(phi.body)
    return letters_of(phi.left) | letters_of(phi.right)


class Model:
    """A modal frame plus a valuation sending letters to upset masks."""

    __slots__ = ("frame", "valuation")

    def __init__(self, frame, valuation):
        vals = {}
        p = frame.poset
        for letter, mask in valuation.items():
            if mask & ~p.full_mask:
                raise ValueNotUpset(
                    f"valuation of {letter!r} ({mask:#x}) leaves the carrier"
                )
            if not p.is_upset(mask):
                raise ValueNotUpset(f"valuation of {letter!r} is not an upset")
            vals[letter] = mask
        self.frame = frame
        self.valuation = vals

    @property
    def poset(self):
        return self.frame.poset


def truth_mask(model, phi, _cache=None):
    """Bitmask of the points satisfying phi."""
    cache = _cache if _cache is not None else {}
    got = cache.get(phi)
    if got is not None:
        return got
    p = model.poset
    if isinstance(phi, Var):
        if phi.name not in model.valuation:
            raise UndeclaredLetter(f"letter {phi.name!r} has no valuation")
        out = model.valuation[phi.name]
    elif isinstance(phi, Top):
        out = p.full_mask
    elif isinstance(phi, Bot):
        out = 0
    elif isinstance(phi, And):
        out = truth_mask(model, phi.left, cache) & truth_mask(
            model, phi.right, cache
        )
    elif isinstance(phi, Or):
        out = truth_mask(model, phi.left, cache) | truth_mask(
            model, phi.right, cache
        )
    elif isinstance(phi, Impl):
        out = impl_mask(
            p, truth_mask(model, phi.left, cache), truth_mask(model, phi.right, cache)
        )
    elif isinstance(phi, Box):
        out = box_mask(model.frame, truth_mask(model, phi.body, cache))
    else:
        raise TypeError(f"not a formula: {phi!r}")
    cache[phi] = out
    return out


def valid_on_model(model, phi):
    return truth_mask(model, phi) == model.poset.full_mask


def enumerate_formulas(letters, max_depth):
    """All formulas with at most max_depth connectives, streamed in a
    deterministic order (size-major, then construction order).

    The depth measure counts every connective occurrence on one scale
    (box, and, or, impl); each tree is produced exactly once, so the output
    is deduplicated syntactically by construction.
    """
    atoms = [Var(l) for l in letters] + [TOP, BOT]
    by_size = [list(atoms)]
    yield from by_size[0]
    for size in range(1, max_depth + 1):
        bucket = []
        for phi in by_size[size - 1]:
            bucket.append(Box(phi))
        for make in (And, Or, Impl):
            for left_size in range(size):
                right_size = size - 1 - left_size
                for a in by_size[left_size]:
                    for b in by_size[right_size]:
                        bucket.append(make(a, b))
        by_size.append(bucket)
        yield from bucket


def first_formulas(model, letters, max_depth, caps=DEFAULT_CAPS):
    """(formula, truth mask) for the first formula of each truth set in
    enumerate_formulas(letters, max_depth), in stream order, built without
    the stream.

    Swapping a subformula for the first formula with the same truth set
    keeps the truth set and moves the formula no later in the stream, so
    the first formula with a given truth set is built from first formulas
    only. Size s therefore combines the first formulas of smaller sizes in
    construction order and keeps each combination whose truth set is new.

    caps.max_formulas bounds the connective applications: before a size is
    built, the applications it needs are counted from the number of first
    formulas per size, and CapExceeded names the size whose total would
    pass the cap. Once a size adds no truth set, the model's definable
    truth sets are counted (definable_masks, bounded by the same cap), and
    the search ends as soon as all of them have been met.
    """
    p, frame = model.poset, model.frame
    kernels = (
        (And, operator.and_),
        (Or, operator.or_),
        (Impl, partial(impl_mask, p)),
    )
    seen = set()
    atoms = []
    for phi in [Var(l) for l in letters] + [TOP, BOT]:
        t = truth_mask(model, phi)
        if t not in seen:
            seen.add(t)
            atoms.append((phi, t))
            yield phi, t
    by_size = [atoms]
    closure_size = None
    applied = 0
    for size in range(1, max_depth + 1):
        if len(seen) == closure_size:
            return
        counts = [len(level) for level in by_size]
        count = counts[size - 1] + 3 * sum(
            counts[k] * counts[size - 1 - k] for k in range(size)
        )
        if not count:
            return
        applied += count
        if applied > caps.max_formulas:
            raise CapExceeded(
                f"{applied} connective applications up to depth {size} "
                f"exceed cap {caps.max_formulas}"
            )
        level = []
        for phi, t in by_size[size - 1]:
            t = box_mask(frame, t)
            if t not in seen:
                seen.add(t)
                phi = Box(phi)
                level.append((phi, t))
                yield phi, t
        for make, kernel in kernels:
            for left_size in range(size):
                rights = by_size[size - 1 - left_size]
                for a, ta in by_size[left_size]:
                    for b, tb in rights:
                        t = kernel(ta, tb)
                        if t not in seen:
                            seen.add(t)
                            phi = make(a, b)
                            level.append((phi, t))
                            yield phi, t
        by_size.append(level)
        if not level and closure_size is None and size < max_depth:
            closure_size = len(definable_masks(model, caps))


def definable_masks(model, caps=DEFAULT_CAPS):
    """The truth sets of all formulas over the model's letters: the closure
    of the valuations, T and F under and, or, -> and box.

    Each mask, in the order found, is boxed and combined both ways with
    every mask found before it; CapExceeded is raised before the connective
    applications would pass caps.max_formulas.
    """
    p, frame = model.poset, model.frame
    found = list(dict.fromkeys([*model.valuation.values(), p.full_mask, 0]))
    known = set(found)
    applied = 0
    i = 0
    while i < len(found):
        a = found[i]
        # box a, then a & b, a | b, a -> b and b -> a for every earlier b
        applied += 1 + 4 * i
        if applied > caps.max_formulas:
            raise CapExceeded(
                f"{applied} connective applications closing the definable "
                f"truth sets exceed cap {caps.max_formulas}"
            )
        made = [box_mask(frame, a)]
        for b in found[:i]:
            made += (a & b, a | b, impl_mask(p, a, b), impl_mask(p, b, a))
        for t in made:
            if t not in known:
                known.add(t)
                found.append(t)
        i += 1
    return frozenset(found)
