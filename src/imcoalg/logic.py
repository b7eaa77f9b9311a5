"""Formula syntax, parser, printer and the Kripke-style model checker.

Grammar: atoms are identifiers plus the constants "T" and "F"; parentheses
group; whitespace is ignored. The connectives are stated once, as grammar
entries on their node classes, loosest to tightest: "->" (Impl, prec 1,
right_assoc), "|" (Or, 2) and "&" (And, 3), then the prefix "[]" (Box, 4)
and "~"; atoms bind tightest. "~p" is sugar for "p -> F" and is desugared
at parse time, so the AST has no negation node.

The parser reads the binary connectives by precedence climbing (Pratt,
POPL 1973): one loop over the symbol -> class table, in which the right
operand of a connective of prec k takes in only connectives of prec > k,
or >= k when it groups to the right. The printer brackets each child from
the same entries, with minimal parentheses, and walks the tree with an
explicit stack, so a formula of any depth prints. parse refuses a text of
more than MAX_FORMULA_TOKENS tokens (FormulaSyntaxError at the first token
past the bound). That bounds the depth of every tree it returns, and so
the recursion of the parser (two levels per parenthesis). Everything else
that reads a tree (truth_mask, letters_of, == and repr) walks it with an
explicit stack too, so the deep trees first_formulas builds, such as 499
nested boxes on chains of 500 and 501 points, evaluate, compare and print.

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

# the most tokens parse reads; it bounds the depth of every parsed tree
MAX_FORMULA_TOKENS = 256


class Formula:
    """AST node base. Nodes are immutable by convention and cache their
    hash at construction: truth sets memoize on subformulas, so hashing
    must not walk the tree every time. Each class names its parts in
    _fields, which equality and repr read, and its binding strength in
    prec; atoms bind tightest."""

    __slots__ = ("_hash",)
    _fields = ()
    prec = 5

    def __init__(self):
        self._hash = hash(type(self))

    def __hash__(self):
        return self._hash

    def _parts(self):
        return tuple(getattr(self, name) for name in self._fields)

    # __eq__ and __repr__ walk the two trees with an explicit stack, so
    # formulas of any depth compare and print
    def __eq__(self, other):
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine is theirs:
                continue
            if type(theirs) is not type(mine) or theirs._hash != mine._hash:
                return False
            for name in mine._fields:
                a, b = getattr(mine, name), getattr(theirs, name)
                if isinstance(a, Formula):
                    stack.append((a, b))
                elif a != b:
                    return False
        return True

    def __repr__(self):
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{type(item).__name__}(")
            stack.append(")")
            for k, name in enumerate(reversed(item._fields)):
                if k:
                    stack.append(", ")
                part = getattr(item, name)
                stack.append(part if isinstance(part, Formula) else repr(part))
        return "".join(out)


class Var(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash((Var, name))


class Top(Formula):
    __slots__ = ()
    symbol = "T"


class Bot(Formula):
    __slots__ = ()
    symbol = "F"


class _Binary(Formula):
    """A binary connective. Each subclass is its grammar entry: symbol,
    prec, and right_assoc when it groups to the right."""

    __slots__ = _fields = ("left", "right")
    right_assoc = False

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((type(self), left._hash, right._hash))


class And(_Binary):
    __slots__ = ()
    symbol, prec = "&", 3


class Or(_Binary):
    __slots__ = ()
    symbol, prec = "|", 2


class Impl(_Binary):
    __slots__ = ()
    symbol, prec, right_assoc = "->", 1, True


class Box(Formula):
    __slots__ = _fields = ("body",)
    symbol, prec = "[]", 4

    def __init__(self, body):
        self.body = body
        self._hash = hash((Box, body._hash))


TOP = Top()
BOT = Bot()


def neg(phi):
    return Impl(phi, BOT)


def iff(a, b):
    return And(Impl(a, b), Impl(b, a))


_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN = re.compile(r"\s*(\[\]|->|[~|&()]|" + _IDENTIFIER + ")")
_LETTER = re.compile(_IDENTIFIER)
_BINARY = {cls.symbol: cls for cls in (Impl, Or, And)}
_PREFIX = {Box.symbol: Box, "~": neg}
_CONSTANTS = {Top.symbol: TOP, Bot.symbol: BOT}


def is_letter(name):
    """Whether a formula can name the letter: an identifier of the grammar
    other than the constants "T" and "F"."""
    return name not in _CONSTANTS and _LETTER.fullmatch(name) is not None


def _tokenize(text):
    """(token, position) pairs closed by the end-of-input sentinel
    (None, len(text)); at most MAX_FORMULA_TOKENS tokens."""
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
        if len(tokens) == MAX_FORMULA_TOKENS:
            raise FormulaSyntaxError(
                f"formula longer than {MAX_FORMULA_TOKENS} tokens", m.start(1)
            )
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expression(self, min_prec=1):
        """Precedence climbing: an operand, then each binary connective of
        prec >= min_prec with its right operand, which takes in the
        connectives that bind tighter (or as tight, if it groups to the
        right)."""
        out = self.operand()
        while True:
            cls = _BINARY.get(self.tokens[self.pos][0])
            if cls is None or cls.prec < min_prec:
                return out
            self.pos += 1
            out = cls(out, self.expression(cls.prec + (not cls.right_assoc)))

    def operand(self):
        """Prefix connectives, then an atom or a parenthesised expression."""
        prefixes = []
        tok, at = self.take()
        while tok in _PREFIX:
            prefixes.append(_PREFIX[tok])
            tok, at = self.take()
        if tok == "(":
            out = self.expression()
            tok, at = self.take()
            if tok != ")":
                raise FormulaSyntaxError("expected ')'", at)
        elif tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        elif tok == ")" or tok in _BINARY:
            raise FormulaSyntaxError(f"unexpected {tok!r}", at)
        else:
            out = _CONSTANTS.get(tok) or Var(tok)
        for make in reversed(prefixes):
            out = make(out)
        return out


def parse(text):
    parser = _Parser(text)
    out = parser.expression()
    tok, at = parser.take()
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input {tok!r}", at)
    return out


def print_formula(phi):
    """Emit the grammar back with minimal parentheses (parse . print = id).

    A child is bracketed when its prec is below its limit: the parent's
    prec, plus one on the side a binary connective does not group to. The
    tree is walked with an explicit stack of (node, limit) and (text,
    None) items, so a formula of any depth prints."""
    out = []
    stack = [(phi, 0)]
    while stack:
        node, limit = stack.pop()
        if limit is None:
            out.append(node)
            continue
        if not isinstance(node, Formula):
            raise TypeError(f"not a formula: {node!r}")
        if node.prec < limit:
            out.append("(")
            stack.append((")", None))
        if isinstance(node, _Binary):
            stack += (
                (node.right, node.prec + (not node.right_assoc)),
                (f" {node.symbol} ", None),
                (node.left, node.prec + node.right_assoc),
            )
        elif isinstance(node, Box):
            out.append(Box.symbol)
            stack.append((node.body, Box.prec))
        elif isinstance(node, Var):
            out.append(node.name)
        else:
            out.append(node.symbol)
    return "".join(out)


def letters_of(phi):
    """The letters of phi, read by a walk with an explicit stack."""
    out = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack += node._parts()
    return out


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
    """Bitmask of the points satisfying phi.

    The tree is walked with an explicit stack: a node stays on it until
    the masks of its parts are in the cache, so a formula of any depth is
    evaluated. Every node's mask goes into the cache, which a caller may
    pass to share it between calls."""
    cache = _cache if _cache is not None else {}
    out = cache.get(phi)
    if out is not None:
        return out
    p = model.poset
    stack = [phi]
    while stack:
        node = stack[-1]
        if isinstance(node, _Binary):
            a, b = cache.get(node.left), cache.get(node.right)
            if a is None or b is None:
                if a is None:
                    stack.append(node.left)
                if b is None:
                    stack.append(node.right)
                continue
            if isinstance(node, And):
                out = a & b
            elif isinstance(node, Or):
                out = a | b
            else:
                out = impl_mask(p, a, b)
        elif isinstance(node, Box):
            a = cache.get(node.body)
            if a is None:
                stack.append(node.body)
                continue
            out = box_mask(model.frame, a)
        elif isinstance(node, Var):
            if node.name not in model.valuation:
                raise UndeclaredLetter(f"letter {node.name!r} has no valuation")
            out = model.valuation[node.name]
        elif isinstance(node, Top):
            out = p.full_mask
        elif isinstance(node, Bot):
            out = 0
        else:
            raise TypeError(f"not a formula: {node!r}")
        stack.pop()
        cache[node] = out
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
