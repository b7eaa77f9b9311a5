"""Parser for the hand-authored frame file format.

Sections, each optional except [elements]:

    # comment lines start with '#', inline comments allowed
    [elements]
    a b c
    [order]
    a < b          # covers semantics; the order is closed transitively
    [modal]
    a R b
    [val]
    p : b c        # valuation of letter p, a formula identifier
    [nbhd]
    a : {a b} {c}  # families of upsets per element

Parsing validates syntax and label references only; semantic checks (order
axioms, mix law, upward closure of valuations) belong to the commands so
they can be reported rather than thrown.
"""

import re
from dataclasses import dataclass, field

from .errors import ParseError, ValueNotUpset
from .frames import ModalFrame, NbhdFrame
from .heyting import up_functor
from .logic import Model, is_letter
from .poset import make_poset

_SECTIONS = ("elements", "order", "modal", "val", "nbhd")


@dataclass
class FrameFile:
    """Parsed sections of a frame file, still purely syntactic."""

    labels: list = field(default_factory=list)
    order_pairs: list = field(default_factory=list)
    modal_pairs: list = field(default_factory=list)
    valuations: dict = field(default_factory=dict)
    nbhd: dict = field(default_factory=dict)

    def build_poset(self):
        return make_poset(self.labels, self.order_pairs)

    def build_frame(self, poset=None):
        p = poset if poset is not None else self.build_poset()
        return ModalFrame.from_pairs(p, self.modal_pairs)

    def valuation_masks(self, poset, close=False):
        """Letter -> mask; non-upset values are rejected unless close=True."""
        return {
            letter: _upset_mask(
                poset, members, close,
                f"valuation of {letter!r} is not upward closed "
                "(use --close-valuations to close it)",
            )
            for letter, members in sorted(self.valuations.items())
        }

    def build_model(self, close=False, frame=None):
        f = frame if frame is not None else self.build_frame()
        return Model(f, self.valuation_masks(f.poset, close=close))

    def build_nbhd_frame(self, poset=None, close=False, strict=False):
        """The neighbourhood frame; each family member is an upset mask,
        closed or rejected as valuation_masks does, and the family of an
        element masks the indices of its members in Up(P)."""
        p = poset if poset is not None else self.build_poset()
        members = [
            (p.index(lab), _upset_mask(
                p, fam, close, f"neighbourhood of {lab!r} contains a non-upset"
            ))
            for lab, fams in sorted(self.nbhd.items())
            for fam in fams
        ]
        carrier = up_functor(p)
        families = [0] * p.n
        for x, mask in members:
            families[x] |= 1 << carrier.index_of_mask(mask)
        return NbhdFrame(p, families, strict=strict)


def _upset_mask(poset, labels, close, message):
    """The mask of the labels; when it is not an upset, its upward closure
    if close is set, else ValueNotUpset(message)."""
    mask = 0
    for lab in labels:
        mask |= 1 << poset.index(lab)
    if poset.is_upset(mask):
        return mask
    if not close:
        raise ValueNotUpset(message)
    return poset.up_close(mask)


_TOKEN = re.compile(r"\S+")
_FAMILY_TOKEN = re.compile(r"[{}]|[^\s{}]+")  # a brace, or a run up to one


def parse_frame_file(text):
    """The sections of a frame file, checked for syntax and label
    references. A ParseError names the 1-based line and, for an undeclared
    element, the column of the token that names it.

    An [order] or [modal] line, nearly every line of a large frame, is
    taken on one test: three tokens, the section's symbol in the middle and
    both labels declared. Only a line that fails it goes through the
    checks that say what is wrong with it."""
    ff = FrameFile()
    section = None
    pairs = symbol = None  # set inside [order] and [modal]
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "[":
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            section = name
            if name == "order":
                pairs, symbol = ff.order_pairs, "<"
            elif name == "modal":
                pairs, symbol = ff.modal_pairs, "R"
            else:
                pairs = symbol = None
            continue
        if pairs is not None:
            parts = stripped.split()
            if (
                len(parts) == 3
                and parts[1] == symbol
                and parts[0] in declared
                and parts[2] in declared
            ):
                pairs.append((parts[0], parts[2]))
                continue
            if len(parts) != 3 or parts[1] != symbol:
                raise ParseError(f"expected 'a {symbol} b'", lineno)
            k = 0 if parts[0] not in declared else 2
            raise _undeclared(parts[k], lineno, _columns(line)[k])
        elif section is None:
            raise ParseError("content before any section header", lineno)
        elif section == "elements":
            for tok in stripped.split():
                if tok in declared:
                    raise ParseError(f"duplicate element {tok!r}", lineno)
                declared.add(tok)
                ff.labels.append(tok)
        elif section == "val":
            if ":" not in stripped:
                raise ParseError("expected 'letter : e1 e2 ...'", lineno)
            letter, _, rest = stripped.partition(":")
            letter = letter.strip()
            if not letter:
                raise ParseError("missing letter before ':'", lineno)
            if not is_letter(letter):
                raise ParseError(
                    f"letter {letter!r} cannot be named in a formula "
                    "(an identifier other than T and F)",
                    lineno, len(line) - len(line.lstrip()) + 1,
                )
            if letter in ff.valuations:
                raise ParseError(f"duplicate valuation for {letter!r}", lineno)
            members = rest.split()
            for k, tok in enumerate(members):
                if tok not in declared:
                    column = _columns(line, line.index(":") + 1)[k]
                    raise _undeclared(tok, lineno, column)
            ff.valuations[letter] = members
        elif section == "nbhd":
            if ":" not in stripped:
                raise ParseError("expected 'e : {e1 e2} ...'", lineno)
            lab = stripped.partition(":")[0].strip()
            if lab not in declared:
                raise _undeclared(lab, lineno, _columns(line)[0])
            if lab in ff.nbhd:
                raise ParseError(f"duplicate neighbourhood for {lab!r}", lineno)
            ff.nbhd[lab] = _parse_families(
                line, line.index(":") + 1, declared, lineno
            )
    if not ff.labels:
        raise ParseError("no [elements] declared", 1)
    return ff


def _columns(line, start=0):
    """The 1-based columns of the whitespace-separated tokens of line that
    start at or after index start."""
    return [m.start() + 1 for m in _TOKEN.finditer(line, start)]


def _undeclared(tok, lineno, column):
    return ParseError(f"undeclared element {tok!r}", lineno, column)


def _parse_families(line, start, declared, lineno):
    """The families written on line from index start on: each a list of
    member labels in braces. An undeclared member's ParseError names its
    token's own column."""
    families = []
    current = None
    for m in _FAMILY_TOKEN.finditer(line, start):
        tok = m.group()
        if tok == "{":
            if current is not None:
                raise ParseError("nested '{'", lineno)
            current = []
        elif tok == "}":
            if current is None:
                raise ParseError("unmatched '}'", lineno)
            families.append(current)
            current = None
        else:
            if current is None:
                raise ParseError("family member outside braces", lineno)
            if tok not in declared:
                raise _undeclared(tok, lineno, m.start() + 1)
            current.append(tok)
    if current is not None:
        raise ParseError("unterminated '{'", lineno)
    return families
