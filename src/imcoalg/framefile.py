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
    p : b c        # valuation of letter p
    [nbhd]
    a : {a b} {c}  # families of upsets per element

Parsing validates syntax and label references only; semantic checks (order
axioms, mix law, upward closure of valuations) belong to the commands so
they can be reported rather than thrown.
"""

from dataclasses import dataclass, field

from .errors import ParseError, ValueNotUpset
from .frames import ModalFrame, NbhdFrame
from .heyting import up_functor
from .logic import Model
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


def parse_frame_file(text):
    ff = FrameFile()
    section = None
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)
        if section == "elements":
            for tok in stripped.split():
                if tok in declared:
                    raise ParseError(f"duplicate element {tok!r}", lineno)
                declared.add(tok)
                ff.labels.append(tok)
        elif section == "order":
            parts = stripped.split()
            if len(parts) != 3 or parts[1] != "<":
                raise ParseError("expected 'a < b'", lineno)
            _require(parts[0], declared, lineno, line)
            _require(parts[2], declared, lineno, line)
            ff.order_pairs.append((parts[0], parts[2]))
        elif section == "modal":
            parts = stripped.split()
            if len(parts) != 3 or parts[1] != "R":
                raise ParseError("expected 'a R b'", lineno)
            _require(parts[0], declared, lineno, line)
            _require(parts[2], declared, lineno, line)
            ff.modal_pairs.append((parts[0], parts[2]))
        elif section == "val":
            if ":" not in stripped:
                raise ParseError("expected 'letter : e1 e2 ...'", lineno)
            letter, _, rest = stripped.partition(":")
            letter = letter.strip()
            if not letter:
                raise ParseError("missing letter before ':'", lineno)
            if letter in ff.valuations:
                raise ParseError(f"duplicate valuation for {letter!r}", lineno)
            members = rest.split()
            for tok in members:
                _require(tok, declared, lineno, line)
            ff.valuations[letter] = members
        elif section == "nbhd":
            if ":" not in stripped:
                raise ParseError("expected 'e : {e1 e2} ...'", lineno)
            lab, _, rest = stripped.partition(":")
            lab = lab.strip()
            _require(lab, declared, lineno, line)
            if lab in ff.nbhd:
                raise ParseError(f"duplicate neighbourhood for {lab!r}", lineno)
            ff.nbhd[lab] = _parse_families(rest, declared, lineno)
    if not ff.labels:
        raise ParseError("no [elements] declared", 1)
    return ff


def _require(tok, declared, lineno, line):
    if tok not in declared:
        col = line.find(tok) + 1
        raise ParseError(f"undeclared element {tok!r}", lineno, max(col, 1))


def _parse_families(rest, declared, lineno):
    families = []
    current = None
    for tok in rest.replace("{", " { ").replace("}", " } ").split():
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
                raise ParseError(f"undeclared element {tok!r}", lineno)
            current.append(tok)
    if current is not None:
        raise ParseError("unterminated '{'", lineno)
    return families
