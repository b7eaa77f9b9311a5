"""Modal frames over posets, neighbourhood frames, and the coalgebra
correspondences.

A modal frame is a poset with a relation R satisfying the mix law
R = (<=);R;(<=), equivalently: every successor set R[x] is an upset and
x <= y forces R[x] >= R[y]. Such frames correspond one-to-one with monotone
maps into the reverse-inclusion-ordered upsets, and (after lifting) with
tower coalgebras; both directions are implemented and checked here.

R is stored extensionally; nothing is closed silently. check_mix_law
reports violations and mix_closure computes the repaired relation on
request, which is handy when authoring frame files by hand.

The law is decided once per frame. ModalFrame.mix_witness holds the answer
of mix_law_witness, found the first time it is read, and every check here
and in bisim (require_mix_law) and in the CLI reads it. mix_law_witness
decides on the order's generating pairs (Poset.generating_rows): the law
holds iff, for each such pair z <= w, R[w] is inside R[z] (R is antitone)
and pre[z] is inside pre[w] (each R[x] is an upset). Only a frame that
fails goes through the rows of (<=);R;(<=) (_mix_rows) to name its
witness.
"""

import functools

from .complexes import image_tower_agrees, tower_coords
from .config import DEFAULT_CAPS
from .errors import (
    MixLawViolation,
    NotMonotone,
    StageTooLarge,
    UnknownLabel,
    ValueNotUpset,
)
from .heyting import up_functor
from .poset import (
    PosetMap,
    Poset,
    containment_rows,
    image,
    is_monotone,
    is_pmorphism,
    iter_bits,
    pairs_of,
    transpose,
    unknown_label,
)


_UNDECIDED = object()  # a ModalFrame's mix_witness before it is read


class ModalFrame:
    """Poset plus successor-mask relation; immutable. A row count other
    than the poset's size, or a row that is negative or has a bit at or
    past poset.n, raises UnknownLabel. ``pre``, the rows of the converse
    relation (the modal predecessors of each point), is built the first
    time it is read, like ``Poset.down``. So is ``mix_witness``, the mix
    law's witness (mix_law_witness), which the frame then holds. Equality
    and hashing read the poset and the rows only."""

    __slots__ = ("poset", "rel", "_pre", "_witness")

    def __init__(self, poset, rel):
        rel = tuple(rel)
        if len(rel) != poset.n:
            raise UnknownLabel(
                f"relation has {len(rel)} rows for {poset.n} elements"
            )
        full = poset.full_mask
        for row in rel:
            if row & ~full:
                raise UnknownLabel(f"relation row {row:#x} leaves the carrier")
        self.poset = poset
        self.rel = rel
        self._pre = None
        self._witness = _UNDECIDED

    @classmethod
    def from_pairs(cls, poset, pairs):
        index = poset.label_index
        rel = [0] * poset.n
        try:
            for a, b in pairs:
                rel[index[a]] |= 1 << index[b]
        except KeyError as exc:
            raise unknown_label(exc.args[0]) from None
        return cls(poset, rel)

    @property
    def pre(self):
        if self._pre is None:
            self._pre = tuple(transpose(self.rel, self.poset.n))
        return self._pre

    @property
    def mix_witness(self):
        """mix_law_witness(self): a pair in (<=);R;(<=) missing from R, or
        None when the mix law holds. Decided the first time it is read."""
        if self._witness is _UNDECIDED:
            self._witness = mix_law_witness(self)
        return self._witness

    def pairs(self):
        labels = self.poset.labels
        return [(labels[x], labels[y]) for x, y in pairs_of(self.rel)]

    def __eq__(self, other):
        return (
            isinstance(other, ModalFrame)
            and self.poset == other.poset
            and self.rel == other.rel
        )

    def __hash__(self):
        return hash((self.poset, self.rel))

    def __repr__(self):
        body = ", ".join(f"{a}R{b}" for a, b in self.pairs())
        return f"ModalFrame({self.poset!r}; {body})"


def check_mix_law(frame):
    return frame.mix_witness is None


def _mix_rows(frame):
    """The rows of (<=);R;(<=): per x, the up-closure of R[↑x]."""
    p, rel = frame.poset, frame.rel
    return [p.up_close(image(rel, row)) for row in p.up]


def _holds_on_generators(frame):
    """Whether R[w] lies inside R[z] and pre[z] inside pre[w] for every
    generating pair z <= w of the order: the mix law."""
    rel, pre = frame.rel, frame.pre
    for z, row in enumerate(frame.poset.generating_rows):
        rel_z, pre_z = rel[z], pre[z]
        for w in iter_bits(row):
            if rel[w] & ~rel_z or pre_z & ~pre[w]:
                return False
    return True


def mix_law_witness(frame):
    """A pair in (<=);R;(<=) missing from R, or None when the law holds:
    the least such x, then the least z in its row. The law is decided on
    the order's generating pairs; only when it fails are the rows of
    (<=);R;(<=) built to find the witness. ModalFrame.mix_witness holds
    the answer."""
    if _holds_on_generators(frame):
        return None
    p, rel = frame.poset, frame.rel
    for x, closed in enumerate(_mix_rows(frame)):
        extra = closed & ~rel[x]
        if extra:
            z = next(iter_bits(extra))
            return (p.labels[x], p.labels[z])
    return None


def require_mix_law(frame):
    """Raise MixLawViolation naming the frame's mix_witness, if any."""
    witness = frame.mix_witness
    if witness is not None:
        raise MixLawViolation(f"mix law fails at witness {witness}")


def mix_closure(frame):
    """The least relation containing R that satisfies the mix law."""
    return ModalFrame(frame.poset, _mix_rows(frame))


def frame_to_upmap(frame, caps=DEFAULT_CAPS):
    """The coalgebra map x -> R[x] into the reverse-inclusion upset poset,
    built under caps (up_functor)."""
    require_mix_law(frame)
    ups = up_functor(frame.poset, caps)
    assign = [ups.index_of_mask(m) for m in frame.rel]
    return PosetMap(frame.poset, ups, assign)


def upmap_to_frame(m):
    """Recover the frame from a monotone map into the canonical upset poset.

    The relation is x R y iff y lies in the upset assigned to x; the mix law
    holds by construction.
    """
    if not is_monotone(m):
        raise NotMonotone("coalgebra maps must be monotone")
    ups = up_functor(m.source)
    if m.target != ups:
        raise ValueNotUpset("map target is not the canonical upset poset")
    rel = tuple(ups.masks[i] for i in m.assign)
    frame = ModalFrame(m.source, rel)
    require_mix_law(frame)
    return frame


def frame_to_lifted(frame, depth):
    """Lift of the coalgebra map x -> R[x], computed pointwise to the given
    depth.

    Returns the levels 1..depth as tuples over the frame's elements; level 1
    holds the upset masks R[x] themselves. Neither Up(P) nor any stage is
    materialized, so this stays cheap even where the stages would be
    astronomically large.
    """
    require_mix_law(frame)
    return tower_coords(frame.poset, frame.rel, depth)


def is_modal_pmorphism(f, frame1, frame2):
    """p-morphism for both the order and the modal relation."""
    if f.source != frame1.poset or f.target != frame2.poset:
        return False
    if not is_pmorphism(f):
        return False
    for x in range(frame1.poset.n):
        fx = f.assign[x]
        # forth: x R y implies f(x) R f(y); back: every f(x)-successor is hit
        if f.image_mask(frame1.rel[x]) != frame2.rel[fx]:
            return False
    return True


def check_coalgebra_morphism(f, frame1, frame2, depth=3):
    """Whether the lifted coalgebra square for f commutes coordinatewise.

    The square compares the functor image of frame1's lifted coalgebra with
    frame2's lifted coalgebra after f, up to the given depth. On upsets the
    functor acts by direct image, which maps upsets to upsets because f is
    a p-morphism. Maps that are not p-morphisms are not coalgebra morphisms
    in the p-morphism category, so they return False outright. A depth
    below 1 raises ValueError before anything else is checked.

    Only frame2 is lifted: the image of frame1's lift is the lift of the
    images f[R[x]] (image_tower_agrees).

    The naturality lemma in the complexes module applies here as it does
    in bisim.coalgebraic_bisim_check: once f passes is_pmorphism, level 1
    decides every level. The levels past 1 are still compared for now. A
    level-1 form makes the `sweep` benchmark's sub-millisecond jobs about
    a third faster, and the benchmark harness keeps a record per timed job,
    so its peak RSS then rises past that metric's bound; the form waits
    for a harness whose memory does not follow the job count.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if f.source != frame1.poset or f.target != frame2.poset:
        return False
    if not is_pmorphism(f):
        return False
    require_mix_law(frame1)
    images = [f.image_mask(row) for row in frame1.rel]
    return image_tower_agrees(
        frame1.poset, images, frame_to_lifted(frame2, depth), f.assign
    )


# -- neighbourhood frames ----------------------------------------------------


_MAX_POW_UP_BASE = 3


@functools.lru_cache
def pow_up_functor(p, caps=DEFAULT_CAPS):
    """Sets of upsets of p, ordered by inclusion of families.

    The value is a MaskPoset over the upset carrier up_functor(p): element
    i is the family whose members are read off the bits of i as indices
    into that carrier, so ``masks[i]`` is i itself and a family mask is its
    own index. Doubly exponential, so the base is capped at
    _MAX_POW_UP_BASE elements. Memoized on every argument, so a call with
    tighter caps never returns a value built under looser ones.
    """
    if p.n > _MAX_POW_UP_BASE:
        raise StageTooLarge(
            0, f"pow_up_functor base capped at {_MAX_POW_UP_BASE} elements"
        )
    ups = up_functor(p)
    size = 1 << ups.n
    if size > caps.max_stage:
        raise StageTooLarge(0, f"{size} families exceed the stage cap")
    masks = tuple(range(size))
    # family inclusion m <= j is containment of complements, j^c in m^c
    rows = containment_rows([(size - 1) ^ m for m in masks], ups.n)
    return Poset.over_masks(masks, ups, rows)


@functools.lru_cache
def _pullback_rows(f):
    """Per source upset, the mask of the target upsets whose preimage it
    is: the converse of the preimage table, so a family over the source
    upsets pulls back to image(rows, family) over the target upsets."""
    src_up, tgt_up = up_functor(f.source), up_functor(f.target)
    fibres = f.fibres()
    pre = [1 << src_up.index_of_mask(image(fibres, m)) for m in tgt_up.masks]
    return tuple(transpose(pre, src_up.n))


@functools.lru_cache
def pow_up_map(f):
    """Morphism action of the neighbourhood functor.

    A family over the source maps to the upsets of the target whose
    preimages belong to it. (Elementwise direct image would not make the
    neighbourhood morphism condition match the coalgebra square.)
    """
    if not is_monotone(f):
        raise NotMonotone("pow_up_map needs a monotone map")
    sv, tv = pow_up_functor(f.source), pow_up_functor(f.target)
    rows = _pullback_rows(f)
    return PosetMap(sv, tv, [image(rows, fam) for fam in sv.masks])


class NbhdFrame:
    """Poset with a monotone assignment of families of upsets to points.

    ``families[x]`` is a mask over the canonical upset carrier; a family
    count other than the poset's size, or a mask that is negative or has a
    bit past the carrier, raises UnknownLabel. Monotone means inclusion of
    families along the order. With strict=True each family must
    additionally be up-closed in the reverse-inclusion order on upsets; the
    default leaves the inner order unconstrained.
    """

    __slots__ = ("poset", "families")

    def __init__(self, poset, families, strict=False):
        families = tuple(families)
        if len(families) != poset.n:
            raise UnknownLabel(
                f"{len(families)} families for {poset.n} elements"
            )
        ups = up_functor(poset)
        full = ups.full_mask
        for fam in families:
            if fam & ~full:
                raise UnknownLabel(f"family {fam:#x} leaves the upset carrier")
        for x in range(poset.n):
            for y in iter_bits(poset.up[x]):
                if families[x] & ~families[y]:
                    raise NotMonotone(
                        "neighbourhood assignment is not monotone"
                    )
        if strict:
            for fam in families:
                if image(ups.up, fam) & ~fam:
                    raise ValueNotUpset(
                        "family not up-closed under reverse inclusion"
                    )
        self.poset = poset
        self.families = families

    def __eq__(self, other):
        return (
            isinstance(other, NbhdFrame)
            and self.poset == other.poset
            and self.families == other.families
        )

    def __hash__(self):
        return hash((self.poset, self.families))


def nbhd_to_coalgebra(nf):
    return PosetMap(nf.poset, pow_up_functor(nf.poset), nf.families)


def coalgebra_to_nbhd(m, strict=False):
    if not is_monotone(m):
        raise NotMonotone("coalgebra maps must be monotone")
    if m.target != pow_up_functor(m.source):
        raise ValueNotUpset("map target is not the canonical family poset")
    return NbhdFrame(m.source, m.assign, strict=strict)


def nbhd_morphism_condition(f, nf1, nf2):
    """a' in N'(f(x)) iff preimage(a') in N(x), for every upset a' of the
    target. Only upsets can appear in either family, so the quantifier runs
    over the upset carrier: N'(f(x)) is the pullback of N(x) (pow_up_map),
    checked point by point. A map between other posets returns False."""
    if f.source != nf1.poset or f.target != nf2.poset:
        return False
    rows = _pullback_rows(f)
    for fam1, t in zip(nf1.families, f.assign):
        if nf2.families[t] != image(rows, fam1):
            return False
    return True


def check_nbhd_coalgebra_morphism(f, nf1, nf2, depth=1):
    """Commutation of the lifted neighbourhood coalgebra square up to depth.

    A depth below 1 raises ValueError before anything else is checked; a
    map that is not monotone, or not between the frames' posets, returns
    False.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if f.source != nf1.poset or f.target != nf2.poset:
        return False
    if not is_monotone(f):
        return False
    u = pow_up_map(f)
    return image_tower_agrees(
        nf1.poset,
        [u.assign[fam] for fam in nf1.families],
        tower_coords(nf2.poset, nf2.families, depth),
        f.assign,
    )
