"""The algebra of upsets of a finite poset, and the upset endofunctor.

Upsets are bitmasks over the base's element indices (upset_masks lists
them). Two distinct order conventions live here and must not be confused:

  - impl_mask and box_mask act on masks ordered by inclusion: that is the
    logical order (meet = AND, join = OR, top = the full mask, and
    implication is residuated against meet).
  - up_functor orders the same upsets by *reverse* inclusion; that poset is
    the coalgebraic target for modal successor maps. It is the MaskPoset
    of the upsets over the base (poset.MaskPoset), so its ``masks`` are
    the upsets, ascending, and index_of_mask finds an upset's element.
"""

import functools

from .config import DEFAULT_CAPS
from .errors import NotMonotone, StageTooLarge, ValueNotUpset
from .poset import (
    Poset,
    PosetMap,
    containment_rows,
    image,
    is_monotone,
    upset_masks,
)


@functools.lru_cache
def up_functor(p, caps=DEFAULT_CAPS):
    """The poset of upsets of p under reverse inclusion (C <= D iff C >= D),
    a MaskPoset over p whose masks are the upsets, ascending.

    This is stage 1 of the complexes over Up(p), so more than
    caps.max_stage upsets raise StageTooLarge(1); enumeration stops at the
    first upset past the cap. Memoized on every argument (posets compare by
    value and are immutable) in a bounded LRU, so a call with tighter caps
    never returns a value built under looser ones.
    """
    masks = upset_masks(p, limit=caps.max_stage)
    if len(masks) > caps.max_stage:
        raise StageTooLarge(1, f"more than {caps.max_stage} elements")
    return Poset.over_masks(masks, p)


def up_functor_map(f):
    """Direct image on upsets, closed upward so the result is an upset,
    as a map between the Up(P) index posets.

    Raw direct images of upsets need not be upsets under arbitrary monotone
    maps; the closure is the least fix keeping the functor inside Up. For
    p-morphisms it is a no-op. The library acts on upset masks directly
    (``up_close(f.image_mask(m))``); this index route is the reference the
    tests compare the mask route against.
    """
    if not is_monotone(f):
        raise NotMonotone("up_functor_map needs a monotone map")
    sv = up_functor(f.source)
    tv = up_functor(f.target)
    assign = [
        tv.index_of_mask(f.target.up_close(f.image_mask(m))) for m in sv.masks
    ]
    return PosetMap(sv, tv, assign)


def impl_mask(poset, a, b):
    """Heyting implication of two masks: the points x with up(x) & a <= b,
    the complement of the down-closure of a \\ b."""
    return poset.full_mask & ~poset.down_close(a & ~b)


def box_mask(frame, body):
    """Box of a mask along the frame's relation: {x : R[x] <= body}."""
    rel = frame.rel
    out = 0
    for x in range(frame.poset.n):
        if rel[x] & ~body == 0:
            out |= 1 << x
    return out


def join_irreducibles(base):
    """The poset of join-irreducible upsets of base under reverse inclusion.

    In Up(P) these are exactly the principal upsets, so the result is
    order-isomorphic to the base poset (Birkhoff duality); elements are
    relabeled by the generator (the irreducible's least element). The
    upsets and their containment rows are those of up_functor(base), so
    more than DEFAULT_CAPS.max_stage upsets raise StageTooLarge(1). An
    irreducible that is not a principal upset raises ValueNotUpset.
    """
    ups = up_functor(base)
    masks = ups.masks
    irred = []
    for k, row in enumerate(ups.up):
        m = masks[k]
        if m and image(masks, row & ~(1 << k)) != m:
            irred.append(m)
    labels = []
    for m in irred:
        root = base.min_of(m)
        if root is None or base.up_mask(root) != m:
            raise ValueNotUpset(
                f"join-irreducible {m:#x} is not a principal upset of the base"
            )
        labels.append(base.labels[root])
    return Poset(labels, containment_rows(irred, base.n), _trusted=True)
