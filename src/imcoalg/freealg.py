"""Layered construction of duals of free modal Heyting algebras, truncated.

Stage 0 is the generator poset; stage k+1 is the product of the generators
with the depth-d truncation of the tower construction over the upsets of
stage k (represented by its deepest complex stage). Projections and the
step relations R_k are realized on those truncated representatives, so all
downstream claims are per-truncation structural checks, not certificates
about the untruncated limit.

Stage sizes explode quickly: the caps abort cleanly and the report names
the stage that overflowed.
"""

from dataclasses import dataclass, field

from .complexes import terminal_complex
from .config import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    MixLawViolation,
    NotPMorphism,
    TooManyGenerators,
)
from .frames import check_mix_law
from .heyting import box_mask, up_functor
from .poset import (
    Poset,
    PosetMap,
    back_up_to,
    containment_rows,
    identity_map,
    is_monotone,
    is_pmorphism,
    iter_bits,
    product,
)

MAX_GENERATORS = 3
MAX_STAGES = 2
MAX_INNER_DEPTH = 2
MAX_BASE = 4


def generator_poset(variables):
    """Powerset of the variable set under reverse inclusion."""
    variables = tuple(variables)
    if len(variables) > MAX_GENERATORS:
        raise TooManyGenerators(
            f"at most {MAX_GENERATORS} generators supported"
        )
    masks = range(1 << len(variables))
    subsets = [
        frozenset(v for i, v in enumerate(variables) if (mask >> i) & 1)
        for mask in masks
    ]
    # reverse inclusion: a <= b iff a contains b
    return Poset(
        subsets, containment_rows(masks, len(variables)), _trusted=True
    )


@dataclass
class FreeStage:
    """One layer: its poset, projection to the previous layer, and the step
    relation into the previous layer (absent at stage 0).

    Elements of stage k >= 1 are pairs (generator element, inner stage
    element). ``inner_complex`` is the tower complex over the upsets of
    stage k - 1 whose deepest stage holds the inner elements; ``upsets`` is
    that Up(stage k - 1) (up_functor), a MaskPoset over ``prev`` and the
    complex's stage 1, so a tower into it starts from one index_of_mask
    lookup per point and goes up by Complex.lift_level.
    """

    index: int
    poset: Poset
    projection: PosetMap
    inner_depth: int
    prev: Poset | None = None
    rel: tuple | None = None  # masks over prev, per element
    pairs: tuple | None = None  # (generator index, inner index) per element
    inner_complex: object = None
    upsets: object = None


def _build_next_stage(base, stage, inner_depth, caps):
    """Stage k+1 = base x (deepest stage of the tower complex over the
    upsets of stage k)."""
    ups = up_functor(stage.poset, caps)
    cx = terminal_complex(ups, inner_depth, caps)
    inner = cx.stages[inner_depth]
    next_poset = product(base, inner)
    pairs = tuple(
        (i, j) for i in range(base.n) for j in range(inner.n)
    )
    # step relation: (x, C) steps to y iff y lies in C's level-1 coordinate
    steps = [ups.masks[cx.tower_of(j)[1]] for j in range(inner.n)]
    rel = tuple(steps[j] for _, j in pairs)
    # projection: stage 1 forgets the inner component; deeper stages push
    # the inner tower through the direct image of the previous projection,
    # level by level over the member masks. That projection is a
    # p-morphism, so the image of an upset is an upset (index_of_mask
    # raises ValueNotUpset on anything else)
    if stage.index == 0:
        proj_assign = [i for i, _ in pairs]
    else:
        prev_cx = stage.inner_complex
        moved = [
            stage.upsets.index_of_mask(stage.projection.image_mask(mask))
            for mask in ups.masks
        ]
        for level in range(2, inner_depth + 1):
            moved = prev_cx.lift_level(level, moved, cx.stages[level].masks)
        prev_n = prev_cx.stages[inner_depth].n
        proj_assign = [i * prev_n + moved[j] for i, j in pairs]
    return FreeStage(
        index=stage.index + 1,
        poset=next_poset,
        projection=PosetMap(next_poset, stage.poset, proj_assign),
        inner_depth=inner_depth,
        prev=stage.poset,
        rel=rel,
        pairs=pairs,
        inner_complex=cx,
        upsets=ups,
    )


def build_free_stages(base, stages, inner_depth, caps=DEFAULT_CAPS):
    """The truncated layer sequence M_0..M_stages over the base poset."""
    if stages > MAX_STAGES:
        raise CapExceeded(f"at most {MAX_STAGES} stages supported")
    if inner_depth < 1 or inner_depth > MAX_INNER_DEPTH:
        raise CapExceeded(f"inner depth must be 1..{MAX_INNER_DEPTH}")
    if base.n > MAX_BASE:
        raise CapExceeded(f"base poset capped at {MAX_BASE} elements")
    out = [
        FreeStage(
            index=0,
            poset=base,
            projection=identity_map(base),
            inner_depth=inner_depth,
        )
    ]
    for _ in range(stages):
        out.append(_build_next_stage(base, out[-1], inner_depth, caps))
    return out


def check_truncated_pmorphism(stage, assign, source):
    """Back condition for a map into a layer, adjusted for truncation.

    The inner component of a layer element is a depth-d tower value; points
    of the layer sitting above the image only refute the (limit) back
    condition if they extend above it one level deeper, so the deepest
    inner level serves as an extension certificate and the witness must
    agree on the generator component and the inner tower up to depth d-1:
    poset.back_up_to on those keys. Monotonicity is required exactly.
    """
    if not is_monotone(PosetMap(source, stage.poset, assign)):
        return False
    # an element's generator component and the root of its inner tower,
    # the tower up to depth d-1 (constant at d = 1: stage 0 is a point)
    roots = stage.inner_complex.root_maps[stage.inner_depth].assign
    keys = [(x, roots[c]) for x, c in stage.pairs]
    return back_up_to(source.up, assign, stage.poset.up, keys)


def universal_lift(p, frame, free_stages):
    """The stagewise lifting of a p-morphism from a modal frame into the
    layer sequence free_stages, built by build_free_stages over p's target
    (layers over another base raise NotPMorphism).

    p_0 is p itself; p_{k+1}(y) pairs p(y) with the tower lifting of
    y -> p_k[R[y]]. Every constructed coordinate is verified monotone and
    to satisfy the step condition: x R y forces p_{k+1}(x) R_k p_k(y).

    The back condition of the pairing is NOT enforced here: it can fail
    for honest inputs (a reflexive-bottom chain frame already breaks it,
    and not as a truncation artifact: the inner tower of a point above can
    sit strictly above the image while only reachable points carry it with
    a different generator component). Callers that want it should run
    check_truncated_pmorphism per stage.
    """
    if not is_pmorphism(p):
        raise NotPMorphism("universal_lift needs a p-morphism")
    if not check_mix_law(frame):
        raise MixLawViolation("universal_lift needs a mix-law frame")
    if frame.poset != p.source:
        raise NotPMorphism("frame and map disagree on the source poset")
    if free_stages[0].poset != p.target:
        raise NotPMorphism("the layers are not over the map's target poset")
    inner_depth = free_stages[0].inner_depth
    source = p.source
    maps = [p]
    for stage in free_stages[1:]:
        prev_map = maps[-1]
        cx = stage.inner_complex
        # y -> p_k[R[y]] lands in the upsets of the previous stage; at
        # stage 1 the raw image is already an upset (exact back condition
        # of p plus the mix law), deeper stages need the closure to absorb
        # truncation-spurious points above the image
        images = []
        for y in range(source.n):
            raw = prev_map.image_mask(frame.rel[y])
            img = stage.prev.up_close(raw)
            if stage.index == 1 and img != raw:
                raise NotPMorphism(
                    "successor image not an upset at stage 1; the seed map "
                    "is not a p-morphism for the frame"
                )
            images.append(img)
        inner = [stage.upsets.index_of_mask(img) for img in images]
        for level in range(2, inner_depth + 1):
            inner = cx.lift_level(level, inner, source.up)
        inner_n = cx.stages[inner_depth].n
        assign = [p.assign[y] * inner_n + inner[y] for y in range(source.n)]
        nxt = PosetMap(source, stage.poset, assign)
        if not is_monotone(nxt):
            raise NotPMorphism(
                f"constructed coordinate {stage.index} is not monotone"
            )
        # step condition: x R y forces the lifted x to step to the lifted y
        for x in range(source.n):
            for y in iter_bits(frame.rel[x]):
                if not (stage.rel[assign[x]] >> prev_map.assign[y]) & 1:
                    raise NotPMorphism(
                        f"step condition fails at stage {stage.index}"
                    )
        maps.append(nxt)
    return maps


@dataclass
class StageReport:
    """Pass/fail per structural property of one layer, with witnesses."""

    stage_index: int
    checks: dict = field(default_factory=dict)
    counterexamples: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(self.checks.values())

    def record(self, name, passed, witness=None):
        self.checks[name] = passed
        if not passed and witness is not None:
            self.counterexamples[name] = witness


def check_modal_stage_properties(stage, caps=DEFAULT_CAPS):
    """Structural facts about a built layer: monotone projection, the step
    relation is upset-valued, and box along it carries upsets of the
    previous layer to upsets of this one. The upsets are read from
    up_functor under caps, the value the layer was built from, so more
    than caps.max_stage of them raise StageTooLarge."""
    report = StageReport(stage.index)
    report.record("projection-monotone", is_monotone(stage.projection))
    if stage.rel is None:
        return report
    prev = stage.prev
    # a step mask depends only on the inner element, so few are distinct
    upsets = set(filter(prev.is_upset, set(stage.rel)))
    ok = [*map(upsets.__contains__, stage.rel)]
    bad = None if all(ok) else stage.poset.labels[ok.index(False)]
    report.record("step-images-are-upsets", bad is None, bad)
    box_ok = True
    witness = None
    for mask in up_functor(prev, caps).masks:
        if not stage.poset.is_upset(box_mask(stage, mask)):
            box_ok = False
            witness = mask
            break
    report.record("box-preserves-upsets", box_ok, witness)
    return report
