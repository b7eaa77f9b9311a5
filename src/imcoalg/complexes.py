"""Rooted-stage complexes and the unique lifting of monotone maps.

A stage over a map r: B -> B0 is the poset of nonempty subsets of B that
are rooted (contain a least member) and open relative to r, ordered by
reverse inclusion, together with the map sending each subset back to its
root. Iterating stages along successive root maps yields a complex; a
depth-n tower is a compatible chain of stage elements, and a monotone map
f: X -> Y lifts to a tower map with coordinates

    f_1 = f,    f_{l+1}(x) = f_l[up-set of x].

A materialized stage is a MaskPoset over the previous stage, whose
``masks`` list its elements by member mask in ascending order; the complex
keeps no other copy of them. Over such a base (or Up(P), also a MaskPoset
with ascending masks) no element lies above one of higher index, so the
elements rooted at r are exactly those whose masks lie in
[2^r, 2^(r+1)): ascending mask order lists the elements root by root,
which build_p_g relies on to list a stage one sorted run per root.

A tower map into a materialized complex is held as stage indices only:
coordinate l+1 at x is the element whose member mask is the OR of
1 << f_l(y) over y >= x, found by one bisection (Complex.lift_level).
check_limit_pmorphism never lists towers: on a compatible tower map a
depth-n tower is its stage-n element, so the truncated back condition is
poset.back_up_to on the stage-n coordinate keyed by the root map, the
kernel freealg.check_truncated_pmorphism also uses. An incompatible map
fails. Over a stage 2 of 2 693 elements it takes about 10 µs in process
on a 2-core Xeon host, against 9 ms for the scan over every tower.

Where no stage is materialized, the frame and bisimulation checks lift
the masks R[x] themselves as nested values (an element of level l+1 is
the frozenset of the level-l values over an up-set, tower_coords), so
they never build Up(P).

Those checks compare the image of one lift with another lift, and the
direct image commutes with the lift: if level l+1 over a source is
mask_labels(source.up, level l), its image under a map is
mask_labels(source.up, image of level l). image_tower_agrees therefore
maps each point's level-1 value once and lifts the images, one
mask_labels call per level, instead of pushing every nested value through
the map.

Along a p-morphism, level 1 decides every level (naturality). Let f be a
p-morphism, so f[up(x)] = up(f(x)), and let both sides be lifted by
L_{l+1}(x) = {L_l(x') : x' >= x}. If the image of level l at every x is
the target's level l at f(x), T_l(f(x)), then the image of level l+1 at x
is {T_l(f(x')) : x' >= x} = {T_l(t) : t in f[up(x)]} =
{T_l(t) : t >= f(x)} = T_{l+1}(f(x)). So a square whose map is a
p-morphism commutes at every depth iff it commutes at level 1.
bisim.coalgebraic_bisim_check refuses projections that are not
p-morphisms, so it compares level 1 only and lifts nothing: `bisim
--depth 2` on chains of 400 and 401 points with R[x] = up(x + 1) takes
0.45 s as a process on a 2-core Xeon host (1.2 s with the relation
poset lifted to depth 2), and on two chains of 120 points without modal
successors 0.28 s against 62 s.
"""

from dataclasses import dataclass, field
from itertools import repeat
from operator import ge, invert, lshift, or_

from .config import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    EnumerationTooLarge,
    LiftOutsideStage,
    NotMonotone,
    StageTooLarge,
    UnknownLabel,
)
from .heyting import up_functor
from .poset import (
    Poset,
    PosetMap,
    all_open,
    back_up_to,
    is_monotone,
    image,
    iter_bits,
    mask_labels,
    monotone_assignments,
    open_table,
    sorted_index,
    terminal_map,
)


@dataclass(frozen=True)
class RootedStage:
    """One stage: rooted relatively-open subsets of the base, plus root map.

    The stage poset is a MaskPoset, the only record of the base and the
    member masks; ``base`` and ``member_masks`` read them from it."""

    poset: Poset
    root_map: PosetMap

    @property
    def base(self):
        return self.poset.base

    @property
    def member_masks(self):
        return self.poset.masks


def build_p_g(g, caps=DEFAULT_CAPS, stage_index=2):
    """All nonempty rooted g-open subsets of g's source, reverse-inclusion
    ordered, with the root map back to the source.

    A rooted subset is its root plus a choice of elements above it, so the
    candidate space is sum over x of 2^(|up(x)|-1); that count is capped
    before any search, and so is the resulting stage size. Each root's
    subsets are built as one list of masks (its run), one decision level
    at a time, by C-level map and filter passes. A root whose open_table
    row is empty (g is constant on up(root)) takes every such choice
    untested. Every submask of the lowest contiguous block of bits of
    rest = up(root) minus the root is a multiple of its lowest bit low up
    to the block, so such a run doubles only over the bits of rest outside
    the block, lowest first, OR-ing each bit into a copy, and each outer
    value o it gets (the root and a choice of those bits) heads the range
    o, o + low, ..., o + block. The block lies below every outer bit and
    every value holds the root bit, so the ranges, taken in ascending o,
    list the run in ascending order for any source; over Up(P) a run is a
    few ranges. Over a terminal map that is every root. For other
    roots the elements above are decided from the top down (by |up(e)|),
    so when an element is taken, everything above it is already decided:
    the take branch keeps the partial subsets that meet each of its fibre
    masks. The leave-out branch keeps those that still meet each of the
    root's own fibre masks holding the element, among the included and
    undecided elements, so every subset left after the last level is
    open; such a run is sorted on its own.

    When no up row of the source has a bit above its own index, as in
    every MaskPoset with ascending masks (every stage, Up(P)), root r's
    subsets all lie in [2^r, 2^(r+1)), so the runs, taken in root order,
    are already the stage in ascending mask order, and the root map is r
    repeated over run r. Any other source (a raw poset, labelled
    naturally or not) sorts the (mask, root) pairs once
    (_sorted_by_mask).

    The stage poset is carried by the member masks (Poset.over_masks):
    its order rows (containment_rows) are built the first time something
    reads them, such as the next stage's build, a lift or the DOT
    writer's covers, and its labels, the frozensets of the members' base
    labels, the first time something reads those, such as the DOT and
    JSON writers. The text `complex` report reads neither for its deepest
    stage. Every root index is in range by construction, so the root map
    is built trusted; verify_complex re-checks each element against it.
    """
    base = g.source
    n = base.n
    total = 0
    for i in range(n):
        total += 1 << (base.up[i].bit_count() - 1)
        if total > caps.max_candidates:
            raise StageTooLarge(
                stage_index, f"more than {caps.max_candidates} candidate subsets"
            )
    _, needs = open_table(g)
    up = base.up
    masks = []
    roots = []

    def too_large():
        return StageTooLarge(
            stage_index, f"more than {caps.max_stage} elements"
        )

    for root in range(n):
        rest = up[root] & ~(1 << root)
        run = [1 << root]
        if not needs[root]:
            # g is constant on up(root), so no element there needs anything
            if len(masks) + (1 << rest.bit_count()) > caps.max_stage:
                raise too_large()
            low = rest & -rest or 1  # 1 when rest is empty: ranges of one
            block = ((rest + low) & ~rest) - low  # rest's lowest bit block
            for e in iter_bits(rest & ~block):
                run += list(map(or_, run, repeat(1 << e)))
            outers, run = run, []
            for outer in outers:
                run += range(outer, outer + block + low, low)
        else:
            order = sorted(iter_bits(rest), key=lambda e: up[e].bit_count())
            later = [0] * len(order)  # the elements decided after order[k]
            for k in range(len(order) - 1, 0, -1):
                later[k - 1] = later[k] | 1 << order[k]
            for k, e in enumerate(order):
                # leaving e out can only starve a root need holding e, and
                # not one that an element decided later still meets
                kept = run
                for need in needs[root]:
                    if need >> e & 1 and not need & later[k]:
                        kept = filter(need.__and__, kept)
                taken = run
                for need in needs[e]:
                    taken = filter(need.__and__, taken)
                taken = list(map(or_, taken, repeat(1 << e)))
                if kept is not run:
                    run = list(kept)
                run += taken
                if len(masks) + len(run) > caps.max_stage:
                    # a partial meeting every root need has at least one
                    # leaf: the one leaving out every element still
                    # undecided
                    met = run
                    for need in needs[root]:
                        met = filter(need.__and__, met)
                    if len(masks) + len(list(met)) > caps.max_stage:
                        raise too_large()
            run.sort()
        masks += run
        roots += repeat(root, len(run))

    if any(map(ge, up, map(lshift, repeat(2), range(n)))):
        # some up row has a bit above its own index
        masks, roots = _sorted_by_mask(masks, roots)
    masks = tuple(masks)
    stage_poset = Poset.over_masks(masks, base)
    root_map = PosetMap(stage_poset, base, roots, _trusted=True)
    return RootedStage(stage_poset, root_map)


def _sorted_by_mask(masks, roots):
    """The (mask, root) pairs in ascending mask order, as two lists: the
    one global sort of a stage whose runs may interleave."""
    pairs = sorted(zip(masks, roots))
    return [m for m, _ in pairs], [r for _, r in pairs]


class Complex:
    """Stages P_0..P_n joined by root maps r_i: P_i -> P_{i-1}, with r_1 = g.

    P_0 is g's target and P_1 its source; every deeper stage is the rooted
    stage over the previous root map, a MaskPoset whose ``masks`` list its
    elements by ascending member mask over the stage below.
    """

    def __init__(self, stages, root_maps):
        self.stages = stages
        self.root_maps = root_maps  # index i >= 1 is r_i; [0] is None

    @property
    def depth(self):
        return len(self.stages) - 1

    def is_terminal(self):
        return self.stages[0].n == 1

    def lift_level(self, level, below, rows):
        """Per row, the index of the stage-``level`` element whose members
        are the images under ``below`` (stage level-1 indices over some
        source) of the row's bits; LiftOutsideStage when that set is not an
        element of the stage. With the source's up-set rows this is the
        lift recursion f_{l+1}(x) = f_l[up(x)]."""
        bits = [1 << t for t in below]
        masks = self.stages[level].masks
        out = []
        for row in rows:
            i = sorted_index(masks, image(bits, row))
            if i is None:
                raise LiftOutsideStage(
                    f"image is not an element of stage {level}"
                )
            out.append(i)
        return out

    def level_zero(self, source, first):
        """The level-0 coordinate of a tower map whose level-1 coordinate
        over ``source`` is the stage-1 assignment ``first``: r_1 after it,
        so that the two form a tower at every point."""
        roots = self.root_maps[1].assign
        return PosetMap(
            source, self.stages[0], [roots[t] for t in first], _trusted=True
        )

    def tower_of(self, idx, depth=None):
        """The compatible chain determined by an element of stage depth
        (default: the deepest), as a tuple of stage indices from stage 0."""
        depth = self.depth if depth is None else depth
        chain = [0] * (depth + 1)
        chain[depth] = idx
        for i in range(depth, 0, -1):
            chain[i - 1] = self.root_maps[i].assign[chain[i]]
        return tuple(chain)


def build_complex(g, depth, caps=DEFAULT_CAPS):
    """Iterate rooted stages along root maps up to the requested depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > caps.max_depth:
        raise CapExceeded(f"depth {depth} exceeds cap {caps.max_depth}")
    stages = [g.target, g.source]
    root_maps = [None, g]
    while len(stages) <= depth:
        st = build_p_g(root_maps[-1], caps, stage_index=len(stages))
        stages.append(st.poset)
        root_maps.append(st.root_map)
    return Complex(stages, root_maps)


def terminal_complex(p, depth, caps=DEFAULT_CAPS):
    return build_complex(terminal_map(p), depth, caps)


# -- nested tower values (no stage materialization) -------------------------


def tower_coords(source, first, depth):
    """Lift coordinates over a source poset as nested values.

    Returns a list indexed by level 1..depth; entry l is a tuple over source
    elements. Level 1 holds the given values (target indices of a map, or
    upset masks), level l+1 the direct image of level l over the source's
    principal upsets. A depth below 1 raises ValueError.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels = [tuple(first)]
    for _ in range(depth - 1):
        levels.append(tuple(mask_labels(source.up, levels[-1])))
    return levels


def image_tower_agrees(source, images, target_levels, assign):
    """Whether a map carries the lift over ``source`` onto the target's
    lift levels: at every level l, the image of x's level-l value equals
    ``target_levels[l - 1][assign[x]]``.

    ``images[x]`` is the image of x's level-1 value. The direct image
    commutes with the lift: level l+1 over the source is
    mask_labels(source.up, level l), so its image is
    mask_labels(source.up, image of level l). The images are therefore
    lifted by one mask_labels call per level, each only after the level
    below has agreed, and no nested value is ever pushed through the map.
    """
    images = list(images)
    for level, target in enumerate(target_levels):
        if level:
            images = mask_labels(source.up, images)
        if images != [target[t] for t in assign]:
            return False
    return True


# -- tower maps --------------------------------------------------------------


class TowerMap:
    """Depth-indexed family of coordinate maps approximating a lifted
    p-morphism into the inverse limit of a materialized complex.

    ``maps[l]`` (0 <= l <= depth) is the level-l coordinate as a PosetMap
    from the source into stage l, the stage-0 coordinate included.
    """

    def __init__(self, source, complex, depth, maps):
        self.source = source
        self.complex = complex
        self.base = complex.stages[1]
        self.depth = depth
        self.maps = tuple(maps)

    @classmethod
    def from_map(cls, f, depth, complex):
        """The lift of f (a map into stage 1) to the given depth, one
        Complex.lift_level lookup per level. Level 0 is the root map of
        stage 1 after f (the constant map over a terminal complex)."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > complex.depth:
            raise UnknownLabel("complex not built deep enough")
        src = f.source
        maps = [complex.level_zero(src, f.assign), f]
        for level in range(2, depth + 1):
            assign = complex.lift_level(level, maps[-1].assign, src.up)
            maps.append(PosetMap(src, complex.stages[level], assign))
        return cls(src, complex, depth, maps)

    @property
    def base_map(self):
        """The level-1 coordinate as a PosetMap into the base."""
        return self.maps[1]

    def coords_monotone(self):
        return all(is_monotone(m) for m in self.maps[1:])

    def compatible(self):
        """The root of each coordinate's element is the previous
        coordinate, so the coordinates at every point form a tower."""
        for level in range(1, self.depth + 1):
            roots = self.complex.root_maps[level].assign
            prev = self.maps[level - 1].assign
            for x, i in enumerate(self.maps[level].assign):
                if roots[i] != prev[x]:
                    return False
        return True

    def _key(self):
        return (
            self.source,
            self.base,
            self.depth,
            tuple(m.assign for m in self.maps),
        )

    def __eq__(self, other):
        return isinstance(other, TowerMap) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def lift_map(f, complex, depth=None):
    """The unique tower map extending a monotone map, to the given depth.

    Coordinates follow the recursion f_1 = f, f_{l+1}(x) = f_l[up(x)], each
    looked up in the materialized stage (LiftOutsideStage would mean the
    recursion produced a non-member, which the lifting result rules out).
    """
    if not is_monotone(f):
        raise NotMonotone("lift_map needs a monotone map")
    if not complex.is_terminal():
        raise UnknownLabel("lift_map expects a complex over the terminal map")
    if f.target != complex.stages[1]:
        raise UnknownLabel("complex is not over the map's target")
    depth = complex.depth if depth is None else depth
    return TowerMap.from_map(f, depth, complex)


def check_limit_pmorphism(t, depth=None):
    """Truncated back condition: every tower coordinatewise above the image
    of x is hit, up to one level below the truncation, from some point
    above x.

    The deepest coordinate acts as an extension certificate only: a depth-n
    tower above the image whose extensions all die out is no witness against
    the limit map being a p-morphism (the limit argument reaches level n
    agreement from constraints at level n+1), so the witness is required to
    agree on coordinates 0..n-1.

    On a compatible tower map (TowerMap.compatible) a depth-n tower is its
    stage-n element c, and it lies above x's coordinates iff c lies above
    x's stage-n coordinate, since the root maps are monotone. A point
    agrees with it on 0..n-1 iff its stage-n coordinate has the root
    r_n(c), so the check is back_up_to keyed by r_n. An incompatible map
    fails: its coordinates at some point form no tower.
    A depth below 1 raises ValueError.
    """
    depth = t.depth if depth is None else depth
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > t.depth:
        raise UnknownLabel("tower map not built deep enough")
    if not t.compatible():
        return False
    return back_up_to(
        t.source.up,
        t.maps[depth].assign,
        t.complex.stages[depth].up,
        t.complex.root_maps[depth].assign,
    )


def enumerate_tower_maps(source, complex, depth, base_map=None, caps=DEFAULT_CAPS):
    """All coordinate-compatible monotone tower maps from source into the
    complex, optionally with a fixed level-1 coordinate.

    Level 1 is every monotone map into stage 1 (or base_map), and level 0
    the root map r_1 after it (Complex.level_zero); each deeper
    level is one monotone_assignments search whose candidates for x are the
    stage elements rooted at x's coordinate one level down (a fibre of the
    root map). The maps come out depth first, every level in lexicographic
    order; EnumerationTooLarge is raised on the map past caps.max_enumeration,
    and ValueError on a depth below 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > complex.depth:
        raise UnknownLabel("complex not built deep enough")
    stages = complex.stages
    fibres = {lv: complex.root_maps[lv].fibres() for lv in range(2, depth + 1)}
    if base_map is not None:
        firsts = [base_map.assign]
    else:
        firsts = monotone_assignments(source, stages[1])

    def chains(chain):
        level = len(chain) + 1
        if level > depth:
            yield chain
            return
        allowed = [fibres[level][t] for t in chain[-1]]
        for a in monotone_assignments(source, stages[level], allowed):
            yield from chains(chain + (a,))

    out = []
    for first in firsts:
        for chain in chains((first,)):
            if len(out) == caps.max_enumeration:
                raise EnumerationTooLarge("too many tower maps")
            maps = [complex.level_zero(source, first)] + [
                PosetMap(source, stages[lv], a)
                for lv, a in enumerate(chain, 1)
            ]
            out.append(TowerMap(source, complex, depth, maps))
    return out


@dataclass
class AdjunctionReport:
    """Outcome of the lift/project bijection check between monotone maps and
    limit-p-morphism tower maps."""

    source: Poset
    target: Poset
    depth: int
    monotone_maps: int = 0
    tower_maps: int = 0
    limit_pmorphisms: int = 0
    roundtrip_failures: list = field(default_factory=list)
    uniqueness_failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.roundtrip_failures and not self.uniqueness_failures

    def summary(self):
        status = "ok" if self.ok else "FAILED"
        return (
            f"adjunction({self.source.n}x{self.target.n}, depth {self.depth}): "
            f"{self.monotone_maps} monotone maps, {self.tower_maps} tower maps, "
            f"{self.limit_pmorphisms} limit p-morphisms, "
            f"{len(self.roundtrip_failures)} roundtrip / "
            f"{len(self.uniqueness_failures)} uniqueness failures [{status}]"
        )


def check_adjunction(source, target, depth, caps=DEFAULT_CAPS):
    """Verify both directions of the lifting bijection by enumeration.

    Every monotone f: source -> target lifts to a tower map whose level-1
    coordinate is f again, and every coordinate-compatible monotone tower
    map passing the limit back condition is the lift of its own level-1
    coordinate.
    """
    if target.n ** source.n > caps.max_enumeration:
        raise EnumerationTooLarge(
            f"{target.n}^{source.n} maps exceeds cap {caps.max_enumeration}"
        )
    cx = terminal_complex(target, depth, caps)
    report = AdjunctionReport(source, target, depth)
    for assign in monotone_assignments(source, target):
        f = PosetMap(source, target, assign)
        report.monotone_maps += 1
        lifted = lift_map(f, cx, depth)
        if lifted.base_map.assign != f.assign:
            report.roundtrip_failures.append(f)
    for t in enumerate_tower_maps(source, cx, depth, caps=caps):
        report.tower_maps += 1
        if not check_limit_pmorphism(t, depth):
            continue
        report.limit_pmorphisms += 1
        relift = lift_map(t.base_map, cx, depth)
        if relift != t:
            report.uniqueness_failures.append(t)
    return report


def intuitionistic_lift(p, depth, caps=DEFAULT_CAPS):
    """The terminal complex over Up(p) (heyting.up_functor under caps): the
    depth-truncated intuitionistic lifting of the upset functor."""
    return build_complex(terminal_map(up_functor(p, caps)), depth, caps)


def verify_complex(cx):
    """Re-check, post construction, that every stage element is rooted at
    its recorded root and open relative to the incoming map.

    A stage whose mask list and root map differ in length fails. Rooted:
    the root is a member and every member lies above it, which by
    antisymmetry makes it the least member. Every up row holds its own bit
    (a poset's rows are reflexive), so with keep[r] = ~up[r] | 1 << r that
    is mask & keep[root] == 1 << root, read from two tables built once per
    stage: one AND and one compare per element. Open: read off the
    incoming map's openness table on bit planes over the whole stage
    (all_open), built once per stage and only when some element of the
    stage below has fibre masks to meet (never over a terminal map). Only
    the order rows of the stages below the deepest are read.
    """
    for i in range(2, len(cx.stages)):
        up = cx.stages[i - 1].up
        roots = cx.root_maps[i].assign
        masks = cx.stages[i].masks
        if len(masks) != len(roots):
            return False
        bit = [*map(lshift, repeat(1), range(len(up)))]
        keep = [*map(or_, map(invert, up), bit)]
        for mask, root in zip(masks, roots):
            if mask & keep[root] != bit[root]:
                return False
        if not all_open(masks, open_table(cx.root_maps[i - 1])):
            return False
    return True
