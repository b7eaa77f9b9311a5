"""Relational bisimulations between modal frames, the greatest bisimulation
(also the one that respects two valuations), the coalgebraic cross-check,
and distinguishing formulas for unrelated points.

A bisimulation must satisfy forth and back clauses for both the order and
the modal relation. The coalgebraic side orders the relation's pairs
componentwise (the relation poset), endows them with the structure map
b = (x, y) -> (R[x] x R[y]) restricted to the relation, and demands that
both projection squares commute coordinatewise on the lifts. The two sides
are one check read two ways. Both projections are p-morphisms iff the
order clauses hold (_failing_projection), and then level 1 decides every
level above it, where the squares are the modal clauses (_modal_clauses).
is_box_bisimulation and coalgebraic_bisim_check both read those two
kernels off the relation's rows; neither builds the relation poset or
lifts anything. Three of the four clauses are one forth kernel
(_forth_clause) read on the down-sets or the modal predecessors.

A relation is held as rows, like every relation in the package: rows[x]
masks the right-hand partners of left point x. Its columns come from
poset.transpose, and the unions the clauses need from poset.image. The
converse of a frame's modal relation is the frame's own ``pre``, built
once per frame however many checks read it.

The greatest bisimulation is found by partition refinement on the disjoint
sum of the two frames (Kanellakis & Smolka 1990; Paige & Tarjan 1987). On
one frame the largest bisimulation is an equivalence, the coarsest
partition stable under both the order and the modal relation; restricted
to left x right points it is the largest bisimulation between the two
frames.
"""

from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    IncompatibleValuations,
    ProjectionNotPMorphism,
    UnknownLabel,
)
from .frames import ModalFrame, require_mix_law
from .logic import Model, first_formulas, truth_mask
from .poset import Poset, image, iter_bits, pairs_of, transpose


@dataclass(frozen=True)
class Bisimulation:
    """A relation between the carriers of two modal frames.

    ``rows[x]`` masks the right-hand points related to left point x; rows
    given as any sequence are stored as a tuple. A row count other than
    the left carrier's size, or a row with bits outside the right carrier,
    raises UnknownLabel. Use from_pairs for index pairs and from_labels
    for label pairs; ``pairs`` is the same relation as a frozenset of
    index pairs.
    """

    left: ModalFrame
    right: ModalFrame
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) != self.left.poset.n:
            raise UnknownLabel(
                f"relation has {len(rows)} rows for {self.left.poset.n} "
                "left-hand elements"
            )
        full = self.right.poset.full_mask
        for row in rows:
            if row & ~full:
                raise UnknownLabel(
                    f"relation row {row:#x} leaves the right-hand carrier"
                )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_pairs(cls, left, right, pairs):
        nl, nr = left.poset.n, right.poset.n
        rows = [0] * nl
        for x, y in pairs:
            if not (0 <= x < nl and 0 <= y < nr):
                raise UnknownLabel(f"index pair {(x, y)} out of range")
            rows[x] |= 1 << y
        return cls(left, right, rows)

    @classmethod
    def from_labels(cls, left, right, label_pairs):
        index_l, index_r = left.poset.index, right.poset.index
        pairs = [(index_l(a), index_r(b)) for a, b in label_pairs]
        return cls.from_pairs(left, right, pairs)

    @classmethod
    def full(cls, left, right):
        return cls(left, right, [right.poset.full_mask] * left.poset.n)

    @property
    def pairs(self):
        """The relation as a frozenset of index pairs (x, y)."""
        return frozenset(pairs_of(self.rows))

    def related(self, x, y):
        return (self.rows[x] >> y) & 1 == 1

    def label_pairs(self):
        return sorted(
            (self.left.poset.labels[x], self.right.poset.labels[y])
            for x, y in self.pairs
        )


def _forth_clause(below, other_below, rows):
    """Whether the relation ``rows`` meets a forth clause: for every left
    point x2, each partner of a point of below[x2] lies in
    image(other_below, rows[x2]). With the down-sets as ``below`` this is
    the order forth clause (each partner y of an x <= x2 lies below a
    partner of x2); with the modal predecessors ``pre`` it is the modal
    one (each partner y of an x with x R x2 has a modal successor related
    to x2). One image per side and point, and no loop over pairs."""
    for x2, row in enumerate(rows):
        if image(rows, below[x2]) & ~image(other_below, row):
            return False
    return True


def _modal_clauses(bis):
    """The modal forth clause on the rows and the modal back clause, the
    forth clause of the converse, on the columns."""
    left, right, rows = bis.left, bis.right, bis.rows
    return _forth_clause(left.pre, right.pre, rows) and _forth_clause(
        right.pre, left.pre, transpose(rows, right.poset.n)
    )


def _failing_projection(bis):
    """The first of "left" and "right" whose projection from the relation
    poset is not a p-morphism, or None when both are: the order forth and
    back clauses, in that order.

    The relation poset holds the related pairs, ordered componentwise.
    Both projections are monotone, and ↑(x, y) holds the related pairs
    (x2, y2) with x <= x2 and y <= y2. The left projection maps it onto ↑x
    iff each x2 >= x is related to some point above y, that is, iff y lies
    below a point of rows[x2]: so it is a p-morphism iff the order forth
    clause holds (_forth_clause on the down-sets). The right projection
    maps ↑(x, y) onto ↑y iff each y2 >= y is related to some point above
    x, the order back clause, that is, iff ↑y lies inside image(rows, ↑x):
    so it is one iff, for every left point x, the up-closure of rows[x]
    does, which needs no columns. Four images per left point in all, where
    is_pmorphism on the relation poset grows with the square of the
    relation.
    """
    lp, rp, rows = bis.left.poset, bis.right.poset, bis.rows
    if not _forth_clause(lp.down, rp.down, rows):
        return "left"
    for x, row in enumerate(rows):
        if image(rp.up, row) & ~image(rows, lp.up[x]):
            return "right"
    return None


def is_box_bisimulation(bis):
    """All four clauses (forth/back, for order and modal relation) hold:
    both projections from the relation poset are p-morphisms (the order
    clauses, _failing_projection) and the modal clauses hold
    (_modal_clauses). coalgebraic_bisim_check reads the same two kernels."""
    return _failing_projection(bis) is None and _modal_clauses(bis)


def _coarsest_stable(left, right, blocks):
    """The largest bisimulation between two frames, read off the coarsest
    partition of their disjoint sum that refines ``blocks`` and is stable
    under the order and the modal relation.

    Blocks are masks over the sum, left points first. A partition is
    stable when, for every block B, each block lies wholly inside or
    wholly outside the points below some point of B (the down-image) and
    the points with a modal successor in B (the modal pre-image); the
    bisimilar points are then exactly the points of one block. Each
    splitter cuts every block by both images, and both halves of a split
    block become splitters in turn, so every final block has been a
    splitter and the final partition is stable. A splitter is always a
    union of classes of the largest bisimulation inside the start, so no
    cut separates two of its points.
    """
    n = left.poset.n
    down = list(left.poset.down) + [row << n for row in right.poset.down]
    pre = list(left.pre) + [row << n for row in right.pre]
    work = list(blocks)
    while work:
        splitter = work.pop()
        for cut in (image(down, splitter), image(pre, splitter)):
            kept = []
            for block in blocks:
                inside = block & cut
                if inside and inside != block:
                    halves = (inside, block ^ inside)
                    kept += halves
                    work += halves
                else:
                    kept.append(block)
            blocks = kept
    rows = [0] * n
    for block in blocks:
        for x in iter_bits(block & left.poset.full_mask):
            rows[x] = block >> n
    return Bisimulation(left, right, rows)


def largest_bisimulation(left, right):
    """The greatest bisimulation between two frames: partition refinement
    on their disjoint sum from a single block."""
    full = (1 << (left.poset.n + right.poset.n)) - 1
    return _coarsest_stable(left, right, [full])


def largest_model_bisimulation(model_left, model_right):
    """The largest bisimulation between the frames of two models whose
    related points satisfy the same letters: refinement starts from the
    blocks of points that agree on every letter valued on both sides."""
    n = model_left.poset.n
    blocks = [(1 << (n + model_right.poset.n)) - 1]
    lv, rv = model_left.valuation, model_right.valuation
    for letter in lv.keys() & rv.keys():
        truth = lv[letter] | rv[letter] << n
        blocks = [
            half for block in blocks
            for half in (block & truth, block & ~truth) if half
        ]
    return _coarsest_stable(model_left.frame, model_right.frame, blocks)


def coalgebraic_bisim_check(bis, depth=2, caps=DEFAULT_CAPS):
    """Whether the relation carries a mediating coalgebra whose projection
    squares commute coordinatewise up to the given depth.

    The relation poset holds the related pairs, ordered componentwise. The
    structure map sends (x, y) to (R[x] x R[y]) intersected with the
    relation, as an upset of the relation poset; the projections act on
    upsets by direct image. Projections that fail the p-morphism condition
    raise ProjectionNotPMorphism: such a relation is not a functor
    bisimulation in the p-morphism category at all. A depth below 1 raises
    ValueError, and one above caps.max_depth CapExceeded, before anything
    else; a frame that breaks the mix law raises MixLawViolation, the left
    one first, after the projections and before any square is compared.

    Once both projections are p-morphisms, every level past 1 agrees when
    level 1 does (the naturality lemma in the complexes module), so the
    squares are decided at level 1 whatever the depth. There the left
    projection's image of the structure map at (x, y) is the part of R[x]
    related to some point of R[y], and the square asks for all of R[x]:
    every modal successor of x has a partner among the modal successors of
    y, the modal forth clause. The right square is the modal back clause.
    So the check reads the two kernels of is_box_bisimulation: the order
    clauses (_failing_projection) and the modal clauses (_modal_clauses),
    with no relation poset built and nothing lifted.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > caps.max_depth:
        raise CapExceeded(f"depth {depth} exceeds cap {caps.max_depth}")
    side = _failing_projection(bis)
    if side is not None:
        raise ProjectionNotPMorphism(side)
    require_mix_law(bis.left)
    require_mix_law(bis.right)
    return _modal_clauses(bis)


def saturated_valuation(bis, left_seed=0, right_seed=0):
    """Smallest pair of upsets containing the seeds on which related points
    agree: close upward on both sides and saturate along the relation until
    stable. Produces valuations compatible with the relation by
    construction."""
    lp, rp = bis.left.poset, bis.right.poset
    rows, cols = bis.rows, transpose(bis.rows, rp.n)
    lm, rm = left_seed, right_seed
    while True:
        nl = lp.up_close(lm)
        nr = rp.up_close(rm) | image(rows, nl)
        nl |= image(cols, nr)
        if (nl, nr) == (lm, rm):
            return lm, rm
        lm, rm = nl, nr


def _compatible(bis, model_left, model_right):
    """Every letter is valued on both sides, and related points agree on
    it: the relation maps the letter's truth set into the right-hand one
    and its complement into the complement."""
    outside = bis.left.poset.full_mask
    for letter in set(model_left.valuation) | set(model_right.valuation):
        lv = model_left.valuation.get(letter)
        rv = model_right.valuation.get(letter)
        if lv is None or rv is None:
            return False
        if image(bis.rows, lv) & ~rv or image(bis.rows, outside & ~lv) & rv:
            return False
    return True


def bisimilarity_preserves_truth(model_left, x, model_right, y, formulas):
    """Agreement of two bisimilar points on a list of formulas.

    The valuations must be compatible with the largest bisimulation
    (related points satisfy the same letters) and the points related by it.
    """
    bis = largest_bisimulation(model_left.frame, model_right.frame)
    xi = model_left.poset.index(x)
    yi = model_right.poset.index(y)
    if not bis.related(xi, yi):
        raise IncompatibleValuations(f"points {x!r} and {y!r} are not bisimilar")
    if not _compatible(bis, model_left, model_right):
        raise IncompatibleValuations(
            "valuations disagree on some bisimilar pair"
        )
    return (
        distinguishing_formula(model_left, x, model_right, y, formulas) is None
    )


def _disjoint_sum(model_left, model_right):
    """The coproduct of two models: labels tagged (0, l) and (1, l), the
    right-hand rows shifted past the n left-hand points. Only the letters
    valued on both sides are valued, so a letter missing on either side
    stays undeclared."""
    lp, rp = model_left.poset, model_right.poset
    n = lp.n
    labels = [(0, lab) for lab in lp.labels] + [(1, lab) for lab in rp.labels]
    up = list(lp.up) + [row << n for row in rp.up]
    rel = list(model_left.frame.rel) + [
        row << n for row in model_right.frame.rel
    ]
    lv, rv = model_left.valuation, model_right.valuation
    valuation = {
        letter: lv[letter] | rv[letter] << n for letter in lv.keys() & rv.keys()
    }
    return Model(ModalFrame(Poset(labels, up, _trusted=True), rel), valuation)


def _first_separating(n, pairs, candidates):
    """Per index pair (x, y), the first candidate that separates point x of
    the left model from point y of the right one, or None.

    Candidates are (formula, truth mask on the disjoint sum) pairs, each
    truth set at most once: a truth set met before separates no pair that
    is still pending. One bitmask of pending partners is kept per left
    point, and the candidates are read only while a pair is pending.
    """
    pending = {}
    for x, y in pairs:
        pending[x] = pending.get(x, 0) | 1 << y
    found = {}
    candidates = iter(candidates)
    while pending:
        item = next(candidates, None)
        if item is None:
            break
        phi, t = item
        rt = t >> n
        for x, want in list(pending.items()):
            hit = want & (~rt if (t >> x) & 1 else rt)
            if hit:
                for y in iter_bits(hit):
                    found[x, y] = phi
                if hit == want:
                    del pending[x]
                else:
                    pending[x] = want & ~hit
    return {pair: found.get(pair) for pair in pairs}


def search_distinguishing_formulas(
    model_left, model_right, pairs, letters, depth, caps=DEFAULT_CAPS
):
    """Per index pair (x, y), the first formula of the stream
    enumerate_formulas(letters, depth) on which point x of the left model
    and point y of the right model disagree, or None.

    Truth at a point depends only on the points above it and its modal
    successors, so it is the same in the disjoint sum of the two models.
    The search runs there by truth set, for all pairs at once: only the
    first formula of each truth set is built (logic.first_formulas).
    Nothing is evaluated when there are no pairs.

    caps.max_formulas bounds the connective applications, and the search
    ends early once every definable truth set has been met; CapExceeded
    names the depth whose applications would pass the cap.
    """
    model = _disjoint_sum(model_left, model_right)
    return _first_separating(
        model_left.poset.n, pairs, first_formulas(model, letters, depth, caps)
    )


def distinguishing_formula(model_left, x, model_right, y, formulas):
    """First formula in the stream on which the two points disagree, or
    None. The stream is read only until that formula; each model keeps one
    truth-set cache for the whole scan."""
    xi, yi = model_left.poset.index(x), model_right.poset.index(y)
    cache_left, cache_right = {}, {}
    for phi in formulas:
        left = (truth_mask(model_left, phi, cache_left) >> xi) & 1
        if left != (truth_mask(model_right, phi, cache_right) >> yi) & 1:
            return phi
    return None
