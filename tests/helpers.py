"""Helpers shared by the test modules: relabelled posets, label masks, the
nested-value route for tower lifts and the benchmark modules the tests
read.

``all_posets`` and ``random_poset`` label naturally (i <= j only if i <= j
as integers), so a kernel compared on their output alone never meets an
element with an earlier element above it. ``relabel`` moves the elements of
a poset to other indices, and ``move_mask`` moves a subset with them.

The nested-value route holds an element of stage l+1 as the frozenset of
the level-l values of its members (``stage_values``), so a lift is
computed value by value (``tower_coords``) and resolved to stage indices
through a value table (``nested_lift``). The library lifts by stage
indices only; this route is the oracle it is compared with.

The per-member openness route (``is_open_mask``,
``verify_complex_by_members``) tests one member mask at a time; the
library re-checks a whole stage on bit planes (``poset.all_open``). The
openness table the oracles read (``open_table_by_targets``) collects the
targets above each element one up bit at a time; the library builds it
from one column per target (``poset.open_table``).

``build_p_g_by_search`` builds a rooted stage by a depth-first search, one
(mask, root) pair per element; ``build_p_g_encoded`` builds each root's
subsets one decision level at a time as ``mask << s | root`` ints and
orders the stage by one global sort. The library builds each root's run
on plain masks and, over a source with no up row above its own index,
concatenates the runs in root order (``complexes.build_p_g``).

The generators only the tests use live here: every function between two
posets (``all_functions``), the canonical key of a poset
(``canonical_poset_key``), every mix-law frame on a poset
(``frames_on``) and the seeded random posets, upsets and mix-law frames.

The loops the ``bisim`` input path replaced are kept as oracles:
``parse_frame_file_by_lines`` checks every [order]/[modal] line step by
step and reads [nbhd] families one character at a time,
``make_poset_by_verify`` checks all three order axioms after the
closure (``Poset._verify``), and ``transpose_by_bits`` builds a converse
one bit at a time.

The truncated back condition of a tower map is kept as the scan it was
before the keyed kernel: ``check_limit_pmorphism_by_towers`` lists every
tower of stage n and looks for a witness among the points above x,
coordinate by coordinate. The library keys each stage-n element by its
root (``poset.back_up_to``). Three relation loops are kept beside it:
``covers_by_betweenness`` looks for an element between each pair,
``pairs_by_loops`` lists a relation's pairs point by point, and
``pull_back_by_bits`` pulls a neighbourhood family back one target
upset at a time through the preimage table (``preimage_table``). The
library reads all three off ``poset.image`` and ``poset.pairs_of``.

The formula layer's first parser and printer are kept as oracles:
``parse_by_descent`` has one recursive-descent method per binding level
and no length bound, and ``print_formula_by_recursion`` recurses with the
bracketing limits written out per connective. The library reads both
from the grammar entries on the node classes (``logic.parse``,
``logic.print_formula``). The other tree readers are kept in their
recursive forms too (``truth_mask_by_recursion``,
``letters_by_recursion``, ``formula_eq_by_recursion`` and
``formula_repr_by_recursion``); the library walks the tree with an
explicit stack, so the recursion limit bounds only the oracles.

The coalgebraic bisimulation check is kept as the route that compared
every level (``tower_bisim_check``): it builds the relation poset by a
dict lookup per pair (``relation_poset_by_pairs``) and the structure map
by testing every pair of pairs (``rho_by_pairs``), refuses projections
that fail ``is_pmorphism`` (``pmorphic_relation_poset``), pushes
the structure map's upsets through both projections and lifts the images
to the requested depth. The library decides level 1 only, which the
naturality lemma in ``imcoalg.complexes`` makes enough once both
projections are p-morphisms, and reads the order and modal clauses off
the relation's rows. The relational clause check is kept as one
refinement step that must remove no pair (``refine_rows``), whose
iteration is also the oracle of the greatest bisimulation.

No function here reads a private name of an ``imcoalg`` module: an oracle
that shared a kernel with the code it checks would share its faults
(``tests/test_private_reads.py``).
"""

import importlib.util
import re
import string
from itertools import permutations, product, repeat
from operator import and_, or_, rshift
from pathlib import Path

from imcoalg.complexes import RootedStage, image_tower_agrees, tower_coords
from imcoalg.config import DEFAULT_CAPS
from imcoalg.enumeration import all_posets, mix_relations
from imcoalg.errors import (
    CapExceeded,
    DuplicateLabel,
    FormulaSyntaxError,
    ParseError,
    ProjectionNotPMorphism,
    StageTooLarge,
    UnknownLabel,
    UnknownToken,
)
from imcoalg.framefile import FrameFile
from imcoalg.heyting import box_mask, impl_mask, up_functor
from imcoalg.frames import ModalFrame, frame_to_lifted, mix_closure
from imcoalg.logic import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    Formula,
    Impl,
    Or,
    Top,
    Var,
    neg,
)
from imcoalg.poset import (
    Poset,
    PosetMap,
    format_label,
    image,
    is_pmorphism,
    iter_bits,
    mask_labels,
    transpose,
)


def posets_up_to(n):
    """Every poset on 1..n elements up to isomorphism, naturally labelled."""
    return [p for k in range(1, n + 1) for p in all_posets(k)]


def relabel(p, perm):
    """p with element x moved to index perm[x]."""
    return Poset(p.labels, move_rows(p.up, perm, perm))


def relabel_frame(fr, perm):
    """fr with element x moved to index perm[x], its modal relation too."""
    return ModalFrame(relabel(fr.poset, perm), move_rows(fr.rel, perm, perm))


def move_mask(mask, perm):
    """mask with bit x moved to bit perm[x], as relabel moves elements."""
    return image([1 << t for t in perm], mask)


def move_rows(rows, perm_left, perm_right):
    """A relation between two carriers held as rows, with its left points
    moved by perm_left and its right points by perm_right."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        out[perm_left[x]] = move_mask(row, perm_right)
    return tuple(out)


def relabellings(p):
    """(perm, relabel(p, perm)) for every permutation of p's indices."""
    return [(perm, relabel(p, perm)) for perm in permutations(range(p.n))]


def labellings(p):
    """Every labelling of p (one per distinct order rows), p itself first."""
    out = {}
    for _, q in relabellings(p):
        out.setdefault(q.up, q)
    return list(out.values())


def all_functions(p, q):
    """Every map from p to q, monotone or not, in lexicographic order of
    their assignments."""
    for assign in product(range(q.n), repeat=p.n):
        yield PosetMap(p, q, assign)


def canonical_poset_key(p):
    """The least packed relation matrix of p over all its labellings: row
    i of the relabelled order at bits i*n .. i*n + n - 1."""
    return min(
        sum(row << (i * p.n) for i, row in enumerate(move_rows(p.up, q, q)))
        for q in permutations(range(p.n))
    )


def frames_on(p):
    """Every mix-law frame on p, in enumeration.mix_relations order."""
    return [ModalFrame(p, rel) for rel in mix_relations(p)]


# -- random generators (callers pass a seeded random.Random) ----------------


def random_poset(rng, n, labels=None, edge_prob=0.35):
    """A naturally labelled poset on n elements: each pair i < j is put in
    order with probability edge_prob, then closed transitively."""
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    labels = tuple(labels)[:n]
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= 1 << j
    # close transitively; i < j only, so the result is antisymmetric
    for i in range(n - 1, -1, -1):
        up[i] = image(up, up[i])
    return Poset(labels, up, _trusted=True)


def random_upset(rng, p):
    """The upward closure of a subset drawing each element with
    probability 1/2."""
    mask = 0
    for i in range(p.n):
        if rng.random() < 0.5:
            mask |= 1 << i
    return p.up_close(mask)


def random_mix_frame(rng, p, pair_prob=0.3):
    """The mix closure of a relation drawing each pair with probability
    pair_prob."""
    pairs = []
    for i in range(p.n):
        for j in range(p.n):
            if rng.random() < pair_prob:
                pairs.append((p.labels[i], p.labels[j]))
    return mix_closure(ModalFrame.from_pairs(p, pairs))


def compose(g, f):
    """g after f (f's target must be g's source)."""
    assert f.target == g.source, "composition mismatch"
    return PosetMap(f.source, g.target, [g.assign[i] for i in f.assign])


# -- the nested-value route -------------------------------------------------


def nested_image(first, level, value):
    """Apply a level-1 function coordinatewise through the nesting levels."""
    if level == 1:
        return first(value)
    return frozenset(nested_image(first, level - 1, s) for s in value)


def value_leq(base, level, a, b):
    if level == 1:
        return base.leq(a, b)
    return a >= b  # frozenset superset: reverse inclusion order


def value_root(base, level, v):
    """The least member of a level->=2 value (None if not rooted)."""
    for m in v:
        if all(value_leq(base, level - 1, m, s) for s in v):
            return m
    return None


def stage_values(cx, level):
    """The nested value of each element of stage ``level`` of a
    materialized complex: its index at level 1, the frozenset of its
    members' values above."""
    values = tuple(range(cx.stages[1].n))
    for lv in range(2, level + 1):
        values = tuple(mask_labels(cx.stages[lv].masks, values))
    return values


def nested_lift(f, cx, depth):
    """lift_map's coordinates 1..depth by the nested route: tower_coords
    of f, each level-l value looked up among the values of stage l
    (KeyError on a value off the stage)."""
    out = []
    for level, values in enumerate(tower_coords(f.source, f.assign, depth), 1):
        index = {v: k for k, v in enumerate(stage_values(cx, level))}
        out.append(tuple(index[v] for v in values))
    return out


def nested_monotone(source, base, levels):
    """Every nested lift level is monotone over the source."""
    for level, values in enumerate(levels, 1):
        for x in range(source.n):
            for y in iter_bits(source.up[x]):
                if not value_leq(base, level, values[x], values[y]):
                    return False
    return True


def nested_compatible(base, levels):
    """The root of each nested value is the value one level down."""
    for level in range(2, len(levels) + 1):
        for v, below in zip(levels[level - 1], levels[level - 2]):
            if value_root(base, level, v) != below:
                return False
    return True


def first_disagreement(first, source_levels, target_levels, assign):
    """The first level l at which pushing some x's level-l value through
    ``first`` value by value (nested_image) misses target level l at
    assign[x]; one past the last level when every level agrees. This is how
    the lifted-square checks compared before image_tower_agrees, kept as
    their oracle: a square check at depth d holds iff the result is > d."""
    levels = enumerate(zip(source_levels, target_levels), 1)
    for level, (source, target) in levels:
        for x, t in enumerate(assign):
            if nested_image(first, level, source[x]) != target[t]:
                return level
    return len(target_levels) + 1


def relation_poset_by_pairs(bis):
    """The relation as a sub-poset of the product, componentwise order,
    and its pairs in the poset's index order (sorted): a dict lookup per
    element of ↑x × ↑y."""
    chosen = sorted(bis.pairs)
    labels = [
        (bis.left.poset.labels[x], bis.right.poset.labels[y]) for x, y in chosen
    ]
    pos = {pair: i for i, pair in enumerate(chosen)}
    up_rows = []
    for x, y in chosen:
        row = 0
        for x2 in iter_bits(bis.left.poset.up[x]):
            for y2 in iter_bits(bis.right.poset.up[y]):
                j = pos.get((x2, y2))
                if j is not None:
                    row |= 1 << j
        up_rows.append(row)
    return Poset(labels, up_rows, _trusted=True), chosen


def rho_by_pairs(bis, chosen):
    """The structure map (x, y) -> (R[x] x R[y]) restricted to the
    relation, as masks over the chosen pairs, by testing every pair of
    chosen pairs."""
    lrel, rrel = bis.left.rel, bis.right.rel
    rho_masks = []
    for x, y in chosen:
        m = 0
        for j, (x2, y2) in enumerate(chosen):
            if (lrel[x] >> x2) & 1 and (rrel[y] >> y2) & 1:
                m |= 1 << j
        rho_masks.append(m)
    return rho_masks


def pmorphic_relation_poset(bis):
    """The relation poset, its pairs and its left and right projections.
    A projection that fails is_pmorphism raises ProjectionNotPMorphism,
    the left one first."""
    bp, chosen = relation_poset_by_pairs(bis)
    projections = (
        PosetMap(bp, bis.left.poset, [x for x, _ in chosen]),
        PosetMap(bp, bis.right.poset, [y for _, y in chosen]),
    )
    for side, proj in zip(("left", "right"), projections):
        if not is_pmorphism(proj):
            raise ProjectionNotPMorphism(side)
    return bp, chosen, projections


def failing_projection_by_pmorphism(bis):
    """The first of "left" and "right" whose projection from the relation
    poset fails is_pmorphism, or None when both pass."""
    try:
        pmorphic_relation_poset(bis)
    except ProjectionNotPMorphism as exc:
        return exc.side
    return None


def tower_bisim_check(bis, depth, caps=DEFAULT_CAPS):
    """bisim.coalgebraic_bisim_check as it compared every level, kept as its
    oracle: the relation poset is built, the structure map's upsets of it
    are pushed through each projection, and their images are lifted to
    ``depth`` and compared with both frames' lifts
    (complexes.image_tower_agrees). The errors come in the library's
    order: ValueError, CapExceeded, ProjectionNotPMorphism (is_pmorphism on
    the projections), then MixLawViolation for the left frame and the
    right one."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > caps.max_depth:
        raise CapExceeded(f"depth {depth} exceeds cap {caps.max_depth}")
    bp, chosen, projections = pmorphic_relation_poset(bis)
    rho_masks = rho_by_pairs(bis, chosen)
    levels_l = frame_to_lifted(bis.left, depth)
    levels_r = frame_to_lifted(bis.right, depth)
    return all(
        image_tower_agrees(
            bp, map(proj.image_mask, rho_masks), levels, proj.assign
        )
        for proj, levels in zip(projections, (levels_l, levels_r))
    )


# -- the refinement step: the clause check as one step that removes no pair


def meets(rows, values, full):
    """Per row, the meet of values[y] over the bits y of the row (full on
    an empty row)."""
    out = []
    for row in rows:
        acc = full
        for y in iter_bits(row):
            acc &= values[y]
        out.append(acc)
    return out


def modal_forth_rows(rel, other_pre, rows, full):
    """Per x, the partners x' for which the modal forth clause of (x, x')
    holds under the relation ``rows``: every modal successor of x has a
    partner among the modal successors of x'. other_pre holds the modal
    predecessors in the partner frame."""
    return meets(rel, [image(other_pre, row) for row in rows], full)


def forth_rows(up, rel, other_down, other_pre, rows, full):
    """Per x, the partners x' for which the forth clauses of (x, x') hold
    under the relation ``rows``: every order successor of x has a partner
    above x', and the modal forth clause (modal_forth_rows) holds.

    other_down / other_pre are the down-sets and modal predecessors in the
    partner frame.
    """
    below = meets(up, [image(other_down, row) for row in rows], full)
    return [
        a & b
        for a, b in zip(below, modal_forth_rows(rel, other_pre, rows, full))
    ]


def refine_rows(left, right, rows):
    """One refinement step on a relation held as rows (rows[x] masks the
    partners of x): keep the pairs whose forth clauses, read on the rows,
    and back clauses, read on the columns, hold under the relation.
    bisim.is_box_bisimulation held iff this step removed no pair, and
    iterating it from a relation gives the largest bisimulation inside."""
    lp, rp = left.poset, right.poset
    forth = forth_rows(lp.up, left.rel, rp.down, right.pre, rows, rp.full_mask)
    back = forth_rows(
        rp.up, right.rel, lp.down, left.pre, transpose(rows, rp.n),
        lp.full_mask,
    )
    return tuple(
        r & f & b for r, f, b in zip(rows, forth, transpose(back, lp.n))
    )


# -- the tower scan and the relation loops ---------------------------------


def check_limit_pmorphism_by_towers(t, depth=None):
    """complexes.check_limit_pmorphism as a scan over the towers of stage
    depth, kept as its oracle: every tower (the chain of roots down from a
    stage element) coordinatewise above the coordinates of x must agree,
    on coordinates 0..depth-1, with the coordinates of some point above x.
    It reads the coordinates as they are, compatible or not."""
    depth = t.depth if depth is None else depth
    cx = t.complex
    src = t.source
    towers = []
    for c in range(cx.stages[depth].n):
        chain = [c]
        for level in range(depth, 0, -1):
            chain.append(cx.root_maps[level].assign[chain[-1]])
        towers.append(chain[::-1])
    for x in range(src.n):
        fx = [t.maps[i].assign[x] for i in range(depth + 1)]
        for cs in towers:
            if not all(
                cx.stages[i].leq(fx[i], cs[i]) for i in range(depth + 1)
            ):
                continue
            if not any(
                all(t.maps[i].assign[x2] == cs[i] for i in range(depth))
                for x2 in iter_bits(src.up[x])
            ):
                return False
    return True


def covers_by_betweenness(p):
    """Poset.covers as it read before the image kernel: the pairs i < j
    with no element strictly between them, looked for one j at a time."""
    out = []
    for i in range(p.n):
        strict = p.up[i] & ~(1 << i)
        for j in iter_bits(strict):
            between = strict & p.down[j] & ~(1 << j)
            if between == 0:
                out.append((i, j))
    return out


def pairs_by_loops(rows):
    """poset.pairs_of as a nested loop over the points and their bits."""
    out = []
    for x in range(len(rows)):
        for y in iter_bits(rows[x]):
            out.append((x, y))
    return out


def preimage_table(f):
    """Per upset of f's target, the index of its preimage among the upsets
    of f's source."""
    src_up, tgt_up = up_functor(f.source), up_functor(f.target)
    return [src_up.index_of_mask(image(f.fibres(), m)) for m in tgt_up.masks]


def pull_back_by_bits(pre, family):
    """The target upsets b whose preimage pre[b] is in the family, one b at
    a time: the loop frames.pow_up_map and frames.nbhd_morphism_condition
    ran before the image kernel."""
    out = 0
    for b in range(len(pre)):
        if (family >> pre[b]) & 1:
            out |= 1 << b
    return out


# -- the per-member openness route ----------------------------------------


def open_table_by_targets(g):
    """poset.open_table as it read before the fibre columns, kept as the
    oracle the stage builders and checks below read: per element, the set
    of targets over its up bits, less its own, each taken as the part of
    its up row in that target's fibre."""
    p = g.source
    fibres = g.fibres()
    needy = 0
    rows = []
    for i in range(p.n):
        up = p.up[i]
        targets = {g.assign[j] for j in iter_bits(up)}
        targets.discard(g.assign[i])
        rows.append(tuple(up & fibres[t] for t in targets))
        if targets:
            needy |= 1 << i
    return needy, tuple(rows)


def is_open_mask(mask, table):
    """Whether the subset is g-open, given g's open_table: each member with
    a non-empty row must meet every fibre mask of that row. Members with an
    empty row are never visited. The per-member loop that all_open
    replaced, kept as its oracle."""
    needy, rows = table
    todo = mask & needy
    while todo:
        low = todo & -todo
        for need in rows[low.bit_length() - 1]:
            if not need & mask:
                return False
        todo ^= low
    return True


def verify_complex_by_members(cx):
    """verify_complex as it read before the openness re-check moved to bit
    planes: rooted and open, member mask by member mask (is_open_mask); a
    stage whose mask list and root map differ in length fails."""
    for i in range(2, len(cx.stages)):
        up = cx.stages[i - 1].up
        table = open_table_by_targets(cx.root_maps[i - 1])
        roots = cx.root_maps[i].assign
        masks = cx.stages[i].masks
        if len(masks) != len(roots):
            return False
        for mask, root in zip(masks, roots):
            if (
                not mask >> root & 1
                or mask & ~up[root]
                or not is_open_mask(mask, table)
            ):
                return False
    return True


# -- the depth-first rooted-stage search ---------------------------------


def build_p_g_by_search(g, caps=DEFAULT_CAPS, stage_index=2):
    """build_p_g as a depth-first search per root, kept as its oracle: the
    same candidate cap, stage cap and decision order, one (mask, root) pair
    per element found. StageTooLarge is raised on the first element past
    the stage cap."""
    base = g.source
    n = base.n
    total = 0
    for i in range(n):
        total += 1 << (base.up[i].bit_count() - 1)
        if total > caps.max_candidates:
            raise StageTooLarge(
                stage_index, f"more than {caps.max_candidates} candidate subsets"
            )
    _, needs = open_table_by_targets(g)
    up = base.up

    found = []  # (mask, root)

    def too_large():
        return StageTooLarge(
            stage_index, f"more than {caps.max_stage} elements"
        )

    for root in range(n):
        rest = up[root] & ~(1 << root)
        if not needs[root]:
            # g is constant on up(root), so no element there needs anything
            if len(found) + (1 << rest.bit_count()) > caps.max_stage:
                raise too_large()
            sub = rest
            while True:
                found.append((sub | 1 << root, root))
                if not sub:
                    break
                sub = (sub - 1) & rest  # next submask of rest, descending
            continue
        order = sorted(iter_bits(rest), key=lambda e: up[e].bit_count())
        last = len(order)
        undecided = [0] * (last + 1)  # after the first k decisions
        for k in range(last - 1, -1, -1):
            undecided[k] = undecided[k + 1] | 1 << order[k]
        # leaving out order[k] can only starve the root's needs holding it
        starved = [
            tuple(need for need in needs[root] if need >> e & 1)
            for e in order
        ]
        stack = [(0, 1 << root)]
        while stack:
            k, included = stack.pop()
            if k == last:
                found.append((included, root))
                if len(found) > caps.max_stage:
                    raise too_large()
                continue
            left = included | undecided[k + 1]
            for need in starved[k]:
                if not need & left:
                    break
            else:
                stack.append((k + 1, included))
            e = order[k]
            for need in needs[e]:
                if not need & included:
                    break
            else:
                stack.append((k + 1, included | 1 << e))

    found.sort()
    masks = tuple(m for m, _ in found)
    stage_poset = Poset.over_masks(masks, base)
    root_map = PosetMap(stage_poset, base, [r for _, r in found])
    return RootedStage(base, stage_poset, masks, root_map)


def build_p_g_encoded(g, caps=DEFAULT_CAPS, stage_index=2):
    """build_p_g as it read with one global sort, kept as its oracle:
    each subset is held as ``mask << s | root`` (s bits hold any root), so
    one int sort orders the stage, and the masks and roots are read back
    off by a shift and an AND. The same candidate cap, stage cap and
    decision order; the root map is built with every index checked."""
    base = g.source
    n = base.n
    total = 0
    for i in range(n):
        total += 1 << (base.up[i].bit_count() - 1)
        if total > caps.max_candidates:
            raise StageTooLarge(
                stage_index, f"more than {caps.max_candidates} candidate subsets"
            )
    _, needs = open_table_by_targets(g)
    up = base.up
    s = n.bit_length()
    found = []  # mask << s | root

    def too_large():
        return StageTooLarge(
            stage_index, f"more than {caps.max_stage} elements"
        )

    for root in range(n):
        rest = up[root] & ~(1 << root)
        run = [1 << root << s | root]
        if not needs[root]:
            # g is constant on up(root), so no element there needs anything
            if len(found) + (1 << rest.bit_count()) > caps.max_stage:
                raise too_large()
            for e in iter_bits(rest):
                run += list(map(or_, run, repeat(1 << e << s)))
            found += run
            continue
        order = sorted(iter_bits(rest), key=lambda e: up[e].bit_count())
        later = [0] * len(order)  # the elements decided after order[k]
        for k in range(len(order) - 1, 0, -1):
            later[k - 1] = later[k] | 1 << order[k]
        for k, e in enumerate(order):
            # leaving e out can only starve a root need holding e, and not
            # one that an element decided later still meets
            kept = run
            for need in needs[root]:
                if need >> e & 1 and not need & later[k]:
                    kept = filter((need << s).__and__, kept)
            taken = run
            for need in needs[e]:
                taken = filter((need << s).__and__, taken)
            taken = list(map(or_, taken, repeat(1 << e << s)))
            if kept is not run:
                run = list(kept)
            run += taken
            if len(found) + len(run) > caps.max_stage:
                # a partial meeting every root need has at least one leaf:
                # the one leaving out every element still undecided
                met = run
                for need in needs[root]:
                    met = filter((need << s).__and__, met)
                if len(found) + len(list(met)) > caps.max_stage:
                    raise too_large()
        found += run

    found.sort()
    # read off into lists, so that no tuple is resized as it grows
    masks = tuple([*map(rshift, found, repeat(s))])
    roots = [*map(and_, found, repeat((1 << s) - 1))]
    del found
    stage_poset = Poset.over_masks(masks, base)
    root_map = PosetMap(stage_poset, base, roots)
    return RootedStage(base, stage_poset, masks, root_map)


# -- the step-by-step bisim inputs -------------------------------------------


def transpose_by_bits(rows, n):
    """The rows of the converse relation over n targets, one set bit of
    the rows at a time: the loop that bit planes replaced in
    poset.transpose."""
    out = [0] * n
    for x, row in enumerate(rows):
        for y in iter_bits(row):
            out[y] |= 1 << x
    return out


def make_poset_by_verify(labels, pairs):
    """make_poset as it read before it checked antisymmetry alone:
    Warshall's closure, then Poset(labels, rows), whose _verify checks
    reflexivity, antisymmetry and transitivity element by element."""
    labels = tuple(labels)
    if not labels:
        raise UnknownLabel("a poset needs at least one element")
    seen = {}
    for i, lab in enumerate(labels):
        if lab in seen:
            raise DuplicateLabel(f"duplicate label {format_label(lab)!r}")
        seen[lab] = i
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        for lab in (a, b):
            if lab not in seen:
                raise UnknownLabel(f"unknown element {format_label(lab)!r}")
        up[seen[a]] |= 1 << seen[b]
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    return Poset(labels, up)


# the pieces the formula fuzzers draw from: every token of the grammar, a
# space, a longer identifier and the characters of no token ("-" and ">"
# make "->" only side by side)
FORMULA_PIECES = (
    "p", "q", "T", "F", "[]", "~", "->", "|", "&", "(", ")", " ", "x1", "+",
    "-", ">",
)

_FORMULA_TOKEN = re.compile(r"\s*(\[\]|->|[~|&()]|[A-Za-z_][A-Za-z0-9_']*)")


def tokenize_formula(text):
    """(token, position) pairs of a formula text, with no length bound."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise UnknownToken(f"unexpected character {text[at]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _DescentParser:
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


def parse_by_descent(text):
    """logic.parse by recursive descent, one method per binding level:
    "->" (right-associative), "|", "&", then the prefix "[]" and "~"."""
    parser = _DescentParser(tokenize_formula(text), len(text))
    out = parser.parse_impl()
    if parser.peek() is not None:
        raise FormulaSyntaxError(
            f"trailing input {parser.peek()!r}", parser.next_pos()
        )
    return out


_PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def _prec_by_type(phi):
    if isinstance(phi, Impl):
        return _PREC_IMPL
    if isinstance(phi, Or):
        return _PREC_OR
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, Box):
        return _PREC_UNARY
    return 5


def print_formula_by_recursion(phi):
    """logic.print_formula by recursion, with each connective's bracketing
    limits written out."""

    def wrap(child, limit):
        text = print_formula_by_recursion(child)
        return f"({text})" if _prec_by_type(child) < limit else text

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


def truth_mask_by_recursion(model, phi, cache=None):
    """logic.truth_mask as it recursed into the parts of each node."""
    cache = {} if cache is None else cache
    got = cache.get(phi)
    if got is not None:
        return got
    p = model.poset
    if isinstance(phi, Var):
        out = model.valuation[phi.name]
    elif isinstance(phi, Top):
        out = p.full_mask
    elif isinstance(phi, Bot):
        out = 0
    elif isinstance(phi, Box):
        body = truth_mask_by_recursion(model, phi.body, cache)
        out = box_mask(model.frame, body)
    else:
        a = truth_mask_by_recursion(model, phi.left, cache)
        b = truth_mask_by_recursion(model, phi.right, cache)
        if isinstance(phi, And):
            out = a & b
        elif isinstance(phi, Or):
            out = a | b
        else:
            out = impl_mask(p, a, b)
    cache[phi] = out
    return out


def letters_by_recursion(phi):
    """logic.letters_of by recursion."""
    if isinstance(phi, Var):
        return {phi.name}
    return set().union(*map(letters_by_recursion, phi._parts()))


def formula_eq_by_recursion(a, b):
    """Formula.__eq__ by recursion into the parts."""
    if type(b) is not type(a) or b._hash != a._hash:
        return False
    return all(
        formula_eq_by_recursion(x, y) if isinstance(x, Formula) else x == y
        for x, y in zip(a._parts(), b._parts())
    )


def formula_repr_by_recursion(phi):
    """Formula.__repr__ by recursion into the parts."""
    parts = [
        formula_repr_by_recursion(part) if isinstance(part, Formula)
        else repr(part)
        for part in phi._parts()
    ]
    return f"{type(phi).__name__}({', '.join(parts)})"


def token_column(line, k, start=0):
    """The 1-based column of the k-th whitespace-separated token of line
    that starts at or after index start, found by walking the
    characters."""
    prev_space = True
    for i in range(start, len(line)):
        space = line[i].isspace()
        if prev_space and not space:
            if k == 0:
                return i + 1
            k -= 1
        prev_space = space
    raise IndexError(k)


def _families_by_chars(line, start, declared, lineno):
    """The families written on line from index start on, read one
    character at a time: a brace is a token of its own, and so is each run
    of other characters up to a space or a brace. An undeclared member is
    reported at the column where its run starts."""
    families = []
    current = None
    i = start
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "{":
            if current is not None:
                raise ParseError("nested '{'", lineno)
            current = []
            i += 1
            continue
        if ch == "}":
            if current is None:
                raise ParseError("unmatched '}'", lineno)
            families.append(current)
            current = None
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace() and line[j] not in "{}":
            j += 1
        if current is None:
            raise ParseError("family member outside braces", lineno)
        _require_by_lines(line[i:j], declared, lineno, i + 1)
        current.append(line[i:j])
        i = j
    if current is not None:
        raise ParseError("unterminated '{'", lineno)
    return families


def _require_by_lines(tok, declared, lineno, column):
    if tok not in declared:
        raise ParseError(f"undeclared element {tok!r}", lineno, column)


def _letter_by_chars(name):
    """Whether name is an identifier of the formula grammar, an ASCII
    letter or underscore followed by ASCII letters, digits, underscores and
    primes, other than the constants T and F; one character at a time."""
    first = string.ascii_letters + "_"
    rest = first + string.digits + "'"
    return (
        name not in ("T", "F")
        and name != ""
        and name[0] in first
        and all(ch in rest for ch in name[1:])
    )


FRAME_FILE_SECTIONS = ("elements", "order", "modal", "val", "nbhd")


def parse_frame_file_by_lines(text):
    """parse_frame_file as it read before its one-test fast path: every
    [order]/[modal] line goes through the token count, the symbol and both
    label checks in turn. An undeclared element's column is its token's
    own (token_column), not the first substring match in the line."""
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
            if name not in FRAME_FILE_SECTIONS:
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
        elif section in ("order", "modal"):
            symbol = "<" if section == "order" else "R"
            parts = stripped.split()
            if len(parts) != 3 or parts[1] != symbol:
                raise ParseError(f"expected 'a {symbol} b'", lineno)
            _require_by_lines(parts[0], declared, lineno,
                              token_column(line, 0))
            _require_by_lines(parts[2], declared, lineno,
                              token_column(line, 2))
            pairs = ff.order_pairs if section == "order" else ff.modal_pairs
            pairs.append((parts[0], parts[2]))
        elif section == "val":
            if ":" not in stripped:
                raise ParseError("expected 'letter : e1 e2 ...'", lineno)
            letter, _, rest = stripped.partition(":")
            letter = letter.strip()
            if not letter:
                raise ParseError("missing letter before ':'", lineno)
            if not _letter_by_chars(letter):
                raise ParseError(
                    f"letter {letter!r} cannot be named in a formula "
                    "(an identifier other than T and F)",
                    lineno, token_column(line, 0),
                )
            if letter in ff.valuations:
                raise ParseError(f"duplicate valuation for {letter!r}", lineno)
            members = rest.split()
            after = line.index(":") + 1
            for k, tok in enumerate(members):
                _require_by_lines(tok, declared, lineno,
                                  token_column(line, k, after))
            ff.valuations[letter] = members
        elif section == "nbhd":
            if ":" not in stripped:
                raise ParseError("expected 'e : {e1 e2} ...'", lineno)
            lab = stripped.partition(":")[0].strip()
            _require_by_lines(lab, declared, lineno, token_column(line, 0))
            if lab in ff.nbhd:
                raise ParseError(f"duplicate neighbourhood for {lab!r}", lineno)
            ff.nbhd[lab] = _families_by_chars(
                line, line.index(":") + 1, declared, lineno
            )
    if not ff.labels:
        raise ParseError("no [elements] declared", 1)
    return ff


def mask_of(p, labels):
    """The bitmask of the given labels of p."""
    mask = 0
    for lab in labels:
        mask |= 1 << p.index(lab)
    return mask


def load_bench_module(name):
    """bench/<name>.py loaded as a module, without adding bench/ to the
    import path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
