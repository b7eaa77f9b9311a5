"""The oracle registry: each library kernel with the oracle it is checked
against, the instances it is checked on and, where its result depends on
labels, how an instance and a result move under a relabelling.

An entry (``register``) names

- ``kernel``: the library call under test;
- ``oracle``: the brute-force route, called as the kernel is; its
  docstring names the library route it replaced;
- ``instances``: a function that yields the instances, each the tuple of
  arguments the kernel and the oracle take, and ``count``, their number,
  which the check asserts;
- ``relabel`` (optional): called as the kernel is, it yields (moved
  arguments, move) pairs, where ``move`` takes the kernel's result on the
  instance to its result on the moved one; ``moves`` is their number,
  asserted too;
- ``outcomes`` (optional): the tally of the kernel's results over the
  instances, where a result is one of a few values (a verdict), so that a
  kernel and an oracle that agree by both always saying the same fail.

``tests/test_oracles.py`` reads the table with two parametrized tests:
the kernel equals the oracle on every instance, and the kernel commutes
with every relabelling. One pass over the instances checks both (``run``,
memoised per entry), so the test ids that an entry replaced (``folded``)
cost nothing more.

To register a kernel, add one ``register`` call, with its oracle and its
instance builder just above it. An instance set only grows: a count is
lowered only together with the code it checks. Instance builders that
other tests share live in ``tests/helpers.py``. No oracle or instance
builder here reads a private name of an ``imcoalg`` module; a private
kernel appears only as the kernel of a ``register`` call, and
``tests/test_private_reads.py`` lists it.
"""

import functools
import random
from collections import Counter, defaultdict
from itertools import permutations, product as iproduct
from types import SimpleNamespace
from typing import NamedTuple

from imcoalg.poset import (
    Poset,
    PosetMap,
    all_open,
    containment_rows,
    identity_map,
    image,
    is_monotone,
    is_pmorphism,
    iter_bits,
    make_poset,
    monotone_assignments,
    open_table,
    pairs_of,
    point_poset,
    product,
    sorted_index,
    terminal_map,
    transpose,
    upset_masks,
)
from imcoalg.enumeration import (
    all_posets,
    automorphisms,
    mix_relations,
    monotone_maps,
    pmorphisms,
)
from imcoalg.complexes import (
    TowerMap,
    build_complex,
    build_p_g,
    check_limit_pmorphism,
    enumerate_tower_maps,
    image_tower_agrees,
    lift_map,
    terminal_complex,
    tower_coords,
    verify_complex,
)
from imcoalg import bisim
from imcoalg import frames as frames_module
from imcoalg.bisim import (
    Bisimulation,
    bisimilarity_preserves_truth,
    coalgebraic_bisim_check,
    distinguishing_formula,
    is_box_bisimulation,
    largest_bisimulation,
    largest_model_bisimulation,
    saturated_valuation,
)
from imcoalg.heyting import (
    box_mask,
    impl_mask,
    join_irreducibles,
    up_functor,
    up_functor_map,
)
from imcoalg.errors import (
    EnumerationTooLarge,
    ProjectionNotPMorphism,
    ValueNotUpset,
)
from imcoalg.frames import (
    ModalFrame,
    NbhdFrame,
    check_coalgebra_morphism,
    check_mix_law,
    check_nbhd_coalgebra_morphism,
    frame_to_lifted,
    frame_to_upmap,
    mix_closure,
    mix_law_witness,
    nbhd_morphism_condition,
    nbhd_to_coalgebra,
    pow_up_map,
)
from imcoalg.logic import (
    Model,
    definable_masks,
    enumerate_formulas,
    first_formulas,
    parse,
    print_formula,
    truth_mask,
)
from imcoalg.freealg import (
    build_free_stages,
    check_truncated_pmorphism,
    generator_poset,
)

from imcoalg.config import DEFAULT_CAPS
from helpers import (
    EMPTY,
    FORMULA_DEPTH,
    GOLDEN_STAGE_SIZES,
    LABELLED_3,
    all_functions,
    all_nbhd_frames,
    by_covers,
    canonical_poset_key,
    chain2,
    check_limit_pmorphism_by_towers,
    covered_frame,
    covers_by_betweenness,
    distinct_labellings,
    failing_projection_by_pmorphism,
    failing_projection_by_upsets,
    first_disagreement,
    frames_on,
    free_bases,
    is_open_mask,
    iso_frames_up_to_three,
    labelled_posets,
    labellings,
    move_mask,
    move_rows,
    moved_map,
    moved_values,
    nested_compatible,
    nested_image,
    nested_lift,
    nested_monotone,
    one_letter_models,
    open_table_by_targets,
    pairs_by_loops,
    pmorphic_relation_poset,
    posets_up_to,
    preimage_table,
    print_formula_by_recursion,
    pull_back_by_bits,
    random_poset,
    random_upset,
    refine_rows,
    relabel_frame,
    relabellings,
    relation,
    reversed_labelling,
    rho_by_pairs,
    sampled_model_pairs,
    serial_chain_frame,
    shifted_chain_frame,
    small_frames,
    stage_values,
    tower_bisim_check,
    transpose_by_bits,
    travelled,
    truth_mask_by_recursion,
    value_root,
    valued_chain,
    verify_complex_by_members,
)


class Entry(NamedTuple):
    kernel: object
    oracle: object
    instances: object
    count: int
    relabel: object = None
    moves: int = 0
    outcomes: dict = None


ENTRIES = {}


def register(name, kernel, oracle, instances, **fields):
    assert name not in ENTRIES, name
    ENTRIES[name] = Entry(kernel, oracle, instances, **fields)


@functools.cache
def run(name):
    """(instances, moves, first failed move) of the entry. Raises unless
    the kernel equals the oracle on every instance (and tallies to its
    outcomes); a relabelled result that is not the moved one is named
    instead, for the relabelling test to report."""
    e = ENTRIES[name]
    tally = Counter()
    count = moves = 0
    failed = None
    for count, args in enumerate(e.instances(), 1):
        got = e.kernel(*args)
        want = e.oracle(*args)
        assert got == want, f"{name}, instance {count}: {got!r} != {want!r}"
        if e.outcomes is not None:
            tally[got] += 1
        for moved, move in e.relabel(*args) if e.relabel else ():
            moves += 1
            if failed is None and e.kernel(*moved) != move(got):
                failed = f"{name}, instance {count}, move {moves}"
    if e.outcomes is not None:
        assert tally == e.outcomes, f"{name}: outcomes {dict(tally)}"
    return count, moves, failed


def check(name):
    """Both checks of one entry, with their pinned counts."""
    e = ENTRIES[name]
    assert run(name) == (e.count, e.moves, None)


def folded(*names):
    """A test that checks the entries: the id of a test folded into them."""

    def test(*_):
        for name in names:
            check(name)

    return test


def same(result):
    return result


def moved_sorted(masks, perm):
    """The masks moved by perm, in ascending order."""
    return tuple(sorted(move_mask(m, perm) for m in masks))


def moved_rows(rows, perm):
    """A relation on one carrier held as rows, moved by perm."""
    return move_rows(rows, perm, perm)


def moved_masks(masks, perm):
    """The masks moved by perm, in their order."""
    return tuple(move_mask(m, perm) for m in masks)


def every_pair(items):
    return [(a, b) for a in items for b in items]


def on_relabellings(move):
    """The relabelling rule of an entry on one poset: the poset under
    every labelling, the result moved by move(result, perm)."""
    return lambda p: (
        ((q,), functools.partial(move, perm=perm))
        for perm, q in relabellings(p)
    )


def on_relabelled_frames(move):
    """The relabelling rule of an entry on one frame: the frame under
    every permutation of its points, the result moved by move(result,
    perm)."""
    return lambda fr: (
        ((relabel_frame(fr, perm),), functools.partial(move, perm=perm))
        for perm in permutations(range(fr.poset.n))
    )


# == poset ===================================================================


# every labelled poset already, so no relabelling rule
register(
    "covers", Poset.covers, covers_by_betweenness,
    lambda: zip(labelled_posets(4)), count=419,
)


def relation_rows_of_labelled_posets():
    """The order, its converse and the strict order of every labelled
    poset on at most four elements."""
    for q in labelled_posets(4):
        strict = tuple(row & ~(1 << i) for i, row in enumerate(q.up))
        yield from ((q.up,), (q.down,), (strict,))


register(
    "pairs_of", pairs_of, pairs_by_loops, relation_rows_of_labelled_posets,
    count=1257,
)


def transpose_instances():
    # n runs from the highest set bit to well past it, across 8-bit chunk
    # edges; all-zero rows and empty row lists included
    rng = random.Random(2020)
    for count in (0, 1, 2, 5, 9, 17, 40):
        for top in (0, 1, 7, 8, 9, 16, 33):
            rows = [rng.getrandbits(top) for _ in range(count)]
            if count:
                rows[rng.randrange(count)] = 0
            for n in range(top, top + 10):
                yield rows, n


register(
    "transpose", transpose, transpose_by_bits, transpose_instances,
    count=490,
)


register(
    "ModalFrame.pre", lambda fr: fr.pre,
    lambda fr: tuple(transpose_by_bits(fr.rel, fr.poset.n)),
    lambda: zip(iso_frames_up_to_three()), count=310,
    relabel=on_relabelled_frames(moved_rows), moves=1786,
)


def sorted_index_instances():
    rng = random.Random(17)
    for size in range(12):
        items = sorted(rng.sample(range(40), size))
        for value in range(-1, 42):
            yield items, value


def sorted_index_by_scan(items, value):
    return items.index(value) if value in items else None


register(
    "sorted_index", sorted_index, sorted_index_by_scan,
    sorted_index_instances, count=516,
)


def product_by_bits(p, q):
    """The bit loops that product replaced: one bit per pair of members of
    ↑i and ↑j."""
    labels = [(a, b) for a in p.labels for b in q.labels]
    up = []
    for i in range(p.n):
        for j in range(q.n):
            mask = 0
            for i2 in iter_bits(p.up[i]):
                for j2 in iter_bits(q.up[j]):
                    mask |= 1 << (i2 * q.n + j2)
            up.append(mask)
    return Poset(labels, up)


register(
    "product", product, product_by_bits, lambda: every_pair(posets_up_to(3)),
    count=64,
)


def is_monotone_by_pairs(f):
    """The pair test that is_monotone replaced: f(x) <= f(y) for every
    y in ↑x."""
    for x in range(f.source.n):
        for y in iter_bits(f.source.up[x]):
            if not f.target.leq(f.assign[x], f.assign[y]):
                return False
    return True


register(
    "is_monotone", is_monotone, is_monotone_by_pairs,
    lambda: (
        (f,)
        for p, q in every_pair(posets_up_to(3))
        for f in all_functions(p, q)
    ),
    count=888,
)


def containment_rows_oracle(masks):
    """Row k has bit j iff masks[j] is a subset of masks[k], by testing
    every pair."""
    rows = []
    for m in masks:
        row = 0
        for j, d in enumerate(masks):
            if d & ~m == 0:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def containment_rows_instances():
    """(masks, width, perms of the base bits): the upsets of every poset on
    at most four elements under every permutation, and seeded mask lists
    over widths 1-24 (one to three 8-bit chunks) under one seeded
    permutation each. Half the seeded masks are cut down from or grown out
    of earlier ones, so that rows hold more than the diagonal."""
    for p in posets_up_to(4):
        yield upset_masks(p), p.n, list(permutations(range(p.n)))
    rng = random.Random(2406)
    for width in range(1, 25):
        for _ in range(6):
            masks = [rng.getrandbits(width)]
            for _ in range(rng.randrange(30)):
                m = rng.choice(masks)
                r = rng.getrandbits(width)
                masks.append(rng.choice((r, m & r, m | r)))
            perm = list(range(width))
            rng.shuffle(perm)
            yield masks, width, [perm]


register(
    "containment_rows",
    lambda masks, width, _: containment_rows(masks, width),
    lambda masks, *_: containment_rows_oracle(masks),
    containment_rows_instances, count=168,
    relabel=lambda masks, width, perms: (
        ((moved_masks(masks, perm), width, ()), same) for perm in perms
    ),
    moves=563,
)


def canonical_key_by_permutations(up):
    """Least row-major relation matrix over all relabellings."""
    n = len(up)
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        bits = 0
        for i in range(n):
            for j in iter_bits(up[inv[i]]):
                bits |= 1 << (i * n + perm[j])
        if best is None or bits < best:
            best = bits
    return best


def all_posets_by_full_scan(n):
    """Every strict relation on n elements, first labelling per class."""
    labels = tuple("abcdefgh"[:n])
    found = {}
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(slots)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(slots):
            if (bits >> k) & 1:
                up[i] |= 1 << j
        if any(
            (j != i and (up[j] >> i) & 1) or up[j] & ~up[i]
            for i in range(n)
            for j in iter_bits(up[i])
        ):
            continue
        found.setdefault(
            canonical_key_by_permutations(up), Poset(labels, up)
        )
    return [found[k] for k in sorted(found)]


register(
    "all_posets", lambda n: [(p.up, p.labels) for p in all_posets(n)],
    lambda n: [(p.up, p.labels) for p in all_posets_by_full_scan(n)],
    lambda: zip(range(5)), count=5,
)


# all_posets labels each class canonically, so a key that scans only the
# first labellings would pass there: every labelling is taken
register(
    "canonical_poset_key", canonical_poset_key,
    lambda p: canonical_key_by_permutations(p.up),
    lambda: zip(all_posets(0) + labelled_posets(4)), count=420,
)


def g_open_by_images(mask, g):
    """Openness as the g-images of up(s) and up(s) & S agreeing per member."""
    p = g.source
    for i in iter_bits(mask):
        if g.image_mask(p.up[i]) != g.image_mask(p.up[i] & mask):
            return False
    return True


def maps_for_openness():
    """Every monotone map from a poset on at most three elements into one
    on at most three elements or into the reversed two-element chain."""
    targets = posets_up_to(3)
    targets += [t for s in posets_up_to(2) for t in labellings(s)[1:]]
    for p in posets_up_to(3):
        for t in targets:
            yield from zip(monotone_maps(p, t))


def open_sets(g):
    """Per mask of g's source, whether all_open finds it g-open; then
    whether open_table's needy mask marks the rows that are not empty,
    whether the open masks pass together and whether all masks do."""
    table = open_table(g)
    needy, rows = table
    everything = range(1 << g.source.n)
    opens = tuple(m for m in everything if all_open([m], table))
    return (
        opens,
        needy == sum(1 << i for i, row in enumerate(rows) if row),
        all_open(opens, table),
        all_open(everything, table),
    )


def open_sets_by_images(g):
    everything = range(1 << g.source.n)
    opens = tuple(m for m in everything if g_open_by_images(m, g))
    return opens, True, True, len(opens) == len(everything)


register(
    "all_open", open_sets, open_sets_by_images, maps_for_openness, count=513,
    relabel=lambda g: (
        (
            (moved_map(g, perm, q),),
            lambda r, perm=perm: (moved_sorted(r[0], perm), *r[1:]),
        )
        for perm, q in relabellings(g.source)
    ),
    moves=2608,
)


def maps_and_root_maps():
    """The openness maps, and every root map of the depth-3 terminal
    complexes over posets on at most four elements (up to 2 856 elements
    onto 15)."""
    yield from maps_for_openness()
    for p in posets_up_to(4):
        yield from zip(terminal_complex(p, 3).root_maps[1:])


def sorted_rows(table):
    needy, rows = table
    return needy, list(map(sorted, rows))


register(
    "open_table", lambda g: sorted_rows(open_table(g)),
    lambda g: sorted_rows(open_table_by_targets(g)), maps_and_root_maps,
    count=585,
)


def all_open_instances():
    # whole lists of masks at once, over bases of up to 20 elements (three
    # 8-bit chunks), with bits past the base and empty lists
    rng = random.Random(17)
    for _ in range(300):
        p = random_poset(rng, rng.randrange(1, 21))
        q = random_poset(rng, rng.randrange(1, 4))
        g = PosetMap(p, q, [rng.randrange(q.n) for _ in range(p.n)])
        masks = [
            rng.getrandbits(p.n + rng.choice((0, 0, 3)))
            for _ in range(rng.randrange(6))
        ]
        yield masks, open_table(g)


register(
    "all_open:lists",
    lambda masks, table: (
        all_open(masks, table), all_open(tuple(masks), table)
    ),
    lambda masks, table: (all(is_open_mask(m, table) for m in masks),) * 2,
    all_open_instances, count=300,
)


# == heyting =================================================================


def upsets_by_scan(p):
    """The subsets closed upward, by testing every member's up row."""
    return tuple(
        m for m in range(1 << p.n)
        if all(p.up[i] & ~m == 0 for i in iter_bits(m))
    )


register(
    "upset_masks", upset_masks, upsets_by_scan,
    lambda: zip(posets_up_to(5)), count=87,
    relabel=on_relabellings(moved_sorted), moves=7979,
)


def impl_by_points(p, a, b):
    """a -> b as the points whose every successor in a is in b."""
    return sum(1 << x for x in range(p.n) if p.up[x] & a & ~b == 0)


def on_upset_pairs(impl):
    """impl(p, a, b) for every pair of the upsets, in their order."""
    return lambda p, upsets: tuple(
        impl(p, a, b) for a in upsets for b in upsets
    )


register(
    "impl_mask", on_upset_pairs(impl_mask), on_upset_pairs(impl_by_points),
    lambda: ((p, upset_masks(p)) for p in posets_up_to(4)), count=24,
    relabel=lambda p, upsets: (
        (
            (q, moved_masks(upsets, perm)),
            functools.partial(moved_masks, perm=perm),
        )
        for perm, q in relabellings(p)
    ),
    moves=419,
)


def box_by_points(frame, body):
    """[]body as the points whose every modal successor is in body."""
    return sum(
        1 << x for x in range(frame.poset.n)
        if all(body >> y & 1 for y in iter_bits(frame.rel[x]))
    )


def moved_box(boxes, perm):
    """A box table (entry b is []b) moved by perm: entry move(b) is
    move([]b)."""
    out = [0] * len(boxes)
    for body, box in enumerate(boxes):
        out[move_mask(body, perm)] = move_mask(box, perm)
    return tuple(out)


register(
    "box_mask",
    lambda fr: tuple(box_mask(fr, b) for b in range(1 << fr.poset.n)),
    lambda fr: tuple(
        box_by_points(fr, b) for b in range(1 << fr.poset.n)
    ),
    lambda: ((fr,) for p in posets_up_to(3) for fr in frames_on(p)),
    count=764, relabel=on_relabelled_frames(moved_box), moves=4486,
)


def join_irreducibles_oracle(base):
    """Irreducibles by testing every pair of upsets, found by a scan over
    all subsets; rows by pair tests."""
    upsets = [m for m in range(1 << base.n) if base.is_upset(m)]
    irred = []
    for m in upsets:
        if m == 0:
            continue
        below = 0
        for d in upsets:
            if d != m and d & ~m == 0:
                below |= d
        if below != m:
            irred.append(m)
    labels = [base.labels[base.min_of(m)] for m in irred]
    return labels, containment_rows_oracle(irred)


register(
    "join_irreducibles",
    lambda q: (join_irreducibles(q).labels, join_irreducibles(q).up),
    lambda q: tuple(map(tuple, join_irreducibles_oracle(q))),
    lambda: zip(labelled_posets(4)), count=419,
)


# == complexes ===============================================================


def build_p_g_by_submasks(g):
    """The submask scan that build_p_g replaced: every submask of each
    root's strict up-set, kept when every member meets each fibre mask of
    its open_table row. Sorted (mask, root) pairs."""
    base = g.source
    _, needs = open_table_by_targets(g)
    found = []
    for root in range(base.n):
        rest = base.up[root] & ~(1 << root)
        sub = 0
        while True:
            mask = sub | 1 << root
            if all(need & mask for i in iter_bits(mask) for need in needs[i]):
                found.append((mask, root))
            if sub == rest:
                break
            sub = (sub - rest) & rest
    found.sort()
    return found


def maps_into_two_elements(p):
    """The terminal map of p and every monotone map from p into a
    two-element poset, under each labelling of the chain."""
    targets = [t for s in posets_up_to(2) if s.n == 2 for t in labellings(s)]
    return [terminal_map(p)] + [
        f for t in targets for f in monotone_maps(p, t)
    ]


def rooted_stage(g):
    """build_p_g read by its (mask, root) pairs and by its elements'
    labels: per element, its root's label and the labels of the stage
    elements above it, read through the order rows that the stage builds
    on first read."""
    stage = build_p_g(g)
    poset, base = stage.poset, stage.base
    by_labels = {
        poset.labels[i]: (
            base.labels[r],
            frozenset(poset.labels[j] for j in iter_bits(poset.up[i])),
        )
        for i, r in enumerate(stage.root_map.assign)
    }
    return sorted(zip(stage.member_masks, stage.root_map.assign)), by_labels


def rooted_stage_by_submasks(g):
    """The submask scan's pairs, and the same reading by labels with the
    order taken by pair tests (a subset lies above the sets it contains)."""
    found = build_p_g_by_submasks(g)
    labels = g.source.labels

    def label(mask):
        return frozenset(labels[i] for i in iter_bits(mask))

    by_labels = {
        label(m): (
            labels[r], frozenset(label(d) for d, _ in found if d & ~m == 0)
        )
        for m, r in found
    }
    return found, by_labels


def moved_stage(result, perm):
    pairs, by_labels = result
    return sorted((move_mask(m, perm), perm[r]) for m, r in pairs), by_labels


# the moved source keeps its labels on its elements, so the stage read
# by labels does not move
register(
    "build_p_g", rooted_stage, rooted_stage_by_submasks,
    lambda: (
        (g,) for p in posets_up_to(4) for g in maps_into_two_elements(p)
    ),
    count=454,
    relabel=lambda g: (
        (
            (moved_map(g, perm, travelled(g.source, perm)),),
            functools.partial(moved_stage, perm=perm),
        )
        for perm in permutations(range(g.source.n))
    ),
    moves=8829,
)


def corrupted_complexes():
    """(complex, level, member masks of that stage) triples; verify_complex
    is read with the masks put in place. Stage 3 of the depth-3 terminal
    complexes over posets of at most four elements, a seeded eight members
    each with every bit of the stage below flipped in turn (so that a
    member stays rooted and loses or gains an element above the root, loses
    its root, or gains an element elsewhere), and the stage cut short,
    padded or emptied against its root map; then, under every labelling
    of every poset of at most four elements, the depth-3 terminal complex
    and the depth-2 complex over every map into a two-element poset,
    uncorrupted and with every bit of one seeded member flipped."""
    rng = random.Random(1706)
    for n in range(1, 5):
        for p in all_posets(n):
            cx = terminal_complex(p, 3)
            masks = cx.stages[3].masks
            width = cx.stages[2].n
            for idx in rng.sample(range(len(masks)), min(8, len(masks))):
                for bit in range(width):
                    bad = masks[idx] ^ 1 << bit
                    yield cx, 3, masks[:idx] + (bad,) + masks[idx + 1:]
            for cut in (masks[:-1], masks + (masks[0],), (), masks):
                yield cx, 3, cut
    rng = random.Random(17)
    for p in posets_up_to(4):
        for perm in permutations(range(p.n)):
            q = travelled(p, perm)
            for g in maps_into_two_elements(p):
                depth = 3 if g.target.n == 1 else 2
                cx = build_complex(moved_map(g, perm, q), depth)
                masks = cx.stages[depth].masks
                width = cx.stages[depth - 1].n
                yield cx, depth, masks
                for idx in rng.sample(range(len(masks)), 1):
                    for bit in range(width):
                        bad = masks[idx] ^ 1 << bit
                        yield cx, depth, masks[:idx] + (bad,) + masks[idx + 1:]


def verified_with(check, cx, level, masks):
    kept = cx.stages[level].masks
    cx.stages[level].masks = masks
    try:
        return check(cx)
    finally:
        cx.stages[level].masks = kept


register(
    "verify_complex", functools.partial(verified_with, verify_complex),
    functools.partial(verified_with, verify_complex_by_members),
    corrupted_complexes, count=47015, outcomes={True: 17974, False: 29041},
)


def lift_instances():
    """(f, complex over f's target, moved targets) for every monotone map
    between posets of at most three elements, depth 3. The moved targets
    are (sigma, moved target, its complex) for every labelling of the
    target, whose labels travel with its elements, so that a stage
    element of either complex is named by the same nested frozenset of
    labels."""
    posets = posets_up_to(3)
    for t in posets:
        cx = terminal_complex(t, 3)
        moved = []
        for sigma in permutations(range(t.n)):
            moved_t = travelled(t, sigma)
            moved.append((sigma, moved_t, terminal_complex(moved_t, 3)))
        for p in posets:
            for f in monotone_maps(p, t):
                yield f, cx, moved


def lift_read(f, cx, _):
    """lift_map at depth 3 read by stage labels, level by level, and
    whether its coordinates are compatible and monotone."""
    t = lift_map(f, cx, 3)
    labels = [
        tuple(cx.stages[lv].labels[i] for i in t.maps[lv].assign)
        for lv in (1, 2, 3)
    ]
    return labels, t.compatible(), t.coords_monotone()


def lift_by_nested_values(f, cx, _):
    """The nested-value lift resolved through the stage values, read by
    stage labels, and the nested compatibility and monotonicity."""
    levels = tower_coords(f.source, f.assign, 3)
    labels = [
        tuple(cx.stages[lv].labels[i] for i in assign)
        for lv, assign in enumerate(nested_lift(f, cx, 3), 1)
    ]
    return (
        labels,
        nested_compatible(f.target, levels),
        nested_monotone(f.source, f.target, levels),
    )


def moved_lifts(f, _, moved):
    p = f.source
    for sigma, moved_t, moved_cx in moved:
        for perm, q in relabellings(p):
            assign = [0] * p.n
            for x, y in enumerate(f.assign):
                assign[perm[x]] = sigma[y]
            yield (
                (PosetMap(q, moved_t, assign), moved_cx, ()),
                lambda r, perm=perm: (
                    [moved_values(level, perm) for level in r[0]], *r[1:]
                ),
            )


register(
    "lift_map", lift_read, lift_by_nested_values, lift_instances, count=476,
    relabel=moved_lifts, moves=13145,
)


def tower_maps_at_depths():
    """(tower map, depth) for every tower map that enumerate_tower_maps
    yields between posets of at most three elements at depths 1-3 (none
    exceeds the default caps), then the lift of every monotone map there
    at each depth, which must pass."""
    posets = posets_up_to(3)
    complexes = [(q, terminal_complex(q, 3)) for q in posets]
    for _, cx in complexes:
        for p in posets:
            for depth in (1, 2, 3):
                for t in enumerate_tower_maps(p, cx, depth):
                    yield t, depth
    for q, cx in complexes:
        for p in posets:
            for f in monotone_maps(p, q):
                for depth in (1, 2, 3):
                    yield lift_map(f, cx, depth), depth


register(
    "check_limit_pmorphism", check_limit_pmorphism,
    check_limit_pmorphism_by_towers, tower_maps_at_depths,
    count=49359, outcomes={True: 2856, False: 46503},
)


def tower_coords_by_recursion(p, first, depth):
    """Level 1 the given values, level l+1 at x the set of level-l values
    over up(x)."""
    levels = [tuple(first)]
    for _ in range(depth - 1):
        prev = levels[-1]
        levels.append(tuple(
            frozenset(prev[y] for y in iter_bits(p.up[x])) for x in range(p.n)
        ))
    return levels


# level-1 values are the indices, so every level carries them along
register(
    "tower_coords", tower_coords, tower_coords_by_recursion,
    lambda: ((p, tuple(range(p.n)), 3) for p in posets_up_to(4)), count=24,
    relabel=lambda p, values, depth: (
        (
            (q, moved_values(values, perm), depth),
            lambda levels, perm=perm: [moved_values(l, perm) for l in levels],
        )
        for perm, q in relabellings(p)
    ),
    moves=419,
)


def agreeing_maps():
    """(source, map, target levels) for every monotone map from a poset of
    at most four elements into a labelled poset of at most two, the
    target's lift taken on the identity to depth 3."""
    targets = [t for s in posets_up_to(2) for t in labellings(s)]
    for p in posets_up_to(4):
        for t in targets:
            target = tower_coords(t, range(t.n), 3)
            for f in monotone_maps(p, t):
                yield p, f.assign, target


def agrees_by_depth(p, assign, target):
    return tuple(
        image_tower_agrees(p, assign, target[:depth], assign)
        for depth in (1, 2, 3)
    )


def agrees_by_nested_values(p, assign, target):
    """Whether the nested-value route finds no disagreement up to each
    depth."""
    source = tower_coords(p, range(p.n), 3)
    fail = first_disagreement(assign.__getitem__, source, target, assign)
    return tuple(fail > depth for depth in (1, 2, 3))


register(
    "image_tower_agrees", agrees_by_depth, agrees_by_nested_values,
    agreeing_maps, count=454,
    relabel=lambda p, assign, target: (
        ((q, moved_values(assign, perm), target), same)
        for perm, q in relabellings(p)
    ),
    moves=8829, outcomes={(True, True, True): 262, (True, False, False): 192},
)


# == frames ==================================================================


def every_relation_frame(p):
    """Every relation on p as a frame, mix law or not."""
    n = p.n
    for bits in range(1 << (n * n)):
        yield ModalFrame(p, [bits >> (x * n) & p.full_mask for x in range(n)])


def mix_rows_by_bits(frame):
    """The bit loops that the mix closure replaced: per x, the union of
    ↑v over v in R[u] for u in ↑x."""
    p, rel = frame.poset, frame.rel
    out = []
    for x in range(p.n):
        closed = 0
        for u in iter_bits(p.up[x]):
            for v in iter_bits(rel[u]):
                closed |= p.up[v]
        out.append(closed)
    return out


def mix_law_witness_by_bits(frame):
    p = frame.poset
    for x, closed in enumerate(mix_rows_by_bits(frame)):
        extra = closed & ~frame.rel[x]
        if extra:
            return (p.labels[x], p.labels[next(iter_bits(extra))])
    return None


register(
    "mix_closure", lambda fr: (mix_closure(fr).rel, mix_law_witness(fr)),
    lambda fr: (
        tuple(mix_rows_by_bits(fr)), mix_law_witness_by_bits(fr)
    ),
    lambda: (
        (fr,) for p in posets_up_to(3) for fr in every_relation_frame(p)
    ),
    count=2594,
)


def relabelled_relations():
    """(frame, perm, moved posets) for every relation of every poset on at
    most three elements and, on four, a seeded dozen per labelling (six
    mix closures, each also with one bit flipped); the moved posets are
    the relabelled order given by its rows and by its covers."""
    rng = random.Random(1649)
    for p in posets_up_to(4):
        for perm, q in relabellings(p):
            covers = by_covers(q)
            if p.n <= 3:
                frames = list(every_relation_frame(p))
            else:
                frames = []
                for _ in range(6):
                    rel = list(mix_closure(ModalFrame(
                        p, [rng.getrandbits(p.n) & rng.getrandbits(p.n)
                            for _ in range(p.n)])).rel)
                    flipped = list(rel)
                    flipped[rng.randrange(p.n)] ^= 1 << rng.randrange(p.n)
                    frames += [ModalFrame(p, rel), ModalFrame(p, flipped)]
            for fr in frames:
                yield fr, perm, (q, covers)


def moved_relation_frames(fr, perm, posets):
    """The relation moved onto each moved poset: (moved frame, perm, ())."""
    moved = move_rows(fr.rel, perm, perm)
    return [(ModalFrame(q, moved), perm, ()) for q in posets]


register(
    "ModalFrame.mix_witness", lambda fr: fr.mix_witness,
    mix_law_witness_by_bits,
    lambda: (
        moved[:1]
        for inst in relabelled_relations()
        for moved in moved_relation_frames(*inst)
    ),
    count=40068,
)


# the relabelled frames are the instances of ModalFrame.mix_witness, whose
# witness moves with the labels only up to the order of the indices
register(
    "check_mix_law", lambda fr, *_: check_mix_law(fr),
    lambda fr, *_: mix_law_witness_by_bits(fr) is None, relabelled_relations,
    count=20034, outcomes={True: 7711, False: 12323},
)


def frames_on_covers():
    """Every relation, mix law or not, on every labelling of a poset of at
    most three elements rebuilt from its covers (by_covers)."""
    for q in distinct_labellings(3):
        yield from zip(every_relation_frame(by_covers(q)))


# the fast path alone: mix_law_witness falls back to the rows of
# (<=);R;(<=) when it fails, which would hide a fast path that fails a
# lawful frame
register(
    "frames._holds_on_generators", frames_module._holds_on_generators,
    lambda fr: mix_law_witness_by_bits(fr) is None, frames_on_covers,
    count=9778, outcomes={True: 1610, False: 8168},
)


def index_lifted(frame, depth):
    """The lift of x -> R[x] as nested levels over Up(P) indices."""
    return tower_coords(frame.poset, frame_to_upmap(frame).assign, depth)


def index_coalgebra_morphism(f, frame1, frame2, depth=3):
    """check_coalgebra_morphism through the Up(P) posets: level-1 values are
    indices, and f acts on them by up_functor_map."""
    if f.source != frame1.poset or f.target != frame2.poset:
        return False
    if not is_pmorphism(f):
        return False
    u = up_functor_map(f).assign.__getitem__
    towers1 = index_lifted(frame1, depth)
    towers2 = index_lifted(frame2, depth)
    for x in range(frame1.poset.n):
        fx = f.assign[x]
        for level in range(1, depth + 1):
            lhs = nested_image(u, level, towers1[level - 1][x])
            if lhs != towers2[level - 1][fx]:
                return False
    return True


def maps_between_frames():
    """(f, f1, f2) for every map between the posets of two frames on at
    most two elements, then for 400 seeded pairs of the 310 frames (half
    of them a frame with itself)."""
    posets = posets_up_to(2)
    for p in posets:
        for q in posets:
            maps = list(all_functions(p, q))
            for f1 in frames_on(p):
                for f2 in frames_on(q):
                    yield from ((f, f1, f2) for f in maps)
    frames = iso_frames_up_to_three()
    rng = random.Random(404)
    for _ in range(400):
        f1 = rng.choice(frames)
        f2 = rng.choice([f1, rng.choice(frames)])
        yield from ((f, f1, f2) for f in all_functions(f1.poset, f2.poset))


# at depth 3, on upset masks, against the index route over Up(P)
register(
    "check_coalgebra_morphism",
    lambda f, f1, f2: check_coalgebra_morphism(f, f1, f2, 3),
    index_coalgebra_morphism, maps_between_frames,
    count=12255, outcomes={True: 682, False: 11573},
)


def pmorphisms_between_frames():
    """(f, f1, f2, depth, lifts of f1 and f2) for every p-morphism between
    the posets of each pair of the 310 frames, one depth each, the depths
    1-3 in turn, the lifts computed once."""
    lifted = {}
    for fr in iso_frames_up_to_three():
        lifted.setdefault(fr.poset, []).append((fr, frame_to_lifted(fr, 3)))
    count = 0
    for p, sources in lifted.items():
        for q, targets in lifted.items():
            for f in pmorphisms(p, q):
                for f1, levels1 in sources:
                    for f2, levels2 in targets:
                        yield f, f1, f2, 1 + count % 3, levels1, levels2
                        count += 1


register(
    "check_coalgebra_morphism:nested",
    lambda f, f1, f2, depth, *_: check_coalgebra_morphism(f, f1, f2, depth),
    lambda f, f1, f2, depth, levels1, levels2: (
        first_disagreement(f.image_mask, levels1, levels2, f.assign) > depth
    ),
    pmorphisms_between_frames, count=735776,
    outcomes={True: 28773, False: 707003},
)


def families(p):
    """(p, family) for every family of upsets of p."""
    order = up_functor(p)
    return ((p, fam) for fam in range(1 << order.n))


def strict_accepts(p, fam):
    try:
        NbhdFrame(p, [fam] * p.n, strict=True)
    except ValueNotUpset:
        return False
    return True


def up_closed(p, fam):
    """Whether every upset below a member in the reverse-inclusion order
    is a member too."""
    order = up_functor(p)
    return all(
        (fam >> j) & 1 for i in iter_bits(fam) for j in iter_bits(order.up[i])
    )


register(
    "NbhdFrame:strict", strict_accepts, up_closed,
    lambda: (i for p in posets_up_to(3) for i in families(p)), count=428,
    outcomes={True: 62, False: 366},
)


def maps_up_to_two():
    posets = posets_up_to(2)
    return [f for p in posets for q in posets for f in monotone_maps(p, q)]


def pull_backs_by_bits(f):
    """PowUp(f) one family of source upsets at a time."""
    pre = preimage_table(f)
    families = 1 << up_functor(f.source).n
    return [pull_back_by_bits(pre, fam) for fam in range(families)]


register(
    "pow_up_map", lambda f: list(pow_up_map(f).assign), pull_backs_by_bits,
    lambda: zip(maps_up_to_two()), count=20,
)


def nbhd_frames_up_to_two():
    return {p: all_nbhd_frames(p) for p in posets_up_to(2)}


def nbhd_condition_instances():
    """(f, nf1, nf2, nf1's families pulled back one bit at a time): criterion
    9's instances, every monotone map between posets of at most two
    elements and every pair of neighbourhood frames on them."""
    frames = nbhd_frames_up_to_two()
    for f in maps_up_to_two():
        pre = preimage_table(f)
        for nf1 in frames[f.source]:
            pulled = [pull_back_by_bits(pre, fam) for fam in nf1.families]
            for nf2 in frames[f.target]:
                yield f, nf1, nf2, pulled


register(
    "nbhd_morphism_condition",
    lambda f, nf1, nf2, _: nbhd_morphism_condition(f, nf1, nf2),
    lambda f, nf1, nf2, pulled: all(
        nf2.families[t] == b for t, b in zip(f.assign, pulled)
    ),
    nbhd_condition_instances, count=309215,
    outcomes={True: 3995, False: 305220},
)


def nbhd_square_instances():
    """(f, nf1, nf2, depth, PowUp(f), lifts of nf1 and nf2): the same maps
    and frames, one depth each, the depths 1-3 in turn, the lifts computed
    once."""
    lifted = {
        p: [
            (nf, tower_coords(p, nbhd_to_coalgebra(nf).assign, 3))
            for nf in nfs
        ]
        for p, nfs in nbhd_frames_up_to_two().items()
    }
    count = 0
    for f in maps_up_to_two():
        u = pow_up_map(f).assign.__getitem__
        for nf1, levels1 in lifted[f.source]:
            for nf2, levels2 in lifted[f.target]:
                yield f, nf1, nf2, 1 + count % 3, u, levels1, levels2
                count += 1


register(
    "check_nbhd_coalgebra_morphism",
    lambda f, nf1, nf2, depth, *_: (
        check_nbhd_coalgebra_morphism(f, nf1, nf2, depth)
    ),
    lambda f, nf1, nf2, depth, u, levels1, levels2: (
        first_disagreement(u, levels1, levels2, f.assign) > depth
    ),
    nbhd_square_instances, count=309215,
    outcomes={True: 3758, False: 305457},
)


# == bisim ===================================================================


def relabelled_frames(frames):
    """Per frame, (perm, moved frame) for every permutation of its
    indices."""
    return {
        fr: [
            (perm, relabel_frame(fr, perm))
            for perm in permutations(range(fr.poset.n))
        ]
        for fr in frames
    }


def moved_relations_rows(rows, perms):
    perm1, perm2 = perms
    return move_rows(rows, perm1, perm2)


def moved_frame_pairs(f1, f2, moved):
    """The pair (f1, f2) under every pair of labellings in the table of
    moved frames (empty: no relabelling); the relation rows move along."""
    if not moved:
        return
    for perm1, moved1 in moved[f1]:
        for perm2, moved2 in moved[f2]:
            yield (
                (moved1, moved2, None),
                functools.partial(moved_relations_rows, perms=(perm1, perm2)),
            )


def every_relation(frames):
    """Every relation between two of the frames."""
    for f1 in frames:
        for f2 in frames:
            for bits in range(1 << (f1.poset.n * f2.poset.n)):
                yield relation(f1, f2, bits)


def seeded_relation(rng, frames):
    """A seeded relation between two seeded frames."""
    f1, f2 = rng.choice(frames), rng.choice(frames)
    return relation(f1, f2, rng.getrandbits(f1.poset.n * f2.poset.n))


def shifted_chain_pairs():
    """The chains with R[x] = up(x + shift), shift 1 and 2, on 1-10 points
    each, in pairs of the same shift."""
    for shift in (1, 2):
        chains = [shifted_chain_frame(n, shift) for n in range(1, 11)]
        yield from ((c1, c2) for c1 in chains for c2 in chains)


def small_frame_pairs():
    """(f1, f2, moved frames) for every pair of frames on at most two
    elements, each under every labelling."""
    frames = small_frames()
    moved = relabelled_frames(frames)
    return [(f1, f2, moved) for f1 in frames for f2 in frames]


class CoveredMoves(dict):
    """The relabelling table of frames whose posets were rebuilt from
    their covers: each frame under every permutation of its indices,
    rebuilt from its covers again (covered_frame), filled on first use."""

    def __missing__(self, fr):
        moves = self[fr] = [
            (perm, covered_frame(fr, perm))
            for perm in permutations(range(fr.poset.n))
        ]
        return moves


def covered_frames(frames):
    """Every frame under every permutation of its indices, its poset
    rebuilt from its covers (covered_frame), each labelled frame once."""
    out = {}
    for fr in frames:
        for perm in permutations(range(fr.poset.n)):
            moved = covered_frame(fr, perm)
            out.setdefault((moved.poset.up, moved.rel), moved)
    return list(out.values())


def covered_chain_relations(rng, count):
    """count seeded relations between the three-element frames rebuilt
    from their covers under every labelling, one side (left or right at
    random) on a chain, whose generating rows leave out the pair of its
    ends: a quarter the largest bisimulation, a quarter the full
    relation, the rest a seeded relation."""
    frames = covered_frames(
        f for f in iso_frames_up_to_three() if f.poset.n == 3
    )
    chains = [f for f in frames if f.poset.generating_rows != f.poset.up]
    for _ in range(count):
        f1, f2 = rng.choice(chains), rng.choice(frames)
        if rng.random() < 0.5:
            f1, f2 = f2, f1
        draw = rng.random()
        if draw < 0.25:
            yield largest_bisimulation(f1, f2)
        elif draw < 0.5:
            yield Bisimulation.full(f1, f2)
        else:
            yield Bisimulation(f1, f2, [rng.getrandbits(3) for _ in range(3)])


def seeded_model_pairs():
    """500 seeded pairs of one-letter models on three-element frames (a
    random upset valuation each side)."""
    frames = [f for f in iso_frames_up_to_three() if f.poset.n == 3]
    rng = random.Random(2406)
    return [
        tuple(
            Model(f, {"p": random_upset(rng, f.poset)})
            for f in (rng.choice(frames), rng.choice(frames))
        )
        for _ in range(500)
    ]


def frame_pairs_for_largest():
    """Every pair of frames on at most two elements and the frames of the
    500 seeded model pairs, each side under every labelling; 2 000 seeded
    pairs of the 310 frames and the chain pairs with R[x] = up(x + shift),
    shift 1 and 2, on 1-10 points each, as they are."""
    yield from small_frame_pairs()
    models = seeded_model_pairs()
    moved = relabelled_frames({m.frame for pair in models for m in pair})
    for m1, m2 in models:
        yield m1.frame, m2.frame, moved
    frames = iso_frames_up_to_three()
    rng = random.Random(2406)
    for _ in range(2000):
        yield rng.choice(frames), rng.choice(frames), None
    yield from ((f1, f2, None) for f1, f2 in shifted_chain_pairs())


def largest_bisimulation_by_pair_scan(left, right):
    """Greatest fixpoint: start from the full relation and delete the first
    pair participating in a violated clause, one per scan, in index order.

    Terminates within |X||Y| scans; the deterministic deletion order makes
    failures reproducible. The result is the unique largest bisimulation.
    """
    pairs = set(
        (x, y) for x in range(left.poset.n) for y in range(right.poset.n)
    )
    lp, rp = left.poset, right.poset
    lrel, rrel = left.rel, right.rel
    while True:
        removed = None
        for x, x2 in sorted(pairs):
            ok = True
            for step_left, step_right in (
                (lp.up[x], rp.up[x2]),
                (lrel[x], rrel[x2]),
            ):
                for y in iter_bits(step_left):
                    if not any(
                        (step_right >> y2) & 1
                        for (a, y2) in pairs
                        if a == y
                    ):
                        ok = False
                        break
                if not ok:
                    break
                for y2 in iter_bits(step_right):
                    if not any(
                        (step_left >> y) & 1 for (y, b) in pairs if b == y2
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                removed = (x, x2)
                break
        if removed is None:
            return Bisimulation.from_pairs(left, right, frozenset(pairs))
        pairs.discard(removed)


register(
    "largest_bisimulation",
    lambda left, right, _: largest_bisimulation(left, right).rows,
    lambda left, right, _: largest_bisimulation_by_pair_scan(left, right).rows,
    frame_pairs_for_largest, count=3276, relabel=moved_frame_pairs,
    moves=20116,
)


def largest_within(left, right, rows):
    """Apply the refinement step (helpers.refine_rows) to rows until
    nothing changes: the largest bisimulation contained in the starting
    relation.

    Each step removes at least one pair or stops, so there are at most
    |X||Y| + 1 steps. Every bisimulation inside the start survives every
    step, so the result is the unique largest one.
    """
    rows = tuple(rows)
    refined = refine_rows(left, right, rows)
    while refined != rows:
        rows, refined = refined, refine_rows(left, right, refined)
    return Bisimulation(left, right, rows)


def largest_bisimulation_by_rows(left, right):
    return largest_within(left, right, [right.poset.full_mask] * left.poset.n)


def largest_model_bisimulation_by_rows(model_left, model_right):
    """Row refinement from the pairs that agree on every letter valued on
    both sides."""
    full = model_right.poset.full_mask
    rows = [full] * model_left.poset.n
    lv, rv = model_left.valuation, model_right.valuation
    for letter in lv.keys() & rv.keys():
        inside, outside = rv[letter], full & ~rv[letter]
        rows = [
            row & (inside if (lv[letter] >> x) & 1 else outside)
            for x, row in enumerate(rows)
        ]
    return largest_within(model_left.frame, model_right.frame, rows)


def frame_pairs_for_refinement():
    """10 000 seeded pairs of the 310 frames, and the chain pairs."""
    frames = iso_frames_up_to_three()
    rng = random.Random(2024)
    for _ in range(10000):
        yield rng.choice(frames), rng.choice(frames)
    yield from shifted_chain_pairs()


register(
    "largest_bisimulation:rows", largest_bisimulation,
    largest_bisimulation_by_rows, frame_pairs_for_refinement,
    count=10200,
)


def moved_model(model, perm, frame):
    return Model(
        frame, {l: move_mask(v, perm) for l, v in model.valuation.items()}
    )


def model_pairs_for_largest():
    """(m1, m2, moved frames): every one-letter model on the frames of at
    most three elements against itself and 3 000 seeded pairs of them, as
    they are; every pair of one-letter models on the frames of at most two
    elements and the 500 seeded pairs on three, each side under every
    labelling."""
    models = one_letter_models()
    rng = random.Random(13)
    for m in models:
        yield m, m, None
    for _ in range(3000):
        yield rng.choice(models), rng.choice(models), None
    frames = small_frames()
    moved = relabelled_frames(frames)
    for f1 in frames:
        for f2 in frames:
            for v1 in upset_masks(f1.poset):
                for v2 in upset_masks(f2.poset):
                    yield Model(f1, {"p": v1}), Model(f2, {"p": v2}), moved
    pairs = seeded_model_pairs()
    moved = relabelled_frames({m.frame for pair in pairs for m in pair})
    for m1, m2 in pairs:
        yield m1, m2, moved


def moved_model_pairs(m1, m2, moved):
    if not moved:
        return
    for perm1, moved1 in moved[m1.frame]:
        for perm2, moved2 in moved[m2.frame]:
            yield (
                (
                    moved_model(m1, perm1, moved1),
                    moved_model(m2, perm2, moved2),
                    None,
                ),
                functools.partial(moved_relations_rows, perms=(perm1, perm2)),
            )


register(
    "largest_model_bisimulation",
    lambda m1, m2, _: largest_model_bisimulation(m1, m2).rows,
    lambda m1, m2, _: largest_model_bisimulation_by_rows(m1, m2).rows,
    model_pairs_for_largest, count=12818, relabel=moved_model_pairs,
    moves=46224,
)


def clause_violation_by_pairs(bis):
    """First violated forth/back clause in deterministic order, or None.

    Scans pairs ascending; for each related (x, x') checks, for S in
    (order, modal relation): forth (successors of x must be matched from x')
    and back (successors of x' matched from x).
    """
    lp, rp = bis.left.poset, bis.right.poset
    lrel, rrel = bis.left.rel, bis.right.rel
    related = sorted(bis.pairs)
    right_sets = {}
    left_sets = {}
    for x, y in related:
        right_sets.setdefault(x, set()).add(y)
        left_sets.setdefault(y, set()).add(x)
    for x, x2 in related:
        for step_left, step_right in (
            (lp.up[x], rp.up[x2]),
            (lrel[x], rrel[x2]),
        ):
            for y in iter_bits(step_left):
                if not any(
                    (step_right >> y2) & 1 for y2 in right_sets.get(y, ())
                ):
                    return (x, x2, y, "forth")
            for y2 in iter_bits(step_right):
                if not any(
                    (step_left >> y) & 1 for y in left_sets.get(y2, ())
                ):
                    return (x, x2, y2, "back")
    return None


def relations_for_clauses():
    """(relation, moved frames): every relation between frames on at most
    two elements, 1 000 seeded relations between three-element frames (a
    quarter of them the largest bisimulation), each side under every
    labelling; then 600 relations with a chain rebuilt from its covers on
    one side (covered_chain_relations), each side under every labelling,
    rebuilt from its covers again."""
    frames = small_frames()
    moved = relabelled_frames(frames)
    yield from ((bis, moved) for bis in every_relation(frames))
    frames = [f for f in iso_frames_up_to_three() if f.poset.n == 3]
    moved = relabelled_frames(frames)
    rng = random.Random(2707)
    for _ in range(1000):
        f1, f2 = rng.choice(frames), rng.choice(frames)
        if rng.random() < 0.25:
            bis = largest_bisimulation(f1, f2)
        else:
            bis = Bisimulation(f1, f2, [rng.getrandbits(3) for _ in range(3)])
        yield bis, moved
    moved = CoveredMoves()
    for bis in covered_chain_relations(random.Random(2907), 600):
        yield bis, moved


def moved_bisimulations(bis, moved):
    for perm1, moved1 in moved[bis.left]:
        for perm2, moved2 in moved[bis.right]:
            rows = move_rows(bis.rows, perm1, perm2)
            yield (Bisimulation(moved1, moved2, rows), moved), same


def projection_outcome(check, bis, depth=2):
    """check(bis, depth), or the projection it refuses."""
    try:
        return check(bis, depth)
    except ProjectionNotPMorphism as exc:
        return f"projection {exc.side}"


register(
    "is_box_bisimulation", lambda bis, _: is_box_bisimulation(bis),
    lambda bis, _: clause_violation_by_pairs(bis) is None,
    relations_for_clauses,
    count=9704, relabel=moved_bisimulations, moves=89288,
    outcomes={True: 2056, False: 7648},
)


def index_bisim_check(bis, depth=2):
    """coalgebraic_bisim_check through Up(P) posets: the structure map and
    the frames' coalgebras take Up-indices, and the projections act on them
    by up_functor_map."""
    bp, chosen, (proj_left, proj_right) = pmorphic_relation_poset(bis)
    fv_b = up_functor(bp)
    rho = [fv_b.index_of_mask(m) for m in rho_by_pairs(bis, chosen)]
    towers_b = tower_coords(bp, rho, depth)
    towers_l = tower_coords(
        bis.left.poset, frame_to_upmap(bis.left).assign, depth
    )
    towers_r = tower_coords(
        bis.right.poset, frame_to_upmap(bis.right).assign, depth
    )
    u_l = up_functor_map(proj_left).assign.__getitem__
    u_r = up_functor_map(proj_right).assign.__getitem__
    for i, (x, y) in enumerate(chosen):
        for level in range(1, depth + 1):
            value = towers_b[level - 1][i]
            if nested_image(u_l, level, value) != towers_l[level - 1][x]:
                return False
            if nested_image(u_r, level, value) != towers_r[level - 1][y]:
                return False
    return True


def nested_bisim_check(bis, depth=2):
    """coalgebraic_bisim_check as it lifted the relation poset and pushed
    each nested value through the projections, before image_tower_agrees."""
    bp, chosen, projections = pmorphic_relation_poset(bis)
    rho_masks = rho_by_pairs(bis, chosen)
    levels_l = frame_to_lifted(bis.left, depth)
    levels_r = frame_to_lifted(bis.right, depth)
    levels_b = tower_coords(bp, rho_masks, depth)
    return all(
        first_disagreement(proj.image_mask, levels_b, levels, proj.assign)
        > depth
        for proj, levels in zip(projections, (levels_l, levels_r))
    )


register(
    "coalgebraic_bisim_check",
    lambda bis, _: projection_outcome(coalgebraic_bisim_check, bis),
    lambda bis, _: projection_outcome(index_bisim_check, bis),
    relations_for_clauses, count=9704, relabel=moved_bisimulations,
    moves=89288,
    outcomes={
        True: 2056, False: 5361,
        "projection left": 1276, "projection right": 1011,
    },
)


def relations_for_projections():
    """(relation, moved frames): every relation between frames on at most
    two elements, each side under every labelling, then 2 000 seeded pairs
    of the 310 frames, each with a seeded relation and with its largest
    bisimulation, as they are; then 2 000 relations with a chain rebuilt
    from its covers on one side (covered_chain_relations), as they
    are."""
    frames = small_frames()
    moved = relabelled_frames(frames)
    yield from ((bis, moved) for bis in every_relation(frames))
    frames = iso_frames_up_to_three()
    as_they_are = dict.fromkeys(frames, ())
    rng = random.Random(2210)
    for _ in range(2000):
        bis = seeded_relation(rng, frames)
        yield bis, as_they_are
        yield largest_bisimulation(bis.left, bis.right), as_they_are
    as_they_are = defaultdict(tuple)
    for bis in covered_chain_relations(random.Random(2908), 2000):
        yield bis, as_they_are


register(
    "bisim._failing_projection", lambda bis, _: bisim._failing_projection(bis),
    lambda bis, _: failing_projection_by_pmorphism(bis),
    relations_for_projections, count=14104, relabel=moved_bisimulations,
    moves=31688, outcomes={None: 10449, "left": 2145, "right": 1510},
)


def relations_on_covers():
    """Every relation between two frames on a labelling of a poset of at
    most two elements or on a chain of three rebuilt from its covers
    (by_covers), with no modal pairs, which the order clauses do not read;
    then 40 000 seeded relations between the 310 frames and their copies
    rebuilt from their covers under every labelling (covered_frames)."""
    chain = make_poset("abc", [("a", "b"), ("b", "c")])
    posets = distinct_labellings(2) + [by_covers(q) for q in labellings(chain)]
    yield from zip(every_relation([ModalFrame(p, [0] * p.n) for p in posets]))
    frames = iso_frames_up_to_three()
    frames += covered_frames(frames)
    rng = random.Random(2909)
    for _ in range(40_000):
        yield (seeded_relation(rng, frames),)


# the order clauses on generating pairs against their up-set and down-set
# form, on posets whose generating rows are their covers
register(
    "bisim._failing_projection:upsets", bisim._failing_projection,
    failing_projection_by_upsets, relations_on_covers, count=61002,
    outcomes={None: 20761, "left": 27371, "right": 12870},
)


def relations_on_every_relation_frame():
    """Every relation between two frames on a labelling of a poset of at
    most two elements, mix law or not; then 40 000 seeded relations
    between the 310 frames."""
    frames = [
        fr for p in posets_up_to(2) for q in labellings(p)
        for fr in every_relation_frame(q)
    ]
    yield from zip(every_relation(frames))
    frames = iso_frames_up_to_three()
    rng = random.Random(2707)
    for _ in range(40_000):
        yield (seeded_relation(rng, frames),)


# one refinement step (helpers.refine_rows) removes no pair
register(
    "is_box_bisimulation:refine", is_box_bisimulation,
    lambda bis: refine_rows(bis.left, bis.right, bis.rows) == bis.rows,
    relations_on_every_relation_frame, count=77640,
    outcomes={True: 7080, False: 70560},
)


def relations_at_depths():
    """(relation, depth) at depths 1-4: every relation between the 18
    frames on at most two elements up to isomorphism, then 40 000 seeded
    relations between the 310 frames."""
    frames = [f for f in iso_frames_up_to_three() if f.poset.n <= 2]
    for bis in every_relation(frames):
        yield from ((bis, depth) for depth in (1, 2, 3, 4))
    frames = iso_frames_up_to_three()
    rng = random.Random(2606)
    for _ in range(40_000):
        bis = seeded_relation(rng, frames)
        yield from ((bis, depth) for depth in (1, 2, 3, 4))


# decided at level 1 against the route that compares every level up to the
# depth, including which projection it refuses
register(
    "coalgebraic_bisim_check:towers",
    functools.partial(projection_outcome, coalgebraic_bisim_check),
    functools.partial(projection_outcome, tower_bisim_check),
    relations_at_depths, count=177440,
    outcomes={
        True: 8912, False: 70532,
        "projection left": 59164, "projection right": 38832,
    },
)


def compatible_by_pairs(bis, model_left, model_right):
    """The pair loop that bisim._compatible replaced."""
    for letter in set(model_left.valuation) | set(model_right.valuation):
        lv = model_left.valuation.get(letter)
        rv = model_right.valuation.get(letter)
        if lv is None or rv is None:
            return False
        for x, y in bis.pairs:
            if (lv >> x) & 1 != (rv >> y) & 1:
                return False
    return True


def relations_with_valuations():
    """(relation, m1, m2) for every relation between frames on at most two
    elements and every one-letter upset valuation of each side, then the
    full and the identity relation between models that value different
    letters, each way round (on the identity, the shared letter agrees)."""
    for bis in every_relation(small_frames()):
        f1, f2 = bis.left, bis.right
        for v1 in upset_masks(f1.poset):
            for v2 in upset_masks(f2.poset):
                yield bis, Model(f1, {"p": v1}), Model(f2, {"p": v2})
    fr = serial_chain_frame()
    both, one = Model(fr, {"p": 2, "q": 2}), Model(fr, {"p": 2})
    for bis in (Bisimulation.full(fr, fr), Bisimulation(fr, fr, (1, 2))):
        yield bis, both, one
        yield bis, one, both


register(
    "bisim._compatible", bisim._compatible, compatible_by_pairs,
    relations_with_valuations, count=110244,
    outcomes={True: 37120, False: 73124},
)


def saturated_valuation_by_pairs(bis, left_seed, right_seed):
    """The pair loop that saturated_valuation replaced."""
    lp, rp = bis.left.poset, bis.right.poset
    lm, rm = left_seed, right_seed
    while True:
        nl = lp.up_close(lm)
        nr = rp.up_close(rm)
        for x, y in bis.pairs:
            if (nl >> x) & 1:
                nr |= 1 << y
            if (nr >> y) & 1:
                nl |= 1 << x
        if (nl, nr) == (lm, rm):
            return lm, rm
        lm, rm = nl, nr


def relations_with_seeds():
    """(relation, left seed, right seed) for every relation between frames
    on at most two elements and every pair of subsets."""
    for bis in every_relation(small_frames()):
        for ls in range(1 << bis.left.poset.n):
            for rs in range(1 << bis.right.poset.n):
                yield bis, ls, rs


register(
    "saturated_valuation", saturated_valuation, saturated_valuation_by_pairs,
    relations_with_seeds,
    count=126752,
)


def disjoint_sum_by_pairs(model_left, model_right):
    """The coproduct of two models built from their pairs: each side's
    order and modal pairs on its labels tagged 0 and 1, and each letter
    valued on both sides true at the tagged points where it holds."""
    sides = (model_left, model_right)
    labels = [(k, lab) for k, m in enumerate(sides) for lab in m.poset.labels]
    order, modal = [], []
    for k, m in enumerate(sides):
        tagged = [(k, lab) for lab in m.poset.labels]
        order += [(tagged[x], tagged[y]) for x, y in pairs_of(m.poset.up)]
        modal += [(tagged[x], tagged[y]) for x, y in pairs_of(m.frame.rel)]
    frame = ModalFrame.from_pairs(make_poset(labels, order), modal)
    index = frame.poset.index
    valuation = {}
    for letter in model_left.valuation.keys() & model_right.valuation.keys():
        valuation[letter] = sum(
            1 << index((k, m.poset.labels[x]))
            for k, m in enumerate(sides)
            for x in iter_bits(m.valuation[letter])
        )
    return Model(frame, valuation)


def distinguishing_formulas_by_stream(
    model_left, model_right, pairs, formulas
):
    """Per index pair (x, y), the first formula in the stream on which point
    x of the left model and point y of the right model disagree, or None.

    Each formula is evaluated once on the disjoint sum, for all pairs at
    once, and only when its truth set is new there; one mask of pending
    partners is kept per left point, and the stream is read only until
    every pair has its formula.
    """
    model = disjoint_sum_by_pairs(model_left, model_right)
    n = model_left.poset.n
    pending = {}
    for x, y in pairs:
        pending[x] = pending.get(x, 0) | 1 << y
    found = {}
    cache, seen = {}, set()
    formulas = iter(formulas)
    while pending:
        phi = next(formulas, None)
        if phi is None:
            break
        t = truth_mask(model, phi, cache)
        if t in seen:
            continue
        seen.add(t)
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


def unrelated_pairs(m1, m2):
    """The index pairs outside the largest bisimulation of the frames."""
    bis = largest_bisimulation(m1.frame, m2.frame)
    return [
        (x, y)
        for x in range(m1.poset.n)
        for y in range(m2.poset.n)
        if (x, y) not in bis.pairs
    ]


def model_pairs_to_distinguish():
    """(m1, m2, formulas): every pair of one-letter models on the frames of
    at most two elements and 1 000 seeded pairs on the 310 frames, with the
    formulas of depth 2; the chain n against the chain n + 1 (R[x] =
    up(x + 1), p at the top) for n = 1-8, with the formulas of depth 3."""
    formulas = list(enumerate_formulas(["p"], 2))
    frames = small_frames()
    for f1 in frames:
        for f2 in frames:
            for v1 in upset_masks(f1.poset):
                for v2 in upset_masks(f2.poset):
                    yield Model(f1, {"p": v1}), Model(f2, {"p": v2}), formulas
    for m1, m2 in sampled_model_pairs(1000):
        yield m1, m2, formulas
    formulas = list(enumerate_formulas(["p"], 3))
    for n in range(1, 9):
        yield valued_chain(n), valued_chain(n + 1), formulas


def distinguishing_formulas(m1, m2, formulas):
    labels1, labels2 = m1.poset.labels, m2.poset.labels
    return {
        (x, y): distinguishing_formula(
            m1, labels1[x], m2, labels2[y], formulas
        )
        for x, y in unrelated_pairs(m1, m2)
    }


register(
    "distinguishing_formula", distinguishing_formulas,
    lambda m1, m2, formulas: distinguishing_formulas_by_stream(
        m1, m2, unrelated_pairs(m1, m2), formulas
    ),
    model_pairs_to_distinguish, count=8404,
)


def agreement_by_truth_sets(model_left, x, model_right, y, formulas):
    """The agreement loop of bisimilarity_preserves_truth, after its
    bisimilarity and compatibility checks have passed."""
    xi = model_left.poset.index(x)
    yi = model_right.poset.index(y)
    cache_l, cache_r = {}, {}
    for phi in formulas:
        lt = truth_mask(model_left, phi, cache_l)
        rt = truth_mask(model_right, phi, cache_r)
        if (lt >> xi) & 1 != (rt >> yi) & 1:
            return False
    return True


def bisimilar_points():
    """(m1, a, m2, b, formulas of depth 2) for every relation on every
    poset of at most two elements, mix law or not, every seed of a
    saturated valuation along the largest bisimulation of the frame with
    itself, and every pair a, b it relates."""
    formulas = list(enumerate_formulas(["p"], 2))
    for p in posets_up_to(2):
        for fr in every_relation_frame(p):
            bis = largest_bisimulation(fr, fr)
            for seed in range(1 << p.n):
                lm, rm = saturated_valuation(bis, left_seed=seed)
                m1, m2 = Model(fr, {"p": lm}), Model(fr, {"p": rm})
                for x, y in sorted(bis.pairs):
                    yield m1, p.labels[x], m2, p.labels[y], formulas


# bisimilar points agree here even where the mix law fails, so both sides
# read True; the check is that the wrapper path says so too
register(
    "bisimilarity_preserves_truth", bisimilarity_preserves_truth,
    agreement_by_truth_sets, bisimilar_points, count=420,
)


# == logic ===================================================================


def first_found(model):
    return tuple(first_formulas(model, ("p",), FORMULA_DEPTH))


def models_and_formulas():
    """(model, formulas) for every one-letter model on the frames of at
    most three elements: the first formula of every truth set, and the
    formulas of depth 1."""
    depth1 = list(enumerate_formulas(("p",), 1))
    for model in one_letter_models():
        yield model, [phi for phi, _ in first_found(model)] + depth1


def truth_masks(model, formulas, evaluate=truth_mask):
    cache = {}
    return tuple(evaluate(model, phi, cache) for phi in formulas)


def relabelled_models(model):
    """(perm, moved model) for every permutation of the model's points."""
    for perm in permutations(range(model.poset.n)):
        yield perm, moved_model(model, perm, relabel_frame(model.frame, perm))


def on_relabelled_models(move):
    """The relabelling rule of an entry on a model (and what follows it):
    the model under every permutation of its points, the result moved by
    move(result, perm)."""
    return lambda model, *rest: (
        ((moved, *rest), functools.partial(move, perm=perm))
        for perm, moved in relabelled_models(model)
    )


register(
    "truth_mask", truth_masks,
    functools.partial(truth_masks, evaluate=truth_mask_by_recursion),
    models_and_formulas, count=1922,
    relabel=on_relabelled_models(moved_masks), moves=11280,
)


def definable_by_closure(model):
    """T, F and the letters' sets, closed under the connectives until
    nothing new appears."""
    p, frame = model.poset, model.frame
    found = {0, p.full_mask, *model.valuation.values()}
    while True:
        new = {box_mask(frame, a) for a in found}
        for a in found:
            for b in found:
                new |= {a & b, a | b, impl_mask(p, a, b)}
        if new <= found:
            return found
        found |= new


def moved_set(masks, perm):
    return {move_mask(t, perm) for t in masks}


register(
    "definable_masks", definable_masks, definable_by_closure,
    lambda: zip(one_letter_models()), count=1922,
    relabel=on_relabelled_models(moved_set), moves=11280,
)


def first_formulas_by_truth(model):
    """The first formulas' truth sets, each by recursion over its formula;
    together they must be every definable truth set (definable_by_closure),
    which FORMULA_DEPTH is deep enough to reach."""
    found = first_found(model)
    truths = [(phi, truth_mask_by_recursion(model, phi)) for phi, _ in found]
    assert {t for _, t in truths} == definable_by_closure(model)
    return tuple(truths)


def moved_found(found, perm):
    return tuple((phi, move_mask(t, perm)) for phi, t in found)


register(
    "first_formulas", first_found, first_formulas_by_truth,
    lambda: zip(one_letter_models()), count=1922,
    relabel=on_relabelled_models(moved_found), moves=11280,
)


def first_formulas_of_models():
    """The first formulas of the one-letter models, each once."""
    return dict.fromkeys(
        phi for model in one_letter_models() for phi, _ in first_found(model)
    )


def printed_and_parsed(phi):
    text = print_formula(phi)
    return text, parse(text)


register(
    "print_formula", printed_and_parsed,
    lambda phi: (print_formula_by_recursion(phi), phi),
    lambda: zip(first_formulas_of_models()), count=74,
)


# == enumeration =============================================================


def mix_relations_by_backtracking(p, upsets):
    """Upsets chosen element by element, each checked against every earlier
    choice in both directions."""
    out = []

    def extend(i, chosen):
        if i == p.n:
            out.append(tuple(chosen))
            return
        for m in upsets:
            ok = True
            for j in range(i):
                if p.leq(j, i) and m & ~chosen[j]:
                    ok = False
                    break
                if p.leq(i, j) and chosen[j] & ~m:
                    ok = False
                    break
            if ok:
                extend(i + 1, chosen + [m])

    extend(0, [])
    return out


def mix_relations_by_own_carrier(p):
    """mix_relations as it read before it searched into up_functor(p): the
    monotone maps into a poset of the upset masks built here, its rows by
    containment_rows."""
    upsets = upset_masks(p)
    ups = Poset(upsets, containment_rows(upsets, p.n))
    return [tuple(upsets[k] for k in a) for a in monotone_assignments(p, ups)]


def automorphisms_by_permutations(p):
    """Every permutation, kept when it preserves and reflects the order."""
    return [
        perm
        for perm in permutations(range(p.n))
        if all(
            p.leq(i, j) == p.leq(perm[i], perm[j])
            for i in range(p.n)
            for j in range(p.n)
        )
    ]


def monotone_maps_by_product(p, q):
    """Every one of the q.n^p.n assignments, kept when each x <= y has
    a(x) <= a(y)."""
    out = []
    for assign in iproduct(range(q.n), repeat=p.n):
        if all(
            q.leq(assign[x], assign[y])
            for x in range(p.n)
            for y in iter_bits(p.up[x])
        ):
            out.append(PosetMap(p, q, assign))
    return out


def posets_for_maps():
    """The empty poset, the labelled posets on at most three elements and
    the posets on four elements, labelled naturally and in reverse."""
    four = all_posets(4)
    return [EMPTY] + LABELLED_3 + four + list(map(reversed_labelling, four))


register(
    "monotone_maps", monotone_maps, monotone_maps_by_product,
    lambda: every_pair(posets_for_maps()), count=3136,
)


register(
    "pmorphisms", pmorphisms,
    lambda p, q: [
        f for f in monotone_maps_by_product(p, q) if is_pmorphism(f)
    ],
    lambda: every_pair(LABELLED_3), count=529,
)


# sweep samples the list by index, so the order is compared too
register(
    "mix_relations", mix_relations,
    lambda p: mix_relations_by_backtracking(p, upset_masks(p)),
    lambda: zip([EMPTY] + distinct_labellings(4)), count=243,
)


register(
    "mix_relations:own_carrier", mix_relations, mix_relations_by_own_carrier,
    lambda: zip([EMPTY] + distinct_labellings(4)), count=243,
)


def posets_for_automorphisms():
    five = all_posets(5)
    return (
        [EMPTY] + distinct_labellings(4) + five
        + list(map(reversed_labelling, five))
    )


register(
    "automorphisms", automorphisms, automorphisms_by_permutations,
    lambda: zip(posets_for_automorphisms()), count=369,
)


def allowed_assignments():
    """(p, q, allowed targets per element of p), four seeded draws for
    every pair of labelled posets on at most three elements and the empty
    one."""
    rng = random.Random(1010)
    posets = [EMPTY] + LABELLED_3
    for p in posets:
        for q in posets:
            for _ in range(4):
                yield p, q, [rng.getrandbits(q.n) for _ in range(p.n)]


def assignments_by_filtering(p, q, allowed):
    return [
        a
        for a in monotone_assignments(p, q)
        if all(allowed[x] >> t & 1 for x, t in enumerate(a))
    ]


register(
    "monotone_assignments", lambda *i: list(monotone_assignments(*i)),
    assignments_by_filtering, allowed_assignments, count=2304,
)


def tower_maps_by_backtracking(source, complex, depth, base_map=None,
                               caps=DEFAULT_CAPS):
    """Per level, a backtracking search over each element's fibre list,
    checking every candidate against all earlier choices."""
    if base_map is not None:
        firsts = [base_map]
    else:
        firsts = monotone_maps_by_product(source, complex.stages[1])
    out = []
    budget = caps.max_enumeration
    for f1 in firsts:
        partial = [tuple(f1.assign)]

        def extend(level):
            nonlocal budget
            if level > depth:
                budget -= 1
                if budget < 0:
                    raise EnumerationTooLarge("too many tower maps")
                maps = [terminal_map(source, complex.stages[0])]
                maps += [
                    PosetMap(source, complex.stages[lv], partial[lv - 1])
                    for lv in range(1, depth + 1)
                ]
                out.append(TowerMap(source, complex, depth, maps))
                return
            stage = complex.stages[level]
            root = complex.root_maps[level].assign
            fibers = [
                [j for j in range(stage.n) if root[j] == partial[level - 2][x]]
                for x in range(source.n)
            ]

            def assign_from(x, chosen):
                if x == source.n:
                    partial.append(tuple(chosen))
                    extend(level + 1)
                    partial.pop()
                    return
                for j in fibers[x]:
                    if all(
                        (not source.leq(y, x) or stage.leq(chosen[y], j))
                        and (not source.leq(x, y) or stage.leq(j, chosen[y]))
                        for y in range(x)
                    ):
                        assign_from(x + 1, chosen + [j])

            assign_from(0, [])

        extend(2)
    return out


def tower_map_searches():
    """(source, complex, depth, base map): every labelled poset on at most
    three elements into the depth-2 terminal complexes over the posets on
    at most three elements, and, at depth 3 over the first four of them,
    with every monotone base map fixed in turn."""
    posets = posets_up_to(3)
    for q in posets:
        cx = build_complex(terminal_map(q), 2)
        for p in LABELLED_3:
            yield p, cx, 2, None
    for q in posets[:4]:
        cx = build_complex(terminal_map(q), 3)
        for p in LABELLED_3:
            for f in monotone_maps(p, q):
                yield p, cx, 3, f


def tower_maps_read(search, source, cx, depth, base_map):
    return [t.maps for t in search(source, cx, depth, base_map=base_map)]


# TowerMap equality reads the assignments, so the maps are compared
register(
    "enumerate_tower_maps",
    functools.partial(tower_maps_read, enumerate_tower_maps),
    functools.partial(tower_maps_read, tower_maps_by_backtracking),
    tower_map_searches, count=518,
)


# == freealg =================================================================


def index_route_stages(base, stages, inner_depth):
    """The layer sequence by the nested-value route over Up(P) indices: R_k
    by the iterated root of the inner tower's nested value, projections by
    pushing nested values through up_functor_map and looking them up in
    the previous complex's value table."""
    out = [SimpleNamespace(
        index=0, poset=base, projection=identity_map(base),
        inner_depth=inner_depth,
    )]
    for _ in range(stages):
        stage = out[-1]
        fv = up_functor(stage.poset)
        cx = terminal_complex(fv, inner_depth)
        vals = stage_values(cx, inner_depth)
        poset = product(base, cx.stages[inner_depth])
        pairs = tuple(
            (i, j) for i in range(base.n)
            for j in range(cx.stages[inner_depth].n)
        )
        rel = []
        for _, j in pairs:
            coord = vals[j]
            for level in range(inner_depth, 1, -1):
                coord = value_root(fv, level, coord)
            rel.append(fv.masks[coord])
        if stage.index == 0:
            assign = [i for i, _ in pairs]
        else:
            u = up_functor_map(stage.projection).assign
            prev_n = stage.cx.stages[inner_depth].n
            assign = [
                i * prev_n + stage.index_of[
                    nested_image(u.__getitem__, inner_depth, vals[j])
                ]
                for i, j in pairs
            ]
        out.append(SimpleNamespace(
            index=stage.index + 1, poset=poset,
            projection=PosetMap(poset, stage.poset, assign),
            inner_depth=inner_depth, prev=stage.poset, rel=tuple(rel),
            pairs=pairs, fv=fv, cx=cx,
            index_of={v: k for k, v in enumerate(vals)},
        ))
    return out


def index_route_lift(p, frame, stages):
    """universal_lift's maps with successor images read as Up(P) indices."""
    d = stages[0].inner_depth
    source = p.source
    maps = [p]
    for stage in stages[1:]:
        images = [
            stage.fv.index_of_mask(
                stage.prev.up_close(maps[-1].image_mask(frame.rel[y]))
            )
            for y in range(source.n)
        ]
        top = tower_coords(source, images, d)[d - 1]
        inner_n = stage.cx.stages[d].n
        maps.append(PosetMap(source, stage.poset, [
            p.assign[y] * inner_n + stage.index_of[top[y]]
            for y in range(source.n)
        ]))
    return maps


def index_route_truncated_pmorphism(stage, assign, source):
    """check_truncated_pmorphism with the depth d-1 tower recovered by
    value_root over the nested index values."""
    if not is_monotone(PosetMap(source, stage.poset, assign)):
        return False
    d = stage.inner_depth
    vals = stage_values(stage.cx, d)

    def prefix(c):
        return None if d == 1 else value_root(stage.fv, d, vals[c])

    for y in range(source.n):
        for e2 in iter_bits(stage.poset.up[assign[y]]):
            x2, c2 = stage.pairs[e2]
            if not any(
                stage.pairs[assign[y2]][0] == x2
                and prefix(stage.pairs[assign[y2]][1]) == prefix(c2)
                for y2 in iter_bits(source.up[y])
            ):
                return False
    return True


def truncated_pmorphism_instances():
    """(library stage, nested-route stage, assignment, source): every
    monotone map from the point and the 2-chain into every layer of the
    criterion-8 configurations."""
    for name, stages, depth in sorted(GOLDEN_STAGE_SIZES):
        base = free_bases()[name]
        lib = build_free_stages(base, stages, depth)
        ref = index_route_stages(base, stages, depth)
        for source in (point_poset(), chain2()):
            for k in range(1, stages + 1):
                for f in monotone_maps(source, lib[k].poset):
                    yield lib[k], ref[k], f.assign, source


register(
    "check_truncated_pmorphism",
    lambda stage, _, assign, source: (
        check_truncated_pmorphism(stage, assign, source)
    ),
    lambda _, stage, assign, source: (
        index_route_truncated_pmorphism(stage, assign, source)
    ),
    truncated_pmorphism_instances, count=773,
    outcomes={True: 312, False: 461},
)


def projected_pairs():
    """(layers, e) for every element e of layer 2 over one generator at
    inner depth 1."""
    stages = build_free_stages(generator_poset(["p"]), 2, 1)
    return ((stages, e) for e in range(stages[2].poset.n))


# the projection of (x, C) keeps x and pushes the inner tower
register(
    "FreeStage.projection",
    lambda stages, e: stages[1].pairs[stages[2].projection.assign[e]][0],
    lambda stages, e: stages[2].pairs[e][0], projected_pairs, count=20,
)


# == the oracles that plain tests still compare with by hand ===================


def containment_rows_by_columns(masks, width):
    """The column-bitset kernel that containment_rows replaced: one column
    col[i] = {j : i in masks[j]} per base element, and row k clears every
    column of an element outside masks[k]."""
    cols = [0] * width
    for j, m in enumerate(masks):
        for i in iter_bits(m):
            cols[i] |= 1 << j
    full = (1 << len(masks)) - 1
    rows = []
    for m in masks:
        out = 0
        for i in iter_bits(((1 << width) - 1) & ~m):
            out |= cols[i]
        rows.append(full & ~out)
    return tuple(rows)


def make_poset_by_fixpoint(labels, pairs):
    """The closure loop that make_poset's Warshall pass replaced: replace
    each row by the union of the rows over its bits until nothing changes."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = image(up, up[i])
            if acc != up[i]:
                up[i] = acc
                changed = True
    return Poset(labels, up)


def first_of_each_truth_set(stream):
    """first_formulas as a filter on a stream of (formula, truth set)
    pairs: the first formula of each truth set."""
    seen = set()
    out = []
    for phi, t in stream:
        if t not in seen:
            seen.add(t)
            out.append((phi, t))
    return out
