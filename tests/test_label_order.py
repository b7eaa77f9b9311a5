"""The upset, openness and stage kernels do not depend on how a poset is
labelled.

``all_posets`` labels naturally, so every other test meets only posets
whose index order is a linear extension. Here each poset on at most four
elements is taken under every permutation of its indices (419 labelled
posets, repeats included), and each kernel is checked to commute with the
relabelling: f(relabel(x)) == relabel(f(x)). containment_rows is checked
the same way under permutations of the base bits, over one to three 8-bit
chunks. The rooted stage (build_p_g) over the terminal map and every
monotone map into a two-element poset is compared by label, with the order
rows it builds on first read, and verify_complex is checked on those
complexes, uncorrupted and with one member's bits flipped, against the
per-member loop it replaced. The lift (tower_coords) is checked on the
indices themselves, the
stage-index lift (lift_map) on every monotone map between posets of at most
three elements with source and target each under every labelling, its
stage elements read by their labels, and the lifted-square kernel (image_tower_agrees) on every monotone map into a
poset of at most two elements. The converse rows of a frame
(ModalFrame.pre) are checked on every frame on at most three elements
under every labelling, against the bit loop. The mix law's decision on
an order's generating pairs is checked on every relation of every poset
on at most three elements and on seeded relations on four, under every
labelling, with the order given by its rows and by its covers, against
the bit loop. The greatest bisimulation,
with and without a valuation, is checked on every pair of frames on at
most two elements and on seeded pairs of three-element frames, each side
under every labelling.
Poset.covers and poset.pairs_of are checked on every labelled poset on at
most four elements against the loops they replaced.
The truth sets (truth_mask, definable_masks and the first formulas of
first_formulas) are checked on every frame on at most three elements with
every one-letter upset valuation, under every permutation.
"""

import random
from itertools import permutations

from imcoalg.bisim import largest_bisimulation, largest_model_bisimulation
from imcoalg.complexes import (
    build_complex,
    build_p_g,
    image_tower_agrees,
    lift_map,
    terminal_complex,
    tower_coords,
    verify_complex,
)
from imcoalg.enumeration import _permuted, mix_relations, monotone_maps
from imcoalg.frames import ModalFrame, mix_closure
from imcoalg.heyting import box_mask, impl_mask, join_irreducibles
from imcoalg.logic import (
    Model,
    definable_masks,
    enumerate_formulas,
    first_formulas,
    truth_mask,
)
from imcoalg.poset import (
    Poset,
    PosetMap,
    containment_rows,
    iter_bits,
    make_poset,
    open_table,
    pairs_of,
    terminal_map,
    upset_masks,
)

from helpers import (
    covers_by_betweenness,
    first_disagreement,
    is_open_mask,
    labellings,
    move_mask,
    move_rows,
    pairs_by_loops,
    posets_up_to,
    random_upset,
    relabel_frame,
    relabellings,
    transpose_by_bits,
    verify_complex_by_members,
)
from test_bisim import _iso_frames_up_to_three, _small_frames
from test_complexes import build_p_g_by_submasks
from test_frames import mix_law_witness_by_bits
from test_heyting import join_irreducibles_oracle
from test_poset import containment_rows_oracle, g_open_by_images

RELABELLED_4 = [
    (p, perm, q) for p in posets_up_to(4) for perm, q in relabellings(p)
]
RELABELLED_3 = [(p, perm, q) for p, perm, q in RELABELLED_4 if p.n <= 3]


def test_every_permutation_is_taken():
    assert len(RELABELLED_4) == 419
    assert len({q.up for _, _, q in RELABELLED_4}) == 242


def test_upset_masks_are_the_relabelled_upsets():
    for p, perm, q in RELABELLED_4:
        moved = sorted(move_mask(m, perm) for m in upset_masks(p))
        assert upset_masks(q) == tuple(moved)


def test_impl_mask_commutes_with_relabelling():
    for p, perm, q in RELABELLED_4:
        upsets = upset_masks(p)
        for a in upsets:
            for b in upsets:
                got = impl_mask(q, move_mask(a, perm), move_mask(b, perm))
                assert got == move_mask(impl_mask(p, a, b), perm)


def test_covers_match_the_betweenness_loop():
    for p, perm, q in RELABELLED_4:
        assert q.covers() == covers_by_betweenness(q)
        assert set(q.covers()) == {(perm[i], perm[j]) for i, j in p.covers()}


def test_pairs_of_matches_the_nested_loop():
    for _, _, q in RELABELLED_4:
        strict = [row & ~(1 << i) for i, row in enumerate(q.up)]
        for rows in (q.up, q.down, strict):
            assert pairs_of(rows) == pairs_by_loops(rows)


def test_join_irreducibles_match_the_oracle():
    for _, _, q in RELABELLED_4:
        labels, up = join_irreducibles_oracle(q)
        j = join_irreducibles(q)
        assert j.labels == tuple(labels)
        assert j.up == up


def test_box_mask_commutes_with_relabelling():
    for p, perm, q in RELABELLED_3:
        for rel in mix_relations(p):
            fr = ModalFrame(p, rel)
            moved = ModalFrame(q, _permuted(rel, perm))
            for body in range(1 << p.n):
                got = box_mask(moved, move_mask(body, perm))
                assert got == move_mask(box_mask(fr, body), perm)


def moved_map(g, perm, q):
    """g on the relabelled source q: element perm[x] goes where x went."""
    assign = [0] * g.source.n
    for x, y in enumerate(g.assign):
        assign[perm[x]] = y
    return PosetMap(q, g.target, assign)


def test_open_table_commutes_with_relabelling():
    targets = [t for s in posets_up_to(2) for t in labellings(s)]
    for p, perm, q in RELABELLED_3:
        for t in targets:
            for g in monotone_maps(p, t):
                moved = moved_map(g, perm, q)
                table, moved_table = open_table(g), open_table(moved)
                for mask in range(1 << p.n):
                    want = g_open_by_images(mask, g)
                    assert is_open_mask(mask, table) == want
                    assert is_open_mask(move_mask(mask, perm), moved_table) == want
                    assert g_open_by_images(move_mask(mask, perm), moved) == want


def test_containment_rows_ignore_the_order_of_base_bits():
    # half the masks are drawn at random, half cut down from or grown out
    # of earlier ones, so that rows hold more than the diagonal
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
            moved = [move_mask(m, perm) for m in masks]
            want = containment_rows_oracle(masks)
            assert containment_rows(masks, width) == want
            assert containment_rows(moved, width) == want


def travelled(p, perm, q):
    """q with p's labels moved along with its elements: element x of p is
    element perm[x] of q, under the same label."""
    labels = [None] * p.n
    for x, y in enumerate(perm):
        labels[y] = p.labels[x]
    return Poset(labels, q.up)


def stage_by_labels(stage):
    """A rooted stage read by its elements' labels: per element, its
    root's label and the labels of the stage elements above it, read
    through the order rows that the stage builds on first read."""
    poset, base = stage.poset, stage.base
    return {
        poset.labels[i]: (
            base.labels[r],
            frozenset(poset.labels[j] for j in iter_bits(poset.up[i])),
        )
        for i, r in enumerate(stage.root_map.assign)
    }


def maps_into_two_elements(p):
    """The terminal map of p and every monotone map from p into a
    two-element poset, under each labelling of the chain."""
    targets = [t for s in posets_up_to(2) if s.n == 2 for t in labellings(s)]
    return [terminal_map(p)] + [
        f for t in targets for f in monotone_maps(p, t)
    ]


def test_build_p_g_commutes_with_relabelling():
    # the moved stage holds the moved masks and roots, those of the submask
    # scan, and read by label it is the same poset: the same roots and the
    # same elements above each, through the order rows built on first read
    count = 0
    for p, perm, q in RELABELLED_4:
        q = travelled(p, perm, q)
        for g in maps_into_two_elements(p):
            stage = build_p_g(g)
            want = {
                (move_mask(m, perm), perm[r])
                for m, r in zip(stage.member_masks, stage.root_map.assign)
            }
            h = moved_map(g, perm, q)
            moved = build_p_g(h)
            got = set(zip(moved.member_masks, moved.root_map.assign))
            assert got == want
            assert got == set(build_p_g_by_submasks(h))
            assert moved.poset._up is None
            assert stage_by_labels(moved) == stage_by_labels(stage)
            assert moved.poset.up == containment_rows_oracle(
                moved.member_masks
            )
            count += 1
    assert count == 8829


def test_verify_complex_commutes_with_relabelling():
    # the depth-3 terminal complex and the depth-2 complex over every map
    # into a two-element poset, each under every labelling: verify_complex
    # accepts each, and on every single-bit corruption of one member of
    # the deepest stage it agrees with the per-member loop under every
    # labelling
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for p, perm, q in RELABELLED_4:
        q = travelled(p, perm, q)
        for g in maps_into_two_elements(p):
            depth = 3 if g.target.n == 1 else 2
            cx = build_complex(moved_map(g, perm, q), depth)
            assert verify_complex(cx)
            masks = cx.stages[depth].masks
            width = cx.stages[depth - 1].n
            for idx in rng.sample(range(len(masks)), 1):
                for bit in range(width):
                    bad = masks[idx] ^ 1 << bit
                    cx.stages[depth].masks = (
                        masks[:idx] + (bad,) + masks[idx + 1:]
                    )
                    want = verify_complex_by_members(cx)
                    assert verify_complex(cx) == want
                    verdicts[want] += 1
            cx.stages[depth].masks = masks
    assert min(verdicts.values()) > 0


def test_tower_coords_commute_with_relabelling():
    # level-1 values are the old indices, so every level carries them along
    for p, perm, q in RELABELLED_4:
        want = tower_coords(p, range(p.n), 3)
        first = [0] * p.n
        for x, y in enumerate(perm):
            first[y] = x
        got = tower_coords(q, first, 3)
        for level_want, level_got in zip(want, got):
            assert [level_got[y] for y in perm] == list(level_want)


def test_lift_map_commutes_with_relabelling():
    # the target's labels travel with its elements, so a stage element of
    # either complex is named by the same nested frozenset of labels
    def lift_labels(f, cx):
        t = lift_map(f, cx, 3)
        return [
            [cx.stages[lv].labels[i] for i in t.maps[lv].assign]
            for lv in (1, 2, 3)
        ]

    count = 0
    for t, sigma, moved_t in RELABELLED_3:
        labels = [None] * t.n
        for x, y in enumerate(sigma):
            labels[y] = t.labels[x]
        moved_t = Poset(labels, moved_t.up)
        cx, moved_cx = terminal_complex(t, 3), terminal_complex(moved_t, 3)
        for p, perm, q in RELABELLED_3:
            for f in monotone_maps(p, t):
                want = lift_labels(f, cx)
                assign = [0] * p.n
                for x, y in enumerate(f.assign):
                    assign[perm[x]] = sigma[y]
                got = lift_labels(PosetMap(q, moved_t, assign), moved_cx)
                for level_want, level_got in zip(want, got):
                    assert [level_got[perm[x]] for x in range(p.n)] == (
                        level_want
                    )
                count += 1
    assert count == 13145


def test_image_tower_agrees_commutes_with_relabelling():
    # the lift of every monotone map f into a poset on at most two
    # elements, against the lift of the identity there: it agrees at
    # depth d on the moved map iff it does on f, iff the nested-value route
    # finds no disagreement up to d
    targets = [t for s in posets_up_to(2) for t in labellings(s)]
    seen = set()
    for p, perm, q in RELABELLED_4:
        source = tower_coords(q, range(q.n), 3)
        for t in targets:
            target = tower_coords(t, range(t.n), 3)
            for f in monotone_maps(p, t):
                moved = moved_map(f, perm, q).assign
                fail = first_disagreement(
                    moved.__getitem__, source, target, moved
                )
                for depth in (1, 2, 3):
                    want = image_tower_agrees(
                        p, f.assign, target[:depth], f.assign
                    )
                    got = image_tower_agrees(q, moved, target[:depth], moved)
                    assert got == want == (fail > depth)
                seen.add(fail)
    assert seen == {2, 4}


def test_modal_predecessors_commute_with_relabelling():
    for f in _iso_frames_up_to_three():
        pre = f.pre
        assert pre == tuple(transpose_by_bits(f.rel, f.poset.n))
        for perm in permutations(range(f.poset.n)):
            moved = relabel_frame(f, perm)
            assert moved.pre == move_rows(pre, perm, perm)
            assert moved.pre == tuple(transpose_by_bits(moved.rel, f.poset.n))


def test_mix_law_decision_commutes_with_relabelling():
    # every relation on at most three elements, and on four a seeded dozen
    # per labelling (six mix closures, each also with one bit flipped);
    # each moved relation over the moved order, given by its rows and by
    # its covers, is decided as the bit loop decides it, and holds the law
    # iff the relation did (the witness itself is the least pair, so it
    # moves with the labels only up to the order of the indices)
    rng = random.Random(1649)
    outcomes = set()
    for p, perm, q in RELABELLED_4:
        name = q.labels
        covers = make_poset(name, [(name[i], name[j]) for i, j in q.covers()])
        n = p.n
        if n <= 3:
            rels = [
                [(bits >> (x * n)) & p.full_mask for x in range(n)]
                for bits in range(1 << (n * n))
            ]
        else:
            rels = []
            for _ in range(6):
                rel = list(mix_closure(ModalFrame(
                    p, [rng.getrandbits(n) & rng.getrandbits(n)
                        for _ in range(n)])).rel)
                rels.append(rel)
                flipped = list(rel)
                flipped[rng.randrange(n)] ^= 1 << rng.randrange(n)
                rels.append(flipped)
        for rel in rels:
            holds = mix_law_witness_by_bits(ModalFrame(p, rel)) is None
            moved = move_rows(rel, perm, perm)
            for target in (q, covers):
                fr = ModalFrame(target, moved)
                assert fr.mix_witness == mix_law_witness_by_bits(fr)
                assert (fr.mix_witness is None) == holds
            outcomes.add((n, holds))
    # on one point both relations hold the law
    assert outcomes == {(1, True)} | {
        (n, holds) for n in (2, 3, 4) for holds in (True, False)
    }


def _assert_bisimulation_commutes_with_relabelling(m1, m2):
    """largest_model_bisimulation on the models moved by every pair of
    labellings is the moved relation; with no valuation it is
    largest_bisimulation of the moved frames."""
    want = largest_model_bisimulation(m1, m2).rows
    plain = largest_bisimulation(m1.frame, m2.frame).rows
    for perm1 in permutations(range(m1.poset.n)):
        moved1 = relabel_frame(m1.frame, perm1)
        val1 = {l: move_mask(v, perm1) for l, v in m1.valuation.items()}
        for perm2 in permutations(range(m2.poset.n)):
            moved2 = relabel_frame(m2.frame, perm2)
            val2 = {l: move_mask(v, perm2) for l, v in m2.valuation.items()}
            got = largest_model_bisimulation(
                Model(moved1, val1), Model(moved2, val2)
            )
            assert got.rows == move_rows(want, perm1, perm2)
            got = largest_bisimulation(moved1, moved2)
            assert got.rows == move_rows(plain, perm1, perm2)


def test_largest_bisimulation_commutes_with_relabelling_up_to_two():
    frames = _small_frames()
    for f1 in frames:
        for f2 in frames:
            for v1 in upset_masks(f1.poset):
                for v2 in upset_masks(f2.poset):
                    _assert_bisimulation_commutes_with_relabelling(
                        Model(f1, {"p": v1}), Model(f2, {"p": v2})
                    )


def test_largest_bisimulation_commutes_with_relabelling_on_three():
    frames = [f for f in _iso_frames_up_to_three() if f.poset.n == 3]
    rng = random.Random(2406)
    for _ in range(500):
        m1, m2 = (
            Model(f, {"p": random_upset(rng, f.poset)})
            for f in (rng.choice(frames), rng.choice(frames))
        )
        _assert_bisimulation_commutes_with_relabelling(m1, m2)


def _one_letter_models_relabelled():
    """(model, perm, moved model) for each of the 310 frames on at most
    three elements up to isomorphism, each upset valuation of p and each
    permutation of the indices."""
    out = []
    for fr in _iso_frames_up_to_three():
        for v in upset_masks(fr.poset):
            model = Model(fr, {"p": v})
            for perm in permutations(range(fr.poset.n)):
                moved = Model(relabel_frame(fr, perm), {"p": move_mask(v, perm)})
                out.append((model, perm, moved))
    return out


ONE_LETTER_3 = _one_letter_models_relabelled()

# deep enough for first_formulas to meet every definable truth set on these
# frames, which test_first_formulas_commute_with_relabelling checks
FORMULA_DEPTH = 6


def test_first_formulas_commute_with_relabelling():
    for model, perm, moved in ONE_LETTER_3:
        want = list(first_formulas(model, ("p",), FORMULA_DEPTH))
        got = list(first_formulas(moved, ("p",), FORMULA_DEPTH))
        assert [phi for phi, _ in got] == [phi for phi, _ in want]
        assert [t for _, t in got] == [move_mask(t, perm) for _, t in want]
        assert {t for _, t in want} == definable_masks(model)


def test_truth_mask_commutes_with_relabelling():
    # on the first formula of every truth set, and on the depth-1 formulas
    for model, perm, moved in ONE_LETTER_3:
        found = list(first_formulas(model, ("p",), FORMULA_DEPTH))
        formulas = [phi for phi, _ in found]
        formulas += enumerate_formulas(("p",), 1)
        cache, moved_cache = {}, {}
        for phi in formulas:
            t = truth_mask(model, phi, cache)
            assert truth_mask(moved, phi, moved_cache) == move_mask(t, perm)
        for phi, t in found:
            assert truth_mask(model, phi, cache) == t


def test_definable_masks_commute_with_relabelling():
    for model, perm, moved in ONE_LETTER_3:
        want = {move_mask(t, perm) for t in definable_masks(model)}
        assert definable_masks(moved) == want
