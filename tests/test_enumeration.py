"""The monotone-map search against the loops it replaced.

``poset.monotone_assignments`` is the one search over monotone maps:
``monotone_maps``, ``pmorphisms``, ``mix_relations``, ``automorphisms`` and
``enumerate_tower_maps`` all call it. The oracles below are the loops those
functions ran before, kept verbatim in behaviour; every comparison is of
ordered lists, because callers (criterion 3's rng-picked maps, the frame
representatives of ``frames_up_to_iso``) depend on the order.
"""

import random
from itertools import permutations, product as iproduct

import pytest

from imcoalg.complexes import TowerMap, build_complex, enumerate_tower_maps
from imcoalg.config import DEFAULT_CAPS, Caps
from imcoalg.enumeration import (
    all_posets,
    automorphisms,
    mix_relations,
    monotone_maps,
    pmorphisms,
)
from imcoalg.errors import EnumerationTooLarge
from imcoalg.poset import (
    Poset,
    PosetMap,
    containment_rows,
    is_pmorphism,
    iter_bits,
    make_poset,
    monotone_assignments,
    terminal_map,
    upset_masks,
)

from helpers import labellings, posets_up_to, relabel

EMPTY = Poset((), ())


def reversed_labelling(p):
    return relabel(p, range(p.n - 1, -1, -1))


# every labelled poset on <= 3 elements (23 of them)
LABELLED_3 = [q for p in posets_up_to(3) for q in labellings(p)]


# -- oracles: the loops the search replaced ---------------------------------


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
    ups = Poset(upsets, containment_rows(upsets, p.n), _trusted=True)
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


# -- the search against the oracles -----------------------------------------


class TestMonotoneAssignments:
    def test_monotone_maps_match_product_scan(self):
        four = all_posets(4)
        posets = [EMPTY] + LABELLED_3 + four + list(map(reversed_labelling, four))
        for p in posets:
            for q in posets:
                assert monotone_maps(p, q) == monotone_maps_by_product(p, q)

    def test_pmorphisms_filter_the_monotone_maps(self):
        for p in LABELLED_3:
            for q in LABELLED_3:
                assert pmorphisms(p, q) == [
                    f for f in monotone_maps_by_product(p, q) if is_pmorphism(f)
                ]

    def test_allowed_matches_filtering(self):
        rng = random.Random(1010)
        posets = [EMPTY] + LABELLED_3
        for p in posets:
            for q in posets:
                full = list(monotone_assignments(p, q))
                for _ in range(4):
                    allowed = [rng.getrandbits(q.n) for _ in range(p.n)]
                    assert list(monotone_assignments(p, q, allowed)) == [
                        a
                        for a in full
                        if all(allowed[x] >> t & 1 for x, t in enumerate(a))
                    ]

    def test_mix_relations_match_backtracking(self):
        # and their own-carrier route, in the same order: sweep samples the
        # list by index
        for p in [EMPTY] + [q for p in posets_up_to(4) for q in labellings(p)]:
            got = mix_relations(p)
            assert got == mix_relations_by_own_carrier(p)
            assert got == mix_relations_by_backtracking(p, upset_masks(p))

    def test_automorphisms_match_permutation_scan(self):
        posets = [q for p in posets_up_to(4) for q in labellings(p)]
        five = all_posets(5)
        for p in [EMPTY] + posets + five + list(map(reversed_labelling, five)):
            assert automorphisms(p) == automorphisms_by_permutations(p)


class TestTowerMapSearch:
    def test_matches_backtracking_up_to_three_elements(self):
        posets = posets_up_to(3)
        total = 0
        for q in posets:
            cx = build_complex(terminal_map(q), 2)
            for p in LABELLED_3:
                got = enumerate_tower_maps(p, cx, 2)
                want = tower_maps_by_backtracking(p, cx, 2)
                # TowerMap equality reads the assignments
                assert got == want
                assert [t.maps for t in got] == [t.maps for t in want]
                if p in posets:
                    total += len(got)
        assert total == 1805

    def test_fixed_base_map_matches_backtracking(self):
        posets = posets_up_to(3)
        for q in posets[:4]:
            cx = build_complex(terminal_map(q), 3)
            for p in LABELLED_3:
                for f in monotone_maps(p, q):
                    got = enumerate_tower_maps(p, cx, 3, base_map=f)
                    want = tower_maps_by_backtracking(p, cx, 3, base_map=f)
                    assert got == want
                    assert [t.maps for t in got] == [t.maps for t in want]

    def test_depth_one_is_the_monotone_maps(self):
        q = make_poset(["a", "b"], [("a", "b")])
        p = make_poset(["x", "y", "z"], [("x", "z")])
        cx = build_complex(terminal_map(q), 2)
        got = enumerate_tower_maps(p, cx, 1)
        assert [t.maps[1] for t in got] == monotone_maps(p, q)

    def test_cap_raises_on_the_map_past_it(self):
        q = make_poset(["a", "b", "c"], [("a", "b")])
        p = make_poset(["x", "y"], [("x", "y")])
        cx = build_complex(terminal_map(q), 2)
        count = len(enumerate_tower_maps(p, cx, 2))
        assert count > 1
        exact = Caps(max_enumeration=count)
        assert len(enumerate_tower_maps(p, cx, 2, caps=exact)) == count
        with pytest.raises(EnumerationTooLarge):
            enumerate_tower_maps(p, cx, 2, caps=Caps(max_enumeration=count - 1))
        with pytest.raises(EnumerationTooLarge):
            tower_maps_by_backtracking(
                p, cx, 2, caps=Caps(max_enumeration=count - 1)
            )
