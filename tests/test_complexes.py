from itertools import product
import random
from pathlib import Path

import pytest

from imcoalg import cli, complexes, enumeration, frames, freealg, heyting
from imcoalg import poset as poset_module
from imcoalg.complexes import (
    TowerMap,
    build_complex,
    build_p_g,
    check_adjunction,
    check_limit_pmorphism,
    enumerate_tower_maps,
    image_tower_agrees,
    intuitionistic_lift,
    lift_map,
    terminal_complex,
    tower_coords,
    verify_complex,
)
from imcoalg.config import Caps
from imcoalg.errors import (
    EnumerationTooLarge,
    LiftOutsideStage,
    NotMonotone,
    StageTooLarge,
    UnknownLabel,
)
from imcoalg.heyting import up_functor
from imcoalg.poset import (
    Poset,
    PosetMap,
    containment_rows,
    format_label,
    identity_map,
    is_pmorphism,
    make_poset,
    open_table,
    point_poset,
    terminal_map,
)
from imcoalg.enumeration import all_posets, monotone_maps

from helpers import (
    all_functions,
    antichain2,
    assert_matches_eager,
    build_p_g_by_search,
    build_p_g_encoded,
    chain2,
    count_mask_labels,
    first_disagreement,
    labellings,
    labels_by_bits,
    load_bench_module,
    nested_image,
    posets_up_to,
    random_poset,
    stage_values,
    value_root,
    verify_complex_by_members,
)
from oracles import (
    build_p_g_by_submasks,
    containment_rows_by_columns,
    containment_rows_oracle,
    folded,
    g_open_by_images,
)


GOLDEN = Path(__file__).resolve().parent / "golden"

# Up-set rows of the five-element posets whose depth-2 complexes over Up(P)
# the benchmark's stages workload builds (stage 2: 111-2767 elements)
STAGES_WORKLOAD_DEPTH2_POSETS = (
    (29, 30, 28, 24, 16), (31, 26, 28, 24, 16), (31, 30, 20, 24, 16),
    (31, 30, 28, 8, 16), (29, 30, 20, 24, 16), (29, 30, 28, 8, 16),
    (31, 22, 20, 24, 16), (31, 26, 28, 8, 16), (29, 30, 12, 8, 16),
    (31, 14, 12, 8, 16), (31, 26, 12, 8, 16), (27, 26, 12, 8, 16),
    (29, 14, 12, 8, 16), (29, 26, 12, 8, 16), (25, 14, 12, 8, 16),
    (23, 18, 20, 24, 16), (27, 18, 12, 8, 16), (15, 10, 12, 8, 16),
    (27, 10, 12, 8, 16), (15, 14, 4, 8, 16),
)


def assert_stage_matches_oracles(g, stage):
    """Equal masks, roots, labels and order rows to the replaced kernels."""
    base = g.source
    found = build_p_g_by_submasks(g)
    masks = tuple(m for m, _ in found)
    assert stage.member_masks == masks
    assert stage.root_map.assign == tuple(r for _, r in found)
    assert [base.min_of(m) for m in masks] == [r for _, r in found]
    assert list(stage.poset.labels) == labels_by_bits(masks, base.labels)
    assert stage.poset.up == containment_rows_by_columns(masks, base.n)


def raised(build, g, caps, stage_index):
    """The stage index and message of the StageTooLarge a build raises."""
    with pytest.raises(StageTooLarge) as info:
        build(g, caps, stage_index=stage_index)
    return info.value.stage_index, str(info.value)


def assert_builders_agree(g, stage_index):
    """build_p_g equals the depth-first search and the submask scan in
    masks and roots, builds at a stage cap of exactly its size and at a
    candidate cap of exactly its candidate count, and raises as the search
    does one below either."""
    stage = build_p_g(g, stage_index=stage_index)
    search = build_p_g_by_search(g, stage_index=stage_index)
    found = build_p_g_by_submasks(g)
    masks = stage.member_masks
    assert masks == search.member_masks == tuple(m for m, _ in found)
    assert stage.root_map.assign == search.root_map.assign
    assert stage.root_map.assign == tuple(r for _, r in found)
    assert stage.poset.masks == masks
    size = len(masks)
    count = sum(1 << (row.bit_count() - 1) for row in g.source.up)
    for at_cap, under, detail in (
        (Caps(max_stage=size), Caps(max_stage=size - 1),
         f"more than {size - 1} elements"),
        (Caps(max_candidates=count), Caps(max_candidates=count - 1),
         f"more than {count - 1} candidate subsets"),
    ):
        assert build_p_g(g, at_cap, stage_index).member_masks == masks
        want = (stage_index, f"stage {stage_index} too large: {detail}")
        assert raised(build_p_g, g, under, stage_index) == want
        assert raised(build_p_g_by_search, g, under, stage_index) == want
    return stage


class TestBuildStage:
    def test_antichain_terminal(self):
        p = antichain2()
        st = build_p_g(terminal_map(p))
        assert st.poset.n == 2
        labels = set(st.poset.labels)
        assert labels == {frozenset({"a"}), frozenset({"b"})}
        # no order between the singletons
        assert not st.poset.leq(0, 1) and not st.poset.leq(1, 0)
        assert sorted(st.root_map(l) for l in st.poset.labels) == ["a", "b"]

    def test_chain_terminal(self):
        p = chain2()
        st = build_p_g(terminal_map(p))
        assert st.poset.n == 3
        full = st.poset.index(frozenset({"a", "b"}))
        sa = st.poset.index(frozenset({"a"}))
        sb = st.poset.index(frozenset({"b"}))
        assert st.poset.leq(full, sa) and st.poset.leq(full, sb)
        assert st.root_map(frozenset({"a", "b"})) == "a"
        assert st.root_map(frozenset({"b"})) == "b"

    def test_point(self):
        st = build_p_g(terminal_map(point_poset()))
        assert st.poset.n == 1

    def test_identity_g_keeps_open_sets_only(self):
        p = chain2()
        st = build_p_g(identity_map(p))
        # {a} alone is not open relative to the identity
        assert frozenset({"a"}) not in st.poset.labels
        assert frozenset({"a", "b"}) in st.poset.labels
        assert frozenset({"b"}) in st.poset.labels

    def test_stage_cap(self):
        p = make_poset([f"x{i}" for i in range(4)], [])
        with pytest.raises(StageTooLarge):
            build_p_g(terminal_map(p), Caps(max_stage=2))

    def test_candidate_cap(self):
        labels = [f"x{i}" for i in range(14)]
        pairs = [(labels[0], l) for l in labels[1:]]
        p = make_poset(labels, pairs)
        with pytest.raises(StageTooLarge):
            build_p_g(terminal_map(p), Caps(max_candidates=1000))

    def test_every_element_rooted_and_open(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                for depth in (2, 3):
                    cx = build_complex(terminal_map(p), depth)
                    assert verify_complex(cx)
                    assert verify_complex_by_members(cx)

    def test_stages_match_oracles(self):
        # every stage of terminal complexes over posets of <= 3 elements and
        # over Up(P) for |P| <= 2 (stage 2 up to 13, stage 3 up to 718
        # elements): members are exactly the rooted subsets passing the
        # image-based openness test, and the order rows equal the pairwise
        # inclusion loop
        bases = [p for n in (1, 2, 3) for p in all_posets(n)]
        bases += [up_functor(p) for n in (1, 2) for p in all_posets(n)]
        for p in bases:
            cx = terminal_complex(p, 3)
            for i in range(2, 4):
                g = cx.root_maps[i - 1]
                base = g.source
                want = [
                    mask
                    for mask in range(1, 1 << base.n)
                    if base.min_of(mask) is not None
                    and g_open_by_images(mask, g)
                ]
                masks = cx.stages[i].masks
                assert list(masks) == want
                assert cx.stages[i].up == containment_rows_oracle(masks)
                assert containment_rows(masks, base.n) == cx.stages[i].up

    def test_stages_match_replaced_kernels_up_to_four_elements(self):
        # every stage of the depth-3 terminal complexes over posets on at
        # most 4 elements; stage 3 is built over the root map r_2, whose
        # openness table has needs, and reaches 2856 elements
        needy_stages = 0
        for n in range(1, 5):
            for p in all_posets(n):
                cx = terminal_complex(p, 3)
                assert verify_complex(cx)
                assert verify_complex_by_members(cx)
                for i in (2, 3):
                    g = cx.root_maps[i - 1]
                    needy_stages += open_table(g)[0] != 0
                    assert_stage_matches_oracles(g, build_p_g(g))
                    assert_builders_agree(g, i)
        assert needy_stages == 20

    def test_stage_cap_counts_only_partial_subsets_with_a_leaf(self):
        # root 3 of this map keeps partial subsets that no later decision
        # can close, so at some level they outnumber its 2 elements; the
        # stage (5 elements) must still build under a cap of exactly 5
        source = Poset(range(4), (3, 2, 4, 15))
        g = PosetMap(source, Poset(range(3), (7, 6, 4)), (1, 2, 2, 0))
        assert len(assert_builders_agree(g, 2).member_masks) == 5

    def test_every_monotone_map_up_to_three_elements_matches_the_search(self):
        # every labelling of every source of <= 3 elements, so elements
        # sit above elements of higher index too; caps at the stage size
        # and the candidate count, and one below each
        maps = needy = 0
        for p in posets_up_to(3):
            for source in labellings(p):
                for target in posets_up_to(3):
                    for g in monotone_maps(source, target):
                        assert_builders_agree(g, 2)
                        maps += 1
                        needy += open_table(g)[0] != 0
        assert (maps, needy) == (1304, 474)

    def test_stages_workload_shapes_match_replaced_kernels(self):
        for up in STAGES_WORKLOAD_DEPTH2_POSETS:
            g = terminal_map(up_functor(Poset(range(5), up)))
            stage = build_p_g(g)
            assert 111 <= stage.poset.n <= 2767
            assert_stage_matches_oracles(g, stage)
            cx = intuitionistic_lift(Poset(range(5), up), 2)
            assert cx.stages[2].masks == stage.member_masks
            assert verify_complex(cx)
            assert verify_complex_by_members(cx)

    def test_verify_complex_rejects_every_single_corruption(self):
        # each member of each stage, in turn: swapped for an open subset
        # without a least member, recorded with any other root, and swapped
        # for a subset rooted at its root that is not open
        tried = {"non-rooted": 0, "wrong root": 0, "not open": 0}
        for p in all_posets(3):
            cx = terminal_complex(p, 3)
            assert verify_complex(cx)
            for i in (2, 3):
                g = cx.root_maps[i - 1]
                base = g.source
                masks = cx.stages[i].masks
                root_map = cx.root_maps[i]
                subsets = range(1, 1 << base.n)
                unrooted = [
                    m for m in subsets
                    if base.min_of(m) is None and g_open_by_images(m, g)
                ]
                for idx, root in enumerate(root_map.assign):
                    closed = [
                        m for m in subsets
                        if base.min_of(m) == root
                        and not g_open_by_images(m, g)
                    ]
                    for kind, swaps in (("non-rooted", unrooted[:3]),
                                        ("not open", closed[:3])):
                        for bad in swaps:
                            cx.stages[i].masks = (
                                masks[:idx] + (bad,) + masks[idx + 1:]
                            )
                            assert not verify_complex(cx)
                            assert not verify_complex_by_members(cx)
                            tried[kind] += 1
                    cx.stages[i].masks = masks
                    for other in range(base.n):
                        if other == root:
                            continue
                        assign = list(root_map.assign)
                        assign[idx] = other
                        cx.root_maps[i] = PosetMap(cx.stages[i], base, assign)
                        assert not verify_complex(cx)
                        assert not verify_complex_by_members(cx)
                        tried["wrong root"] += 1
                    cx.root_maps[i] = root_map
            assert verify_complex(cx)
        assert min(tried.values()) > 0

    test_verify_complex_matches_the_member_loop_on_flipped_bits = folded(
        "verify_complex"
    )

    def test_verify_complex_rejects_corrupted_stage(self):
        cx = build_complex(identity_map(chain2()), 2)
        ok = cx.stages[2].masks
        assert ok == (0b10, 0b11)
        # {a} alone is rooted at a but not open relative to the identity
        cx.stages[2].masks = (0b10, 0b01)
        assert not verify_complex(cx)
        # the recorded root of {b} is b, not a
        cx.stages[2].masks = (0b11, 0b11)
        assert not verify_complex(cx)
        cx.stages[2].masks = ok
        assert verify_complex(cx)

    def test_root_map_monotone(self):
        from imcoalg.poset import is_monotone

        for n in (1, 2, 3):
            for p in all_posets(n):
                cx = build_complex(terminal_map(p), 3)
                for i in range(2, 4):
                    assert is_monotone(cx.root_maps[i])


class TestComplexes:
    def test_depth1_is_base(self):
        p = chain2()
        cx = build_complex(terminal_map(p), 1)
        assert [s.n for s in cx.stages] == [1, 2]
        assert cx.stages[1] == p

    def test_chain_depth2(self):
        cx = build_complex(terminal_map(chain2()), 2)
        assert [s.n for s in cx.stages] == [1, 2, 3]

    def test_point_fixed_point(self):
        cx = build_complex(terminal_map(point_poset()), 4)
        assert [s.n for s in cx.stages] == [1, 1, 1, 1, 1]

    def test_towers_are_compatible_chains(self):
        cx = build_complex(terminal_map(chain2()), 3)
        towers = [cx.tower_of(k) for k in range(cx.stages[3].n)]
        for k, t in enumerate(towers):
            assert len(t) == 4 and t[3] == k
            for i in range(1, 4):
                assert cx.root_maps[i].assign[t[i]] == t[i - 1]


class TestLift:
    def test_identity_on_point(self):
        one = point_poset()
        cx = build_complex(terminal_map(one), 3)
        t = lift_map(identity_map(one), cx, 3)
        assert [m.assign for m in t.maps] == [(0,)] * 4

    def test_chain_identity_depth2(self):
        p = chain2()
        cx = build_complex(terminal_map(p), 2)
        t = lift_map(identity_map(p), cx, 2)
        a, b = p.index("a"), p.index("b")
        assert t.base_map.assign[a] == a and t.base_map.assign[b] == b
        values = stage_values(cx, 2)
        assert values[t.maps[2].assign[a]] == frozenset({a, b})
        assert values[t.maps[2].assign[b]] == frozenset({b})

    def test_base_coordinate_is_f(self):
        p, q = antichain2(), chain2()
        cx = build_complex(terminal_map(q), 2)
        for f in monotone_maps(p, q):
            t = lift_map(f, cx, 2)
            assert t.base_map.assign == f.assign

    def test_rejects_non_monotone(self):
        p = chain2()
        cx = build_complex(terminal_map(p), 2)
        with pytest.raises(NotMonotone):
            lift_map(PosetMap(p, p, [1, 0]), cx, 2)

    def test_compat_and_monotone_coords(self):
        for n in (1, 2, 3):
            for q in all_posets(n):
                cx = build_complex(terminal_map(q), 3)
                for p in all_posets(2):
                    for f in monotone_maps(p, q):
                        t = lift_map(f, cx, 3)
                        assert t.compatible()
                        assert t.coords_monotone()

    test_index_lift_matches_nested_route = folded("lift_map")

    def test_lift_level_refuses_a_non_member(self):
        # a < b sent to the two points of an antichain: the image of up(a)
        # is not rooted, so it is no element of stage 2
        p, q = chain2(), antichain2()
        cx = terminal_complex(q, 2)
        assert cx.lift_level(2, [0, 0], p.up) == [0, 0]
        with pytest.raises(LiftOutsideStage, match="stage 2"):
            cx.lift_level(2, [0, 1], p.up)

    def test_tower_map_equality_reads_the_assignments(self):
        q = chain2()
        cx, again = terminal_complex(q, 3), terminal_complex(q, 3)
        for f in monotone_maps(q, q):
            t = lift_map(f, cx, 3)
            assert t == lift_map(f, again, 3)
            assert hash(t) == hash(lift_map(f, again, 3))
            assert t != lift_map(f, cx, 2)
        lifts = {lift_map(f, cx, 3) for f in monotone_maps(q, q)}
        assert len(lifts) == len(monotone_maps(q, q))

    def test_lift_passes_limit_check(self):
        for n in (1, 2, 3):
            for q in all_posets(n):
                for depth in (1, 2, 3):
                    cx = build_complex(terminal_map(q), depth)
                    for p in all_posets(3):
                        for f in monotone_maps(p, q):
                            t = lift_map(f, cx, depth)
                            assert check_limit_pmorphism(t, depth)

    def test_corrupted_tower_fails_somewhere(self):
        # replace the level-2 coordinate of a lift by a different compatible
        # monotone choice; some instance must fail the limit check
        p = chain2()
        cx = build_complex(terminal_map(p), 2)
        failures = 0
        for f in monotone_maps(p, p):
            lifted = lift_map(f, cx, 2)
            for t in enumerate_tower_maps(p, cx, 2, base_map=f):
                if t != lifted:
                    failures += not check_limit_pmorphism(t, 2)
        assert failures >= 1

    def test_uniqueness_exhaustive_small(self):
        for q in all_posets(2) + all_posets(3):
            cx = build_complex(terminal_map(q), 2)
            for p in all_posets(2):
                for f in monotone_maps(p, q):
                    passing = [
                        t
                        for t in enumerate_tower_maps(p, cx, 2, base_map=f)
                        if check_limit_pmorphism(t, 2)
                    ]
                    assert len(passing) == 1
                    assert passing[0] == lift_map(f, cx, 2)

    def test_limit_check_refuses_a_depth_past_the_tower(self):
        q = chain2()
        t = lift_map(identity_map(q), terminal_complex(q, 2), 2)
        assert check_limit_pmorphism(t, 2)
        with pytest.raises(UnknownLabel, match="not built deep enough"):
            check_limit_pmorphism(t, 3)

    def test_tower_maps_refuse_a_depth_past_the_complex(self):
        q = chain2()
        cx = terminal_complex(q, 2)
        assert enumerate_tower_maps(q, cx, 2)
        with pytest.raises(UnknownLabel, match="not built deep enough"):
            enumerate_tower_maps(q, cx, 3)


class TestLimitCheckOracle:
    """check_limit_pmorphism, keyed by the root map, against the scan over
    every tower of the stage it replaced (check_limit_pmorphism_by_towers,
    in tests/helpers.py)."""

    test_every_tower_map_between_posets_up_to_three = folded(
        "check_limit_pmorphism"
    )
    test_every_lift_between_posets_up_to_three = folded(
        "check_limit_pmorphism"
    )

    def test_a_swapped_coordinate_fails(self):
        # swapping two points' values in a coordinate below the deepest
        # leaves the deepest coordinate a lift's, so only the compatibility
        # guard refuses the map: its coordinates form no tower
        posets = posets_up_to(3)
        count = 0
        for q in posets:
            cx = terminal_complex(q, 3)
            for p in posets:
                for f in monotone_maps(p, q):
                    for depth in (2, 3):
                        t = lift_map(f, cx, depth)
                        for level in range(1, depth):
                            a = list(t.maps[level].assign)
                            x = next(
                                (x for x in range(1, p.n) if a[x] != a[0]),
                                None,
                            )
                            if x is None:
                                continue
                            a[0], a[x] = a[x], a[0]
                            maps = list(t.maps)
                            maps[level] = PosetMap(p, cx.stages[level], a)
                            bad = TowerMap(p, cx, depth, maps)
                            assert not bad.compatible()
                            assert not check_limit_pmorphism(bad, depth)
                            count += 1
        assert count == 948

    def test_level_zero_must_be_the_root_of_level_one(self):
        # over a complex whose stage 0 is no point, level 0 is the root
        # map of stage 1 after level 1, so from_map and
        # enumerate_tower_maps give compatible tower maps
        q = chain2()
        cx = build_complex(identity_map(q), 2)
        t = TowerMap.from_map(identity_map(q), 1, cx)
        assert t.maps[0] == identity_map(q)
        assert t.compatible()
        assert check_limit_pmorphism(t, 1)
        maps = enumerate_tower_maps(q, cx, 2)
        assert maps and all(m.compatible() for m in maps)


class TestNestedValues:
    def test_roots_recover_previous_level(self):
        p = chain2()
        levels = tower_coords(p, range(p.n), 3)
        for level in (2, 3):
            for x in range(p.n):
                assert (
                    value_root(p, level, levels[level - 1][x])
                    == levels[level - 2][x]
                )

    def test_nested_image_identity(self):
        p = chain2()
        levels = tower_coords(p, range(p.n), 3)
        ident = identity_map(p)
        for x in range(p.n):
            image = nested_image(ident.assign.__getitem__, 3, levels[2][x])
            assert image == levels[2][x]


class TestDepthBelowOne:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_lifts_refuse_it(self, depth):
        p = chain2()
        with pytest.raises(ValueError, match="depth must be >= 1"):
            tower_coords(p, range(p.n), depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            TowerMap.from_map(identity_map(p), depth, terminal_complex(p, 2))
        with pytest.raises(ValueError, match="depth must be >= 1"):
            lift_map(identity_map(p), terminal_complex(p, 2), depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            build_complex(terminal_map(p), depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_tower_map_search_refuses_it(self, depth):
        # depth 0 used to return vacuous copies of the stage-0 coordinate
        p = chain2()
        with pytest.raises(ValueError, match="depth must be >= 1"):
            enumerate_tower_maps(p, terminal_complex(p, 2), depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_limit_check_refuses_it(self, depth):
        # depth 0 passed vacuously, and depth -1 raised IndexError
        p = chain2()
        t = lift_map(identity_map(p), terminal_complex(p, 2), 2)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            check_limit_pmorphism(t, depth)


class TestImageTowerAgrees:
    """image_tower_agrees against the nested_image route it replaced
    (first_disagreement, in tests/helpers.py)."""

    def test_every_two_valued_level_one_and_every_function(self):
        # level-1 values in {0, 1} on both sides and every function between
        # posets of at most three elements: the first disagreement falls on
        # each of the levels 1-3, or on none
        seen = set()
        posets = posets_up_to(3)
        for p in posets:
            for q in posets:
                maps = [f.assign for f in all_functions(p, q)]
                for values in product((0, 1), repeat=q.n):
                    target = tower_coords(q, values, 3)
                    for images in product((0, 1), repeat=p.n):
                        source = tower_coords(p, images, 3)
                        for assign in maps:
                            fail = first_disagreement(
                                lambda v: v, source, target, assign
                            )
                            for depth in (1, 2, 3):
                                got = image_tower_agrees(
                                    p, images, target[:depth], assign
                                )
                                assert got == (fail > depth)
                            seen.add(fail)
        assert seen == {1, 2, 3, 4}

    def test_identity_towers_agree_exactly_on_pmorphisms(self):
        # on the lifts of the identity, level 1 always agrees, and the
        # images lift onto the target's levels iff f is a p-morphism
        for p in posets_up_to(3):
            source = tower_coords(p, range(p.n), 3)
            for q in posets_up_to(3):
                target = tower_coords(q, range(q.n), 3)
                for f in monotone_maps(p, q):
                    first = f.assign.__getitem__
                    fail = first_disagreement(first, source, target, f.assign)
                    assert fail in (2, 4)
                    assert (fail == 4) == is_pmorphism(f)
                    got = image_tower_agrees(p, f.assign, target, f.assign)
                    assert got == (fail == 4)


class TestAdjunction:
    def test_cap_precedes_any_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumeration started before the cap check")

        monkeypatch.setattr(complexes, "monotone_assignments", forbidden)
        monkeypatch.setattr(complexes, "terminal_complex", forbidden)
        p = make_poset(["x", "y", "z"], [])
        q = make_poset(["a", "b", "c"], [])
        with pytest.raises(EnumerationTooLarge, match=r"3\^3 maps"):
            check_adjunction(p, q, 2, caps=Caps(max_enumeration=26))

    def test_chain_chain_depth2(self):
        p = chain2()
        rep = check_adjunction(p, p, 2)
        assert rep.ok
        assert rep.monotone_maps == 3
        assert rep.limit_pmorphisms == rep.monotone_maps

    def test_point_source(self):
        rep = check_adjunction(point_poset(), chain2(), 2)
        assert rep.ok
        assert rep.monotone_maps == 2

    def test_antichain_to_chain(self):
        rep = check_adjunction(antichain2(), chain2(), 2)
        assert rep.ok
        assert rep.monotone_maps == 4

    def test_bijection_count(self):
        # limit p-morphism tower maps correspond exactly to monotone maps
        for p in all_posets(2):
            for q in all_posets(2):
                rep = check_adjunction(p, q, 2)
                assert rep.ok
                assert rep.limit_pmorphisms == rep.monotone_maps


class TestIntuitionisticLift:
    def test_up_on_point(self):
        cx = intuitionistic_lift(point_poset(), 1)
        assert [s.n for s in cx.stages] == [1, 2]
        assert cx.stages[1] == up_functor(point_poset())

    def test_up_on_chain_depth2(self):
        cx = intuitionistic_lift(chain2(), 2)
        # upsets of the 2-chain form a 3-chain; its rooted subsets are the 7
        # nonempty intervals-with-minimum
        assert [s.n for s in cx.stages] == [1, 3, 7]

    def test_functor_value_is_stage_one_under_the_given_caps(self):
        antichain = make_poset(list(range(13)), [])  # 8192 upsets
        with pytest.raises(StageTooLarge):
            intuitionistic_lift(antichain, 1)
        cx = intuitionistic_lift(antichain, 1, Caps(max_stage=8192))
        assert [s.n for s in cx.stages] == [1, 8192]


class TestStageLabels:
    def test_terminal_complex_stages_match_eager_posets(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                cx = terminal_complex(p, 3)
                for i in (2, 3):
                    assert_matches_eager(
                        cx.stages[i], cx.stages[i].masks, cx.stages[i - 1]
                    )

    def test_intuitionistic_lift_stages_match_eager_posets(self):
        for p in posets_up_to(2):
            cx = intuitionistic_lift(p, 2)
            assert_matches_eager(cx.stages[1], up_functor(p).masks, p)
            assert_matches_eager(
                cx.stages[2], cx.stages[2].masks, cx.stages[1]
            )

    def test_deep_stage_labelled_before_its_bases(self):
        # stage 3 is read first, so its labels build stage 2's, which
        # build stage 1's; stage 3 holds 29 and 718 elements
        for p, size in ((chain2(), 29), (antichain2(), 718)):
            fv = up_functor.__wrapped__(p)
            cx = build_complex(terminal_map(fv), 3)
            deep = cx.stages[3].labels
            want = labels_by_bits(fv.masks, p.labels)
            assert cx.stages[1].labels == tuple(want)
            for i in (2, 3):
                want = labels_by_bits(cx.stages[i].masks, want)
                assert cx.stages[i].labels == tuple(want)
            assert deep == tuple(want)
            assert len(deep) == size

    def test_complex_report_builds_no_stage_labels(
        self, monkeypatch, tmp_path, capsys
    ):
        # the text report prints sizes and checks masks and rows only; the
        # JSON writer prints the labels, so it has them built
        calls = count_mask_labels(monkeypatch)
        frame = str(GOLDEN / "diamond.frame")
        assert cli.main(["complex", frame, "--depth", "2"]) == 0
        assert calls == []
        out = str(tmp_path / "out.json")
        assert cli.main(["complex", frame, "--depth", "2", "--json", out]) == 0
        assert calls
        capsys.readouterr()

    def test_lift_report_labels_only_what_it_prints(self, monkeypatch, capsys):
        # lift --depth 3 on the 3-chain prints 3 points x 3 levels; stage 3
        # has 2856 elements, and mask_labels labels none of the stages
        calls = count_mask_labels(monkeypatch)
        frame = str(GOLDEN / "chain.frame")
        assert cli.main(["lift", frame, "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert calls == []
        # the printed labels are those the eager labels name
        p = make_poset("abc", [("a", "b"), ("b", "c")])
        cx = intuitionistic_lift(p, 3)
        assert cx.stages[3].n == 2856
        printed = [
            line.split(": ", 1)[1] for line in out.splitlines()
            if line.lstrip().startswith("level ")
        ]
        assert len(printed) == 9
        labels = {
            format_label(lab) for lv in (1, 2, 3) for lab in cx.stages[lv].labels
        }
        assert set(printed) <= labels


def record_containment_rows(monkeypatch):
    """Patch containment_rows in every module that builds order rows with
    it, so that each call's masks are recorded; returns the list."""
    calls = []
    real = poset_module.containment_rows

    def recording(masks, width):
        calls.append(tuple(masks))
        return real(masks, width)

    for module in (poset_module, complexes, heyting, frames, freealg,
                   enumeration):
        if hasattr(module, "containment_rows"):
            monkeypatch.setattr(module, "containment_rows", recording)
    return calls


class TestDeepestStageRows:
    # the text and JSON reports read the order rows of the stages below the
    # deepest only; the DOT writer draws covers, so it reads them all.
    # up_functor is memoized, so whether stage 1's rows are built depends on
    # what ran before: the guard asserts on the masks each call receives
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("writer", [None, "--json", "--dot"])
    def test_only_the_dot_writer_builds_them(
        self, monkeypatch, tmp_path, capsys, depth, writer
    ):
        frame = GOLDEN / "chain.frame"
        p = make_poset("abc", [("a", "b"), ("b", "c")])
        deepest = intuitionistic_lift(p, depth).stages[depth].masks
        calls = record_containment_rows(monkeypatch)
        argv = ["complex", str(frame), "--depth", str(depth)]
        if writer:
            argv += [writer, str(tmp_path / "out")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls.count(deepest) == (writer == "--dot")

    def test_lift_builds_them_for_its_monotonicity_checks(
        self, monkeypatch, capsys
    ):
        p = make_poset("abc", [("a", "b"), ("b", "c")])
        deepest = intuitionistic_lift(p, 2).stages[2].masks
        calls = record_containment_rows(monkeypatch)
        frame = str(GOLDEN / "chain.frame")
        assert cli.main(["lift", frame, "--depth", "2"]) == 0
        capsys.readouterr()
        assert calls.count(deepest) == 1


def assert_matches_encoded(g, stage_index):
    """build_p_g equals the encoded one-sort builder in masks, roots, order
    rows and labels, keeps its stage poset's masks as its member masks,
    builds at a stage cap of exactly its size and raises as the encoded
    builder does one below it."""
    stage = build_p_g(g, stage_index=stage_index)
    encoded = build_p_g_encoded(g, stage_index=stage_index)
    assert stage.member_masks is stage.poset.masks
    assert stage.member_masks == encoded.member_masks
    assert stage.root_map.assign == encoded.root_map.assign
    assert stage.poset.up == encoded.poset.up
    assert stage.poset.labels == encoded.poset.labels
    size = stage.poset.n
    at_cap = build_p_g(g, Caps(max_stage=size), stage_index)
    assert at_cap.member_masks == stage.member_masks
    under = Caps(max_stage=size - 1)
    want = (stage_index, f"stage {stage_index} too large: "
            f"more than {size - 1} elements")
    assert raised(build_p_g, g, under, stage_index) == want
    assert raised(build_p_g_encoded, g, under, stage_index) == want
    return stage


def record_global_sorts(monkeypatch):
    """Patch the one global sort of build_p_g, so that each call's stage
    size is recorded; returns the list."""
    calls = []
    real = complexes._sorted_by_mask

    def recording(masks, roots):
        calls.append(len(masks))
        return real(masks, roots)

    monkeypatch.setattr(complexes, "_sorted_by_mask", recording)
    return calls


class TestRunsInRootOrder:
    # over a source whose up rows have no bit above their own index, each
    # root's subsets form their own sorted run; any other source takes one
    # global sort. Both must list the stage as the encoded builder does

    def test_every_stage_up_to_three_elements_under_every_labelling(
        self, monkeypatch
    ):
        # a source sorts globally iff some element lies below one of
        # higher index: some labellings of stage 1, never a MaskPoset
        sorts = record_global_sorts(monkeypatch)
        branches = {True: 0, False: 0}
        for p in posets_up_to(3):
            for q in labellings(p):
                cx = terminal_complex(q, 3)
                for i in (2, 3):
                    g = cx.root_maps[i - 1]
                    before = len(sorts)
                    assert_matches_encoded(g, i)
                    interleaved = any(
                        row >> x > 1 for x, row in enumerate(g.source.up)
                    )
                    assert (len(sorts) > before) == interleaved
                    branches[interleaved] += 1
        assert branches[True] and branches[False]

    def test_stage_two_under_every_labelling_of_four_elements(self):
        # over q and over Up(q), for every labelling q of every 4-element
        # poset but the antichain (stage 2 over its Up has 33 337
        # elements, past the cap). A root's strict up-set often falls into
        # several blocks of bits; over q the root may lie below its lowest
        # block, over Up(q) (ascending masks) it lies above every block
        shapes = {"maps": 0, "blocks": 0, "root below": 0}
        for p in all_posets(4)[1:]:
            for q in labellings(p):
                for g in (terminal_map(q), terminal_map(up_functor(q))):
                    for root, row in enumerate(g.source.up):
                        rest = row & ~(1 << root)
                        low = rest & -rest
                        shapes["blocks"] += (rest + low) & rest != 0
                        shapes["root below"] += 1 << root < low
                    assert_matches_encoded(g, 2)
                    shapes["maps"] += 1
        assert shapes["maps"] == 2 * 218
        assert shapes["blocks"] and shapes["root below"]

    def test_stage_two_over_up_of_every_five_element_poset_that_fits(self):
        fits = 0
        for p in all_posets(5):
            try:
                cx = intuitionistic_lift(p, 2)
            except StageTooLarge:
                continue
            stage = assert_matches_encoded(cx.root_maps[1], 2)
            assert stage.member_masks == cx.stages[2].masks
            fits += 1
        assert fits == 43

    def test_benchmark_depth3_posets(self):
        shapes = load_bench_module("workloads").DEPTH3_POSETS
        sizes = []
        for up in shapes.values():
            cx = intuitionistic_lift(Poset(range(len(up)), up), 3)
            for i in (2, 3):
                assert_matches_encoded(cx.root_maps[i - 1], i)
            sizes.append(cx.stages[3].n)
        assert sizes == [29, 718, 2856]

    def test_a_naturally_labelled_source_sorts_globally(self, monkeypatch):
        sorts = record_global_sorts(monkeypatch)
        chain = make_poset("abc", [("a", "b"), ("b", "c")])
        assert_matches_encoded(terminal_map(chain), 2)
        assert sorts[0] == 7

    def test_no_cli_stage_sorts_globally(self, monkeypatch, capsys):
        sorts = record_global_sorts(monkeypatch)
        for name, depth in (("chain", 3), ("pair", 3), ("diamond", 2)):
            frame = str(GOLDEN / f"{name}.frame")
            for command in ("complex", "lift"):
                assert cli.main([command, frame, "--depth", str(depth)]) == 0
        for argv in (
            ["--generators", "2", "--inner-depth", "2"],
            ["--generators", "1", "--stages", "2"],
        ):
            assert cli.main(["freealg", *argv]) == 0
        capsys.readouterr()
        assert sorts == []


class TestRandomPosets:
    def test_lift_random_size4(self):
        import random

        rng = random.Random(40410)
        for _ in range(25):
            q = random_poset(rng, 4)
            cx = build_complex(terminal_map(q), 3)
            assert verify_complex(cx)
            for f in monotone_maps(q, q)[:10]:
                t = lift_map(f, cx, 3)
                assert check_limit_pmorphism(t, 3)
