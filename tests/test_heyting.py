from itertools import islice

import pytest

from imcoalg.config import Caps
from imcoalg.errors import NotMonotone, StageTooLarge, ValueNotUpset
from imcoalg import heyting, poset
from imcoalg.heyting import (
    box_mask,
    impl_mask,
    join_irreducibles,
    up_functor,
    up_functor_map,
    upset_masks,
)
from imcoalg.frames import ModalFrame, check_mix_law, pow_up_functor
from imcoalg.freealg import generator_poset
from imcoalg.complexes import terminal_complex
from imcoalg.poset import (
    Poset,
    PosetMap,
    identity_map,
    make_poset,
    point_poset,
    terminal_map,
)
from imcoalg.enumeration import all_posets, mix_relations, monotone_maps, pmorphisms

from helpers import chain2, compose, mask_of
from oracles import containment_rows_oracle, folded


class TestUpsetMasks:
    test_equals_subset_scan_up_to_five_elements = folded("upset_masks")

    def test_bound_to_the_poset_kernel(self):
        assert heyting.upset_masks is poset.upset_masks

    def test_long_chain_is_output_sensitive(self):
        n = 60
        p = make_poset(list(range(n)), [(i, i + 1) for i in range(n - 1)])
        masks = upset_masks(p)
        assert len(masks) == n + 1
        assert masks[0] == 0 and masks[-1] == p.full_mask

    def test_limit_returns_the_prefix_past_it(self):
        for n in range(1, 5):
            for p in all_posets(n):
                masks = upset_masks(p)
                for limit in range(len(masks) + 1):
                    assert upset_masks(p, limit) == masks[: limit + 1]

    def test_limit_stops_a_wide_scan(self):
        # 2^40 upsets; the limit ends the enumeration after 11
        p = make_poset(list(range(40)), [])
        assert len(upset_masks(p, limit=10)) == 11


class TestUpFunctor:
    def test_memo_is_bounded(self):
        assert up_functor.cache_info().maxsize is not None

    def test_stage_cap(self):
        antichain = make_poset(list(range(13)), [])  # 8192 upsets
        with pytest.raises(StageTooLarge) as info:
            up_functor(antichain)
        assert info.value.stage_index == 1
        assert up_functor(antichain, Caps(max_stage=8192)).n == 8192
        with pytest.raises(StageTooLarge):
            up_functor(antichain, Caps(max_stage=8191))

    def test_memo_keyed_on_caps(self):
        p = chain2()
        assert up_functor(p).n == 3
        with pytest.raises(StageTooLarge):
            up_functor(p, Caps(max_stage=2))
        assert up_functor(p, Caps(max_stage=3)).n == 3

    def test_point(self):
        fv = up_functor(point_poset("x"))
        # bottom is the full upset, top the empty one, under reverse inclusion
        assert fv.n == 2
        full = fv.index(frozenset({"x"}))
        empty = fv.index(frozenset())
        assert fv.leq(full, empty)
        assert not fv.leq(empty, full)

    def test_chain_gives_three_chain(self):
        fv = up_functor(chain2())
        bot = fv.index(frozenset({"a", "b"}))
        mid = fv.index(frozenset({"b"}))
        top = fv.index(frozenset())
        assert fv.leq(bot, mid) and fv.leq(mid, top)

    def test_antichain(self):
        fv = up_functor(make_poset(["a", "b"], []))
        assert fv.n == 4
        bot = fv.index(frozenset({"a", "b"}))
        sa = fv.index(frozenset({"a"}))
        sb = fv.index(frozenset({"b"}))
        top = fv.index(frozenset())
        assert fv.leq(bot, sa) and fv.leq(bot, sb)
        assert fv.leq(sa, top) and fv.leq(sb, top)
        assert not fv.leq(sa, sb) and not fv.leq(sb, sa)


class TestUpFunctorMap:
    def test_identity_law(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                m = up_functor_map(identity_map(p))
                assert m.assign == tuple(range(m.source.n))

    def test_index_of_mask_finds_every_upset_and_nothing_else(self):
        # Up(P), PowUp(P) and every stage >= 2 of the depth-3 terminal
        # complex over P, for every P of at most 3 elements: each is a
        # MaskPoset, each mask is found at its index, and the first 8
        # masks below 2^(width + 1) that are no element's raise (PowUp's
        # masks fill 2^width, so its non-members lie past it)
        checked = 0
        for n in (1, 2, 3):
            for p in all_posets(n):
                cx = terminal_complex(p, 3)
                values = (up_functor(p), pow_up_functor(p), *cx.stages[2:])
                for value in values:
                    for i, mask in enumerate(value.masks):
                        assert value.index_of_mask(mask) == i
                    members = set(value.masks)
                    others = (
                        m for m in range(2 << value.base.n) if m not in members
                    )
                    tried = list(islice(others, 8))
                    assert tried
                    for mask in tried:
                        with pytest.raises(
                            ValueNotUpset, match="is not an element's mask"
                        ):
                            value.index_of_mask(mask)
                    checked += 1
        assert checked == 4 * sum(len(all_posets(n)) for n in (1, 2, 3))

    def test_terminal_map_action(self):
        p = chain2()
        m = up_functor_map(terminal_map(p))
        fv_src = up_functor(p)
        fv_tgt = up_functor(point_poset())
        empty_t = fv_tgt.index_of_mask(0)
        for i, mask in enumerate(fv_src.masks):
            if mask == 0:
                assert m.assign[i] == empty_t
            else:
                assert fv_tgt.masks[m.assign[i]] == 1

    def test_top_inclusion(self):
        one = point_poset("b")
        p = chain2()
        incl = PosetMap(one, p, [1])
        m = up_functor_map(incl)
        fv_src = up_functor(one)
        fv_tgt = up_functor(p)
        got = {
            frozenset(fv_src.labels[i]): fv_tgt.masks[m.assign[i]]
            for i in range(fv_src.n)
        }
        assert got[frozenset()] == 0
        assert got[frozenset({"b"})] == 1 << p.index("b")

    def test_rejects_non_monotone(self):
        p = chain2()
        with pytest.raises(NotMonotone):
            up_functor_map(PosetMap(p, p, [1, 0]))

    def test_composition_law(self):
        posets = all_posets(2) + all_posets(3)
        small = [p for p in posets if p.n <= 3]
        for p in small[:3]:
            for q in small[:3]:
                for r in small[:3]:
                    for f in monotone_maps(p, q)[:5]:
                        for g in monotone_maps(q, r)[:5]:
                            lhs = up_functor_map(compose(g, f))
                            rhs = compose(
                                up_functor_map(g),
                                up_functor_map(f),
                            )
                            assert lhs.assign == rhs.assign

    def test_closure_noop_for_pmorphisms(self):
        for p in all_posets(3):
            for q in all_posets(3):
                for f in pmorphisms(p, q):
                    fv = up_functor(p)
                    for mask in fv.masks:
                        img = f.image_mask(mask)
                        assert q.up_close(img) == img


class TestHeytingOps:
    def test_impl_self_is_top(self):
        p = chain2()
        for m in upset_masks(p):
            assert impl_mask(p, m, m) == p.full_mask

    def test_impl_chain_example(self):
        p = chain2()
        assert impl_mask(p, mask_of(p, ["b"]), 0) == 0

    def test_ex_falso(self):
        p = chain2()
        for m in upset_masks(p):
            assert impl_mask(p, 0, m) == p.full_mask

    def test_carrier_closed_under_operations(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                upsets = upset_masks(p)
                masks = set(upsets)
                assert 0 in masks and p.full_mask in masks
                for a in upsets:
                    for b in upsets:
                        assert a & b in masks
                        assert a | b in masks
                        assert impl_mask(p, a, b) in masks

    def test_residuation(self):
        for n in (1, 2, 3, 4):
            for p in all_posets(n):
                upsets = upset_masks(p)
                for a in upsets:
                    for b in upsets:
                        for c in upsets:
                            lhs = (a & b) & ~c == 0
                            rhs = a & ~impl_mask(p, b, c) == 0
                            assert lhs == rhs


class TestBoxOp:
    def test_box_top_is_top(self):
        p = chain2()
        fr = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        assert box_mask(fr, p.full_mask) == p.full_mask

    def test_chain_example(self):
        p = chain2()
        fr = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        assert box_mask(fr, mask_of(p, ["b"])) == mask_of(p, ["a", "b"])

    def test_empty_relation(self):
        p = chain2()
        fr = ModalFrame.from_pairs(p, [])
        for mask in (0, 2, 3):
            assert box_mask(fr, mask) == p.full_mask

    def test_box_distributes_over_meet(self):
        # exhaustive at size <= 3; size 4 sampled (the 4-antichain alone has
        # 65k mix relations)
        for n in (1, 2, 3, 4):
            for p in all_posets(n):
                if p.n > 3:
                    rels = mix_relations(p)[::37]
                else:
                    rels = mix_relations(p)
                upsets = upset_masks(p)
                for rel in rels:
                    fr = ModalFrame(p, rel)
                    for a in upsets:
                        for b in upsets:
                            lhs = box_mask(fr, a & b)
                            rhs = box_mask(fr, a) & box_mask(fr, b)
                            assert lhs == rhs

    def test_mix_law_makes_box_upset(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                for rel in mix_relations(p):
                    fr = ModalFrame(p, rel)
                    assert check_mix_law(fr)
                    for s in upset_masks(p):
                        assert p.is_upset(box_mask(fr, s))


class TestJoinIrreducibles:
    def test_birkhoff_roundtrip_small(self):
        for n in (1, 2, 3, 4, 5):
            for p in all_posets(n):
                j = join_irreducibles(p)
                assert j.n == p.n
                # relabeling sends each irreducible to its generator, so the
                # roundtrip is the identity on labels and order
                assert set(j.labels) == set(p.labels)
                for a in j.labels:
                    for b in j.labels:
                        assert j.leq_labels(a, b) == p.leq_labels(a, b)

    test_matches_pairwise_oracle_up_to_four_elements = folded(
        "join_irreducibles"
    )

    def test_non_principal_irreducible_raises(self, monkeypatch):
        # an Up(P) whose masks hold {a} on a < b: {a} is not an upset, so
        # it is no principal upset
        monkeypatch.setattr(
            heyting,
            "up_functor",
            lambda p: Poset.over_masks((0, 0b01, 0b11), p),
        )
        with pytest.raises(ValueNotUpset):
            join_irreducibles(chain2())

    def test_upsets_past_the_stage_cap_raise(self):
        # the 13-element antichain has 8192 upsets, past the default 5000
        p = make_poset([f"x{i}" for i in range(13)], [])
        with pytest.raises(StageTooLarge, match="stage 1 too large"):
            join_irreducibles(p)

    def test_reads_upsets_from_the_up_functor_memo(self, monkeypatch):
        # once up_functor(p) is memoized, join_irreducibles enumerates no
        # upset of its own
        calls = []
        real = heyting.upset_masks

        def recording(p, limit=None):
            calls.append(p)
            return real(p, limit)

        bases = [p for n in (1, 2, 3, 4) for p in all_posets(n)]
        for p in bases:
            up_functor(p)
        monkeypatch.setattr(heyting, "upset_masks", recording)
        for p in bases:
            assert join_irreducibles(p).n == p.n
        assert calls == []


class TestMaskCarriedRows:
    """Order rows built by containment_rows against pairwise loops."""

    def test_up_functor(self):
        for n in (1, 2, 3, 4):
            for p in all_posets(n):
                fv = up_functor(p)
                assert fv.up == containment_rows_oracle(fv.masks)

    def test_pow_up_functor(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                fv = pow_up_functor(p)
                want = []
                for m in fv.masks:
                    row = 0
                    for j in fv.masks:
                        if m & ~j == 0:  # family inclusion
                            row |= 1 << j
                    want.append(row)
                assert fv.up == tuple(want)

    def test_generator_poset(self):
        for k in range(4):
            variables = [f"p{i}" for i in range(k)]
            g = generator_poset(variables)
            want = []
            for a in g.labels:
                row = 0
                for j, b in enumerate(g.labels):
                    if a >= b:  # reverse inclusion
                        row |= 1 << j
                want.append(row)
            assert g.up == tuple(want)
            assert g.labels == tuple(
                frozenset(v for i, v in enumerate(variables) if m >> i & 1)
                for m in range(1 << k)
            )
