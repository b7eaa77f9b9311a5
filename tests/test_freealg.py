
import pytest

from imcoalg import freealg, heyting
from imcoalg.config import Caps
from imcoalg.enumeration import pmorphisms
from imcoalg.errors import (
    CapExceeded,
    MixLawViolation,
    NotPMorphism,
    StageTooLarge,
    TooManyGenerators,
)
from imcoalg.frames import ModalFrame
from imcoalg.freealg import (
    MAX_INNER_DEPTH,
    MAX_STAGES,
    FreeStage,
    build_free_stages,
    check_modal_stage_properties,
    check_truncated_pmorphism,
    generator_poset,
    universal_lift,
)
from imcoalg.poset import (
    PosetMap,
    identity_map,
    is_monotone,
    is_pmorphism,
    iter_bits,
    make_poset,
    point_poset,
    upset_masks,
)

from helpers import (
    GOLDEN_STAGE_SIZES,
    chain_to_gen,
    frames_on,
    free_bases,
    hand_built_lifts,
    posets_up_to,
    reflexive_bottom_chain,
)
from oracles import (
    check,
    folded,
    index_route_lift,
    index_route_stages,
    index_route_truncated_pmorphism,
)


def layers_inside_the_caps():
    """build_free_stages on 0-2 generators for every stage count and inner
    depth the caps allow, skipping the runs past the stage cap."""
    for g in range(3):
        base = generator_poset([f"p{i}" for i in range(g)])
        for stages in range(MAX_STAGES + 1):
            for depth in range(1, MAX_INNER_DEPTH + 1):
                try:
                    lib = build_free_stages(base, stages, depth)
                except StageTooLarge:
                    continue
                yield lib


class TestIndexRouteOracle:
    """The stage-index layers against the nested-value route, on the
    criterion-8 configurations, hand-built frames and every layer sequence
    over a generator poset inside the caps."""

    def test_every_generator_sequence_inside_the_caps(self):
        # generators 0-2 (3 generators make an 8-element base, past
        # MAX_BASE), every stage count and inner depth; the projections
        # match, and so do the universal lifts of every p-morphism from a
        # poset of at most two elements with every mix-law frame on it
        refused = set()
        lifts = 0
        for g in range(3):
            base = generator_poset([f"p{i}" for i in range(g)])
            seeds = [
                (f, frame)
                for p in posets_up_to(2)
                for f in pmorphisms(p, base)
                for frame in frames_on(p)
            ]
            for stages in range(MAX_STAGES + 1):
                for depth in range(1, MAX_INNER_DEPTH + 1):
                    try:
                        lib = build_free_stages(base, stages, depth)
                    except StageTooLarge:
                        refused.add((g, stages, depth))
                        continue
                    ref = index_route_stages(base, stages, depth)
                    for a, b in zip(lib, ref, strict=True):
                        assert a.poset == b.poset
                        assert a.projection == b.projection
                    for f, frame in seeds:
                        try:
                            maps = universal_lift(f, frame, lib)
                        except NotPMorphism:
                            continue
                        assert maps == index_route_lift(f, frame, ref)
                        lifts += 1
        assert refused == {(1, 2, 2), (2, 2, 2)}
        assert lifts == 474

    @pytest.mark.parametrize("key", sorted(GOLDEN_STAGE_SIZES))
    def test_stages_match(self, key):
        name, stages, depth = key
        lib = build_free_stages(free_bases()[name], stages, depth)
        ref = index_route_stages(free_bases()[name], stages, depth)
        assert [s.poset.n for s in lib] == GOLDEN_STAGE_SIZES[key]
        assert len(lib) == len(ref)
        for a, b in zip(lib, ref):
            assert a.poset == b.poset
            assert a.projection == b.projection
            if a.index:
                assert a.rel == b.rel and a.pairs == b.pairs

    @pytest.mark.parametrize("stages, depth", [(2, 1), (1, 2)])
    def test_lifts_and_back_condition_match(self, stages, depth):
        cases = hand_built_lifts() + [
            ("gen1", chain_to_gen(), reflexive_bottom_chain())
        ]
        verdicts = []
        for name, seed, frame in cases:
            base = free_bases()[name]
            lib = build_free_stages(base, stages, depth)
            ref = index_route_stages(base, stages, depth)
            maps = universal_lift(seed, frame, free_stages=lib)
            assert maps == index_route_lift(seed, frame, ref)
            for k in range(1, stages + 1):
                verdict = check_truncated_pmorphism(
                    lib[k], maps[k].assign, frame.poset
                )
                assert verdict == index_route_truncated_pmorphism(
                    ref[k], maps[k].assign, frame.poset
                )
                verdicts.append(verdict)
        # only the reflexive-bottom chain fails, at inner depth 2
        assert verdicts[:-stages] == [True] * (len(verdicts) - stages)
        assert verdicts[-stages:] == [depth == 1] * stages

    @pytest.mark.parametrize("key", sorted(GOLDEN_STAGE_SIZES))
    def test_back_condition_matches_on_monotone_maps(self, key):
        check("check_truncated_pmorphism")


class TestGeneratorPoset:
    def test_zero_variables(self):
        assert generator_poset([]).n == 1

    def test_one_variable_is_two_chain(self):
        g = generator_poset(["p"])
        assert g.n == 2
        full = g.index(frozenset({"p"}))
        empty = g.index(frozenset())
        assert g.leq(full, empty)
        assert not g.leq(empty, full)

    def test_two_variables_is_diamond(self):
        g = generator_poset(["p", "q"])
        assert g.n == 4
        bot = g.index(frozenset({"p", "q"}))
        top = g.index(frozenset())
        sp = g.index(frozenset({"p"}))
        sq = g.index(frozenset({"q"}))
        assert g.leq(bot, sp) and g.leq(bot, sq)
        assert g.leq(sp, top) and g.leq(sq, top)
        assert not g.leq(sp, sq) and not g.leq(sq, sp)

    def test_cap(self):
        # a cap, like the base-size cap that three generators pass
        with pytest.raises(TooManyGenerators) as info:
            generator_poset(["p", "q", "r", "s"])
        assert isinstance(info.value, CapExceeded)


class TestBuildStages:
    def test_zero_stages(self):
        one = point_poset()
        stages = build_free_stages(one, 0, 1)
        assert len(stages) == 1
        assert stages[0].poset == one
        assert stages[0].projection == identity_map(one)

    def test_point_sizes_d1(self):
        stages = build_free_stages(point_poset(), 2, 1)
        assert [s.poset.n for s in stages] == [1, 2, 3]

    def test_point_sizes_d2(self):
        stages = build_free_stages(point_poset(), 2, 2)
        assert [s.poset.n for s in stages] == [1, 3, 29]

    def test_one_generator_sizes_d1(self):
        stages = build_free_stages(generator_poset(["p"]), 2, 1)
        assert [s.poset.n for s in stages] == [2, 6, 20]

    def test_one_generator_sizes_d2_stage1(self):
        stages = build_free_stages(generator_poset(["p"]), 1, 2)
        assert [s.poset.n for s in stages] == [2, 14]

    def test_projections_monotone(self):
        for base in (point_poset(), generator_poset(["p"])):
            for stage in build_free_stages(base, 2, 1)[1:]:
                assert is_monotone(stage.projection)

    def test_step_images_are_upsets(self):
        for base in (point_poset(), generator_poset(["p"])):
            stages = build_free_stages(base, 2, 1)
            for stage in stages[1:]:
                for e in range(stage.poset.n):
                    assert stage.prev.is_upset(stage.rel[e])

    def test_projection_images_of_upsets_are_upsets(self):
        # building layer k+1 pushes every upset of layer k through layer
        # k's projection and looks the image up among the upsets of layer
        # k-1 with no upward closure: every projection inside the caps is
        # a p-morphism, so each image is already an upset
        images = 0
        for lib in layers_inside_the_caps():
            for stage in lib[1:]:
                assert is_pmorphism(stage.projection)
            for stage, nxt in zip(lib[1:], lib[2:]):
                for mask in nxt.upsets.masks:
                    img = stage.projection.image_mask(mask)
                    assert stage.prev.is_upset(img)
                    images += 1
        # upsets of layer 1: 3 and 4 over the point (inner depth 1, 2),
        # 11 over one generator and 494 over two (inner depth 1)
        assert images == 3 + 4 + 11 + 494

    test_projection_matches_recursion = folded("FreeStage.projection")

    def test_stage_caps(self):
        with pytest.raises(CapExceeded):
            build_free_stages(point_poset(), 3, 1)
        with pytest.raises(CapExceeded):
            build_free_stages(point_poset(), 1, 3)

    def test_checker_passes_on_built_stages(self):
        for base in (point_poset(), generator_poset(["p"])):
            for d in (1, 2):
                stages = build_free_stages(base, 1, d)
                for stage in stages[1:]:
                    assert check_modal_stage_properties(stage).ok

    def test_upsets_of_previous_layer_are_capped(self):
        # stage 2 of one generator: its previous layer has 6 elements
        stage = build_free_stages(generator_poset(["p"]), 2, 1)[2]
        count = len(upset_masks(stage.prev))
        assert check_modal_stage_properties(stage, Caps(max_stage=count)).ok
        with pytest.raises(StageTooLarge, match="stage 1 too large"):
            check_modal_stage_properties(stage, Caps(max_stage=count - 1))

    def test_stage_check_enumerates_no_upsets_of_its_own(self, monkeypatch):
        # a layer is built from up_functor(prev, caps), so the check reads
        # Up(prev) from that memo: with the layers built, no module that
        # binds upset_masks sees a call while every layer is checked
        calls = []

        def recording(real):
            def upset_masks(p, limit=None):
                calls.append(p)
                return real(p, limit)
            return upset_masks

        runs = 0
        for lib in layers_inside_the_caps():
            with monkeypatch.context() as patch:
                for module in (heyting, freealg):
                    real = getattr(module, "upset_masks", None)
                    if real is not None:
                        patch.setattr(module, "upset_masks", recording(real))
                for stage in lib:
                    assert check_modal_stage_properties(stage).ok
            runs += 1
        assert calls == []
        assert runs == 16

    def test_corrupted_relation_detected(self):
        stages = build_free_stages(generator_poset(["p"]), 1, 1)
        stage = stages[1]
        # drop a non-minimal member from a step image: the remaining set
        # keeps a strictly smaller member, so it is no longer an upset
        prev = stage.prev
        broken = list(stage.rel)
        victim = upper = None
        for e in range(len(broken)):
            for x in iter_bits(broken[e]):
                for y in iter_bits(broken[e]):
                    if x != y and prev.leq(x, y):
                        victim, upper = e, y
            if victim is not None:
                break
        assert victim is not None
        broken[victim] &= ~(1 << upper)
        stage.rel = tuple(broken)
        report = check_modal_stage_properties(stage)
        assert not report.ok

    def test_box_of_an_upset_that_is_not_an_upset_detected(self):
        # x < y stepping to the upsets {b} and {a, b} of a < b: every step
        # image is an upset, but box {b} = {x} is not
        prev = make_poset(["a", "b"], [("a", "b")])
        layer = make_poset(["x", "y"], [("x", "y")])
        stage = FreeStage(
            index=1,
            poset=layer,
            projection=PosetMap(layer, prev, [0, 1]),
            inner_depth=1,
            prev=prev,
            rel=(0b10, 0b11),
        )
        report = check_modal_stage_properties(stage)
        assert report.checks["step-images-are-upsets"]
        assert not report.checks["box-preserves-upsets"]
        assert report.counterexamples["box-preserves-upsets"] == 0b10


class TestUniversalLift:
    def test_identity_empty_relation(self):
        g = generator_poset(["p"])
        frame = ModalFrame.from_pairs(g, [])
        stages = build_free_stages(g, 1, 1)
        maps = universal_lift(identity_map(g), frame, stages)
        assert len(maps) == 2
        assert maps[0] == identity_map(g)
        assert is_monotone(maps[1])
        # empty relation: every lifted point pairs with the empty upset
        for y in range(g.n):
            _, inner = stages[1].pairs[maps[1].assign[y]]
            assert stages[1].rel[maps[1].assign[y]] == 0

    def test_chain_frame_hand_example(self):
        p = make_poset(["a", "b"], [("a", "b")])
        frame = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        g = generator_poset(["p"])
        pm = PosetMap.from_dict(
            p, g, {"a": frozenset({"p"}), "b": frozenset()}
        )
        assert is_pmorphism(pm)
        for stages, d in ((2, 1), (1, 2)):
            maps = universal_lift(pm, frame, build_free_stages(g, stages, d))
            assert len(maps) == stages + 1
            for m in maps:
                assert is_monotone(m)

    def test_deep_inner_overflows_cleanly(self):
        # two stages at inner depth 2 over one generator needs a stage over
        # the ~66-element upset poset of M_1: the candidate space is
        # astronomically large and the caps must abort before building it
        with pytest.raises(CapExceeded):
            build_free_stages(generator_poset(["p"]), 2, 2)

    def test_projection_compatibility(self):
        p = make_poset(["a", "b"], [("a", "b")])
        frame = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        g = generator_poset(["p"])
        pm = PosetMap.from_dict(
            p, g, {"a": frozenset({"p"}), "b": frozenset()}
        )
        stages = build_free_stages(g, 2, 1)
        maps = universal_lift(pm, frame, free_stages=stages)
        for k in (1, 2):
            proj = stages[k].projection
            for y in range(p.n):
                assert proj.assign[maps[k].assign[y]] == maps[k - 1].assign[y]

    def test_rejects_non_pmorphism(self):
        p = make_poset(["a", "b"], [("a", "b")])
        g = generator_poset(["p"])
        bad = PosetMap.from_dict(
            p, g, {"a": frozenset({"p"}), "b": frozenset({"p"})}
        )
        assert not is_pmorphism(bad)
        frame = ModalFrame.from_pairs(p, [])
        with pytest.raises(NotPMorphism):
            universal_lift(bad, frame, build_free_stages(g, 1, 1))

    def test_rejects_layers_over_another_base(self):
        p = make_poset(["a", "b"], [("a", "b")])
        frame = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        pm = PosetMap.from_dict(
            p, generator_poset(["p"]),
            {"a": frozenset({"p"}), "b": frozenset()},
        )
        other = build_free_stages(generator_poset(["p", "q"]), 1, 1)
        with pytest.raises(NotPMorphism, match="not over the map's target"):
            universal_lift(pm, frame, other)

    def test_rejects_mix_violation(self):
        p = make_poset(["a", "b"], [("a", "b")])
        frame = ModalFrame.from_pairs(p, [("a", "a")])
        with pytest.raises(MixLawViolation):
            universal_lift(identity_map(p), frame, build_free_stages(p, 1, 1))
