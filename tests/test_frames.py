import random
import sys
from collections import Counter

import pytest

from imcoalg.config import Caps
from imcoalg.errors import (
    MixLawViolation,
    NotMonotone,
    StageTooLarge,
    UnknownLabel,
    ValueNotUpset,
)
from imcoalg import frames
from imcoalg.frames import (
    ModalFrame,
    NbhdFrame,
    check_coalgebra_morphism,
    check_mix_law,
    coalgebra_to_nbhd,
    frame_to_lifted,
    frame_to_upmap,
    is_modal_pmorphism,
    mix_closure,
    mix_law_witness,
    nbhd_morphism_condition,
    nbhd_to_coalgebra,
    pow_up_functor,
    pow_up_map,
    check_nbhd_coalgebra_morphism,
    upmap_to_frame,
)
from imcoalg.complexes import tower_coords
from imcoalg.heyting import up_functor, up_functor_map
from imcoalg.poset import (
    Poset,
    PosetMap,
    identity_map,
    is_pmorphism,
    iter_bits,
    make_poset,
    point_poset,
)
from imcoalg.enumeration import (
    all_posets,
    frames_up_to_iso,
    monotone_maps,
    pmorphisms,
)
from imcoalg.framefile import parse_frame_file

from helpers import (
    all_functions,
    compose,
    first_disagreement,
    frames_on,
    nested_compatible,
    nested_image,
    nested_monotone,
    preimage_table,
    pull_back_by_bits,
    random_mix_frame,
    random_poset,
)
from test_bisim import _iso_frames_up_to_three


def chain2():
    return make_poset(["a", "b"], [("a", "b")])


def serial_chain_frame():
    return ModalFrame.from_pairs(chain2(), [("a", "b"), ("b", "b")])


class TestMixLaw:
    def test_serial_chain(self):
        assert check_mix_law(serial_chain_frame())

    def test_reflexive_bottom_only_fails(self):
        fr = ModalFrame.from_pairs(chain2(), [("a", "a")])
        assert not check_mix_law(fr)
        assert mix_law_witness(fr) == ("a", "b")

    def test_empty_relation(self):
        assert check_mix_law(ModalFrame.from_pairs(chain2(), []))

    def test_mix_closure_repairs(self):
        fr = ModalFrame.from_pairs(chain2(), [("a", "a")])
        fixed = mix_closure(fr)
        assert check_mix_law(fixed)
        assert set(fixed.pairs()) == {("a", "a"), ("a", "b")}

    def test_mix_closure_idempotent_on_valid(self):
        fr = serial_chain_frame()
        assert mix_closure(fr) == fr

    def test_mix_law_equals_upset_and_antitone(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                for bits in range(1 << (p.n * p.n)):
                    rel = [
                        (bits >> (x * p.n)) & p.full_mask for x in range(p.n)
                    ]
                    fr = ModalFrame(p, rel)
                    upset_antitone = all(
                        p.is_upset(rel[x]) for x in range(p.n)
                    ) and all(
                        rel[y] & ~rel[x] == 0
                        for x in range(p.n)
                        for y in range(p.n)
                        if p.leq(x, y)
                    )
                    assert check_mix_law(fr) == upset_antitone
                if p.n >= 3:
                    break  # 2^9 per poset is enough; skip the rest of size 3


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


class TestMixClosureAgainstOracle:
    def test_every_relation_up_to_three_elements(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                for bits in range(1 << (p.n * p.n)):
                    rel = [
                        (bits >> (x * p.n)) & p.full_mask for x in range(p.n)
                    ]
                    fr = ModalFrame(p, rel)
                    assert mix_closure(fr).rel == tuple(mix_rows_by_bits(fr))
                    assert mix_law_witness(fr) == mix_law_witness_by_bits(fr)


def generated_posets(p, rng):
    """p rebuilt by make_poset from four pair lists: its covers, the
    covers with a seeded half of the other strict pairs (redundant,
    transitive ones), and both of these shuffled. Each poset equals p, but
    keeps the pairs it was given as its generating rows."""
    name = p.labels
    covers = p.covers()
    redundant = [
        (i, j)
        for i in range(p.n)
        for j in iter_bits(p.up[i] & ~(1 << i))
        if (i, j) not in covers and rng.random() < 0.5
    ]
    lists = [covers, covers + redundant]
    lists += [rng.sample(pairs, len(pairs)) for pairs in lists]
    out = []
    for pairs in lists:
        q = make_poset(name, [(name[i], name[j]) for i, j in pairs])
        assert q == p and hash(q) == hash(p)
        assert sum(row.bit_count() for row in q.generating_rows) == (
            p.n + len(pairs)
        )
        out.append(q)
    return out


def decided_as_oracle(posets, rel):
    """The oracle's witness for rel, after checking that the generating-pair
    test, mix_law_witness and the held mix_witness agree with it on each
    of the posets (one order, generated by different rows)."""
    want = mix_law_witness_by_bits(ModalFrame(posets[0], rel))
    for q in posets:
        fr = ModalFrame(q, rel)
        assert frames._holds_on_generators(fr) == (want is None)
        assert mix_law_witness(fr) == want
        assert fr.mix_witness == want
    return want


class TestGeneratingPairDecision:
    """mix_law_witness decides the law on the generating pairs of the
    order and builds the rows of (<=);R;(<=) only to name a failure's
    witness: it agrees with the bit loop whether the order was given by
    its rows (every pair of <=), by its covers or by covers and redundant
    pairs, in any order."""

    def test_every_relation_up_to_three_elements(self):
        rng = random.Random(2406)
        outcomes = Counter()
        for n in (1, 2, 3):
            for p in all_posets(n):
                posets = [p] + generated_posets(p, rng)
                for bits in range(1 << (n * n)):
                    rel = [(bits >> (x * n)) & p.full_mask for x in range(n)]
                    outcomes[decided_as_oracle(posets, rel) is None] += 1
        assert outcomes == {True: 764, False: 1830}

    def test_seeded_relations_on_four_to_six_elements(self):
        # per size: a half of the relations drawn at random, a quarter mix
        # closures, a quarter mix closures with one bit flipped
        rng = random.Random(10649)
        outcomes = Counter()
        for n in (4, 5, 6):
            for k in range(2000):
                p = random_poset(rng, n)
                kind = k % 4
                if kind < 2:
                    rel = [rng.getrandbits(n) for _ in range(n)]
                else:
                    rel = list(random_mix_frame(rng, p).rel)
                    if kind == 3:
                        rel[rng.randrange(n)] ^= 1 << rng.randrange(n)
                want = decided_as_oracle([p] + generated_posets(p, rng), rel)
                outcomes[kind, want is None] += 1
        # both outcomes are met often, from each kind that can give both
        random_ok = outcomes[0, True] + outcomes[1, True]
        assert 100 < random_ok < 300
        assert outcomes[2, True] == 1500
        assert outcomes[3, True] > 500 and outcomes[3, False] > 500


class TestMixLawOncePerFrame:
    """A frame decides the mix law the first time its witness is read and
    then holds it: mix_law_witness runs once per frame object."""

    def test_witness_is_held(self, monkeypatch):
        calls = counted_mix_law_witness(monkeypatch)
        fr = ModalFrame.from_pairs(chain2(), [("a", "a")])
        assert fr.mix_witness == fr.mix_witness == ("a", "b")
        assert not check_mix_law(fr)
        with pytest.raises(MixLawViolation):
            frame_to_lifted(fr, 2)
        assert calls == [fr]

    def test_coalgebra_squares_decide_each_frame_once(self, monkeypatch):
        # fresh frame objects, so no earlier test has decided them
        chain3 = make_poset("abc", [("a", "b"), ("b", "c")])
        left = ModalFrame(chain3, (0b110, 0b100, 0b100))
        right = ModalFrame(chain2(), (0b10, 0b10))
        maps = pmorphisms(left.poset, right.poset)
        assert len(maps) > 1
        calls = counted_mix_law_witness(monkeypatch)
        for f in maps:
            check_coalgebra_morphism(f, left, right, 2)
        assert calls == [left, right]


def counted_mix_law_witness(monkeypatch):
    """Bind mix_law_witness to a wrapper in every imcoalg module that holds
    it, as the benchmark's tracer does; the list it returns collects the
    frame of each call."""
    calls = []
    original = frames.mix_law_witness

    def counted(frame):
        calls.append(frame)
        return original(frame)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "imcoalg" and (
            getattr(module, "mix_law_witness", None) is original
        ):
            monkeypatch.setattr(module, "mix_law_witness", counted)
    return calls


class TestCorrespondence:
    def test_empty_relation_constant_bottom(self):
        p = chain2()
        fr = ModalFrame.from_pairs(p, [])
        m = frame_to_upmap(fr)
        fv = up_functor(p)
        assert all(fv.masks[i] == 0 for i in m.assign)

    def test_serial_chain_assignment(self):
        fr = serial_chain_frame()
        m = frame_to_upmap(fr)
        assert m(fr.poset.labels[0]) == frozenset({"b"})
        assert m(fr.poset.labels[1]) == frozenset({"b"})

    def test_full_relation_on_antichain(self):
        p = make_poset(["a", "b"], [])
        fr = ModalFrame.from_pairs(
            p, [(a, b) for a in "ab" for b in "ab"]
        )
        m = frame_to_upmap(fr)
        fv = up_functor(p)
        assert all(fv.masks[i] == p.full_mask for i in m.assign)

    def test_rejects_mix_violation(self):
        fr = ModalFrame.from_pairs(chain2(), [("a", "a")])
        with pytest.raises(MixLawViolation):
            frame_to_upmap(fr)

    def test_roundtrip_exhaustive_size3(self):
        for n in (1, 2, 3):
            for p in all_posets(n):
                for fr in frames_on(p):
                    assert upmap_to_frame(frame_to_upmap(fr)) == fr

    def test_roundtrip_sampled_size4(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_poset(rng, 4)
            fr = random_mix_frame(rng, p)
            assert upmap_to_frame(frame_to_upmap(fr)) == fr

    def test_principal_upmap_recovers_order(self):
        p = chain2()
        fv = up_functor(p)
        m = PosetMap(
            p, fv, [fv.index_of_mask(p.up_mask(i)) for i in range(p.n)]
        )
        fr = upmap_to_frame(m)
        assert set(fr.pairs()) == {("a", "a"), ("a", "b"), ("b", "b")}

    def test_upmap_rejects_non_monotone(self):
        p = chain2()
        fv = up_functor(p)
        m = PosetMap(
            p,
            fv,
            [fv.index_of_mask(0), fv.index_of_mask(p.full_mask)],
        )
        # assigns a smaller upset to the smaller point: not monotone in the
        # reverse-inclusion order
        with pytest.raises(NotMonotone):
            upmap_to_frame(m)

    def test_upmap_mix_law_checked_by_exception(self, monkeypatch):
        # a carrier whose middle "upset" is {a}, not an upset of a < b: the
        # recovered relation a R a then misses a R b
        p = chain2()
        broken = Poset.over_masks((0, 0b01, 0b11), p, up_functor(p).up)
        monkeypatch.setattr(frames, "up_functor", lambda q: broken)
        m = PosetMap(p, broken, [1, 1])
        with pytest.raises(MixLawViolation):
            upmap_to_frame(m)

    def test_relation_length_checked(self):
        with pytest.raises(UnknownLabel):
            ModalFrame(chain2(), (0b10,))

    @pytest.mark.parametrize("rows", [(0b10,), (0b11,), (1 << 70,)])
    def test_row_outside_the_carrier_rejected(self, rows):
        with pytest.raises(UnknownLabel):
            ModalFrame(point_poset(), rows)
        with pytest.raises(UnknownLabel):
            ModalFrame(chain2(), (0b11,) + tuple(r << 1 for r in rows))

    def test_negative_row_rejected(self):
        with pytest.raises(UnknownLabel):
            ModalFrame(point_poset(), (-1,))
        with pytest.raises(UnknownLabel):
            ModalFrame(chain2(), (0b10, -2))

    def test_family_count_checked(self):
        with pytest.raises(UnknownLabel):
            NbhdFrame(chain2(), (0, 0, 0))


# -- the index route over Up(P): the oracle for the mask-valued checks -------


def index_lifted(frame, depth):
    """The lift of x -> R[x] as nested levels over Up(P) indices."""
    return tower_coords(frame.poset, frame_to_upmap(frame).assign, depth)


def index_levels_as_masks(levels, fv):
    """The levels of an index-valued lift, with each index read as its mask."""
    return [
        tuple(nested_image(fv.masks.__getitem__, level, v) for v in values)
        for level, values in enumerate(levels, 1)
    ]


def index_lift_is_tower(frame, levels, fv):
    """The index-valued lift is compatible and monotone (nested route)."""
    return nested_compatible(fv, levels) and nested_monotone(
        frame.poset, fv, levels
    )


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


def non_mix_frames():
    """A relation that is no upset, and one that shrinks down the order."""
    return [
        ModalFrame.from_pairs(chain2(), [("a", "a")]),
        ModalFrame.from_pairs(chain2(), [("b", "b")]),
    ]


class TestLiftedCoalgebra:
    def test_point_frame_constant(self):
        one = point_poset()
        fr = ModalFrame.from_pairs(one, [])
        t = frame_to_lifted(fr, 3)
        assert t == [(0,), (frozenset({0}),), (frozenset({frozenset({0})}),)]
        assert index_lift_is_tower(fr, index_lifted(fr, 3), up_functor(one))

    def test_level1_equals_upmap(self):
        fr = serial_chain_frame()
        t = frame_to_lifted(fr, 3)
        fv = up_functor(fr.poset)
        assert t[0] == fr.rel
        assert t[0] == tuple(fv.masks[i] for i in frame_to_upmap(fr).assign)

    def test_recursion_step(self):
        fr = serial_chain_frame()
        t = frame_to_lifted(fr, 2)
        m = fr.rel
        assert t[1][0] == frozenset({m[0], m[1]})
        assert t[1][1] == frozenset({m[1]})

    def test_relift_of_base_reproduces_tower(self):
        # the mask levels are the index levels of the upset map, read as
        # masks; the index tower is still a compatible monotone tower map
        for p in all_posets(3):
            fv = up_functor(p)
            for fr in frames_on(p)[::5]:
                t = frame_to_lifted(fr, 3)
                index = index_lifted(fr, 3)
                assert t == index_levels_as_masks(index, fv)
                assert index_lift_is_tower(fr, index, fv)

    def test_mix_law_violation_raises(self):
        for fr in non_mix_frames():
            with pytest.raises(MixLawViolation):
                frame_to_lifted(fr, 2)
            with pytest.raises(MixLawViolation):
                check_coalgebra_morphism(identity_map(fr.poset), fr, fr, 2)

    def test_mix_law_checked_on_the_source_first(self):
        # the source frame is never lifted, but its mix law is still
        # checked, and before the target's
        good = serial_chain_frame()
        ident = identity_map(good.poset)
        for bad in non_mix_frames():
            for f1, f2 in ((bad, good), (good, bad), (bad, bad)):
                with pytest.raises(MixLawViolation) as exc:
                    check_coalgebra_morphism(ident, f1, f2, 2)
                with pytest.raises(MixLawViolation) as want:
                    frame_to_lifted(f1 if f1 is bad else f2, 2)
                assert str(exc.value) == str(want.value)


class TestDepthBelowOne:
    """Depth below 1 used to pass the squares vacuously."""

    @pytest.mark.parametrize("depth", [0, -1])
    def test_lift_refuses_it(self, depth):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            frame_to_lifted(serial_chain_frame(), depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_coalgebra_square_refuses_it_first(self, depth):
        p = chain2()
        serial = serial_chain_frame()
        other = ModalFrame.from_pairs(p, [("a", "b")])
        ident = identity_map(p)
        assert not check_coalgebra_morphism(ident, serial, other, 1)
        swap = PosetMap(p, p, [1, 0])
        point = ModalFrame.from_pairs(point_poset(), [])
        # a differing R, a mismatched poset, a map that is no p-morphism
        # and a mix-law violation all lose to the depth
        cases = [(ident, serial, other), (ident, point, serial),
                 (swap, serial, serial)]
        cases += [(ident, bad, bad) for bad in non_mix_frames()]
        for f, f1, f2 in cases:
            with pytest.raises(ValueError, match="depth must be >= 1"):
                check_coalgebra_morphism(f, f1, f2, depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_nbhd_square_refuses_it_first(self, depth):
        p = chain2()
        nf = NbhdFrame(p, [0, 0])
        for f in (identity_map(p), PosetMap(p, p, [1, 0])):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                check_nbhd_coalgebra_morphism(f, nf, nf, depth)


class TestModalPMorphism:
    def test_identity(self):
        fr = serial_chain_frame()
        assert is_modal_pmorphism(identity_map(fr.poset), fr, fr)

    def test_terminal_to_reflexive_point_iff_serial(self):
        one = point_poset()
        target = ModalFrame.from_pairs(one, [("*", "*")])
        p = chain2()
        tmap = PosetMap(p, one, [0, 0])
        serial = serial_chain_frame()
        assert is_modal_pmorphism(tmap, serial, target)
        nonserial = ModalFrame.from_pairs(p, [("a", "b")])
        assert not is_modal_pmorphism(tmap, nonserial, target)

    def test_collapse_with_nonempty_rel_fails_forth(self):
        one = point_poset()
        target = ModalFrame.from_pairs(one, [])
        tmap = PosetMap(chain2(), one, [0, 0])
        assert not is_modal_pmorphism(tmap, serial_chain_frame(), target)


class TestCoalgebraMorphism:
    def test_identity_commutes(self):
        fr = serial_chain_frame()
        assert check_coalgebra_morphism(identity_map(fr.poset), fr, fr, 3)

    def test_equivalence_exhaustive_small(self):
        # the morphism part of the correspondence at sizes <= 2
        posets = all_posets(1) + all_posets(2)
        for p in posets:
            for q in posets:
                maps = list(all_functions(p, q))
                for f1 in frames_on(p):
                    for f2 in frames_on(q):
                        for f in maps:
                            assert is_modal_pmorphism(
                                f, f1, f2
                            ) == check_coalgebra_morphism(f, f1, f2, 3)

    def test_forth_failure_detected_at_level1(self):
        one = point_poset()
        target = ModalFrame.from_pairs(one, [])
        tmap = PosetMap(chain2(), one, [0, 0])
        assert not check_coalgebra_morphism(tmap, serial_chain_frame(), target, 1)



class TestMaskRouteOracle:
    """check_coalgebra_morphism on upset masks agrees with the index route
    over Up(P) (up_functor, up_functor_map, tower_coords)."""

    def test_exhaustive_small(self):
        posets = all_posets(1) + all_posets(2)
        for p in posets:
            for q in posets:
                maps = list(all_functions(p, q))
                for f1 in frames_on(p):
                    for f2 in frames_on(q):
                        for f in maps:
                            assert check_coalgebra_morphism(
                                f, f1, f2, 3
                            ) == index_coalgebra_morphism(f, f1, f2, 3)

    def test_sample_of_frames_up_to_iso(self):
        frames = [
            fr
            for n in (1, 2, 3)
            for p in all_posets(n)
            for fr in frames_up_to_iso(p)
        ]
        assert len(frames) == 310
        rng = random.Random(404)
        commuting = 0
        for _ in range(400):
            f1 = rng.choice(frames)
            f2 = rng.choice([f1, rng.choice(frames)])
            for f in all_functions(f1.poset, f2.poset):
                got = check_coalgebra_morphism(f, f1, f2, 3)
                assert got == index_coalgebra_morphism(f, f1, f2, 3)
                commuting += got
        assert commuting > 0

    def test_every_pmorphism_between_frames_up_to_three(self):
        # every p-morphism between the posets of each pair of the 310
        # frames (735 776 instances), one depth each, the depths 1-3 in
        # turn, against the nested-value route on lifts computed once
        lifted = {}
        for fr in _iso_frames_up_to_three():
            levels = frame_to_lifted(fr, 3)
            lifted.setdefault(fr.poset, []).append((fr, levels))
        seen = Counter()
        count = 0
        for p, sources in lifted.items():
            for q, targets in lifted.items():
                for f in pmorphisms(p, q):
                    for f1, levels1 in sources:
                        for f2, levels2 in targets:
                            fail = first_disagreement(
                                f.image_mask, levels1, levels2, f.assign
                            )
                            depth = 1 + count % 3
                            got = check_coalgebra_morphism(f, f1, f2, depth)
                            assert got == (fail > depth)
                            seen[depth, got] += 1
                            count += 1
        assert count == 735776
        assert len(seen) == 6


class TestPowUp:
    def test_point_has_four_families(self):
        fv = pow_up_functor(point_poset())
        assert fv.n == 4

    def test_base_cap(self):
        p = make_poset(["a", "b", "c", "d"], [])
        with pytest.raises(StageTooLarge):
            pow_up_functor(p)

    def test_memo_does_not_bypass_tighter_caps(self):
        p = make_poset(["a", "b"], [])
        assert pow_up_functor(p).n == 16
        with pytest.raises(StageTooLarge):
            pow_up_functor(p, caps=Caps(max_stage=4))

    def test_constant_empty_family_frame(self):
        p = chain2()
        nf = NbhdFrame(p, [0, 0])
        m = nbhd_to_coalgebra(nf)
        fv = pow_up_functor(p)
        assert all(fv.masks[i] == 0 for i in m.assign)
        assert coalgebra_to_nbhd(m) == nf

    def test_monotonicity_enforced(self):
        p = chain2()
        fv = up_functor(p)
        full_up = 1 << fv.index_of_mask(p.full_mask)
        with pytest.raises(NotMonotone):
            NbhdFrame(p, [full_up, 0])

    def test_strict_mode_rejects_non_upclosed_family(self):
        p = chain2()
        fv = up_functor(p)
        fam = 1 << fv.index_of_mask(p.full_mask)  # {full}; up-closure needs {b},{}
        NbhdFrame(p, [fam, fam])  # lax default accepts
        with pytest.raises(ValueNotUpset):
            NbhdFrame(p, [fam, fam], strict=True)

    def test_strict_mode_matches_member_test(self):
        # a family is up-closed when every upset below one of its members
        # in the reverse-inclusion order is a member too
        for n in (1, 2, 3):
            for p in all_posets(n):
                order = up_functor(p)
                for fam in range(1 << order.n):
                    closed = all(
                        (fam >> j) & 1
                        for i in iter_bits(fam)
                        for j in iter_bits(order.up[i])
                    )
                    try:
                        NbhdFrame(p, [fam] * p.n, strict=True)
                        accepted = True
                    except ValueNotUpset:
                        accepted = False
                    assert accepted == closed

    def test_label_family_with_a_non_upset_rejected(self):
        ff = parse_frame_file(
            "[elements]\na b\n[order]\na < b\n[nbhd]\na : {a}\nb : {a b}\n"
        )
        with pytest.raises(ValueNotUpset):
            ff.build_nbhd_frame()
        # closed upward on request: {a} becomes {a, b}, the full upset
        nf = ff.build_nbhd_frame(close=True)
        full = 1 << up_functor(nf.poset).index_of_mask(nf.poset.full_mask)
        assert nf.families == (full, full)

    @pytest.mark.parametrize("strict", [False, True])
    def test_family_outside_the_carrier_rejected(self, strict):
        # Up of a point has two elements, so bit 2 leaves the carrier
        for fam in (0b100, 0b111, 1 << 70):
            with pytest.raises(UnknownLabel, match="leaves the upset carrier"):
                NbhdFrame(point_poset(), [fam], strict=strict)
        NbhdFrame(point_poset(), [0b11], strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_negative_family_rejected(self, strict):
        for fam in (-1, -2):
            with pytest.raises(UnknownLabel, match="leaves the upset carrier"):
                NbhdFrame(point_poset(), [fam], strict=strict)
        p = chain2()
        with pytest.raises(UnknownLabel):
            NbhdFrame(p, [0, -1], strict=strict)

    def test_morphism_condition_hand_example(self):
        # identity on a one-point frame whose family is {{*}}
        one = point_poset("*")
        fv = up_functor(one)
        fam = 1 << fv.index_of_mask(1)
        nf = NbhdFrame(one, [fam])
        assert nbhd_morphism_condition(identity_map(one), nf, nf)
        other = NbhdFrame(one, [fam | (1 << fv.index_of_mask(0))])
        assert not nbhd_morphism_condition(identity_map(one), nf, other)

    def test_morphism_iff_square_exhaustive_2pt(self):
        posets = all_posets(1) + all_posets(2)
        for p in posets:
            for q in posets:
                pv = pow_up_functor(p)
                qv = pow_up_functor(q)
                nf1s = _all_nbhd_frames(p, pv)
                nf2s = _all_nbhd_frames(q, qv)
                for f in monotone_maps(p, q):
                    for nf1 in nf1s:
                        for nf2 in nf2s:
                            cond = nbhd_morphism_condition(f, nf1, nf2)
                            square = check_nbhd_coalgebra_morphism(
                                f, nf1, nf2, depth=1
                            )
                            assert cond == square

    def test_pullback_matches_the_bit_loop(self):
        # criterion 9's instances: every monotone map between posets of at
        # most two elements and every pair of neighbourhood frames on them,
        # against the per-bit pullback the image kernel replaced
        posets = all_posets(1) + all_posets(2)
        verdicts = Counter()
        for p in posets:
            nf1s = _all_nbhd_frames(p, pow_up_functor(p))
            for q in posets:
                nf2s = _all_nbhd_frames(q, pow_up_functor(q))
                for f in monotone_maps(p, q):
                    pre = preimage_table(f)
                    u = pow_up_map(f).assign
                    assert list(u) == [
                        pull_back_by_bits(pre, fam) for fam in range(len(u))
                    ]
                    for nf1 in nf1s:
                        pulled = [
                            pull_back_by_bits(pre, fam) for fam in nf1.families
                        ]
                        for nf2 in nf2s:
                            want = all(
                                nf2.families[t] == b
                                for t, b in zip(f.assign, pulled)
                            )
                            got = nbhd_morphism_condition(f, nf1, nf2)
                            assert got == want
                            verdicts[want] += 1
        assert verdicts == {True: 3995, False: 305220}

    def test_square_refuses_a_map_between_other_posets(self):
        # the square compared a map of the point on the first point of a
        # two-element frame, and passed; the condition passed too, and with
        # families past the point's upsets it raised IndexError
        one = point_poset()
        ident = identity_map(one)
        big, small = NbhdFrame(chain2(), [0, 0]), NbhdFrame(one, [0])
        full = NbhdFrame(chain2(), [0b111, 0b111])
        pairs = ((big, small), (small, big), (big, big), (full, small))
        for nf1, nf2 in pairs:
            assert not check_nbhd_coalgebra_morphism(ident, nf1, nf2, 1)
            assert not nbhd_morphism_condition(ident, nf1, nf2)
        assert check_nbhd_coalgebra_morphism(ident, small, small, 1)
        assert nbhd_morphism_condition(ident, small, small)

    def test_lifted_square_matches_nested_route_up_to_two(self):
        # every monotone map between posets of at most two elements and
        # every pair of neighbourhood frames on them (309 215 instances),
        # one depth each, the depths 1-3 in turn, against the nested-value
        # route on lifts computed once
        posets = all_posets(1) + all_posets(2)
        lifted = {
            p: [
                (nf, tower_coords(p, nbhd_to_coalgebra(nf).assign, 3))
                for nf in _all_nbhd_frames(p, pow_up_functor(p))
            ]
            for p in posets
        }
        seen = Counter()
        count = 0
        for p in posets:
            for q in posets:
                for f in monotone_maps(p, q):
                    u = pow_up_map(f).assign.__getitem__
                    for nf1, levels1 in lifted[p]:
                        for nf2, levels2 in lifted[q]:
                            fail = first_disagreement(
                                u, levels1, levels2, f.assign
                            )
                            depth = 1 + count % 3
                            got = check_nbhd_coalgebra_morphism(
                                f, nf1, nf2, depth
                            )
                            assert got == (fail > depth)
                            seen[fail] += 1
                            count += 1
        assert count == 309215
        assert set(seen) == {1, 2, 4}


def _all_nbhd_frames(p, fv):
    out = []
    size = fv.n

    def extend(i, chosen):
        if i == p.n:
            out.append(NbhdFrame(p, tuple(chosen)))
            return
        for fam in range(size):
            if all(
                not p.leq(j, i) or chosen[j] & ~fam == 0
                for j in range(i)
            ) and all(
                not p.leq(i, j) or fam & ~chosen[j] == 0 for j in range(i)
            ):
                extend(i + 1, chosen + [fam])

    extend(0, [])
    return out


class TestPowUpMapAction:
    def test_functor_laws(self):
        for p in all_posets(2):
            ident = pow_up_map(identity_map(p))
            assert ident.assign == tuple(range(ident.source.n))
        p, q, r = all_posets(2)[0], all_posets(2)[1], all_posets(1)[0]
        for f in monotone_maps(p, q):
            for g in monotone_maps(q, r):
                lhs = pow_up_map(compose(g, f))
                rhs = compose(pow_up_map(g), pow_up_map(f))
                assert lhs.assign == rhs.assign
