"""Acceptance suite: one test per criterion, printed as one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Exhaustive sweeps enumerate posets up to
isomorphism and, where noted, frames up to isomorphism; transporting a
counterexample along an isomorphism preserves every property checked here,
so the reduced sweeps are exhaustive for the claims.

Where an exhaustive sweep needs a reduced-but-equivalent form of a check to
fit its time budget (criteria 2 and 5), the full library implementation is
additionally run on every size-<=2 instance and on stratified samples of
the larger ones, and the two must agree everywhere.
"""

import itertools
import random
import time

import pytest

from imcoalg.bisim import (
    Bisimulation,
    coalgebraic_bisim_check,
    is_box_bisimulation,
    largest_bisimulation,
    largest_model_bisimulation,
    saturated_valuation,
)
from imcoalg.complexes import (
    build_complex,
    check_adjunction,
    check_limit_pmorphism,
    enumerate_tower_maps,
    lift_map,
    tower_coords,
)
from imcoalg.errors import CapExceeded, ProjectionNotPMorphism
from imcoalg.frames import (
    ModalFrame,
    check_coalgebra_morphism,
    check_mix_law,
    check_nbhd_coalgebra_morphism,
    frame_to_lifted,
    frame_to_upmap,
    is_modal_pmorphism,
    nbhd_morphism_condition,
    upmap_to_frame,
)
from imcoalg.freealg import (
    build_free_stages,
    check_modal_stage_properties,
    check_truncated_pmorphism,
    universal_lift,
)
from imcoalg.heyting import up_functor, up_functor_map
from imcoalg.logic import (
    Box,
    Model,
    Top,
    definable_masks,
    enumerate_formulas,
    iff,
    parse,
    truth_mask,
)
from imcoalg.poset import (
    is_monotone,
    is_pmorphism,
    iter_bits,
    terminal_map,
    upset_masks,
)
from imcoalg.enumeration import all_posets, frames_up_to_iso, monotone_maps

from helpers import (
    GOLDEN_STAGE_SIZES,
    all_functions,
    all_nbhd_frames,
    chain_to_gen,
    frames_on,
    free_bases,
    hand_built_lifts,
    index_levels_as_masks,
    index_lift_is_tower,
    nested_image,
    random_mix_frame,
    random_poset,
    random_upset,
    reflexive_bottom_chain,
)


def report(name, detail, started):
    print(f"\nACCEPTANCE {name}: PASS ({detail}; {time.time() - started:.1f}s)")


@pytest.fixture(scope="module")
def posets_123():
    return {n: all_posets(n) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def iso_frames(posets_123):
    cache = {}
    for n, posets in posets_123.items():
        for p in posets:
            cache[p] = frames_up_to_iso(p)
    return cache


def _check_correspondence(fr):
    """Roundtrip through the upset map; the mask-valued lift is the lift of
    the upset map with each Up-index read as its mask, and that index tower
    is compatible and monotone."""
    fv = up_functor(fr.poset)
    m = frame_to_upmap(fr)
    assert upmap_to_frame(m) == fr
    index = tower_coords(fr.poset, m.assign, 3)
    assert index[0] == m.assign
    assert index_lift_is_tower(fr, index, fv)
    assert frame_to_lifted(fr, 3) == index_levels_as_masks(index, fv)


def test_criterion_1_correspondence(posets_123):
    """Frame -> upset map -> frame is the identity, and the level-1
    coordinate of the depth-3 lift reproduces the upset map; exhaustive
    over all mix-law frames on posets of <= 3 elements, plus 200 random
    4-5 element frames."""
    started = time.time()
    checked = 0
    for n, posets in posets_123.items():
        for p in posets:
            for fr in frames_on(p):
                _check_correspondence(fr)
                checked += 1
    rng = random.Random(101)
    randoms = 0
    while randoms < 200:
        p = random_poset(rng, rng.choice([4, 5]))
        _check_correspondence(random_mix_frame(rng, p))
        randoms += 1
    report(
        "criterion-1 correspondence",
        f"{checked} exhaustive frames + {randoms} random 4-5 element frames",
        started,
    )


def _raw_sig(p, q, assign, rel1):
    out = []
    for x in range(p.n):
        m = 0
        for y in iter_bits(rel1[x]):
            m |= 1 << assign[y]
        out.append(m)
    return tuple(out)


def _index_levels(fr):
    m = frame_to_upmap(fr)
    return tower_coords(m.source, m.assign, 3)


def test_criterion_2_morphism_equivalence(posets_123, iso_frames):
    """is_modal_pmorphism(f) iff the depth-3 coalgebra square commutes, for
    all frame pairs on <= 3-element posets (frames up to isomorphism, which
    is exhaustive up to relabeling) and all functions between the carriers.

    Maps failing the order back condition are never modal p-morphisms nor
    coalgebra morphisms; the sweep verifies both library predicates on them
    directly. For order p-morphisms, the modal clauses reduce to equality
    of raw successor images and the square to equality of lifted towers.
    Along a p-morphism, depth above 1 adds nothing: the towers agree at
    every level iff they agree at level 1 (the naturality lemma in
    imcoalg.complexes). The towers are still compared in full at depth 3
    for every coordinate-1 match, and the library check is re-run on all
    size-<=2 instances plus a stratified sample.
    """
    started = time.time()
    rng = random.Random(202)
    posets = [p for n in (1, 2, 3) for p in posets_123[n]]
    agree = 0
    genuine = 0
    for p in posets:
        frames1 = iso_frames[p]
        towers1 = {fr: _index_levels(fr) for fr in frames1}
        for q in posets:
            frames2 = iso_frames[q]
            towers2 = {fr: _index_levels(fr) for fr in frames2}
            exhaustive_small = p.n <= 2 and q.n <= 2
            for f in all_functions(p, q):
                if not is_pmorphism(f):
                    f1 = frames1[rng.randrange(len(frames1))]
                    f2 = frames2[rng.randrange(len(frames2))]
                    assert not is_modal_pmorphism(f, f1, f2)
                    assert not check_coalgebra_morphism(f, f1, f2, 3)
                    continue
                u = up_functor_map(f).assign.__getitem__
                by_key = {}
                for f2 in frames2:
                    key = tuple(f2.rel[fx] for fx in f.assign)
                    by_key.setdefault(key, []).append(f2)
                for f1 in frames1:
                    raw = _raw_sig(p, q, f.assign, f1.rel)
                    # order p-morphism + mix law make raw images upsets
                    assert all(q.is_upset(m) for m in raw)
                    matches = set(by_key.get(raw, ()))
                    for f2 in frames2:
                        modal = f2 in matches
                        assert modal == is_modal_pmorphism(f, f1, f2)
                        if modal:
                            for level in (1, 2, 3):
                                for x in range(p.n):
                                    assert nested_image(
                                        u, level, towers1[f1][level - 1][x]
                                    ) == towers2[f2][level - 1][f.assign[x]]
                        run_genuine = exhaustive_small or modal or (
                            rng.random() < 0.002
                        )
                        if run_genuine:
                            genuine += 1
                            assert modal == check_coalgebra_morphism(
                                f, f1, f2, 3
                            )
                        agree += 1
    report(
        "criterion-2 morphism equivalence",
        f"{agree} (f, frame, frame) triples, {genuine} via the full check, "
        "0 discrepancies",
        started,
    )


def test_criterion_3_lifting(posets_123):
    """Lifts of all monotone maps between posets of size <= 3 (and 100
    random size-4 instances) pass the truncated limit back condition at
    depths 1..3; at size <= 3, depth 2, the lift is the unique
    coordinate-compatible monotone tower map passing it."""
    started = time.time()
    posets = [p for n in (1, 2, 3) for p in posets_123[n]]
    lifts = 0
    for q in posets:
        complexes = {d: build_complex(terminal_map(q), d) for d in (1, 2, 3)}
        for p in posets:
            for f in monotone_maps(p, q):
                for d in (1, 2, 3):
                    t = lift_map(f, complexes[d], d)
                    assert check_limit_pmorphism(t, d)
                lifts += 1
    unique = 0
    for q in posets:
        cx = build_complex(terminal_map(q), 2)
        for p in posets:
            for f in monotone_maps(p, q):
                passing = [
                    t
                    for t in enumerate_tower_maps(p, cx, 2, base_map=f)
                    if check_limit_pmorphism(t, 2)
                ]
                assert len(passing) == 1
                assert passing[0] == lift_map(f, cx, 2)
                unique += 1
    rng = random.Random(303)
    randoms = 0
    while randoms < 100:
        q = random_poset(rng, 4)
        p = random_poset(rng, 4, labels=tuple(f"s{i}" for i in range(4)))
        maps = monotone_maps(p, q)
        cx = build_complex(terminal_map(q), 3)
        f = maps[rng.randrange(len(maps))]
        t = lift_map(f, cx, 3)
        assert check_limit_pmorphism(t, 3)
        randoms += 1
    report(
        "criterion-3 lifting",
        f"{lifts} exhaustive lifts, {unique} uniqueness sweeps, "
        f"{randoms} random size-4 instances",
        started,
    )


def test_criterion_4_adjunction(posets_123):
    """check_adjunction verifies the lift/project bijection for all source
    and target posets of <= 3 elements at depth 2, with no
    counterexamples."""
    started = time.time()
    posets = [p for n in (1, 2, 3) for p in posets_123[n]]
    pairs = 0
    for p in posets:
        for q in posets:
            rep = check_adjunction(p, q, 2)
            assert rep.ok, rep.summary()
            assert rep.limit_pmorphisms == rep.monotone_maps
            pairs += 1
    report("criterion-4 adjunction", f"{pairs} poset pairs, all bijective", started)


def _bisim_structures(np_, nq, mask):
    pairs = []
    right_of = [0] * np_
    left_of = [0] * nq
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        m ^= low
        x, y = divmod(i, nq)
        pairs.append((x, y))
        right_of[x] |= 1 << y
        left_of[y] |= 1 << x
    return pairs, right_of, left_of


def _le_clauses_ok(p, q, pairs, right_of, left_of):
    for x, y in pairs:
        for x2 in iter_bits(p.up[x]):
            if not right_of[x2] & q.up[y]:
                return False
        for y2 in iter_bits(q.up[y]):
            if not left_of[y2] & p.up[x]:
                return False
    return True


def _rel_clauses_ok(pairs, right_of, left_of, rel1, rel2):
    for x, y in pairs:
        m1, m2 = rel1[x], rel2[y]
        mm = m1
        while mm:
            low = mm & -mm
            mm ^= low
            if not right_of[low.bit_length() - 1] & m2:
                return False
        mm = m2
        while mm:
            low = mm & -mm
            mm ^= low
            if not left_of[low.bit_length() - 1] & m1:
                return False
    return True


def _coord1_ok(p, q, pairs, right_of, left_of, rel1, rel2):
    for x, y in pairs:
        m1, m2 = rel1[x], rel2[y]
        px = 0
        mm = m1
        while mm:
            low = mm & -mm
            mm ^= low
            x2 = low.bit_length() - 1
            if right_of[x2] & m2:
                px |= low
        if p.up_close(px) != m1:
            return False
        py = 0
        mm = m2
        while mm:
            low = mm & -mm
            mm ^= low
            y2 = low.bit_length() - 1
            if left_of[y2] & m1:
                py |= low
        if q.up_close(py) != m2:
            return False
    return True


def test_criterion_5_bisimulation_theorem(posets_123, iso_frames):
    """Relational bisimulation iff the depth-2 coalgebraic check, over all
    relations between all frame pairs on <= 3-element posets (frames up to
    isomorphism). Relations whose projections fail the p-morphism
    condition are counted separately, as the coalgebraic side rejects them
    outright.

    The sweep uses the coordinate-1 form of the square. Given p-morphism
    projections that is no shortcut: both sides of the square are lift
    recursions determined by their base, so depth above 1 adds nothing
    (the naturality lemma in imcoalg.complexes), and the library check
    itself decides level 1 only. The library check is re-run on every
    instance over <= 2-element posets and on a stratified sample of the
    size-3 instances, and must agree; tests/test_bisim.py compares it
    with the lift of the relation poset to depth 4.
    """
    started = time.time()
    rng = random.Random(505)
    posets = [p for n in (1, 2, 3) for p in posets_123[n]]
    cases = proj_failures = bisims = genuine = 0
    for p in posets:
        frames1 = iso_frames[p]
        for q in posets:
            frames2 = iso_frames[q]
            exhaustive_small = p.n <= 2 and q.n <= 2
            n_rel = 1 << (p.n * q.n)
            for mask in range(n_rel):
                pairs, right_of, left_of = _bisim_structures(p.n, q.n, mask)
                le_ok = _le_clauses_ok(p, q, pairs, right_of, left_of)
                for f1 in frames1:
                    for f2 in frames2:
                        cases += 1
                        if not le_ok:
                            proj_failures += 1
                            if exhaustive_small or rng.random() < 0.0005:
                                genuine += 1
                                bis = Bisimulation.from_pairs(
                                    f1, f2, frozenset(pairs)
                                )
                                # order clauses fail, so it is no
                                # bisimulation, and the coalgebraic side
                                # refuses the projections
                                assert not is_box_bisimulation(bis)
                                with pytest.raises(ProjectionNotPMorphism):
                                    coalgebraic_bisim_check(bis, 2)
                            continue
                        rel_ok = _rel_clauses_ok(
                            pairs, right_of, left_of, f1.rel, f2.rel
                        )
                        coalg_ok = _coord1_ok(
                            p, q, pairs, right_of, left_of, f1.rel, f2.rel
                        )
                        assert rel_ok == coalg_ok
                        bisims += rel_ok
                        if exhaustive_small or (
                            rng.random() < (0.01 if rel_ok else 0.0005)
                        ):
                            genuine += 1
                            bis = Bisimulation.from_pairs(
                                f1, f2, frozenset(pairs)
                            )
                            assert is_box_bisimulation(bis) == rel_ok
                            assert coalgebraic_bisim_check(bis, 2) == coalg_ok
    report(
        "criterion-5 bisimulation theorem",
        f"{cases} relation instances, {bisims} bisimulations, "
        f"{proj_failures} projection failures (reported separately), "
        f"{genuine} via the library check, 0 discrepancies",
        started,
    )


def test_criterion_6_logic_soundness():
    """Both axiom schemes hold on 500 random mix-law models; truth sets are
    upsets on 1000 random formula/model pairs; breaking the mix law
    produces at least one persistence failure."""
    started = time.time()
    rng = random.Random(606)
    from tests.test_logic import random_formula

    box_pq = parse("[](p & q)")
    boxp_boxq = parse("[]p & []q")
    models = 0
    for _ in range(500):
        p = random_poset(rng, rng.randrange(2, 7))
        fr = random_mix_frame(rng, p)
        model = Model(
            fr, {"p": random_upset(rng, p), "q": random_upset(rng, p)}
        )
        assert truth_mask(model, iff(box_pq, boxp_boxq)) == p.full_mask
        assert truth_mask(model, iff(Box(Top()), Top())) == p.full_mask
        # the schemes quantify over formulas: spot-check an instantiation
        phi = random_formula(rng, ["p", "q"], 2)
        psi = random_formula(rng, ["p", "q"], 2)
        from imcoalg.logic import And

        lhs = Box(And(phi, psi))
        rhs = And(Box(phi), Box(psi))
        assert truth_mask(model, iff(lhs, rhs)) == p.full_mask
        models += 1
    persists = 0
    for _ in range(1000):
        p = random_poset(rng, rng.randrange(1, 7))
        fr = random_mix_frame(rng, p)
        model = Model(
            fr, {"p": random_upset(rng, p), "q": random_upset(rng, p)}
        )
        phi = random_formula(rng, ["p", "q"], rng.randrange(5))
        assert p.is_upset(truth_mask(model, phi))
        persists += 1
    broken_found = 0
    attempts = 0
    while broken_found == 0 and attempts < 500:
        attempts += 1
        p = random_poset(rng, rng.randrange(2, 6))
        fr = random_mix_frame(rng, p)
        pairs = fr.pairs()
        if not pairs:
            continue
        broken = ModalFrame.from_pairs(p, pairs[1:])
        if check_mix_law(broken):
            continue
        model = Model(broken, {"p": random_upset(rng, p)})
        for phi in enumerate_formulas(["p"], 2):
            if not p.is_upset(truth_mask(model, phi)):
                broken_found += 1
                break
    assert broken_found >= 1
    report(
        "criterion-6 logic soundness",
        f"{models} axiom models, {persists} persistence pairs, "
        f"{broken_found} mutation failure(s) found",
        started,
    )


def test_criterion_7_bisimulation_invariance():
    """On 50 random frame pairs with valuations compatible with the largest
    bisimulation, related points agree on every formula with at most 3
    connectives."""
    started = time.time()
    rng = random.Random(707)
    formulas = list(enumerate_formulas(["p"], 3))
    pairs_checked = 0
    point_pairs = 0
    for _ in range(50):
        p = random_poset(rng, rng.randrange(2, 6))
        q = random_poset(
            rng, rng.randrange(2, 6), labels=tuple(f"t{i}" for i in range(5))
        )
        f1 = random_mix_frame(rng, p)
        f2 = random_mix_frame(rng, q)
        bis = largest_bisimulation(f1, f2)
        lm, rm = saturated_valuation(
            bis, left_seed=rng.randrange(1 << p.n), right_seed=0
        )
        m1 = Model(f1, {"p": lm})
        m2 = Model(f2, {"p": rm})
        cache1, cache2 = {}, {}
        masks1 = [truth_mask(m1, phi, cache1) for phi in formulas]
        masks2 = [truth_mask(m2, phi, cache2) for phi in formulas]
        for x, y in bis.pairs:
            for t1, t2 in zip(masks1, masks2):
                assert (t1 >> x) & 1 == (t2 >> y) & 1
            point_pairs += 1
        pairs_checked += 1
    report(
        "criterion-7 bisimulation invariance",
        f"{pairs_checked} frame pairs, {point_pairs} related point pairs, "
        f"{len(formulas)} formulas each, 0 disagreements",
        started,
    )


def test_criterion_8_free_stage_structure():
    """Truncated layer sequences over the 1-point poset, the 2-chain and
    the one-generator poset: projections monotone, step relations
    upset-valued, universal lifts from hand-built frames pass the
    truncated p-morphism and step-condition checks, and stage sizes match
    the frozen golden values. The (2-chain, stages 2, inner depth 2) combo
    overflows by necessity and must abort cleanly."""
    started = time.time()
    bases = free_bases()
    built = {}
    for (name, stages, depth), sizes in GOLDEN_STAGE_SIZES.items():
        seq = build_free_stages(bases[name], stages, depth)
        assert [s.poset.n for s in seq] == sizes
        for stage in seq[1:]:
            rep = check_modal_stage_properties(stage)
            assert rep.ok, (name, stages, depth, rep.checks)
        built[(name, stages, depth)] = seq
    for name in ("chain2", "gen1"):
        with pytest.raises(CapExceeded):
            build_free_stages(bases[name], 2, 2)

    chain = bases["chain2"]
    hand_built = hand_built_lifts()
    lifted = 0
    for key, seed, frame in hand_built:
        assert is_pmorphism(seed)
        assert check_mix_law(frame)
        for stages, depth in ((2, 1), (1, 2)):
            base_key = (key, stages, depth)
            free = built.get(base_key)
            if free is None:
                free = build_free_stages(bases[key], stages, depth)
                built[base_key] = free
            maps = universal_lift(seed, frame, free_stages=free)
            for k, m in enumerate(maps):
                assert is_monotone(m)
                if k >= 1:
                    assert check_truncated_pmorphism(
                        free[k], m.assign, frame.poset
                    )
            lifted += 1
    # documented negative: for the reflexive-bottom chain frame the pairing
    # of the seed with the lifted tower genuinely fails the back condition
    # (also in the untruncated limit: the inner tower of the top point sits
    # above the image of the bottom point, but only the top point carries
    # it, with a different generator component)
    refl = reflexive_bottom_chain()
    free = built[("gen1", 1, 2)]
    maps = universal_lift(chain_to_gen(), refl, free_stages=free)
    assert is_monotone(maps[1])
    assert not check_truncated_pmorphism(free[1], maps[1].assign, chain)
    report(
        "criterion-8 free-stage structure",
        f"{len(GOLDEN_STAGE_SIZES)} golden stage sequences, "
        f"{lifted} universal lifts from {len(hand_built)} hand-built frames, "
        "1 documented back-condition counterexample",
        started,
    )


def test_criterion_9_neighbourhood_correspondence():
    """The neighbourhood morphism condition agrees with the coalgebra
    square, exhaustively for all monotone maps between all neighbourhood
    frames on carriers of <= 2 elements."""
    started = time.time()
    posets = all_posets(1) + all_posets(2)
    nbhd_frames = {p: all_nbhd_frames(p) for p in posets}
    cases = 0
    for p in posets:
        for q in posets:
            for f in monotone_maps(p, q):
                for nf1 in nbhd_frames[p]:
                    for nf2 in nbhd_frames[q]:
                        cond = nbhd_morphism_condition(f, nf1, nf2)
                        square = check_nbhd_coalgebra_morphism(
                            f, nf1, nf2, depth=1
                        )
                        assert cond == square
                        cases += 1
    report(
        "criterion-9 neighbourhood correspondence",
        f"{cases} (map, frame, frame) triples, 0 discrepancies",
        started,
    )


def _definable_equivalence(model):
    """Pairs of points that lie in exactly the same definable truth sets."""
    full = model.poset.full_mask
    rows = [full] * model.poset.n
    for t in definable_masks(model):
        rows = [
            row & (t if (t >> x) & 1 else full & ~t)
            for x, row in enumerate(rows)
        ]
    return frozenset(
        (x, y) for x, row in enumerate(rows) for y in iter_bits(row)
    )


def test_hennessy_milner_census(iso_frames):
    """Inside every one- and two-letter model on the frames of at most 3
    elements, two points are related by the greatest bisimulation that
    respects the valuation exactly when they satisfy the same formulas."""
    started = time.time()
    frames = [fr for frs in iso_frames.values() for fr in frs]
    assert len(frames) == 310
    models = {}
    merged = 0  # models in which some two distinct points are equivalent
    for letters in (("p",), ("p", "q")):
        count = 0
        for fr in frames:
            for vals in itertools.product(
                upset_masks(fr.poset), repeat=len(letters)
            ):
                model = Model(fr, dict(zip(letters, vals)))
                pairs = largest_model_bisimulation(model, model).pairs
                assert pairs == _definable_equivalence(model)
                merged += len(pairs) > fr.poset.n
                count += 1
        models[len(letters)] = count
    assert models == {1: 1922, 2: 12586}
    assert merged
    report(
        "Hennessy-Milner census",
        f"{models[1]} one-letter and {models[2]} two-letter models, "
        f"{merged} with distinct equivalent points, 0 mismatches",
        started,
    )
