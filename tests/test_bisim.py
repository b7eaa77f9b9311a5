import random
from collections import Counter

import pytest

from imcoalg import bisim, cli
from imcoalg.bisim import (
    Bisimulation,
    bisimilarity_preserves_truth,
    _disjoint_sum,
    coalgebraic_bisim_check,
    distinguishing_formula,
    is_box_bisimulation,
    largest_bisimulation,
    largest_model_bisimulation,
    saturated_valuation,
    search_distinguishing_formulas,
)
from imcoalg.config import Caps
from imcoalg.errors import (
    CapExceeded,
    IncompatibleValuations,
    MixLawViolation,
    ProjectionNotPMorphism,
    UndeclaredLetter,
    UnknownLabel,
)
from imcoalg.frames import ModalFrame, is_modal_pmorphism
from imcoalg import logic
from imcoalg.logic import Model, Var, enumerate_formulas, truth_mask
from imcoalg.poset import (
    Poset,
    PosetMap,
    make_poset,
    point_poset,
    upset_masks,
)
from imcoalg.enumeration import all_posets, frames_up_to_iso

from helpers import (
    chain2,
    failing_projection_by_pmorphism,
    frames_on,
    has_generators,
    iso_frames_up_to_three,
    mask_of,
    random_mix_frame,
    random_poset,
    relation,
    sampled_model_pairs,
    serial_chain_frame,
    shifted_chain_frame,
    small_frames,
    tower_bisim_check,
    valued_chain,
)
from oracles import (
    ENTRIES,
    check,
    distinguishing_formulas_by_stream,
    folded,
    index_bisim_check,
    nested_bisim_check,
    projection_outcome,
    unrelated_pairs,
)


def _height_classes(n, m, shift):
    """Rows of the relation between chains of n and m points (R[x] =
    up(x + shift)) that relates heights from the top with equal quotient
    by the shift: below the shift, the order alone cannot tell heights
    apart."""
    return tuple(
        sum(
            1 << y for y in range(m)
            if (n - 1 - x) // shift == (m - 1 - y) // shift
        )
        for x in range(n)
    )


class TestPartitionRefinementAgainstRows:
    test_seeded_pairs_of_frames_up_to_three_elements = folded(
        "largest_bisimulation:rows"
    )

    @pytest.mark.parametrize("shift", [1, 2])
    def test_chain_pairs(self, shift):
        check("largest_bisimulation:rows")
        for n in range(1, 11):
            for m in range(1, 11):
                bis = largest_bisimulation(
                    shifted_chain_frame(n, shift), shifted_chain_frame(m, shift)
                )
                assert bis.rows == _height_classes(n, m, shift)

    test_one_letter_census_models = folded("largest_model_bisimulation")


class TestChainsBeyondTheOracle:
    """At sizes the row refinement takes seconds to minutes on, the largest
    bisimulation between shifted chains still has a closed form."""

    @pytest.mark.parametrize("shift", [1, 2])
    @pytest.mark.parametrize("n, m", [(40, 41), (200, 201), (201, 200)])
    def test_relates_equal_height_classes(self, shift, n, m):
        bis = largest_bisimulation(
            shifted_chain_frame(n, shift), shifted_chain_frame(m, shift)
        )
        assert bis.rows == _height_classes(n, m, shift)
        assert is_box_bisimulation(bis)

    @pytest.mark.parametrize("n, m", [(200, 201), (400, 401)])
    def test_coalgebraic_check_at_scale(self, n, m):
        # the largest bisimulation passes; the height classes of shift 2
        # on chains of shift 1 have p-morphic projections but fail the
        # square
        f1, f2 = shifted_chain_frame(n, 1), shifted_chain_frame(m, 1)
        assert coalgebraic_bisim_check(largest_bisimulation(f1, f2), 2)
        coarse = Bisimulation(f1, f2, _height_classes(n, m, 2))
        assert not coalgebraic_bisim_check(coarse, 2)


class TestRowKernelAgainstOracle:
    test_largest_on_all_small_frame_pairs = folded("largest_bisimulation")
    test_largest_on_sampled_three_element_frames = folded(
        "largest_bisimulation"
    )

    @pytest.mark.parametrize("shift", [1, 2])
    def test_largest_on_chain_pairs(self, shift):
        check("largest_bisimulation")

    test_clause_check_on_every_small_relation = folded("is_box_bisimulation")


class TestClauseKernelsAgainstRefinement:
    """is_box_bisimulation, read as the order clauses (both projections are
    p-morphisms) and the modal clauses, against one refinement step that
    must remove no pair (helpers.refine_rows)."""


    test_every_relation_up_to_two_elements = folded(
        "is_box_bisimulation:refine"
    )
    test_seeded_relations_up_to_three_elements = folded(
        "is_box_bisimulation:refine"
    )


class TestRows:
    def test_round_trip_through_pairs(self):
        for f1 in small_frames():
            for f2 in small_frames():
                n, m = f1.poset.n, f2.poset.n
                for bits in range(1 << (n * m)):
                    pairs = frozenset(
                        (x, y) for x in range(n) for y in range(m)
                        if (bits >> (x * m + y)) & 1
                    )
                    bis = Bisimulation.from_pairs(f1, f2, pairs)
                    assert bis.pairs == pairs
                    assert Bisimulation(f1, f2, bis.rows) == bis
                    assert all(
                        bis.related(x, y) == ((x, y) in pairs)
                        for x in range(n)
                        for y in range(m)
                    )

    def test_full_and_label_built_relations(self):
        fr = serial_chain_frame()
        full = Bisimulation.full(fr, fr)
        assert full.rows == (3, 3)
        assert full.pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
        by_labels = Bisimulation.from_labels(
            fr, fr, [("b", "b"), ("a", "a"), ("a", "a")]
        )
        by_pairs = Bisimulation.from_pairs(fr, fr, [(0, 0), (1, 1)])
        assert by_labels == by_pairs == Bisimulation(fr, fr, (1, 2))
        assert hash(by_labels) == hash(by_pairs)
        assert by_labels != full
        assert by_labels.label_pairs() == [("a", "a"), ("b", "b")]

    def test_list_rows_are_stored_as_a_tuple(self):
        fr = serial_chain_frame()
        bis = Bisimulation(fr, fr, [1, 2])
        assert bis.rows == (1, 2) and isinstance(bis.rows, tuple)
        assert bis == Bisimulation(fr, fr, (1, 2))
        assert is_box_bisimulation(bis)
        assert not is_box_bisimulation(Bisimulation(fr, fr, [1, 0]))

    def test_wrong_row_count_rejected(self):
        fr = serial_chain_frame()
        point = ModalFrame(point_poset(), [0])
        with pytest.raises(UnknownLabel):
            Bisimulation(fr, point, [1])
        with pytest.raises(UnknownLabel):
            Bisimulation(point, fr, [1, 2])

    def test_row_outside_right_carrier_rejected(self):
        fr = serial_chain_frame()
        point = ModalFrame(point_poset(), [0])
        with pytest.raises(UnknownLabel):
            Bisimulation(fr, point, [1, 2])
        with pytest.raises(UnknownLabel):
            Bisimulation(fr, fr, [1, -1])

    def test_pair_out_of_range_rejected(self):
        fr = serial_chain_frame()
        point = ModalFrame(point_poset(), [0])
        for pair in ((2, 0), (0, 1), (-1, 0), (0, -1)):
            with pytest.raises(UnknownLabel):
                Bisimulation.from_pairs(fr, point, [pair])


class TestClauses:
    def test_identity_relation(self):
        fr = serial_chain_frame()
        bis = Bisimulation.from_labels(fr, fr, [("a", "a"), ("b", "b")])
        assert is_box_bisimulation(bis)

    def test_empty_relation(self):
        fr = serial_chain_frame()
        assert is_box_bisimulation(
            Bisimulation.from_pairs(fr, fr, frozenset())
        )

    def test_graph_of_modal_pmorphism(self):
        p = make_poset(["x", "y", "z"], [("x", "y"), ("x", "z")])
        fr = ModalFrame.from_pairs(p, [("x", "y"), ("y", "y"), ("z", "y")])
        one = point_poset("*")
        target = ModalFrame.from_pairs(one, [("*", "*")])
        f = PosetMap(p, one, [0, 0, 0])
        assert is_modal_pmorphism(f, fr, target)
        graph = Bisimulation.from_labels(
            fr, target, [(l, "*") for l in p.labels]
        )
        assert is_box_bisimulation(graph)

    def test_order_clause_violation(self):
        fr = serial_chain_frame()
        one = point_poset("*")
        target = ModalFrame.from_pairs(one, [("*", "*")])
        # relate only the bottom: the order-forth clause fails at a <= b
        bis = Bisimulation.from_labels(fr, target, [("a", "*")])
        assert not is_box_bisimulation(bis)


class TestLargest:
    def test_reflexive_point(self):
        one = point_poset("*")
        fr = ModalFrame.from_pairs(one, [("*", "*")])
        bis = largest_bisimulation(fr, fr)
        assert bis.pairs == frozenset({(0, 0)})

    def test_isomorphic_frames_contain_iso_graph(self):
        p = make_poset(["x", "y", "z"], [("x", "y")])
        q = make_poset(["u", "v", "w"], [("u", "v")])
        fp = ModalFrame.from_pairs(p, [("x", "y"), ("z", "y")])
        fq = ModalFrame.from_pairs(q, [("u", "v"), ("w", "v")])
        bis = largest_bisimulation(fp, fq)
        iso = {(0, 0), (1, 1), (2, 2)}
        assert iso <= bis.pairs

    def test_chain_no_rel_vs_reflexive_point(self):
        fr = ModalFrame.from_pairs(chain2(), [])
        one = point_poset("*")
        loop = ModalFrame.from_pairs(one, [("*", "*")])
        bis = largest_bisimulation(fr, loop)
        # the back clause for the modal relation deletes every pair
        assert bis.pairs == frozenset()

    def test_output_is_bisimulation_and_largest(self):
        for p in all_posets(2):
            frames = frames_on(p)
            for f1 in frames:
                for f2 in frames:
                    big = largest_bisimulation(f1, f2)
                    assert is_box_bisimulation(big)
                    n_pairs = p.n * p.n
                    for bits in range(1 << n_pairs):
                        pairs = frozenset(
                            (i // p.n, i % p.n)
                            for i in range(n_pairs)
                            if (bits >> i) & 1
                        )
                        bis = Bisimulation.from_pairs(f1, f2, pairs)
                        if is_box_bisimulation(bis):
                            assert pairs <= big.pairs

    def test_union_closure(self):
        rng = random.Random(5)
        for p in all_posets(2):
            frames = frames_on(p)
            for f1 in frames[::3]:
                for f2 in frames[::3]:
                    found = []
                    n_pairs = p.n * p.n
                    for bits in range(1 << n_pairs):
                        pairs = frozenset(
                            (i // p.n, i % p.n)
                            for i in range(n_pairs)
                            if (bits >> i) & 1
                        )
                        bis = Bisimulation.from_pairs(f1, f2, pairs)
                        if is_box_bisimulation(bis):
                            found.append(pairs)
                    for _ in range(20):
                        a = rng.choice(found)
                        b = rng.choice(found)
                        assert is_box_bisimulation(
                            Bisimulation.from_pairs(f1, f2, a | b)
                        )


class TestPairRowsAgainstOracle:
    test_compatibility_every_relation_and_valuation = folded(
        "bisim._compatible"
    )
    test_saturated_valuation_every_relation_and_seed = folded(
        "saturated_valuation"
    )


def _assert_projections_match(bis):
    got = bisim._failing_projection(bis)
    assert got == failing_projection_by_pmorphism(bis)
    return got


class TestProjectionsAgainstIsPmorphism:
    test_every_relation_up_to_two_elements = folded(
        "bisim._failing_projection"
    )
    test_sampled_three_element_frames = folded("bisim._failing_projection")

    def test_chains_without_successors(self):
        # every pair of two 12-chains is bisimilar; dropping the pair of
        # tops starves the left projection at (top, y) for y below the top
        chain = ModalFrame.from_pairs(
            make_poset(range(12), [(i, i + 1) for i in range(11)]), []
        )
        full = Bisimulation.full(chain, chain)
        assert _assert_projections_match(full) is None
        pairs = full.pairs - {(11, 11)}
        cut = Bisimulation.from_pairs(chain, chain, pairs)
        assert _assert_projections_match(cut) == "left"


class TestMaskRouteOracle:
    """coalgebraic_bisim_check on upset masks agrees with the index route
    over Up of the relation poset, including which projection it refuses."""

    test_exhaustive_small = folded("coalgebraic_bisim_check")

    def test_sample_of_frames_up_to_iso(self):
        frames = [
            fr
            for n in (1, 2, 3)
            for p in all_posets(n)
            for fr in frames_up_to_iso(p)
        ]
        rng = random.Random(505)
        seen = set()
        for _ in range(400):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            if rng.random() < 0.5:
                bis = largest_bisimulation(f1, f2)
            else:
                bits = rng.randrange(1 << (f1.poset.n * f2.poset.n))
                bis = relation(f1, f2, bits)
            for depth in (1, 2, 3):
                got = projection_outcome(coalgebraic_bisim_check, bis, depth)
                assert got == projection_outcome(index_bisim_check, bis, depth)
                seen.add(got)
        assert {True, False} <= seen

    def test_largest_and_seeded_sub_relations(self):
        # the largest bisimulation of seeded pairs of the 310 frames and
        # two seeded sub-relations of it, at depths 1-3, against the
        # nested-value and the index routes
        frames = iso_frames_up_to_three()
        rng = random.Random(1414)
        seen = Counter()
        for _ in range(1000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            largest = largest_bisimulation(f1, f2)
            bits = f2.poset.n
            subs = [
                Bisimulation(
                    f1, f2, [r & rng.getrandbits(bits) for r in largest.rows]
                )
                for _ in range(2)
            ]
            for bis in [largest] + subs:
                for depth in (1, 2, 3):
                    got = projection_outcome(coalgebraic_bisim_check, bis, depth)
                    assert got == projection_outcome(nested_bisim_check, bis, depth)
                    assert got == projection_outcome(index_bisim_check, bis, depth)
                    seen[got] += 1
        sides = {"projection left", "projection right"}
        assert set(seen) == {True, False} | sides

    def test_mix_law_violation_raises(self):
        p = make_poset(["a", "b"], [("a", "b")])
        for pairs in ([("a", "a")], [("b", "b")]):
            fr = ModalFrame.from_pairs(p, pairs)
            bis = Bisimulation.from_labels(fr, fr, [("a", "a"), ("b", "b")])
            with pytest.raises(MixLawViolation):
                coalgebraic_bisim_check(bis, 2)


class TestLevelOneAgainstTowers:
    """coalgebraic_bisim_check, decided at level 1, against the route that
    builds the relation poset and compares every level up to the depth
    (helpers.tower_bisim_check), including which projection it refuses."""


    test_every_relation_up_to_two_elements = folded(
        "coalgebraic_bisim_check:towers"
    )
    test_seeded_relations_up_to_three_elements = folded(
        "coalgebraic_bisim_check:towers"
    )

    def test_full_relation_between_bare_120_chains(self):
        # 14 400 pairs: the relation poset the tower route builds has
        # quadratic order rows in them
        chain = shifted_chain_frame(120, 120)
        assert coalgebraic_bisim_check(Bisimulation.full(chain, chain), 2)

    def test_right_mix_law_is_checked_after_a_failing_left_square(self):
        # x's only modal successor, x, is related to no modal successor of
        # b, so the left square fails in both cases; the right frame's mix
        # law is still checked before any square is compared
        point = ModalFrame.from_pairs(make_poset(["x"], []), [("x", "x")])
        q = chain2()
        lawful = ModalFrame.from_pairs(q, [])
        broken = ModalFrame.from_pairs(q, [("b", "a")])
        assert broken.mix_witness is not None
        for check in (coalgebraic_bisim_check, tower_bisim_check):
            lawful_bis = Bisimulation.from_labels(point, lawful, [("x", "b")])
            assert not check(lawful_bis, 2)
            broken_bis = Bisimulation.from_labels(point, broken, [("x", "b")])
            with pytest.raises(MixLawViolation):
                check(broken_bis, 2)


class TestCoalgebraic:
    def test_identity_bisim_all_depths(self):
        fr = serial_chain_frame()
        bis = Bisimulation.from_labels(fr, fr, [("a", "a"), ("b", "b")])
        for depth in (1, 2, 3):
            assert coalgebraic_bisim_check(bis, depth)

    def test_largest_on_small_frames(self):
        for p in all_posets(2):
            for f1 in frames_on(p)[::2]:
                for f2 in frames_on(p)[::2]:
                    bis = largest_bisimulation(f1, f2)
                    assert coalgebraic_bisim_check(bis, 2)

    def test_rel_clause_failure_detected(self):
        fr = serial_chain_frame()
        empty = ModalFrame.from_pairs(chain2(), [])
        # full relation satisfies the order clauses but breaks the modal back
        bis = Bisimulation.full(fr, empty)
        assert not is_box_bisimulation(bis)
        assert not coalgebraic_bisim_check(bis, 1)

    def test_projection_not_pmorphism_raises(self):
        fr = serial_chain_frame()
        bis = Bisimulation.from_labels(fr, fr, [("a", "a")])
        with pytest.raises(ProjectionNotPMorphism) as err:
            coalgebraic_bisim_check(bis, 1)
        assert err.value.side == "left"
        assert str(err.value) == "left projection is not a p-morphism"


class TestVerdictHeldByTheRelation:
    """A relation decides its clauses once (Bisimulation.verdict), and
    both checks read that verdict."""

    def test_bisim_runs_each_clause_kernel_once(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = Counter()
        kernels = {
            "_failing_projection": bisim._failing_projection,
            "_modal_clauses": bisim._modal_clauses,
        }
        for name, kernel in kernels.items():

            def counted(bis, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(bis)

            monkeypatch.setattr(bisim, name, counted)
        left = tmp_path / "left.frame"
        left.write_text("[elements]\na b c\n[order]\na < b\nb < c\n"
                        "[modal]\na R b\na R c\nb R c\n")
        right = tmp_path / "right.frame"
        right.write_text("[elements]\nd e\n[order]\nd < e\n"
                         "[modal]\nd R e\n")
        assert cli.main(["bisim", str(left), str(right)]) == 0
        assert "coalgebraic-agreement" in capsys.readouterr().out
        assert calls == {"_failing_projection": 1, "_modal_clauses": 1}

    def test_held_fields_leave_equality_hash_and_repr(self):
        fr = shifted_chain_frame(4, 1)
        read = largest_bisimulation(fr, fr)
        fresh = Bisimulation(fr, fr, read.rows)
        text = repr(fresh)
        # the chain is bisimilar only to itself: the identity, its own
        # converse
        assert read.verdict is True and read.cols == tuple(read.rows)
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert repr(read) == text == repr(fresh)
        assert "verdict" not in text and "cols" not in text

        # a frame holding its converse rows and its mix-law witness
        fresh = ModalFrame(fr.poset, fr.rel)
        text = repr(fresh)
        assert fr.pre and fr.mix_witness is None
        assert {"pre", "mix_witness"} <= vars(fr).keys()
        assert not {"pre", "mix_witness"} & vars(fresh).keys()
        assert fr == fresh and fresh == fr
        assert hash(fr) == hash(fresh)
        assert repr(fr) == text == repr(fresh)

        # a poset holding the down rows and generating rows make_poset
        # handed over, and its label index, against one given its up rows
        made = make_poset("abc", [("a", "b"), ("b", "c")])
        fresh = Poset(made.labels, made.up)
        text = repr(fresh)
        assert made.generating_rows != fresh.up
        assert {"down", "generating_rows", "label_index"} <= vars(made).keys()
        assert not {"down", "generating_rows"} & vars(fresh).keys()
        assert made == fresh and fresh == made
        assert hash(made) == hash(fresh)
        assert repr(made) == text == repr(fresh)

    # the relations whose posets have generating rows other than their up
    # rows, with the tally of their verdicts: all four occur
    @pytest.mark.parametrize("name, tally", [
        ("bisim._failing_projection",
         {True: 642, False: 490, "left": 573, "right": 295}),
        ("bisim._failing_projection:upsets",
         {True: 5175, False: 721, "left": 14878, "right": 4893}),
        ("is_box_bisimulation",
         {True: 201, False: 154, "left": 150, "right": 95}),
        ("coalgebraic_bisim_check",
         {True: 201, False: 154, "left": 150, "right": 95}),
    ])
    def test_entries_reach_generating_rows(self, name, tally):
        verdicts = Counter(
            args[0].verdict for args in ENTRIES[name].instances()
            if has_generators(args[0])
        )
        assert verdicts == tally


class TestTruthPreservation:
    def test_identity_agreement(self):
        fr = serial_chain_frame()
        bis = largest_bisimulation(fr, fr)
        lm, rm = saturated_valuation(bis, left_seed=1 << 1)
        model1 = Model(fr, {"p": lm})
        model2 = Model(fr, {"p": rm})
        formulas = list(enumerate_formulas(["p"], 2))
        assert bisimilarity_preserves_truth(model1, "a", model2, "a", formulas)

    def test_unrelated_points_rejected(self):
        fr = ModalFrame.from_pairs(chain2(), [])
        one = point_poset("*")
        loop = ModalFrame.from_pairs(one, [("*", "*")])
        m1 = Model(fr, {})
        m2 = Model(loop, {})
        with pytest.raises(IncompatibleValuations):
            bisimilarity_preserves_truth(m1, "a", m2, "*", [])

    def test_incompatible_valuations_rejected(self):
        fr = serial_chain_frame()
        m1 = Model(fr, {"p": mask_of(fr.poset, ["b"])})
        m2 = Model(fr, {"p": mask_of(fr.poset, [])})
        # b ~ b but p holds only on one side
        with pytest.raises(IncompatibleValuations):
            bisimilarity_preserves_truth(m1, "b", m2, "b", [])

    def test_isomorphic_random_agreement(self):
        rng = random.Random(12)
        formulas = list(enumerate_formulas(["p"], 2))
        for _ in range(30):
            p = random_poset(rng, rng.randrange(2, 5))
            fr = random_mix_frame(rng, p)
            bis = largest_bisimulation(fr, fr)
            seed = rng.randrange(1 << p.n)
            lm, rm = saturated_valuation(bis, left_seed=seed)
            m1 = Model(fr, {"p": lm})
            m2 = Model(fr, {"p": rm})
            for x in p.labels:
                assert bisimilarity_preserves_truth(m1, x, m2, x, formulas)

    def test_distinguishing_formula_exists(self):
        p = chain2()
        fr1 = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
        fr2 = ModalFrame.from_pairs(p, [])
        m1 = Model(fr1, {"p": mask_of(p, ["b"])})
        m2 = Model(fr2, {"p": mask_of(p, ["b"])})
        bis = largest_bisimulation(fr1, fr2)
        formulas = list(enumerate_formulas(["p"], 3))
        for x in range(p.n):
            for y in range(p.n):
                if (x, y) not in bis.pairs:
                    phi = distinguishing_formula(
                        m1, p.labels[x], m2, p.labels[y], formulas
                    )
                    assert phi is not None


class TestDistinguishingBatchAgainstOracle:
    test_all_small_frame_pairs_and_valuations = folded(
        "distinguishing_formula"
    )
    test_sampled_three_element_frames = folded("distinguishing_formula")
    test_chains_at_depth_three = folded("distinguishing_formula")

    def test_stream_is_read_only_until_every_pair_is_found(self):
        m1, m2 = valued_chain(3), valued_chain(4)
        for x, y in unrelated_pairs(m1, m2):
            stream = enumerate_formulas(["p"], 3)
            phi = distinguishing_formula(
                m1, m1.poset.labels[x], m2, m2.poset.labels[y], stream
            )
            assert phi is not None
            assert next(stream, None) is not None  # found early

    def test_truth_is_invariant_under_the_disjoint_sum(self):
        formulas = list(enumerate_formulas(["p"], 3))
        for m1, m2 in sampled_model_pairs(25):
            total = _disjoint_sum(m1, m2)
            n = m1.poset.n
            caches = {}, {}, {}
            for phi in formulas:
                lt = truth_mask(m1, phi, caches[0])
                rt = truth_mask(m2, phi, caches[1])
                assert truth_mask(total, phi, caches[2]) == lt | rt << n

    def test_letter_valued_on_one_side_is_undeclared(self):
        fr = serial_chain_frame()
        m1 = Model(fr, {"p": 0b10, "q": 0b10})
        m2 = Model(fr, {"p": 0b10})
        for left, right in ((m1, m2), (m2, m1)):
            with pytest.raises(UndeclaredLetter):
                distinguishing_formula(left, "a", right, "a", [Var("q")])
        # the shared letter separates a from b before q is reached
        assert distinguishing_formula(
            m1, "a", m2, "b", [Var("p"), Var("q")]
        ) == Var("p")

    test_agreement_on_bisimilar_pairs = folded("bisimilarity_preserves_truth")


# -- the truth-set search, checked against the streaming search ---------------


def _assert_search_matches_stream(m1, m2, letters, depth, formulas=None):
    pairs = unrelated_pairs(m1, m2)
    if formulas is None:
        formulas = enumerate_formulas(letters, depth)
    want = distinguishing_formulas_by_stream(m1, m2, pairs, formulas)
    got = search_distinguishing_formulas(m1, m2, pairs, letters, depth)
    assert list(got) == pairs
    assert got == want


class TestTruthSetSearchAgainstStream:
    def test_all_small_frame_pairs_and_valuations(self):
        streams = [list(enumerate_formulas(["p"], d)) for d in range(4)]
        frames = small_frames()
        assert len(frames) == 24
        for f1 in frames:
            for f2 in frames:
                for v1 in upset_masks(f1.poset):
                    for v2 in upset_masks(f2.poset):
                        m1, m2 = Model(f1, {"p": v1}), Model(f2, {"p": v2})
                        for depth, formulas in enumerate(streams):
                            _assert_search_matches_stream(
                                m1, m2, ["p"], depth, formulas
                            )

    @pytest.mark.parametrize("letters", [["p"], ["p", "q"]])
    def test_sampled_three_element_frames(self, letters):
        streams = [list(enumerate_formulas(letters, d)) for d in range(3)]
        for m1, m2 in sampled_model_pairs(1000, letters=letters):
            for depth, formulas in enumerate(streams):
                _assert_search_matches_stream(m1, m2, letters, depth, formulas)

    def test_chains(self):
        formulas = list(enumerate_formulas(["p"], 3))
        for n in range(1, 9):
            _assert_search_matches_stream(
                valued_chain(n), valued_chain(n + 1), ["p"], 3, formulas
            )
        # 373 803 formulas, streamed rather than listed
        _assert_search_matches_stream(valued_chain(7), valued_chain(8), ["p"], 4)

    def test_no_pairs_evaluates_nothing(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a truth set was evaluated")

        for name in ("truth_mask", "box_mask", "impl_mask"):
            monkeypatch.setattr(logic, name, evaluated)
        m1, m2 = valued_chain(3), valued_chain(4)
        # "q" is valued on neither side and would raise if it were read
        got = search_distinguishing_formulas(m1, m2, [], ["p", "q"], 10**6)
        assert got == {}

    def test_large_depth_ends_at_the_definable_truth_sets(self):
        m1, m2 = valued_chain(12), valued_chain(13)
        unrelated = unrelated_pairs(m1, m2)
        # bisimilar points agree on every formula, so these stay pending
        # until the search has met every definable truth set
        related = sorted(largest_bisimulation(m1.frame, m2.frame).pairs)
        pairs = unrelated + related
        assert len(logic.definable_masks(_disjoint_sum(m1, m2))) == 14
        # all 14 are met within 404 connective applications, closure
        # included; running on until a depth builds nothing would take 602
        found = search_distinguishing_formulas(
            m1, m2, pairs, ["p"], 10**6, Caps(max_formulas=404)
        )
        assert all(found[pair] is not None for pair in unrelated)
        assert all(found[pair] is None for pair in related)
        assert search_distinguishing_formulas(m1, m2, pairs, ["p"], 13) == found
        with pytest.raises(CapExceeded, match="exceed cap 403"):
            search_distinguishing_formulas(
                m1, m2, pairs, ["p"], 10**6, Caps(max_formulas=403)
            )

    def test_letter_valued_on_one_side_is_undeclared(self):
        fr = serial_chain_frame()
        m1 = Model(fr, {"p": 0b10, "q": 0b10})
        m2 = Model(fr, {"p": 0b10})
        for left, right in ((m1, m2), (m2, m1)):
            with pytest.raises(UndeclaredLetter):
                search_distinguishing_formulas(left, right, [(0, 0)], ["q"], 1)


# -- bisimulations that respect the valuations --------------------------------


class TestLargestModelBisimulation:
    def test_against_every_relation_on_small_frames(self):
        frames = small_frames()
        for f1 in frames:
            for f2 in frames:
                n, m = f1.poset.n, f2.poset.n
                relations = []
                for bits in range(1 << (n * m)):
                    rel = frozenset(
                        (x, y) for x in range(n) for y in range(m)
                        if (bits >> (x * m + y)) & 1
                    )
                    bis = Bisimulation.from_pairs(f1, f2, rel)
                    if is_box_bisimulation(bis):
                        relations.append(rel)
                for v1 in upset_masks(f1.poset):
                    for v2 in upset_masks(f2.poset):
                        m1, m2 = Model(f1, {"p": v1}), Model(f2, {"p": v2})
                        want = frozenset().union(*(
                            rel for rel in relations
                            if all((v1 >> x) & 1 == (v2 >> y) & 1
                                   for x, y in rel)
                        ))
                        assert largest_model_bisimulation(m1, m2).pairs == want

    def test_no_shared_letter_is_the_frame_bisimulation(self):
        for m1, m2 in sampled_model_pairs(200, seed=5):
            m2 = Model(m2.frame, {"q": m2.valuation["p"]})
            assert largest_model_bisimulation(m1, m2) == largest_bisimulation(
                m1.frame, m2.frame
            )


class TestCoalgebraicDepthBelowOne:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_raises_before_any_other_check(self, depth):
        # used to pass vacuously; the projection and mix-law failures that
        # would otherwise be raised lose to the depth
        fr = serial_chain_frame()
        p = make_poset(["a", "b"], [("a", "b")])
        bad = ModalFrame.from_pairs(p, [("a", "a")])
        cases = [
            largest_bisimulation(fr, fr),
            Bisimulation.from_labels(fr, fr, [("a", "a")]),
            Bisimulation.from_labels(bad, bad, [("a", "a"), ("b", "b")]),
        ]
        for bis in cases:
            with pytest.raises(ValueError, match="depth must be >= 1"):
                coalgebraic_bisim_check(bis, depth)


class TestCoalgebraicDepthCap:
    def test_depth_above_cap_raises_before_lifting(self):
        fr = serial_chain_frame()
        bis = largest_bisimulation(fr, fr)
        for depth in (5, 1200):
            with pytest.raises(CapExceeded, match=f"depth {depth} exceeds cap 4"):
                coalgebraic_bisim_check(bis, depth)
        assert coalgebraic_bisim_check(bis, 4)
        assert coalgebraic_bisim_check(bis, 5, Caps(max_depth=5))
