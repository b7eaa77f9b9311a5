import itertools
import random
from collections import Counter

import pytest

from imcoalg import bisim
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
from imcoalg.complexes import tower_coords
from imcoalg.errors import (
    CapExceeded,
    IncompatibleValuations,
    MixLawViolation,
    ProjectionNotPMorphism,
    UndeclaredLetter,
    UnknownLabel,
)
from imcoalg.frames import (
    ModalFrame,
    frame_to_lifted,
    frame_to_upmap,
    is_modal_pmorphism,
)
from imcoalg.heyting import up_functor, up_functor_map
from imcoalg import logic
from imcoalg.logic import Model, Var, enumerate_formulas, truth_mask
from imcoalg.poset import (
    PosetMap,
    iter_bits,
    make_poset,
    point_poset,
    upset_masks,
)
from imcoalg.enumeration import all_posets, frames_up_to_iso

from helpers import (
    failing_projection_by_pmorphism,
    first_disagreement,
    frames_on,
    labellings,
    mask_of,
    nested_image,
    pmorphic_relation_poset,
    posets_up_to,
    random_mix_frame,
    random_poset,
    random_upset,
    refine_rows,
    rho_by_pairs,
    tower_bisim_check,
)


def chain2():
    return make_poset(["a", "b"], [("a", "b")])


def shifted_chain_frame(n, shift):
    """Chain 0 < ... < n-1 with R[x] = up(x + shift), empty past the top."""
    p = make_poset(list(range(n)), [(i, i + 1) for i in range(n - 1)])
    return ModalFrame(p, [p.up[x + shift] if x + shift < n else 0 for x in range(n)])


# -- the pair-at-a-time fixpoint, kept as the oracle for the refinement -----


def _oracle_clause_violation(bis):
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


def _oracle_largest_bisimulation(left, right):
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


def _iso_frames_up_to_three():
    """The 310 frames on posets of at most 3 elements, up to isomorphism."""
    frames = [
        f for n in (1, 2, 3) for p in all_posets(n) for f in frames_up_to_iso(p)
    ]
    assert len(frames) == 310
    return frames


def _small_frames():
    return [f for n in (1, 2) for p in all_posets(n) for f in frames_on(p)]


# -- the row refinement, kept as the oracle for the partition refinement ----


def _largest_within(left, right, rows):
    """Apply the refinement step (helpers.refine_rows) to rows until
    nothing changes:
    the largest bisimulation contained in the starting relation.

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
    return _largest_within(left, right, [right.poset.full_mask] * left.poset.n)


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
    return _largest_within(model_left.frame, model_right.frame, rows)


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
    def test_seeded_pairs_of_frames_up_to_three_elements(self):
        frames = _iso_frames_up_to_three()
        rng = random.Random(2024)
        for _ in range(10000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            assert (
                largest_bisimulation(f1, f2)
                == largest_bisimulation_by_rows(f1, f2)
            )

    @pytest.mark.parametrize("shift", [1, 2])
    def test_chain_pairs(self, shift):
        for n in range(1, 11):
            for m in range(1, 11):
                f1 = shifted_chain_frame(n, shift)
                f2 = shifted_chain_frame(m, shift)
                want = largest_bisimulation_by_rows(f1, f2)
                assert largest_bisimulation(f1, f2) == want
                assert want.rows == _height_classes(n, m, shift)

    def test_one_letter_census_models(self):
        # every one-letter model on the frames of at most 3 elements against
        # itself, and seeded pairs of them
        models = [
            Model(f, {"p": v})
            for f in _iso_frames_up_to_three()
            for v in upset_masks(f.poset)
        ]
        assert len(models) == 1922
        rng = random.Random(13)
        pairs = [(m, m) for m in models] + [
            (rng.choice(models), rng.choice(models)) for _ in range(3000)
        ]
        for m1, m2 in pairs:
            assert largest_model_bisimulation(
                m1, m2
            ) == largest_model_bisimulation_by_rows(m1, m2)


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
    def test_largest_on_all_small_frame_pairs(self):
        frames = _small_frames()
        for f1 in frames:
            for f2 in frames:
                assert (
                    largest_bisimulation(f1, f2).pairs
                    == _oracle_largest_bisimulation(f1, f2).pairs
                )

    def test_largest_on_sampled_three_element_frames(self):
        frames = _iso_frames_up_to_three()
        rng = random.Random(2406)
        for _ in range(2000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            assert (
                largest_bisimulation(f1, f2).pairs
                == _oracle_largest_bisimulation(f1, f2).pairs
            )

    @pytest.mark.parametrize("shift", [1, 2])
    def test_largest_on_chain_pairs(self, shift):
        for n in range(1, 11):
            for m in range(1, 11):
                f1 = shifted_chain_frame(n, shift)
                f2 = shifted_chain_frame(m, shift)
                assert (
                    largest_bisimulation(f1, f2).pairs
                    == _oracle_largest_bisimulation(f1, f2).pairs
                )

    def test_clause_check_on_every_small_relation(self):
        frames = _small_frames()
        for f1 in frames:
            for f2 in frames:
                cells = [
                    (x, y) for x in range(f1.poset.n) for y in range(f2.poset.n)
                ]
                for bits in range(1 << len(cells)):
                    pairs = frozenset(
                        c for i, c in enumerate(cells) if (bits >> i) & 1
                    )
                    bis = Bisimulation.from_pairs(f1, f2, pairs)
                    assert is_box_bisimulation(bis) == (
                        _oracle_clause_violation(bis) is None
                    )


class TestClauseKernelsAgainstRefinement:
    """is_box_bisimulation, read as the order clauses (both projections are
    p-morphisms) and the modal clauses, against one refinement step that
    must remove no pair (helpers.refine_rows)."""

    @staticmethod
    def _compare(bis, seen):
        got = is_box_bisimulation(bis)
        assert got == (refine_rows(bis.left, bis.right, bis.rows) == bis.rows)
        seen[got] += 1

    def test_every_relation_up_to_two_elements(self):
        # every relation R, mix law or not, on every labelling of the
        # posets of at most two elements, and every relation between two
        # such frames
        frames = [
            ModalFrame(q, [bits >> (x * q.n) & q.full_mask for x in range(q.n)])
            for p in posets_up_to(2)
            for q in labellings(p)
            for bits in range(1 << (q.n * q.n))
        ]
        assert len(frames) == 50
        seen = Counter()
        for f1 in frames:
            for f2 in frames:
                for bits in range(1 << (f1.poset.n * f2.poset.n)):
                    self._compare(_relation(f1, f2, bits), seen)
        assert sum(seen.values()) == 37640
        assert seen[True] == 5700

    def test_seeded_relations_up_to_three_elements(self):
        frames = _iso_frames_up_to_three()
        rng = random.Random(2707)
        seen = Counter()
        for _ in range(40_000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            bits = rng.getrandbits(f1.poset.n * f2.poset.n)
            self._compare(_relation(f1, f2, bits), seen)
        assert set(seen) == {True, False}


def serial_chain_frame():
    return ModalFrame.from_pairs(chain2(), [("a", "b"), ("b", "b")])


class TestRows:
    def test_round_trip_through_pairs(self):
        for f1 in _small_frames():
            for f2 in _small_frames():
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


# -- the index route over Up of the relation poset: the oracle -------------


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


class TestPairRowsAgainstOracle:
    def test_compatibility_every_relation_and_valuation(self):
        seen = set()
        for f1 in _small_frames():
            for f2 in _small_frames():
                for bits in range(1 << (f1.poset.n * f2.poset.n)):
                    bis = _relation(f1, f2, bits)
                    for v1 in upset_masks(f1.poset):
                        for v2 in upset_masks(f2.poset):
                            m1 = Model(f1, {"p": v1})
                            m2 = Model(f2, {"p": v2})
                            got = bisim._compatible(bis, m1, m2)
                            assert got == compatible_by_pairs(bis, m1, m2)
                            seen.add(got)
        assert seen == {True, False}
        fr = serial_chain_frame()
        one_sided = Model(fr, {"p": 2, "q": 2}), Model(fr, {"p": 2})
        assert not bisim._compatible(Bisimulation.full(fr, fr), *one_sided)

    def test_saturated_valuation_every_relation_and_seed(self):
        for f1 in _small_frames():
            for f2 in _small_frames():
                n, m = f1.poset.n, f2.poset.n
                for bits in range(1 << (n * m)):
                    bis = _relation(f1, f2, bits)
                    for ls in range(1 << n):
                        for rs in range(1 << m):
                            assert saturated_valuation(bis, ls, rs) == (
                                saturated_valuation_by_pairs(bis, ls, rs)
                            )


def _outcome(check, bis, depth):
    try:
        return check(bis, depth)
    except ProjectionNotPMorphism as exc:
        return f"projection {exc.side}"


def _relation(f1, f2, bits):
    pairs = frozenset(
        (x, y)
        for x in range(f1.poset.n)
        for y in range(f2.poset.n)
        if (bits >> (x * f2.poset.n + y)) & 1
    )
    return Bisimulation.from_pairs(f1, f2, pairs)


def _assert_projections_match(bis):
    got = bisim._failing_projection(bis)
    assert got == failing_projection_by_pmorphism(bis)
    return got


class TestProjectionsAgainstIsPmorphism:
    def test_every_relation_up_to_two_elements(self):
        seen = set()
        for f1 in _small_frames():
            for f2 in _small_frames():
                for bits in range(1 << (f1.poset.n * f2.poset.n)):
                    seen.add(_assert_projections_match(_relation(f1, f2, bits)))
        assert seen == {None, "left", "right"}

    def test_sampled_three_element_frames(self):
        frames = [
            fr
            for n in (1, 2, 3)
            for p in all_posets(n)
            for fr in frames_up_to_iso(p)
        ]
        rng = random.Random(2210)
        seen = set()
        for _ in range(2000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            bits = rng.getrandbits(f1.poset.n * f2.poset.n)
            seen.add(_assert_projections_match(_relation(f1, f2, bits)))
            largest = largest_bisimulation(f1, f2)
            assert _assert_projections_match(largest) is None
        assert seen == {None, "left", "right"}

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

    def test_exhaustive_small(self):
        posets = all_posets(1) + all_posets(2)
        seen = set()
        for p in posets:
            for q in posets:
                for f1 in frames_on(p):
                    for f2 in frames_on(q):
                        for bits in range(1 << (p.n * q.n)):
                            bis = _relation(f1, f2, bits)
                            got = _outcome(coalgebraic_bisim_check, bis, 2)
                            assert got == _outcome(index_bisim_check, bis, 2)
                            seen.add(got)
        assert seen == {True, False, "projection left", "projection right"}

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
                bis = _relation(f1, f2, bits)
            for depth in (1, 2, 3):
                got = _outcome(coalgebraic_bisim_check, bis, depth)
                assert got == _outcome(index_bisim_check, bis, depth)
                seen.add(got)
        assert {True, False} <= seen

    def test_largest_and_seeded_sub_relations(self):
        # the largest bisimulation of seeded pairs of the 310 frames and
        # two seeded sub-relations of it, at depths 1-3, against the
        # nested-value and the index routes
        frames = _iso_frames_up_to_three()
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
                    got = _outcome(coalgebraic_bisim_check, bis, depth)
                    assert got == _outcome(nested_bisim_check, bis, depth)
                    assert got == _outcome(index_bisim_check, bis, depth)
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

    @staticmethod
    def _compare(bis, seen):
        for depth in (1, 2, 3, 4):
            got = _outcome(coalgebraic_bisim_check, bis, depth)
            assert got == _outcome(tower_bisim_check, bis, depth)
            seen[got] += 1

    def test_every_relation_up_to_two_elements(self):
        # the 18 frames on at most 2 elements, up to isomorphism
        frames = [
            f for n in (1, 2) for p in all_posets(n) for f in frames_up_to_iso(p)
        ]
        seen = Counter()
        relations = 0
        for f1 in frames:
            for f2 in frames:
                for bits in range(1 << (f1.poset.n * f2.poset.n)):
                    self._compare(_relation(f1, f2, bits), seen)
                    relations += 1
        assert relations == 4360
        assert set(seen) == {True, False, "projection left", "projection right"}
        assert (seen[True] + seen[False]) // 4 == 3244

    def test_seeded_relations_up_to_three_elements(self):
        frames = _iso_frames_up_to_three()
        rng = random.Random(2606)
        seen = Counter()
        for _ in range(40_000):
            f1, f2 = rng.choice(frames), rng.choice(frames)
            bits = rng.getrandbits(f1.poset.n * f2.poset.n)
            self._compare(_relation(f1, f2, bits), seen)
        assert set(seen) == {True, False, "projection left", "projection right"}

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


# -- the streaming batch search, kept as the oracle for the truth-set search --


def distinguishing_formulas_by_stream(model_left, model_right, pairs, formulas):
    """Per index pair (x, y), the first formula in the stream on which point
    x of the left model and point y of the right model disagree, or None.

    Each formula is evaluated once on the disjoint sum, for all pairs at
    once, and only when its truth set is new there; one mask of pending
    partners is kept per left point, and the stream is read only until
    every pair has its formula.
    """
    model = _disjoint_sum(model_left, model_right)
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


def _oracle_agreement(model_left, x, model_right, y, formulas):
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


def _unrelated(m1, m2):
    bis = largest_bisimulation(m1.frame, m2.frame)
    return [
        (x, y)
        for x in range(m1.poset.n)
        for y in range(m2.poset.n)
        if (x, y) not in bis.pairs
    ]


def _assert_batch_matches_oracle(m1, m2, formulas):
    """The streaming batch agrees with the per-pair distinguishing_formula."""
    pairs = _unrelated(m1, m2)
    got = distinguishing_formulas_by_stream(m1, m2, pairs, formulas)
    assert list(got) == pairs
    for x, y in pairs:
        assert got[x, y] == distinguishing_formula(
            m1, m1.poset.labels[x], m2, m2.poset.labels[y], formulas
        )


def _sampled_models(count, seed=2406, letters=("p",)):
    """Seeded pairs of models on the 310 frames on at most 3 elements, each
    side with a random upset per letter."""
    frames = _iso_frames_up_to_three()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f1, f2 = rng.choice(frames), rng.choice(frames)
        out.append(
            tuple(
                Model(f, {l: random_upset(rng, f.poset) for l in letters})
                for f in (f1, f2)
            )
        )
    return out


def _valued_chain(n):
    """Chain 0 < ... < n-1 with R[x] = up(x+1) and p true at the top."""
    fr = shifted_chain_frame(n, 1)
    return Model(fr, {"p": 1 << (n - 1)})


class TestDistinguishingBatchAgainstOracle:
    def test_all_small_frame_pairs_and_valuations(self):
        formulas = list(enumerate_formulas(["p"], 2))
        frames = _small_frames()
        for f1 in frames:
            for f2 in frames:
                for v1 in upset_masks(f1.poset):
                    for v2 in upset_masks(f2.poset):
                        _assert_batch_matches_oracle(
                            Model(f1, {"p": v1}), Model(f2, {"p": v2}), formulas
                        )

    def test_sampled_three_element_frames(self):
        formulas = list(enumerate_formulas(["p"], 2))
        for m1, m2 in _sampled_models(1000):
            _assert_batch_matches_oracle(m1, m2, formulas)

    def test_chains_at_depth_three(self):
        formulas = list(enumerate_formulas(["p"], 3))
        for n in range(1, 9):
            _assert_batch_matches_oracle(
                _valued_chain(n), _valued_chain(n + 1), formulas
            )

    def test_stream_is_read_only_until_every_pair_is_found(self):
        m1, m2 = _valued_chain(3), _valued_chain(4)
        for x, y in _unrelated(m1, m2):
            stream = enumerate_formulas(["p"], 3)
            phi = distinguishing_formula(
                m1, m1.poset.labels[x], m2, m2.poset.labels[y], stream
            )
            assert phi is not None
            assert next(stream, None) is not None  # found early

    def test_truth_is_invariant_under_the_disjoint_sum(self):
        formulas = list(enumerate_formulas(["p"], 3))
        for m1, m2 in _sampled_models(25):
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

    def test_agreement_on_bisimilar_pairs(self):
        # bisimilar points agree here even where the mix law fails, so both
        # sides read True; the check is that the wrapper path says so too
        formulas = list(enumerate_formulas(["p"], 2))
        for n in (1, 2):
            for p in all_posets(n):
                # every relation, so frames that break the mix law too
                for rel in itertools.product(range(1 << n), repeat=n):
                    fr = ModalFrame(p, rel)
                    bis = largest_bisimulation(fr, fr)
                    for seed in range(1 << n):
                        lm, rm = saturated_valuation(bis, left_seed=seed)
                        m1, m2 = Model(fr, {"p": lm}), Model(fr, {"p": rm})
                        for x, y in sorted(bis.pairs):
                            a, b = p.labels[x], p.labels[y]
                            got = bisimilarity_preserves_truth(
                                m1, a, m2, b, formulas
                            )
                            assert got == _oracle_agreement(
                                m1, a, m2, b, formulas
                            )


# -- the truth-set search, checked against the streaming search ---------------


def _assert_search_matches_stream(m1, m2, letters, depth, formulas=None):
    pairs = _unrelated(m1, m2)
    if formulas is None:
        formulas = enumerate_formulas(letters, depth)
    want = distinguishing_formulas_by_stream(m1, m2, pairs, formulas)
    got = search_distinguishing_formulas(m1, m2, pairs, letters, depth)
    assert list(got) == pairs
    assert got == want


class TestTruthSetSearchAgainstStream:
    def test_all_small_frame_pairs_and_valuations(self):
        streams = [list(enumerate_formulas(["p"], d)) for d in range(4)]
        frames = _small_frames()
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
        for m1, m2 in _sampled_models(1000, letters=letters):
            for depth, formulas in enumerate(streams):
                _assert_search_matches_stream(m1, m2, letters, depth, formulas)

    def test_chains(self):
        formulas = list(enumerate_formulas(["p"], 3))
        for n in range(1, 9):
            _assert_search_matches_stream(
                _valued_chain(n), _valued_chain(n + 1), ["p"], 3, formulas
            )
        # 373 803 formulas, streamed rather than listed
        _assert_search_matches_stream(_valued_chain(7), _valued_chain(8), ["p"], 4)

    def test_no_pairs_evaluates_nothing(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a truth set was evaluated")

        for name in ("truth_mask", "box_mask", "impl_mask"):
            monkeypatch.setattr(logic, name, evaluated)
        m1, m2 = _valued_chain(3), _valued_chain(4)
        # "q" is valued on neither side and would raise if it were read
        got = search_distinguishing_formulas(m1, m2, [], ["p", "q"], 10**6)
        assert got == {}

    def test_large_depth_ends_at_the_definable_truth_sets(self):
        m1, m2 = _valued_chain(12), _valued_chain(13)
        unrelated = _unrelated(m1, m2)
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
        frames = _small_frames()
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
        for m1, m2 in _sampled_models(200, seed=5):
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
