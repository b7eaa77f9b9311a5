import hashlib
import random
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from imcoalg import poset as poset_module
from imcoalg.complexes import build_complex
from imcoalg.errors import (
    DuplicateLabel,
    NotAntisymmetric,
    NotTransitive,
    UnknownLabel,
)
from imcoalg.frames import pow_up_functor
from imcoalg.freealg import build_free_stages, generator_poset
from imcoalg.heyting import up_functor
from imcoalg.poset import (
    MaskPoset,
    Poset,
    PosetMap,
    all_open,
    bit_planes,
    containment_rows,
    identity_map,
    image,
    is_monotone,
    is_pmorphism,
    iter_bits,
    make_poset,
    mask_labels,
    open_table,
    point_poset,
    product,
    terminal_map,
    transpose,
    upset_masks,
)
from imcoalg.enumeration import all_posets, monotone_maps

from helpers import (
    antichain2,
    assert_matches_eager,
    chain2,
    count_mask_labels,
    is_open_mask,
    labels_by_bits,
    make_poset_by_verify,
    mask_of,
    posets_up_to,
    random_poset,
)
from oracles import (
    containment_rows_by_columns,
    containment_rows_oracle,
    folded,
    is_monotone_by_pairs,
    make_poset_by_fixpoint,
    product_by_bits,
)

# SHA-256 of repr([p.up for p in all_posets(5)]) as the full scan over all
# 2^20 strict relations returns it
ALL_POSETS_5_SHA256 = (
    "e5cbe57ad8406f90ffe231512898965d0c078827bb36ba343123c8a2c51e3b07"
)


def _built(build, labels, pairs):
    """The rows build returns, or the type and message of its error."""
    try:
        return build(labels, pairs).up
    except (NotAntisymmetric, NotTransitive) as exc:
        return type(exc), str(exc)


def _made(build, labels, pairs):
    """The poset build returns with its down rows, or the type and message
    of any library error it raises."""
    try:
        p = build(labels, pairs)
    except (DuplicateLabel, NotAntisymmetric, NotTransitive,
            UnknownLabel) as exc:
        return type(exc), str(exc)
    return p, p.down


class TestConstruction:
    def test_two_chain(self):
        p = chain2()
        assert p.leq_labels("a", "b")
        assert not p.leq_labels("b", "a")

    def test_two_antichain(self):
        p = antichain2()
        assert not p.leq_labels("a", "b")
        assert not p.leq_labels("b", "a")

    def test_cycle_rejected(self):
        with pytest.raises(NotAntisymmetric):
            make_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            make_poset(["a", "a"], [])

    def test_constructor_requires_transitivity(self):
        with pytest.raises(NotTransitive):
            Poset(["a", "b", "c"], [0b011, 0b110, 0b100])

    def test_constructor_accepts_closed_input(self):
        p = Poset(["a", "b", "c"], [0b111, 0b110, 0b100])
        assert p.leq_labels("a", "c")

    def test_covers_mode_closes(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq_labels("a", "c")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    def test_covers_closure_matches_oracle(self, n, rng):
        # oracle: naive reachability over the cover pairs
        labels = [f"v{i}" for i in range(n)]
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    pairs.append((labels[i], labels[j]))
        p = make_poset(labels, pairs)
        adj = {l: set() for l in labels}
        for a, b in pairs:
            adj[a].add(b)
        for a in labels:
            reach = {a}
            frontier = [a]
            while frontier:
                x = frontier.pop()
                for y in adj[x]:
                    if y not in reach:
                        reach.add(y)
                        frontier.append(y)
            for b in labels:
                assert p.leq_labels(a, b) == (b in reach)


class TestClosureAgainstFixpoint:
    """make_poset's Warshall pass against the fixpoint loop it replaced."""

    def test_random_relations(self):
        # dense enough for cycles, so the NotAntisymmetric messages are
        # compared too
        rng = random.Random(1616)
        errors = 0
        for _ in range(3000):
            n = rng.randrange(1, 10)
            density = rng.random() * 0.4
            pairs = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if rng.random() < density
            ]
            want = _built(make_poset_by_fixpoint, list(range(n)), pairs)
            assert _built(make_poset, list(range(n)), pairs) == want
            errors += isinstance(want[0], type)
        assert 0 < errors < 3000

    def test_reversed_and_permuted_labellings(self):
        # the same order presented with its elements listed in reversed and
        # in shuffled order, so that index order is no linear extension
        rng = random.Random(1717)
        for _ in range(1000):
            n = rng.randrange(1, 12)
            order = list(range(n))
            rng.shuffle(order)
            pairs = [
                (order[i], order[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for labels in (list(range(n)), list(reversed(range(n))), shuffled):
                got = make_poset(labels, pairs)
                assert got.up == make_poset_by_fixpoint(labels, pairs).up
                for a, b in pairs:
                    assert got.leq_labels(a, b)


class TestMakePosetAgainstVerify:
    """make_poset's antisymmetry-only check against the closure followed by
    Poset's check of all three axioms (make_poset_by_verify)."""

    def test_every_relation_on_up_to_four_labels(self):
        # every set of label pairs, loops and cycles included; the labels
        # are listed in reverse, so index order is no linear extension
        cycles = 0
        for n in range(1, 5):
            labels = [chr(ord("a") + n - 1 - i) for i in range(n)]
            every = [(a, b) for a in labels for b in labels]
            for bits in range(1 << len(every)):
                pairs = [every[k] for k in iter_bits(bits)]
                want = _made(make_poset_by_verify, labels, pairs)
                assert _made(make_poset, labels, pairs) == want
                cycles += want[0] is NotAntisymmetric
        assert 0 < cycles < 2 + 16 + 512 + 65536

    def test_label_errors(self):
        for labels, pairs in (
            ([], []),
            (["a", "a"], []),
            (["a", "b"], [("a", "z")]),
            (["a", "b"], [("y", "z")]),
            (["a", "b"], [("a", "b"), ("b", "y")]),
        ):
            want = _made(make_poset_by_verify, labels, pairs)
            assert isinstance(want[0], type)
            assert _made(make_poset, labels, pairs) == want

    def test_down_rows_are_kept(self):
        # make_poset hands over the down rows it checked, and the rows it
        # closed, as held attributes: nothing is built on first read
        p = make_poset("abc", [("a", "b"), ("b", "c")])
        held = vars(p)
        assert held["down"] == (0b001, 0b011, 0b111)
        assert held["generating_rows"] == (0b011, 0b110, 0b100)
        assert p.down is held["down"]


class TestMapPredicates:
    def test_identity_monotone_pmorphism(self):
        for p in (chain2(), antichain2(), point_poset()):
            f = identity_map(p)
            assert is_monotone(f)
            assert is_pmorphism(f)

    def test_constant_monotone(self):
        p = chain2()
        f = PosetMap(p, p, [0, 0])
        assert is_monotone(f)

    def test_swap_on_chain_not_monotone(self):
        p = chain2()
        f = PosetMap(p, p, [1, 0])
        assert not is_monotone(f)

    def test_terminal_from_antichain_is_pmorphism(self):
        assert is_pmorphism(terminal_map(antichain2()))

    def test_bottom_inclusion_not_pmorphism(self):
        one = point_poset("a")
        p = chain2()
        incl = PosetMap(one, p, [0])
        assert is_monotone(incl)
        assert not is_pmorphism(incl)

    def test_pmorphism_implies_monotone_small(self):
        posets = []
        for n in (1, 2, 3, 4):
            posets.extend(all_posets(n))
        for p in posets:
            for q in posets:
                if p.n * q.n > 12:
                    continue
                for f in monotone_maps(p, q):
                    if is_pmorphism(f):
                        assert is_monotone(f)


class TestSubsets:
    def test_up_set_on_chain(self):
        p = chain2()
        assert p.up_close(mask_of(p, ["a"])) == mask_of(p, ["a", "b"])

    def test_up_set_empty_and_full(self):
        p = chain2()
        assert p.up_close(0) == 0
        assert p.up_close(p.full_mask) == p.full_mask

    def test_principal_up(self):
        p = chain2()
        assert p.up_mask(p.index("a")) == mask_of(p, ["a", "b"])
        assert p.up_mask(p.index("b")) == mask_of(p, ["b"])

    def test_rooted_chain(self):
        p = chain2()
        assert p.min_of(mask_of(p, ["a", "b"])) == p.index("a")

    def test_rooted_antichain(self):
        p = antichain2()
        assert p.min_of(mask_of(p, ["a", "b"])) is None

    def test_singleton_rooted(self):
        p = antichain2()
        assert p.min_of(mask_of(p, ["b"])) == p.index("b")

    def test_empty_not_rooted(self):
        assert chain2().min_of(0) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_root_is_least_member(self, n, rng):
        p = random_poset(rng, n)
        for mask in range(1, 1 << p.n):
            r = p.min_of(mask)
            if r is not None:
                assert (mask >> r) & 1
                assert all(p.leq(r, i) for i in iter_bits(mask))


class TestRelativeOpen:
    def test_terminal_map_makes_everything_open(self):
        p = chain2()
        g = terminal_map(p)
        for mask in range(1, 1 << p.n):
            assert is_open_mask(mask, open_table(g))
        assert all_open(range(1, 1 << p.n), open_table(g))

    def test_identity_singleton_bottom_not_open(self):
        p = chain2()
        table = open_table(identity_map(p))
        assert not is_open_mask(mask_of(p, ["a"]), table)
        assert not all_open([mask_of(p, ["b"]), mask_of(p, ["a"])], table)

    def test_identity_full_open(self):
        p = chain2()
        table = open_table(identity_map(p))
        assert is_open_mask(mask_of(p, ["a", "b"]), table)
        assert all_open([mask_of(p, ["b"]), mask_of(p, ["a", "b"])], table)

    test_open_table_matches_images_up_to_three_elements = folded("all_open")
    test_open_table_matches_the_target_sets = folded("open_table")
    test_all_open_matches_the_member_loop_on_random_stages = folded(
        "all_open:lists"
    )

    def test_bit_planes_are_the_columns_of_the_masks(self):
        rng = random.Random(5)
        for width in (0, 1, 7, 8, 9, 24, 30):
            masks = [rng.getrandbits(width) for _ in range(rng.randrange(9))]
            elements = rng.getrandbits(width)
            planes = bit_planes(masks, elements)
            assert len(planes) == elements.bit_length()
            for e, plane in enumerate(planes):
                want = sum(
                    1 << j for j, m in enumerate(masks)
                    if elements >> e & 1 and m >> e & 1
                )
                assert plane == want


class TestProduct:
    def test_unit_law(self):
        p = chain2()
        prod = product(point_poset(), p)
        assert prod.n == p.n
        for i in range(p.n):
            for j in range(p.n):
                assert prod.leq(i, j) == p.leq(i, j)

    def test_chain_times_chain(self):
        p = chain2()
        prod = product(p, p)
        aa = prod.index(("a", "a"))
        ab = prod.index(("a", "b"))
        ba = prod.index(("b", "a"))
        bb = prod.index(("b", "b"))
        assert prod.leq(aa, ab) and prod.leq(aa, ba) and prod.leq(aa, bb)
        assert prod.leq(ab, bb) and prod.leq(ba, bb)
        assert not prod.leq(ab, ba) and not prod.leq(ba, ab)

    def test_antichain_product(self):
        p = antichain2()
        prod = product(p, p)
        for i in range(4):
            for j in range(4):
                assert prod.leq(i, j) == (i == j)


class TestRelationKernels:
    def test_image_and_transpose_match_set_comprehensions(self):
        rng = random.Random(9)
        for width in range(41):
            for count in (0, 1, 2, 7, 40):
                for density in (0.1, 0.5, 0.9):
                    rows = [
                        sum(1 << i for i in range(width)
                            if rng.random() < density)
                        for _ in range(count)
                    ]
                    sets = [set(iter_bits(row)) for row in rows]
                    mask = rng.getrandbits(count) if count else 0
                    want = set().union(*(sets[i] for i in iter_bits(mask)))
                    assert set(iter_bits(image(rows, mask))) == want
                    assert image(rows, 0) == 0
                    cols = transpose(rows, width)
                    assert [set(iter_bits(col)) for col in cols] == [
                        {x for x in range(count) if y in sets[x]}
                        for y in range(width)
                    ]
                    assert transpose(cols, count) == rows

    def test_no_rows(self):
        assert image([], 0) == 0
        assert transpose([], 0) == []
        assert transpose([], 3) == [0, 0, 0]

    test_transpose_matches_the_bit_loop = folded("transpose")
    test_sorted_index_matches_a_scan = folded("sorted_index")
    test_product_matches_bit_loops_up_to_three_elements = folded("product")
    test_is_monotone_matches_pair_test_on_all_functions = folded("is_monotone")

    def test_free_layers_match_replaced_kernels(self):
        # the layers of `freealg --generators 2 --stages 2`: each layer is
        # the product of the generator poset with an inner stage, and its
        # projection is checked for monotonicity
        base = generator_poset(["p0", "p1"])
        stages = build_free_stages(base, 2, 1)
        assert [s.poset.n for s in stages] == [4, 24, 1976]
        for stage in stages[1:]:
            inner = stage.inner_complex.stages[stage.inner_depth]
            assert stage.poset == product_by_bits(base, inner)
            assert is_monotone(stage.projection)
            assert is_monotone_by_pairs(stage.projection)
            # swapping the images of some x < y with f(x) < f(y) breaks it
            swapped = list(stage.projection.assign)
            up = stage.poset.up
            x = max(range(stage.poset.n), key=lambda e: up[e].bit_count())
            y = next(e for e in iter_bits(up[x]) if swapped[e] != swapped[x])
            swapped[x], swapped[y] = swapped[y], swapped[x]
            broken = PosetMap(stage.poset, stage.prev, swapped)
            assert not is_monotone(broken)
            assert not is_monotone_by_pairs(broken)


class TestEnumerateUpsets:
    def test_chain(self):
        p = chain2()
        assert upset_masks(p) == (0, mask_of(p, ["b"]), mask_of(p, ["a", "b"]))

    def test_antichain(self):
        assert len(upset_masks(antichain2())) == 4

    def test_point(self):
        assert len(upset_masks(point_poset())) == 2

    def test_count_equals_antichain_count(self):
        # oracle: upsets correspond to antichains (their minimal elements)
        for n in (1, 2, 3, 4, 5):
            for p in all_posets(n):
                antichains = 0
                for mask in range(1 << p.n):
                    members = list(iter_bits(mask))
                    if all(
                        not p.leq(i, j)
                        for i in members
                        for j in members
                        if i != j
                    ):
                        antichains += 1
                assert len(upset_masks(p)) == antichains

    def test_deterministic_order(self):
        masks = upset_masks(antichain2())
        assert list(masks) == sorted(masks)


class TestContainmentRows:
    test_matches_pair_tests_on_upsets_up_to_four_elements = folded(
        "containment_rows"
    )

    def test_unsorted_and_repeated_masks(self):
        masks = (6, 0, 3, 6, 1)
        assert containment_rows(masks, 3) == containment_rows_oracle(masks)

    def test_no_masks(self):
        assert containment_rows((), 4) == ()
        assert containment_rows((), 0) == ()
        assert mask_labels((), "abcd") == []

    def test_random_masks_match_column_kernel(self):
        # widths 0-40 cover a partial last chunk and whole chunks; the
        # masks are unsorted, repeated and of mixed density
        rng = random.Random(8)
        for width in range(41):
            labels = [f"x{i}" for i in range(width)]
            for count in (0, 1, 2, 7, 40):
                for density in (0.1, 0.5, 0.9):
                    masks = [
                        sum(1 << i for i in range(width)
                            if rng.random() < density)
                        for _ in range(count)
                    ]
                    rows = containment_rows(masks, width)
                    assert rows == containment_rows_by_columns(masks, width)
                    assert rows == containment_rows_oracle(masks)
                    assert mask_labels(masks, labels) == (
                        labels_by_bits(masks, labels)
                    )

    def test_labels_of_nested_values(self):
        # labels that are themselves frozensets, as in Up(P) and the stages
        rng = random.Random(3)
        labels = [frozenset(range(i % 5)) | {("v", i)} for i in range(20)]
        masks = [rng.getrandbits(20) for _ in range(100)] + [0, (1 << 20) - 1]
        assert mask_labels(masks, labels) == labels_by_bits(masks, labels)


class TestOverMasks:
    def test_up_functor_values_match_eager_posets(self):
        # up_functor is memoized, so its unwrapped body gives fresh values
        for p in posets_up_to(3):
            fv = up_functor.__wrapped__(p)
            assert_matches_eager(fv, fv.masks, p)

    def test_pow_up_functor_values_match_eager_posets(self):
        for p in posets_up_to(3):
            fv = pow_up_functor.__wrapped__(p)
            assert_matches_eager(fv, fv.masks, up_functor(p))

    def test_hash_and_equality_read_before_labels(self):
        p = chain2()
        masks = upset_masks(p)
        eager = Poset(
            labels_by_bits(masks, p.labels), containment_rows(masks, p.n)
        )
        assert hash(up_functor.__wrapped__(p)) == hash(eager)
        assert up_functor.__wrapped__(p) == eager
        assert eager == up_functor.__wrapped__(p)

    def test_labels_are_built_once_on_first_read(self, monkeypatch):
        calls = count_mask_labels(monkeypatch)
        p = antichain2()
        value = up_functor.__wrapped__(p)
        assert calls == []
        assert value.labels == tuple(labels_by_bits(upset_masks(p), p.labels))
        value.index(frozenset())
        hash(value)
        assert value.labels is value.labels
        assert calls == [4]

    def test_rows_are_built_once_on_first_read(self, monkeypatch):
        built = []
        real = poset_module.containment_rows

        def recording(masks, width):
            built.append(tuple(masks))
            return real(masks, width)

        monkeypatch.setattr(poset_module, "containment_rows", recording)
        p = make_poset("abc", [("a", "b")])
        value = up_functor.__wrapped__(p)
        assert isinstance(value, MaskPoset)
        assert value.n == len(value.masks)
        assert built == []
        assert value.up == containment_rows_oracle(value.masks)
        assert value.up is value.up
        value.covers()
        assert built == [value.masks]
        given = Poset.over_masks(value.masks, p, value.up)
        assert given.up == value.up
        assert built == [value.masks]

    def test_label_of_one_element_builds_no_labels(self, monkeypatch):
        # through two mask-carried levels down to the eager base
        calls = count_mask_labels(monkeypatch)
        p = make_poset("ab", [("a", "b")])
        cx = build_complex(terminal_map(up_functor.__wrapped__(p)), 3)
        got = [
            [cx.stages[lv].label(i) for i in range(cx.stages[lv].n)]
            for lv in (1, 2, 3)
        ]
        assert calls == []
        for lv in (1, 2, 3):
            assert tuple(got[lv - 1]) == cx.stages[lv].labels
            assert [cx.stages[lv].label(i) for i in range(3)] == got[lv - 1][:3]
        assert [p.label(i) for i in range(p.n)] == list(p.labels)

    def test_eager_posets_read_rows_and_labels_as_plain_attributes(self):
        # the laziness lives in MaskPoset only: Poset itself has no
        # descriptor for ``up`` or ``labels`` in the way of an instance
        # read, and no __getattr__ hook slows every attribute read
        eager = make_poset("ab", [("a", "b")])
        for name in ("up", "labels"):
            assert name not in Poset.__dict__
            assert name in vars(eager)
            assert isinstance(MaskPoset.__dict__[name], cached_property)
        assert "__getattr__" not in Poset.__dict__
        assert "__getattr__" not in MaskPoset.__dict__

    def test_posets_with_other_rows_compare_unequal_unlabelled(
        self, monkeypatch
    ):
        calls = count_mask_labels(monkeypatch)
        base = antichain2()
        a = Poset.over_masks((1, 2), base, (1, 2))
        assert a != Poset.over_masks((1, 3), base, (1, 3))
        assert a != Poset.over_masks((1,), base, (1,))
        assert a != point_poset()
        assert calls == []
        assert a == Poset.over_masks((1, 2), base, (1, 2))
        assert calls == [2, 2]


class TestAllPosets:
    test_matches_full_scan_up_to_four_elements = folded("all_posets")

    def test_five_elements_pinned(self):
        ups = [p.up for p in all_posets(5)]
        assert len(ups) == 63
        digest = hashlib.sha256(repr(ups).encode()).hexdigest()
        assert digest == ALL_POSETS_5_SHA256

    test_canonical_key_matches_permutation_scan = folded("canonical_poset_key")
