import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from imcoalg.config import Caps
from imcoalg.errors import (
    CapExceeded,
    FormulaSyntaxError,
    UndeclaredLetter,
    ValueNotUpset,
)
from imcoalg.frames import ModalFrame, check_mix_law
from imcoalg.heyting import box_mask, impl_mask
from imcoalg.logic import (
    MAX_FORMULA_TOKENS,
    And,
    Bot,
    Box,
    Impl,
    Model,
    Or,
    Top,
    Var,
    definable_masks,
    enumerate_formulas,
    first_formulas,
    iff,
    letters_of,
    parse,
    print_formula,
    truth_mask,
    valid_on_model,
)
from imcoalg.bisim import search_distinguishing_formulas
from imcoalg.poset import make_poset, point_poset
from imcoalg.enumeration import all_posets, frames_up_to_iso

from helpers import (
    FORMULA_PIECES,
    formula_eq_by_recursion,
    formula_repr_by_recursion,
    letters_by_recursion,
    mask_of,
    parse_by_descent,
    print_formula_by_recursion,
    random_mix_frame,
    random_poset,
    random_upset,
    tokenize_formula,
    truth_mask_by_recursion,
)
from oracles import first_of_each_truth_set, folded


def chain_model():
    p = make_poset(["a", "b"], [("a", "b")])
    fr = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
    return Model(fr, {"p": mask_of(p, ["b"])})


class TestParser:
    def test_box_impl(self):
        assert parse("[]p -> p") == Impl(Box(Var("p")), Var("p"))

    def test_box_binds_tightest(self):
        assert parse("[]p & q") == And(Box(Var("p")), Var("q"))

    def test_box_of_conjunction(self):
        assert parse("[](p & q)") == Box(And(Var("p"), Var("q")))

    def test_impl_right_associative(self):
        assert parse("p -> q -> r") == Impl(
            Var("p"), Impl(Var("q"), Var("r"))
        )

    def test_precedence_or_and(self):
        assert parse("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))

    def test_negation_desugars(self):
        assert parse("~p") == Impl(Var("p"), Bot())

    def test_constants(self):
        assert parse("T") == Top()
        assert parse("F") == Bot()

    def test_whitespace_insensitive(self):
        assert parse("[] p->  p") == parse("[]p->p")

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p -> ")
        assert err.value.position == 5

    def test_unknown_token(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p + q")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p q")


def random_formula(rng, letters, size):
    if size == 0:
        return rng.choice([Var(l) for l in letters] + [Top(), Bot()])
    kind = rng.choice(["box", "and", "or", "impl"])
    if kind == "box":
        return Box(random_formula(rng, letters, size - 1))
    split = rng.randrange(size)
    left = random_formula(rng, letters, split)
    right = random_formula(rng, letters, size - 1 - split)
    return {"and": And, "or": Or, "impl": Impl}[kind](left, right)


class TestLengthBound:
    def test_a_formula_of_exactly_the_bound_parses(self):
        # trailing whitespace is no token
        text = "~" * (MAX_FORMULA_TOKENS - 1) + "p  "
        phi = parse(text)
        # the deepest tree within the bound compares, prints and reprs
        assert phi == parse(text)
        depth = MAX_FORMULA_TOKENS - 2
        assert print_formula(phi) == "(" * depth + "p -> F" + ") -> F" * depth
        assert repr(phi).endswith("Var('p'), Bot())" + ", Bot())" * depth)
        for _ in range(MAX_FORMULA_TOKENS - 1):
            phi = phi.left
        assert phi == Var("p")

    def test_one_token_more_raises_at_that_token(self):
        text = "[] " * MAX_FORMULA_TOKENS + "p"
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.position == 3 * MAX_FORMULA_TOKENS
        assert str(err.value) == (
            f"formula longer than {MAX_FORMULA_TOKENS} tokens "
            f"(at position {3 * MAX_FORMULA_TOKENS})"
        )


def _outcome(parse_text, print_tree, text):
    """The tree's repr and printed text, or the error's class, message and
    position."""
    try:
        phi = parse_text(text)
    except FormulaSyntaxError as exc:
        return type(exc), str(exc), exc.position
    return repr(phi), print_tree(phi)


def _grammar_text(rng, depth):
    """A text of the grammar with redundant parentheses and spacing."""
    space = lambda: rng.choice(("", "", " ", "  "))
    kind = rng.randrange(5 if depth else 1)
    if kind == 0:
        return rng.choice(("p", "q", "T", "F", "x1"))
    if kind == 1:
        return "(" + space() + _grammar_text(rng, depth - 1) + space() + ")"
    if kind == 2:
        return rng.choice(("[]", "~")) + space() + _grammar_text(rng, depth - 1)
    op = rng.choice(("->", "|", "&"))
    left = _grammar_text(rng, rng.randrange(depth))
    right = _grammar_text(rng, rng.randrange(depth))
    return left + space() + op + space() + right


def _formula_corpus(rng, count):
    """count seeded texts over FORMULA_PIECES, of at most 16 pieces or
    depth 6, inside the descent parser's recursion limit: half drawn piece
    by piece, half from the grammar with one piece inserted, dropped or
    replaced in every other text."""
    for i in range(count):
        if i % 2:
            yield "".join(rng.choices(FORMULA_PIECES, k=rng.randrange(17)))
            continue
        text = _grammar_text(rng, 6)
        if i % 4:
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            new = rng.choice(FORMULA_PIECES) if edit < 2 else ""
            text = text[:at] + new + text[at + (edit > 0):]
        yield text


class TestParserOracle:
    def test_corpus_matches_the_descent_parser_and_recursive_printer(self):
        parsed = 0
        for text in _formula_corpus(random.Random(2406), 100_000):
            got = _outcome(parse, print_formula, text)
            assert got == _outcome(
                parse_by_descent, print_formula_by_recursion, text
            ), text
            parsed += len(got) == 2
        # both outcomes are common
        assert 20_000 < parsed < 80_000

    test_printer_matches_on_every_first_formula_of_one_letter_models = folded(
        "print_formula"
    )


def _chain(make, n, right):
    phi = Var("p")
    for _ in range(n):
        phi = make(Var("p"), phi) if right else make(phi, Var("p"))
    return phi


class TestDeepPrinting:
    def test_box_chain(self):
        phi = Var("p")
        for _ in range(5000):
            phi = Box(phi)
        assert print_formula(phi) == "[]" * 5000 + "p"

    def test_right_nested_implications(self):
        text = print_formula(_chain(Impl, 5000, right=True))
        assert text == " -> ".join(["p"] * 5001)

    def test_left_nested_conjunctions(self):
        text = print_formula(_chain(And, 5000, right=False))
        assert text == " & ".join(["p"] * 5001)

    def test_brackets_against_the_grouping_side(self):
        text = print_formula(_chain(Impl, 5000, right=False))
        assert text == "(" * 4999 + "p -> p" + ") -> p" * 4999


def formula_trees():
    atoms = st.sampled_from([Var("p"), Var("q"), Top(), Bot()])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Box, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Impl, sub, sub),
        ),
        max_leaves=40,
    )


def _box_tower(n, phi):
    for _ in range(n):
        phi = Box(phi)
    return phi


def _chain_model(n):
    """Chain 0 < ... < n-1 with R[x] = up(x + 1), p true at the top."""
    p = make_poset(range(n), [(i, i + 1) for i in range(n - 1)])
    rel = [p.up[x + 1] if x + 1 < n else 0 for x in range(n)]
    return Model(ModalFrame(p, rel), {"p": 1 << (n - 1)})


def _two_letter_model():
    """a below b and c, a R b, a R c, b R b; p true at b, q at c."""
    p = make_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    fr = ModalFrame.from_pairs(p, [("a", "b"), ("a", "c"), ("b", "b")])
    return Model(fr, {"p": mask_of(p, ["b"]), "q": mask_of(p, ["c"])})


def _rebuilt(phi):
    """A copy of phi that shares no node with it."""
    if isinstance(phi, Var):
        return Var(phi.name)
    return type(phi)(*(_rebuilt(part) for part in phi._parts()))


class TestDeepTrees:
    """truth_mask, letters_of, == and repr walk the tree with an explicit
    stack: trees deeper than the recursion limit evaluate, compare and
    print, and small trees read as the recursive forms do."""

    def test_box_tower_of_2000(self):
        phi = _box_tower(2000, Var("p"))
        m = chain_model()
        assert truth_mask(m, phi) == m.poset.full_mask
        assert letters_of(phi) == {"p"}
        assert letters_of(And(phi, _box_tower(2000, Var("q")))) == {"p", "q"}
        assert phi == _box_tower(2000, Var("p"))
        assert phi != _box_tower(2000, Var("q"))
        assert repr(phi) == "Box(" * 2000 + "Var('p')" + ")" * 2000

    def test_box_499_from_first_formulas_on_500_and_501_chains(self):
        # the bottoms of the two chains first differ on 499 boxes over p
        ((_, phi),) = search_distinguishing_formulas(
            _chain_model(500), _chain_model(501), [(0, 0)], ["p"], 499
        ).items()
        tower = _box_tower(499, Var("p"))
        assert phi == tower and tower == phi
        assert repr(phi) == "Box(" * 499 + "Var('p')" + ")" * 499

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(phi=formula_trees(), psi=formula_trees())
    def test_small_trees_against_the_recursive_forms(self, phi, psi):
        m = _two_letter_model()
        assert truth_mask(m, phi) == truth_mask_by_recursion(m, phi)
        assert letters_of(phi) == letters_by_recursion(phi)
        assert repr(phi) == formula_repr_by_recursion(phi)
        assert (phi == psi) == formula_eq_by_recursion(phi, psi)
        copy = _rebuilt(phi)
        assert copy is not phi
        assert phi == copy and formula_eq_by_recursion(phi, copy)


class TestPrinterRoundtrip:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(phi=formula_trees())
    def test_parse_inverts_print_within_the_bound(self, phi):
        text = print_formula(phi)
        assume(len(tokenize_formula(text)) <= MAX_FORMULA_TOKENS)
        assert parse(text) == phi
        assert text == print_formula_by_recursion(phi)

    def test_minimal_parens(self):
        assert print_formula(parse("(p -> q) -> r")) == "(p -> q) -> r"
        assert print_formula(parse("p -> q -> r")) == "p -> q -> r"
        assert print_formula(parse("[](p & q)")) == "[](p & q)"
        assert print_formula(parse("[]p & q")) == "[]p & q"

    def test_roundtrip_1000_random_asts(self):
        rng = random.Random(99)
        for _ in range(1000):
            phi = random_formula(rng, ["p", "q"], rng.randrange(6))
            assert parse(print_formula(phi)) == phi


class TestTruth:
    def test_top(self):
        m = chain_model()
        assert truth_mask(m, Top()) == m.poset.full_mask

    def test_box_top_axiom(self):
        m = chain_model()
        assert valid_on_model(m, parse("[]T"))
        assert valid_on_model(m, iff(Box(Top()), Top()))

    def test_chain_example(self):
        m = chain_model()
        ab = mask_of(m.poset, ["a", "b"])
        assert truth_mask(m, parse("[]p")) == ab
        assert truth_mask(m, parse("p -> []p")) == ab

    def test_intuitionistic_failure_of_excluded_middle(self):
        m = chain_model()
        assert not valid_on_model(m, parse("p | ~p"))

    def test_ex_falso(self):
        m = chain_model()
        assert valid_on_model(m, parse("F -> p & []p"))

    def test_undeclared_letter(self):
        with pytest.raises(UndeclaredLetter):
            truth_mask(chain_model(), parse("r"))

    def test_valuation_must_be_upset(self):
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [])
        with pytest.raises(ValueNotUpset):
            Model(fr, {"p": mask_of(p, ["a"])})

    def test_valuation_must_lie_in_the_carrier(self):
        fr = ModalFrame(point_poset(), (0,))
        for mask in (0b10, 0b11, 1 << 70, -1, -2):
            with pytest.raises(ValueNotUpset):
                Model(fr, {"p": mask})
        assert Model(fr, {"p": 1}).valuation == {"p": 1}


class TestAxiomsAndPersistence:
    def test_axioms_on_random_models(self):
        rng = random.Random(2718)
        box_and = parse("[](p & q)")
        and_box = parse("[]p & []q")
        for _ in range(500):
            p = random_poset(rng, rng.randrange(2, 7))
            fr = random_mix_frame(rng, p)
            model = Model(
                fr,
                {"p": random_upset(rng, p), "q": random_upset(rng, p)},
            )
            assert valid_on_model(model, iff(box_and, and_box))
            assert valid_on_model(model, iff(Box(Top()), Top()))

    def test_persistence_random(self):
        rng = random.Random(3141)
        for _ in range(1000):
            p = random_poset(rng, rng.randrange(1, 7))
            fr = random_mix_frame(rng, p)
            model = Model(
                fr,
                {"p": random_upset(rng, p), "q": random_upset(rng, p)},
            )
            phi = random_formula(rng, ["p", "q"], rng.randrange(5))
            assert p.is_upset(truth_mask(model, phi))

    def test_broken_mix_law_breaks_persistence(self):
        # the mix law is load-bearing: with repair disabled some formula has
        # a non-upset truth set
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [("b", "b")])
        assert not check_mix_law(fr)
        model = Model(fr, {"p": mask_of(p, ["b"])})
        mask = truth_mask(model, parse("[]F"))
        assert not p.is_upset(mask)

    def test_mutation_suite_finds_failure(self):
        rng = random.Random(1618)
        failures = 0
        for _ in range(100):
            p = random_poset(rng, rng.randrange(2, 6))
            fr = random_mix_frame(rng, p)
            # drop one related pair to break the law where possible
            pairs = fr.pairs()
            if not pairs:
                continue
            broken = ModalFrame.from_pairs(
                p, [pr for pr in pairs if pr != pairs[0]]
            )
            if check_mix_law(broken):
                continue
            model = Model(broken, {"p": random_upset(rng, p)})
            for phi in enumerate_formulas(["p"], 2):
                if not p.is_upset(truth_mask(model, phi)):
                    failures += 1
                    break
        assert failures >= 1


class TestEnumeration:
    def test_depth0(self):
        assert list(enumerate_formulas(["p"], 0)) == [Var("p"), Top(), Bot()]

    def test_depth1_contents(self):
        got = list(enumerate_formulas(["p"], 1))
        assert Box(Var("p")) in got
        assert Impl(Var("p"), Bot()) in got
        assert And(Var("p"), Var("p")) in got

    def test_counts_golden(self):
        # frozen counts from the enumerator itself (regression values)
        assert len(list(enumerate_formulas(["p"], 1))) == 33
        assert len(list(enumerate_formulas(["p"], 2))) == 603
        assert len(list(enumerate_formulas(["p", "q"], 1))) == 56

    def test_no_duplicates(self):
        got = list(enumerate_formulas(["p"], 2))
        assert len(got) == len(set(got))

    def test_letters_of(self):
        assert letters_of(parse("[](p & q) -> r")) == {"p", "q", "r"}


# -- truth sets: the closure and the first formula of each ------------------


@functools.lru_cache(maxsize=None)
def _sampled_models():
    """200 seeded one-letter models on the 310 frames on at most 3 elements,
    each with the truth masks of every formula of depth at most 3, in
    stream order."""
    frames = [
        f for n in (1, 2, 3) for p in all_posets(n) for f in frames_up_to_iso(p)
    ]
    assert len(frames) == 310
    rng = random.Random(2406)
    formulas = list(enumerate_formulas(["p"], 3))
    out = []
    for _ in range(200):
        fr = rng.choice(frames)
        model = Model(fr, {"p": random_upset(rng, fr.poset)})
        cache = {}
        masks = [truth_mask(model, phi, cache) for phi in formulas]
        out.append((model, list(zip(formulas, masks))))
    return out


class TestDefinableMasks:
    def test_contains_every_truth_set_of_the_stream(self):
        deeper = 0
        for model, stream in _sampled_models():
            closure = definable_masks(model)
            reached = {t for _, t in stream}
            assert reached <= closure
            deeper += reached != closure
        assert deeper  # some model needs formulas beyond depth 3

    def test_closed_under_the_connectives(self):
        models = [m for m, _ in _sampled_models()]
        rng = random.Random(99)
        for _ in range(100):
            p = random_poset(rng, rng.randrange(1, 6))
            fr = random_mix_frame(rng, p)
            models.append(
                Model(fr, {"p": random_upset(rng, p), "q": random_upset(rng, p)})
            )
        for model in models:
            closure = definable_masks(model)
            p = model.poset
            assert {p.full_mask, 0, *model.valuation.values()} <= closure
            for a in closure:
                assert box_mask(model.frame, a) in closure
                for b in closure:
                    assert a & b in closure and a | b in closure
                    assert impl_mask(p, a, b) in closure

    def test_without_letters(self):
        model = chain_model()
        assert definable_masks(model) == {0, 0b10, 0b11}
        # T, F and []F = F
        assert definable_masks(Model(model.frame, {})) == {0, 0b11}

    def test_cap_on_connective_applications(self):
        model = chain_model()
        # masks p, T, F: 1, 1 + 4 and 1 + 8 applications, nothing new
        assert definable_masks(model, caps=Caps(max_formulas=15))
        with pytest.raises(CapExceeded, match="15 connective applications"):
            definable_masks(model, caps=Caps(max_formulas=14))


class TestFirstFormulas:
    def test_first_formula_of_each_truth_set_of_the_stream(self):
        for model, stream in _sampled_models():
            assert list(first_formulas(model, ["p"], 3)) == (
                first_of_each_truth_set(stream)
            )

    def test_two_letters_on_random_models(self):
        rng = random.Random(5)
        formulas = list(enumerate_formulas(["p", "q"], 2))
        for _ in range(100):
            p = random_poset(rng, rng.randrange(1, 5))
            fr = random_mix_frame(rng, p)
            model = Model(
                fr, {"p": random_upset(rng, p), "q": random_upset(rng, p)}
            )
            stream = [(phi, truth_mask(model, phi)) for phi in formulas]
            assert list(first_formulas(model, ["p", "q"], 2)) == (
                first_of_each_truth_set(stream)
            )

    def test_unbounded_depth_stops_at_the_closure(self):
        for model, _ in _sampled_models()[:50]:
            got = [t for _, t in first_formulas(model, ["p"], 10**9)]
            assert set(got) == definable_masks(model)
            assert len(got) == len(set(got))

    def test_cap_names_the_depth(self):
        model = chain_model()
        # three atoms, so 3 boxes and 3 * 9 binary applications at depth 1
        list(first_formulas(model, ["p"], 1, Caps(max_formulas=30)))
        with pytest.raises(CapExceeded, match="^30 .* up to depth 1 exceed cap 29$"):
            list(first_formulas(model, ["p"], 1, Caps(max_formulas=29)))
