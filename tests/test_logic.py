import random

import pytest

from imcoalg.errors import FormulaSyntaxError, UndeclaredLetter, ValueNotUpset
from imcoalg.frames import ModalFrame, check_mix_law
from imcoalg.logic import (
    And,
    Bot,
    Box,
    Impl,
    Model,
    Or,
    Top,
    Var,
    enumerate_formulas,
    formula_count,
    iff,
    letters_of,
    parse,
    print_formula,
    truth_mask,
    truth_set,
    valid_on_model,
)
from imcoalg.poset import Subset, make_poset
from imcoalg.enumeration import random_mix_frame, random_poset, random_upset


def chain_model():
    p = make_poset(["a", "b"], [("a", "b")])
    fr = ModalFrame.from_pairs(p, [("a", "b"), ("b", "b")])
    return Model(fr, {"p": Subset.from_labels(p, ["b"])})


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


class TestPrinterRoundtrip:
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
        assert truth_set(m, Top()).mask == m.poset.full_mask

    def test_box_top_axiom(self):
        m = chain_model()
        assert valid_on_model(m, parse("[]T"))
        assert valid_on_model(m, iff(Box(Top()), Top()))

    def test_chain_example(self):
        m = chain_model()
        assert truth_set(m, parse("[]p")).members == ("a", "b")
        assert truth_set(m, parse("p -> []p")).members == ("a", "b")

    def test_intuitionistic_failure_of_excluded_middle(self):
        m = chain_model()
        assert not valid_on_model(m, parse("p | ~p"))

    def test_ex_falso(self):
        m = chain_model()
        assert valid_on_model(m, parse("F -> p & []p"))

    def test_undeclared_letter(self):
        with pytest.raises(UndeclaredLetter):
            truth_set(chain_model(), parse("r"))

    def test_valuation_must_be_upset(self):
        p = make_poset(["a", "b"], [("a", "b")])
        fr = ModalFrame.from_pairs(p, [])
        with pytest.raises(ValueNotUpset):
            Model(fr, {"p": Subset.from_labels(p, ["a"])})


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
        model = Model(fr, {"p": Subset.from_labels(p, ["b"])})
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

    @pytest.mark.parametrize("letters", [[], ["p"], ["p", "q"]])
    def test_formula_count_matches_the_stream(self, letters):
        for depth in range(4):
            assert formula_count(len(letters), depth) == sum(
                1 for _ in enumerate_formulas(letters, depth)
            )

    def test_formula_count_beyond_the_stream(self):
        # sizes the distinguishing search caps instead of enumerating
        assert formula_count(1, 4) == 373_803
        assert formula_count(2, 4) == 1_462_868
        assert formula_count(1, 5) == 10_617_633

    def test_no_duplicates(self):
        got = list(enumerate_formulas(["p"], 2))
        assert len(got) == len(set(got))

    def test_letters_of(self):
        assert letters_of(parse("[](p & q) -> r")) == {"p", "q", "r"}
