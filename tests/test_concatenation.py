from fractions import Fraction

import pytest

from polyrealize import concatenation
from polyrealize.catalog import catalog_lookup
from polyrealize.certifier import Certificate, certify_couple, exact_expand, rationalize
from polyrealize.concatenation import (
    InvalidRealizerError,
    Realizer,
    ScaleNotFoundError,
    concat_pairs,
    extend_large,
    extend_small,
)
from polyrealize.moduliorders import ModuliCouple, parse_order
from polyrealize.polycore import RootSpec, horner
from polyrealize.sampler import SearchConfig, search_moduli
from polyrealize.signpatterns import PairCouple, RootCountPair, from_runs, parse_pattern

X_PLUS_1 = Realizer(
    RootSpec(real_roots=(Fraction(-1),)),
    PairCouple(parse_pattern("++"), RootCountPair(0, 1)),
)
X_MINUS_1 = Realizer(
    RootSpec(real_roots=(Fraction(1),)),
    PairCouple(parse_pattern("+-"), RootCountPair(1, 0)),
)
V_REALIZER = Realizer(  # (x-1)(x+2) = x^2 + x - 2, order PN
    RootSpec(real_roots=(Fraction(1), Fraction(-2))),
    ModuliCouple(parse_pattern("++-"), parse_order("PN")),
)


class TestConcatPairs:
    def test_plus_case_exact_oracle(self):
        # (x+1)(x - eps) = x^2 + (1-eps)x - eps for the found eps
        result = concat_pairs(X_PLUS_1, X_MINUS_1)
        assert result.couple.pattern.word == "++-"
        assert tuple(result.couple.pair) == (1, 1)
        eps = result.scale
        expected = (Fraction(1), 1 - eps, -eps)
        assert exact_expand(result.spec) == expected

    def test_minus_case_exact_oracle(self):
        # (x-1)(x - eps) = x^2 - (1+eps)x + eps: trailing word flips
        result = concat_pairs(X_MINUS_1, X_MINUS_1)
        assert result.couple.pattern.word == "+-+"
        assert tuple(result.couple.pair) == (2, 0)
        eps = result.scale
        assert exact_expand(result.spec) == (Fraction(1), -(1 + eps), eps)

    def test_invalid_input_rejected_before_any_search(self):
        fake = Realizer(
            RootSpec(real_roots=(Fraction(-1),)),
            PairCouple(parse_pattern("+-"), RootCountPair(1, 0)),
        )
        with pytest.raises(InvalidRealizerError):
            concat_pairs(fake, X_MINUS_1)

    def test_result_is_certified(self):
        result = concat_pairs(X_PLUS_1, X_MINUS_1)
        assert isinstance(result.certificate, Certificate)
        assert isinstance(certify_couple(result.spec, result.couple), Certificate)

    def test_empty_ladder_raises(self, monkeypatch):
        monkeypatch.setattr(concatenation, "MAX_SCALE_STEPS", 0)
        with pytest.raises(ScaleNotFoundError):
            concat_pairs(X_PLUS_1, X_MINUS_1)

    def test_root_bookkeeping(self):
        result = concat_pairs(X_PLUS_1, X_MINUS_1)
        assert result.spec.real_roots == (Fraction(-1), result.scale)
        poly = result.poly
        for r in result.spec.real_roots:
            assert abs(horner(poly.coeffs, float(r))) <= 1e-9

    def test_monotonicity_probe(self):
        # once an epsilon verifies, three further halvings verify too
        result = concat_pairs(X_PLUS_1, X_MINUS_1)
        eps = result.scale
        for _ in range(3):
            eps /= 2
            spec = RootSpec(real_roots=(Fraction(-1), eps))
            assert isinstance(certify_couple(spec, result.couple), Certificate)

    def test_degree_adds(self):
        q1 = Realizer(
            rationalize(RootSpec(real_roots=(-0.723, -0.59, -0.48),
                                 complex_pairs=((0.985, 0.0823104),))),
            PairCouple(from_runs((1, 3, 2)), RootCountPair(0, 3)),
        )
        result = concat_pairs(q1, q1)
        assert result.spec.degree == 10
        assert tuple(result.couple.pair) == (0, 6)
        assert result.couple.pattern.word == "+---++---++"


class TestExtendSmall:
    def test_letter_p_oracle(self):
        # (x-eps)(x^2+x-2) = x^3 + (1-eps)x^2 - (2+eps)x + 2eps
        result = extend_small(V_REALIZER, "P")
        assert result.couple.pattern.word == "++-+"
        assert result.couple.order.word == "PPN"
        eps = result.scale
        assert exact_expand(result.spec) == (
            Fraction(1), 1 - eps, -(2 + eps), 2 * eps,
        )

    def test_letter_n_oracle(self):
        # (x+eps)(x^2+x-2) = x^3 + (1+eps)x^2 + (eps-2)x - 2eps
        result = extend_small(V_REALIZER, "N")
        assert result.couple.pattern.word == "++--"
        assert result.couple.order.word == "NPN"
        eps = result.scale
        assert exact_expand(result.spec) == (
            Fraction(1), 1 + eps, eps - 2, -2 * eps,
        )

    def test_new_root_is_smallest_modulus(self):
        result = extend_small(V_REALIZER, "P")
        assert abs(result.spec.real_roots[0]) < min(
            abs(r) for r in result.spec.real_roots[1:]
        )

    def test_appending_small_positive_to_degree_six(self):
        sigma = from_runs((3, 1, 2, 1))
        out = search_moduli(sigma, parse_order("PPPNNN"), SearchConfig(n=10**5, seed=9))
        assert out.found
        base = Realizer(rationalize(out.spec), ModuliCouple(sigma, parse_order("PPPNNN")))
        grown = extend_small(base, "P")
        assert grown.couple.pattern.runs == (3, 1, 2, 1, 1)
        assert grown.couple.order.word == "PPPPNNN"
        grown_n = extend_small(base, "N")
        assert grown_n.couple.pattern.runs == (3, 1, 2, 2)
        assert grown_n.couple.order.word == "NPPPNNN"

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            extend_small(V_REALIZER, "Q")

    def test_hyperbolic_input_required(self):
        # (x-1)(x^2-2x+2) has sign word +-+- but carries a complex pair
        bad = Realizer(
            RootSpec(real_roots=(Fraction(1),), complex_pairs=((Fraction(1), Fraction(1)),)),
            ModuliCouple(parse_pattern("+-+-"), parse_order("PPP")),
        )
        with pytest.raises(InvalidRealizerError, match="hyperbolic"):
            extend_small(bad, "P")


@pytest.mark.parametrize("extend", [extend_small, extend_large])
def test_extension_needs_a_moduli_couple(extend):
    q1 = catalog_lookup("q1").payload
    pair_realizer = Realizer(rationalize(q1["spec"]), q1["couple"])
    pair_realizer.verify()  # a valid realizer, of the wrong kind of couple
    with pytest.raises(InvalidRealizerError, match="needs a moduli couple"):
        extend(pair_realizer, "P")


class TestExtendLarge:
    def test_letter_p_oracle(self):
        # (x-delta)(x^2+x-2) needs delta > 1: word flips behind the lead
        result = extend_large(V_REALIZER, "P")
        assert result.couple.pattern.word == "+--+"
        assert result.couple.order.word == "PNP"
        delta = result.scale
        assert delta > 1
        assert exact_expand(result.spec) == (
            Fraction(1), 1 - delta, -(2 + delta), 2 * delta,
        )

    def test_order_ends_with_new_letter(self):
        for letter in ("P", "N"):
            result = extend_large(V_REALIZER, letter)
            assert result.couple.order.word.endswith(letter)
            assert abs(result.spec.real_roots[0]) > max(
                abs(r) for r in result.spec.real_roots[1:]
            )

    def test_dominant_root_extension_from_degree_six(self):
        # a (2,3,2)-pattern witness extended by a dominant positive root
        # realizes the (1,2,3,2) pattern with the letter appended
        sigma6 = from_runs((2, 3, 2))
        out = search_moduli(sigma6, parse_order("PPNNNN"), SearchConfig(n=10**5, seed=11))
        assert out.found
        base = Realizer(rationalize(out.spec), ModuliCouple(sigma6, parse_order("PPNNNN")))
        grown = extend_large(base, "P")
        assert grown.couple.pattern.runs == (1, 2, 3, 2)
        assert grown.couple.order.word == "PPNNNNP"
        assert grown.couple.order.bracket == (0, 0, 4, 0)

    def test_hyperbolic_input_required(self):
        # (x-1)(x^2-2x+2) has sign word +-+- but carries a complex pair
        bad = Realizer(
            RootSpec(real_roots=(Fraction(1),), complex_pairs=((Fraction(1), Fraction(1)),)),
            ModuliCouple(parse_pattern("+-+-"), parse_order("PPP")),
        )
        with pytest.raises(InvalidRealizerError):
            extend_large(bad, "P")
