import math
from fractions import Fraction

import pytest

from conftest import random_rootspec
from polyrealize.catalog import catalog_lookup
from polyrealize.certifier import (
    GAP_REFINE_CAP,
    Certificate,
    ExactPolynomial,
    Mismatch,
    RoundsToZeroError,
    ZeroCoefficientError,
    certify_couple,
    certify_gap_class,
    exact_expand,
    exact_sign_pattern,
    fraction_str,
    rationalize,
    rationalize_value,
)
from polyrealize.criticalgaps import gap_report
from polyrealize.moduliorders import ModuliCouple, ModuliOrder, parse_order
from polyrealize.polycore import RootSpec, expand_from_roots, sign_tuple
from polyrealize.signpatterns import PairCouple, RootCountPair, from_runs, parse_pattern


def q1_spec() -> RootSpec:
    return RootSpec(
        real_roots=(-0.723, -0.59, -0.48),
        complex_pairs=((0.985, math.sqrt(0.977 - 0.985**2)),),
    )


GAP_D6_ROOTS = (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96)


class TestRationalize:
    def test_three_digits(self):
        assert rationalize_value(0.723, 3) == Fraction(723, 1000)

    def test_five_digits_negative(self):
        assert rationalize_value(-0.0025040322, 5) == Fraction(-25040, 10**7)

    def test_zero_rejected(self):
        with pytest.raises(RoundsToZeroError):
            rationalize_value(0.0)

    def test_digits_validated(self):
        with pytest.raises(ValueError):
            rationalize_value(1.0, 0)

    def test_spec_roundtrip_keeps_im_positive(self):
        spec = rationalize(q1_spec())
        assert all(im > 0 for _, im in spec.complex_pairs)
        assert spec.real_roots == (
            Fraction(-723, 1000), Fraction(-59, 100), Fraction(-48, 100),
        )

    def test_zero_re_passes_through(self):
        spec = rationalize(RootSpec(complex_pairs=((0.0, 0.5),)))
        assert spec.complex_pairs[0][0] == 0


class TestExactExpand:
    def test_middle_coefficient_exactly_zero(self):
        poly = exact_expand(RootSpec(real_roots=(Fraction(1), Fraction(-1))))
        assert poly.coeffs == (1, 0, -1)
        with pytest.raises(ZeroCoefficientError):
            exact_sign_pattern(poly)

    def test_q1_signs(self):
        poly = exact_expand(rationalize(q1_spec()))
        assert exact_sign_pattern(poly).word == "+---++"

    def test_subdominant_equals_negated_root_sum(self):
        # independent oracle: sum the roots by hand
        spec = rationalize(catalog_lookup("c1").payload["spec"])
        poly = exact_expand(spec)
        total = sum(spec.real_roots) + 2 * sum(re for re, _ in spec.complex_pairs)
        assert poly.coeffs[1] == -total

    def test_monic_validation(self):
        with pytest.raises(ValueError):
            ExactPolynomial((Fraction(2), Fraction(1)))


class TestCertifyCouple:
    def test_q1_certificate(self):
        claim = PairCouple(from_runs((1, 3, 2)), RootCountPair(0, 3))
        got = certify_couple(rationalize(q1_spec()), claim)
        assert isinstance(got, Certificate)
        names = [n for n, _ in got.checks]
        assert names == ["sign_vector", "root_counts", "subdominant_identity"]

    def test_wrong_pair_is_root_count_mismatch(self):
        claim = PairCouple(from_runs((1, 3, 2)), RootCountPair(2, 1))
        got = certify_couple(rationalize(q1_spec()), claim)
        assert isinstance(got, Mismatch)
        assert got.failed_check == "root_counts"
        assert got.actual_pair == (0, 3)

    def test_moduli_witness_certificate(self):
        spec = rationalize(catalog_lookup("sigma341-witness").payload["spec"])
        claim = ModuliCouple(from_runs((3, 4, 1)), parse_order("[0,0,5]"))
        got = certify_couple(spec, claim)
        assert isinstance(got, Certificate)
        assert ("moduli_order", "PPNNNNN") in got.checks

    def test_moduli_claim_needs_hyperbolic(self):
        claim = ModuliCouple(from_runs((1, 3, 2)), parse_order("NNNPP"))
        got = certify_couple(rationalize(q1_spec()), claim)
        assert isinstance(got, Mismatch)

    def test_wrong_order_mismatch(self):
        spec = rationalize(catalog_lookup("sigma341-witness").payload["spec"])
        claim = ModuliCouple(from_runs((3, 4, 1)), parse_order("[0,5,0]"))
        got = certify_couple(spec, claim)
        assert isinstance(got, Mismatch)
        assert got.failed_check == "moduli_order"
        assert got.actual_order == parse_order("[0,0,5]")

    def test_zero_coefficient_is_sign_vector_mismatch(self):
        # (x-1)(x+1) = x^2 - 1: the x^1 coefficient vanishes, so no sign word
        spec = RootSpec(real_roots=(Fraction(1), Fraction(-1)))
        got = certify_couple(spec, PairCouple(from_runs((1, 1, 1)), RootCountPair(2, 0)))
        assert isinstance(got, Mismatch)
        assert got.failed_check == "sign_vector"
        assert got.actual_pattern is None and got.actual_pair == (1, 1)

    def test_tied_moduli_is_order_mismatch(self):
        # (x-1)(x+1)(x-2) has sign word +--+ but |1| = |-1| ties the order
        spec = RootSpec(real_roots=(Fraction(1), Fraction(-1), Fraction(2)))
        claim = ModuliCouple(from_runs((1, 2, 1)), parse_order("PNP"))
        got = certify_couple(spec, claim)
        assert isinstance(got, Mismatch)
        assert got.failed_check == "moduli_order"
        assert got.actual_order is None

    def test_moduli_tied_by_rationalization(self):
        # the float moduli differ, but both round to 3/10 at 12 digits
        spec = rationalize(RootSpec(real_roots=(0.3000000000001, -0.3000000000002, 0.9)))
        got = certify_couple(spec, ModuliCouple(parse_pattern("+--+"), ModuliOrder("PNP")))
        assert isinstance(got, Mismatch)
        assert got.failed_check == "moduli_order"

    def test_float_exact_sign_agreement(self):
        agreed = 0
        for case in range(2000):
            spec = random_rootspec(2718, case)
            sv = sign_tuple(expand_from_roots(spec).coeffs)
            if sv is None:
                continue
            exact = exact_sign_pattern(exact_expand(rationalize(spec)))
            assert exact.signs == sv
            agreed += 1
        assert agreed > 1000


class TestCertifyGapClass:
    def test_degree6_witness(self):
        got = certify_gap_class([rationalize_value(x) for x in GAP_D6_ROOTS])
        assert isinstance(got, Certificate)
        assert got.claim == "L-R+"

    def test_cubic(self):
        got = certify_gap_class([Fraction(-1), Fraction(0), Fraction(1)])
        assert got.claim == "L+R-"

    def test_near_tie_is_undecided(self):
        # margin ~ 2^-2203 cannot separate within the refinement cap
        k = 1100
        b = Fraction(2**k - 1, 2**k)
        got = certify_gap_class([Fraction(-1), -b, b, Fraction(1)])
        assert isinstance(got, Mismatch)
        assert got.failed_check == "gap_class"
        assert got.detail == f"undecided after {GAP_REFINE_CAP} rounds"

    def test_roots_tied_by_rationalization(self):
        # distinct floats with a float class; both middle roots round to 3/10
        xs = [-0.7, 0.3000000000001, 0.3000000000002, 0.9]
        assert gap_report(xs).gap_class == "L+R-"
        got = certify_gap_class([rationalize_value(x) for x in xs])
        assert isinstance(got, Mismatch)
        assert got.failed_check == "simple_roots"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_gap_class([Fraction(0), Fraction(1)])
        with pytest.raises(ValueError):
            certify_gap_class([Fraction(1), Fraction(0), Fraction(2)])


def test_fraction_str():
    assert fraction_str(Fraction(-3, 7)) == "-3/7"
