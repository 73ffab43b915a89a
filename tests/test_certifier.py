import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from conftest import q1_spec, random_distinct_sorted, random_rootspec, unit_draws
from polyrealize.catalog import catalog_lookup
from polyrealize.certifier import (
    GAP_REFINE_CAP,
    Certificate,
    Mismatch,
    RootSumIdentityError,
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
from polyrealize.moduliorders import (
    ModuliCouple,
    ModuliOrder,
    TiedModuliError,
    order_from_roots,
    parse_order,
)
from polyrealize.polycore import (
    RootSpec,
    derivative_coeffs,
    expand,
    expand_from_roots,
    horner,
    sign_tuple,
)
from polyrealize.sampler import (
    Mixture,
    MultiplicityBias,
    SearchConfig,
    Uniform,
    draw_rootspec_pair,
)
from polyrealize.signpatterns import (
    PairCouple,
    RootCountPair,
    SignPattern,
    compatible_pairs,
    descartes_pair,
    from_runs,
    is_compatible_pair,
    parse_pattern,
)
from polyrealize.sweeps import _g1_spec, _g2_spec


GAP_D6_ROOTS = (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96)


class TestRationalize:
    def test_three_digits(self):
        assert rationalize_value(0.723, 3) == Fraction(723, 1000)

    def test_five_digits_negative(self):
        assert rationalize_value(-0.0025040322, 5) == Fraction(-25040, 10**7)

    @pytest.mark.parametrize("v", [0.0, -0.0, 0])
    def test_zero_is_exact(self, v):
        got = rationalize_value(v)
        assert got == 0 and type(got) is Fraction

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

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, v):
        with pytest.raises(ValueError, match="is not finite"):
            rationalize_value(v)

    @pytest.mark.parametrize("v", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_too_large_for_a_float_rejected(self, v):
        with pytest.raises(ValueError, match="is too large for a float"):
            rationalize_value(v)

    @pytest.mark.parametrize("v, name", [
        (10**5000, "int"), (-(10**5000), "int"), (Fraction(10**5000, 3), "Fraction"),
    ], ids=["int", "negative-int", "fraction"])  # the default ids would write the digits
    def test_past_the_int_string_limit_named_by_type_and_size(self, v, name):
        # writing the digits of such a value raises, so the message must not try
        with pytest.raises(ValueError, match=rf"^value \({name}, about 10\*\*5000\) is too "
                                             r"large for a float$"):
            rationalize_value(v)

    @pytest.mark.parametrize("digits", [767, 768, 4300, 4301, 10**6])
    def test_enough_digits_give_the_float_itself(self, digits):
        # 767 significant digits write every finite double exactly; the
        # largest subnormal needs all of them
        rng = random.Random(767)
        edges = [5e-324, float.fromhex("0x0.fffffffffffffp-1022"), sys.float_info.max]
        values = edges + [-v for v in edges]
        while len(values) < 1000:
            v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(v):
                values.append(v)
        for v in values:
            assert rationalize_value(v, digits) == Fraction(v), (v, digits)


class TestExactExpand:
    def test_middle_coefficient_exactly_zero(self):
        coeffs = exact_expand(RootSpec(real_roots=(Fraction(1), Fraction(-1))))
        assert coeffs == (1, 0, -1)
        with pytest.raises(ZeroCoefficientError):
            exact_sign_pattern(coeffs)

    def test_q1_signs(self):
        coeffs = exact_expand(rationalize(q1_spec()))
        assert exact_sign_pattern(coeffs).word == "+---++"

    def test_subdominant_equals_negated_root_sum(self):
        # independent oracle: sum the roots by hand
        spec = rationalize(catalog_lookup("c1").payload["spec"])
        coeffs = exact_expand(spec)
        total = sum(spec.real_roots) + 2 * sum(re for re, _ in spec.complex_pairs)
        assert coeffs[1] == -total


class TestCertifyCouple:
    def test_degree_zero_claim_rejected(self):
        with pytest.raises(ValueError, match="need degree >= 1"):
            certify_couple(RootSpec(), PairCouple(SignPattern((1,)), RootCountPair(0, 0)))

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


# --- reference: the endpoint-evaluating gap certifier that the fixed-sign one replaced ---

def _reference_halve(dcoeffs, lo, hi, flo):
    mid = (lo + hi) / 2
    fm = horner(dcoeffs, mid)
    if fm == 0:
        return mid, mid, flo
    if (fm > 0) == (flo > 0):
        return mid, hi, fm
    return lo, mid, flo


def _reference_certify_gap_class(roots):
    roots = [Fraction(r) for r in roots]
    if len(set(roots)) < len(roots):
        return Mismatch("simple_roots", "two roots are equal")

    z_gaps = [(roots[k + 2] - roots[k]) / 2 for k in range(len(roots) - 2)]
    m_tilde, M_tilde = min(z_gaps), max(z_gaps)
    coeffs = tuple(expand(roots, (), Fraction(1)))
    dcoeffs = derivative_coeffs(coeffs)

    intervals = []
    for k in range(len(roots) - 1):
        lo, hi = roots[k], roots[k + 1]
        flo = horner(dcoeffs, lo)
        fhi = horner(dcoeffs, hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise ValueError("derivative does not change sign; roots are not simple")
        intervals.append((lo, hi, flo))

    for _ in range(GAP_REFINE_CAP + 1):
        gap_lo = [intervals[k + 1][0] - intervals[k][1] for k in range(len(intervals) - 1)]
        gap_hi = [intervals[k + 1][1] - intervals[k][0] for k in range(len(intervals) - 1)]
        m_lo, m_hi = min(gap_lo), min(gap_hi)
        M_lo, M_hi = max(gap_lo), max(gap_hi)

        left = "L+" if m_lo > m_tilde else ("L-" if m_hi < m_tilde else None)
        right = "R+" if M_hi < M_tilde else ("R-" if M_lo > M_tilde else None)
        if left and right:
            checks = (
                ("m_tilde", str(m_tilde)),
                ("M_tilde", str(M_tilde)),
                ("m_prime_bounds", f"[{m_lo}, {m_hi}]"),
                ("M_prime_bounds", f"[{M_lo}, {M_hi}]"),
            )
            return Certificate(spec=None, coeffs=coeffs, claim=left + right, checks=checks)

        intervals = [
            _reference_halve(dcoeffs, lo, hi, flo) if lo != hi else (lo, hi, flo)
            for lo, hi, flo in intervals
        ]
    return Mismatch("gap_class", f"undecided after {GAP_REFINE_CAP} rounds")


def _gap_inputs():
    """Rationalized draws, then zero-root, tie and near-tie inputs."""
    for d in range(3, 9):
        for digits in (3, 6, 12):
            for scale in (1e-3, 1.0, 1e3):
                for case in range(6):
                    xs = random_distinct_sorted(900 + d, case, d, spread=scale)
                    yield [rationalize_value(x, digits) for x in xs]
    yield [Fraction(-1), Fraction(0), Fraction(1)]
    yield [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]
    yield [Fraction(-7, 4), Fraction(-1), Fraction(0)]
    yield [rationalize_value(x) for x in (-0.7, 0.3000000000001, 0.3000000000002, 0.9)]
    for k in (10, 60, 1100):
        b = Fraction(2**k - 1, 2**k)
        yield [Fraction(-1), -b, b, Fraction(1)]


def test_gap_certificates_match_endpoint_reference():
    inputs = list(_gap_inputs())
    verdicts = set()
    for roots in inputs:
        got = certify_gap_class(roots)
        assert got == _reference_certify_gap_class(roots), roots
        verdicts.add(got.claim if isinstance(got, Certificate) else got.failed_check)
    assert len(inputs) > 300
    # no sampled input is L-R-
    assert verdicts == {"L+R+", "L+R-", "L-R+", "simple_roots", "gap_class"}, verdicts


def test_high_degree_gap_certificates_match_endpoint_reference():
    # degrees 9-12: the sizes the benchmark's witness workload certifies
    verdicts = set()
    for d in range(9, 13):
        for digits in (3, 6, 12):
            for scale in (1e-3, 1.0, 1e3):
                for case in range(2):
                    xs = random_distinct_sorted(1900 + d, case, d, spread=scale)
                    roots = [rationalize_value(x, digits) for x in xs]
                    got = certify_gap_class(roots)
                    assert got == _reference_certify_gap_class(roots), roots
                    verdicts.add(got.claim if isinstance(got, Certificate) else got.failed_check)
    assert {"L+R+", "L+R-", "simple_roots"} <= verdicts, verdicts


# --- reference: the Fraction-based rationalization and couple certifier that
# the integer back end replaced ---

def _reference_rationalize_value(v, digits):
    mant, exp = format(float(v), f".{digits - 1}e").split("e")
    return Fraction(mant) * Fraction(10) ** int(exp)


def _reference_exact_expand(spec):
    return tuple(expand(
        [Fraction(r) for r in spec.real_roots],
        [(Fraction(re), Fraction(im)) for re, im in spec.complex_pairs],
        Fraction(1),
    ))


def _reference_sign_pattern(coeffs):
    signs = []
    for i, c in enumerate(coeffs):
        if c == 0:
            raise ZeroCoefficientError(f"coefficient of x^{len(coeffs) - 1 - i} is exactly zero")
        signs.append(1 if c > 0 else -1)
    return SignPattern(tuple(signs))


def _reference_certify_couple(spec, claim):
    coeffs = _reference_exact_expand(spec)
    checks = []
    pos = spec.pos_count
    neg = spec.neg_count
    try:
        actual = _reference_sign_pattern(coeffs)
    except ZeroCoefficientError as exc:
        return Mismatch("sign_vector", str(exc), actual_pair=(pos, neg))
    if actual != claim.pattern:
        return Mismatch(
            "sign_vector",
            f"expansion has sign word {actual.word}, claim is {claim.pattern.word}",
            actual_pattern=actual,
            actual_pair=(pos, neg),
        )
    checks.append(("sign_vector", actual.word))
    if isinstance(claim, PairCouple):
        if (pos, neg) != tuple(claim.pair):
            return Mismatch(
                "root_counts",
                f"spec has (pos, neg) = ({pos}, {neg}), claim is {tuple(claim.pair)}",
                actual_pattern=actual,
                actual_pair=(pos, neg),
            )
        checks.append(("root_counts", f"({pos},{neg})"))
    else:
        if spec.complex_pairs:
            return Mismatch(
                "hyperbolic",
                "moduli claims need all roots real",
                actual_pattern=actual,
                actual_pair=(pos, neg),
            )
        checks.append(("hyperbolic", "all roots real"))
        try:
            order = order_from_roots(spec.real_roots)
        except TiedModuliError as exc:
            return Mismatch(
                "moduli_order", str(exc), actual_pattern=actual, actual_pair=(pos, neg)
            )
        if order != claim.order:
            return Mismatch(
                "moduli_order",
                f"roots give order {order.word}, claim is {claim.order.word}",
                actual_pattern=actual,
                actual_pair=(pos, neg),
                actual_order=order,
            )
        checks.append(("moduli_order", order.word))
    root_sum = sum((Fraction(r) for r in spec.real_roots), Fraction(0))
    root_sum += sum((2 * Fraction(re) for re, _ in spec.complex_pairs), Fraction(0))
    if coeffs[1] != -root_sum:
        raise RootSumIdentityError(
            f"subdominant coefficient {coeffs[1]} is not minus the root sum {root_sum}"
        )
    checks.append(("subdominant_identity", str(coeffs[1])))
    return Certificate(spec=spec, coeffs=coeffs, claim=claim, checks=tuple(checks))


def _claims(spec):
    """A true pair claim, then claims that fail each check the spec allows."""
    coeffs = _reference_exact_expand(spec)
    d = len(coeffs) - 1
    pos, neg = spec.pos_count, spec.neg_count
    if any(c == 0 for c in coeffs):
        yield PairCouple(SignPattern((1,) * (d + 1)), RootCountPair(0, d % 2))
        return
    actual = _reference_sign_pattern(coeffs)
    yield PairCouple(actual, RootCountPair(pos, neg))
    flipped = SignPattern(actual.signs[:-1] + (-actual.signs[-1],))
    if is_compatible_pair(flipped, RootCountPair(pos, neg)):
        yield PairCouple(flipped, RootCountPair(pos, neg))
    wrong_pairs = [p for p in compatible_pairs(actual) if p != (pos, neg)]
    if wrong_pairs:
        yield PairCouple(actual, wrong_pairs[0])
    # all-real specs: a true claim or moduli_order; others fail "hyperbolic"
    c, p = descartes_pair(actual)
    yield ModuliCouple(actual, ModuliOrder("P" * c + "N" * p))
    if not spec.complex_pairs:
        try:
            order = order_from_roots(spec.real_roots)
        except TiedModuliError:
            return
        yield ModuliCouple(actual, order)
        yield ModuliCouple(actual, ModuliOrder(order.word[::-1]))


def _couple_inputs():
    """Search draws, all-real draws, orbit-mapped and rescaled specs, edge cases."""
    drawn = []
    strategies = (Uniform(), Mixture(), MultiplicityBias())
    t = 0
    for d in range(1, 9):
        pairs = [
            RootCountPair(p, q)
            for p in range(d + 1) for q in range(d + 1 - p) if (d - p - q) % 2 == 0
        ]
        for strategy in strategies:
            for digits in (3, 6, 12):
                for ell in (2.0**-30, 1.0, 2.0**30):
                    cfg = SearchConfig(n=1, ell=ell, seed=d, strategy=strategy, digits=digits)
                    for _ in range(2):
                        t += 1
                        spec = draw_rootspec_pair(d, pairs[t % len(pairs)], cfg, t)
                        drawn.append(rationalize(spec, digits))
    yield from drawn
    for d in range(2, 9):
        for case in range(12):
            xs = random_distinct_sorted(3100 + d, case, d)
            yield rationalize(RootSpec(real_roots=tuple(xs)), 3 + case % 10)
    # reciprocals and rescalings: denominators that are not powers of ten
    for spec in drawn[::7]:
        yield _g2_spec(spec)
        yield _g2_spec(_g1_spec(spec))
        yield spec.map(lambda v: Fraction(v) * Fraction(2, 3))
    yield RootSpec(complex_pairs=((Fraction(0), Fraction(1, 2)),))
    yield RootSpec(
        real_roots=(Fraction(-3, 10),),
        complex_pairs=((Fraction(0), Fraction(7, 10)), (Fraction(1, 5), Fraction(1, 3))),
    )
    yield rationalize(RootSpec(real_roots=(0.4,), complex_pairs=((0.0, 0.25), (-0.0, 2.5))))
    yield RootSpec(real_roots=(Fraction(1), Fraction(-1)))
    yield RootSpec(real_roots=(Fraction(1), Fraction(-1), Fraction(2)))
    yield rationalize(RootSpec(real_roots=(0.3000000000001, -0.3000000000002, 0.9)))


def test_couple_certificates_match_fraction_reference():
    outcomes = set()
    count = 0
    for spec in _couple_inputs():
        for claim in _claims(spec):
            got = certify_couple(spec, claim)
            ref = _reference_certify_couple(spec, claim)
            assert got == ref and repr(got) == repr(ref), (spec, claim)
            outcomes.add("certificate" if isinstance(got, Certificate) else got.failed_check)
            count += 1
    assert count > 2000
    assert outcomes == {"certificate", "sign_vector", "root_counts", "hyperbolic",
                        "moduli_order"}, outcomes


def _moduli_inputs():
    """All-real specs for moduli claims: search draws, then moduli tied exactly."""
    cfg = SearchConfig(n=1, seed=18, strategy=Mixture(narrow_scale=0.05))
    for t in range(1, 121):
        d = 2 + t % 7
        mods = sorted(set(x for x in unit_draws(cfg.seed, t, d)))
        signs = unit_draws(cfg.seed + 1, t, len(mods))
        roots = [m if s < 0.5 else -m for m, s in zip(mods, signs)]
        yield rationalize(RootSpec(real_roots=tuple(roots)), 2 + t % 11)
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    for roots in ((third, -third, Fraction(-5, 4)), (third, -third, seventh), (-seventh, Fraction(5, 2), seventh),
                  (third, seventh, -third, Fraction(-2, 7), Fraction(2, 7)),
                  (Fraction(-9, 10), Fraction(9, 10), Fraction(-9, 10))):
        yield RootSpec(real_roots=roots)
    # tied only after rationalization
    yield rationalize(RootSpec(real_roots=(0.3000000000001, -0.3000000000002, 0.9)))


def test_moduli_order_from_integer_roots_matches_fraction_reference():
    # the order is read from the integer roots D*r; every Certificate and Mismatch,
    # the tie's detail included, is the one the Fraction roots give
    outcomes = []
    for spec in _moduli_inputs():
        try:
            signs = _reference_sign_pattern(_reference_exact_expand(spec))
        except ZeroCoefficientError:  # fails the sign vector before the order is read
            continue
        try:
            order = order_from_roots(spec.real_roots)
            claims = [order, ModuliOrder(order.word[::-1]),
                      ModuliOrder(order.word[1:] + order.word[0])]
        except TiedModuliError:
            c, p = descartes_pair(signs)
            claims = [ModuliOrder("P" * c + "N" * p)]
        for word in claims:
            claim = ModuliCouple(signs, word)
            got = certify_couple(spec, claim)
            ref = _reference_certify_couple(spec, claim)
            assert got == ref and repr(got) == repr(ref), (spec, claim)
            outcomes.append(got.detail.split()[0] if isinstance(got, Mismatch) else "certificate")
    assert {"certificate", "roots", "tied"} <= set(outcomes), outcomes
    assert outcomes.count("tied") >= 6


def _float_inputs():
    """Extremes, powers of ten and draws over the whole exponent range, both signs."""
    tiny, huge = 5e-324, sys.float_info.max
    yield from (tiny, -tiny, huge, -huge, sys.float_info.min, 1.0, 0.1, 9.5, 0.5, 2.0**-30)
    for k in range(-323, 309):
        x = float(f"1e{k}")
        yield x
        yield -x
    for i in range(9000):
        u = unit_draws(4242, i, 3)
        x = math.ldexp(0.5 + u[0] / 2, int(u[1] * 2098) - 1074)
        yield x if u[2] < 0.5 else -x


def test_rationalize_value_matches_fraction_reference():
    floats = list(_float_inputs())
    count = 0
    for x in floats:
        for digits in range(1, 18):
            got = rationalize_value(x, digits)
            assert type(got) is Fraction
            assert got == _reference_rationalize_value(x, digits), (x, digits)
            count += 1
    assert len(set(floats)) >= 10**4
    assert count == 17 * len(floats)


def test_fraction_str():
    assert fraction_str(Fraction(-3, 7)) == "-3/7"
