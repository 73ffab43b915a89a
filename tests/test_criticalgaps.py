import math

import pytest

from conftest import random_distinct_sorted
from polyrealize.criticalgaps import (
    DegenerateMarginError,
    NoSignChangeError,
    TiedRootsError,
    UnsortedRootsError,
    critical_points,
    gap_report,
    midpoints,
)
GAP_D6_ROOTS = [-0.19, -0.18, 0.13, 0.21, 0.67, 0.96]
GAP_D6_XI = [-0.1850968062, -0.02957083052, 0.1718593928, 0.5155057599, 0.8606358173]


class TestMidpoints:
    def test_degree6_witness(self):
        got = midpoints(GAP_D6_ROOTS)
        assert got == pytest.approx([-0.185, -0.025, 0.17, 0.44, 0.815], abs=1e-12)

    def test_two_roots(self):
        assert midpoints([0.0, 2.0]) == [1.0]

    def test_arithmetic_progression(self):
        xs = [0.3 + 0.2 * k for k in range(7)]
        z = midpoints(xs)
        assert all(abs((b - a) - 0.2) < 1e-12 for a, b in zip(z, z[1:]))

    def test_errors(self):
        with pytest.raises(UnsortedRootsError):
            midpoints([1.0, 0.0])
        with pytest.raises(TiedRootsError):
            midpoints([1.0, 1.0])
        with pytest.raises(ValueError):
            midpoints([1.0])


class TestCriticalPoints:
    def test_degree6_witness_xi(self):
        got = critical_points(GAP_D6_ROOTS)
        assert got == pytest.approx(GAP_D6_XI, abs=1e-6)

    def test_parabola(self):
        got = critical_points([-1.0, 1.0])
        assert got == pytest.approx([0.0], abs=1e-12)

    def test_cubic_analytic(self):
        got = critical_points([-1.0, 0.0, 1.0])
        s = 1.0 / math.sqrt(3.0)
        assert got == pytest.approx([-s, s], abs=1e-9)

    def test_multiple_roots_rejected(self):
        with pytest.raises(TiedRootsError):
            critical_points([1.0, 1.0])

    def test_unsorted_and_too_few_rejected(self):
        with pytest.raises(UnsortedRootsError):
            critical_points([1.0, 0.0])
        with pytest.raises(ValueError):
            critical_points([1.0])

    def test_no_sign_change_when_derivative_underflows(self):
        # P'(1e-200) = (1e-200 - 2e-200)(1e-200 - 3e-200) = 2e-400 underflows to 0
        with pytest.raises(NoSignChangeError):
            critical_points([1e-200, 2e-200, 3e-200])

    def test_interlacing(self):
        for case in range(300):
            n = 3 + case % 6
            xs = random_distinct_sorted(421, case, n)
            xi = critical_points(xs)
            for k, v in enumerate(xi):
                assert xs[k] < v < xs[k + 1]


class TestGapReport:
    def test_degree6_witness(self):
        rpt = gap_report(GAP_D6_ROOTS)
        assert rpt.m_tilde == pytest.approx(0.16, abs=1e-12)
        assert rpt.M_tilde == pytest.approx(0.375, abs=1e-12)
        assert rpt.m_prime == pytest.approx(0.1555259757, abs=1e-9)
        assert rpt.M_prime == pytest.approx(0.3451300574, abs=1e-9)
        assert rpt.gap_class == "L-R+"
        assert rpt.margins[0] < 0 < rpt.margins[1]

    def test_equally_spaced_four_roots(self):
        # analytic oracle: critical points of x(x-1)(x-2)(x-3) are
        # (3-sqrt(5))/2, 3/2, (3+sqrt(5))/2, so both critical gaps are
        # sqrt(5)/2 > 1 while all midpoint gaps equal 1
        rpt = gap_report([0.0, 1.0, 2.0, 3.0])
        s5 = math.sqrt(5.0)
        assert rpt.xi == pytest.approx([(3 - s5) / 2, 1.5, (3 + s5) / 2], abs=1e-9)
        assert rpt.m_tilde == rpt.M_tilde == 1.0
        assert rpt.m_prime == pytest.approx(s5 / 2, abs=1e-9)
        assert rpt.gap_class == "L+R-"

    def test_cubic(self):
        rpt = gap_report([-1.0, 0.0, 1.0])
        assert rpt.m_tilde == rpt.M_tilde == 1.0
        assert rpt.m_prime == pytest.approx(2 / math.sqrt(3), abs=1e-9)
        assert rpt.gap_class == "L+R-"

    def test_needs_three_roots(self):
        with pytest.raises(ValueError):
            gap_report([0.0, 1.0])

    def test_degenerate_margin(self):
        # symmetric near-tie: margin ~ (a-b)^2/8 falls under the threshold
        b = 1.0 - 2e-5
        with pytest.raises(DegenerateMarginError):
            gap_report([-1.0, -b, b, 1.0])

    def test_translation_invariance(self):
        for case in range(60):
            xs = random_distinct_sorted(99, case, 3 + case % 5)
            base = gap_report(xs)
            for t in (-3.7, 12.25):
                shifted = gap_report([x + t for x in xs])
                assert shifted.gap_class == base.gap_class
                for a, b in [
                    (shifted.m_p, base.m_p), (shifted.M_p, base.M_p),
                    (shifted.m_tilde, base.m_tilde), (shifted.M_tilde, base.M_tilde),
                    (shifted.m_prime, base.m_prime), (shifted.M_prime, base.M_prime),
                ]:
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_scale_equivariance(self):
        for case in range(60):
            xs = random_distinct_sorted(98, case, 3 + case % 5)
            base = gap_report(xs)
            for s in (0.5, 3.0):
                scaled = gap_report([s * x for x in xs])
                assert scaled.gap_class == base.gap_class
                for a, b in [
                    (scaled.m_p, base.m_p), (scaled.M_p, base.M_p),
                    (scaled.m_tilde, base.m_tilde), (scaled.M_tilde, base.M_tilde),
                    (scaled.m_prime, base.m_prime), (scaled.M_prime, base.M_prime),
                ]:
                    assert abs(a - s * b) <= 1e-9 * max(1.0, abs(s * b))

    def test_consistency(self):
        for case in range(200):
            xs = random_distinct_sorted(97, case, 3 + case % 6)
            try:
                rpt = gap_report(xs)
            except DegenerateMarginError:
                continue
            assert rpt.m_p <= rpt.M_p
            assert rpt.m_tilde <= rpt.M_tilde
            assert rpt.m_prime <= rpt.M_prime
            direct = min((xs[k + 2] - xs[k]) / 2 for k in range(len(xs) - 2))
            assert rpt.m_tilde == direct
