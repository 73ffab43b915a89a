import math
import struct
from fractions import Fraction

import pytest

from conftest import random_distinct_sorted
from polyrealize import criticalgaps
from polyrealize.criticalgaps import (
    BISECTION_REL_TOL,
    GAP_CLASSES,
    MARGIN_EPS,
    DegenerateMarginError,
    TiedRootsError,
    UnsortedRootsError,
    critical_points,
    gap_report,
    match,
    midpoints,
    xi_gap_bounds,
)
GAP_D6_ROOTS = [-0.19, -0.18, 0.13, 0.21, 0.67, 0.96]
GAP_D6_XI = [-0.1850968062, -0.02957083052, 0.1718593928, 0.5155057599, 0.8606358173]
# finite roots whose midpoints overflow to inf
HUGE_ROOTS = [1e308, 1.5e308, 1.7e308]


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

    def test_tiny_roots_scale_the_critical_points(self):
        # P'(1e-200) = (1e-200 - 2e-200)(1e-200 - 3e-200) = 2e-400 underflows to 0,
        # but the bisection never evaluates P' and only reads the sign of P'/P
        want = [1e-200 * v for v in critical_points([1.0, 2.0, 3.0])]
        assert critical_points([1e-200, 2e-200, 3e-200]) == pytest.approx(want, rel=1e-12)

    def test_interlacing(self):
        for case in range(300):
            n = 3 + case % 6
            xs = random_distinct_sorted(421, case, n)
            xi = critical_points(xs)
            for k, v in enumerate(xi):
                assert xs[k] < v < xs[k + 1]


class TestXiGapBounds:
    def test_floats_and_fractions(self):
        lo, hi = [0.0, 2.0, 5.0], [1.0, 3.0, 7.0]
        # gap 0 in [2 - 1, 3 - 0] = [1, 3], gap 1 in [5 - 3, 7 - 2] = [2, 5]
        assert xi_gap_bounds(lo, hi) == (1.0, 3.0, 2.0, 5.0)
        got = xi_gap_bounds([Fraction(v) for v in lo], [Fraction(v) for v in hi])
        assert got == (1, 3, 2, 5)
        assert all(isinstance(v, Fraction) for v in got)

    def test_points_give_the_gaps(self):
        xi = critical_points(GAP_D6_ROOTS)
        gaps = [b - a for a, b in zip(xi, xi[1:])]
        assert xi_gap_bounds(xi, xi) == (min(gaps), min(gaps), max(gaps), max(gaps))


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

    def test_nan_margins_are_degenerate(self):
        # the midpoints overflow to inf, so both margins are NaN
        with pytest.raises(DegenerateMarginError):
            gap_report(HUGE_ROOTS)

    def test_degenerate_messages_name_the_cause(self):
        with pytest.raises(DegenerateMarginError, match=r"^margins \(nan, nan\) are not finite$"):
            gap_report(HUGE_ROOTS)
        with pytest.raises(DegenerateMarginError, match="too small to classify in floats"):
            gap_report([1e-200, 2e-200, 3e-200])

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


# --- reference: the product-form bisection that the sign-only kernel replaced ---

def _derivative_at_from_roots(roots, x):
    """P'(x) for P = prod (x - r), evaluated from root differences."""
    prod = 1.0
    zero_seen = False
    for r in roots:
        d = x - r
        if d == 0.0:
            if zero_seen:
                return 0.0  # multiple root
            zero_seen = True
        else:
            prod *= d
    if zero_seen:
        return prod
    s = 0.0
    for r in roots:
        s += 1.0 / (x - r)
    return prod * s


def _reference_bisect(x, lo, hi, tol):
    flo = _derivative_at_from_roots(x, lo)
    fhi = _derivative_at_from_roots(x, hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no derivative sign change over ({lo!r}, {hi!r})")
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        fm = _derivative_at_from_roots(x, mid)
        if fm == 0.0:
            return mid, mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def _reference_critical_points_with_widths(x):
    tol = BISECTION_REL_TOL * (x[-1] - x[0])
    xi = []
    widths = []
    for k in range(len(x) - 1):
        lo, hi = _reference_bisect(x, x[k], x[k + 1], tol)
        xi.append(0.5 * (lo + hi))
        widths.append(0.5 * (hi - lo))
    return xi, widths


def _reference_match(xs, target):
    try:
        rpt = gap_report(xs)
    except DegenerateMarginError:
        return None
    return rpt if rpt.gap_class == target else None


def _bits(values):
    return [struct.pack("d", v) for v in values]


ELLS = (2.0**-30, 1.0, 2.0**30)


class TestSignOnlyKernel:
    @pytest.mark.parametrize("draws", [300, pytest.param(10_000, marks=pytest.mark.slow)])
    def test_bit_identical_to_product_form(self, draws):
        for d in range(3, 13):
            for ell in ELLS:
                for case in range(draws):
                    xs = random_distinct_sorted(500 + d, case, d, spread=ell)
                    want_xi, want_w = _reference_critical_points_with_widths(xs)
                    lo, hi = xs[:-1], xs[1:]
                    criticalgaps._refine(xs, lo, hi, BISECTION_REL_TOL * (xs[-1] - xs[0]))
                    got_xi = [0.5 * (a + b) for a, b in zip(lo, hi)]
                    got_w = [0.5 * (b - a) for a, b in zip(lo, hi)]
                    assert _bits(got_xi) == _bits(want_xi), (d, ell, case)
                    assert _bits(got_w) == _bits(want_w), (d, ell, case)

    def test_public_paths_share_the_kernel(self):
        xs = random_distinct_sorted(77, 0, 7)
        xi, widths = _reference_critical_points_with_widths(xs)
        rpt = gap_report(xs)
        assert _bits(critical_points(xs)) == _bits(xi) == _bits(rpt.xi)
        assert _bits(rpt.xi_halfwidth) == _bits(widths)

    def test_gap_report_tiny_roots_are_degenerate(self):
        # both margins are of order 1e-200, far under MARGIN_EPS
        with pytest.raises(DegenerateMarginError):
            gap_report([1e-200, 2e-200, 3e-200])


def _margins(xs):
    """gap_report's two margins, also where it would call them degenerate."""
    z = midpoints(xs)
    xi = critical_points(xs)
    z_gaps = [b - a for a, b in zip(z, z[1:])]
    xi_gaps = [b - a for a, b in zip(xi, xi[1:])]
    return min(xi_gaps) - min(z_gaps), max(z_gaps) - max(xi_gaps)


def _near_degenerate_roots():
    """Root sets with a margin steered to within 10 * MARGIN_EPS of +-MARGIN_EPS.

    For each degree and side, two random root sets whose margins on that side
    have opposite signs are joined by a straight path (a convex combination of
    sorted vectors stays sorted); bisection on the path parameter then hits
    each target margin.
    """
    offsets = (-9.0, -3.0, -1.0, -0.5, -0.1, -1e-3, 0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 9.0)
    found = []
    for d in (5, 6, 8):  # sampled degree-3 and degree-4 root sets are all L+
        for side in (0, 1):
            ends = {}
            case = 0
            while len(ends) < 2:
                xs = random_distinct_sorted(600 + d, case, d)
                case += 1
                ends.setdefault(_margins(xs)[side] > 0, xs)
            a, b = ends[True], ends[False]

            def path(t):
                return [(1.0 - t) * p + t * q for p, q in zip(a, b)]

            for sign in (1.0, -1.0):
                for off in offsets:
                    target = sign * MARGIN_EPS * (1.0 + off)
                    t0, t1 = 0.0, 1.0  # margin - target is > 0 at t0 and < 0 at t1
                    for _ in range(60):
                        mid = 0.5 * (t0 + t1)
                        if _margins(path(mid))[side] > target:
                            t0 = mid
                        else:
                            t1 = mid
                    found.append(path(t0))
    return found


class TestMatch:
    def test_equals_gap_report_then_compare(self):
        for d in range(3, 13):
            for ell in ELLS:
                for case in range(100):
                    xs = random_distinct_sorted(700 + d, case, d, spread=ell)
                    for target in GAP_CLASSES:
                        assert match(xs, target) == _reference_match(xs, target), (
                            d, ell, case, target)

    def test_near_degenerate_margins(self):
        roots = _near_degenerate_roots()
        sides = {"+": 0, "-": 0, "degenerate": 0}
        for xs in roots:
            near = [m for m in _margins(xs) if abs(abs(m) - MARGIN_EPS) <= 10 * MARGIN_EPS]
            assert near, xs
            for m in near:
                sides["degenerate" if abs(m) < MARGIN_EPS else "+-"[m < 0]] += 1
            for target in GAP_CLASSES:
                assert match(xs, target) == _reference_match(xs, target), (xs, target)
        assert min(sides.values()) > 0, sides

    def test_degenerate_inputs_are_none(self):
        b = 1.0 - 2e-5
        for target in GAP_CLASSES:
            assert match([-1.0, -b, b, 1.0], target) is None
            assert match([1e-200, 2e-200, 3e-200], target) is None

    def test_nan_margins_are_none(self):
        for target in GAP_CLASSES:
            assert match(HUGE_ROOTS, target) is None

    def test_found_report_is_gap_report(self):
        assert match(GAP_D6_ROOTS, "L-R+") == gap_report(GAP_D6_ROOTS)
        assert match(GAP_D6_ROOTS, "L+R+") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            match(GAP_D6_ROOTS, "L*R+")
        with pytest.raises(UnsortedRootsError):
            match([1.0, 0.0, 2.0], "L+R-")
