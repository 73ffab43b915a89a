import dataclasses
import functools
import math
import random
import struct
from fractions import Fraction

import pytest

from conftest import random_distinct_sorted, unit_draws
from polyrealize import criticalgaps, sampler
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
from polyrealize.sampler import SearchConfig
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
        with pytest.raises(ValueError, match="midpoints are not finite"):
            midpoints([0.0, math.nan, 1.0])
        with pytest.raises(ValueError, match="midpoints are not finite"):
            midpoints(HUGE_ROOTS)


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
        for bad in (HUGE_ROOTS, [-1.7e308, -1.5e308, 1e308], [0.0, math.nan, 1.0]):
            with pytest.raises(ValueError, match="critical points are not finite"):
                critical_points(bad)

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


def _fraction_root_sets(count):
    """`count` sets of five distinct random rationals, in increasing order."""
    rng = random.Random(1)
    for _ in range(count):
        xs = set()
        while len(xs) < 5:
            xs.add(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        yield sorted(xs)


class TestAnyRealType:
    def test_fraction_roots_agree_with_gap_report(self):
        # each function converts to floats before any arithmetic, so summing
        # Fractions first and rounding after cannot make them disagree
        for x in _fraction_root_sets(2000):
            rpt = gap_report(x)
            assert critical_points(x) == list(rpt.xi), x
            assert midpoints(x) == list(rpt.z), x

    def test_rationals_that_round_to_one_float_are_tied(self):
        a = Fraction(1, 3)
        x = [a, a + Fraction(1, 10**30), Fraction(1)]
        for f in (midpoints, critical_points, gap_report):
            with pytest.raises(TiedRootsError):
                f(x)


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

    def test_nan_last_root_is_not_finite(self):
        # _tolerances is NaN, so no bracket moves and both margins come out 0.0
        with pytest.raises(DegenerateMarginError,
                           match=r"^margins \(0\.0, 0\.0\) rest on roots that are not finite$"):
            gap_report([0.0, 0.5, 1.0, math.nan])

    @pytest.mark.parametrize("where", ["first", "inner", "last"])
    def test_a_nan_root_is_not_finite(self, where):
        for n in range(3, 9):
            spots = {"first": [0], "inner": range(1, n - 1), "last": [n - 1]}[where]
            for spot in spots:
                xs = [float(k) for k in range(n)]
                xs[spot] = math.nan
                with pytest.raises(DegenerateMarginError, match="not finite"):
                    gap_report(xs)
                for target in GAP_CLASSES:
                    assert match(xs, target) is None, (xs, target)

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

    @pytest.mark.parametrize("draws", [300, pytest.param(10_000, marks=pytest.mark.slow)])
    def test_refine_returns_xi_gap_bounds(self, draws):
        # at match's first stage, then refined on to gap_report's tolerance
        for d in range(3, 13):
            for ell in ELLS:
                for case in range(draws):
                    xs = random_distinct_sorted(500 + d, case, d, spread=ell)
                    lo, hi = xs[:-1], xs[1:]
                    span = xs[-1] - xs[0]
                    for tol in (span / 16, BISECTION_REL_TOL * span):
                        got = criticalgaps._refine(xs, lo, hi, tol)
                        assert _bits(got) == _bits(xi_gap_bounds(lo, hi)), (d, ell, case, tol)

    @pytest.mark.parametrize(
        "xs",
        [
            HUGE_ROOTS,  # no midpoint is finite, so no bracket moves
            [0.0, math.nan, 1.0],  # NaN inner bound first
            [0.0, 1.0, math.nan, 2.0, 3.0],  # NaN outer bound first, NaN inner bound later
            [0.0, 1.0, 2.0, math.nan, 3.0],  # NaN bounds after finite ones
            [-math.inf, 0.0, 1.0, 2.0],  # an infinite outer bound
        ],
        ids=["huge", "nan-first", "nan-mixed", "nan-last", "inf"],
    )
    def test_refine_bounds_keep_min_and_max_nan_rule(self, xs):
        lo, hi = xs[:-1], xs[1:]
        got = criticalgaps._refine(xs, lo, hi, 1e-3)
        assert _bits(got) == _bits(xi_gap_bounds(lo, hi))

    @pytest.mark.parametrize(
        "lo, hi",
        [([0.0, 0.0, -0.0], [0.0, 0.0, -0.0]), ([0.0, -0.0, 0.0], [0.0, -0.0, 0.0])],
        ids=["zero-then-negative-zero", "negative-zero-then-zero"],
    )
    def test_refine_bounds_keep_the_first_of_equal_gaps(self, lo, hi):
        # gap bounds 0.0 and -0.0 are equal; min() and max() keep whichever
        # comes first, so a bound may be replaced only on a strict < or >
        want = xi_gap_bounds(lo, hi)
        got = criticalgaps._refine([0.0] * 4, lo, hi, math.inf)  # no bracket moves
        assert _bits(got) == _bits(want)

    def test_refine_single_bracket_has_no_bounds(self):
        lo, hi = [0.0], [1.0]
        assert criticalgaps._refine([0.0, 1.0], lo, hi, 1e-3) == (None, None, None, None)
        assert lo == hi == [0.5]  # still refined: P'/P is exactly 0 at the midpoint

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


def _gap_extrema_of_midpoints(xs):
    z = criticalgaps._midpoints(xs)
    z_gaps = [b - a for a, b in zip(z, z[1:])]
    return min(z_gaps), max(z_gaps)


class TestMidpointGapExtrema:
    def test_equals_min_and_max_of_the_midpoint_gaps(self):
        for d in range(3, 13):
            for ell in ELLS:
                for case in range(300):
                    xs = random_distinct_sorted(800 + d, case, d, spread=ell)
                    got = criticalgaps._midpoint_gap_extrema(xs)
                    assert _bits(got) == _bits(_gap_extrema_of_midpoints(xs)), (d, ell, case)

    @pytest.mark.parametrize(
        "xs",
        [
            HUGE_ROOTS,  # every midpoint is inf, so every gap is NaN
            [0.0, 1.0, math.nan, 2.0, 3.0],  # NaN gaps first
            [0.0, 1.0, 2.0, 3.0, math.nan],  # a NaN gap after finite ones
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],  # all gaps equal
            [0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0],  # the min and max each tie
            [1.0, math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)],
            [0.0, 0.0, -0.0, -0.0],  # gaps 0.0 then -0.0
            [0.0, -0.0, -0.0, -0.0],  # gaps -0.0 then 0.0
        ],
        ids=["huge", "nan-first", "nan-last", "equal", "ties", "adjacent-floats",
             "zero-then-negative-zero", "negative-zero-then-zero"],
    )
    def test_keeps_min_and_max_nan_and_tie_rule(self, xs):
        got = criticalgaps._midpoint_gap_extrema(xs)
        assert _bits(got) == _bits(_gap_extrema_of_midpoints(xs))



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


def _schedule_cases(degrees=range(3, 13)):
    """Root sets of each degree at scales 2^-1000, 1 and 2^1000, half of them clustered.

    A clustered set draws about half its roots from a 0.01-wide interval,
    which puts the gap chain's margins near MARGIN_EPS at scale 1.
    """
    found = []
    for d in degrees:
        for e in (-1000, 0, 1000):
            for case in range(40):
                clustered = case % 2 == 1
                attempt = case
                while True:
                    u = unit_draws(900 + d, attempt, d + 1)
                    vals = [2.0 * v - 1.0 for v in u[1:]]
                    if clustered:
                        c = 1.98 * u[0] - 1.0
                        vals[: d // 2] = [c + 0.01 * v for v in u[1 : d // 2 + 1]]
                    xs = sorted(math.ldexp(v, e) for v in vals)
                    if all(a < b for a, b in zip(xs, xs[1:])):
                        break
                    attempt += 1_000_003
                found.append(xs)
    return found


class _NextStage(Exception):
    """Raised by a stubbed _refine on a kernel's second call, carrying its tolerance."""

    def __init__(self, tol):
        super().__init__(tol)
        self.tol = tol


def _list_kernel_stage_action(stage_bounds, target):
    """What match_kernel(17, target) does after a first stage whose _refine returns stage_bounds.

    Degree 17 is above _KERNEL_MAX_DEGREE, so the kernel keeps its brackets
    in lists and calls criticalgaps._refine once per stage: "ruled out" (it
    returns None at once), "decided" (its next _refine is the full
    refinement) or "refine" (its next _refine is the next stage).  The roots
    0.0 .. 16.0 give m_tilde = M_tilde = 1.0 and the full tolerance
    BISECTION_REL_TOL * 16.0.
    """
    xs = [float(k) for k in range(17)]
    calls = []

    def fake_refine(x, lo, hi, tol):
        calls.append(tol)
        if len(calls) > 1:
            raise _NextStage(tol)
        return stage_bounds

    saved = criticalgaps._refine
    criticalgaps._refine = fake_refine
    try:
        got = criticalgaps.match_kernel(len(xs), target)(xs)
    except _NextStage as stage:
        return "decided" if stage.tol == BISECTION_REL_TOL * 16.0 else "refine"
    finally:
        criticalgaps._refine = saved
    assert got is None and len(calls) == 1
    return "ruled out"


def _kernel_stage_action(stage_bounds, target):
    """What the kernels' stage rule does with a stage's (m_lo, m_hi, M_lo, M_hi).

    The rule is compiled from the lines _stage_rule_source gives every
    kernel (see TestKernel.test_kernels_run_the_shared_stage), with
    m_tilde = M_tilde = 1.0, and reads MARGIN_EPS from criticalgaps when it
    runs: "ruled out" where a kernel returns None, "decided" where it breaks
    out to the full refinement, and "refine" where it goes on to the next stage.
    """
    rule = criticalgaps._stage_rule_source(target, 'return "ruled out"', 'return "decided"')
    src = "def rule(m_lo, m_hi, M_lo, M_hi, m_tilde, M_tilde):\n" + "".join(
        f"    {line}\n" for line in rule + ['return "refine"'])
    namespace = {}
    exec(src, vars(criticalgaps), namespace)
    return namespace["rule"](*stage_bounds, 1.0, 1.0)


class _CountedDivisor(float):
    """A float that counts the divisions by it: t / c calls c.__rtruediv__ first."""

    def __new__(cls, value, counter):
        self = super().__new__(cls, value)
        self.counter = counter
        return self

    def __rtruediv__(self, other):
        self.counter[0] += 1
        return other / float(self)


class TestMatch:
    @pytest.mark.parametrize("draws", [100, pytest.param(10_000, marks=pytest.mark.slow)])
    def test_equals_gap_report_then_compare(self, draws):
        for d in range(3, 13):
            for ell in ELLS:
                for case in range(draws):
                    xs = random_distinct_sorted(700 + d, case, d, spread=ell)
                    for target in GAP_CLASSES:
                        assert match(xs, target) == _reference_match(xs, target), (
                            d, ell, case, target)

    def test_stage_schedule_does_not_change_the_result(self, monkeypatch):
        # every schedule visits a prefix of the same bisection path, so the
        # old one (span/16, then /16 a stage) gives the same reports; each
        # kernel layout must run the schedule it reads: its first stage once
        # per call, and fewer later stages under the old schedule
        layouts = {"unrolled": _schedule_cases(), "lists": _schedule_cases((17, 20))}
        assert max(map(len, layouts["unrolled"])) <= criticalgaps._KERNEL_MAX_DEGREE
        assert min(map(len, layouts["lists"])) > criticalgaps._KERNEL_MAX_DEGREE
        for layout, roots in layouts.items():
            calls = len(roots) * len(GAP_CLASSES)
            runs = {}
            for factor in (4.0, 16.0):
                first, later = [0], [0]
                monkeypatch.setattr(criticalgaps, "_FIRST_STAGE", _CountedDivisor(16.0, first))
                monkeypatch.setattr(criticalgaps, "_STAGE_FACTOR", _CountedDivisor(factor, later))
                got = [[match(xs, t) for t in GAP_CLASSES] for xs in roots]
                assert first[0] == calls, (layout, factor)
                runs[factor] = got, later[0]
            (new, new_stages), (old, old_stages) = runs[4.0], runs[16.0]
            assert 0 < old_stages < new_stages, (layout, old_stages, new_stages)
            monkeypatch.undo()
            for xs, got, want in zip(roots, new, old):
                assert got == want, xs
                assert got == [_reference_match(xs, t) for t in GAP_CLASSES], xs
            hits = {t: sum(row[i] is not None for row in new) for i, t in enumerate(GAP_CLASSES)}
            assert min(hits.values()) > 0, (layout, hits)

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

    def test_stage_margins_on_the_eps_boundary_follow_margin_sign(self, monkeypatch):
        # with a dyadic MARGIN_EPS, bounds at 1.0 +- eps and one ulp either
        # side put each margin exactly on the boundary, one ulp inside and one
        # outside; a side stays possible iff _margin_sign of its bound nearer
        # the target is the target's sign, and is decided iff that of the
        # farther bound is too
        eps = 2.0**-20
        monkeypatch.setattr(criticalgaps, "MARGIN_EPS", eps)
        values = [0.5, 1.0, 1.5]
        for v in (1.0 + eps, 1.0 - eps):
            values += [v, math.nextafter(v, 0.0), math.nextafter(v, 2.0)]
        pairs = [(a, b) for a in values for b in values if a <= b] + [(math.nan, math.nan)]
        assert {abs(b - 1.0) for _, b in pairs} >= {eps, eps - 2.0**-52, eps + 2.0**-53}
        seen = set()
        for target in GAP_CLASSES:
            sl = 1 if target[1] == "+" else -1
            sr = 1 if target[3] == "+" else -1
            for m_lo, m_hi in pairs:
                # left margin in [m_lo - 1, m_hi - 1]
                l_near, l_far = (m_hi, m_lo) if sl > 0 else (m_lo, m_hi)
                left = (criticalgaps._margin_sign(l_near - 1.0) == sl,
                        criticalgaps._margin_sign(l_far - 1.0) == sl)
                for M_lo, M_hi in pairs:
                    # right margin in [1 - M_hi, 1 - M_lo]
                    r_near, r_far = (M_lo, M_hi) if sr > 0 else (M_hi, M_lo)
                    right = (criticalgaps._margin_sign(1.0 - r_near) == sr,
                             criticalgaps._margin_sign(1.0 - r_far) == sr)
                    if not (left[0] and right[0]):
                        want = "ruled out"
                    elif left[1] and right[1]:
                        want = "decided"
                    else:
                        want = "refine"
                    bounds = (m_lo, m_hi, M_lo, M_hi)
                    assert _kernel_stage_action(bounds, target) == want, (target, bounds)
                    assert _list_kernel_stage_action(bounds, target) == want, (target, bounds)
                    seen.add(want)
        assert seen == {"ruled out", "decided", "refine"}

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


# finite roots and midpoints whose span x_n - x_1 overflows to inf
SPAN_OVERFLOW_ROOTS = [-1e308, 0.5, 1e308]


def _span_overflow_sets(degrees=range(3, 9)):
    """Sorted sets whose span x_n - x_1 overflows to inf, four per degree, and SPAN_OVERFLOW_ROOTS.

    The outer roots lie in [-1e308, -9e307] and [9e307, 1e308] and the inner
    ones in [-1e307, 1e307], so no midpoint overflows.
    """
    found = [SPAN_OVERFLOW_ROOTS]
    for d in degrees:
        for case in range(4):
            u = unit_draws(950 + d, case, d)
            xs = sorted([-9e307 - 1e307 * u[0], 9e307 + 1e307 * u[1]]
                        + [1e307 * (2.0 * v - 1.0) for v in u[2:]])
            assert all(a < b for a, b in zip(xs, xs[1:])) and xs[-1] - xs[0] == math.inf
            found.append(xs)
    return found


class TestSpanOverflow:
    def test_critical_points_are_refined(self):
        # the span is inf; an inf tolerance would leave the brackets as the root
        # intervals and give the midpoints -5e307 and 5e307
        want = 1e308 / math.sqrt(3.0)
        assert critical_points(SPAN_OVERFLOW_ROOTS) == pytest.approx([-want, want], rel=1e-12)

    def test_critical_points_scale(self):
        # scaling by 2**-2 is exact and leaves a finite span; no critical point
        # lies an overflowing distance from a root, so P'/P keeps every term
        for xs in _span_overflow_sets():
            small = [math.ldexp(v, -2) for v in xs]
            assert small[-1] - small[0] < math.inf
            got = critical_points(xs)
            assert all(abs(c - r) < math.inf for c in got for r in xs)
            assert _bits(got) == _bits([4.0 * v for v in critical_points(small)]), xs

    def test_gap_report_classifies(self):
        rpt = gap_report(SPAN_OVERFLOW_ROOTS)
        assert rpt.gap_class == "L+R-"
        assert rpt.xi == pytest.approx([-1e308 / math.sqrt(3.0), 1e308 / math.sqrt(3.0)], rel=1e-12)

    def test_match_equals_gap_report_then_compare(self):
        found = 0
        for xs in _span_overflow_sets():
            for target in GAP_CLASSES:
                got = match(xs, target)
                assert got == _reference_match(xs, target), (xs, target)
                found += got is not None
        assert found > 0


def _nan_sets(degrees=range(3, 9)):
    """Sorted-looking root sets of each degree with a NaN first, at each inner place, and last."""
    found = []
    for n in degrees:
        for spot in range(n):
            xs = random_distinct_sorted(960 + n, spot, n)
            xs[spot] = math.nan
            found.append(xs)
    return found


@functools.cache
def _kernel_cases():
    return (_schedule_cases() + _near_degenerate_roots() + _span_overflow_sets() + _nan_sets()
            + [HUGE_ROOTS, [1e-200, 2e-200, 3e-200], [1e-200 * v for v in GAP_D6_ROOTS]])


@functools.cache
def _list_kernel_cases():
    """Root sets above _KERNEL_MAX_DEGREE (17 and 20), NaN and span-overflow sets among them."""
    above = (17, 20)
    return (_schedule_cases(above)[::3] + _span_overflow_sets(above)[1:] + _nan_sets(above)
            + [[1e-200 * v for v in range(1, 18)]])


@functools.cache
def _kernel_stage(d):
    """One stage of the degree-d kernels, (x, lo, hi, tol) -> (lo, hi, bounds).

    Built around the lines _stage_source gives every degree-d kernel: the
    roots and brackets come in as lists and go out as lists.
    """
    xs = ", ".join(f"x{j}" for j in range(d))
    los = ", ".join(f"a{k}" for k in range(d - 1))
    his = ", ".join(f"b{k}" for k in range(d - 1))
    lines = [f"{xs} = x", f"{los} = lo", f"{his} = hi", *criticalgaps._stage_source(d),
             f"return [{los}], [{his}], (m_lo, m_hi, M_lo, M_hi)"]
    namespace = {}
    exec("def stage(x, lo, hi, tol):\n" + "".join(f"    {line}\n" for line in lines),
         vars(criticalgaps), namespace)
    return namespace["stage"]


def _hex(values):
    return [float.hex(v) for v in values]


def _outcome(outcome):
    return dataclasses.replace(outcome, seconds=0.0)


class TestKernel:
    def test_kernels_are_generated_for_every_degree(self):
        for target in GAP_CLASSES:
            for d in range(3, 21):
                kernel = criticalgaps.match_kernel(d, target)
                assert kernel.__code__.co_filename == f"<match kernel, d={d}, {target}>"
                assert criticalgaps.match_kernel(d, target) is kernel

    def test_kernels_run_the_shared_stage(self):
        # the stage tests below compile the same lines that every kernel holds
        rule = {t: criticalgaps._stage_rule_source(t, "return None", "break") for t in GAP_CLASSES}
        for d in (3, 5, 12, criticalgaps._KERNEL_MAX_DEGREE):
            for target in GAP_CLASSES:
                src = criticalgaps._kernel_source(d, target)
                stage = criticalgaps._stage_source(d) + rule[target]
                assert "".join(f"        {line}\n" for line in stage) in src, (d, target)
                assert "sum(" not in src
        # above the bound each stage is one _refine call, and the source does
        # not grow with the degree
        above = range(criticalgaps._KERNEL_MAX_DEGREE + 1, 41)
        for target in GAP_CLASSES:
            sources = [criticalgaps._kernel_source(d, target) for d in above]
            assert len(set(map(len, sources))) == 1, target
            stage = ["m_lo, m_hi, M_lo, M_hi = _refine(x, lo, hi, tol)"] + rule[target]
            for src in sources:
                assert "".join(f"        {line}\n" for line in stage) in src, target
                assert src.count("_refine(") == 1 and "sum(" not in src

    def test_kernel_equals_the_reference_path(self):
        above = _list_kernel_cases()
        assert min(map(len, above)) > criticalgaps._KERNEL_MAX_DEGREE
        assert any(math.isnan(v) for xs in above for v in xs)
        assert any(xs[-1] - xs[0] == math.inf for xs in above)
        for xs in _kernel_cases() + above:
            for target in GAP_CLASSES:
                got = criticalgaps.match_kernel(len(xs), target)(xs)
                assert got == _reference_match(xs, target), (xs, target)

    def test_stages_equal_refine_bit_for_bit(self):
        # every stage down to the full tolerance, as if no bound ever decided
        for xs in _kernel_cases():
            stage = _kernel_stage(len(xs))
            full, tol = criticalgaps._tolerances(xs)
            tols = [1e-3] if math.isnan(tol) else []
            while tol > full:
                tols.append(tol)
                tol /= criticalgaps._STAGE_FACTOR
            lo, hi = xs[:-1], xs[1:]
            k_lo, k_hi = list(lo), list(hi)
            for tol in tols + [full]:
                want = criticalgaps._refine(xs, lo, hi, tol)
                k_lo, k_hi, got = stage(xs, k_lo, k_hi, tol)
                assert _hex(k_lo) == _hex(lo) and _hex(k_hi) == _hex(hi), (xs, tol)
                assert _hex(got) == _hex(want), (xs, tol)

    @pytest.mark.parametrize(
        "lo, hi",
        [([0.0, 0.0, -0.0], [0.0, 0.0, -0.0]), ([0.0, -0.0, 0.0], [0.0, -0.0, 0.0])],
        ids=["zero-then-negative-zero", "negative-zero-then-zero"],
    )
    def test_stage_bounds_keep_the_first_of_equal_gaps(self, lo, hi):
        # as TestSignOnlyKernel checks for _refine: no bracket moves at tol = inf
        got = _kernel_stage(4)([0.0] * 4, lo, hi, math.inf)[2]
        assert _hex(got) == _hex(xi_gap_bounds(lo, hi))

    def test_search_above_the_degree_bound_equals_the_reference(self, monkeypatch):
        d = criticalgaps._KERNEL_MAX_DEGREE + 4
        cfg = SearchConfig(n=50, seed=1)
        got = [_outcome(sampler.search_gap_class(d, t, cfg)) for t in GAP_CLASSES]
        monkeypatch.setattr(sampler, "match_kernel",
                            lambda d, t: functools.partial(_reference_match, target=t))
        want = [_outcome(sampler.search_gap_class(d, t, cfg)) for t in GAP_CLASSES]
        assert got == want
        assert any(outcome.found for outcome in got)
