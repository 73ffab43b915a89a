"""Gap statistics of hyperbolic polynomials with simple roots.

Given strictly increasing roots x_1 < ... < x_n, this module computes the
midpoints z_k = (x_k + x_{k+1})/2, the critical points xi_k (one per open root
interval, by bisection on the sign of P'/P = sum 1/(t - x_j)), the six
min/max gap statistics over the three sequences, and the four-way class
recording which side of the chain

    min consecutive-midpoint gap  <  critical-point gap  <  max midpoint gap

holds strictly (+) or fails (-) on the left (L) and right (R).  One float
bisection routine, _refine, halves the brackets on the critical points and,
in the same pass, bounds the min and max critical gap.  gap_report refines
every critical point in full, to BISECTION_REL_TOL of the span x_n - x_1
(_tolerances scales each end first when that span overflows).  match, the
search's test, refines in stages whose tolerance falls by 4 from
(x_n - x_1)/16; it stops as soon as the bounds rule the target class out,
and jumps to the full refinement as soon as they decide it.  Its work
before the first stage is one pass over x for the midpoint-gap extrema
(_midpoint_gap_extrema, which gap_report's _report shares) and one lookup
of the target's orientation in a table built at import (_ORIENTATION).  A
margin counts only at MARGIN_EPS or more: _margin_sign states that rule for
gap_report, and match applies it once per bound, to the margin oriented
toward the target's sign.  Every schedule visits the same midpoints, so a
report that match returns is gap_report's.  match runs on the engine's
sorted, distinct draws and does not re-check them; gap_report,
critical_points and midpoints convert their input to floats and validate
it in one place (_floats), so they agree on any real number type.
xi_gap_bounds states the bracket-to-bounds rule for any ordered number type;
the certifier's integer bisection uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# below this absolute margin a strict comparison is not trusted in floats
MARGIN_EPS = 1e-10
BISECTION_REL_TOL = 1e-12
# match() refines in stages of tolerance (x_n - x_1) / (16 * 4**j), j = 0, 1, ...
_FIRST_STAGE = 16.0
_STAGE_FACTOR = 4.0

GAP_CLASSES = ("L+R+", "L+R-", "L-R+", "L-R-")
_SIGN = {1: "+", -1: "-"}


class UnsortedRootsError(ValueError):
    """Roots must be strictly increasing."""


class TiedRootsError(ValueError):
    """Roots must be pairwise distinct."""


class NoSignChangeError(ValueError):
    """Never raised: the sign of P' at a simple root is known in advance.

    Kept only because the benchmark replay (perfbench/replay.py) still
    imports it; delete it once the replay stops doing so.
    """


class DegenerateMarginError(ValueError):
    """A deciding difference is too close to zero to classify in floats."""


@dataclass(frozen=True)
class GapReport:
    """All gap statistics of one root configuration.

    margins holds the two deciding differences (m_prime - m_tilde,
    M_tilde - M_prime); the class is L+ iff the first is positive and
    R+ iff the second is.
    """

    x: tuple[float, ...]
    z: tuple[float, ...]
    xi: tuple[float, ...]
    xi_halfwidth: tuple[float, ...]
    m_p: float
    M_p: float
    m_tilde: float
    M_tilde: float
    m_prime: float
    M_prime: float
    gap_class: str
    margins: tuple[float, float]


def _check_sorted(x: Sequence[float], at_least: int) -> None:
    if len(x) < at_least:
        raise ValueError(f"need at least {at_least} roots")
    for a, b in zip(x, x[1:]):
        if a == b:
            raise TiedRootsError(f"tied roots at {a!r}")
        if a > b:
            raise UnsortedRootsError("roots must be strictly increasing")


def _midpoints(x: Sequence[float]) -> list[float]:
    return [(x[k] + x[k + 1]) * 0.5 for k in range(len(x) - 1)]


def _midpoint_gap_extrema(x: Sequence[float]) -> tuple[float, float]:
    """(m_tilde, M_tilde): the min and max gap between consecutive midpoints of x.

    One pass over x (at least three roots), keeping no list: each midpoint is
    (x[k] + x[k+1]) * 0.5, as _midpoints computes it, and a running bound is
    replaced only on a strict < or >, as min() and max() replace theirs, so
    NaN gaps and ties between 0.0 and -0.0 come out as theirs do.
    """
    z = (x[1] + x[2]) * 0.5
    m = M = z - (x[0] + x[1]) * 0.5
    a = x[2]
    for b in x[3:]:
        c = (a + b) * 0.5
        g = c - z
        if g < m:
            m = g
        elif g > M:  # m <= M unless both are NaN, so g < m rules out g > M
            M = g
        a, z = b, c
    return m, M


def _finite(values: list[float], what: str) -> list[float]:
    """values, or ValueError when one is inf or NaN (NaN input, or overflow)."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} are not finite: {values!r}")
    return values


def _floats(x: Sequence, at_least: int) -> list[float]:
    """x as a list of floats, at least `at_least` of them and strictly increasing.

    The one way in for midpoints, critical_points and gap_report, which
    therefore agree on any real number type.  The check runs on the
    converted values: two distinct rationals that round to one float tie.
    """
    x = [float(v) for v in x]
    _check_sorted(x, at_least)
    return x


def midpoints(x: Sequence) -> list[float]:
    """Midpoints of consecutive roots; needs at least two strictly increasing roots.

    Raises ValueError when a midpoint is not finite.
    """
    return _finite(_midpoints(_floats(x, 2)), "midpoints")


def _refine(x: Sequence[float], lo: list[float], hi: list[float], tol: float) -> tuple:
    """Halve every bracket [lo[k], hi[k]] in place until it is at most 2*tol wide.

    On a root interval P'/P = sum 1/(t - r) falls strictly from +inf to -inf
    while the sign of P is fixed, so the sign of that sum alone says which
    half holds the critical point.  A bracket stops early when its ends are
    adjacent floats, and collapses onto a midpoint where the sum is exactly
    zero (or NaN, which takes subnormal root gaps).  A bracket's midpoints
    depend only on x and where the bracket starts, so refining to tol and
    then to a smaller tol visits the same midpoints as refining to the
    smaller tol at once.

    Returns xi_gap_bounds(lo, hi) of the refined brackets, bit for bit,
    computed in the same pass: (m_lo, m_hi, M_lo, M_hi), or four Nones for a
    single bracket.  A running bound is replaced only on a strict < or >,
    as min() and max() replace theirs, so NaN gap bounds and ties between
    0.0 and -0.0 come out as theirs do.
    """
    width = 2.0 * tol
    m_lo = m_hi = M_lo = M_hi = None
    for k in range(len(lo)):
        a, b = lo[k], hi[k]
        while b - a > width:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            s = 0.0
            for r in x:
                s += 1.0 / (mid - r)
            if s > 0.0:
                a = mid
            elif s < 0.0:
                b = mid
            else:
                a = b = mid
        lo[k], hi[k] = a, b
        if k > 1:
            inner, outer = a - prev_b, b - prev_a
            if inner < m_lo:
                m_lo = inner
            if inner > M_lo:
                M_lo = inner
            if outer < m_hi:
                m_hi = outer
            if outer > M_hi:
                M_hi = outer
        elif k:
            m_lo = M_lo = a - prev_b
            m_hi = M_hi = b - prev_a
        prev_a, prev_b = a, b
    return m_lo, m_hi, M_lo, M_hi


def _tolerances(x: Sequence[float]) -> tuple[float, float]:
    """The full and the first-stage bisection tolerance for the sorted roots x.

    They are BISECTION_REL_TOL * span and span / _FIRST_STAGE, span being
    x[-1] - x[0].  When the span overflows to inf, each end is scaled before
    the subtraction instead (c*x[-1] - c*x[0]), which keeps both finite; an
    inf tolerance would leave every bracket unrefined.
    """
    span = x[-1] - x[0]
    if span == math.inf:
        return (BISECTION_REL_TOL * x[-1] - BISECTION_REL_TOL * x[0],
                x[-1] / _FIRST_STAGE - x[0] / _FIRST_STAGE)
    return BISECTION_REL_TOL * span, span / _FIRST_STAGE


def _margin_sign(m: float) -> int:
    """+1 or -1 for a margin decided in floats; 0 when it is within MARGIN_EPS of zero or NaN."""
    if not abs(m) >= MARGIN_EPS:
        return 0
    return 1 if m > 0 else -1


def xi_gap_bounds(lo: Sequence, hi: Sequence) -> tuple:
    """(m_lo, m_hi, M_lo, M_hi): bounds on the min and max critical-point gap.

    Critical point k lies in [lo[k], hi[k]], so gap k lies between
    lo[k+1] - hi[k] and hi[k+1] - lo[k]; the min and max over k bound the
    min and max gap.  Works for any ordered number type (floats, ints, Fractions).
    """
    inner = [b - a for a, b in zip(hi, lo[1:])]
    outer = [b - a for a, b in zip(lo, hi[1:])]
    return min(inner), min(outer), max(inner), max(outer)


def _refined(x: Sequence, at_least: int) -> tuple[list[float], list[float], list[float]]:
    """(x, lo, hi): x as _floats gives it and its critical-point brackets.

    The brackets start as the root intervals and are refined in full, by
    _refine to _tolerances(x)[0]; critical_points and gap_report share them.
    """
    x = _floats(x, at_least)
    lo, hi = x[:-1], x[1:]
    _refine(x, lo, hi, _tolerances(x)[0])
    return x, lo, hi


def critical_points(x: Sequence) -> list[float]:
    """One derivative root per open interval between consecutive simple roots.

    Each enclosure is bisected on the sign of P'/P (see _refine) to absolute
    half-width at most 1e-12 * (x_n - x_1), computed as _tolerances computes
    it when that span overflows; interlacing guarantees exactly
    one critical point per interval, so the root intervals themselves are
    the initial brackets and no derivative is evaluated at their ends.
    Raises ValueError when a critical point comes out inf or NaN.
    """
    _, lo, hi = _refined(x, 2)
    return _finite([0.5 * (a + b) for a, b in zip(lo, hi)], "critical points")


def _report(x: list[float], lo: list[float], hi: list[float]) -> GapReport:
    """The GapReport whose critical points are the centres of the brackets."""
    xi = [0.5 * (a + b) for a, b in zip(lo, hi)]
    x_gaps = [b - a for a, b in zip(x, x[1:])]
    xi_gaps = [b - a for a, b in zip(xi, xi[1:])]

    m_tilde, M_tilde = _midpoint_gap_extrema(x)
    m_prime, M_prime = min(xi_gaps), max(xi_gaps)
    left = m_prime - m_tilde
    right = M_tilde - M_prime
    left_sign, right_sign = _margin_sign(left), _margin_sign(right)
    if not left_sign or not right_sign:
        if not (math.isfinite(left) and math.isfinite(right)):
            raise DegenerateMarginError(f"margins ({left!r}, {right!r}) are not finite")
        raise DegenerateMarginError(
            f"margins ({left!r}, {right!r}) too small to classify in floats"
        )
    return GapReport(
        x=tuple(x),
        z=tuple(_midpoints(x)),
        xi=tuple(xi),
        xi_halfwidth=tuple(0.5 * (b - a) for a, b in zip(lo, hi)),
        m_p=min(x_gaps),
        M_p=max(x_gaps),
        m_tilde=m_tilde,
        M_tilde=M_tilde,
        m_prime=m_prime,
        M_prime=M_prime,
        gap_class=f"L{_SIGN[left_sign]}R{_SIGN[right_sign]}",
        margins=(left, right),
    )


def gap_report(x: Sequence) -> GapReport:
    """Gap statistics and class of the monic polynomial with roots x.

    Needs at least three roots so that both consecutive-midpoint gaps and
    consecutive critical-point gaps exist.  Critical points come from
    critical_points' bisection, refined in full.  Raises
    DegenerateMarginError when a deciding margin is within 1e-10 of zero;
    exact classification then belongs to the certifier.
    """
    return _report(*_refined(x, 3))


def _orientation(target: str) -> tuple[float, float, int, int, int, int]:
    """(sl, sr, l_near, l_far, r_near, r_far): how match orients each margin toward target.

    sl and sr are +1.0 for a "+" side and -1.0 for a "-" side.  The left
    margin lies in [m_lo - m_tilde, m_hi - m_tilde] and the right in
    [M_tilde - M_hi, M_tilde - M_lo]; the four indices point into _refine's
    (m_lo, m_hi, M_lo, M_hi) at each side's near bound, the one that
    favours the target most, and its far bound.
    """
    sl = 1.0 if target[1] == "+" else -1.0
    sr = 1.0 if target[3] == "+" else -1.0
    l_near, l_far = (1, 0) if sl > 0 else (0, 1)
    r_near, r_far = (2, 3) if sr > 0 else (3, 2)
    return sl, sr, l_near, l_far, r_near, r_far


_ORIENTATION = {target: _orientation(target) for target in GAP_CLASSES}


def match(x: list[float], target: str) -> GapReport | None:
    """gap_report(x) when its class is `target`; None otherwise.

    This is the search's per-attempt kernel, and it checks nothing: x must be
    a list of at least three strictly increasing floats and target one of
    GAP_CLASSES, as search_gap_class guarantees for every attempt.  Input
    from anywhere else goes through gap_report, which validates it.

    None also stands for the inputs gap_report rejects with
    DegenerateMarginError.  Before any bisection, match reads the target's
    orientation from _ORIENTATION, built from GAP_CLASSES at import, and
    m_tilde and M_tilde from _midpoint_gap_extrema's one pass over x, which
    _report shares.  The brackets start as the root intervals and are
    refined in stages of tolerance (x_n - x_1) / _FIRST_STAGE, then a factor
    _STAGE_FACTOR smaller each stage (see _tolerances for a span that
    overflows).  Each stage's _refine returns bounds on
    the min and max critical gap, and so on both margins: float subtraction
    and min/max are monotone, so the bounds hold the margins that full
    refinement computes.  Each margin is oriented toward the target's sign,
    s * margin with s = +1 or -1, an exact flip: a side is the target's when
    s * margin >= MARGIN_EPS, which is _margin_sign's rule (NaN fails it).
    When a side's near bound, the one that favours the target most, fails
    that test, the target is ruled out and the search stops; when its far
    bound passes too, that side is decided.  Once both sides are decided, or
    the stages run out, the brackets go straight to the full refinement,
    which visits the same midpoints whatever the schedule, and the report is
    built from them exactly as gap_report builds it.
    """
    sl, sr, l_near, l_far, r_near, r_far = _ORIENTATION[target]
    lo, hi = x[:-1], x[1:]
    m_tilde, M_tilde = _midpoint_gap_extrema(x)
    full, tol = _tolerances(x)
    while tol > full:
        bounds = _refine(x, lo, hi, tol)
        if not (sl * (bounds[l_near] - m_tilde) >= MARGIN_EPS
                and sr * (M_tilde - bounds[r_near]) >= MARGIN_EPS):
            return None
        if (sl * (bounds[l_far] - m_tilde) >= MARGIN_EPS
                and sr * (M_tilde - bounds[r_far]) >= MARGIN_EPS):
            break
        tol /= _STAGE_FACTOR
    _refine(x, lo, hi, full)
    try:
        report = _report(x, lo, hi)
    except DegenerateMarginError:
        return None
    return report if report.gap_class == target else None
