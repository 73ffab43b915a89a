"""Gap statistics of hyperbolic polynomials with simple roots.

Given strictly increasing roots x_1 < ... < x_n, this module computes the
midpoints z_k = (x_k + x_{k+1})/2, the critical points xi_k (one per open root
interval, by bisection on the sign of P'/P = sum 1/(t - x_j)), the six
min/max gap statistics over the three sequences, and the four-way class
recording which side of the chain

    min consecutive-midpoint gap  <  critical-point gap  <  max midpoint gap

holds strictly (+) or fails (-) on the left (L) and right (R).  gap_report
refines every critical point in full; match, the search's test, refines in
stages and stops as soon as the target class is ruled out.  xi_gap_bounds
turns brackets on the critical points into bounds on the critical gaps, for
floats here and for integers in the certifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# below this absolute margin a strict comparison is not trusted in floats
MARGIN_EPS = 1e-10
BISECTION_REL_TOL = 1e-12
# match() refines in stages of tolerance (x_n - x_1) / 16**j, j = 1, 2, ...
_STAGE_FACTOR = 16.0

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


def midpoints(x: Sequence[float]) -> list[float]:
    """Midpoints of consecutive roots; needs at least two strictly increasing roots."""
    _check_sorted(x, 2)
    return _midpoints(x)


def _refine(x: Sequence[float], lo: list[float], hi: list[float], tol: float) -> None:
    """Halve every bracket [lo[k], hi[k]] in place until it is at most 2*tol wide.

    On a root interval P'/P = sum 1/(t - r) falls strictly from +inf to -inf
    while the sign of P is fixed, so the sign of that sum alone says which
    half holds the critical point.  A bracket stops early when its ends are
    adjacent floats, and collapses onto a midpoint where the sum is exactly
    zero (or NaN, which takes subnormal root gaps).  Refining to tol and
    then to a smaller tol visits the same midpoints as refining to the
    smaller tol at once.
    """
    width = 2.0 * tol
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


def critical_points(x: Sequence[float]) -> list[float]:
    """One derivative root per open interval between consecutive simple roots.

    Each enclosure is bisected on the sign of P'/P (see _refine) to absolute
    half-width at most 1e-12 * (x_n - x_1); interlacing guarantees exactly
    one critical point per interval, so the root intervals themselves are
    the initial brackets and no derivative is evaluated at their ends.
    """
    _check_sorted(x, 2)
    lo, hi = list(x[:-1]), list(x[1:])
    _refine(x, lo, hi, BISECTION_REL_TOL * (x[-1] - x[0]))
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _report(x: list[float], z: list[float], lo: list[float], hi: list[float]) -> GapReport:
    """The GapReport whose critical points are the centres of the brackets."""
    xi = [0.5 * (a + b) for a, b in zip(lo, hi)]
    x_gaps = [b - a for a, b in zip(x, x[1:])]
    z_gaps = [b - a for a, b in zip(z, z[1:])]
    xi_gaps = [b - a for a, b in zip(xi, xi[1:])]

    m_tilde, M_tilde = min(z_gaps), max(z_gaps)
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
        z=tuple(z),
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


def gap_report(x: Sequence[float]) -> GapReport:
    """Gap statistics and class of the monic polynomial with roots x.

    Needs at least three roots so that both consecutive-midpoint gaps and
    consecutive critical-point gaps exist.  Critical points come from
    critical_points' bisection, refined in full.  Raises
    DegenerateMarginError when a deciding margin is within 1e-10 of zero;
    exact classification then belongs to the certifier.
    """
    x = [float(v) for v in x]
    _check_sorted(x, 3)
    lo, hi = x[:-1], x[1:]
    _refine(x, lo, hi, BISECTION_REL_TOL * (x[-1] - x[0]))
    return _report(x, _midpoints(x), lo, hi)


def match(x: Sequence[float], target: str) -> GapReport | None:
    """gap_report(x) when its class is `target`; None otherwise.

    None also stands for the inputs gap_report rejects with
    DegenerateMarginError.  The brackets start as the root intervals and are
    refined in stages whose tolerance falls by _STAGE_FACTOR from
    (x_n - x_1) / _STAGE_FACTOR.  After each stage xi_gap_bounds bounds the
    min and max critical gap, and so both margins: float subtraction and
    min/max are monotone, so the bounds hold the margins that full
    refinement computes.  Once the bounds rule out the target side of a
    margin the search stops.  Otherwise the last stage is the full
    refinement, and the report is built from those brackets exactly as
    gap_report builds it.
    """
    if target not in GAP_CLASSES:
        raise ValueError(f"target class must be one of {GAP_CLASSES}")
    want_left = 1 if target[1] == "+" else -1
    want_right = 1 if target[3] == "+" else -1
    x = [float(v) for v in x]
    _check_sorted(x, 3)
    lo, hi = x[:-1], x[1:]
    z = _midpoints(x)
    z_gaps = [b - a for a, b in zip(z, z[1:])]
    m_tilde, M_tilde = min(z_gaps), max(z_gaps)
    span = x[-1] - x[0]
    full = BISECTION_REL_TOL * span
    tol = span / _STAGE_FACTOR
    while tol > full:
        _refine(x, lo, hi, tol)
        m_lo, m_hi, M_lo, M_hi = xi_gap_bounds(lo, hi)
        if not _margin_sign(m_lo - m_tilde) <= want_left <= _margin_sign(m_hi - m_tilde):
            return None
        if not _margin_sign(M_tilde - M_hi) <= want_right <= _margin_sign(M_tilde - M_lo):
            return None
        tol /= _STAGE_FACTOR
    _refine(x, lo, hi, full)
    try:
        report = _report(x, z, lo, hi)
    except DegenerateMarginError:
        return None
    return report if report.gap_class == target else None
