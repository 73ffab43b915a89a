"""Gap statistics of hyperbolic polynomials with simple roots.

Given strictly increasing roots x_1 < ... < x_n, this module computes the
midpoints z_k = (x_k + x_{k+1})/2, the critical points xi_k (one per open root
interval, by sign-change bisection on the derivative), the six min/max gap
statistics over the three sequences, and the four-way class recording which
side of the chain

    min consecutive-midpoint gap  <  critical-point gap  <  max midpoint gap

holds strictly (+) or fails (-) on the left (L) and right (R).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# below this absolute margin a strict comparison is not trusted in floats
MARGIN_EPS = 1e-10
BISECTION_REL_TOL = 1e-12

GAP_CLASSES = ("L+R+", "L+R-", "L-R+", "L-R-")


class UnsortedRootsError(ValueError):
    """Roots must be strictly increasing."""


class TiedRootsError(ValueError):
    """Roots must be pairwise distinct."""


class NoSignChangeError(ValueError):
    """Derivative did not change sign over a root interval (e.g. its value underflowed)."""


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


def _bisect(x: Sequence[float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    flo = derivative_at_from_roots(x, lo)
    fhi = derivative_at_from_roots(x, hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        raise NoSignChangeError(f"no derivative sign change over ({lo!r}, {hi!r})")
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        fm = derivative_at_from_roots(x, mid)
        if fm == 0.0:
            return mid, mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def derivative_at_from_roots(roots: Sequence[float], x: float) -> float:
    """P'(x) for P = prod (x - r), evaluated from root differences.

    Unlike Horner on the expanded coefficients this loses no precision when
    the roots sit far from the origin, so gap statistics are translation and
    scale stable.
    """
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


def critical_points(x: Sequence[float]) -> list[float]:
    """One derivative root per open interval between consecutive simple roots.

    Bisection on the product-form derivative (derivative_at_from_roots)
    refines each enclosure to absolute half-width at most
    1e-12 * (x_n - x_1); interlacing guarantees exactly one sign change per
    interval.  A derivative that underflows to zero at a root surfaces as
    NoSignChangeError.
    """
    _check_sorted(x, 2)
    xi, _ = _critical_points_with_widths(x)
    return xi


def _critical_points_with_widths(x: Sequence[float]):
    tol = BISECTION_REL_TOL * (x[-1] - x[0])
    xi = []
    widths = []
    for k in range(len(x) - 1):
        lo, hi = _bisect(x, x[k], x[k + 1], tol)
        xi.append(0.5 * (lo + hi))
        widths.append(0.5 * (hi - lo))
    return xi, widths


def gap_report(x: Sequence[float]) -> GapReport:
    """Gap statistics and class of the monic polynomial with roots x.

    Needs at least three roots so that both consecutive-midpoint gaps and
    consecutive critical-point gaps exist.  The derivative is evaluated in
    product form straight from the roots (see derivative_at_from_roots).
    Raises DegenerateMarginError when a deciding margin is within 1e-10 of
    zero; exact classification then belongs to the certifier.
    """
    x = [float(v) for v in x]
    _check_sorted(x, 3)

    z = _midpoints(x)
    xi, widths = _critical_points_with_widths(x)

    x_gaps = [b - a for a, b in zip(x, x[1:])]
    z_gaps = [b - a for a, b in zip(z, z[1:])]
    xi_gaps = [b - a for a, b in zip(xi, xi[1:])]

    m_tilde, M_tilde = min(z_gaps), max(z_gaps)
    m_prime, M_prime = min(xi_gaps), max(xi_gaps)
    left = m_prime - m_tilde
    right = M_tilde - M_prime
    if abs(left) < MARGIN_EPS or abs(right) < MARGIN_EPS:
        raise DegenerateMarginError(
            f"margins ({left!r}, {right!r}) too small to classify in floats"
        )
    cls = ("L+" if left > 0 else "L-") + ("R+" if right > 0 else "R-")
    return GapReport(
        x=tuple(x),
        z=tuple(z),
        xi=tuple(xi),
        xi_halfwidth=tuple(widths),
        m_p=min(x_gaps),
        M_p=max(x_gaps),
        m_tilde=m_tilde,
        M_tilde=M_tilde,
        m_prime=m_prime,
        M_prime=M_prime,
        gap_class=cls,
        margins=(left, right),
    )
