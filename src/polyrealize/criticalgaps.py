"""Gap statistics of hyperbolic polynomials with simple roots.

Given strictly increasing roots x_1 < ... < x_n, this module computes the
midpoints z_k = (x_k + x_{k+1})/2, the critical points xi_k (one per open root
interval, by bisection on the sign of P'/P = sum 1/(t - x_j)), the six
min/max gap statistics over the three sequences, and the four-way class
recording which side of the chain

    min consecutive-midpoint gap  <  critical-point gap  <  max midpoint gap

holds strictly (+) or fails (-) on the left (L) and right (R).  One float
bisection routine, _refine, halves the brackets on the critical points.
gap_report refines every critical point in full, to BISECTION_REL_TOL of
the span x_n - x_1 (_tolerances scales each end first when that span
overflows).  match, the search's test, refines in stages whose tolerance
falls by 4 from (x_n - x_1)/16; after each stage it bounds the min and max
critical gap from the brackets, stops as soon as the bounds rule the
target class out, and jumps to the full refinement as soon as they decide
it.  Its work before the first stage is the midpoint-gap extrema, m_tilde
and M_tilde.  _report takes all six extrema one way, _gap_extrema (min()
and max() of the consecutive gaps); match's kernel takes these two, and
the stage bounds, with the same float operations and min()'s and max()'s
strict < / > rule, so they come out the same, NaN and +-0 included.  A
margin counts only at MARGIN_EPS or more: _margin_sign states that rule
for gap_report, and match applies it once per bound, to the margin
oriented toward the target's sign.  Every schedule visits the same
midpoints, so a report that match returns is gap_report's.  match runs a
kernel generated once per degree and target (match_kernel) from one
template: straight-line Python that unpacks the roots into locals, unrolls
the midpoint-gap extrema and the bounds, holds each bracket in two locals,
and evaluates P'/P at a midpoint as the one expression
1.0 / (mid - x0) + ... + 1.0 / (mid - x{d-1}).  _refine's loop adds the same
terms in the same order onto s = 0.0, and adding 0.0 can change only the
sign of a zero, which _refine's three-way test on s ignores; so the kernel
takes every decision _refine takes, on the same floats.  The stage rule
has the target's orientation baked in, and the full refinement is
_refine's.  match runs on the engine's sorted, distinct draws and does not
re-check them; gap_report, critical_points and midpoints convert their
input to floats and validate it in one place (_floats), so they agree on
any real number type.
xi_gap_bounds states the bracket-to-bounds rule for any ordered number type;
the certifier's integer bisection uses it.  as_float is the conversion both
_floats and the certifier's rationalization use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _midpoints(x: Sequence[float]) -> list[float]:
    return [(x[k] + x[k + 1]) * 0.5 for k in range(len(x) - 1)]


def _gap_extrema(v: Sequence[float]) -> tuple[float, float]:
    """(min, max) of the gaps v[k+1] - v[k] between consecutive entries of v (two or more).

    min() and max() replace a running bound only on a strict < or >, so a NaN
    first gap stays and later NaN gaps are passed over, and of gaps 0.0 and
    -0.0 the first wins.
    """
    gaps = [b - a for a, b in zip(v, v[1:])]
    return min(gaps), max(gaps)


def _finite(values: list[float], what: str) -> list[float]:
    """values, or ValueError when one is inf or NaN (NaN input, or overflow)."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} are not finite: {values!r}")
    return values


def as_float(v, name: str) -> float:
    """float(v); a real too large for a float raises ValueError naming `name`.

    The message gives v's type and rough size, not v: writing the digits of
    an int past 4 300 of them itself raises.
    """
    try:
        return float(v)
    except OverflowError:  # an int or a Rational, which have these
        bits = abs(v.numerator).bit_length() - v.denominator.bit_length()
        raise ValueError(f"{name} ({type(v).__name__}, about 10**{round(bits * math.log10(2))}) "
                         "is too large for a float") from None


def _floats(x: Sequence, at_least: int) -> list[float]:
    """x as a list of floats, at least `at_least` of them and strictly increasing.

    The one way in for midpoints, critical_points and gap_report, which
    therefore agree on any real number type.  The check runs on the
    converted values: two distinct rationals that round to one float tie.
    A value too large for a float raises as_float's ValueError.
    """
    floats = [as_float(v, "root") for v in x]
    if len(floats) < at_least:
        raise ValueError(f"need at least {at_least} roots")
    for a, b in zip(floats, floats[1:]):
        if a == b:
            raise TiedRootsError(f"tied roots at {a!r}")
        if a > b:
            raise UnsortedRootsError("roots must be strictly increasing")
    return floats


def midpoints(x: Sequence) -> list[float]:
    """Midpoints of consecutive roots; needs at least two strictly increasing roots.

    Raises ValueError when a midpoint is not finite.
    """
    return _finite(_midpoints(_floats(x, 2)), "midpoints")


def _refine(x: Sequence[float], lo: list[float], hi: list[float], tol: float) -> None:
    """Halve every bracket [lo[k], hi[k]] in place until it is at most 2*tol wide.

    On a root interval P'/P = sum 1/(t - r) falls strictly from +inf to -inf
    while the sign of P is fixed, so the sign of that sum alone says which
    half holds the critical point.  A bracket stops early when its ends are
    adjacent floats, and collapses onto a midpoint where the sum is exactly
    zero (or NaN, which takes subnormal root gaps).  A bracket's midpoints
    depend only on x and where the bracket starts, so refining to tol and
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
    z = _midpoints(x)
    m_tilde, M_tilde = _gap_extrema(z)
    m_prime, M_prime = _gap_extrema(xi)
    m_p, M_p = _gap_extrema(x)
    left = m_prime - m_tilde
    right = M_tilde - M_prime
    left_sign, right_sign = _margin_sign(left), _margin_sign(right)
    if not left_sign or not right_sign:
        if not (math.isfinite(left) and math.isfinite(right)):
            raise DegenerateMarginError(f"margins ({left!r}, {right!r}) are not finite")
        # min() and max() pass over NaN gaps, so a NaN root can leave finite margins
        if not all(map(math.isfinite, x)):
            raise DegenerateMarginError(
                f"margins ({left!r}, {right!r}) rest on roots that are not finite"
            )
        raise DegenerateMarginError(
            f"margins ({left!r}, {right!r}) too small to classify in floats"
        )
    return GapReport(
        x=tuple(x),
        z=tuple(z),
        xi=tuple(xi),
        xi_halfwidth=tuple(0.5 * (b - a) for a, b in zip(lo, hi)),
        m_p=m_p,
        M_p=M_p,
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


def _finish(x: list[float], lo: list[float], hi: list[float], full: float,
            target: str) -> GapReport | None:
    """match's last step: refine the brackets in full, then gap_report's report if its class is target."""
    _refine(x, lo, hi, full)
    try:
        report = _report(x, lo, hi)
    except DegenerateMarginError:
        return None
    return report if report.gap_class == target else None


def _stage_source(d: int) -> list[str]:
    """Source lines of one stage of the kernel for the d roots x0 .. x{d-1}.

    Bracket k is the pair of locals a{k}, b{k}.  Each is halved as _refine
    halves [lo[k], hi[k]] to the tolerance tol, and m_lo, m_hi, M_lo and M_hi
    then hold xi_gap_bounds of the brackets, built gap by gap with each bound
    replaced only on a strict < or >, as min() and max() replace theirs, so
    NaN gap bounds and ties between 0.0 and -0.0 come out as theirs do.
    P'/P at a midpoint is the one expression
    1.0 / (mid - x0) + ... + 1.0 / (mid - x{d-1}), summed left to right as
    _refine's loop sums it (not sum(), which compensates on Python 3.12 and
    later).  The loop starts from s = 0.0, so it computes 0.0 + t0 + ...
    where the expression computes t0 + ...; adding 0.0 changes only the sign
    of a zero, so the two sums differ at most in the sign of a zero sum, and
    the three-way test on s treats +0.0 and -0.0 alike.  The kernel's
    brackets are therefore _refine's, bit for bit.
    """
    s = " + ".join(f"1.0 / (mid - x{j})" for j in range(d))
    lines = ["width = 2.0 * tol"]
    for k in range(d - 1):
        a, b = f"a{k}", f"b{k}"
        lines += [
            f"while {b} - {a} > width:",
            f"    mid = 0.5 * ({a} + {b})",
            f"    if mid <= {a} or mid >= {b}:",
            "        break",
            f"    s = {s}",
            "    if s > 0.0:",
            f"        {a} = mid",
            "    elif s < 0.0:",
            f"        {b} = mid",
            "    else:",
            f"        {a} = {b} = mid",
        ]
    lines += ["m_lo = M_lo = a1 - b0", "m_hi = M_hi = b1 - a0"]
    for k in range(2, d - 1):
        lines += [
            f"inner, outer = a{k} - b{k - 1}, b{k} - a{k - 1}",
            "if inner < m_lo:", "    m_lo = inner",
            "if inner > M_lo:", "    M_lo = inner",
            "if outer < m_hi:", "    m_hi = outer",
            "if outer > M_hi:", "    M_hi = outer",
        ]
    return lines


def _stage_rule_source(target: str, ruled_out: str, decided: str) -> list[str]:
    """Source lines of match's stage rule for target, on the bounds m_lo .. M_hi.

    The left margin lies in [m_lo - m_tilde, m_hi - m_tilde] and the right
    in [M_tilde - M_hi, M_tilde - M_lo].  Each side's sign, and so its near
    bound (the one that favours the target most) and its far bound, is read
    from the target string.  The statement ruled_out runs unless both sides'
    near bounds pass the MARGIN_EPS test, and decided runs when both far
    bounds pass it too; the kernel passes "return None" and "break".  A "+"
    side tests its margin as written; a "-" side tests it with the operands
    of its subtraction swapped, which negates it exactly (rounding to nearest
    is symmetric) and can differ from -margin only in the sign of a zero,
    which no test against MARGIN_EPS sees.  So a side passes exactly when
    _margin_sign of its margin is the target's sign (NaN passes neither).
    """
    left_plus, right_plus = target[1] == "+", target[3] == "+"
    l_near, l_far = ("m_hi", "m_lo") if left_plus else ("m_lo", "m_hi")
    r_near, r_far = ("M_lo", "M_hi") if right_plus else ("M_hi", "M_lo")

    def passes(m: str, M: str) -> str:
        left_margin = f"{m} - m_tilde" if left_plus else f"m_tilde - {m}"
        right_margin = f"M_tilde - {M}" if right_plus else f"{M} - M_tilde"
        return f"{left_margin} >= MARGIN_EPS and {right_margin} >= MARGIN_EPS"

    return [f"if not ({passes(l_near, r_near)}):", f"    {ruled_out}",
            f"if {passes(l_far, r_far)}:", f"    {decided}"]


def _kernel_source(d: int, target: str) -> str:
    """Source of the function `kernel(x)`: match(x, target) for d >= 3 roots.

    The kernel has no loop over x: it unpacks x into x0 .. x{d-1}, computes
    m_tilde and M_tilde gap by gap (each midpoint as _midpoints computes it,
    each bound replaced on a strict < or > as min() and max() replace
    theirs; the max test can be an elif, since m_tilde <= M_tilde unless
    both are NaN), holds bracket k as the locals a{k}, b{k}, starting from
    the root interval, and runs each stage as _stage_source(d), then
    _stage_rule_source's test on the bounds and tol /= _STAGE_FACTOR, from
    the tolerances _tolerances(x) gives; _finish takes the brackets last.
    MARGIN_EPS, _STAGE_FACTOR and _FIRST_STAGE (inside _tolerances) are read
    from this module when the kernel runs.
    """
    xs = ", ".join(f"x{j}" for j in range(d))
    head = [f"{xs} = x"]
    head += [f"z{k} = (x{k} + x{k + 1}) * 0.5" for k in range(2)]
    head += ["m_tilde = M_tilde = z1 - z0"]
    for k in range(2, d - 1):
        head += [
            f"z{k} = (x{k} + x{k + 1}) * 0.5",
            f"g = z{k} - z{k - 1}",
            "if g < m_tilde:", "    m_tilde = g",
            "elif g > M_tilde:", "    M_tilde = g",
        ]
    head += [f"a{k}, b{k} = x{k}, x{k + 1}" for k in range(d - 1)]
    los = "[" + ", ".join(f"a{k}" for k in range(d - 1)) + "]"
    his = "[" + ", ".join(f"b{k}" for k in range(d - 1)) + "]"
    body = [*head, "full, tol = _tolerances(x)", "while tol > full:"]
    body += ["    " + line for line in _stage_source(d)]
    body += ["    " + line for line in _stage_rule_source(target, "return None", "break")]
    body += ["    tol /= _STAGE_FACTOR", f"return _finish(x, {los}, {his}, full, {target!r})"]
    return "def kernel(x):\n" + "".join(f"    {line}\n" for line in body)


# a cache bound, not an option: 64 kernels, 16 degrees of 4 targets.  An evicted
# kernel is compiled again; the cost of a build is tabled at sampler._sign_kernel
@functools.lru_cache(maxsize=64)
def match_kernel(d: int, target: str) -> Callable[[list[float]], GapReport | None]:
    """The function x -> match(x, target) for d >= 3 roots: fetch it once, call it per attempt.

    It is compiled from _kernel_source(d, target) on the first request.
    """
    namespace: dict = {}
    code = compile(_kernel_source(d, target), f"<match kernel, d={d}, {target}>", "exec")
    exec(code, globals(), namespace)
    return namespace["kernel"]


def match(x: list[float], target: str) -> GapReport | None:
    """gap_report(x) when its class is `target`; None otherwise.

    This is the search's per-attempt test, and it checks nothing: x must be
    a list of at least three strictly increasing floats and target one of
    GAP_CLASSES, as search_gap_class guarantees for every attempt.  Input
    from anywhere else goes through gap_report, which validates it.

    None also stands for the inputs gap_report rejects with
    DegenerateMarginError.  m_tilde and M_tilde are _report's, bit for bit
    (see _kernel_source).  The brackets start as the root intervals and are
    refined in stages of tolerance (x_n - x_1) / _FIRST_STAGE, then a factor _STAGE_FACTOR
    smaller each stage (see _tolerances for a span that overflows).  Each
    stage's brackets bound the min and max critical gap (xi_gap_bounds' rule), and so both
    margins: float subtraction and min/max are monotone, so the bounds hold
    the margins that full refinement computes.  A side is the target's when
    its margin, oriented toward the target's sign, is at least MARGIN_EPS,
    which is _margin_sign's rule (see _stage_rule_source).  When a side's
    near bound, the one that favours the target most, fails that test, the
    target is ruled out and the search stops; when its far bound passes
    too, that side is decided.  Once both sides are decided, or the stages
    run out, the brackets go straight to the full refinement (_refine),
    which visits the same midpoints whatever the schedule, and the report is
    built from them exactly as gap_report builds it.

    The work runs in match_kernel(len(x), target), generated for that degree
    and target from one template: straight-line code with each bracket in
    two locals and P'/P as one expression (see _stage_source for why its
    bits are _refine's).
    """
    return match_kernel(len(x), target)(x)
