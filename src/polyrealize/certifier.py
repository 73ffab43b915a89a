"""Exact-arithmetic back end.

Sampled roots are rationalized (rounded to a fixed number of significant
decimal digits, represented exactly) and put over one common denominator D,
the lcm of their denominators.  The integer roots R = D*r expand by exact
convolution over Python ints into Q(t) = D**n * P(t/D), whose coefficients
A_j have the signs of the a_j = A_j / D**j.  Couple checks read the sign
word and the root-sum identity from the integers A_j, and the claimed root
counts and the modulus order from the integer roots R;
Fractions are built only for the coefficients a Certificate stores and for
what exact_expand returns.  Gap classes are certified by exact-sign
bisection on the derivative in the integer variable t = D*x: all brackets
share one dyadic scale 2**s, the sign of the derivative at a midpoint is
that of a homogenized integer Horner sum, and bisection goes on until every
strict comparison is decided by interval separation, compared in integers
on the common scale (the setting of the Descartes method for real-root
isolation, Collins & Akritas 1976).

Every check returns a Certificate or a Mismatch naming the first check that
failed; a property of the sample (a vanishing coefficient, tied moduli, tied
roots, an undecidable comparison) is a Mismatch, never an exception.  A
Certificate is a transcript: re-running its checks on the stored data
reproduces the claim.  A rationalized witness differs microscopically from
the floating sample that suggested it; that is irrelevant, since existence of
the rationalized polynomial is what the certificate claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .criticalgaps import as_float, xi_gap_bounds
from .moduliorders import ModuliCouple, ModuliOrder, TiedModuliError, order_from_roots
from .polycore import RootSpec, derivative_coeffs, expand, horner
from .signpatterns import PairCouple, SignPattern

DEFAULT_DIGITS = 12
# every finite double is exact at this many significant decimal digits
_EXACT_DIGITS = 767
GAP_REFINE_CAP = 1000


class ZeroCoefficientError(ValueError):
    """The exact expansion has a vanishing coefficient; its sign word is undefined."""


class RootSumIdentityError(RuntimeError):
    """The exact expansion's subdominant coefficient is not minus the root sum."""


@dataclass(frozen=True)
class Mismatch:
    """First failing check of a certification attempt, with the adjudicated facts."""

    failed_check: str
    detail: str
    actual_pattern: SignPattern | None = None
    actual_pair: tuple[int, int] | None = None
    actual_order: ModuliOrder | None = None


@dataclass(frozen=True)
class Certificate:
    """Exact verification transcript for a couple or a gap class."""

    spec: RootSpec | None
    coeffs: tuple[Fraction, ...]
    claim: Union[PairCouple, ModuliCouple, str]
    checks: tuple[tuple[str, str], ...]


def rationalize_value(v, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Exact rational equal to v rounded to `digits` significant decimal digits.

    From _EXACT_DIGITS digits on that is float(v) itself, so no more are
    formatted, which also keeps the digit string under the 4 300-digit limit
    that Python 3.11 (and 3.10.7) set on int() conversion.  A value too large
    for a float raises ValueError.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    v = as_float(v, "value")
    if not math.isfinite(v):
        raise ValueError(f"{v!r} is not finite")
    if digits > _EXACT_DIGITS:
        digits = _EXACT_DIGITS
    # "d.ddde[+-]xx": the digits form an integer mantissa, so v ~ mant * 10**exp
    mant, exp = format(v, f".{digits - 1}e").split("e")
    mant = int(mant.replace(".", ""))
    exp = int(exp) - (digits - 1)
    if exp >= 0:
        return Fraction(mant * 10**exp)
    return Fraction(mant, 10**-exp)


def rationalize(spec: RootSpec, digits: int = DEFAULT_DIGITS) -> RootSpec:
    """RootSpec with every entry rounded to `digits` significant decimal digits."""
    return spec.map(lambda v: rationalize_value(v, digits))


def _over_common_denominator(values) -> tuple[int, list[int]]:
    """(D, [D*q for q in values]) with D the lcm of the denominators of the rationals."""
    qs = [q if type(q) is Fraction else Fraction(q) for q in values]
    D = math.lcm(*(q.denominator for q in qs))
    return D, [q.numerator * (D // q.denominator) for q in qs]


def _descaled(coeffs, D: int) -> tuple[Fraction, ...]:
    """Coefficients of P(x) from those of Q(t) = D**n * P(t/D): a_j = A_j / D**j."""
    return tuple(Fraction(c, D**j) for j, c in enumerate(coeffs))


def _integer_expansion(spec: RootSpec) -> tuple[int, list[int], int, list[int]]:
    """(D, A, S, R): the spec over its common denominator D, expanded in integers.

    With t = D*x, each real factor becomes t - D*r and each quadratic
    t**2 - 2*(D*re)*t + (D*re)**2 + (D*im)**2, all over Python ints; A holds
    the coefficients of Q(t) = D**n * P(t/D), S = D * (sum of the roots) and
    R the integer real roots D*r, which keep the signs of the r (D > 0).
    """
    nreal = len(spec.real_roots)
    D, ints = _over_common_denominator(
        list(spec.real_roots) + [v for pair in spec.complex_pairs for v in pair]
    )
    reals, res = ints[:nreal], ints[nreal::2]
    A = expand(reals, list(zip(res, ints[nreal + 1::2])), 1)
    return D, A, sum(reals) + 2 * sum(res), reals


def exact_expand(spec: RootSpec) -> tuple[Fraction, ...]:
    """Exact descending coefficients of the monic polynomial with the spec's roots."""
    D, A, _, _ = _integer_expansion(spec)
    return _descaled(A, D)


def exact_sign_pattern(coeffs: Sequence) -> SignPattern:
    """Sign word of exact coefficients (ints or Fractions); a zero is an error, not a guess."""
    d = len(coeffs) - 1
    signs = []
    for i, c in enumerate(coeffs):
        if c == 0:
            raise ZeroCoefficientError(f"coefficient of x^{d - i} is exactly zero")
        signs.append(1 if c > 0 else -1)
    return SignPattern(tuple(signs))


def _moduli_order(R: Sequence[int], real_roots: Sequence) -> ModuliOrder:
    """`order_from_roots(real_roots)`, read from the integer roots R = D*r.

    D > 0 keeps each root's sign and the order of the moduli, and ints sort
    faster than Fractions.  Only a tie is read again from the roots
    themselves, so the error names the tied modulus, not D times it.
    """
    try:
        return order_from_roots(R)
    except TiedModuliError:
        return order_from_roots(real_roots)


def certify_couple(spec: RootSpec, claim: Union[PairCouple, ModuliCouple]):
    """Certificate if the exact expansion of spec realizes the claim, else Mismatch.

    Checks run in order: sign vector, then root counts (pair claims) or
    hyperbolicity / distinct moduli / order (moduli claims).  A vanishing
    coefficient fails the sign vector check and tied moduli fail the order
    check; such a sample is rejected, never patched.  A spec of degree 0 is a
    caller error and raises ValueError.
    """
    if spec.degree < 1:
        raise ValueError("need degree >= 1")
    D, A, S, R = _integer_expansion(spec)
    checks: list[tuple[str, str]] = []

    pos = sum(r > 0 for r in R)  # ints, so no Fraction comparisons
    neg = sum(r < 0 for r in R)

    try:
        actual = exact_sign_pattern(A)  # D > 0: A_j has the sign of a_j
    except ZeroCoefficientError as exc:
        return Mismatch("sign_vector", str(exc), actual_pair=(pos, neg))
    facts = dict(actual_pattern=actual, actual_pair=(pos, neg))  # every Mismatch below
    if actual != claim.pattern:
        detail = f"expansion has sign word {actual.word}, claim is {claim.pattern.word}"
        return Mismatch("sign_vector", detail, **facts)
    checks.append(("sign_vector", actual.word))

    if isinstance(claim, PairCouple):
        if (pos, neg) != tuple(claim.pair):
            detail = f"spec has (pos, neg) = ({pos}, {neg}), claim is {tuple(claim.pair)}"
            return Mismatch("root_counts", detail, **facts)
        checks.append(("root_counts", f"({pos},{neg})"))
    else:
        if spec.complex_pairs:
            return Mismatch("hyperbolic", "moduli claims need all roots real", **facts)
        checks.append(("hyperbolic", "all roots real"))
        try:
            order = _moduli_order(R, spec.real_roots)
        except TiedModuliError as exc:
            return Mismatch("moduli_order", str(exc), **facts)
        if order != claim.order:
            detail = f"roots give order {order.word}, claim is {claim.order.word}"
            return Mismatch("moduli_order", detail, actual_order=order, **facts)
        checks.append(("moduli_order", order.word))

    # internal identity: subdominant coefficient is minus the exact root sum
    coeffs = _descaled(A, D)
    if A[1] != -S:
        raise RootSumIdentityError(
            f"subdominant coefficient {coeffs[1]} is not minus the root sum {Fraction(S, D)}"
        )
    checks.append(("subdominant_identity", str(coeffs[1])))

    return Certificate(spec=spec, coeffs=coeffs, claim=claim, checks=tuple(checks))


def certify_gap_class(roots: Sequence[Fraction]):
    """Certified gap class of the monic polynomial with the given exact roots.

    The midpoint-gap extrema are exact rationals; the critical-point gaps are
    bracketed by enclosures that are refined until both strict comparisons are
    decided by separation.  Adjacent equal roots (rationalization can merge
    two close floats) fail the "simple_roots" check; running out of
    GAP_REFINE_CAP refinement rounds, which signals a potential non-strict
    equality, fails the "gap_class" check.  Fewer than three roots or
    decreasing roots are caller errors and raise ValueError.

    Everything runs in integers: with t = D*x the roots are R_k = D*x_k and
    Q(t) = prod (t - R_k).  After s rounds a bracket end t = L / 2**s is
    stored as the integer L, so the midpoint of [L, H] is L + H at scale
    2**(s+1), and the sign of Q' there is the sign of
    sum_j c_j * M**(m-j) * 2**((s+1)*j).  A gap g between bracket ends and a
    midpoint gap (R_{k+2} - R_k) / 2 compare as 2*g against (R_{k+2} - R_k) * 2**s.
    """
    D, R = _over_common_denominator(roots)
    n = len(R)
    if n < 3:
        raise ValueError("need at least three roots")
    if any(a > b for a, b in zip(R, R[1:])):
        raise ValueError("roots must be increasing")
    if len(set(R)) < n:
        return Mismatch("simple_roots", "two roots are equal")

    z_gaps = [R[k + 2] - R[k] for k in range(n - 2)]
    z_min, z_max = min(z_gaps), max(z_gaps)

    # gap analysis admits a zero root, which RootSpec does not
    Q = expand(R, (), 1)
    dcoeffs = derivative_coeffs(Q)

    # the root intervals enclose the critical points; at the simple root x_k
    # (0-based) P' = prod_{j != k} (x_k - x_j) has sign (-1)^(n-1-k)
    lo, hi = R[:-1], R[1:]
    positive = [(n - 1 - k) % 2 == 0 for k in range(n - 1)]

    for s in range(GAP_REFINE_CAP + 1):
        m_lo, m_hi, M_lo, M_hi = xi_gap_bounds(lo, hi)
        z_lo, z_hi = z_min << s, z_max << s
        left = "L+" if 2 * m_lo > z_lo else ("L-" if 2 * m_hi < z_lo else None)
        right = "R+" if 2 * M_hi < z_hi else ("R-" if 2 * M_lo > z_hi else None)
        if left and right:
            unit = D << s
            checks = (
                ("m_tilde", str(Fraction(z_min, 2 * D))),
                ("M_tilde", str(Fraction(z_max, 2 * D))),
                ("m_prime_bounds", f"[{Fraction(m_lo, unit)}, {Fraction(m_hi, unit)}]"),
                ("M_prime_bounds", f"[{Fraction(M_lo, unit)}, {Fraction(M_hi, unit)}]"),
            )
            return Certificate(
                spec=None, coeffs=_descaled(Q, D), claim=left + right, checks=checks
            )
        if s == GAP_REFINE_CAP:
            break

        shifted = [c << ((s + 1) * j) for j, c in enumerate(dcoeffs)]
        for k in range(n - 1):
            a, b = lo[k], hi[k]
            mid = a + b
            if a == b:
                lo[k] = hi[k] = mid
                continue
            acc = horner(shifted, mid)
            if acc == 0:
                lo[k] = hi[k] = mid
            elif (acc > 0) == positive[k]:
                lo[k], hi[k] = mid, 2 * b
            else:
                lo[k], hi[k] = 2 * a, mid
    return Mismatch("gap_class", f"undecided after {GAP_REFINE_CAP} rounds")


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"
