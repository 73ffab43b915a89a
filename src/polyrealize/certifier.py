"""Exact-arithmetic back end.

Sampled roots are rationalized (rounded to a fixed number of significant
decimal digits, represented exactly), expanded by exact convolution, and the
resulting coefficient signs / root counts / modulus order are checked against
a claimed couple.  Gap classes are certified by exact-sign bisection on the
derivative with dyadic midpoints, refined until every strict comparison is
decided by interval separation.

Every check returns a Certificate or a Mismatch naming the first check that
failed; a property of the sample (a vanishing coefficient, tied moduli, tied
roots, an undecidable comparison) is a Mismatch, never an exception.  A
Certificate is a transcript: re-running its checks on the stored data
reproduces the claim.  A rationalized witness differs microscopically from
the floating sample that suggested it; that is irrelevant, since existence of
the rationalized polynomial is what the certificate claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .criticalgaps import xi_gap_bounds
from .moduliorders import ModuliCouple, ModuliOrder, TiedModuliError, order_from_roots
from .polycore import RootSpec, derivative_coeffs, expand, horner
from .signpatterns import PairCouple, SignPattern

DEFAULT_DIGITS = 12
GAP_REFINE_CAP = 1000


class RoundsToZeroError(ValueError):
    """Rationalization produced a zero entry."""


class ZeroCoefficientError(ValueError):
    """The exact expansion has a vanishing coefficient; its sign word is undefined."""


class RootSumIdentityError(RuntimeError):
    """The exact expansion's subdominant coefficient is not minus the root sum."""


@dataclass(frozen=True)
class ExactPolynomial:
    """Monic polynomial with arbitrary-precision rational coefficients, descending."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("exact polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


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
    """Exact rational equal to v rounded to `digits` significant decimal digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    v = float(v)
    if v == 0.0:
        raise RoundsToZeroError("value is zero")
    mant, exp = format(v, f".{digits - 1}e").split("e")
    q = Fraction(mant) * Fraction(10) ** int(exp)
    if q == 0:
        raise RoundsToZeroError(f"{v!r} rounds to zero at {digits} digits")
    return q


def rationalize(spec: RootSpec, digits: int = DEFAULT_DIGITS) -> RootSpec:
    """RootSpec with every entry rounded to `digits` significant decimal digits."""
    return RootSpec(
        real_roots=tuple(rationalize_value(r, digits) for r in spec.real_roots),
        complex_pairs=tuple(
            (rationalize_value(re, digits) if re != 0 else Fraction(0),
             rationalize_value(im, digits))
            for re, im in spec.complex_pairs
        ),
    )


def exact_expand(spec: RootSpec) -> ExactPolynomial:
    """Exact convolution product over the spec's factors."""
    return ExactPolynomial(tuple(expand(
        [Fraction(r) for r in spec.real_roots],
        [(Fraction(re), Fraction(im)) for re, im in spec.complex_pairs],
        Fraction(1),
    )))


def exact_sign_pattern(poly: ExactPolynomial) -> SignPattern:
    """Sign word of exact coefficients; a zero coefficient is an error, not a guess."""
    signs = []
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            raise ZeroCoefficientError(f"coefficient of x^{poly.degree - i} is exactly zero")
        signs.append(1 if c > 0 else -1)
    return SignPattern(tuple(signs))


def certify_couple(spec: RootSpec, claim: Union[PairCouple, ModuliCouple]):
    """Certificate if the exact expansion of spec realizes the claim, else Mismatch.

    Checks run in order: sign vector, then root counts (pair claims) or
    hyperbolicity / distinct moduli / order (moduli claims).  A vanishing
    coefficient fails the sign vector check and tied moduli fail the order
    check; such a sample is rejected, never patched.
    """
    poly = exact_expand(spec)
    checks: list[tuple[str, str]] = []

    pos = spec.pos_count
    neg = spec.neg_count

    try:
        actual = exact_sign_pattern(poly)
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

    # internal identity: subdominant coefficient is minus the exact root sum
    root_sum = sum((Fraction(r) for r in spec.real_roots), Fraction(0))
    root_sum += sum((2 * Fraction(re) for re, _ in spec.complex_pairs), Fraction(0))
    if poly.coeffs[1] != -root_sum:
        raise RootSumIdentityError(
            f"subdominant coefficient {poly.coeffs[1]} is not minus the root sum {root_sum}"
        )
    checks.append(("subdominant_identity", str(poly.coeffs[1])))

    return Certificate(spec=spec, coeffs=poly.coeffs, claim=claim, checks=tuple(checks))


def _halve(dcoeffs, lo, hi, sign):
    """One exact bisection step on a bracket where P' has sign `sign` at lo.

    Collapses to a point when the midpoint is a root of P'.
    """
    mid = (lo + hi) / 2
    fm = horner(dcoeffs, mid)
    if fm == 0:
        return mid, mid
    if (fm > 0) == (sign > 0):
        return mid, hi
    return lo, mid


def certify_gap_class(roots: Sequence[Fraction]):
    """Certified gap class of the monic polynomial with the given exact roots.

    The midpoint-gap extrema are exact rationals; the critical-point gaps are
    bracketed by enclosures that are refined until both strict comparisons are
    decided by separation.  Adjacent equal roots (rationalization can merge
    two close floats) fail the "simple_roots" check; running out of
    GAP_REFINE_CAP refinement rounds, which signals a potential non-strict
    equality, fails the "gap_class" check.  Fewer than three roots or
    decreasing roots are caller errors and raise ValueError.
    """
    roots = [Fraction(r) for r in roots]
    n = len(roots)
    if n < 3:
        raise ValueError("need at least three roots")
    if any(a > b for a, b in zip(roots, roots[1:])):
        raise ValueError("roots must be increasing")
    if len(set(roots)) < n:
        return Mismatch("simple_roots", "two roots are equal")

    z_gaps = [(roots[k + 2] - roots[k]) / 2 for k in range(n - 2)]
    m_tilde, M_tilde = min(z_gaps), max(z_gaps)

    # gap analysis admits a zero root, which RootSpec does not
    poly = ExactPolynomial(tuple(expand(roots, (), Fraction(1))))
    dcoeffs = derivative_coeffs(poly.coeffs)

    # the root intervals enclose the critical points; at the simple root x_k
    # (0-based) P' = prod_{j != k} (x_k - x_j) has sign (-1)^(n-1-k)
    lo, hi = roots[:-1], roots[1:]
    signs = [1 if (n - 1 - k) % 2 == 0 else -1 for k in range(n - 1)]

    for _ in range(GAP_REFINE_CAP + 1):
        m_lo, m_hi, M_lo, M_hi = xi_gap_bounds(lo, hi)
        left = "L+" if m_lo > m_tilde else ("L-" if m_hi < m_tilde else None)
        right = "R+" if M_hi < M_tilde else ("R-" if M_lo > M_tilde else None)
        if left and right:
            checks = (
                ("m_tilde", str(m_tilde)),
                ("M_tilde", str(M_tilde)),
                ("m_prime_bounds", f"[{m_lo}, {m_hi}]"),
                ("M_prime_bounds", f"[{M_lo}, {M_hi}]"),
            )
            return Certificate(spec=None, coeffs=poly.coeffs, claim=left + right, checks=checks)

        for k in range(n - 1):
            if lo[k] != hi[k]:
                lo[k], hi[k] = _halve(dcoeffs, lo[k], hi[k], signs[k])
    return Mismatch("gap_class", f"undecided after {GAP_REFINE_CAP} rounds")


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"
