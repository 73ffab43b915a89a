"""Monic real polynomials in double precision.

Construction from explicit roots, Horner evaluation, derivative, and
tolerance-aware extraction of the coefficient sign word.  The expansion,
Horner and derivative kernels are generic over the number type: the search
loops expand in floats (unit 1.0), and :mod:`polyrealize.certifier` runs all
three on Python ints (unit 1) for its exact re-verification, over roots
scaled to a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

DEFAULT_SIGN_TOLERANCE = 1e-9


class ZeroRootError(ValueError):
    """A real root is exactly zero; sign words need a nonzero constant term."""


@dataclass(frozen=True)
class RootSpec:
    """Explicit roots of a monic real polynomial.

    ``real_roots`` holds nonzero reals; ``complex_pairs`` holds (re, im)
    tuples with im > 0, each standing for the conjugate pair re +/- i*im.
    Entries may be floats or Fractions; every consumer is arithmetic-agnostic,
    so the same type carries both sampled values and rationalized ones.
    """

    real_roots: tuple = ()
    complex_pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "real_roots", tuple(self.real_roots))
        object.__setattr__(
            self, "complex_pairs", tuple((re, im) for re, im in self.complex_pairs)
        )
        for r in self.real_roots:
            if r == 0:
                raise ZeroRootError("real root is exactly zero")
        for _, im in self.complex_pairs:
            if not im > 0:
                raise ValueError(f"complex pair needs im > 0, got im={im!r}")

    @property
    def degree(self) -> int:
        return len(self.real_roots) + 2 * len(self.complex_pairs)

    @property
    def pos_count(self) -> int:
        return sum(1 for r in self.real_roots if r > 0)

    @property
    def neg_count(self) -> int:
        return sum(1 for r in self.real_roots if r < 0)


@dataclass(frozen=True)
class RealPolynomial:
    """Monic polynomial of degree d; stores a_{d-1}..a_0, the leading 1 is implicit."""

    tail: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.tail)

    @property
    def coeffs(self) -> tuple[float, ...]:
        """All d+1 coefficients in descending powers, leading 1.0 first."""
        return (1.0,) + self.tail


def expand(reals: Sequence, pairs: Sequence, one) -> list:
    """Descending coefficients of prod (x - r) * prod (x^2 - 2*re*x + re^2 + im^2).

    Sequential convolution, real factors first, then one quadratic per
    (re, im) pair.  Generic over the number type: `one` is the unit of the
    arithmetic (1.0 or int 1) and the entries must already be of it.
    """
    zero = one - one
    coeffs = [one]
    for r in reals:
        nxt = coeffs + [zero]
        for j in range(len(coeffs)):
            nxt[j + 1] -= r * coeffs[j]
        coeffs = nxt
    for re, im in pairs:
        s = 2 * re
        q = re * re + im * im
        nxt = coeffs + [zero, zero]
        for j in range(len(coeffs)):
            nxt[j + 1] -= s * coeffs[j]
            nxt[j + 2] += q * coeffs[j]
        coeffs = nxt
    return coeffs


def expand_real(roots: Sequence[float]) -> list[float]:
    """Descending coefficients of the monic product of (x - r); no validation.

    Used directly by the gap machinery, where a zero root is legitimate.
    """
    return expand(roots, (), 1.0)


def expand_from_roots(spec: RootSpec) -> RealPolynomial:
    """Expand a RootSpec in floats, real factors first (see `expand`)."""
    if spec.degree == 0:
        raise ValueError("empty RootSpec")
    coeffs = expand(
        [float(r) for r in spec.real_roots],
        [(float(re), float(im)) for re, im in spec.complex_pairs],
        1.0,
    )
    return RealPolynomial(tuple(coeffs[1:]))


def horner(coeffs: Sequence, x):
    """Value at x of the polynomial with descending coefficients; any number type."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def derivative_coeffs(coeffs: Sequence) -> tuple:
    """Descending coefficients of the derivative; any number type."""
    d = len(coeffs) - 1
    return tuple((d - i) * coeffs[i] for i in range(d))


def sign_tuple(coeffs: Sequence[float], tau: float = DEFAULT_SIGN_TOLERANCE):
    """Signs (+1/-1) of the coefficients, or None when any is too small to call.

    A coefficient is ambiguous when |a_j| <= tau * max(1, max_k |a_k|).
    """
    m = 1.0
    for c in coeffs:
        a = abs(c)
        if a > m:
            m = a
    thr = tau * m
    out = []
    for c in coeffs:
        if c > thr:
            out.append(1)
        elif c < -thr:
            out.append(-1)
        else:
            return None
    return tuple(out)

