"""Monic real polynomials in double precision.

Construction from explicit roots, Horner evaluation, derivative, and
tolerance-aware extraction of the coefficient sign word (`sign_tuple`), the
one place the float sign threshold is stated.  `has_sign_word` tests roots
against one target word: it rejects on the sign of a_1 before expanding and
otherwise defers to `sign_tuple`; the pair and moduli searches run it on
every attempt.
`sign_word_lanes` is its block form: it tests many attempts at once, one
float lane per attempt, and returns the lanes whose word is the target.
The expansion, Horner and derivative kernels are generic over the number
type: the search loops expand in floats (unit 1.0) and in float lanes
(`_Lanes`, one float per attempt of a block), and
:mod:`polyrealize.certifier` runs all three on Python ints (unit 1) for its
exact re-verification, over roots scaled to a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, gt, itemgetter, lt, mul, sub
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
    arithmetic (1.0, int 1, or a `_Lanes` of 1.0) and the entries must
    already be of it.  On lanes every lane gets the float expansion of its
    own roots, bit for bit.  The leading coefficient stays `one`, so the
    j = 0 term of each factor skips its multiply: x * one is x exactly in
    every arithmetic here.
    """
    zero = one - one
    coeffs = [one]
    for r in reals:
        nxt = coeffs + [zero]
        nxt[1] -= r  # the j = 0 term, r * coeffs[0]
        for j in range(1, len(coeffs)):
            nxt[j + 1] -= r * coeffs[j]
        coeffs = nxt
    for re, im in pairs:
        s = 2 * re
        q = re * re + im * im
        nxt = coeffs + [zero, zero]
        nxt[1] -= s
        nxt[2] += q
        for j in range(1, len(coeffs)):
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


def has_sign_word(reals: Sequence[float], pairs: Sequence, target: tuple[int, ...]) -> bool:
    """``sign_tuple(expand(reals, pairs, 1.0)) == target``, rejecting early on a_1.

    `target` is a sign word of length degree + 1, a tuple as
    `SignPattern.signs` is, and degree >= 1.

    a_1 is summed first, with the operations `expand` applies to coeffs[1] in
    the same order (re + re is 2 * re exactly), so it is bit for bit
    expand(...)[1].  An a_1 not strictly on the target's side of 0.0 (wrong
    sign, zero or NaN) rejects before the O(d^2) expansion: `sign_tuple`
    would give None or another word.
    """
    a1 = 0.0
    for r in reals:
        a1 -= r
    for re, _ in pairs:
        a1 -= re + re
    if not (gt if target[1] > 0 else lt)(a1, 0.0):
        return False
    return sign_tuple(expand(reals, pairs, 1.0)) == target


class _Lanes(list):
    """Floats of many attempts, one per lane; arithmetic acts lane by lane.

    `+`, `-` and `*` take another `_Lanes` of the same length, and
    `int * lanes` scales every lane by float(int), which is what int * float
    computes; each result is a new `_Lanes` whose lane k is the float
    operation on lane k.  list's `+=` would extend in
    place, and list's `int * list` would repeat, so both are overridden;
    `-=` falls back to `-`.  Results are never written in place: `expand`
    shares one coefficient object between lists.
    """

    __slots__ = ()

    def __add__(self, other):
        return _Lanes(map(add, self, other))

    def __sub__(self, other):
        return _Lanes(map(sub, self, other))

    def __mul__(self, other):
        return _Lanes(map(mul, self, other))

    def __rmul__(self, other):
        return _Lanes(map(mul, repeat(float(other), len(self)), self))

    __iadd__ = __add__


def sign_word_lanes(reals: Sequence, pairs: Sequence, target: tuple[int, ...]) -> list[int]:
    """The ascending lanes k whose roots pass `has_sign_word(..., target)`.

    Column form of `has_sign_word` over a block of attempts: ``reals[j][k]``
    is real root j of lane k and ``pairs[j] = (re, im)`` holds pair j's
    parts of every lane; there is at least one column.  a_1 is summed lane
    by lane in `has_sign_word`'s order and compared with 0.0 as there.  The
    lanes left expand together through `expand` on `_Lanes`.  A lane drops
    at the first
    coefficient whose sign is not strictly the target's, which `sign_tuple`
    could never call the target's (its threshold is positive).
    `sign_tuple` decides the lanes that remain.
    """
    a1 = repeat(0.0, len(reals[0] if reals else pairs[0][0]))
    for r in reals:
        a1 = map(sub, a1, r)
    for re, _ in pairs:
        a1 = map(sub, a1, map(add, re, re))
    keep = list(compress(count(), map(gt if target[1] > 0 else lt, a1, repeat(0.0))))
    if not keep:
        return []
    pick = itemgetter(*keep) if len(keep) > 1 else lambda col: (col[keep[0]],)
    coeffs = expand(
        [_Lanes(pick(r)) for r in reals],
        [(_Lanes(pick(re)), _Lanes(pick(im))) for re, im in pairs],
        _Lanes(repeat(1.0, len(keep))),
    )
    lanes = range(len(keep))
    for c, t in zip(coeffs[2:], target[2:]):  # c[p] * t > 0.0, as one comparison
        lanes = [p for p in lanes if c[p] > 0.0] if t > 0 else [p for p in lanes if c[p] < 0.0]
    return [keep[p] for p in lanes if sign_tuple([c[p] for c in coeffs]) == target]
