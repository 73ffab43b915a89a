"""Monic real polynomials in double precision.

Construction from explicit roots, Horner evaluation, derivative, and
tolerance-aware extraction of the coefficient sign word (`sign_tuple`), the
one place the float sign threshold is stated.  `has_sign_word` tests roots
against one target word: it rejects on the sign of a_1 before expanding and
otherwise defers to `sign_tuple`; the pair and moduli searches run it on
every attempt.
`sign_word_lanes` is its block form: it tests many attempts at once, one
float lane per attempt, and returns the lanes whose word is the target.  It
expands coefficient-major, a_1 of every lane, then a_2, and so on, with
`expand`'s float operations in `expand`'s order, and drops a lane at its
first coefficient of the wrong sign.
The expansion, Horner and derivative kernels are generic over the number
type: the search loops expand in floats (unit 1.0), and
:mod:`polyrealize.certifier` runs all three on Python ints (unit 1) for its
exact re-verification, over roots scaled to a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, gt, itemgetter, lt, sub
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

    def map(self, f) -> RootSpec:
        """The RootSpec with f applied to every real root and to both parts of every pair."""
        # map is the builtin here: a method body does not see class attributes
        return RootSpec(
            tuple(map(f, self.real_roots)),
            tuple((f(re), f(im)) for re, im in self.complex_pairs),
        )

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
    arithmetic (1.0 or int 1) and the entries must already be of it.  The
    leading coefficient stays `one`, so the j = 0 term of each factor skips
    its multiply: x * one is x exactly in both arithmetics.
    `sign_word_lanes` computes the same float values column by column, in
    the same order of operations; keep the two in step.
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

    Nothing in the package or its tests calls it: kept only because the
    benchmark replay (perfbench/replay.py) still does; delete it once the
    replay stops doing so.
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


def _gather(keep: list[int]):
    """Lane gather: col -> the entries of col at the indices in keep, in order."""
    return itemgetter(*keep) if len(keep) > 1 else lambda col: (col[keep[0]],)


def _lane_coefficients(reals: Sequence, pairs: Sequence, target: tuple[int, ...]):
    """The lanes whose a_1 .. a_d all lie strictly on the target's side of 0.0.

    Returns (k, expand(lane k's reals, lane k's pairs, 1.0)) for each such
    lane k, in ascending k.  Block layout as in `sign_word_lanes`.  a_1 is summed lane by lane in
    `has_sign_word`'s order and compared with 0.0 as there; the lanes that
    pass are gathered, and their expansion runs coefficient-major: column m
    of every factor stage, m = 1 .. d, then the strict-sign test on a_m,
    which drops a lane at its first wrong sign.  Column m of a stage reads
    columns m, m - 1 and m - 2 of the stage before, so only those last two
    are kept.  Each value is the one `expand` computes, with its float
    operations in its order: the zero a new column starts from is 0.0, the
    multiply by the leading 1 is skipped, and s = re + re equals 2 * re.
    The survivors are gathered again only when at most half of the lanes
    computed on pass a column; otherwise the dead ones ride along, which
    costs less than moving every kept column.
    """
    a1 = repeat(0.0, len(reals[0] if reals else pairs[0][0]))
    for r in reals:
        a1 = map(sub, a1, r)
    for re, _ in pairs:
        a1 = map(sub, a1, map(add, re, re))
    lane = list(compress(count(), map(gt if target[1] > 0 else lt, a1, repeat(0.0))))
    if not lane:
        return []
    pick = _gather(lane)
    rs = [pick(r) for r in reals]
    ss, qs = [], []
    for re, im in pairs:
        re, im = pick(re), pick(im)
        ss.append([x + x for x in re])
        qs.append([x * x + y * y for x, y in zip(re, im)])
    nr, d = len(rs), len(rs) + 2 * len(ss)
    # h1[i] and h2[i]: columns m - 1 and m - 2 of the output stage i reads (the
    # real stages first, then the pairs), None where that output has none
    h1 = [None] * (nr + len(ss))
    h2 = [None] * (nr + len(ss))
    zeros = repeat(0.0)
    out = []  # a_1 .. a_m
    width = len(lane)
    live = range(width)
    for m in range(1, d + 1):
        cur = None  # column m of the output the next stage reads, None while it has none
        for i in range(m - 1, nr):  # real stage i reads an output of degree i
            c = zeros if cur is None else cur
            if m == 1:
                new = [a - r for a, r in zip(c, rs[i])]
            else:
                new = [a - r * b for a, r, b in zip(c, rs[i], h1[i])]
            h1[i], cur = cur, new
        for j, (s, q) in enumerate(zip(ss, qs)):
            i, p = nr + j, nr + 2 * j  # pair stage j reads an output of degree p
            c = zeros if cur is None else cur
            if m == 1:
                new = [a - x for a, x in zip(c, s)]
            elif m == 2 and p:
                new = [(a + y) - x * b for a, y, x, b in zip(c, q, s, h1[i])]
            elif m == 2:
                new = [a + y for a, y in zip(c, q)]
            elif m <= p + 1:
                new = [(a + y * b2) - x * b1 for a, y, b2, x, b1 in zip(c, q, h2[i], s, h1[i])]
            elif m == p + 2:
                new = [a + y * b2 for a, y, b2 in zip(c, q, h2[i])]
            else:
                new = None
            h2[i], h1[i], cur = h1[i], cur, new
        out.append(cur)
        if m == 1:  # the a_1 test ran before the expansion
            continue
        test = gt if target[m] > 0 else lt
        live = list(compress(live, map(test, cur if len(live) == width
                                       else map(cur.__getitem__, live), zeros)))
        if not live:
            return []
        if m < d and 2 * len(live) <= width:
            pick = _gather(live)
            rs, ss, qs, out = ([pick(c) for c in cols] for cols in (rs, ss, qs, out))
            h1, h2 = ([c if c is None else pick(c) for c in h] for h in (h1, h2))
            lane = pick(lane)
            width = len(live)
            live = range(width)
    return [(lane[k], [1.0, *(c[k] for c in out)]) for k in live]


def sign_word_lanes(reals: Sequence, pairs: Sequence, target: tuple[int, ...]) -> list[int]:
    """The ascending lanes k whose roots pass `has_sign_word(..., target)`.

    Column form of `has_sign_word` over a block of attempts: ``reals[j][k]``
    is real root j of lane k and ``pairs[j] = (re, im)`` holds pair j's
    parts of every lane; there is at least one column.  `_lane_coefficients`
    expands the lanes coefficient by coefficient and drops a lane at the
    first coefficient whose sign is not strictly the target's, which
    `sign_tuple` could never call the target's (its threshold is positive);
    `sign_tuple` decides the lanes that remain, on `expand`'s coefficients
    bit for bit.
    """
    return [k for k, coeffs in _lane_coefficients(reals, pairs, target)
            if sign_tuple(coeffs) == target]
