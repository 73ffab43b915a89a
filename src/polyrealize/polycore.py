"""Monic real polynomials in double precision.

Construction from explicit roots, Horner evaluation, derivative, and
tolerance-aware extraction of the coefficient sign word (`sign_tuple`).
The float rule of the sign word lives here twice, side by side:
`sign_tuple` states it on coefficients, and `word_source` writes the lines
of the search's per-attempt test, which decides on the roots what
`sign_tuple` of their expansion would.  Those lines expand
coefficient-major, a_1, then a_2, and so on, with `expand`'s float
operations in `expand`'s order, and reject at the first coefficient of the
wrong sign; `sampler` compiles them, behind its draw lines, into one kernel
per root shape.
The expansion, Horner and derivative kernels are generic over the number
type: the search loops expand in floats (unit 1.0), and
:mod:`polyrealize.certifier` runs all three on Python ints (unit 1) for its
exact re-verification, over roots scaled to a common denominator.
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
    `word_source` writes the same float operations, in the same order, column
    by column; keep the two in step.
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

    A coefficient is ambiguous when |a_j| <= tau * max(1, max_k |a_k|).  The
    leading 1.0 of a monic polynomial is tested too, so every word whose
    max |a_k| is at least 1/tau (1e9 by default) is ambiguous.
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


def word_source(nreals: int, npairs: int) -> list[str]:
    """Source lines of the sign-word test for nreals real roots and npairs pairs.

    The lines run inside the body of a loop over lanes that holds the roots
    in the locals r0 .. r{nreals-1} and the pairs' parts in re0, im0, re1,
    ..., the signs of the target's a_1 .. a_d in g1 .. gd (each 1.0 or -1.0)
    and the tolerance in tau.  They go on to the next lane (continue) unless
    sign_tuple(expand(reals, pairs, 1.0), tau) is the target word, whose
    leading sign is +; then they fall through.

    The coefficients are computed coefficient-major: column 1 of every factor
    stage of `expand` (the real stages, then the pairs), then column 2, and
    so on, each the value `expand` computes, with its float operations in
    its order.  So a_1 is the running sum 0.0 - r0 - ... - (re0 + re0) - ...
    (re + re is 2 * re exactly), and an entry a stage starts from zero is
    0.0, never -0.0.  Each a_m is tested as soon as it is computed:
    v_m = a_m * g_m, which negates exactly or changes nothing, must be > 0.0,
    or the lines go on to the next lane.  sign_tuple's threshold is
    positive, so it never calls such a word the target's.  Once every a_m
    passes, |a_m| is v_m, and thr = tau * max(1.0, v1, ..., vd) is
    sign_tuple's threshold: no v_m is NaN, so max finds the m that
    sign_tuple's loop keeps.  Then the leading 1.0 and every v_m must lie
    above thr, as in sign_tuple.
    """
    d = nreals + 2 * npairs
    cols: list[dict] = [{} for _ in range(nreals + npairs)]  # column m of stage i's output
    lines = []
    for m in range(1, d + 1):
        for i, out in enumerate(cols):
            c = cols[i - 1] if i else {}  # the stage's input, its leading 1 left implicit
            base = c.get(m, "0.0")
            if i < nreals:  # times (x - r_i), on an input of degree i
                if m > i + 1:
                    continue
                expr = f"{base} - r{i}" if m == 1 else f"{base} - r{i} * {c[m - 1]}"
            else:  # times (x^2 - s_j x + q_j), on an input of degree p
                j = i - nreals
                p = nreals + 2 * j
                if m > p + 2:
                    continue
                if m == 1:
                    lines.append(f"s{j} = re{j} + re{j}")
                    expr = f"{base} - s{j}"
                else:
                    if m == 2:
                        lines.append(f"q{j} = re{j} * re{j} + im{j} * im{j}")
                        expr = f"{base} + q{j}"
                    else:
                        expr = f"{base} + q{j} * {c[m - 2]}"
                    if m - 1 <= p:
                        expr += f" - s{j} * {c[m - 1]}"
            out[m] = f"c{i}_{m}"
            lines.append(f"{out[m]} = {expr}")
        lines += [f"v{m} = {cols[-1][m]} * g{m}", f"if not v{m} > 0.0:", "    continue"]
    vs = [f"v{m}" for m in range(1, d + 1)]
    lines += [f"thr = tau * max(1.0, {', '.join(vs)})",
              f"if not (1.0 > thr and {' and '.join(v + ' > thr' for v in vs)}):",
              "    continue"]
    return lines
