"""Randomized realizability search with counter-based, reproducible draws.

Every attempt's randomness is a pure function of (seed, attempt index): the
index is folded into the seed through a 64-bit avalanche mix, and successive
uniforms of that attempt come from re-mixing an incremented counter.  The
result is bitwise reproducibility regardless of execution order, and the
outcome is always the lowest-index hit: a search with budget n returns what
the first n attempts of any larger budget return.

Three engines share the machinery: pair search (draw the prescribed numbers
of positive/negative roots plus conjugate complex pairs, expand, compare the
coefficient sign word), moduli search (draw d positives, sort, negate where
the target order says N), and gap-class search (draw d distinct reals and
test their critical-point gaps against the target class, which stops
refining once that class is ruled out).  A hit is reported only with an exact
Certificate; a floating hit whose rationalized form yields a Mismatch is
counted as a failed attempt and the scan goes on.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Optional, Union

from . import certifier, polycore
from .certifier import Certificate
from .criticalgaps import GAP_CLASSES, GapReport, match
from .moduliorders import ModuliCouple, ModuliOrder, is_compatible
from .polycore import RealPolynomial, RootSpec, expand, expand_from_roots, sign_tuple
from .signpatterns import (
    IncompatibleCoupleError,
    PairCouple,
    RootCountPair,
    SignPattern,
    is_compatible_pair,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SEED_SALT = 0xD1B54A32D192ED03


class ParityMismatchError(ValueError):
    """d - pos - neg must be even (complex roots come in conjugate pairs)."""


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def attempt_unit_draws(seed: int, attempt: int, count: int) -> list[float]:
    """`count` uniforms in [0, 1), a pure function of (seed, attempt)."""
    base = _mix64((seed ^ _SEED_SALT) + attempt * _GAMMA)
    return [
        (_mix64(base + j * _GAMMA) >> 11) * 2.0**-53 for j in range(1, count + 1)
    ]


@dataclass(frozen=True)
class Uniform:
    """Plain uniform draws over the configured interval."""


@dataclass(frozen=True)
class Mixture:
    """Each root is drawn from a much narrower interval with some probability.

    narrow_scale is the absolute half-width of the narrow interval (defaults
    to ell/100 when None).  One narrow/wide decision is made per real root
    and one per conjugate pair (covering both its parameters).
    """

    narrow_scale: Optional[float] = None
    narrow_fraction: float = 0.5


@dataclass(frozen=True)
class MultiplicityBias:
    """A real root repeats the previous same-sign draw with some probability.

    Only meaningful for pair searches; moduli and gap searches need distinct
    values and treat this strategy as Uniform.
    """

    dup_probability: float = 0.5


Strategy = Union[Uniform, Mixture, MultiplicityBias]


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible sampling parameters shared by all engines."""

    n: int
    ell: float = 1.0
    seed: int = 0
    strategy: Strategy = Uniform()
    tau: float = polycore.DEFAULT_SIGN_TOLERANCE
    digits: int = certifier.DEFAULT_DIGITS

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        if isinstance(self.strategy, Mixture):
            s = self.strategy.narrow_scale
            if s is not None and not 0 < s < self.ell:
                raise ValueError("narrow_scale must satisfy 0 < scale < ell")
            if not 0 <= self.strategy.narrow_fraction <= 1:
                raise ValueError("narrow_fraction must lie in [0, 1]")
        if isinstance(self.strategy, MultiplicityBias):
            if not 0 <= self.strategy.dup_probability <= 1:
                raise ValueError("dup_probability must lie in [0, 1]")

    @property
    def narrow_scale(self) -> float:
        if isinstance(self.strategy, Mixture) and self.strategy.narrow_scale is not None:
            return self.strategy.narrow_scale
        return self.ell / 100.0


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: Found (with witness and certificate) or Exhausted."""

    status: str  # "found" | "exhausted"
    attempts: int
    seconds: float
    attempt_index: Optional[int] = None
    spec: Optional[RootSpec] = None
    poly: Optional[RealPolynomial] = None
    certificate: Optional[Certificate] = None
    gap: Optional[GapReport] = None

    @property
    def found(self) -> bool:
        return self.status == "found"


# --- per-attempt draws ------------------------------------------------------

def _pair_draw_count(pos: int, neg: int, npairs: int, strategy: Strategy) -> int:
    if isinstance(strategy, Uniform):
        return pos + neg + 2 * npairs
    if isinstance(strategy, Mixture):
        return 2 * (pos + neg) + 3 * npairs
    return 2 * (pos + neg) + 2 * npairs  # MultiplicityBias


def _draw_pair_roots(pos, neg, npairs, cfg: SearchConfig, attempt: int):
    """Raw (reals, pairs) lists for one pair-search attempt."""
    strategy = cfg.strategy
    ell = cfg.ell
    u = attempt_unit_draws(cfg.seed, attempt, _pair_draw_count(pos, neg, npairs, strategy))
    reals: list[float] = []
    pairs: list[tuple[float, float]] = []
    t = 0
    if isinstance(strategy, Uniform):
        for _ in range(pos):
            reals.append(ell * (1.0 - u[t]))
            t += 1
        for _ in range(neg):
            reals.append(-ell * (1.0 - u[t]))
            t += 1
        for _ in range(npairs):
            pairs.append((ell * (2.0 * u[t] - 1.0), ell * (1.0 - u[t + 1])))
            t += 2
    elif isinstance(strategy, Mixture):
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
        for sign, count in ((1.0, pos), (-1.0, neg)):
            for _ in range(count):
                scale = ns if u[t] < frac else ell
                reals.append(sign * scale * (1.0 - u[t + 1]))
                t += 2
        for _ in range(npairs):
            scale = ns if u[t] < frac else ell
            pairs.append((scale * (2.0 * u[t + 1] - 1.0), scale * (1.0 - u[t + 2])))
            t += 3
    else:  # MultiplicityBias
        dup = strategy.dup_probability
        for sign, count in ((1.0, pos), (-1.0, neg)):
            prev = None
            for _ in range(count):
                if prev is not None and u[t] < dup:
                    reals.append(prev)
                else:
                    prev = sign * ell * (1.0 - u[t + 1])
                    reals.append(prev)
                t += 2
        for _ in range(npairs):
            pairs.append((ell * (2.0 * u[t] - 1.0), ell * (1.0 - u[t + 1])))
            t += 2
    return reals, pairs


def draw_rootspec_pair(
    d: int, pair: RootCountPair, cfg: SearchConfig, attempt_index: int
) -> RootSpec:
    """The RootSpec examined at `attempt_index`; bit-for-bit reproducible."""
    pos, neg = pair
    rest = d - pos - neg
    if rest < 0:
        raise ValueError(f"pos + neg exceeds degree {d}")
    if rest % 2 != 0:
        raise ParityMismatchError(f"d - pos - neg = {rest} is odd")
    reals, pairs = _draw_pair_roots(pos, neg, rest // 2, cfg, attempt_index)
    return RootSpec(real_roots=tuple(reals), complex_pairs=tuple(pairs))


def _draw_values(d: int, cfg: SearchConfig, attempt: int, signed: bool) -> list[float]:
    """d values on (0, ell], or on [-ell, ell) when signed; Mixture may shrink some.

    A Mixture spends two unit draws per value (narrow/wide choice, position).
    """
    strategy = cfg.strategy
    if isinstance(strategy, Mixture):
        u = attempt_unit_draws(cfg.seed, attempt, 2 * d)
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
        scales = [ns if u[2 * j] < frac else cfg.ell for j in range(d)]
        u = u[1::2]
    else:
        u = attempt_unit_draws(cfg.seed, attempt, d)
        scales = [cfg.ell] * d
    if signed:
        return [s * (2.0 * x - 1.0) for s, x in zip(scales, u)]
    return [s * (1.0 - x) for s, x in zip(scales, u)]


# --- the scan loop ----------------------------------------------------------

def _scan(attempt_fn, cfg: SearchConfig) -> SearchOutcome:
    """Run attempts 1..n in order, returning the lowest-index hit.

    attempt_fn(i) returns a SearchOutcome for a verified hit at attempt i, or
    None.  The returned outcome carries the scan's wall time.
    """
    start = time.perf_counter()
    for i in range(1, cfg.n + 1):
        hit = attempt_fn(i)
        if hit is not None:
            return dataclasses.replace(hit, seconds=time.perf_counter() - start)
    return SearchOutcome("exhausted", cfg.n, time.perf_counter() - start)


def _certified_hit(i: int, spec: RootSpec, coeffs: list[float], claim, cfg: SearchConfig):
    """Found outcome for a float hit at attempt i, or None when certification rejects it.

    The spec is rationalized and certified exactly; a Mismatch marks a
    borderline sample, and the scan goes on.
    """
    cert = certifier.certify_couple(certifier.rationalize(spec, cfg.digits), claim)
    if not isinstance(cert, Certificate):
        return None
    return SearchOutcome("found", i, 0.0, i, spec, RealPolynomial(tuple(coeffs[1:])), cert)


# --- engines ----------------------------------------------------------------

def search_pair(sigma: SignPattern, pair: RootCountPair, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a polynomial whose sign word is sigma with the given root counts."""
    pair = RootCountPair(*pair)
    if not is_compatible_pair(sigma, pair):
        raise IncompatibleCoupleError(
            f"pair {tuple(pair)} incompatible with pattern {sigma.word}"
        )
    d = sigma.degree
    pos, neg = pair
    npairs = (d - pos - neg) // 2
    target = sigma.signs
    claim = PairCouple(sigma, pair)

    def attempt(i: int):
        reals, cpairs = _draw_pair_roots(pos, neg, npairs, cfg, i)
        coeffs = expand(reals, cpairs, 1.0)
        if sign_tuple(coeffs, cfg.tau) != target:
            return None
        spec = RootSpec(real_roots=tuple(reals), complex_pairs=tuple(cpairs))
        return _certified_hit(i, spec, coeffs, claim, cfg)

    return _scan(attempt, cfg)


def search_moduli(sigma: SignPattern, order: ModuliOrder, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a hyperbolic polynomial realizing sigma with the given modulus order."""
    if not is_compatible(sigma, order):
        raise IncompatibleCoupleError(
            f"order {order.word} incompatible with pattern {sigma.word}"
        )
    d = order.degree
    target = sigma.signs
    letters = order.word
    claim = ModuliCouple(sigma, order)

    def attempt(i: int):
        mods = _draw_values(d, cfg, i, signed=False)
        mods.sort()
        for j in range(d - 1):
            if mods[j] == mods[j + 1]:  # tied moduli: rejected, index consumed
                return None
        roots = [m if letters[j] == "P" else -m for j, m in enumerate(mods)]
        coeffs = expand(roots, (), 1.0)
        if sign_tuple(coeffs, cfg.tau) != target:
            return None
        return _certified_hit(i, RootSpec(real_roots=tuple(roots)), coeffs, claim, cfg)

    return _scan(attempt, cfg)


def search_gap_class(d: int, target: str, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a degree-d root configuration whose gap chain realizes `target`."""
    if d < 3:
        raise ValueError("need degree >= 3")
    if target not in GAP_CLASSES:
        raise ValueError(f"target class must be one of {GAP_CLASSES}")

    def attempt(i: int):
        xs = _draw_values(d, cfg, i, signed=True)
        xs.sort()
        if any(x == 0.0 for x in xs):
            return None
        for j in range(d - 1):
            if xs[j] == xs[j + 1]:
                return None
        report = match(xs, target)
        if report is None:
            return None
        cert = certifier.certify_gap_class(
            [certifier.rationalize_value(x, cfg.digits) for x in xs]
        )
        if not isinstance(cert, Certificate) or cert.claim != target:
            return None
        spec = RootSpec(real_roots=tuple(xs))
        return SearchOutcome(
            "found", i, 0.0, i, spec, expand_from_roots(spec), cert, gap=report
        )

    return _scan(attempt, cfg)
