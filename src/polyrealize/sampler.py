"""Randomized realizability search with counter-based, reproducible draws.

Every attempt's randomness is a pure function of (seed, attempt index): the
index is folded into the seed through a 64-bit avalanche mix, and successive
uniforms of that attempt come from re-mixing an incremented counter.  The
scan mixes the counters of a block of attempts together, which changes no
bit.  The result is bitwise reproducibility regardless of execution order
or block size, and the outcome is always the lowest-index hit: a search
with budget n returns what the first n attempts of any larger budget return.

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
import struct
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Optional, Union

from . import certifier, polycore
from .certifier import Certificate
from .criticalgaps import GAP_CLASSES, GapReport, match
from .moduliorders import ModuliCouple, ModuliOrder
from .polycore import RealPolynomial, RootSpec, expand, expand_from_roots, sign_tuple
from .signpatterns import PairCouple, RootCountPair, SignPattern

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SEED_SALT = 0xD1B54A32D192ED03
_BLOCK_CAP = 256  # attempts drawn together at most
_UNIT = (2.0**-53).__mul__


class ParityMismatchError(ValueError):
    """d - pos - neg must be even (complex roots come in conjugate pairs)."""


# --- counter-based draws, many 64-bit lanes per Python integer ----------------
#
# Attempt a's base is mix64((seed ^ salt) + a*gamma) and its j-th uniform
# (j = 1..count) is (mix64(base + j*gamma) >> 11) * 2**-53, where mix64 is
# SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014).  mix64 acts on
# each counter alone, so one integer holding many counters, each in its own
# 128-bit slot, mixes them all in a dozen big-integer operations.


def _slots(values) -> int:
    """One integer holding `values` (each < 2**64) in consecutive 128-bit slots."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


@lru_cache(maxsize=64)
def _block_constants(b: int, count: int):
    """Packed constants for `b` attempts of `count` uniforms each.

    The j-th uniform of the block's i-th attempt sits in slot (j-1)*b + i, so
    the j-th copy of the b bases, side by side, serves the j-th uniforms.
    """
    lanes = b * count
    ones = _slots([1] * b)
    return (
        ones,                                                                 # 1 per attempt
        _GAMMA * _slots(range(b)),                                            # i * gamma
        _MASK64 * ones,                                                       # b-slot mask
        _GAMMA * _slots([j for j in range(1, count + 1) for _ in range(b)]),  # j * gamma
        _MASK64 * _slots([1] * lanes),                                        # lane mask
        struct.Struct("<" + "Q8x" * lanes).unpack,                           # low halves
    )


def _mix_lanes(z: int, mask: int) -> int:
    """SplitMix64's finalizer on every lane of z at once; `mask` is 2**64 - 1 per slot.

    A lane times a 64-bit constant stays below 2**128, so no product carries
    into the next slot.  A right shift pulls the next slot's low bits into
    this slot's upper half, which the mask clears before each multiply.  The
    last xor-shift is left unmasked: it writes only bits 97-127 of a slot, so
    bits 0-96 hold the mixed lane followed by zeros.
    """
    z &= mask
    z ^= z >> 30
    z = ((z & mask) * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = ((z & mask) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _unit_block(seed: int, first: int, b: int, count: int) -> list[float]:
    """`count` uniforms in [0, 1) for each of the attempts first .. first+b-1.

    Attempt first+i's uniforms are result[i::b]; they do not depend on b.
    Sums stay inside their slots: a counter is below 2**64 + b * gamma, a
    second-pass lane below (count + 1) * 2**64.
    """
    ones, ramp, mask_b, steps, mask, unpack = _block_constants(b, count)
    z = _mix_lanes((((seed ^ _SEED_SALT) + first * _GAMMA) & _MASK64) * ones + ramp, mask_b)
    # `count` copies of the b bases: copying bytes is linear, a multiply is not
    z = int.from_bytes((z & mask_b).to_bytes(16 * b, "little") * count, "little")
    z = _mix_lanes(z + steps, mask)
    # the low 8 bytes of a slot of z >> 11 are the lane's top 53 bits over zeros
    return list(map(_UNIT, unpack((z >> 11).to_bytes(16 * b * count, "little"))))


def attempt_unit_draws(seed: int, attempt: int, count: int) -> list[float]:
    """`count` uniforms in [0, 1), a pure function of (seed, attempt)."""
    return _unit_block(seed, attempt, 1, count)


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
    tau: ClassVar[float] = polycore.DEFAULT_SIGN_TOLERANCE  # float sign-test tolerance, fixed
    digits: int = certifier.DEFAULT_DIGITS

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")
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


def _pair_roots(pos, neg, npairs, cfg: SearchConfig, u: list[float]):
    """Raw (reals, pairs) lists for one pair-search attempt with unit draws u."""
    strategy = cfg.strategy
    ell = cfg.ell
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
    npairs = rest // 2
    u = attempt_unit_draws(
        cfg.seed, attempt_index, _pair_draw_count(pos, neg, npairs, cfg.strategy)
    )
    reals, pairs = _pair_roots(pos, neg, npairs, cfg, u)
    return RootSpec(real_roots=tuple(reals), complex_pairs=tuple(pairs))


def _value_draw_count(d: int, strategy: Strategy) -> int:
    # a Mixture spends two unit draws per value (narrow/wide choice, position)
    return 2 * d if isinstance(strategy, Mixture) else d


def _values(d: int, cfg: SearchConfig, u: list[float], signed: bool) -> list[float]:
    """d values on (0, ell], or on [-ell, ell) when signed; Mixture may shrink some."""
    strategy = cfg.strategy
    if isinstance(strategy, Mixture):
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
        scales = [ns if u[2 * j] < frac else cfg.ell for j in range(d)]
        u = u[1::2]
    else:
        scales = [cfg.ell] * d
    if signed:
        return [s * (2.0 * x - 1.0) for s, x in zip(scales, u)]
    return [s * (1.0 - x) for s, x in zip(scales, u)]


# --- the scan loop ----------------------------------------------------------

def _scan(attempt_fn, count: int, cfg: SearchConfig) -> SearchOutcome:
    """Run attempts 1..n in order, returning the lowest-index hit.

    attempt_fn(i, u) gets attempt i's `count` unit draws, equal to
    attempt_unit_draws(cfg.seed, i, count), and returns a SearchOutcome for a
    verified hit at attempt i, or None.  Draws come in blocks of attempts
    that double from 1 up to _BLOCK_CAP, so a search that hits early draws at
    most about twice what it uses.  The returned outcome carries the scan's
    wall time.
    """
    start = time.perf_counter()
    first, size = 1, 1
    while first <= cfg.n:
        b = min(size, cfg.n - first + 1)
        u = _unit_block(cfg.seed, first, b, count)
        for k in range(b):
            hit = attempt_fn(first + k, u[k::b])
            if hit is not None:
                return dataclasses.replace(hit, seconds=time.perf_counter() - start)
        first += b
        size = min(2 * size, _BLOCK_CAP)
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
    d = sigma.degree
    if d < 1:
        raise ValueError("need degree >= 1")
    claim = PairCouple(sigma, pair)
    pos, neg = claim.pair
    npairs = (d - pos - neg) // 2
    target = sigma.signs
    tau = cfg.tau

    def attempt(i: int, u: list[float]):
        reals, cpairs = _pair_roots(pos, neg, npairs, cfg, u)
        coeffs = expand(reals, cpairs, 1.0)
        if sign_tuple(coeffs, tau) != target:
            return None
        spec = RootSpec(real_roots=tuple(reals), complex_pairs=tuple(cpairs))
        return _certified_hit(i, spec, coeffs, claim, cfg)

    return _scan(attempt, _pair_draw_count(pos, neg, npairs, cfg.strategy), cfg)


def search_moduli(sigma: SignPattern, order: ModuliOrder, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a hyperbolic polynomial realizing sigma with the given modulus order."""
    claim = ModuliCouple(sigma, order)
    d = order.degree
    target = sigma.signs
    letters = order.word
    tau = cfg.tau

    def attempt(i: int, u: list[float]):
        mods = _values(d, cfg, u, signed=False)
        mods.sort()
        for j in range(d - 1):
            if mods[j] == mods[j + 1]:  # tied moduli: rejected, index consumed
                return None
        roots = [m if letters[j] == "P" else -m for j, m in enumerate(mods)]
        coeffs = expand(roots, (), 1.0)
        if sign_tuple(coeffs, tau) != target:
            return None
        return _certified_hit(i, RootSpec(real_roots=tuple(roots)), coeffs, claim, cfg)

    return _scan(attempt, _value_draw_count(d, cfg.strategy), cfg)


def search_gap_class(d: int, target: str, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a degree-d root configuration whose gap chain realizes `target`."""
    if d < 3:
        raise ValueError("need degree >= 3")
    if target not in GAP_CLASSES:
        raise ValueError(f"target class must be one of {GAP_CLASSES}")

    def attempt(i: int, u: list[float]):
        xs = _values(d, cfg, u, signed=True)
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

    return _scan(attempt, _value_draw_count(d, cfg.strategy), cfg)
