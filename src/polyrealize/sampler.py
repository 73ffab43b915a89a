"""Randomized realizability search with counter-based, reproducible draws.

Every attempt's randomness is a pure function of (seed, attempt index): the
index is folded into the seed through a 64-bit avalanche mix, and successive
uniforms of that attempt come from re-mixing an incremented counter.  The
scan mixes the counters of a block of attempts together, which changes no
bit.  The result is bitwise reproducibility regardless of execution order
or block size, and the outcome is always the lowest-index hit: a search
with budget n returns what the first n attempts of any larger budget return.

Three engines share the machinery: pair search (draw the prescribed numbers
of positive/negative roots plus conjugate complex pairs), moduli search (draw
d positives as the real roots of a (d, 0, 0) pair draw, sort, negate where
the target order says N), and gap-class search (draw d distinct reals and
test their critical-point gaps against the target class, which stops
refining once that class is ruled out).  Moduli and gap searches need
distinct values, so they draw MultiplicityBias as Uniform (`_distinct_draws`).
An engine hands `_scan` three stages: a per-attempt float stage, which takes
one attempt's unit draws and returns None or a float candidate; for the pair
and moduli engines a lane stage, which returns a whole block's candidates in
lane order; and a certify stage, which turns a candidate into its hit,
(spec, certificate) or (spec, certificate, gap_report), or rejects it.
`_scan` alone loops over attempts, certifies candidates in lane order up to
the first hit, knows attempt indices and builds the SearchOutcome.  A float
hit whose rationalized form yields a Mismatch is counted as a failed attempt
and the scan goes on.

The pair and moduli float stages test the coefficient sign word with
`polycore.has_sign_word`: it rejects on the sign of a_1 before expanding and
otherwise compares `polycore.sign_tuple` of the expansion with the target.
Their lane stages run on blocks of at least _LANE_MIN attempts, where
`polycore.sign_word_lanes` returns the attempts whose word is the target,
the same ones `has_sign_word` accepts.  A pair block draws the roots of all
its attempts at once (`_pair_columns`).  A moduli block is split in two: its
front (`_moduli_front`: `_pair_columns`, the tie test and the sort) does not
depend on the target order, and the per-order stage negates the N columns and
tests the lanes.  Smaller blocks, and so searches that hit early, keep the
per-attempt stage.  Inside a sweep (`_shared_blocks`, below), a moduli block
is tested as lanes from _SHARED_LANE_MIN attempts on: its front is computed
once for all the sweep's orders, so each order pays only the lane test.

A sweep runs many searches under one config, and attempt i of each draws
the same uniforms whenever the searches draw as many per attempt: every
couple of a Uniform pair sweep, every order of a moduli sweep.  Inside
`_shared_blocks`, which `sweeps.sweep_pairs` and `sweeps.sweep_moduli` open
around their searches, `_scan` keeps each block's unit draws, as an
`array('d')`, or a moduli block's front, for the later searches.  Only blocks
starting at or before _SHARE_CAP are kept, which bounds the store's memory
at large budgets; the store is dropped when the sweep ends.
"""

from __future__ import annotations

import math
import struct
import time
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from operator import mul, neg, sub
from typing import ClassVar, Optional, Union

from . import certifier, polycore
from .certifier import Certificate
from .criticalgaps import GAP_CLASSES, GapReport, match_kernel
from .moduliorders import ModuliCouple, ModuliOrder
from .polycore import (
    RealPolynomial,
    RootSpec,
    expand_from_roots,
    has_sign_word,
    sign_word_lanes,
)
from .signpatterns import PairCouple, RootCountPair, SignPattern

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SEED_SALT = 0xD1B54A32D192ED03
_BLOCK_CAP = 256  # attempts drawn together at most
# A pair or moduli block of at least _LANE_MIN attempts tests its sign words as
# lanes; below it, the per-attempt stage costs less.  A moduli block whose front a
# sweep shares is computed once for all the sweep's orders, so each order pays only
# the lane test, which costs less than the per-attempt stage from _SHARED_LANE_MIN
# attempts on.  `_scan` alone reads both.
_LANE_MIN = 64
_SHARED_LANE_MIN = 8
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
    values and draw as Uniform under it (`_distinct_draws`), while their
    reports still name this strategy.
    """

    dup_probability: float = 0.5


Strategy = Union[Uniform, Mixture, MultiplicityBias]


def _as_float(name: str, value, optional: bool = False) -> Optional[float]:
    """A real parameter as it is stored: an int or a float becomes a float.

    2 and 2.0 run the same search, so they must also give the same report.
    Anything else (a bool, a str, a Fraction, a Decimal, an int too large
    for a float) raises ValueError naming the parameter; None passes only
    when `optional`.
    """
    if value is None and optional:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be an int or a float, not {value!r}")


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
        for name in ("n", "seed", "digits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "ell", _as_float("ell", self.ell))
        if not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        if not isinstance(self.strategy, (Uniform, Mixture, MultiplicityBias)):
            raise ValueError(f"strategy must be Uniform, Mixture or MultiplicityBias, "
                             f"not {self.strategy!r}")
        strategy = self.strategy
        object.__setattr__(self, "strategy", type(strategy)(**{
            f.name: _as_float(f.name, getattr(strategy, f.name), optional=f.default is None)
            for f in fields(strategy)
        }))
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
    certificate: Optional[Certificate] = None
    gap: Optional[GapReport] = None

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def poly(self) -> Optional[RealPolynomial]:
        """The witness expanded in floats, or None when exhausted."""
        return None if self.spec is None else expand_from_roots(self.spec)


# --- per-attempt draws ------------------------------------------------------

def _pair_draw_count(pos: int, neg: int, npairs: int, strategy: Strategy) -> int:
    if isinstance(strategy, Uniform):
        return pos + neg + 2 * npairs
    if isinstance(strategy, Mixture):
        return 2 * (pos + neg) + 3 * npairs
    return 2 * (pos + neg) + 2 * npairs  # MultiplicityBias


def _pair_roots(pos, neg, npairs, cfg: SearchConfig, u: list[float]):
    """Raw (reals, pairs) lists for one pair-search attempt with unit draws u.

    A real root takes one draw (its position) under Uniform and two under the
    other strategies: a choice, narrow/wide or repeat/fresh, then the
    position.  A pair takes two draws, after a narrow/wide choice under Mixture.
    """
    strategy = cfg.strategy
    ell = cfg.ell
    mixture = isinstance(strategy, Mixture)
    bias = isinstance(strategy, MultiplicityBias)
    if mixture:
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
    if bias:
        dup = strategy.dup_probability
    step = 2 if mixture or bias else 1  # unit draws per real root, its position last
    reals: list[float] = []
    pairs: list[tuple[float, float]] = []
    t = 0
    for k in range(pos + neg):  # the positive roots, then the negative ones
        sign = 1.0 if k < pos else -1.0
        x = 1.0 - u[t + step - 1]
        if mixture:
            prev = sign * (ns if u[t] < frac else ell) * x
        elif not bias or k == 0 or k == pos or u[t] >= dup:  # else repeat the last root of this sign
            prev = sign * ell * x
        reals.append(prev)
        t += step
    for _ in range(npairs):
        scale = ell
        if mixture:
            scale = ns if u[t] < frac else ell
            t += 1
        pairs.append((scale * (2.0 * u[t] - 1.0), scale * (1.0 - u[t + 1])))
        t += 2
    return reals, pairs


def _pair_columns(pos, neg, npairs, cfg: SearchConfig, u: list[float], b: int):
    """Column form of `_pair_roots` for a block of b attempts with unit draws u.

    Attempt k's draws are u[k::b], so draw t of every attempt is the column
    u[t*b:(t+1)*b].  Returns (reals, pairs) with reals[j][k] and
    pairs[j] = (re, im), re[k] and im[k], equal bit for bit to what
    `_pair_roots(pos, neg, npairs, cfg, u[k::b])` puts at real root j and
    pair j: each lane takes the same float operations in the same order.
    """
    strategy = cfg.strategy
    ell = cfg.ell
    mixture = isinstance(strategy, Mixture)
    bias = isinstance(strategy, MultiplicityBias)
    if mixture:
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
    if bias:
        dup = strategy.dup_probability
    step = 2 if mixture or bias else 1
    col = [u[t:t + b] for t in range(0, len(u), b)]
    reals: list[list[float]] = []
    pairs: list[tuple[list[float], list[float]]] = []
    t = 0
    for k in range(pos + neg):
        sign = 1.0 if k < pos else -1.0
        x = map(sub, repeat(1.0, b), col[t + step - 1])
        if mixture:  # (sign * scale) * x, as in _pair_roots, with sign * scale precomputed
            wide, narrow = sign * ell, sign * ns
            prev = list(map(mul, [narrow if c < frac else wide for c in col[t]], x))
        else:
            fresh = list(map(mul, repeat(sign * ell, b), x))
            if not bias or k == 0 or k == pos:
                prev = fresh
            else:  # a lane repeats its last root of this sign unless its draw is >= dup
                prev = [f if c >= dup else p for f, c, p in zip(fresh, col[t], prev)]
        reals.append(prev)
        t += step
    for _ in range(npairs):
        scale = [ell] * b
        if mixture:
            scale = [ns if c < frac else ell for c in col[t]]
            t += 1
        re = list(map(mul, scale, map(sub, map(mul, repeat(2.0, b), col[t]), repeat(1.0, b))))
        im = list(map(mul, scale, map(sub, repeat(1.0, b), col[t + 1])))
        pairs.append((re, im))
        t += 2
    return reals, pairs


def draw_rootspec_pair(
    d: int, pair: RootCountPair, cfg: SearchConfig, attempt_index: int
) -> RootSpec:
    """The RootSpec examined at `attempt_index`; bit-for-bit reproducible."""
    pos, neg = pair
    if pos < 0 or neg < 0:
        raise ValueError(f"root counts must be >= 0: pos={pos}, neg={neg}")
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


def _sorted_values(d: int, cfg: SearchConfig, u: list[float]):
    """A gap attempt's d values in ascending order, or None when one is zero or two tie.

    The values lie on [-ell, ell): each is s * (2*v - 1) for its position draw
    v.  Under a Mixture a choice draw per value makes s narrow_scale or ell, as
    `_pair_roots` draws a real root; under Uniform s is ell for every value and
    the d draws are all position draws, scaled directly with the same float
    operations.  MultiplicityBias never reaches here (`_distinct_draws`).  A
    rejected attempt consumes its index.
    """
    if isinstance(cfg.strategy, Mixture):
        ns, frac, ell = cfg.narrow_scale, cfg.strategy.narrow_fraction, cfg.ell
        scales = [ns if u[2 * j] < frac else ell for j in range(d)]
        xs = [s * (2.0 * x - 1.0) for s, x in zip(scales, u[1::2])]
    else:
        ell = cfg.ell
        xs = [ell * (2.0 * x - 1.0) for x in u]
    distinct = set(xs)
    if len(distinct) < d or 0.0 in distinct:
        return None
    xs.sort()
    return xs


def _distinct_draws(cfg: SearchConfig) -> SearchConfig:
    """The config a moduli or gap search draws under: MultiplicityBias draws as Uniform.

    Those searches need d distinct values, so a strategy that repeats a value
    has no meaning there; every other strategy draws as configured.  Only the
    draws change: a search certifies, and reports, under the caller's config.
    """
    if isinstance(cfg.strategy, MultiplicityBias):
        return replace(cfg, strategy=Uniform())
    return cfg


# --- the scan loop ----------------------------------------------------------

# Blocks a sweep's searches share: None outside `_shared_blocks`, else a dict
# from (cfg, count, first, b) to that block's unit draws, and from (cfg, count,
# first, b, d) to a degree-d engine's front of it.  Every value is an array('d').
_SHARED: ContextVar[Optional[dict]] = ContextVar("polyrealize_shared_blocks", default=None)
# Only blocks whose first attempt is at most this are shared, so the store holds
# about 2**15 attempts at most (2 MB of fronts at degree 7, 1 MB of draws at
# degree 4 under Uniform).  Uncapped, the criterion-4 sweep (budget 10**6,
# degree 7) stored fronts up to attempt 223 664 and peaked at 35 MB instead of
# 23 MB.
_SHARE_CAP = 2**15


@contextmanager
def _shared_blocks():
    """Share the draws, and the moduli fronts, of a sweep between its searches.

    Within the `with` statement, a scan (`_scan`) computes each block's unit
    draws, or its front when the scan has one, once and reuses them in every
    later scan with the same key.  The store is dropped on exit, also when a
    search raises.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _scan(count: int, cfg: SearchConfig, attempt, certify, lanes=None,
          front=None) -> SearchOutcome:
    """Run attempts 1..n in order, returning the lowest-index certified hit.

    Draws come in blocks of attempts that double from 1 up to _BLOCK_CAP, so
    a search that hits early draws at most about twice what it uses.  A
    block's `count` unit draws come as a list or an array('d'), lane k's
    being data[k::b], equal to attempt_unit_draws(cfg.seed, first + k, count).
    An engine's three stages do the work: attempt(u), the per-attempt float
    stage, returns None or a float candidate for one attempt's draws;
    lanes(data, b), the lane stage, returns a block's candidates as
    (k, candidate) in ascending k and costs less on large blocks; and
    certify(candidate) returns the hit, (spec, certificate) or (spec,
    certificate, gap_report), or None.  The scan owns the control flow: it
    runs attempt lane by lane or lanes on the block, certifies the
    candidates in lane order up to the first hit, and builds the outcome,
    found at attempt first + k or exhausted after n, with its wall time.

    The rule of which float stage runs is stated here alone: lanes runs on
    blocks of at least _LANE_MIN attempts, or of at least _SHARED_LANE_MIN
    when the scan has a front and runs inside `_shared_blocks`, where the
    sweep's other searches reuse that front.  front is (d, front_fn) for an
    engine of degree d: a lane block passes lanes front_fn(data, b), its
    work that does not depend on the search's target, in place of the
    draws.  Inside `_shared_blocks`, the draws of each block up to
    _SHARE_CAP are memoized under (cfg, count, first, b), or its front under
    (cfg, count, first, b, d), for the sweep's other searches.
    """
    start = time.perf_counter()
    shared = _SHARED.get()
    lane_min = _LANE_MIN if front is None or shared is None else _SHARED_LANE_MIN
    first, size = 1, 1
    while first <= cfg.n:
        b = min(size, cfg.n - first + 1)
        as_lanes = lanes is not None and b >= lane_min
        fronted = as_lanes and front is not None
        key = None
        if shared is not None and first <= _SHARE_CAP:
            key = (cfg, count, first, b, front[0]) if fronted else (cfg, count, first, b)
        data = shared.get(key) if key else None
        if data is None:
            data = _unit_block(cfg.seed, first, b, count)
            if fronted:
                data = front[1](data, b)
            if key:
                shared[key] = data if fronted else array("d", data)
        # the block's candidates in lane order, from the lane stage or from attempt
        # called lane by lane; a call from here costs less than one from map()
        for item in (lanes(data, b) if as_lanes else range(b)):
            if as_lanes:
                k, candidate = item
            else:
                k, candidate = item, attempt(data[item::b])
                if candidate is None:
                    continue
            hit = certify(candidate)
            if hit is not None:
                i = first + k
                return SearchOutcome("found", i, time.perf_counter() - start, i, *hit)
        first += b
        size = min(2 * size, _BLOCK_CAP)
    return SearchOutcome("exhausted", cfg.n, time.perf_counter() - start)


def _certified_hit(claim, cfg: SearchConfig, spec: RootSpec):
    """The pair and moduli certify stage: (spec, certificate), or None on a Mismatch.

    The spec is rationalized and certified exactly against the claim.
    """
    cert = certifier.certify_couple(certifier.rationalize(spec, cfg.digits), claim)
    return (spec, cert) if isinstance(cert, Certificate) else None


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

    def attempt(u: list[float]):
        reals, cpairs = _pair_roots(pos, neg, npairs, cfg, u)
        if not has_sign_word(reals, cpairs, target):
            return None
        return RootSpec(real_roots=tuple(reals), complex_pairs=tuple(cpairs))

    def lanes(u: list[float], b: int):
        reals, cpairs = _pair_columns(pos, neg, npairs, cfg, u, b)
        return ((k, RootSpec(real_roots=tuple(r[k] for r in reals),
                             complex_pairs=tuple((re[k], im[k]) for re, im in cpairs)))
                for k in sign_word_lanes(reals, cpairs, target))

    count = _pair_draw_count(pos, neg, npairs, cfg.strategy)
    return _scan(count, cfg, attempt, partial(_certified_hit, claim, cfg), lanes)


def _moduli_front(d: int, cfg: SearchConfig, u: list[float], b: int) -> array:
    """The order-independent part of a moduli-search block of b attempts.

    Each lane's d moduli are the positive real roots of a (d, 0, 0) pair
    draw, taken from `_pair_columns`; lanes with tied moduli are dropped, and
    the rest are sorted, as the per-attempt stage does.  No zero test is
    needed: a zero modulus makes a_d zero, which the sign word rejects.
    With m lanes kept, the result holds their lane indices, then column j of
    the sorted moduli for j = 0 .. d-1, each m long.
    """
    rows = list(zip(*_pair_columns(d, 0, 0, cfg, u, b)[0]))
    kept = list(compress(range(b), map(d.__eq__, map(len, map(set, rows)))))
    return array("d", chain(kept, *zip(*map(sorted, map(rows.__getitem__, kept)))))


def search_moduli(sigma: SignPattern, order: ModuliOrder, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a hyperbolic polynomial realizing sigma with the given modulus order."""
    claim = ModuliCouple(sigma, order)
    d = order.degree
    target = sigma.signs
    letters = order.word
    draw_cfg = _distinct_draws(cfg)

    def attempt(u: list[float]):
        mods = _pair_roots(d, 0, 0, draw_cfg, u)[0]
        if len(set(mods)) < d:  # no zero test, as in _moduli_front
            return None
        mods.sort()
        roots = [m if letters[j] == "P" else -m for j, m in enumerate(mods)]
        # a_1 = sum of N-moduli - sum of P-moduli, the quantity forcing_test reasons about
        if not has_sign_word(roots, (), target):
            return None
        return RootSpec(real_roots=tuple(roots))

    def lanes(data: array, b: int):
        m = len(data) // (d + 1)  # data is _moduli_front's: lanes, then the sorted columns
        cols = [data[j * m:(j + 1) * m].tolist() for j in range(1, d + 1)]
        roots = [c if p == "P" else list(map(neg, c)) for p, c in zip(letters, cols)]
        return ((int(data[k]), RootSpec(real_roots=tuple(r[k] for r in roots)))
                for k in sign_word_lanes(roots, (), target))

    front = (d, partial(_moduli_front, d, draw_cfg))
    return _scan(_pair_draw_count(d, 0, 0, draw_cfg.strategy), draw_cfg, attempt,
                 partial(_certified_hit, claim, cfg), lanes, front)


def search_gap_class(d: int, target: str, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a degree-d root configuration whose gap chain realizes `target`."""
    if d < 3:
        raise ValueError("need degree >= 3")
    if target not in GAP_CLASSES:
        raise ValueError(f"target class must be one of {GAP_CLASSES}")
    draw_cfg = _distinct_draws(cfg)
    match = match_kernel(d, target)

    def attempt(u: list[float]):
        xs = _sorted_values(d, draw_cfg, u)
        if xs is None:
            return None
        report = match(xs)
        return None if report is None else (xs, report)

    def certify(candidate):
        xs, report = candidate
        cert = certifier.certify_gap_class(
            [certifier.rationalize_value(x, cfg.digits) for x in xs]
        )
        if not isinstance(cert, Certificate) or cert.claim != target:
            return None
        return RootSpec(real_roots=tuple(xs)), cert, report

    return _scan(_pair_draw_count(d, 0, 0, draw_cfg.strategy), draw_cfg, attempt, certify)
