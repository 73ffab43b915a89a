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
the target order says N), and gap-class search (draw d distinct reals, each
as a pair's real part alone, and test their critical-point gaps against the
target class, which stops refining once that class is ruled out).  Moduli
and gap searches need distinct values, so they draw MultiplicityBias as
Uniform (`_distinct_draws`).  An engine validates its query, binds its
kernel and hands `_scan` two stages: that kernel, test(data, k, b), which
tests lanes k, k + 1, .. of a block of b attempts in turn and returns
(lane, float candidate) for the first that passes, or None, and a certify
stage, `_certified_hit` or `_certified_gap` bound to the claim, which
turns a candidate into its hit, (spec, certificate) or (spec,
certificate, gap_report), or rejects it.  `_scan` alone calls test once
per block and again after each rejected candidate, so it certifies
candidates in lane order up to the first hit; it knows attempt indices
and builds the SearchOutcome.  A float hit whose rationalized form yields
a Mismatch is counted as a failed attempt and the scan goes on.

Every kernel is generated from one template (`_sign_kernel_source`), one
per root shape, strategy and tail.  A kernel loops over the lanes of its
block itself.  In the loop, the draw lines of `_draw_source` form lane k's
roots, or gap values, in locals, and lay out the attempt's unit draws,
whose count the template returns with the source.  A tail ends the loop's
body.  The word tail, `polycore.word_source`'s lines, tests the roots'
coefficient sign word, a coefficient at a time, going on to the next lane
at the first wrong sign, as `polycore.sign_tuple` of the float expansion
would decide it; a search binds its target word, its strategy's scalars
and tau.  The gap tail passes over a lane with a zero or tied value, sorts
the values and runs the bound `criticalgaps.match_kernel(d, target)` on
them.  Two readers feed the word test: a pair search's kernel reads its
attempts' unit draws, and a moduli search's reads root columns.  A moduli
block's front (`_moduli_front`), the (d, 0, 0) pair draws of its lanes
with the tie test and the sort, does not depend on the target order; the
per-order kernel reads each lane's sorted moduli from it and applies the
order's signs.  With no tail, the kernel returns every lane's roots from
the draw lines: one call gives a moduli front its moduli, and a call on a
block of one gives `draw_rootspec_pair` its roots.

A strategy, how an attempt's roots are drawn, is one of the classes of
`STRATEGIES`, a dict from the kind that the CLI's `--strategy` and the
reports name it by to its class.  `SearchConfig` refuses any other type, a
subclass too: the kernels are generated for the exact class.

A sweep runs many searches under one config, and attempt i of each draws
the same uniforms whenever the searches draw as many per attempt: every
couple of a Uniform pair sweep, every order of a moduli sweep.  Inside
`_shared_blocks`, which `sweeps.sweep_pairs` and `sweeps.sweep_moduli` open
around their searches, `_scan` keeps each block's unit draws, or a moduli
block's front, as an `array('d')` for the later searches.  Only blocks
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
from itertools import chain
from typing import ClassVar, Optional, Union

from . import certifier, polycore
from .certifier import Certificate
from .criticalgaps import GAP_CLASSES, GapReport, as_float, match_kernel
from .moduliorders import ModuliCouple, ModuliOrder
from .polycore import RealPolynomial, RootSpec, expand_from_roots
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

    kind: ClassVar[str] = "uniform"


@dataclass(frozen=True)
class Mixture:
    """Each root is drawn from a much narrower interval with some probability.

    narrow_scale is the absolute half-width of the narrow interval (defaults
    to ell/100 when None).  One narrow/wide decision is made per real root
    and one per conjugate pair (covering both its parameters).
    """

    kind: ClassVar[str] = "mixture"
    narrow_scale: Optional[float] = None
    narrow_fraction: float = 0.5


@dataclass(frozen=True)
class MultiplicityBias:
    """A real root repeats the previous same-sign draw with some probability.

    Only meaningful for pair searches; moduli and gap searches need distinct
    values and draw as Uniform under it (`_distinct_draws`), while their
    reports still name this strategy.
    """

    kind: ClassVar[str] = "multiplicity"
    dup_probability: float = 0.5


Strategy = Union[Uniform, Mixture, MultiplicityBias]
# every strategy, by the kind that the CLI and the reports name it by
STRATEGIES = {cls.kind: cls for cls in (Uniform, Mixture, MultiplicityBias)}


def _shown(value) -> str:
    """repr(value) for an error message, or value's type where repr raises.

    Writing a Fraction with a part past 4 300 digits raises ValueError, which
    would replace the error that names the parameter.
    """
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to write"


def _as_float(name: str, value, optional: bool = False) -> Optional[float]:
    """A real parameter as it is stored: an int or a float becomes a float.

    2 and 2.0 run the same search, so they must also give the same report.
    Anything else (a bool, a str, a Fraction, a Decimal) raises ValueError
    naming the parameter, and so does an int too large for a float, through
    as_float; None passes only when `optional`.
    """
    if value is None and optional:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return as_float(value, name)
    raise ValueError(f"{name} must be an int or a float, not {_shown(value)}")


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible sampling parameters shared by all engines.

    strategy must be an instance of a class in `STRATEGIES`, not of a
    subclass: a kernel draws by the exact class and a report names its kind.
    """

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
                raise ValueError(f"{name} must be an int, not {_shown(value)}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "ell", _as_float("ell", self.ell))
        if not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        if type(self.strategy) not in STRATEGIES.values():
            raise ValueError(f"strategy must be Uniform, Mixture or MultiplicityBias, "
                             f"not {_shown(self.strategy)}")
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

def _at(t: int) -> str:
    """Source of the read of draw t of lane k in a block of b attempts, column-major.

    Column t starts at o{t} = t * b, which the kernel binds once per call.
    """
    return "u[k]" if t == 0 else f"u[k + o{t}]"


def _draw_source(pos: int, neg: int, npairs: int, kind, gap: bool) -> tuple[list[str], int]:
    """Source lines that set lane k's roots r0 .., (re0, im0) .. from its draws, and their count.

    Under a strategy (kind is its class) these are the roots of a pair-search
    attempt.  A real root takes one draw (its position) under Uniform and two
    under the other strategies: a choice, narrow/wide or repeat/fresh, then
    the position; the positive roots come first.  A root is
    (sign * scale) * (1.0 - v) for its position draw v, with sign * scale
    bound once as wpos, wneg (+-ell) or npos, nneg (+-narrow_scale); a
    repeated root is the last one of its sign.  A pair takes two draws, after a
    narrow/wide choice under Mixture: scale * (2.0 * v - 1.0) and
    scale * (1.0 - v').  With gap, a pair is its real part alone, one
    position draw after the Mixture choice: re_j is a gap attempt's value j.
    kind None reads roots from columns instead: real root j is
    l_j * u[k + j*b] (l_j = 1.0 or -1.0, an exact sign), then the pairs'
    parts in order.  The lines run in the kernel's loop over lanes k and
    read through `_at`.
    """
    if kind is None:
        lines = [f"r{j} = l{j} * {_at(j)}" for j in range(pos + neg)]
        t = pos + neg
        for j in range(npairs):
            lines += [f"re{j} = {_at(t + 2 * j)}", f"im{j} = {_at(t + 2 * j + 1)}"]
        return lines, t + 2 * npairs
    step = 1 if kind is Uniform else 2  # draws per real root, its position last
    lines, t = [], 0
    for j in range(pos + neg):
        w, n = ("wpos", "npos") if j < pos else ("wneg", "nneg")
        x = f"(1.0 - {_at(t + step - 1)})"
        if kind is Mixture:
            lines.append(f"r{j} = ({n} if {_at(t)} < frac else {w}) * {x}")
        elif kind is MultiplicityBias and j not in (0, pos):
            lines.append(f"r{j} = {w} * {x} if {_at(t)} >= dup else r{j - 1}")
        else:
            lines.append(f"r{j} = {w} * {x}")
        t += step
    for j in range(npairs):
        scale = "wpos"
        if kind is Mixture:
            lines.append(f"sc = npos if {_at(t)} < frac else wpos")
            scale, t = "sc", t + 1
        lines.append(f"re{j} = {scale} * (2.0 * {_at(t)} - 1.0)")
        if not gap:
            lines.append(f"im{j} = {scale} * (1.0 - {_at(t + 1)})")
        t += 1 if gap else 2
    return lines, t


def _sign_kernel_source(pos: int, neg: int, npairs: int, kind, tail) -> tuple[int, str]:
    """(count, source): the draw count and the source of `bind(cfg, target, tau, letters)`.

    bind returns `kernel(u, k, b)`.  It binds the column offsets o1 .. of
    a block u of b attempts once, then loops over lanes k .. b - 1, running
    `_draw_source`'s lines on each lane, then its tail.  With no tail it
    returns the list of those lanes' roots, each ((r0, ..), ((re0, im0),
    ..)).  A tail goes on to the next lane (continue) when its lane fails,
    returns (lane, candidate) for the first that passes, and returns None
    when none does.  The tail "word" is `polycore.word_source`'s test of
    the target word, and its candidate is the roots.  The tail "gap" takes
    the npairs values re0 .. as a list xs, fails when one is 0.0 or two
    tie, sorts xs and passes with the candidate (xs, report) when report =
    target(xs), the bound match kernel, is not None.  bind sets what the
    lines read as closure values: the strategy's scalars from cfg, the
    target (as the signs g1 .. gd of its word, or as the match function),
    tau, and the letters l0 .. as given.
    """
    nreals = pos + neg
    head = []
    if tail == "word":
        head.append("_, " + ", ".join(f"g{m}" for m in range(1, nreals + 2 * npairs + 1))
                    + " = map(float, target)")
    if kind is None and nreals:
        head.append("".join(f"l{j}, " for j in range(nreals)) + "= letters")
    elif kind is not None:
        head += ["wpos = cfg.ell", "wneg = -wpos"]
    if kind is Mixture:
        head += ["npos = cfg.narrow_scale", "nneg = -npos", "frac = cfg.strategy.narrow_fraction"]
    if kind is MultiplicityBias:
        head.append("dup = cfg.strategy.dup_probability")
    body, count = _draw_source(pos, neg, npairs, kind, tail == "gap")
    roots = (f"(({''.join(f'r{j}, ' for j in range(nreals))}), "
             f"({''.join(f'(re{j}, im{j}), ' for j in range(npairs))}))")
    if tail == "word":
        body += polycore.word_source(nreals, npairs) + [f"return k, {roots}"]
    elif tail == "gap":  # _draw_source's values, the zero and tie test, the sort and the match
        body += ["xs = [" + ", ".join(f"re{j}" for j in range(npairs)) + "]",
                 "distinct = set(xs)", f"if len(distinct) < {npairs} or 0.0 in distinct:",
                 "    continue", "xs.sort()", "report = target(xs)",
                 "if report is not None:", "    return k, (xs, report)"]
    else:
        body.append(f"out.append({roots})")
    offsets = ", ".join(f"o{t}" for t in range(1, count))
    return count, ("def bind(cfg=None, target=(), tau=None, letters=()):\n"
                   + "".join(f"    {line}\n" for line in head)
                   + "    def kernel(u, k, b):\n"
                   + (f"        {offsets} = {', '.join(f'{t} * b' for t in range(1, count))}\n"
                      if offsets else "")
                   + ("" if tail else "        out = []\n")
                   + "        for k in range(k, b):\n"
                   + "".join(f"            {line}\n" for line in body)
                   + f"        return {'None' if tail else 'out'}\n"
                   + "    return kernel\n")


# a cache bound, not an option: a degree-4 pair sweep compiles 9 shapes, a moduli
# sweep 2 kernels, the `gaps` benchmark's cycle 2 gap kernels (degrees 5 and 6) and
# `witness` 3 more (6, 8, 10).  An evicted kernel is compiled again: 0.2-1.0 ms up
# to degree 9; a gap kernel 0.2-0.5 ms up to degree 12 and 0.8-0.9 ms at degree 32.
# A word kernel's source, and a match kernel's (criticalgaps.match_kernel), grows
# as d**2 at every degree.  Cost of one build: its compile time, the growth of peak
# RSS in a fresh process, and what it retains (tracemalloc).  word is (d, 0, 0)
# Uniform "word", match is match_kernel(d, "L-R+"); 3 builds each, 2-core Xeon VM,
# Python 3.11.7:
#   d                 16          32          64        100       200
#   word   compile    1.3-2.1 ms  4.7-5.3 ms  17-34 ms  40-41 ms  0.17-0.20 s
#          peak RSS   +0.0 MB     +1.1 MB     +6.9 MB   +16.5 MB  +60 MB
#          retained   0.02 MB     0.07 MB     0.63 MB   0.93 MB   3.0 MB
#   match  compile    2.8-3.3 ms  8.4-22 ms   28-70 ms  68-79 ms  0.24-0.28 s
#          peak RSS   +0.6 MB     +3.8 MB     +14 MB    +31 MB    +106 MB
#          retained   0.02 MB     0.08 MB     0.28 MB   0.65 MB   2.5 MB
# A cached kernel keeps at most 3 MB up to d = 200; the peak of its build is
# about 20-50 times what it keeps.
@lru_cache(maxsize=64)
def _sign_kernel(pos: int, neg: int, npairs: int, kind, tail):
    """(count, bind): the draw count and `bind` of _sign_kernel_source(pos, neg, npairs, kind, tail).

    Compiled once per key.
    """
    count, source = _sign_kernel_source(pos, neg, npairs, kind, tail)
    name = "roots" if kind is None else kind.__name__
    namespace: dict = {}
    exec(compile(source, f"<sign kernel {pos},{neg},{npairs} {name}{f' {tail}' if tail else ''}>",
                 "exec"), namespace)
    return count, namespace["bind"]


def draw_rootspec_pair(
    d: int, pair: RootCountPair, cfg: SearchConfig, attempt_index: int
) -> RootSpec:
    """The RootSpec examined at `attempt_index`; bit-for-bit reproducible.

    At a tiny ell a drawn real root, or a pair's imaginary part, can round
    to 0.0: that raises ZeroRootError, or ValueError for the pair, naming
    the attempt and ell.  The searches pass over such an attempt, whose
    coefficient a_d is 0.0 and has no sign.
    """
    pos, neg = pair
    if pos < 0 or neg < 0:
        raise ValueError(f"root counts must be >= 0: pos={pos}, neg={neg}")
    rest = d - pos - neg
    if rest < 0:
        raise ValueError(f"pos + neg exceeds degree {d}")
    if rest % 2 != 0:
        raise ParityMismatchError(f"d - pos - neg = {rest} is odd")
    count, bind = _sign_kernel(pos, neg, rest // 2, type(cfg.strategy), None)
    reals, pairs = bind(cfg)(attempt_unit_draws(cfg.seed, attempt_index, count), 0, 1)[0]
    try:
        return RootSpec(real_roots=reals, complex_pairs=pairs)
    except ValueError as exc:  # ZeroRootError too, which keeps its type
        raise type(exc)(f"attempt {attempt_index} at ell={cfg.ell!r}: {exc}") from None


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


def _scan(count: int, cfg: SearchConfig, test, certify, front=None) -> SearchOutcome:
    """Run attempts 1..n in order, returning the lowest-index certified hit.

    Draws come in blocks of attempts that double from 1 up to _BLOCK_CAP, so
    a search that hits early draws at most about twice what it uses.  A
    block's `count` unit draws come as a list or an array('d'), lane k's
    being data[k::b], equal to attempt_unit_draws(cfg.seed, first + k, count).
    An engine's two stages do the work: test(data, k, b), its generated
    kernel bound to its query, returns (j, candidate) for the first lane
    j >= k of the block whose float test passes, or None, and
    certify(candidate) returns the hit, (spec, certificate) or (spec,
    certificate, gap_report), or None.  The scan calls test from lane 0,
    and from lane j + 1 after each rejected candidate, so it certifies
    candidates in lane order until one is a hit; it builds the outcome,
    found at attempt first + j or exhausted after n, with its wall time.

    front is (d, front_fn) for a moduli engine of degree d: the block's data
    is then front_fn(draws, b), the work that does not depend on the
    search's target, in place of the draws.  Inside `_shared_blocks`, the
    data of each block up to _SHARE_CAP is memoized under (cfg, count,
    first, b), or (cfg, count, first, b, d) for a front, for the sweep's
    other searches.
    """
    start = time.perf_counter()
    shared = _SHARED.get()
    first, size = 1, 1
    while first <= cfg.n:
        b = min(size, cfg.n - first + 1)
        key = None
        if shared is not None and first <= _SHARE_CAP:
            key = (cfg, count, first, b) if front is None else (cfg, count, first, b, front[0])
        data = shared.get(key) if key else None
        if data is None:
            data = _unit_block(cfg.seed, first, b, count)
            if front is not None:
                data = front[1](data, b)
            if key:
                shared[key] = array("d", data)
        found = test(data, 0, b)
        while found is not None:
            k, candidate = found
            hit = certify(candidate)
            if hit is not None:
                i = first + k
                return SearchOutcome("found", i, time.perf_counter() - start, i, *hit)
            found = test(data, k + 1, b)
        first += b
        size = min(2 * size, _BLOCK_CAP)
    return SearchOutcome("exhausted", cfg.n, time.perf_counter() - start)


def _certified_hit(claim, cfg: SearchConfig, roots):
    """The pair and moduli certify stage: (spec, certificate), or None on a Mismatch.

    roots is a kernel's (reals, pairs); their spec is rationalized and
    certified exactly against the claim.
    """
    spec = RootSpec(*roots)
    cert = certifier.certify_couple(certifier.rationalize(spec, cfg.digits), claim)
    return (spec, cert) if isinstance(cert, Certificate) else None


def _certified_gap(target: str, cfg: SearchConfig, candidate):
    """The gap certify stage: (spec, certificate, gap_report), or None.

    candidate is a gap kernel's (xs, report); the rationalized xs must be
    certified exactly as of class target.
    """
    xs, report = candidate
    cert = certifier.certify_gap_class([certifier.rationalize_value(x, cfg.digits) for x in xs])
    if not isinstance(cert, Certificate) or cert.claim != target:
        return None
    return RootSpec(real_roots=tuple(xs)), cert, report


# --- engines ----------------------------------------------------------------

def search_pair(sigma: SignPattern, pair: RootCountPair, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a polynomial whose sign word is sigma with the given root counts."""
    d = sigma.degree
    if d < 1:
        raise ValueError("need degree >= 1")
    claim = PairCouple(sigma, pair)
    pos, neg = claim.pair
    count, bind = _sign_kernel(pos, neg, (d - pos - neg) // 2, type(cfg.strategy), "word")
    return _scan(count, cfg, bind(cfg, sigma.signs, cfg.tau), partial(_certified_hit, claim, cfg))


def _moduli_front(draw, u: list[float], b: int) -> list[float]:
    """The order-independent part of a moduli-search block of b attempts.

    Lane k's d moduli are the positive real roots of its (d, 0, 0) pair
    draw, sorted; one call, draw(u, 0, b), draws every lane.  The front
    holds sorted modulus j of lane k at k + j*b; a lane with tied moduli
    holds NaN there, which fails the a_1 test of every order.  No zero test
    is needed: a zero modulus makes a_d zero, which the sign word rejects.
    """
    rows = [sorted(mods) if len(set(mods)) == len(mods) else [math.nan] * len(mods)
            for mods, _ in draw(u, 0, b)]
    return list(chain.from_iterable(zip(*rows)))


def search_moduli(sigma: SignPattern, order: ModuliOrder, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a hyperbolic polynomial realizing sigma with the given modulus order."""
    claim = ModuliCouple(sigma, order)
    d = order.degree
    draw_cfg = _distinct_draws(cfg)
    count, draw = _sign_kernel(d, 0, 0, type(draw_cfg.strategy), None)
    # root j is modulus j, negated where the order says N
    letters = [1.0 if c == "P" else -1.0 for c in order.word]
    test = _sign_kernel(d, 0, 0, None, "word")[1](None, sigma.signs, cfg.tau, letters)
    return _scan(count, draw_cfg, test, partial(_certified_hit, claim, cfg),
                 (d, partial(_moduli_front, draw(draw_cfg))))


def search_gap_class(d: int, target: str, cfg: SearchConfig) -> SearchOutcome:
    """Hunt a degree-d root configuration whose gap chain realizes `target`."""
    if d < 3:
        raise ValueError("need degree >= 3")
    if target not in GAP_CLASSES:
        raise ValueError(f"target class must be one of {GAP_CLASSES}")
    draw_cfg = _distinct_draws(cfg)
    count, bind = _sign_kernel(0, 0, d, type(draw_cfg.strategy), "gap")
    return _scan(count, draw_cfg, bind(draw_cfg, match_kernel(d, target)),
                 partial(_certified_gap, target, cfg))
