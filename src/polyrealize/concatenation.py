"""Constructive realizability by merging verified witnesses.

Pair couples: the product P1(x) * eps^{d2} P2(x/eps) glues two realizers into
one of higher degree; for eps small enough its sign word is P1's word followed
by P2's trailing word, flipped when P1 ends in a minus, and the root counts
add.  Moduli couples: multiplying by (x -+ eps) with eps below every existing
modulus prepends a letter to the order; multiplying by (x -+ delta) with delta
above every modulus appends one.

No closed-form threshold is used anywhere: all three merges climb one dyadic
ladder (halving eps, doubling delta) and every candidate is checked by exact
expansion, so the returned scale carries a certificate rather than an
estimate; a ladder that certifies nothing within MAX_SCALE_STEPS steps raises
ScaleNotFoundError.  Scales are dyadic and inputs rational, hence all checks
stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import certifier
from .certifier import Certificate, Mismatch
from .moduliorders import ModuliCouple, ModuliOrder
from .polycore import RealPolynomial, RootSpec, expand_from_roots
from .signpatterns import PairCouple, RootCountPair, SignPattern

MAX_SCALE_STEPS = 200


class InvalidRealizerError(ValueError):
    """An input failed its own certificate; it does not realize its couple."""


class ScaleNotFoundError(RuntimeError):
    """No dyadic scale (epsilon or delta) verified within the step budget."""


@dataclass(frozen=True)
class Realizer:
    """A RootSpec (rational entries) claimed to realize a couple."""

    spec: RootSpec
    couple: Union[PairCouple, ModuliCouple]

    def verify(self) -> Certificate:
        got = certifier.certify_couple(self.spec, self.couple)
        if isinstance(got, Mismatch):
            raise InvalidRealizerError(
                f"input does not realize {self.couple}: {got.failed_check} ({got.detail})"
            )
        return got


@dataclass(frozen=True)
class ConcatResult:
    """A certified merge: the scale used, the witness, and the realized couple."""

    scale: Fraction
    spec: RootSpec
    poly: RealPolynomial
    couple: Union[PairCouple, ModuliCouple]
    certificate: Certificate
    steps: int


def _ladder(target, spec_at, scale: Fraction, ratio: Fraction) -> ConcatResult:
    """First certified spec_at(scale), trying scale, scale*ratio, ... for MAX_SCALE_STEPS steps."""
    for step in range(1, MAX_SCALE_STEPS + 1):
        spec = spec_at(scale)
        got = certifier.certify_couple(spec, target)
        if isinstance(got, Certificate):
            return ConcatResult(scale, spec, expand_from_roots(spec), target, got, step)
        scale *= ratio
    raise ScaleNotFoundError(f"no scale verified for {target} within {MAX_SCALE_STEPS} steps")


def concat_pairs(left: Realizer, right: Realizer) -> ConcatResult:
    """Merge two verified pair-couple realizers; halve epsilon until certified.

    The target word is left's word followed by right's word sans its leading
    plus, flipped when left's word ends in minus; the target pair is the sum
    of the two pairs.
    """
    left.verify()
    right.verify()
    ls = left.couple.pattern.signs
    rs = right.couple.pattern.signs[1:]
    if ls[-1] == -1:
        rs = tuple(-s for s in rs)
    target = PairCouple(
        SignPattern(ls + rs),
        RootCountPair(
            left.couple.pair.pos + right.couple.pair.pos,
            left.couple.pair.neg + right.couple.pair.neg,
        ),
    )

    base = left.spec.map(Fraction)

    def spec_at(eps):
        scaled = right.spec.map(lambda v: Fraction(v) * eps)
        return RootSpec(base.real_roots + scaled.real_roots,
                        base.complex_pairs + scaled.complex_pairs)

    return _ladder(target, spec_at, Fraction(1, 2), Fraction(1, 2))


def _moduli_of(v: Realizer, letter: str) -> list[Fraction]:
    """Moduli of the roots of v, once v is checked to realize its moduli couple."""
    if letter not in ("P", "N"):
        raise ValueError("letter must be 'P' or 'N'")
    if not isinstance(v.couple, ModuliCouple):
        raise InvalidRealizerError(f"moduli extension needs a moduli couple, not {v.couple}")
    v.verify()  # fails a spec with complex roots at the hyperbolic check
    return [abs(r) for r in v.spec.map(Fraction).real_roots]


def extend_small(v: Realizer, letter: str) -> ConcatResult:
    """Append a root strictly below every modulus of v; prepends `letter` to the order.

    Multiplying by (x - eps) (letter P) flips the last sign of v's word;
    (x + eps) (letter N) repeats it.  eps starts at half the smallest modulus
    and halves until the exact expansion certifies.
    """
    eps = min(_moduli_of(v, letter)) / 2
    target = ModuliCouple(
        SignPattern(
            v.couple.pattern.signs
            + ((-v.couple.pattern.signs[-1],) if letter == "P" else (v.couple.pattern.signs[-1],))
        ),
        ModuliOrder(letter + v.couple.order.word),
    )
    return _extend(v, letter, target, eps, Fraction(1, 2))


def extend_large(v: Realizer, letter: str) -> ConcatResult:
    """Append a root strictly above every modulus of v; appends `letter` to the order.

    For dominant delta the product's word is a plus followed by v's whole word
    flipped (letter P) or repeated (letter N).  delta starts at twice the
    largest modulus and doubles until the exact expansion certifies.
    """
    delta = max(_moduli_of(v, letter)) * 2
    signs = v.couple.pattern.signs
    flipped = tuple(-s for s in signs) if letter == "P" else signs
    target = ModuliCouple(
        SignPattern((1,) + flipped),
        ModuliOrder(v.couple.order.word + letter),
    )
    return _extend(v, letter, target, delta, Fraction(2))


def _extend(v, letter, target, scale, ratio):
    rest = v.spec.map(Fraction).real_roots
    sign = 1 if letter == "P" else -1
    return _ladder(target, lambda s: RootSpec((sign * s,) + rest), scale, ratio)
