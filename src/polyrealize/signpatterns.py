"""Sign-pattern combinatorics.

A sign pattern is a word over {+,-} starting with +, read off the descending
coefficients of a monic polynomial.  This module carries the run-length form,
the (changes, preservations) pair, the root-count compatibility predicate, and
the commuting pair of involutions (monomial sign flip, word reversal) acting
on (pattern, root-count) couples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

_WORD_RE = re.compile(r"\+[+-]*\Z")
_RUNS_RE = re.compile(r"\d+(,\d+)*\Z")


class EmptyRunsError(ValueError):
    """from_runs needs at least one run."""


class IncompatibleCoupleError(ValueError):
    """The attached pair/order does not satisfy the pattern's counting rules."""


class RootCountPair(NamedTuple):
    pos: int
    neg: int


@dataclass(frozen=True)
class SignPattern:
    """Immutable sign word; entries are +1/-1 ints, leading entry +1."""

    signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(self.signs))
        if not self.signs:
            raise ValueError("empty sign pattern")
        if self.signs[0] != 1:
            raise ValueError("sign pattern must start with +")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def degree(self) -> int:
        return len(self.signs) - 1

    @property
    def word(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @property
    def runs(self) -> tuple[int, ...]:
        out = []
        n = 0
        cur = self.signs[0]
        for s in self.signs:
            if s == cur:
                n += 1
            else:
                out.append(n)
                cur = s
                n = 1
        out.append(n)
        return tuple(out)

    @property
    def changes(self) -> int:
        return sum(1 for a, b in zip(self.signs, self.signs[1:]) if a != b)

    @classmethod
    def from_word(cls, word: str) -> "SignPattern":
        if not _WORD_RE.fullmatch(word):
            raise ValueError(f"not a sign word: {word!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in word))

    def __str__(self) -> str:
        return self.word


def from_runs(runs: Iterable[int]) -> SignPattern:
    """Pattern with runs[0] plusses, runs[1] minuses, runs[2] plusses, ..."""
    runs = tuple(runs)
    if not runs:
        raise EmptyRunsError("need at least one run")
    if any(m < 1 for m in runs):
        raise ValueError("every run length must be >= 1")
    signs: list[int] = []
    cur = 1
    for m in runs:
        signs.extend([cur] * m)
        cur = -cur
    return SignPattern(tuple(signs))


def parse_pattern(text: str) -> SignPattern:
    """Accepts either a sign word '+--++' or a run list '1,3,2'."""
    text = text.strip()
    if _WORD_RE.fullmatch(text):
        return SignPattern.from_word(text)
    if _RUNS_RE.fullmatch(text):
        return from_runs(int(t) for t in text.split(","))
    raise ValueError(f"cannot parse sign pattern from {text!r}")


def descartes_pair(sigma: SignPattern) -> tuple[int, int]:
    """(sign changes, sign preservations); their sum is the degree."""
    c = sigma.changes
    return c, sigma.degree - c


def is_compatible_pair(sigma: SignPattern, pair: RootCountPair) -> bool:
    """Root counts admissible for the pattern: bounded by (c, p), even gaps."""
    pos, neg = pair
    c, p = descartes_pair(sigma)
    return (
        0 <= pos <= c
        and 0 <= neg <= p
        and (c - pos) % 2 == 0
        and (p - neg) % 2 == 0
    )


def compatible_pairs(sigma: SignPattern) -> list[RootCountPair]:
    """All admissible (pos, neg), lexicographically sorted.

    There are (floor(c/2)+1) * (floor(p/2)+1) of them.
    """
    c, p = descartes_pair(sigma)
    return [
        RootCountPair(pos, neg)
        for pos in range(c % 2, c + 1, 2)
        for neg in range(p % 2, p + 1, 2)
    ]


@dataclass(frozen=True)
class PairCouple:
    """A sign pattern together with a compatible root-count pair."""

    pattern: SignPattern
    pair: RootCountPair

    def __post_init__(self):
        object.__setattr__(self, "pair", RootCountPair(*self.pair))
        if not is_compatible_pair(self.pattern, self.pair):
            raise IncompatibleCoupleError(
                f"pair {tuple(self.pair)} incompatible with pattern {self.pattern.word}"
            )

    def __str__(self) -> str:
        return f"({self.pattern.word}, ({self.pair.pos},{self.pair.neg}))"


def act_g1(couple: PairCouple) -> PairCouple:
    """Flip the signs in 2nd, 4th, ... positions; swap the root counts.

    On polynomials this is Q(x) -> (-1)^d Q(-x), which negates every root.
    """
    signs = tuple(s if i % 2 == 0 else -s for i, s in enumerate(couple.pattern.signs))
    return PairCouple(SignPattern(signs), RootCountPair(couple.pair.neg, couple.pair.pos))


def act_g2(couple: PairCouple) -> PairCouple:
    """Reverse the sign word, flipping all signs if the reversal starts with -.

    On polynomials this is Q(x) -> x^d Q(1/x) / Q(0) (roots inverted); the
    renormalization by Q(0) is what may flip all signs.  Root counts persist.
    """
    rev = couple.pattern.signs[::-1]
    if rev[0] < 0:
        rev = tuple(-s for s in rev)
    return PairCouple(SignPattern(rev), couple.pair)


def _couple_key(couple: PairCouple):
    return (
        tuple(0 if s > 0 else 1 for s in couple.pattern.signs),
        couple.pair.pos,
        couple.pair.neg,
    )


def orbit(couple: PairCouple) -> tuple[PairCouple, ...]:
    """Closure of the couple under both involutions, sorted; first is canonical.

    The two generators commute, so the orbit is {id, g1, g2, g1g2} applied to
    the couple and has size 1, 2 or 4 after deduplication.
    """
    g1c = act_g1(couple)
    return tuple(sorted({couple, g1c, act_g2(couple), act_g2(g1c)}, key=_couple_key))
