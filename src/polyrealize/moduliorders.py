"""Order-of-moduli combinatorics for hyperbolic polynomials.

The order of moduli is the word over {P, N} obtained by listing the moduli of
the roots in increasing order and writing P for a positive root and N for a
negative one.  Its bracket form [u_1, ..., u_{c+1}] counts the N's below the
first P, between consecutive P's, and above the last P.  The forcing test
implements the sufficient non-realizability criterion that pins the sign of
the subdominant coefficient against the pattern via a modulus matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .polycore import ZeroRootError
from .signpatterns import IncompatibleCoupleError, SignPattern, descartes_pair

_WORD_RE = re.compile(r"[PN]+\Z")
_BRACKET_RE = re.compile(r"\[\s*\d+(\s*,\s*\d+)*\s*\]\Z")


class TiedModuliError(ValueError):
    """Two roots share the same modulus; the order is undefined."""


@dataclass(frozen=True)
class ModuliOrder:
    """Word over {P, N}, smallest modulus first."""

    word: str

    def __post_init__(self):
        if not self.word or not _WORD_RE.fullmatch(self.word):
            raise ValueError(f"order word must be a nonempty string over P/N: {self.word!r}")

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def p_count(self) -> int:
        return self.word.count("P")

    @property
    def n_count(self) -> int:
        return self.word.count("N")

    @property
    def bracket(self) -> tuple[int, ...]:
        """[u_1, ..., u_{#P + 1}]: counts of N's around/between the P's."""
        out = []
        run = 0
        for ch in self.word:
            if ch == "N":
                run += 1
            else:
                out.append(run)
                run = 0
        out.append(run)
        return tuple(out)

    @classmethod
    def from_bracket(cls, bracket: Sequence[int]) -> "ModuliOrder":
        bracket = tuple(bracket)
        if not bracket or any(u < 0 for u in bracket):
            raise ValueError(f"bracket entries must be >= 0: {bracket!r}")
        word = "P".join("N" * u for u in bracket)
        if not word:
            raise ValueError(f"bracket {list(bracket)} describes no modulus")
        return cls(word)

    def __str__(self) -> str:
        return self.word


def parse_order(text: str) -> ModuliOrder:
    """Accepts either a P/N word 'PNPNNPN' or a bracket '[0,1,2,1]'."""
    text = text.strip()
    if _WORD_RE.fullmatch(text):
        return ModuliOrder(text)
    if _BRACKET_RE.fullmatch(text):
        return ModuliOrder.from_bracket(int(t) for t in text[1:-1].split(","))
    raise ValueError(f"cannot parse order of moduli from {text!r}")


def order_from_roots(real_roots: Sequence) -> ModuliOrder:
    """Order of moduli of a list of nonzero reals with pairwise distinct moduli."""
    for r in real_roots:
        if r == 0:
            raise ZeroRootError("root is exactly zero")
    by_mod = sorted(real_roots, key=abs)
    for a, b in zip(by_mod, by_mod[1:]):
        if abs(a) == abs(b):
            raise TiedModuliError(f"tied moduli {abs(a)!r}")
    return ModuliOrder("".join("P" if r > 0 else "N" for r in by_mod))


def enumerate_orders(c: int, p: int) -> list[ModuliOrder]:
    """All C(c+p, c) orders with c P's and p N's, in deterministic order."""
    if c < 0 or p < 0:
        raise ValueError("counts must be >= 0")
    d = c + p
    out = []
    for ppos in combinations(range(d), c):
        word = ["N"] * d
        for i in ppos:
            word[i] = "P"
        out.append(ModuliOrder("".join(word)))
    return out


def is_compatible(sigma: SignPattern, order: ModuliOrder) -> bool:
    """The order must carry exactly c positive and p negative moduli."""
    c, p = descartes_pair(sigma)
    return order.p_count == c and order.n_count == p


@dataclass(frozen=True)
class ModuliCouple:
    """A sign pattern with a compatible order of moduli."""

    pattern: SignPattern
    order: ModuliOrder

    def __post_init__(self):
        if not is_compatible(self.pattern, self.order):
            raise IncompatibleCoupleError(
                f"order {self.order.word} incompatible with pattern {self.pattern.word}"
            )

    def __str__(self) -> str:
        return f"({self.pattern.word}, {self.order.word})"


@dataclass(frozen=True)
class ForcedConflict:
    """Proof of non-realizability: the subdominant coefficient sign is forced.

    direction is the forced sign ('+' or '-'); matching lists the word
    positions (matched letter, strictly larger partner) of the injective
    modulus matching that forces it.
    """

    direction: str
    matching: tuple[tuple[int, int], ...]


def _dominating_matching(word: str, small: str, large: str):
    """Injectively match every `small` letter to a strictly later `large` letter.

    Positions are in increasing-modulus order, so "later" means strictly
    larger modulus.  Option sets are nested (the largest `small` has the
    fewest candidates), so matching greedily from the right is exact, not a
    heuristic: it succeeds if and only if a matching exists.
    """
    small_pos = [i for i, ch in enumerate(word) if ch == small]
    large_pos = [i for i, ch in enumerate(word) if ch == large]
    used = set()
    matching = []
    for sp in reversed(small_pos):
        cand = next((lp for lp in large_pos if lp > sp and lp not in used), None)
        if cand is None:
            return None
        used.add(cand)
        matching.append((sp, cand))
    return tuple(reversed(matching))


def forcing_test(sigma: SignPattern, order: ModuliOrder) -> ForcedConflict | None:
    """ForcedConflict when the order pins the root-sum coefficient against sigma.

    The subdominant coefficient equals (sum of negative-root moduli) - (sum of
    positive roots).  If every positive root is matched injectively to a
    strictly larger negative modulus the coefficient is forced positive;
    symmetrically for the other direction.  A conflict with sigma's second
    sign proves non-realizability; None proves nothing.  An order that is
    not compatible with sigma raises ModuliCouple's IncompatibleCoupleError.
    """
    ModuliCouple(sigma, order)
    required = sigma.signs[1]

    m = _dominating_matching(order.word, "P", "N")
    if m is not None and required == -1:
        return ForcedConflict("+", m)
    m = _dominating_matching(order.word, "N", "P")
    if m is not None and required == 1:
        return ForcedConflict("-", m)
    return None
