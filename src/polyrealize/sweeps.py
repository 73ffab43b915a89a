"""Exhaustive sweeps: every couple of a degree, or every order of a pattern.

A sweep runs the corresponding search per couple under one budget and
aggregates rows.  Moduli sweeps run the forcing test first so provably dead
couples never burn attempts.  A sweep's searches share one config, so
attempt i draws the same uniforms in every search that draws as many per
attempt: every order of a moduli sweep, and every couple of a Uniform pair
sweep (d uniforms per attempt at degree d).  Both sweeps run their searches
inside `sampler._shared_blocks`, where each block's unit draws, or a moduli
block's order-independent front, are computed once for all the searches
that read them.  Only blocks starting at or before `sampler._SHARE_CAP` are
kept, which bounds the store at large budgets, and the store is dropped
when the sweep returns or raises.  Pair sweeps collect each g1/g2 orbit
once, at its first member; with orbit deduplication only its canonical
representative is searched and witnesses for the other members are derived
by the two root transforms (negation, inversion) and re-certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional, Union

from . import certifier, sampler
from .certifier import Certificate
from .moduliorders import ForcedConflict, ModuliCouple, enumerate_orders, forcing_test
from .polycore import RootSpec
from .sampler import SearchConfig, SearchOutcome
from .signpatterns import (
    PairCouple,
    SignPattern,
    act_g1,
    act_g2,
    compatible_pairs,
    descartes_pair,
    orbit,
)

REALIZED = "realized"
FORCED = "forced"
UNRESOLVED = "unresolved"


class OrbitWitnessError(RuntimeError):
    """A witness mapped through g1/g2 failed to certify for its orbit member."""


@dataclass(frozen=True)
class SweepRow:
    couple: Union[PairCouple, ModuliCouple]
    status: str
    attempts: int
    attempt_index: Optional[int] = None
    spec: Optional[RootSpec] = None
    certificate: Optional[Certificate] = None
    forced_direction: Optional[str] = None
    derived_from: Optional[Union[PairCouple, ModuliCouple]] = None


@dataclass(frozen=True)
class SweepReport:
    kind: str  # "pairs" | "moduli"
    query: str
    config: SearchConfig
    rows: tuple[SweepRow, ...]
    orbits: tuple[tuple[int, ...], ...] = ()  # row indices grouped by orbit

    @property
    def totals(self) -> dict[str, int]:
        out = {REALIZED: 0, FORCED: 0, UNRESOLVED: 0}
        for row in self.rows:
            out[row.status] += 1
        return out


def enumerate_couples(d: int) -> list[PairCouple]:
    """Every (pattern, compatible pair) couple of degree d, deterministic order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    for bits in product((1, -1), repeat=d):
        sigma = SignPattern((1,) + bits)
        for pair in compatible_pairs(sigma):
            out.append(PairCouple(sigma, pair))
    return out


def _g1_spec(spec: RootSpec) -> RootSpec:
    return RootSpec(
        real_roots=tuple(-r for r in spec.real_roots),
        complex_pairs=tuple((-re, im) for re, im in spec.complex_pairs),
    )


def _g2_spec(spec: RootSpec) -> RootSpec:
    pairs = []
    for re, im in spec.complex_pairs:
        re, im = Fraction(re), Fraction(im)
        m2 = re * re + im * im
        pairs.append((re / m2, im / m2))
    return RootSpec(
        real_roots=tuple(Fraction(1) / Fraction(r) for r in spec.real_roots),
        complex_pairs=tuple(pairs),
    )


def _map_witness(spec: RootSpec, src: PairCouple, dst: PairCouple) -> Optional[RootSpec]:
    """Transform a witness of src into one of dst via g1/g2 at the root level."""
    candidates = {
        src: spec,
        act_g1(src): _g1_spec(spec),
        act_g2(src): _g2_spec(spec),
        act_g2(act_g1(src)): _g2_spec(_g1_spec(spec)),
    }
    return candidates.get(dst)


def sweep_pairs(d: int, cfg: SearchConfig, orbits: bool = False) -> SweepReport:
    """Search every degree-d couple with the same budget and aggregate."""
    couples = enumerate_couples(d)
    seen: set[PairCouple] = set()
    groups: list[tuple[PairCouple, ...]] = []
    for couple in couples:
        if couple not in seen:
            members = orbit(couple)
            seen.update(members)
            groups.append(members)

    with sampler._shared_blocks():
        if orbits:
            found = _orbit_rows(groups, cfg)
            rows = [found[c] for c in couples]
        else:
            rows = [_row(c, sampler.search_pair(c.pattern, c.pair, cfg)) for c in couples]

    index = {c: i for i, c in enumerate(couples)}
    return SweepReport(
        kind="pairs", query=f"degree={d}", config=cfg, rows=tuple(rows),
        orbits=tuple(tuple(sorted(index[m] for m in members)) for members in groups),
    )


def _orbit_rows(groups: list[tuple[PairCouple, ...]],
                cfg: SearchConfig) -> dict[PairCouple, SweepRow]:
    """A row per orbit member: each orbit's first member is searched, the others derived."""
    found: dict[PairCouple, SweepRow] = {}
    for members in groups:
        rep = members[0]
        outcome = sampler.search_pair(rep.pattern, rep.pair, cfg)
        for member in members:
            row = replace(_row(member, outcome), derived_from=None if member == rep else rep)
            if outcome.found:
                mapped = _map_witness(outcome.certificate.spec, rep, member)
                cert = certifier.certify_couple(mapped, member)
                if not isinstance(cert, Certificate):
                    raise OrbitWitnessError(
                        f"witness of {rep} mapped to {member} failed: {cert.detail}"
                    )
                row = replace(row, spec=mapped, certificate=cert)
            found[member] = row
    return found


def _row(couple: Union[PairCouple, ModuliCouple], outcome: SearchOutcome) -> SweepRow:
    if outcome.found:
        return SweepRow(
            couple=couple,
            status=REALIZED,
            attempts=outcome.attempts,
            attempt_index=outcome.attempt_index,
            spec=outcome.spec,
            certificate=outcome.certificate,
        )
    return SweepRow(couple=couple, status=UNRESOLVED, attempts=outcome.attempts)


def sweep_moduli(sigma: SignPattern, cfg: SearchConfig) -> SweepReport:
    """Forcing test first, then search, for every order compatible with sigma."""
    if sigma.degree < 1:
        raise ValueError("degree must be >= 1")
    c, p = descartes_pair(sigma)
    rows: list[SweepRow] = []
    with sampler._shared_blocks():
        for order in enumerate_orders(c, p):
            verdict = forcing_test(sigma, order)
            couple = ModuliCouple(sigma, order)
            if isinstance(verdict, ForcedConflict):
                rows.append(
                    SweepRow(
                        couple=couple,
                        status=FORCED,
                        attempts=0,
                        forced_direction=verdict.direction,
                    )
                )
                continue
            rows.append(_row(couple, sampler.search_moduli(sigma, order, cfg)))
    return SweepReport(
        kind="moduli", query=f"sigma={sigma.word}", config=cfg, rows=tuple(rows)
    )
