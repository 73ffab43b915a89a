"""Exhaustive sweeps: every couple of a degree, or every order of a pattern.

A sweep runs the corresponding search per couple under one budget and
aggregates rows.  Moduli sweeps run the forcing test first so provably dead
couples never burn attempts.  Pair sweeps can deduplicate by orbit: only the
canonical representative is searched and witnesses for the other members are
derived by the two root transforms (negation, inversion) and re-certified.
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
    canonical_representative,
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


def enumerate_couples(d: int, orbits: bool = False) -> list[PairCouple]:
    """Every (pattern, compatible pair) couple of degree d, deterministic order.

    With orbits=True only canonical orbit representatives are returned.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    for bits in product((1, -1), repeat=d):
        sigma = SignPattern((1,) + bits)
        for pair in compatible_pairs(sigma):
            couple = PairCouple(sigma, pair)
            if orbits and canonical_representative(couple) != couple:
                continue
            out.append(couple)
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
    rows: list[SweepRow] = []

    if not orbits:
        for couple in couples:
            outcome = sampler.search_pair(couple.pattern, couple.pair, cfg)
            rows.append(_row(couple, outcome))
    else:
        found: dict[PairCouple, SweepRow] = {}
        for rep in enumerate_couples(d, orbits=True):
            outcome = sampler.search_pair(rep.pattern, rep.pair, cfg)
            for member in orbit(rep):
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
        rows = [found[c] for c in couples]

    orbit_groups = _orbit_groups(couples)
    return SweepReport(
        kind="pairs", query=f"degree={d}", config=cfg, rows=tuple(rows),
        orbits=orbit_groups,
    )


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


def _orbit_groups(couples: list[PairCouple]) -> tuple[tuple[int, ...], ...]:
    index = {c: i for i, c in enumerate(couples)}
    seen = set()
    groups = []
    for i, couple in enumerate(couples):
        if i in seen:
            continue
        group = tuple(sorted(index[m] for m in orbit(couple)))
        seen.update(group)
        groups.append(group)
    return tuple(groups)


def sweep_moduli(sigma: SignPattern, cfg: SearchConfig) -> SweepReport:
    """Forcing test first, then search, for every order compatible with sigma."""
    c, p = descartes_pair(sigma)
    rows: list[SweepRow] = []
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
