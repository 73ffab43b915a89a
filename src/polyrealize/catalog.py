"""Catalog of known results and stored witnesses.

Fixtures keep the factored form (a RootSpec) as ground truth, never the
printed expansions: printed coefficient lists are rounded for display and two
of them contain outright typos, so they are stored only as provenance
(`printed_coeffs`) for loose cross-checking.  Where the source's own label
contradicts the exact expansion of its factored form, the entry claims the
adjudicated couple and keeps the stated one alongside (see the notes on the
c1/c2 entries).

Reported CPU timings ride along in the source strings as provenance only;
nothing asserts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moduliorders import ModuliCouple, ModuliOrder
from .polycore import RootSpec
from .signpatterns import PairCouple, RootCountPair, SignPattern, from_runs


class UnknownIdError(KeyError):
    """No catalog entry under that id."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # Fixture | NonRealizablePairCouple | ClassificationTable
    title: str
    payload: dict
    source: str
    notes: tuple[str, ...] = ()


def _pairs(*quads: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    """(re, im) parameters from quadratics x^2 - s*x + q with s^2 < 4q."""
    out = []
    for s, q in quads:
        re = s / 2.0
        im2 = q - re * re
        if im2 <= 0:
            raise ValueError(f"quadratic x^2 - {s}x + {q} has real roots")
        out.append((re, math.sqrt(im2)))
    return tuple(out)


def _fixture(id, couple, spec, printed, source, notes, stated=None, exempt=False):
    """The Fixture entry storing `spec` as the witness for `couple`."""
    return CatalogEntry(
        id=id,
        kind="Fixture",
        title=f"witness for {couple}",
        payload={
            "spec": spec,
            "couple": couple,
            "stated_couple": stated if stated is not None else couple,
            "printed_coeffs": tuple(printed),
            "exempt_coeff_match": exempt,
        },
        source=source,
        notes=tuple(notes),
    )


def _pair_fixture(id, runs, pair, reals, quads, printed, source, notes=(), stated=None,
                  exempt=False):
    couple = PairCouple(from_runs(runs), RootCountPair(*pair))
    spec = RootSpec(real_roots=reals, complex_pairs=_pairs(*quads))
    return _fixture(id, couple, spec, printed, source, notes, stated, exempt)


def _moduli_fixture(id, runs, bracket, roots, printed, source, notes=()):
    couple = ModuliCouple(from_runs(runs), ModuliOrder.from_bracket(bracket))
    return _fixture(id, couple, RootSpec(real_roots=roots), printed, source, notes)


_GRABINER = (
    PairCouple(SignPattern.from_word("+---+"), RootCountPair(0, 2)),
    PairCouple(SignPattern.from_word("++-++"), RootCountPair(2, 0)),
)

# non-realizable orders of moduli for the (1,2,3,2) pattern: the thirteen
# forced by the root-sum argument plus the rigid order [1,1,1,1]
_FORCED_1232 = (
    (0, 0, 0, 4), (0, 0, 1, 3), (0, 0, 2, 2), (0, 0, 3, 1), (0, 1, 0, 3),
    (0, 1, 1, 2), (0, 1, 2, 1), (0, 2, 0, 2), (0, 2, 1, 1), (1, 0, 0, 3),
    (1, 0, 1, 2), (1, 0, 2, 1), (1, 1, 0, 2), (1, 1, 1, 1),
)

# realizable by appending a dominant positive root to a degree-6 witness:
# every bracket with u_4 = 0 (the new root is the largest modulus)
_CONCAT_1232 = tuple(
    (u1, u2, u3, 0)
    for u1 in range(5)
    for u2 in range(5 - u1)
    for u3 in (4 - u1 - u2,)
)

_WITNESS_1232 = {
    (0, 3, 0, 1): "sigma1232-0301",
    (1, 2, 0, 1): "sigma1232-1201",
    (2, 0, 1, 1): "sigma1232-2011",
    (2, 0, 0, 2): "sigma1232-2002",
    (2, 1, 0, 1): "sigma1232-2101",
    (3, 0, 0, 1): "sigma1232-3001",
}

_REALIZABLE_1232 = tuple(sorted(set(_CONCAT_1232) | set(_WITNESS_1232)))


def _build() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry(
            id="grabiner-d4",
            kind="NonRealizablePairCouple",
            title="the two non-realizable degree-4 couples",
            payload={"couples": _GRABINER},
            source="classical degree-4 classification of (sign pattern, root count) couples",
            notes=(
                "the second couple is the image of the first under the variable sign flip",
            ),
        ),
        _pair_fixture(
            "q1", (1, 3, 2), (0, 3),
            (-0.723, -0.59, -0.48), ((1.97, 0.977),),
            (1, -0.177, -1.498, -0.125, 0.629, 0.2),
            "reported degree-5 witness; batch CPU 3.46 s at N=10^7, ell=1",
        ),
        _pair_fixture(
            "q2", (1, 5, 2), (0, 3),
            (-0.8, -0.77, -0.39), ((0.13, 0.65), (1.88, 0.89)),
            (1, -0.05, -0.927, -0.069, -0.334, -0.08, 0.389, 0.139),
            "reported degree-7 witness; batch CPU 3.46 s at N=10^7, ell=1",
        ),
        _pair_fixture(
            "q3", (2, 1, 1, 1, 2, 1), (3, 0),
            (0.389, 0.4121, 0.579), ((-1.4124, 0.499), (-0.032, 0.704)),
            (1, 0.065, -0.121, 0.096, -0.398, 0.030, 0.125, -0.033),
            "reported degree-7 witness; batch CPU 3.46 s at N=10^7, ell=1",
            notes=(
                "the source prints the first factor as (x+0.389); that sign contradicts "
                "both its printed expansion and the claimed root counts, so the root is "
                "stored as +0.389",
            ),
        ),
        _pair_fixture(
            "q4", (2, 1, 4, 1), (3, 0),
            (0.5, 0.596, 0.975), ((-1.954, 0.956), (-0.2, 0.359)),
            (1, 0.083, -1.389, 0.013, 0.2, 0.014, 0.210, -0.1),
            "reported degree-7 witness; batch CPU 3.46 s at N=10^7, ell=1",
        ),
        _pair_fixture(
            "q5", (2, 1, 3, 2), (3, 0),
            (0.597, 0.69, 0.85), ((-1.81, 0.83), (-0.35, 0.15)),
            (1, 0.023, -1.497, 0.017, 0.597, 0.0153, -0.009, -0.044),
            "reported degree-7 witness; batch CPU 3.46 s at N=10^7, ell=1",
        ),
        _pair_fixture(
            "c1", (1, 2, 2, 2, 3), (2, 3),
            (-0.2, -0.3, -0.3, 0.9, 0.94), ((1.62, 0.67), (-1.72, 1.348)),
            (1, -0.73, -1.5258, -0.191020, 2.52140544, -0.2081491476,
             -1.051144849, -0.0043084783, 0.1632999587, 0.02862830065),
            "reported degree-9 witness; CPU 2.45 s at N=10^7, ell=1",
            notes=(
                "stated as a witness for ((1,3,2,3,1) runs, (0,3)), but the printed "
                "factor x^2-1.84x+0.846 has positive discriminant (roots 0.9 and 0.94), "
                "so the factored form realizes ((1,2,2,2,3) runs, (2,3)); the printed "
                "expansion also disagrees with the factored form (x^8 coefficient -0.73 "
                "vs -0.94) and is kept only as provenance",
            ),
            stated=PairCouple(from_runs((1, 3, 2, 3, 1)), RootCountPair(0, 3)),
            exempt=True,
        ),
        _pair_fixture(
            "c2", (1, 3, 2, 3, 1), (0, 3),
            (-0.25, -0.27, -0.43), ((0.4, 0.0402), (1.06, 0.33), (-0.4, 0.14)),
            (1, -0.11, -0.3659, -0.0082, 0.06757, 0.025, -0.0022, -0.0022,
             -0.000017, 0.000053),
            "reported degree-9 witness; CPU 2.45 s at N=10^7, ell=1",
            notes=(
                "stated as a witness for ((1,3,1,3,2) runs, (0,3)), but the exact "
                "expansion of the factored form (and its own printed expansion) has "
                "sign word +---++---+, i.e. runs (1,3,2,3,1); the entry claims the "
                "adjudicated couple",
            ),
            stated=PairCouple(from_runs((1, 3, 1, 3, 2)), RootCountPair(0, 3)),
        ),
        _pair_fixture(
            "c3", (1, 5, 1, 1, 2), (0, 3),
            (-0.786, -0.696, -0.622),
            ((-0.3848, 0.808), (0.5783, 0.706), (1.972, 0.975)),
            (1, -0.0615, -0.43929984, -0.200085009, -0.798790981, -0.0587716,
             0.044796444, -0.008446381, 0.369292280, 0.1892530328),
            "reported degree-9 witness; CPU about 200 s at N=10^7, ell=1; "
            "not reachable by concatenation of lower-degree witnesses",
        ),
        _moduli_fixture(
            "sigma341-witness", (3, 4, 1), (0, 0, 5),
            (0.77, 4.28, -4.31, -4.47, -4.59, -4.68, -4.91),
            (1, 17.91, 98.1106, -21.793074, -1971.427200, -5976.303538,
             -2955.965399, 6696.676474),
            "reported degree-7 hyperbolic witness",
            notes=(
                "catalog fact: the (3,4,1) pattern is realizable exactly by the orders "
                "[0,5,0], [0,4,1], [0,3,2], [0,2,3], [0,1,4] and [0,0,5]",
            ),
        ),
        _moduli_fixture(
            "sigma1232-0301", (1, 2, 3, 2), (0, 3, 0, 1),
            (0.628, -0.688, -0.722, -0.950, 2.83, 4.26, -4.33),
            (1, -1.028, -23.070064, 18.25165163, 85.39426303, 32.00673579,
             -30.03754531, -15.47008913),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        _moduli_fixture(
            "sigma1232-1201", (1, 2, 3, 2), (1, 2, 0, 1),
            (-0.14, 0.15, -0.20, -0.32, 0.77, 2.05, -2.13),
            (1, -0.18, -4.7422, 1.066232, 1.55397477, 0.1792075450,
             -0.03291572340, -0.004518803520),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        _moduli_fixture(
            "sigma1232-2011", (1, 2, 3, 2), (2, 0, 1, 1),
            (-0.88, -1.19, 2.64, 2.67, -2.8, 3.69, -3.92),
            (1, -0.21, -26.5337, 4.534365, 205.9891230, 14.83884381,
             -467.7618374, -298.9615155),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        _moduli_fixture(
            "sigma1232-2002", (1, 2, 3, 2), (2, 0, 0, 2),
            (-1.01, -1.65, 3.3, 3.9, 4.23, -4.24, -4.47),
            (1, -0.06, -42.8452, 2.610486, 567.6094115, 68.3101894,
             -2166.332517, -1719.481913),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        _moduli_fixture(
            "sigma1232-2101", (1, 2, 3, 2), (2, 1, 0, 1),
            (-1.13, -1.7, 3.28, -3.46, 3.559, 4.445, -4.64),
            (1, -0.354, -40.362845, 7.46423375, 496.1523459, 96.0221457,
             -1867.359344, -1600.276550),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        _moduli_fixture(
            "sigma1232-3001", (1, 2, 3, 2), (3, 0, 0, 1),
            (-1.19, -1.3, -1.4, 2, 3, 3.5, -3.93),
            (1, -0.68, -22.6493, 11.98954, 135.291379, 16.6357660,
             -260.8328310, -178.7434740),
            "reported hyperbolic witness; six-case batch CPU 1.12 s at N=10^3, ell=5",
        ),
        CatalogEntry(
            id="gap-d6-LmRp",
            kind="Fixture",
            title="degree-6 root set realizing gap class L-R+",
            payload={
                "roots": (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96),
                "gap_class": "L-R+",
                "printed_coeffs": (1, -1.60, 0.5300, 0.122578, -0.03793509,
                                   -0.0025040322, 0.000600530112),
                "printed_xi": (-0.1850968062, -0.02957083052, 0.1718593928,
                               0.5155057599, 0.8606358173),
                "stats": {
                    "m_tilde": 0.16,
                    "M_tilde": 0.375,
                    "m_prime": 0.1555259757,
                    "M_prime": 0.3451300574,
                },
            },
            source="reported witness; CPU 23.99 s at N=10^5, ell=1",
            notes=(
                "for degree 5 the same search reportedly produced nothing even "
                "beyond 10^8 draws; exhaustion is evidence, not proof",
            ),
        ),
        CatalogEntry(
            id="sigma1232-table",
            kind="ClassificationTable",
            title="orders of moduli for the (1,2,3,2) pattern: 21 realizable of 35",
            payload={
                "runs": (1, 2, 3, 2),
                "forced": _FORCED_1232,
                "rigid": (1, 1, 1, 1),
                "concat_realizable": _CONCAT_1232,
                "realizable": _REALIZABLE_1232,
                "witness_ids": dict(_WITNESS_1232),
            },
            source="classification assembled from the root-sum forcing argument, "
                   "dominant-root concatenation, and six searched witnesses",
            notes=(
                "bracket reading: u_k counts negative moduli below/between/above the "
                "positive ones, smallest modulus first; the concatenation-realizable "
                "list therefore has u_4 = 0 (the appended positive root is the largest "
                "modulus).  Sources quoting the same list with u_1 = 0 are using the "
                "reversed index order",
                "the rigid order [1,1,1,1] is non-realizable here because it admits "
                "only the alternating-run pattern; the forcing test flags it through "
                "the same root-sum matching",
            ),
        ),
    ]
    return {e.id: e for e in entries}


_ENTRIES = _build()


def catalog_ids() -> list[str]:
    return sorted(_ENTRIES)


def catalog_lookup(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise UnknownIdError(entry_id) from None


def fixture_ids() -> list[str]:
    return [i for i in catalog_ids() if _ENTRIES[i].kind == "Fixture"]
