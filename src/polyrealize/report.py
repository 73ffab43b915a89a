"""JSON report schema (version 1).

Search reports carry the full outcome including wall time; sweep reports are
deliberately time-free so that identical (query, config) inputs serialize to
byte-identical documents.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from .certifier import Certificate, fraction_str
from .concatenation import ConcatResult
from .criticalgaps import GapReport
from .moduliorders import ModuliCouple
from .polycore import RootSpec
from .sampler import Mixture, SearchConfig, SearchOutcome, Uniform
from .signpatterns import PairCouple
from .sweeps import SweepReport

SCHEMA_VERSION = 1


def _strategy_json(cfg: SearchConfig) -> dict:
    s = cfg.strategy
    if isinstance(s, Uniform):
        return {"kind": "uniform"}
    if isinstance(s, Mixture):
        return {
            "kind": "mixture",
            "narrow_scale": cfg.narrow_scale,
            "narrow_fraction": s.narrow_fraction,
        }
    return {"kind": "multiplicity", "dup_probability": s.dup_probability}  # MultiplicityBias


def config_json(cfg: SearchConfig) -> dict:
    return {
        "seed": cfg.seed,
        "n": cfg.n,
        "ell": cfg.ell,
        "strategy": _strategy_json(cfg),
        "tolerance": cfg.tau,
        "digits": cfg.digits,
    }


def couple_json(couple: Union[PairCouple, ModuliCouple]) -> dict:
    if isinstance(couple, PairCouple):
        return {
            "sigma": couple.pattern.word,
            "pos": couple.pair.pos,
            "neg": couple.pair.neg,
        }
    return {
        "sigma": couple.pattern.word,
        "order": couple.order.word,
        "bracket": list(couple.order.bracket),
    }


def roots_json(spec: RootSpec) -> dict:
    return {
        "real": [float(r) for r in spec.real_roots],
        "complex_pairs": [[float(re), float(im)] for re, im in spec.complex_pairs],
    }


def certificate_json(cert: Certificate) -> dict:
    claim = cert.claim
    return {
        "rational_coefficients": [fraction_str(c) for c in cert.coeffs],
        "claim": couple_json(claim) if not isinstance(claim, str) else claim,
        "checks": [{"name": name, "detail": detail} for name, detail in cert.checks],
    }


def _float_json(v: float):
    """v, or its repr ("inf", "-inf", "nan") when it is not finite: JSON has no such number."""
    return v if math.isfinite(v) else repr(v)


def gap_report_json(report: GapReport) -> dict:
    """The report as JSON; a statistic that overflows on huge roots is written as its repr."""
    return {
        "x": list(map(_float_json, report.x)),
        "z": list(map(_float_json, report.z)),
        "xi": list(map(_float_json, report.xi)),
        "m_p": _float_json(report.m_p),
        "M_p": _float_json(report.M_p),
        "m_tilde": _float_json(report.m_tilde),
        "M_tilde": _float_json(report.M_tilde),
        "m_prime": _float_json(report.m_prime),
        "M_prime": _float_json(report.M_prime),
        "class": report.gap_class,
        "margins": list(map(_float_json, report.margins)),
    }


def outcome_json(outcome: SearchOutcome) -> dict:
    doc: dict = {
        "status": outcome.status,
        "timing": {"attempts": outcome.attempts, "seconds": outcome.seconds},
    }
    if outcome.found:
        doc["attempt_index"] = outcome.attempt_index
        doc["polynomial"] = {"coefficients": [repr(c) for c in outcome.poly.coeffs]}
        doc["roots"] = roots_json(outcome.spec)
        doc["certificate"] = certificate_json(outcome.certificate)
        if outcome.gap is not None:
            doc["gap_report"] = gap_report_json(outcome.gap)
    return doc


def search_report(command: str, cfg: SearchConfig, query: dict,
                  outcome: SearchOutcome) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config_json(cfg),
        "query": query,
        "outcome": outcome_json(outcome),
    }


def concat_report(left: str, right: str, result: ConcatResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "concat",
        "query": {"left": left, "right": right},
        "scale": fraction_str(result.scale),
        "steps": result.steps,
        "couple": couple_json(result.couple),
        "roots": roots_json(result.spec),
        "certificate": certificate_json(result.certificate),
    }


def sweep_report_json(command: str, report: SweepReport) -> dict:
    rows = []
    for row in report.rows:
        doc: dict = {
            "couple": couple_json(row.couple),
            "status": row.status,
            "attempts": row.attempts,
        }
        if row.attempt_index is not None:
            doc["attempt_index"] = row.attempt_index
        if row.spec is not None:
            doc["roots"] = roots_json(row.spec)
        if row.certificate is not None:
            doc["certificate"] = certificate_json(row.certificate)
        if row.forced_direction is not None:
            doc["forced_direction"] = row.forced_direction
        if row.derived_from is not None:
            doc["derived_from"] = couple_json(row.derived_from)
        rows.append(doc)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config_json(report.config),
        "query": report.query,
        "rows": rows,
        "totals": report.totals,
    }
    if report.orbits:
        doc["orbits"] = [list(g) for g in report.orbits]
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Union[str, Path], doc: dict) -> None:
    Path(path).write_text(dump_json(doc))
