"""Golden report digests, rebuilt through the library alone.

Rebuilds the JSON of the search and sweep cases of ``test_golden_reports.py``
with ``report.search_report`` / ``report.sweep_report_json`` and
``report.dump_json``, as the CLI builds them, and prints one line per case:
its id and the SHA-256 of the document.  A search report's wall time is
dropped first, as the golden test drops it.  It needs neither click nor
pytest, so the same output can be compared under every supported Python:

    PYTHONPATH=src python tests/golden_digests.py
"""

from __future__ import annotations

import hashlib

from polyrealize import report, sampler, sweeps
from polyrealize.moduliorders import parse_order
from polyrealize.sampler import Mixture, MultiplicityBias, SearchConfig
from polyrealize.signpatterns import RootCountPair, parse_pattern


def search_pair(sigma: str, pos: int, neg: int, cfg: SearchConfig) -> dict:
    pattern = parse_pattern(sigma)
    outcome = sampler.search_pair(pattern, RootCountPair(pos, neg), cfg)
    query = {"sigma": pattern.word, "pos": pos, "neg": neg}
    return report.search_report("search pair", cfg, query, outcome)


def search_moduli(sigma: str, order_text: str, cfg: SearchConfig) -> dict:
    pattern, order = parse_pattern(sigma), parse_order(order_text)
    outcome = sampler.search_moduli(pattern, order, cfg)
    query = {"sigma": pattern.word, "order": order.word}
    return report.search_report("search moduli", cfg, query, outcome)


def search_gaps(degree: int, target: str, cfg: SearchConfig) -> dict:
    outcome = sampler.search_gap_class(degree, target, cfg)
    query = {"degree": degree, "class": target}
    return report.search_report("search gaps", cfg, query, outcome)


def sweep_pairs(degree: int, budget: int, orbits: bool = False) -> dict:
    rpt = sweeps.sweep_pairs(degree, SearchConfig(n=budget), orbits=orbits)
    return report.sweep_report_json("sweep pairs", rpt)


def sweep_moduli(sigma: str, budget: int) -> dict:
    # the strategy `poly sweep moduli` fixes
    cfg = SearchConfig(n=budget, strategy=Mixture(narrow_scale=0.05))
    return report.sweep_report_json("sweep moduli", sweeps.sweep_moduli(parse_pattern(sigma), cfg))


# id -> the report of that case's command in test_golden_reports.py, with the
# CLI's defaults spelled out where the command sets them
CASES = {
    "sweep-pairs": lambda: sweep_pairs(4, 20000),
    "sweep-pairs-orbits": lambda: sweep_pairs(4, 20000, orbits=True),
    "sweep-moduli": lambda: sweep_moduli("1,2,3,2", 500),
    "search-gaps": lambda: search_gaps(6, "L-R+", SearchConfig(n=100000, seed=3)),
    "search-moduli-mixture": lambda: search_moduli(
        "1,2,3,2", "[1,1,2,0]",
        SearchConfig(n=1000, seed=2024, strategy=Mixture(narrow_scale=0.05))),
    "search-pair-multiplicity": lambda: search_pair(
        "1,3,2", 0, 3, SearchConfig(n=20000, seed=42, strategy=MultiplicityBias())),
    "search-pair-exhausted": lambda: search_pair("+---+", 0, 2, SearchConfig(n=200)),
    "search-pair-mixture": lambda: search_pair(
        "++-++-", 3, 0, SearchConfig(n=1000, seed=3, strategy=Mixture())),
    "search-gaps-mixture": lambda: search_gaps(
        6, "L-R+", SearchConfig(n=1000, seed=1, strategy=Mixture())),
    "search-moduli-uniform": lambda: search_moduli(
        "3,4,1", "[0,0,5]", SearchConfig(n=1000, seed=5)),
    "sweep-pairs-degree5": lambda: sweep_pairs(5, 3000),
    "sweep-pairs-degree3": lambda: sweep_pairs(3, 500),
    "sweep-moduli-341": lambda: sweep_moduli("3,4,1", 2000),
    "search-gaps-degree8": lambda: search_gaps(8, "L+R-", SearchConfig(n=1000, seed=1)),
    "search-gaps-degree10": lambda: search_gaps(10, "L+R+", SearchConfig(n=1000, seed=1)),
    "search-gaps-degree12": lambda: search_gaps(12, "L-R-", SearchConfig(n=1000, seed=2)),
    "search-gaps-exhausted": lambda: search_gaps(5, "L-R+", SearchConfig(n=2000, seed=11)),
    "search-gaps-degree17": lambda: search_gaps(17, "L-R+", SearchConfig(n=1000, seed=1)),
    "search-gaps-degree20": lambda: search_gaps(20, "L-R-", SearchConfig(n=1000, seed=1)),
}


def digest(doc: dict) -> str:
    if "outcome" in doc:
        del doc["outcome"]["timing"]["seconds"]
    return hashlib.sha256(report.dump_json(doc).encode()).hexdigest()


def main() -> None:
    for case, build in CASES.items():
        print(case, digest(build()), flush=True)


if __name__ == "__main__":
    main()
