"""The three benchmark workloads: units built from a seed, and output checks.

A workload is a fixed list of *units*, each one library call (a search or a
sweep) followed by its JSON report.  The workload seed s sets the engine
seeds of the units (s, s+1, ...).  Every draw in the engine is a pure
function of (seed, attempt), so attempt counts and hit indices are exact and
can be pinned, and a repeated unit returns exactly what it did the first
time; wall times are not exact.

Each search call goes through ``Recorder``, which times it from call to
returned outcome.  Inside ``sweep_pairs`` / ``sweep_moduli`` the searches are
reached through the ``sampler`` module attribute, so the same wrapper times
them there as well.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from polyrealize import report, sampler, sweeps
from polyrealize.certifier import (
    Certificate,
    certify_couple,
    certify_gap_class,
    rationalize,
    rationalize_value,
)
from polyrealize.moduliorders import ModuliCouple, ModuliOrder
from polyrealize.sampler import Mixture, SearchConfig, SearchOutcome
from polyrealize.signpatterns import PairCouple, RootCountPair, from_runs
from polyrealize.sweeps import SweepReport

WORKLOADS = ("sweep", "gaps", "witness")

# The acceptance seeds: criteria 2 and 4 use 2024 and criterion 6 uses 11.
# The witness workload starts from seed 1.
DEFAULT_SEEDS = {"sweep": 2024, "gaps": 11, "witness": 1}

# Budgets.  The sweep budgets are lowered from the acceptance runs (10^5 for
# pairs, 10^6 for moduli).  At 500 attempts the six hard moduli orders
# exhaust under almost every seed, so a sweep's work and its slowest searches
# vary little with the seed; at 2000 they hit or miss by chance and the 90th
# percentile search time moved by half between seed sets.  Gap exhaustions
# are short so that a cycle holds over 100 searches (enough for a 90th
# percentile) and still repeats often in a run.  The pinned record follows
# these budgets.
SWEEP_SEEDS = 6
SWEEP_PAIR_N = 20_000
SWEEP_MODULI_N = 500
GAPS_EXHAUSTIONS = 100
GAPS_EXHAUST_N = 75
GAPS_HUNTS = 5
GAPS_HUNT_N = 10_000
# The attempts a witness search needs vary with its seed; over 10 seeds the
# total still moved by 10% between seed sets, so a cycle covers 30.
WITNESS_SEEDS = 30
WITNESS_N = 10_000

SIGMA_1232 = from_runs((1, 2, 3, 2))
MODULI_STRATEGY = Mixture(narrow_scale=0.05)

# Forcing-test verdicts for sigma = runs (1,2,3,2): the thirteen orders of
# the paper's equation (13) plus [1,1,1,1].  These do not depend on a seed.
FORCED_1232 = frozenset({
    (0, 0, 0, 4), (0, 0, 1, 3), (0, 0, 2, 2), (0, 0, 3, 1), (0, 1, 0, 3),
    (0, 1, 1, 2), (0, 1, 2, 1), (0, 2, 0, 2), (0, 2, 1, 1), (1, 0, 0, 3),
    (1, 0, 1, 2), (1, 0, 2, 1), (1, 1, 0, 2), (1, 1, 1, 1),
})

# The two degree-4 couples that are not realizable: no seed may realize them.
NEVER_REALIZED = frozenset({("+---+", (0, 2)), ("++-++", (2, 0))})

# Degree-4 couples left out of the witness workload: the two above, and the
# two that criterion 2 realizes only after 100 attempts (472 and 181 at 2024).
WITNESS_EXCLUDED = NEVER_REALIZED | {("+++-+", (0, 2)), ("+-+++", (2, 0))}

# The nine runs-(1,2,3,2) orders criterion 4 realizes within 8 attempts.
WITNESS_ORDERS = (
    (1, 1, 2, 0), (1, 2, 1, 0), (1, 3, 0, 0), (0, 3, 1, 0), (0, 4, 0, 0),
    (0, 3, 0, 1), (1, 2, 0, 1), (2, 1, 0, 1), (2, 1, 1, 0),
)
WITNESS_GAP_TARGETS = tuple((d, cls) for d in (6, 8, 10) for cls in ("L+R+", "L+R-"))


@dataclass
class Search:
    """One engine search call as the benchmark saw it."""

    kind: str  # "pair" | "moduli" | "gap"
    args: tuple  # (sigma, pair) | (sigma, order) | (degree, target)
    cfg: SearchConfig
    outcome: SearchOutcome
    seconds: float

    @property
    def label(self) -> str:
        a, b = self.args
        if self.kind == "pair":
            name = f"pair {a.word} ({b[0]},{b[1]})"
        elif self.kind == "moduli":
            name = f"moduli {a.word} {list(b.bracket)}"
        else:
            name = f"gap d{a} {b}"
        return f"{name} seed {self.cfg.seed}"

    @property
    def code(self) -> int:
        """The pinned record of a search: hit index if found, else -attempts."""
        out = self.outcome
        return out.attempt_index if out.found else -out.attempts


@dataclass
class Call:
    """One timed unit of a workload: a search or a sweep, then its JSON report."""

    seconds: float
    report_seconds: float  # the part of `seconds` spent on the report
    searches: list  # the search, or every search the sweep made
    report: str  # the serialized report
    build: Callable[[], dict]  # the report assembly, re-run by the traced replay
    sweep: Optional[SweepReport] = None

    @property
    def attempts(self) -> int:
        return sum(s.outcome.attempts for s in self.searches)

    @property
    def certified(self) -> int:
        return sum(1 for s in self.searches if isinstance(s.outcome.certificate, Certificate))

    @property
    def operations(self) -> int:
        """Searches, forcing tests (one per moduli-sweep row) and the report."""
        forcing = len(self.sweep.rows) if self.sweep and self.sweep.kind == "moduli" else 0
        return len(self.searches) + forcing + 1


class Recorder:
    """Times every engine search call made while it is installed."""

    _NAMES = {"search_pair": "pair", "search_moduli": "moduli", "search_gap_class": "gap"}

    def __init__(self):
        self.searches: list[Search] = []
        self._saved: dict[str, Callable] = {}

    def __enter__(self):
        for name, kind in self._NAMES.items():
            original = getattr(sampler, name)
            self._saved[name] = original
            setattr(sampler, name, self._wrap(original, kind))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(sampler, name, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, kind):
        searches = self.searches

        def timed(a, b, cfg):
            t0 = time.perf_counter()
            outcome = fn(a, b, cfg)
            searches.append(Search(kind, (a, b), cfg, outcome, time.perf_counter() - t0))
            return outcome

        return timed


class Workload:
    """A workload's units, built from its seed.

    A unit is one library call with fixed arguments: ("sweep", fn, query,
    cfg) or ("search", kind, a, b, cfg).  A run repeats the whole list.
    """

    def __init__(self, name: str, seed: Optional[int] = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = DEFAULT_SEEDS[name] if seed is None else seed
        self.pinned_seed = self.seed == DEFAULT_SEEDS[name]
        self.units = getattr(self, f"_{name}_units")(self.seed)

    @staticmethod
    def _sweep_units(seed: int) -> list:
        units = []
        for t in range(seed, seed + SWEEP_SEEDS):
            units.append(("sweep", sweeps.sweep_pairs, 4, SearchConfig(n=SWEEP_PAIR_N, seed=t)))
            units.append(("sweep", sweeps.sweep_moduli, SIGMA_1232,
                          SearchConfig(n=SWEEP_MODULI_N, seed=t, strategy=MODULI_STRATEGY)))
        return units

    @staticmethod
    def _gaps_units(seed: int) -> list:
        # one degree-6 L-R+ hunt after every 20 degree-5 exhaustions
        units = []
        every = GAPS_EXHAUSTIONS // GAPS_HUNTS
        for j in range(GAPS_EXHAUSTIONS):
            units.append(("search", "gap", 5, "L-R+", SearchConfig(n=GAPS_EXHAUST_N, seed=seed + j)))
            if (j + 1) % every == 0:
                hunt_seed = seed + GAPS_EXHAUSTIONS + j // every
                units.append(("search", "gap", 6, "L-R+", SearchConfig(n=GAPS_HUNT_N, seed=hunt_seed)))
        return units

    @staticmethod
    def _witness_units(seed: int) -> list:
        couples = [
            c for c in sweeps.enumerate_couples(4)
            if (c.pattern.word, tuple(c.pair)) not in WITNESS_EXCLUDED
        ]
        orders = [ModuliOrder.from_bracket(b) for b in WITNESS_ORDERS]
        units = []
        for t in range(seed, seed + WITNESS_SEEDS):
            cfg = SearchConfig(n=WITNESS_N, seed=t)
            mcfg = SearchConfig(n=WITNESS_N, seed=t, strategy=MODULI_STRATEGY)
            units.extend(("search", "pair", c.pattern, c.pair, cfg) for c in couples)
            units.extend(("search", "moduli", SIGMA_1232, o, mcfg) for o in orders)
            units.extend(("search", "gap", d, cls, cfg) for d, cls in WITNESS_GAP_TARGETS)
        return units

    def warm_up(self) -> None:
        """One small untimed call through the first unit's code path."""
        unit = self.units[0]
        cfg = SearchConfig(n=1, seed=unit[-1].seed, strategy=unit[-1].strategy)
        with Recorder() as rec:
            self._call(unit[:-1] + (cfg,), rec)

    def run_unit(self, u: int, recorder: Recorder) -> Call:
        """Unit u, timed from call to serialized report; the recorder must be installed."""
        return self._call(self.units[u], recorder)

    @staticmethod
    def _call(unit: tuple, recorder: Recorder) -> Call:
        recorder.searches.clear()
        if unit[0] == "sweep":
            _, fn, query, cfg = unit
            t0 = time.perf_counter()
            rpt = fn(query, cfg)
            t1 = time.perf_counter()
            build = lambda: report.sweep_report_json(f"sweep {rpt.kind}", rpt)  # noqa: E731
            text = json.dumps(build())
            t2 = time.perf_counter()
            return Call(t2 - t0, t2 - t1, list(recorder.searches), text, build, rpt)
        _, kind, a, b, cfg = unit
        fn = {"pair": sampler.search_pair, "moduli": sampler.search_moduli,
              "gap": sampler.search_gap_class}[kind]
        if kind == "pair":
            query = {"sigma": a.word, "pos": b[0], "neg": b[1]}
        elif kind == "moduli":
            query = {"sigma": a.word, "order": b.word}
        else:
            query = {"degree": a, "class": b}
        t0 = time.perf_counter()
        outcome = fn(a, b, cfg)
        t1 = time.perf_counter()
        build = lambda: report.search_report(f"search {kind}", cfg, query, outcome)  # noqa: E731
        text = json.dumps(build())
        t2 = time.perf_counter()
        return Call(t2 - t0, t2 - t1, list(recorder.searches), text, build)


# --- output checks ------------------------------------------------------------

def claim_of(search: Search):
    """The couple or class a found search must certify."""
    a, b = search.args
    if search.kind == "pair":
        return PairCouple(a, RootCountPair(*b))
    if search.kind == "moduli":
        return ModuliCouple(a, b)
    return b


def recertify(search: Search) -> Optional[str]:
    """Re-run the exact certificate on the reported spec; None when it holds."""
    out = search.outcome
    digits = search.cfg.digits
    if search.kind == "gap":
        cert = certify_gap_class([rationalize_value(x, digits) for x in out.spec.real_roots])
        if not isinstance(cert, Certificate) or cert.claim != search.args[1]:
            return f"re-certification gave {cert!r}"
    else:
        cert = certify_couple(rationalize(out.spec, digits), claim_of(search))
        if not isinstance(cert, Certificate):
            return f"re-certification failed: {cert}"
    if cert.coeffs != out.certificate.coeffs:
        return "re-certified coefficients differ from the returned certificate"
    return None


def check_search(search: Search) -> Optional[str]:
    """Seed-independent checks of one search outcome."""
    out = search.outcome
    if out.found:
        if out.certificate is None:
            return "found without a certificate"
        if not 1 <= out.attempt_index <= search.cfg.n or out.attempts != out.attempt_index:
            return f"hit index {out.attempt_index} / attempts {out.attempts} out of range"
        if search.kind == "pair" and (search.args[0].word, tuple(search.args[1])) in NEVER_REALIZED:
            return "a non-realizable degree-4 couple was reported realized"
        return recertify(search)
    if out.status != "exhausted" or out.attempts != search.cfg.n:
        return f"status {out.status} after {out.attempts} of {search.cfg.n} attempts"
    return None


def check_call(call: Call) -> list[str]:
    """Seed-independent checks of one call; each message names the operation."""
    failures = []
    for s in call.searches:
        msg = check_search(s)
        if msg:
            failures.append(f"{s.label}: {msg}")
    doc = json.loads(call.report)
    rpt = call.sweep
    if rpt is None:
        out = call.searches[0].outcome
        got = doc["outcome"]
        if got["status"] != out.status or got.get("attempt_index") != out.attempt_index:
            failures.append(f"report of {call.searches[0].label}: disagrees with the outcome")
        return failures
    where = f"sweep {rpt.kind} seed {rpt.config.seed}"
    statuses = [r["status"] for r in doc["rows"]]
    if len(statuses) != len(rpt.rows) or doc["totals"] != {k: statuses.count(k) for k in doc["totals"]}:
        failures.append(f"{where} report: rows or totals disagree with the sweep")
    if rpt.kind == "pairs" and len(rpt.rows) != 46:
        failures.append(f"{where}: {len(rpt.rows)} rows, want 46")
    if rpt.kind == "moduli":
        if len(rpt.rows) != 35:
            failures.append(f"{where}: {len(rpt.rows)} rows, want 35")
        for row in rpt.rows:
            forced = row.status == sweeps.FORCED
            if forced != (row.couple.order.bracket in FORCED_1232):
                failures.append(f"{where} forcing test {list(row.couple.order.bracket)}: "
                                f"forced={forced}")
    return failures


def compare_calls(first: Call, again: Call) -> list[str]:
    """A repeat of a call must return exactly what the first one did."""
    failures = []
    if len(first.searches) != len(again.searches):
        return [f"repeat of {first.searches[0].label}: different searches"]
    for a, b in zip(first.searches, again.searches):
        ca, cb = a.outcome.certificate, b.outcome.certificate
        if a.code != b.code or (ca and cb and ca.coeffs != cb.coeffs) or (ca is None) != (cb is None):
            failures.append(f"repeat of {a.label}: got {describe(b.code)}, first {describe(a.code)}")
    if first.sweep is not None and first.report != again.report:
        failures.append(f"repeat of sweep {first.sweep.kind} seed {first.sweep.config.seed}: "
                        "report differs")
    return failures


def pin_record(calls: list[Call]) -> dict:
    """What --record-pins stores for one cycle of a workload's units."""
    searches = [s for c in calls for s in c.searches]
    return {
        "labels": [s.label for s in searches],
        "codes": [s.code for s in searches],
        "sweep_totals": [c.sweep.totals for c in calls if c.sweep is not None],
    }


def check_pins(calls: list[Call], pins: dict) -> list[str]:
    """Deviations from the record taken at the default seed."""
    got = pin_record(calls)
    if got["labels"] != pins["labels"]:
        return ["the searches differ from the pinned list"]
    failures = [
        f"{label}: got {describe(code)}, pinned {describe(want)}"
        for label, code, want in zip(got["labels"], got["codes"], pins["codes"])
        if code != want
    ]
    for c in calls:
        rpt = c.sweep
        if rpt is not None and rpt.kind == "pairs":
            unresolved = {(r.couple.pattern.word, tuple(r.couple.pair))
                          for r in rpt.rows if r.status == sweeps.UNRESOLVED}
            if rpt.totals[sweeps.REALIZED] != 44 or unresolved != NEVER_REALIZED:
                failures.append(f"sweep pairs seed {rpt.config.seed}: totals {rpt.totals}")
    if got["sweep_totals"] != pins["sweep_totals"]:
        failures.append(f"sweep totals {got['sweep_totals']}, pinned {pins['sweep_totals']}")
    return failures


def describe(code: int) -> str:
    return f"hit at attempt {code}" if code > 0 else f"exhausted after {-code} attempts"


def budgets() -> dict:
    """The budgets a pinned record is valid for."""
    return {
        "sweep": [SWEEP_SEEDS, SWEEP_PAIR_N, SWEEP_MODULI_N],
        "gaps": [GAPS_EXHAUSTIONS, GAPS_EXHAUST_N, GAPS_HUNTS, GAPS_HUNT_N],
        "witness": [WITNESS_SEEDS, WITNESS_N],
    }
