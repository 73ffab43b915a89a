"""Traced replay: the workload's attempts, re-run through each layer's public API.

The engine's scan loop is private, so the traced run does not instrument it.
Instead it replays every attempt of every search through the public
functions of the layers and records a span around each call: name, start,
end, parent span and search id.  Pair draws come from ``draw_rootspec_pair``;
moduli and gap draws apply the transform that ``sampler._draw_moduli`` and
``sampler._draw_gap_points`` document to ``attempt_unit_draws``.  A replay
must reach the engine's first hit at the same attempt index with the same
claim, or the trace is rejected.

Spans are stored in flat arrays while the run goes and written once at the
end.  Span times are ``perf_counter_ns`` offsets from the tracer's start.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from polyrealize import sweeps
from polyrealize.certifier import (
    Certificate,
    ZeroCoefficientError,
    certify_couple,
    certify_gap_class,
    rationalize,
    rationalize_value,
)
from polyrealize.criticalgaps import DegenerateMarginError, NoSignChangeError, gap_report
from polyrealize.moduliorders import enumerate_orders, forcing_test
from polyrealize.polycore import RootSpec, expand_from_roots, expand_real, sign_tuple
from polyrealize.sampler import Mixture, Uniform, attempt_unit_draws, draw_rootspec_pair
from polyrealize.signpatterns import descartes_pair

from workloads import Search, claim_of

DRAW = "sampler.draw"
EXPAND = "polycore.expand_sign"
GAP = "criticalgaps.gap_report"
RATIONALIZE = "certifier.rationalize"
CERTIFY_COUPLE = "certifier.certify_couple"
CERTIFY_GAP = "certifier.certify_gap"
FORCING = "moduliorders.forcing"
ENUMERATE = "signpatterns.enumerate"
REPORT = "report.json"
SEARCH = "replay.search"
CALL = "replay.call"
SPAN_NAMES = (CALL, SEARCH, DRAW, EXPAND, GAP, RATIONALIZE, CERTIFY_COUPLE, CERTIFY_GAP,
              FORCING, ENUMERATE, REPORT)
# spans whose time is work a layer does for one attempt or one hit
ATTEMPT_LAYERS = (DRAW, EXPAND, GAP, RATIONALIZE, CERTIFY_COUPLE, CERTIFY_GAP)

_now = time.perf_counter_ns


class Tracer:
    """Spans in memory, plus exact counts taken at the same boundaries."""

    def __init__(self):
        self.t0 = _now()
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.search = array("i")
        self.counts: Counter = Counter()

    def add(self, name: int, t0: int, t1: int, parent: int, search: int) -> int:
        self.name.append(name)
        self.start.append(t0 - self.t0)
        self.end.append(t1 - self.t0)
        self.parent.append(parent)
        self.search.append(search)
        return len(self.name) - 1

    def open(self, name: int, parent: int, search: int) -> int:
        """A span whose end is set later by close()."""
        t = _now()
        return self.add(name, t, t, parent, search)

    def close(self, span: int) -> None:
        self.end[span] = _now() - self.t0

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total seconds)."""
        calls = [0] * len(SPAN_NAMES)
        total = [0] * len(SPAN_NAMES)
        for n, a, b in zip(self.name, self.start, self.end):
            calls[n] += 1
            total[n] += b - a
        return {SPAN_NAMES[i]: (calls[i], total[i] * 1e-9) for i in range(len(SPAN_NAMES))}

    def write(self, path: Path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "span_names": list(SPAN_NAMES),
            "columns": ["name", "start_ns", "end_ns", "parent", "search"],
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "search": self.search.tolist(),
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_DRAW, _EXPAND, _GAP = _ID[DRAW], _ID[EXPAND], _ID[GAP]
_RAT, _CC, _CG = _ID[RATIONALIZE], _ID[CERTIFY_COUPLE], _ID[CERTIFY_GAP]


def _unit_to_values(u, d: int, cfg, centered: bool) -> list[float]:
    """The documented per-attempt transform of unit draws into d values.

    Moduli lie in (0, ell], gap points (centered) in [-ell, ell).  A Mixture
    spends two draws per value: a narrow/wide choice, then the position.
    """
    strategy = cfg.strategy
    if isinstance(strategy, Mixture):
        ns, frac = cfg.narrow_scale, strategy.narrow_fraction
        picks = [(ns if u[2 * j] < frac else cfg.ell, u[2 * j + 1]) for j in range(d)]
    elif isinstance(strategy, Uniform):
        picks = [(cfg.ell, x) for x in u]
    else:
        raise ValueError(f"no replay for strategy {strategy!r}")
    if centered:
        return [scale * (2.0 * x - 1.0) for scale, x in picks]
    return [scale * (1.0 - x) for scale, x in picks]


class Replayer:
    """Replays the calls of a traced run into a Tracer."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.search_ids = 0
        self.mismatches: list[str] = []

    def search(self, s: Search, parent: int) -> None:
        """Replay one search and compare its first hit with the engine's."""
        tr = self.tr
        sid = self.search_ids
        self.search_ids += 1
        span = tr.open(_ID[SEARCH], parent, sid)
        hit = {"pair": self._pair, "moduli": self._moduli, "gap": self._gap}[s.kind](s, span, sid)
        tr.close(span)
        out = s.outcome
        want = (out.attempt_index, out.certificate.claim if out.found else None)
        got = hit if hit is not None else (None, None)
        if got != want:
            self.mismatches.append(f"{s.label}: replay {got}, engine {want}")

    def _certify_couple(self, spec: RootSpec, claim, cfg, span: int, sid: int):
        tr = self.tr
        t0 = _now()
        q = rationalize(spec, cfg.digits)
        t1 = _now()
        try:
            cert = certify_couple(q, claim)
        except ZeroCoefficientError:
            cert = None
        t2 = _now()
        tr.add(_RAT, t0, t1, span, sid)
        tr.add(_CC, t1, t2, span, sid)
        return cert

    def _pair(self, s: Search, span: int, sid: int):
        tr, counts = self.tr, self.tr.counts
        sigma, pair = s.args
        cfg = s.cfg
        d, target, claim = sigma.degree, sigma.signs, claim_of(s)
        for i in range(1, cfg.n + 1):
            t0 = _now()
            spec = draw_rootspec_pair(d, pair, cfg, i)
            t1 = _now()
            signs = sign_tuple(expand_from_roots(spec).coeffs, cfg.tau)
            t2 = _now()
            tr.add(_DRAW, t0, t1, span, sid)
            tr.add(_EXPAND, t1, t2, span, sid)
            counts["attempts"] += 1
            counts["sign_tests"] += 1
            if signs is None:
                counts["ambiguous"] += 1
                continue
            if signs != target:
                continue
            counts["float_hits"] += 1
            if isinstance(self._certify_couple(spec, claim, cfg, span, sid), Certificate):
                return i, claim
            counts["rejects"] += 1
        return None

    def _moduli(self, s: Search, span: int, sid: int):
        tr, counts = self.tr, self.tr.counts
        sigma, order = s.args
        cfg = s.cfg
        d, target, letters, claim = order.degree, sigma.signs, order.word, claim_of(s)
        count = 2 * d if isinstance(cfg.strategy, Mixture) else d
        for i in range(1, cfg.n + 1):
            t0 = _now()
            mods = _unit_to_values(attempt_unit_draws(cfg.seed, i, count), d, cfg, False)
            t1 = _now()
            tr.add(_DRAW, t0, t1, span, sid)
            counts["attempts"] += 1
            mods.sort()
            if any(mods[j] == mods[j + 1] for j in range(d - 1)):
                counts["tied"] += 1
                continue
            roots = [m if letters[j] == "P" else -m for j, m in enumerate(mods)]
            t0 = _now()
            signs = sign_tuple(expand_real(roots), cfg.tau)
            t1 = _now()
            tr.add(_EXPAND, t0, t1, span, sid)
            counts["sign_tests"] += 1
            if signs is None:
                counts["ambiguous"] += 1
                continue
            if signs != target:
                continue
            counts["float_hits"] += 1
            spec = RootSpec(real_roots=tuple(roots))
            if isinstance(self._certify_couple(spec, claim, cfg, span, sid), Certificate):
                return i, claim
            counts["rejects"] += 1
        return None

    def _gap(self, s: Search, span: int, sid: int):
        tr, counts = self.tr, self.tr.counts
        d, target = s.args
        cfg = s.cfg
        count = 2 * d if isinstance(cfg.strategy, Mixture) else d
        for i in range(1, cfg.n + 1):
            t0 = _now()
            xs = _unit_to_values(attempt_unit_draws(cfg.seed, i, count), d, cfg, True)
            t1 = _now()
            tr.add(_DRAW, t0, t1, span, sid)
            counts["attempts"] += 1
            xs.sort()
            if any(x == 0.0 for x in xs) or any(xs[j] == xs[j + 1] for j in range(d - 1)):
                counts["tied"] += 1
                continue
            t0 = _now()
            try:
                cls = gap_report(xs).gap_class
            except (DegenerateMarginError, NoSignChangeError):
                cls = None
            t1 = _now()
            tr.add(_GAP, t0, t1, span, sid)
            counts["gap_reports"] += 1
            if cls is None:
                counts["degenerate"] += 1
                continue
            if cls != target:
                continue
            counts["float_hits"] += 1
            t0 = _now()
            exact = [rationalize_value(x, cfg.digits) for x in xs]
            t1 = _now()
            cert = certify_gap_class(exact)
            t2 = _now()
            tr.add(_RAT, t0, t1, span, sid)
            tr.add(_CG, t1, t2, span, sid)
            if isinstance(cert, Certificate) and cert.claim == target:
                return i, target
            counts["rejects"] += 1
        return None

    def replay_call(self, call) -> None:
        """Replay one engine call in the order the engine made it."""
        span = self.tr.open(_ID[CALL], -1, -1)
        rpt = call.sweep
        if rpt is not None and rpt.kind == "pairs":
            self.enumerate_couples(span)
        elif rpt is not None:
            self.forcing(rpt.rows[0].couple.pattern, span)
        for s in call.searches:
            self.search(s, span)
        self.report(call, span)
        self.tr.close(span)

    # --- sweeps and reports -------------------------------------------------

    def enumerate_couples(self, parent: int):
        """The couple list sweep_pairs (and the witness set-up) starts from."""
        t0 = _now()
        couples = sweeps.enumerate_couples(4)
        self.tr.add(_ID[ENUMERATE], t0, _now(), parent, -1)
        return couples

    def forcing(self, sigma, parent: int) -> None:
        """The forcing test sweep_moduli runs on every order of sigma."""
        for order in enumerate_orders(*descartes_pair(sigma)):
            t0 = _now()
            forcing_test(sigma, order)
            self.tr.add(_ID[FORCING], t0, _now(), parent, -1)

    def report(self, call, parent: int) -> None:
        """Rebuild the call's report, recording its time and size."""
        t0 = _now()
        text = json.dumps(call.build())
        self.tr.add(_ID[REPORT], t0, _now(), parent, -1)
        self.tr.counts["report_bytes"] += len(text)
