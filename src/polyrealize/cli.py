"""Command-line interface.

Exit codes: 0 found/verified, 1 exhausted or mismatch, 2 invalid input,
3 internal error, 141 output pipe closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import click

from . import certifier, report, sampler, sweeps
from .catalog import UnknownIdError, catalog_ids, catalog_lookup
from .certifier import Mismatch, fraction_str
from .concatenation import ConcatResult, Realizer, concat_pairs
from .criticalgaps import GAP_CLASSES, DegenerateMarginError, gap_report
from .moduliorders import ModuliCouple, parse_order
from .polycore import RootSpec
from .sampler import Mixture, SearchConfig, Uniform
from .signpatterns import PairCouple, RootCountPair, parse_pattern

EXIT_FOUND = 0
EXIT_EXHAUSTED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


def _exit_codes(command):
    """Exit with the command's return code; bad input exits 2, a crash 3.

    A reader that closes the output pipe early (`poly ... | head -1`) is not
    bad input: the command exits 141 without a usage message.
    """

    @functools.wraps(command)
    def run(*args, **kwargs) -> None:
        try:
            code = command(*args, **kwargs)
        except click.ClickException:
            raise
        except BrokenPipeError:
            # Python flushes stdout at exit, which would fail on the closed pipe
            # again; send what is left to devnull, as the `signal` docs advise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(EXIT_BROKEN_PIPE)
        except (ValueError, KeyError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc
        except Exception as exc:  # pragma: no cover - defensive
            click.echo(f"internal error: {exc!r}", err=True)
            sys.exit(EXIT_INTERNAL)
        sys.exit(code)

    return run


def _read_roots(path: str) -> tuple[list[float], list[tuple[float, float]]]:
    """One decimal per line for real roots; complex pairs as 'c:re,im' lines."""
    reals: list[float] = []
    pairs: list[tuple[float, float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("c:"):
                re_s, im_s = line[2:].split(",")
                values = (float(re_s), float(im_s))
            else:
                values = (float(line),)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse root line {line!r}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}:{lineno}: root is not finite")
        if len(values) == 2 and not values[1] > 0:
            raise ValueError(f"{path}:{lineno}: complex pair needs im > 0, got im={values[1]!r}")
        if len(values) == 2:
            pairs.append(values)
        else:
            reals.append(values[0])
    if not reals and not pairs:
        raise ValueError(f"{path}: no roots found")
    return reals, pairs


def parse_roots_file(path: str) -> RootSpec:
    """The RootSpec of a roots file (see _read_roots); a zero real root is rejected."""
    reals, pairs = _read_roots(path)
    return RootSpec(real_roots=tuple(reals), complex_pairs=tuple(pairs))


def _search_options(fn):
    opts = [
        click.option("--n", type=int, default=10**6, show_default=True,
                     help="Max attempts."),
        click.option("--ell", type=float, default=1.0, show_default=True,
                     help="Sampling half-width."),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--strategy", type=click.Choice(list(sampler.STRATEGIES)),
                     default=Uniform.kind, show_default=True),
        click.option("--narrow-scale", type=float, default=None,
                     help="Mixture narrow interval width (default ell/100)."),
        click.option("--narrow-fraction", type=float, default=0.5, show_default=True),
        click.option("--dup-prob", "dup_probability", type=float, default=0.5, show_default=True),
        click.option("--digits", type=int, default=certifier.DEFAULT_DIGITS,
                     show_default=True,
                     help="Significant digits kept by the exact certifier."),
        click.option("--json", "json_path", type=click.Path(), default=None),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _config(n, ell, seed, strategy, digits, **params) -> SearchConfig:
    """The config of a search command; the strategy takes the flags its fields name."""
    cls = sampler.STRATEGIES[strategy]
    return SearchConfig(n=n, ell=ell, seed=seed, digits=digits,
                        strategy=cls(**{f.name: params[f.name] for f in fields(cls)}))


def _emit_search(command: str, cfg: SearchConfig, query: dict, outcome,
                 json_path) -> int:
    if json_path:
        report.write_json(json_path, report.search_report(command, cfg, query, outcome))
    if outcome.found:
        click.echo(f"found at attempt {outcome.attempt_index} ({outcome.seconds:.2f} s)")
        click.echo("coefficients: " + ", ".join(repr(c) for c in outcome.poly.coeffs))
        click.echo(f"roots: real={list(outcome.spec.real_roots)} "
                   f"complex={list(outcome.spec.complex_pairs)}")
        click.echo("certified: " + "; ".join(n for n, _ in outcome.certificate.checks))
        if outcome.gap is not None:
            click.echo(f"gap class {outcome.gap.gap_class}, margins {outcome.gap.margins}")
        return EXIT_FOUND
    click.echo(f"exhausted {outcome.attempts} attempts ({outcome.seconds:.2f} s); "
               "no witness found (this proves nothing)")
    return EXIT_EXHAUSTED


@click.group()
def main():
    """Search for and certify polynomials realizing prescribed sign conditions."""


@main.group()
def search():
    """Randomized witness searches."""


@search.command("pair")
@click.option("--sigma", required=True, help="Sign pattern: word '+--++' or runs '1,3,2'.")
@click.option("--pos", type=int, required=True)
@click.option("--neg", type=int, required=True)
@_search_options
@_exit_codes
def search_pair_cmd(sigma, pos, neg, json_path, **opts):
    """Hunt a polynomial with sign pattern SIGMA and the given root counts."""
    pattern = parse_pattern(sigma)
    cfg = _config(**opts)
    outcome = sampler.search_pair(pattern, RootCountPair(pos, neg), cfg)
    query = {"sigma": pattern.word, "pos": pos, "neg": neg}
    return _emit_search("search pair", cfg, query, outcome, json_path)


@search.command("moduli")
@click.option("--sigma", required=True)
@click.option("--order", "order_text", required=True,
              help="Order of moduli: word 'PNPNNPN' or bracket '[0,1,2,1]'.")
@_search_options
@_exit_codes
def search_moduli_cmd(sigma, order_text, json_path, **opts):
    """Hunt a hyperbolic polynomial with sign pattern SIGMA and modulus order ORDER."""
    pattern = parse_pattern(sigma)
    order = parse_order(order_text)
    cfg = _config(**opts)
    outcome = sampler.search_moduli(pattern, order, cfg)
    query = {"sigma": pattern.word, "order": order.word}
    return _emit_search("search moduli", cfg, query, outcome, json_path)


@search.command("gaps")
@click.option("--degree", type=int, required=True)
@click.option("--class", "target", type=click.Choice(GAP_CLASSES), required=True)
@_search_options
@_exit_codes
def search_gaps_cmd(degree, target, json_path, **opts):
    """Hunt a root configuration realizing the given critical-gap class."""
    cfg = _config(**opts)
    outcome = sampler.search_gap_class(degree, target, cfg)
    query = {"degree": degree, "class": target}
    return _emit_search("search gaps", cfg, query, outcome, json_path)


@main.group()
def sweep():
    """Exhaustive sweeps over couples."""


def _emit_sweep(command: str, rpt, json_path) -> int:
    if json_path:
        report.write_json(json_path, report.sweep_report_json(command, rpt))
    totals = rpt.totals
    click.echo(f"{len(rpt.rows)} couples: {totals['realized']} realized, "
               f"{totals['forced']} forced non-realizable, "
               f"{totals['unresolved']} unresolved")
    for row in rpt.rows:
        if row.status != sweeps.REALIZED:
            click.echo(f"  {row.status}: {row.couple}")
    return EXIT_FOUND if totals["unresolved"] == 0 else EXIT_EXHAUSTED


@sweep.command("pairs")
@click.option("--degree", type=int, required=True)
@click.option("--budget", type=int, required=True, help="Attempts per couple.")
@click.option("--orbits", is_flag=True, default=False,
              help="Search one representative per orbit and map witnesses.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
@_exit_codes
def sweep_pairs_cmd(degree, budget, orbits, seed, json_path):
    """Search every (pattern, root counts) couple of DEGREE."""
    cfg = SearchConfig(n=budget, seed=seed)
    rpt = sweeps.sweep_pairs(degree, cfg, orbits=orbits)
    return _emit_sweep("sweep pairs", rpt, json_path)


@sweep.command("moduli")
@click.option("--sigma", required=True)
@click.option("--budget", type=int, required=True, help="Attempts per order.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
@_exit_codes
def sweep_moduli_cmd(sigma, budget, seed, json_path):
    """Forcing test then search for every order compatible with SIGMA."""
    pattern = parse_pattern(sigma)
    # wide/narrow mixture: plain uniform cannot reach the orders that
    # need one root to dominate the rest
    cfg = SearchConfig(n=budget, seed=seed, strategy=Mixture(narrow_scale=0.05))
    rpt = sweeps.sweep_moduli(pattern, cfg)
    return _emit_sweep("sweep moduli", rpt, json_path)


def _load_realizer(ref: str) -> Realizer:
    """Fixture id or roots file; the couple is adjudicated from the exact expansion."""
    if Path(ref).exists():
        spec = certifier.rationalize(parse_roots_file(ref))
    else:
        try:
            entry = catalog_lookup(ref)
        except UnknownIdError:
            raise ValueError(f"{ref!r} is neither a file nor a catalog id")
        if entry.kind != "Fixture" or "spec" not in entry.payload:
            raise ValueError(f"catalog entry {ref!r} carries no root spec")
        spec = certifier.rationalize(entry.payload["spec"])
    pattern = certifier.exact_sign_pattern(certifier.exact_expand(spec))
    couple = PairCouple(pattern, RootCountPair(spec.pos_count, spec.neg_count))
    return Realizer(spec, couple)


@main.command("concat")
@click.option("--left", required=True, help="Fixture id or roots file.")
@click.option("--right", required=True, help="Fixture id or roots file.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@_exit_codes
def concat_cmd(left, right, json_path):
    """Merge two realizers into a higher-degree one (small-root scaling)."""
    result: ConcatResult = concat_pairs(_load_realizer(left), _load_realizer(right))
    click.echo(f"realized {result.couple} with scale {fraction_str(result.scale)} "
               f"({result.steps} halvings)")
    click.echo("coefficients: " + ", ".join(repr(c) for c in result.poly.coeffs))
    if json_path:
        report.write_json(json_path, report.concat_report(left, right, result))
    return EXIT_FOUND


@main.command("verify")
@click.option("--roots", "roots_path", required=True, type=click.Path(exists=True))
@click.option("--sigma", required=True)
@click.option("--pos", type=int, default=None)
@click.option("--neg", type=int, default=None)
@click.option("--order", "order_text", default=None)
@_exit_codes
def verify_cmd(roots_path, sigma, pos, neg, order_text):
    """Exactly certify that a root file realizes a claimed couple."""
    pattern = parse_pattern(sigma)
    pair_given = pos is not None or neg is not None
    if pair_given == (order_text is not None):
        raise ValueError("give either --pos/--neg or --order, not both")
    if pair_given and (pos is None or neg is None):
        raise ValueError("--pos and --neg go together")
    spec = certifier.rationalize(parse_roots_file(roots_path))
    if pair_given:
        claim = PairCouple(pattern, RootCountPair(pos, neg))
    else:
        claim = ModuliCouple(pattern, parse_order(order_text))
    got = certifier.certify_couple(spec, claim)
    if isinstance(got, Mismatch):
        click.echo(f"mismatch at {got.failed_check}: {got.detail}")
        return EXIT_EXHAUSTED
    click.echo(f"verified {claim}")
    for name, detail in got.checks:
        click.echo(f"  {name}: {detail}")
    return EXIT_FOUND


@main.command("gaps")
@click.option("--roots", "roots_path", required=True, type=click.Path(exists=True))
@click.option("--certify", "do_certify", is_flag=True, default=False)
@_exit_codes
def gaps_cmd(roots_path, do_certify):
    """Gap statistics and class of a root file (real roots only)."""
    reals, pairs = _read_roots(roots_path)
    if pairs:
        raise ValueError("gap analysis takes real roots only")
    xs = sorted(reals)
    try:
        rpt = gap_report(xs)
    except DegenerateMarginError as exc:
        click.echo(f"float classification is degenerate: {exc}")
        if not do_certify:
            return EXIT_EXHAUSTED
        rpt = None
    if rpt is not None:
        click.echo(f"x  = {list(rpt.x)}")
        click.echo(f"z  = {list(rpt.z)}")
        click.echo(f"xi = {list(rpt.xi)}")
        click.echo(f"m(P)={rpt.m_p}  M(P)={rpt.M_p}")
        click.echo(f"m(mid)={rpt.m_tilde}  M(mid)={rpt.M_tilde}")
        click.echo(f"m(crit)={rpt.m_prime}  M(crit)={rpt.M_prime}")
        click.echo(f"class {rpt.gap_class}  margins {rpt.margins}")
    if do_certify:
        exact = [certifier.rationalize_value(x) for x in xs]
        got = certifier.certify_gap_class(exact)
        if isinstance(got, Mismatch):
            click.echo(f"exact certification: mismatch at {got.failed_check}: {got.detail}")
            return EXIT_EXHAUSTED
        click.echo(f"exact certification: {got.claim}")
    return EXIT_FOUND


@main.group()
def catalog():
    """Stored witnesses and known classification facts."""


@catalog.command("list")
@_exit_codes
def catalog_list_cmd():
    for entry_id in catalog_ids():
        entry = catalog_lookup(entry_id)
        click.echo(f"{entry_id:20s} {entry.kind:26s} {entry.title}")
    return EXIT_FOUND


@catalog.command("show")
@click.argument("entry_id")
@_exit_codes
def catalog_show_cmd(entry_id):
    try:
        entry = catalog_lookup(entry_id)
    except UnknownIdError:
        raise ValueError(f"unknown catalog id {entry_id!r}")
    click.echo(f"id:     {entry.id}")
    click.echo(f"kind:   {entry.kind}")
    click.echo(f"title:  {entry.title}")
    click.echo(f"source: {entry.source}")
    for key, value in entry.payload.items():
        if isinstance(value, RootSpec):
            click.echo(f"{key}: real={list(value.real_roots)} "
                       f"complex={list(value.complex_pairs)}")
        elif isinstance(value, (tuple, list)) and value and hasattr(value[0], "pattern"):
            click.echo(f"{key}: " + "; ".join(str(v) for v in value))
        else:
            click.echo(f"{key}: {value}")
    for note in entry.notes:
        click.echo(f"note: {note}")
    return EXIT_FOUND
