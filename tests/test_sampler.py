import hashlib
import json
import os
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from polyrealize import certifier, polycore, sampler, sweeps
from polyrealize.certifier import (
    Certificate,
    certify_couple,
    certify_gap_class,
    rationalize,
    rationalize_value,
)
from polyrealize.criticalgaps import gap_report, match
from polyrealize.moduliorders import (
    ModuliCouple,
    ModuliOrder,
    enumerate_orders,
    order_from_roots,
    parse_order,
)
from polyrealize.polycore import RootSpec, expand_from_roots, has_sign_word, sign_tuple
from polyrealize.report import config_json
from polyrealize.sampler import (
    Mixture,
    MultiplicityBias,
    ParityMismatchError,
    SearchConfig,
    Uniform,
    _distinct_draws,
    _moduli_front,
    _pair_columns,
    _pair_draw_count,
    _pair_roots,
    _scan,
    _sorted_values,
    _unit_block,
    attempt_unit_draws,
    draw_rootspec_pair,
    search_gap_class,
    search_moduli,
    search_pair,
)
from polyrealize.signpatterns import (
    IncompatibleCoupleError,
    PairCouple,
    RootCountPair,
    SignPattern,
    from_runs,
    parse_pattern,
)


class TestCounterRng:
    def test_pure_function_of_seed_and_attempt(self):
        a = attempt_unit_draws(123, 45, 8)
        b = attempt_unit_draws(123, 45, 8)
        assert a == b
        assert attempt_unit_draws(123, 46, 8) != a
        assert attempt_unit_draws(124, 45, 8) != a

    def test_prefix_stability(self):
        # asking for fewer draws yields a prefix of the longer sequence
        assert attempt_unit_draws(9, 7, 3) == attempt_unit_draws(9, 7, 10)[:3]

    def test_range(self):
        for v in attempt_unit_draws(5, 1, 1000):
            assert 0.0 <= v < 1.0


class TestDrawRootspecPair:
    def test_shape_for_mixed_pair(self):
        cfg = SearchConfig(n=1, seed=3)
        spec = draw_rootspec_pair(5, RootCountPair(0, 3), cfg, 1)
        assert len(spec.real_roots) == 3
        assert len(spec.complex_pairs) == 1
        assert all(r < 0 for r in spec.real_roots)

    def test_all_positive(self):
        cfg = SearchConfig(n=1, seed=3)
        spec = draw_rootspec_pair(2, RootCountPair(2, 0), cfg, 1)
        assert len(spec.real_roots) == 2 and not spec.complex_pairs
        assert all(0 < r <= cfg.ell for r in spec.real_roots)

    def test_bit_for_bit_determinism(self):
        cfg = SearchConfig(n=1, seed=99)
        a = draw_rootspec_pair(7, RootCountPair(2, 1), cfg, 42)
        b = draw_rootspec_pair(7, RootCountPair(2, 1), cfg, 42)
        assert a == b

    def test_counts_exceed_degree(self):
        with pytest.raises(ValueError, match="exceeds degree 3"):
            draw_rootspec_pair(3, RootCountPair(2, 2), SearchConfig(n=1), 1)

    def test_parity_mismatch(self):
        cfg = SearchConfig(n=1)
        with pytest.raises(ParityMismatchError):
            draw_rootspec_pair(4, RootCountPair(1, 2), cfg, 1)

    @pytest.mark.parametrize("d, pair", [(4, (-2, 2)), (4, (5, -1)), (3, (-1, 0))])
    def test_negative_counts_rejected(self, d, pair):
        with pytest.raises(ValueError, match="root counts must be >= 0"):
            draw_rootspec_pair(d, RootCountPair(*pair), SearchConfig(n=1), 1)

    def test_draws_pinned(self):
        # one digest over 30 000 specs: strategies x ell x attempts cycling through shapes
        strategies = (Uniform(), Mixture(), Mixture(narrow_fraction=0.2), MultiplicityBias(),
                      MultiplicityBias(dup_probability=0.9))
        shapes = ((1, (1, 0)), (1, (0, 1)), (2, (0, 0)), (3, (2, 1)), (4, (2, 2)),
                  (4, (0, 2)), (5, (1, 2)), (6, (3, 1)), (6, (0, 0)), (7, (4, 3)))
        h = hashlib.sha256()
        for strategy in strategies:
            for ell in (2.0**-30, 1.0, 5.0):
                cfg = SearchConfig(n=1, ell=ell, seed=2024, strategy=strategy)
                for i in range(1, 2001):
                    d, pair = shapes[i % len(shapes)]
                    h.update(repr(draw_rootspec_pair(d, RootCountPair(*pair), cfg, i)).encode())
        assert h.hexdigest() == "e82e91ff6a7dd25cbbea099f8d3986048b3f571cd0a480d695978c0b8d9fdb2f"

    def test_ranges_respect_ell(self):
        cfg = SearchConfig(n=1, seed=8, ell=2.5)
        spec = draw_rootspec_pair(8, RootCountPair(2, 2), cfg, 5)
        for r in spec.real_roots:
            assert 0 < abs(r) <= 2.5
        for re, im in spec.complex_pairs:
            assert -2.5 <= re <= 2.5 and 0 < im <= 2.5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(n=10, ell=0.0),
            dict(n=10, ell=float("nan")),
            dict(n=10, digits=0),
            dict(n=10, ell=-1.0),
            dict(n=10, strategy=Mixture(narrow_scale=2.0)),
            dict(n=10, strategy=Mixture(narrow_fraction=1.5)),
            dict(n=10, strategy=MultiplicityBias(dup_probability=-0.1)),
            dict(n=10, ell=float("inf")),
            dict(n=10, strategy=None),
            dict(n=10, strategy=Uniform),
            dict(n=2.5),
            dict(n=True),
            dict(n=10, seed=1.5),
            dict(n=10, seed=False),
            dict(n=10, digits=2.5),
            dict(n=10, digits=True),
            dict(n=10, ell=True),
            dict(n=10, ell=2.0, strategy=Mixture(narrow_scale=True)),
            dict(n=10, strategy=Mixture(narrow_fraction=True)),
            dict(n=10, strategy=MultiplicityBias(dup_probability=False)),
            dict(n=10, ell=Fraction(1, 2)),
            dict(n=10, ell="1.0"),
            dict(n=10, ell=Decimal("0.5")),
            dict(n=10, ell=None),
            dict(n=10, ell=10**400),
            dict(n=10, ell=2.0, strategy=Mixture(narrow_scale=Fraction(1, 100))),
            dict(n=10, strategy=Mixture(narrow_fraction="0.5")),
            dict(n=10, strategy=Mixture(narrow_fraction=None)),
            dict(n=10, strategy=MultiplicityBias(dup_probability=Decimal("0.5"))),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("ell", dict(ell=Fraction(1, 2))),
            ("ell", dict(ell="1.0")),
            ("narrow_scale", dict(strategy=Mixture(narrow_scale=Decimal("0.01")))),
            ("narrow_fraction", dict(strategy=Mixture(narrow_fraction=None))),
            ("dup_probability", dict(strategy=MultiplicityBias(dup_probability=Fraction(1, 2)))),
        ],
    )
    def test_non_numbers_name_the_parameter(self, name, kwargs):
        # a Fraction or Decimal would be stored as given and break json.dumps of the report
        with pytest.raises(ValueError, match=rf"^{name} must be an int or a float"):
            SearchConfig(n=3, **kwargs)

    @pytest.mark.parametrize(
        "ints, floats",
        [
            (dict(ell=2), dict(ell=2.0)),
            (dict(ell=2, strategy=Mixture(narrow_scale=1, narrow_fraction=1)),
             dict(ell=2.0, strategy=Mixture(narrow_scale=1.0, narrow_fraction=1.0))),
            (dict(strategy=MultiplicityBias(dup_probability=1)),
             dict(strategy=MultiplicityBias(dup_probability=1.0))),
        ],
    )
    def test_int_parameters_report_as_floats(self, ints, floats):
        # an int runs the search of its float, so the report has the same bytes
        def text(kwargs):
            return json.dumps(config_json(SearchConfig(n=3, **kwargs)))

        assert text(ints) == text(floats)

    def test_narrow_scale_default(self):
        cfg = SearchConfig(n=10, ell=2.0, strategy=Mixture())
        assert cfg.narrow_scale == 0.02


class TestSearchPair:
    def test_trivial_found_at_attempt_one(self):
        out = search_pair(parse_pattern("+-"), RootCountPair(1, 0), SearchConfig(n=10))
        assert out.found and out.attempt_index == 1

    def test_incompatible_raises(self):
        with pytest.raises(IncompatibleCoupleError):
            search_pair(parse_pattern("+-"), RootCountPair(0, 1), SearchConfig(n=10))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="need degree >= 1"):
            search_pair(SignPattern((1,)), (0, 0), SearchConfig(n=10))

    def test_known_realizable_case(self):
        out = search_pair(from_runs((1, 3, 2)), RootCountPair(0, 3),
                          SearchConfig(n=10**5, seed=42))
        assert out.found and out.attempt_index == 467

    def test_found_reverifies(self):
        sigma = from_runs((1, 3, 2))
        out = search_pair(sigma, RootCountPair(0, 3), SearchConfig(n=10**5, seed=42))
        assert sign_tuple(expand_from_roots(out.spec).coeffs) == sigma.signs
        assert (out.spec.pos_count, out.spec.neg_count) == (0, 3)
        assert isinstance(out.certificate, Certificate)
        assert out.certificate.claim.pattern == sigma

    def test_non_realizable_exhausts_with_exact_attempt_count(self):
        out = search_pair(parse_pattern("+---+"), RootCountPair(0, 2),
                          SearchConfig(n=2000, seed=7))
        assert not out.found
        assert out.status == "exhausted"
        assert out.attempts == 2000


class TestSearchModuli:
    def test_trivial(self):
        out = search_moduli(parse_pattern("++"), ModuliOrder("N"), SearchConfig(n=1))
        assert out.found and out.attempt_index == 1

    def test_known_witness_case(self):
        out = search_moduli(from_runs((3, 4, 1)), parse_order("[0,0,5]"),
                            SearchConfig(n=10**3, seed=5, ell=5.0))
        assert out.found and out.attempt_index == 115

    def test_found_order_matches(self):
        sigma = from_runs((3, 4, 1))
        out = search_moduli(sigma, parse_order("[0,0,5]"),
                            SearchConfig(n=10**3, seed=5, ell=5.0))
        assert order_from_roots(out.spec.real_roots) == parse_order("[0,0,5]")
        assert isinstance(out.certificate, Certificate)

    def test_incompatible_raises(self):
        with pytest.raises(IncompatibleCoupleError):
            search_moduli(from_runs((3, 4, 1)), ModuliOrder("PPPNN"), SearchConfig(n=10))

    def test_forced_dead_couple_exhausts(self):
        out = search_moduli(from_runs((1, 2, 3, 2)), parse_order("[0,0,0,4]"),
                            SearchConfig(n=10**5, seed=1))
        assert not out.found and out.attempts == 10**5


class TestTiesAfterRationalization:
    # a float hit whose rationalized roots tie is a rejected sample, not an error

    def test_moduli_search_scans_on(self, monkeypatch):
        calls = []

        def all_moduli_one(spec, digits):
            calls.append(spec)
            return RootSpec(real_roots=tuple(Fraction(1 if r > 0 else -1)
                                             for r in spec.real_roots))

        monkeypatch.setattr(certifier, "rationalize", all_moduli_one)
        out = search_moduli(parse_pattern("+--+"), ModuliOrder("PNP"), SearchConfig(n=200))
        assert calls  # float hits reached the certifier
        assert out.status == "exhausted" and out.attempts == 200

    def test_gap_search_scans_on(self, monkeypatch):
        calls = []

        def round_to_integer(x, digits):
            calls.append(x)
            return Fraction(round(x))  # four roots in [-1, 1] take at most three values

        monkeypatch.setattr(certifier, "rationalize_value", round_to_integer)
        out = search_gap_class(4, "L+R-", SearchConfig(n=100, seed=17))
        assert calls
        assert out.status == "exhausted" and out.attempts == 100


class TestSearchGapClass:
    def test_degree6_finds_rare_class(self):
        out = search_gap_class(6, "L-R+", SearchConfig(n=10**5, seed=3))
        assert out.found and out.attempt_index == 2
        assert out.gap.gap_class == "L-R+"
        assert out.certificate.claim == "L-R+"

    def test_rerun_identical(self):
        a = search_gap_class(6, "L-R+", SearchConfig(n=10**4, seed=3))
        b = search_gap_class(6, "L-R+", SearchConfig(n=10**4, seed=3))
        assert a.attempt_index == b.attempt_index
        assert a.spec == b.spec

    def test_validation(self):
        with pytest.raises(ValueError):
            search_gap_class(2, "L+R+", SearchConfig(n=10))
        with pytest.raises(ValueError):
            search_gap_class(5, "L*R+", SearchConfig(n=10))

    def test_common_class_found_fast(self):
        out = search_gap_class(4, "L+R-", SearchConfig(n=100, seed=17))
        assert out.found

    @pytest.mark.parametrize("d, target, seed", [
        (6, "L-R+", 3), (4, "L+R-", 17), (6, "L+R+", 1), (8, "L-R-", 2), (10, "L+R+", 5),
    ])
    def test_found_report_is_full_gap_report(self, d, target, seed):
        out = search_gap_class(d, target, SearchConfig(n=10**4, seed=seed))
        assert out.found
        assert out.gap == gap_report(out.spec.real_roots)


class TestStrategies:
    def test_mixture_narrow_draws(self):
        # with fraction 1 every root comes from the narrow interval
        cfg = SearchConfig(n=1, seed=4, strategy=Mixture(narrow_scale=0.01, narrow_fraction=1.0))
        spec = draw_rootspec_pair(6, RootCountPair(2, 2), cfg, 9)
        assert all(abs(r) <= 0.01 for r in spec.real_roots)
        assert all(abs(re) <= 0.01 and im <= 0.01 for re, im in spec.complex_pairs)

    def test_mixture_zero_fraction_is_wide(self):
        cfg = SearchConfig(n=1, seed=4, strategy=Mixture(narrow_scale=0.01, narrow_fraction=0.0))
        spec = draw_rootspec_pair(6, RootCountPair(2, 2), cfg, 9)
        assert any(abs(r) > 0.01 for r in spec.real_roots)

    def test_multiplicity_bias_duplicates_within_sign_class(self):
        cfg = SearchConfig(n=1, seed=4, strategy=MultiplicityBias(dup_probability=1.0))
        spec = draw_rootspec_pair(4, RootCountPair(2, 2), cfg, 11)
        pos = [r for r in spec.real_roots if r > 0]
        neg = [r for r in spec.real_roots if r < 0]
        assert pos[0] == pos[1] and neg[0] == neg[1]

    def test_multiplicity_bias_zero_is_distinct(self):
        cfg = SearchConfig(n=1, seed=4, strategy=MultiplicityBias(dup_probability=0.0))
        spec = draw_rootspec_pair(4, RootCountPair(2, 2), cfg, 11)
        assert len(set(spec.real_roots)) == 4

    def test_multiplicity_witness_certifies_with_multiplicity(self):
        # duplicated roots count with multiplicity in (pos, neg)
        cfg = SearchConfig(n=200, seed=6, strategy=MultiplicityBias(dup_probability=0.8))
        out = search_pair(SignPattern.from_word("+--"), RootCountPair(1, 1), cfg)
        assert out.found


# (search, pinned lowest hit): each search is a pure function of (seed, attempt)
PREFIX_CASES = {
    "pair": (lambda n: search_pair(from_runs((1, 3, 2)), RootCountPair(0, 3),
                                   SearchConfig(n=n, seed=42)), 467),
    "moduli": (lambda n: search_moduli(from_runs((3, 4, 1)), parse_order("[0,0,5]"),
                                       SearchConfig(n=n, seed=5)), 115),
    "gap": (lambda n: search_gap_class(6, "L-R+", SearchConfig(n=n, seed=3)), 2),
}


@pytest.mark.parametrize("name", list(PREFIX_CASES))
def test_budget_prefix_determinism(name):
    # a budget of n returns exactly what the first n attempts of a larger one do
    run, k = PREFIX_CASES[name]
    wide = run(10 * k)
    exact = run(k)
    short = run(k - 1)
    assert wide.found and wide.attempt_index == k
    assert exact.found and exact.attempt_index == k and exact.attempts == k
    assert exact.spec == wide.spec
    assert exact.certificate == wide.certificate
    assert short.status == "exhausted" and short.attempts == k - 1


# --- block draws --------------------------------------------------------------

_M64 = (1 << 64) - 1


def reference_mix64(z):
    # the scalar SplitMix64 finalizer that the lane-packed kernel replaced
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def reference_unit_draws(seed, attempt, count):
    base = reference_mix64((seed ^ 0xD1B54A32D192ED03) + attempt * 0x9E3779B97F4A7C15)
    return [(reference_mix64(base + j * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
            for j in range(1, count + 1)]


BLOCK_SIZES = (1, 2, 3, 255, 256)
# budgets on and around every block boundary of the schedule 1, 2, 4, ..., 256, 256, ...
BOUNDARY_BUDGETS = (1, 2, 3, 4, 7, 8, 255, 256, 257, 511, 512, 513)


class TestBlockKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2024, -1, -2**70, 2**64 - 1, 2**64 + 5, 2**200])
    def test_bit_identical_to_scalar_loop(self, seed):
        for first in (1, 2**40):
            for count in range(1, 21):
                want = [reference_unit_draws(seed, first + i, count) for i in range(max(BLOCK_SIZES))]
                assert attempt_unit_draws(seed, first, count) == want[0]
                for b in BLOCK_SIZES:
                    got = _unit_block(seed, first, b, count)
                    assert len(got) == b * count
                    assert [got[i::b] for i in range(b)] == want[:b]

    def test_zero_count(self):
        assert attempt_unit_draws(3, 4, 0) == []


class TestBlockSchedule:
    @pytest.mark.parametrize("n", BOUNDARY_BUDGETS)
    def test_each_attempt_gets_its_own_draws(self, n):
        seen = []  # the per-attempt stage returns no candidate, so nothing is certified
        out = _scan(3, SearchConfig(n=n, seed=77), seen.append, certify=None)
        assert out.status == "exhausted" and out.attempts == n
        assert seen == [attempt_unit_draws(77, i, 3) for i in range(1, n + 1)]

    def test_hit_stops_mid_block(self):
        seen = []

        def attempt(u):
            seen.append(u)
            return "candidate" if len(seen) == 6 else None

        # attempt 6 lies in block 4..7
        out = _scan(2, SearchConfig(n=100, seed=1), attempt, lambda candidate: (None, None))
        assert out.attempt_index == 6
        assert seen == [attempt_unit_draws(1, i, 2) for i in range(1, 7)]


def bits(values):
    return [struct.pack("d", v) for v in values]


# (pos, neg, npairs) at degrees 1-8: only reals, only pairs, and both
COLUMN_SHAPES = [(pos, neg, (d - pos - neg) // 2)
                 for d in range(1, 9) for pos in range(d + 1) for neg in range(d + 1 - pos)
                 if (d - pos - neg) % 2 == 0]


PAIR_STRATEGIES = [
    Uniform(), Mixture(), Mixture(narrow_scale=0.05, narrow_fraction=0.3),
    MultiplicityBias(), MultiplicityBias(dup_probability=0.9),
]
OTHER_ELLS = [0.7, 2.0**-30, 3e5]


def at_ell(strategy, ell):
    """`strategy` for a config at scale ell: a set narrow_scale (0.05 at ell = 1)
    scales with ell, so it stays below ell."""
    if isinstance(strategy, Mixture) and strategy.narrow_scale is not None:
        return Mixture(strategy.narrow_scale * ell, strategy.narrow_fraction)
    return strategy


class TestPairColumns:
    @pytest.mark.parametrize("strategy", PAIR_STRATEGIES, ids=repr)
    def test_equals_pair_roots_at_every_attempt(self, strategy):
        self.check_every_attempt(strategy, 1.0)

    @pytest.mark.parametrize("strategy", PAIR_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("ell", OTHER_ELLS)
    def test_equals_pair_roots_at_every_attempt_at_other_ell(self, strategy, ell):
        # a dropped or misplaced ell factor shows only at ell != 1
        self.check_every_attempt(at_ell(strategy, ell), ell)

    @staticmethod
    def check_every_attempt(strategy, ell):
        # COLUMN_SHAPES holds every (d, 0, 0) shape the moduli front draws
        cfg = SearchConfig(n=1, ell=ell, seed=31, strategy=strategy)
        chains = 0  # lanes where a root repeats the root two places before it
        for pos, neg, npairs in COLUMN_SHAPES:
            count = _pair_draw_count(pos, neg, npairs, strategy)
            for b in BLOCK_SIZES:
                u = _unit_block(cfg.seed, 1 + pos + 10 * neg + 100 * npairs, b, count)
                reals, pairs = _pair_columns(pos, neg, npairs, cfg, u, b)
                assert len(reals) == pos + neg and len(pairs) == npairs
                assert all(len(r) == b for r in reals)
                assert all(len(re) == len(im) == b for re, im in pairs)
                for k in range(b):
                    want_reals, want_pairs = _pair_roots(pos, neg, npairs, cfg, u[k::b])
                    assert bits(r[k] for r in reals) == bits(want_reals)
                    assert bits(v for re, im in pairs for v in (re[k], im[k])) == bits(
                        v for pair in want_pairs for v in pair)
                    chains += sum(want_reals[j] == want_reals[j - 2]
                                  for j in range(2, pos + neg) if j not in (pos, pos + 1))
        assert (chains > 0) == isinstance(strategy, MultiplicityBias)


class TestValueDraws:
    """Moduli and gap values, attempt by attempt, against `reference_values`."""

    @pytest.mark.parametrize("strategy", PAIR_STRATEGIES, ids=repr)
    def test_equal_the_reference_at_every_attempt(self, strategy):
        self.check_every_attempt(strategy, 1.0)

    @pytest.mark.parametrize("strategy", PAIR_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("ell", OTHER_ELLS)
    def test_equal_the_reference_at_every_attempt_at_other_ell(self, strategy, ell):
        self.check_every_attempt(at_ell(strategy, ell), ell)

    @staticmethod
    def check_every_attempt(strategy, ell):
        # the engines draw under _distinct_draws(cfg); reference_values draws a
        # MultiplicityBias as Uniform on its own
        cfg = SearchConfig(n=1, ell=ell, seed=37, strategy=strategy)
        draw = _distinct_draws(cfg)
        for d in range(1, 9):
            first, b = 1 + 10 * d, 256
            u = _unit_block(cfg.seed, first, b, _pair_draw_count(d, 0, 0, draw.strategy))
            for k in range(b):
                mods = _pair_roots(d, 0, 0, draw, u[k::b])[0]
                assert bits(mods) == bits(reference_values(d, cfg, first + k, signed=False))
                xs = reference_values(d, cfg, first + k, signed=True)
                want = None if 0.0 in xs or len(set(xs)) < d else bits(sorted(xs))
                got = _sorted_values(d, draw, u[k::b])
                assert (got if got is None else bits(got)) == want


def value_draws(positions, choice):
    """Unit draws from which `_sorted_values` takes the given position draws.

    Under a Mixture (choice not None) each value's choice draw comes first:
    `choice` picks the narrow scale below narrow_fraction and ell otherwise.
    """
    if choice is None:
        return list(positions)
    return [v for p in positions for v in (choice, p)]


@pytest.mark.parametrize("strategy, choice", [
    (Uniform(), None),
    (Mixture(), 0.0), (Mixture(), 0.9),
    (Mixture(0.05, 0.3), 0.0), (Mixture(0.05, 0.3), 0.9),
], ids=repr)
def test_sorted_values_reject_a_zero_and_a_tie(strategy, choice):
    cfg = SearchConfig(n=1, strategy=strategy)
    wide = choice is None or choice >= strategy.narrow_fraction
    s = cfg.ell if wide else cfg.narrow_scale
    kept = _sorted_values(3, cfg, value_draws([0.9, 0.1, 0.7], choice))
    assert kept == sorted(s * (2.0 * v - 1.0) for v in (0.9, 0.1, 0.7))
    # a position draw of 0.5 gives the value 0.0
    assert _sorted_values(3, cfg, value_draws([0.9, 0.5, 0.1], choice)) is None
    assert _sorted_values(3, cfg, value_draws([0.3, 0.7, 0.3], choice)) is None


def test_gap_search_passes_over_an_attempt_with_a_zero_value(monkeypatch):
    args = (3, "L+R-", SearchConfig(n=50, seed=0))
    assert search_gap_class(*args).attempt_index == 1
    # attempt 1 now draws the roots -0.8, 0.0, 0.8, of class L+R- in floats;
    # a zero root has no sign word, so the attempt must be passed over
    assert gap_report([-0.8, 0.0, 0.8]).gap_class == "L+R-"

    def zero_first(seed, first, b, count):
        return [0.1, 0.5, 0.9] if first == 1 else _unit_block(seed, first, b, count)

    monkeypatch.setattr(sampler, "_unit_block", zero_first)
    got = search_gap_class(*args)
    assert got.found and got.attempt_index == 2
    assert 0.0 not in got.spec.real_roots


def reference_values(d, cfg, i, signed):
    strategy = cfg.strategy
    if isinstance(strategy, Mixture):
        u = attempt_unit_draws(cfg.seed, i, 2 * d)
        scales = [cfg.narrow_scale if u[2 * j] < strategy.narrow_fraction else cfg.ell
                  for j in range(d)]
        u = u[1::2]
    else:
        u = attempt_unit_draws(cfg.seed, i, d)
        scales = [cfg.ell] * d
    if signed:
        return [s * (2.0 * x - 1.0) for s, x in zip(scales, u)]
    return [s * (1.0 - x) for s, x in zip(scales, u)]


def reference_attempt(kind, args, cfg, i):
    """(spec, certificate) of a certified hit at attempt i, drawn on its own, or None."""
    if kind == "pair":
        sigma, pair = args
        spec = draw_rootspec_pair(sigma.degree, pair, cfg, i)
        claim = PairCouple(sigma, pair)
    elif kind == "moduli":
        sigma, order = args
        mods = sorted(reference_values(order.degree, cfg, i, signed=False))
        if len(set(mods)) < len(mods):
            return None
        spec = RootSpec(real_roots=tuple(m if c == "P" else -m for c, m in zip(order.word, mods)))
        claim = ModuliCouple(sigma, order)
    else:
        d, target = args
        xs = sorted(reference_values(d, cfg, i, signed=True))
        if 0.0 in xs or len(set(xs)) < d or match(xs, target) is None:
            return None
        cert = certify_gap_class([rationalize_value(x, cfg.digits) for x in xs])
        if not isinstance(cert, Certificate) or cert.claim != target:
            return None
        return RootSpec(real_roots=tuple(xs)), cert
    if sign_tuple(expand_from_roots(spec).coeffs, cfg.tau) != claim.pattern.signs:
        return None
    cert = certify_couple(rationalize(spec, cfg.digits), claim)
    return (spec, cert) if isinstance(cert, Certificate) else None


ENGINES = {"pair": search_pair, "moduli": search_moduli, "gap": search_gap_class}

# (kind, args, strategy, seed, first hit within 513 attempts)
SCHEDULE_CASES = [
    ("pair", (parse_pattern("+----+"), RootCountPair(0, 1)), Uniform(), 2, 467),
    ("pair", (parse_pattern("++-++"), RootCountPair(0, 0)), Uniform(), 1, 66),
    ("pair", (parse_pattern("++-++-"), RootCountPair(3, 0)), Mixture(), 3, 422),
    ("pair", (parse_pattern("+--+--"), RootCountPair(1, 0)), Mixture(), 3, 71),
    ("pair", (parse_pattern("++-+++"), RootCountPair(2, 1)), MultiplicityBias(), 2, 436),
    ("pair", (parse_pattern("+-++++"), RootCountPair(2, 1)), MultiplicityBias(), 2, 183),
    ("moduli", (parse_pattern("++---+"), ModuliOrder("NPPNN")), Uniform(), 1, 351),
    ("moduli", (parse_pattern("++---+"), ModuliOrder("PPNNN")), Mixture(), 2, 76),
    ("gap", (6, "L-R+"), Uniform(), 5, 221),
    ("gap", (6, "L-R+"), Uniform(), 3, 2),
    ("gap", (6, "L-R+"), Mixture(), 1, 138),
    ("gap", (5, "L-R+"), Uniform(), 1, None),
    ("moduli", (parse_pattern("++---+"), ModuliOrder("NPPNN")), MultiplicityBias(), 1, 351),
    ("gap", (6, "L-R+"), MultiplicityBias(), 3, 2),
    # pair hits inside a block tested as lanes (64..127, 256..511), not at its first lane
    ("pair", (parse_pattern("++++-++"), RootCountPair(0, 0)), Uniform(), 1, 382),
    ("pair", (parse_pattern("+++-+-"), RootCountPair(1, 2)), Mixture(), 1, 107),
    ("pair", (parse_pattern("+++-++"), RootCountPair(0, 3)), MultiplicityBias(), 2, 290),
    ("pair", (parse_pattern("++-+-++"), RootCountPair(0, 2)), Mixture(), 4, None),
    # a moduli exhaustion, its blocks from 64 on tested as lanes
    ("moduli", (from_runs((1, 2, 3, 2)), ModuliOrder("NNPPPNN")), Mixture(narrow_scale=0.05), 2024,
     None),
]


@pytest.mark.parametrize("kind, args, strategy, seed, first_hit", SCHEDULE_CASES)
def test_block_schedule_matches_attempt_by_attempt_scan(kind, args, strategy, seed, first_hit):
    cfg = SearchConfig(n=1, seed=seed, strategy=strategy)
    hit = None
    for i in range(1, max(BOUNDARY_BUDGETS) + 1):
        hit = reference_attempt(kind, args, cfg, i)
        if hit is not None:
            break
    assert (i if hit else None) == first_hit
    for n in BOUNDARY_BUDGETS:
        out = ENGINES[kind](*args, SearchConfig(n=n, seed=seed, strategy=strategy))
        if first_hit is not None and first_hit <= n:
            assert (out.status, out.attempts, out.attempt_index) == ("found", i, i)
            assert (out.spec, out.certificate) == hit
        else:
            assert (out.status, out.attempts, out.attempt_index) == ("exhausted", n, None)
            assert out.spec is None and out.certificate is None


# (kind, args, seed, first Uniform hit within 400 attempts): moduli hits in lane
# blocks 64..127, 128..255 and 256..511, gap hits past 64, and an exhaustion of each
BIAS_CASES = [
    ("moduli", (from_runs((1, 2, 3, 2)), ModuliOrder("NPNPNNP")), 1, 115),
    ("moduli", (from_runs((1, 2, 3, 2)), ModuliOrder("NNPPPNN")), 1, 209),
    ("moduli", (from_runs((1, 2, 3, 2)), ModuliOrder("PNNPNNP")), 1, 377),
    ("moduli", (from_runs((1, 2, 3, 2)), ModuliOrder("PPPNNNN")), 1, None),
    ("gap", (6, "L-R+"), 5, 221),
    ("gap", (5, "L-R-"), 5, 131),
    ("gap", (5, "L-R+"), 1, None),
]
BIASES = [MultiplicityBias(), MultiplicityBias(dup_probability=0.9)]


def outcome_fields(out):
    return out.status, out.attempts, out.attempt_index, out.spec, out.certificate, out.gap


@pytest.mark.parametrize("bias", BIASES, ids=repr)
@pytest.mark.parametrize("kind, args, seed, first_hit", BIAS_CASES)
def test_moduli_and_gap_searches_draw_multiplicity_bias_as_uniform(kind, args, seed, first_hit,
                                                                   bias):
    twin = ENGINES[kind](*args, SearchConfig(n=400, seed=seed))
    out = ENGINES[kind](*args, SearchConfig(n=400, seed=seed, strategy=bias))
    assert twin.attempt_index == first_hit
    assert outcome_fields(out) == outcome_fields(twin)


def test_moduli_sweep_draws_multiplicity_bias_as_uniform():
    # inside a sweep the fronts are shared and blocks from 8 attempts on are lanes
    sigma = from_runs((1, 2, 3, 2))
    twin = sweeps.sweep_moduli(sigma, SearchConfig(n=400, seed=1))
    out = sweeps.sweep_moduli(sigma, SearchConfig(n=400, seed=1, strategy=MultiplicityBias()))
    assert out.rows == twin.rows and twin.totals["realized"] > 0
    assert out.config.strategy == MultiplicityBias()


def test_pair_search_tests_blocks_of_64_or_more_as_lanes(monkeypatch):
    # an exhaustion of 513 attempts: blocks 1, 2, 4, ..., 32 one attempt at a time,
    # blocks 64..127, 128..255 and 256..511 as lanes, the last two attempts one at a time
    sizes = []

    def counted(reals, pairs, target):
        sizes.append(len(reals[0] if reals else pairs[0][0]))
        return polycore.sign_word_lanes(reals, pairs, target)

    monkeypatch.setattr(sampler, "sign_word_lanes", counted)
    calls = []
    monkeypatch.setattr(sampler, "has_sign_word", lambda *a: calls.append(a) or has_sign_word(*a))
    out = search_pair(parse_pattern("+---+"), RootCountPair(0, 2), SearchConfig(n=513, seed=3))
    assert out.status == "exhausted" and out.attempts == 513
    assert sizes == [64, 128, 256]
    assert len(calls) == 63 + 2


def test_moduli_search_tests_blocks_of_64_or_more_as_lanes(monkeypatch):
    # as for pairs: blocks 64..127, 128..255 and 256..511 as lanes, the rest one at a
    # time; a lane block passes on its untied lanes, all of them here
    sizes = []

    def counted(reals, pairs, target):
        sizes.append(len(reals[0]))
        return polycore.sign_word_lanes(reals, pairs, target)

    monkeypatch.setattr(sampler, "sign_word_lanes", counted)
    calls = []
    monkeypatch.setattr(sampler, "has_sign_word", lambda *a: calls.append(a) or has_sign_word(*a))
    out = search_moduli(from_runs((1, 2, 3, 2)), ModuliOrder("NNPPPNN"),
                        SearchConfig(n=513, seed=2024, strategy=Mixture(narrow_scale=0.05)))
    assert out.status == "exhausted" and out.attempts == 513
    assert sizes == [64, 128, 256]
    assert len(calls) == 63 + 2


def count_lane_tests(monkeypatch):
    """(lane block sizes, per-attempt calls) that the searches run from now on."""
    sizes, calls = [], []

    def counted(reals, pairs, target):
        sizes.append(len(reals[0] if reals else pairs[0][0]))
        return polycore.sign_word_lanes(reals, pairs, target)

    monkeypatch.setattr(sampler, "sign_word_lanes", counted)
    monkeypatch.setattr(sampler, "has_sign_word", lambda *a: calls.append(a) or has_sign_word(*a))
    return sizes, calls


def test_moduli_blocks_of_8_or_more_are_lanes_inside_a_sweep_store(monkeypatch):
    # a sweep computes a moduli front once for all its orders, so inside the store the
    # blocks 8..15, 16..31 and 32..63 are fronts and lanes too; only 1..7 and 512..513
    # run one attempt at a time
    args = (from_runs((1, 2, 3, 2)), ModuliOrder("NNPPPNN"),
            SearchConfig(n=513, seed=2024, strategy=Mixture(narrow_scale=0.05)))
    alone = search_moduli(*args)
    sizes, calls = count_lane_tests(monkeypatch)
    with sampler._shared_blocks():
        out = search_moduli(*args)
        store = sampler._SHARED.get()
    assert sizes == [8, 16, 32, 64, 128, 256]
    assert len(calls) == 7 + 2
    assert sorted(key[2:] for key in store if len(key) == 5) == [
        (b, b, 7) for b in (8, 16, 32, 64, 128, 256)]
    assert (out.status, out.attempts) == (alone.status, alone.attempts) == ("exhausted", 513)


def test_pair_blocks_keep_64_inside_a_sweep_store(monkeypatch):
    # a pair sweep shares draws, not columns: its blocks below 64 stay per attempt
    sizes, calls = count_lane_tests(monkeypatch)
    with sampler._shared_blocks():
        out = search_pair(parse_pattern("+---+"), RootCountPair(0, 2), SearchConfig(n=513, seed=3))
    assert out.status == "exhausted" and out.attempts == 513
    assert sizes == [64, 128, 256]
    assert len(calls) == 63 + 2


def tie_every_third_attempt(unit_block):
    """_unit_block with the first two draws of attempts 0, 3, 6, ... of each block equal."""
    def tied(seed, first, b, count):
        u = unit_block(seed, first, b, count)
        for k in range(0, b, 3):
            u[b + k] = u[k]
        return u

    return tied


def test_moduli_front_keeps_untied_lanes_sorted():
    cfg = SearchConfig(n=1, seed=5)
    for d in (2, 5, 7):
        u = tie_every_third_attempt(_unit_block)(cfg.seed, 64, 100, d)
        front = _moduli_front(d, cfg, u, 100)
        rows = [_pair_roots(d, 0, 0, cfg, u[k::100])[0] for k in range(100)]
        kept = [k for k in range(100) if k % 3]
        assert kept == [k for k, row in enumerate(rows) if len(set(row)) == d]
        m = len(kept)
        assert len(front) == (d + 1) * m and front[:m].tolist() == kept
        for p, k in enumerate(kept):
            assert bits(front[j * m + p] for j in range(1, d + 1)) == bits(sorted(rows[k]))


def test_moduli_lanes_reject_tied_attempts_as_the_per_attempt_path_does(monkeypatch):
    monkeypatch.setattr(sampler, "_unit_block", tie_every_third_attempt(_unit_block))
    args = (parse_pattern("++---+"), ModuliOrder("NPPNN"), SearchConfig(n=600, seed=1))
    lanes = search_moduli(*args)
    monkeypatch.setattr(sampler, "_LANE_MIN", max(BOUNDARY_BUDGETS) + 1)
    each = search_moduli(*args)
    assert lanes.found and lanes.attempt_index > 256  # inside a block with tied lanes
    assert (lanes.status, lanes.attempts, lanes.attempt_index, lanes.spec, lanes.certificate) == (
        each.status, each.attempts, each.attempt_index, each.spec, each.certificate)


def engine_stages(search, *args):
    """(count, cfg, attempt, lanes, front): what `search(*args)` hands `_scan`."""
    handed = []

    def capture(count, cfg, attempt, certify, lanes=None, front=None):
        handed.append((count, cfg, attempt, lanes, front))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_scan", capture)
        search(*args)
    (stages,) = handed
    return stages


def assert_lane_stage_is_the_attempt_stage(stages, blocks):
    """On each (first, b) block, the lane stage's candidates are those of the
    per-attempt stage run lane by lane; returns how many there were."""
    count, cfg, attempt, lanes, front = stages
    found = 0
    for first, b in blocks:
        u = _unit_block(cfg.seed, first, b, count)
        want = [(k, c) for k, c in ((k, attempt(u[k::b])) for k in range(b)) if c is not None]
        assert list(lanes(u if front is None else front[1](u, b), b)) == want, (first, b)
        found += len(want)
    return found


def scan_blocks(n):
    """The (first, b) blocks `_scan` draws for a budget of n attempts."""
    first, size = 1, 1
    while first <= n:
        yield first, min(size, n - first + 1)
        first += size
        size = min(2 * size, sampler._BLOCK_CAP)


# moduli fronts of 8, 16, 64 and 256 attempts, and the 245-attempt tail of a budget of 500
MODULI_LANE_BLOCKS = [(8, 8), (16, 16), (64, 64), (256, 256), (256, 245)]


@pytest.mark.parametrize("strategy", [Mixture(narrow_scale=0.05), Uniform()], ids=repr)
def test_moduli_lane_stage_equals_attempt_stage_at_degree_7(strategy):
    # every order with 3 P's and 4 N's, sigma = runs (1,2,3,2): degree-7 lanes, most of
    # them dropped at a_1, a_2 or a_3
    sigma = from_runs((1, 2, 3, 2))
    cfg = SearchConfig(n=1, seed=2024, strategy=strategy)
    found = sum(assert_lane_stage_is_the_attempt_stage(
        engine_stages(search_moduli, sigma, order, cfg), MODULI_LANE_BLOCKS)
        for order in enumerate_orders(3, 4))
    assert found > 0


@pytest.mark.parametrize("word, pair", [("+---+", (0, 2)), ("++-++", (2, 0))])
def test_pair_lane_stage_equals_attempt_stage_on_never_realized_couples(word, pair):
    # the degree-4 couples no search realizes, over their first 20 000 attempts
    cfg = SearchConfig(n=20_000, seed=2024)
    stages = engine_stages(search_pair, parse_pattern(word), RootCountPair(*pair), cfg)
    assert_lane_stage_is_the_attempt_stage(stages, scan_blocks(cfg.n))


def reference_float_hits(kind, args, cfg):
    """(attempt, spec) of every float hit among attempts 1..n, each drawn on its own."""
    sigma, target = args
    hits = []
    for i in range(1, cfg.n + 1):
        if kind == "pair":
            spec = draw_rootspec_pair(sigma.degree, target, cfg, i)
        else:
            mods = sorted(reference_values(target.degree, cfg, i, signed=False))
            if len(set(mods)) < len(mods):
                continue
            spec = RootSpec(real_roots=tuple(m if c == "P" else -m
                                             for c, m in zip(target.word, mods)))
        if sign_tuple(expand_from_roots(spec).coeffs, cfg.tau) == sigma.signs:
            hits.append((i, spec))
    return hits


def reject_first(monkeypatch, j):
    """Make certifier.certify_couple reject its first j calls; returns the calls."""
    calls = []
    certify = certifier.certify_couple

    def rejecting(spec, claim):
        calls.append(spec)
        if len(calls) <= j:
            return certifier.Mismatch("test", "rejected by the test")
        return certify(spec, claim)

    monkeypatch.setattr(certifier, "certify_couple", rejecting)
    return calls


# (kind, args, seed): float hits in blocks run one attempt at a time, and several to a
# lane block (pair: 95 and 124 in 64..127; moduli: five in 64..127, and 16, 23 and 24
# in 16..31, a lane block inside a sweep store)
CERTIFY_LOOP_CASES = [
    ("pair", (parse_pattern("+--++"), RootCountPair(2, 0)), 1),
    ("moduli", (parse_pattern("++--+"), ModuliOrder("NPPN")), 0),
]


@pytest.mark.parametrize("kind, args, seed", CERTIFY_LOOP_CASES, ids=["pair", "moduli"])
def test_search_returns_the_float_hit_after_the_rejected_ones(monkeypatch, kind, args, seed):
    # with the first j float hits rejected by the certifier, the search returns the
    # (j+1)-th, whether its block ran one attempt at a time or as lanes
    cfg = SearchConfig(n=300, seed=seed)
    hits = reference_float_hits(kind, args, cfg)
    assert len([i for i, _ in hits if 64 <= i < 128]) >= 2

    def outcomes():
        outs = []
        for j in range(len(hits) + 1):
            calls = reject_first(monkeypatch, j)
            out = ENGINES[kind](*args, cfg)
            assert len(calls) == min(j + 1, len(hits))
            outs.append((out.status, out.attempts, out.attempt_index, out.spec, out.certificate))
        return outs

    lanes = outcomes()
    assert [o[:4] for o in lanes] == [("found", i, i, spec) for i, spec in hits] + [
        ("exhausted", cfg.n, None, None)]
    assert all(isinstance(o[4], Certificate) for o in lanes[:-1])
    if kind == "moduli":  # blocks from 8 attempts on run as lanes inside a sweep store
        with sampler._shared_blocks():
            assert outcomes() == lanes
    monkeypatch.setattr(sampler, "_LANE_MIN", cfg.n + 1)
    assert outcomes() == lanes


def test_searches_do_not_import_numpy():
    # the block draws are pure Python so that peak memory stays that of the interpreter
    script = "\n".join([
        "import sys",
        "import polyrealize",
        "from polyrealize.moduliorders import parse_order",
        "from polyrealize.sampler import SearchConfig, search_gap_class, search_moduli, search_pair",
        "from polyrealize.signpatterns import RootCountPair, from_runs",
        "search_pair(from_runs((1, 3, 2)), RootCountPair(0, 3), SearchConfig(n=600, seed=42))",
        "search_moduli(from_runs((3, 4, 1)), parse_order('[0,0,5]'), SearchConfig(n=200, seed=5))",
        "search_gap_class(6, 'L-R+', SearchConfig(n=10, seed=3))",
        "print('numpy' in sys.modules)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
