import itertools
import math
import operator
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_rootspec
from polyrealize import polycore
from polyrealize.certifier import exact_expand, rationalize
from polyrealize.polycore import (
    DEFAULT_SIGN_TOLERANCE,
    RealPolynomial,
    RootSpec,
    ZeroRootError,
    derivative_coeffs,
    expand,
    expand_from_roots,
    expand_real,
    has_sign_word,
    horner,
    sign_tuple,
    sign_word_lanes,
)
from polyrealize.sampler import (
    Mixture,
    MultiplicityBias,
    SearchConfig,
    Uniform,
    _pair_columns,
    _pair_draw_count,
    _pair_roots,
    _sorted_values,
    _unit_block,
    _value_draw_count,
    attempt_unit_draws,
    draw_rootspec_pair,
)
from polyrealize.signpatterns import SignPattern

GAP_D6_ROOTS = (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96)


def q1_spec() -> RootSpec:
    return RootSpec(
        real_roots=(-0.723, -0.59, -0.48),
        complex_pairs=((0.985, math.sqrt(0.977 - 0.985**2)),),
    )


class TestExpandFromRoots:
    def test_q1_coefficients(self):
        # degree-5 witness expands to the reported coefficients
        p = expand_from_roots(q1_spec())
        expected = (-0.177, -1.498, -0.125, 0.629, 0.2)
        assert p.degree == 5
        for got, want in zip(p.tail, expected):
            assert abs(got - want) <= 2e-3

    def test_single_linear_factor(self):
        p = expand_from_roots(RootSpec(real_roots=(0.5,)))
        assert p.coeffs == (1.0, -0.5)

    def test_symmetric_cancellation_is_ambiguous(self):
        p = expand_from_roots(RootSpec(real_roots=(1.0, -1.0)))
        assert p.coeffs == (1.0, 0.0, -1.0)
        assert sign_tuple(p.coeffs, 1e-9) is None

    def test_zero_root_rejected(self):
        with pytest.raises(ZeroRootError):
            RootSpec(real_roots=(0.0, 1.0))

    def test_real_complex_pair_rejected(self):
        with pytest.raises(ValueError, match="complex pair needs im > 0"):
            RootSpec(complex_pairs=((0.1, 0.0),))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            expand_from_roots(RootSpec())

    def test_permutation_invariance(self):
        for case in range(200):
            spec = random_rootspec(101, case)
            p1 = expand_from_roots(spec)
            p2 = expand_from_roots(
                RootSpec(
                    real_roots=spec.real_roots[::-1],
                    complex_pairs=spec.complex_pairs[::-1],
                )
            )
            scale = max(1.0, max(abs(c) for c in p1.coeffs))
            for a, b in zip(p1.coeffs, p2.coeffs):
                assert abs(a - b) <= 1e-12 * scale

    def test_root_reconstruction(self):
        # evaluation at every construction root is tiny relative to coefficients
        for case in range(500):
            spec = random_rootspec(77, case, max_degree=10)
            p = expand_from_roots(spec)
            bound = 1e-9 * (1.0 + max(abs(c) for c in p.coeffs))
            for r in spec.real_roots:
                assert abs(horner(p.coeffs, r)) <= bound


class TestEvaluate:
    def test_simple(self):
        p = RealPolynomial((0.0, -1.0))  # x^2 - 1
        assert horner(p.coeffs, 2.0) == 3.0
        assert horner(p.coeffs, 1.0) == 0.0

    def test_gap_witness_at_zero(self):
        p = RealPolynomial(tuple(expand_real(list(GAP_D6_ROOTS))[1:]))
        assert abs(horner(p.coeffs, 0.0) - 0.000600530112) < 1e-15


class TestDerivative:
    def test_gap_witness_derivative(self):
        p = RealPolynomial(tuple(expand_real(list(GAP_D6_ROOTS))[1:]))
        expected = (6.0, -8.0, 2.12, 0.367734, -0.07587018, -0.0025040322)
        got = derivative_coeffs(p.coeffs)
        assert len(got) == 6
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-12

    def test_quadratic(self):
        assert derivative_coeffs(RealPolynomial((0.0, -1.0)).coeffs) == (2.0, 0.0)

    def test_linear(self):
        assert derivative_coeffs(RealPolynomial((-3.0,)).coeffs) == (1.0,)

    def test_degree_and_leading(self):
        for case in range(100):
            spec = random_rootspec(5, case)
            p = expand_from_roots(spec)
            d = derivative_coeffs(p.coeffs)
            assert len(d) == p.degree
            assert d[0] == float(p.degree)


def reference_float_expand(reals, pairs):
    """The hand-written float convolution the search loops used before the shared kernel."""
    coeffs = [1.0]
    for r in reals:
        nxt = coeffs + [0.0]
        for j in range(len(coeffs)):
            nxt[j + 1] -= r * coeffs[j]
        coeffs = nxt
    for re, im in pairs:
        s = 2.0 * re
        q = re * re + im * im
        nxt = coeffs + [0.0, 0.0]
        for j in range(len(coeffs)):
            nxt[j + 1] -= s * coeffs[j]
            nxt[j + 2] += q * coeffs[j]
        coeffs = nxt
    return coeffs


def reference_exact_expand(spec):
    """Exact convolution written out on Fractions, independent of the kernel."""
    coeffs = [Fraction(1)]
    for r in spec.real_roots:
        r = Fraction(r)
        nxt = coeffs + [Fraction(0)]
        for j in range(len(coeffs)):
            nxt[j + 1] -= r * coeffs[j]
        coeffs = nxt
    for re, im in spec.complex_pairs:
        re, im = Fraction(re), Fraction(im)
        s = 2 * re
        q = re * re + im * im
        nxt = coeffs + [Fraction(0), Fraction(0)]
        for j in range(len(coeffs)):
            nxt[j + 1] -= s * coeffs[j]
            nxt[j + 2] += q * coeffs[j]
        coeffs = nxt
    return tuple(coeffs)


def bits(values):
    return [struct.pack("d", v) for v in values]


# (pos, neg, npairs) shapes up to degree 8, cycled over the attempts
SHAPES = [(1, 0, 0), (0, 3, 1), (2, 1, 1), (1, 1, 3), (3, 3, 1), (2, 2, 2), (0, 0, 4), (4, 2, 0)]


class TestExpandKernel:
    @pytest.mark.parametrize(
        "strategy", [Uniform(), Mixture(), MultiplicityBias()], ids=lambda s: type(s).__name__
    )
    def test_bit_identical_to_reference_loop(self, strategy):
        # roots near 1e-300 and 1e300 too: their products underflow to zeros, or
        # overflow to infinities and NaNs
        for ell, attempts in ((1.0, 10**4), (1e-300, 2000), (1e300, 2000)):
            cfg = SearchConfig(n=1, ell=ell, seed=2025, strategy=strategy)
            for attempt in range(1, attempts + 1):
                pos, neg, npairs = SHAPES[attempt % len(SHAPES)]
                spec = draw_rootspec_pair(pos + neg + 2 * npairs, (pos, neg), cfg, attempt)
                reals, pairs = list(spec.real_roots), list(spec.complex_pairs)
                want = bits(reference_float_expand(reals, pairs))
                assert bits(expand(reals, pairs, 1.0)) == want
                assert bits(expand_from_roots(spec).coeffs) == want

    def test_exact_path_equals_reference_loop(self):
        for case in range(1000):
            spec = rationalize(random_rootspec(31, case))
            want = reference_exact_expand(spec)
            got = exact_expand(spec)
            assert got == want
            assert all(type(c) is Fraction for c in got)
            # the kernel on the Fraction roots themselves, unit Fraction(1)
            on_fractions = expand(spec.real_roots, spec.complex_pairs, Fraction(1))
            assert tuple(on_fractions) == want
            assert all(type(c) is Fraction for c in on_fractions)

    def test_horner_on_fractions(self):
        # (x - 1/2)(x + 1/3) = x^2 - x/6 - 1/6
        coeffs = expand([Fraction(1, 2), Fraction(-1, 3)], (), Fraction(1))
        assert coeffs == [1, Fraction(-1, 6), Fraction(-1, 6)]
        assert horner(coeffs, Fraction(1, 2)) == 0
        assert horner(coeffs, Fraction(1)) == Fraction(2, 3)


class TestSignVector:
    def test_q1_pattern(self):
        sv = SignPattern(sign_tuple(expand_from_roots(q1_spec()).coeffs))
        assert sv.word == "+---++"
        assert sv.runs == (1, 3, 2)

    def test_degree7_moduli_witness_pattern(self):
        printed = (17.91, 98.1106, -21.793074, -1971.427200, -5976.303538,
                   -2955.965399, 6696.676474)
        sv = SignPattern(sign_tuple(RealPolynomial(printed).coeffs))
        assert sv.word == "+++----+"

    def test_ambiguous_is_falsy_value(self):
        assert sign_tuple(RealPolynomial((0.0, -1.0)).coeffs, 1e-9) is None

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_keeps_signs(self, r):
        p = expand_from_roots(RootSpec(real_roots=(r, -2 * r)))
        sv = sign_tuple(p.coeffs)
        assert sv is not None and sv[0] == 1


def all_words(degree):
    """Every sign word of length degree + 1, leading sign included."""
    return list(itertools.product((1, -1), repeat=degree + 1))


def a1_sum(reals, pairs):
    """a_1 summed as `has_sign_word` sums it: the reals, then 2*re per pair."""
    a1 = 0.0
    for r in reals:
        a1 -= r
    for re, _ in pairs:
        a1 -= 2 * re
    return a1


def assert_matches_reference(reals, pairs, targets):
    ref = sign_tuple(expand(reals, pairs, 1.0))
    for t in targets:
        assert has_sign_word(reals, pairs, t) == (ref == t), (reals, pairs, t)


INF = math.inf

# (reals, pairs) that put a_1 or a later coefficient at zero, near or on the
# threshold, or out of range (inf, NaN)
CRAFTED = {
    "a1-zero": ([1.0, 2.0, -3.0], []),
    "a1-zero-real-and-pair": ([1.0], [(-0.5, 1.0)]),
    "opposite-roots": ([0.5, -0.5, 2.0], []),
    "a1-inside-threshold": ([1.0, -1.0 + 1e-12], []),
    "a1-negative-inside-threshold": ([1.0, -1.0 - 1e-12], []),
    "a1-just-outside-threshold": ([1.0, -1.0 - 1e-7], []),
    "a1-inside-relative-threshold": ([1e6, -1e6 + 1e-3], []),
    "a2-zero": ([1.0, 1.0, -0.5], []),
    "a2-inside-threshold": ([1.0, 1.0, -0.5 + 1e-13], []),
    "a0-inside-threshold": ([1e-12, 2.0, -3.5], []),
    "overflow": ([1e308, 1e308, -1.0], []),
    "a1-nan": ([INF, -INF, 1.0], []),
    "inf-root": ([INF, 1.0], []),
    "huge-and-tiny": ([1e308, -1e-300, 1e-300], [(1e-300, 1e308)]),
    "tiny": ([1e-300, -1e-300], [(-1e-300, 1e-300)]),
    "nan-root": ([math.nan, 1.0], []),
    "degree-1-positive": ([0.5], []),
    "degree-1-negative": ([-0.5], []),
    "degree-1-zero": ([0.0], []),
    "degree-1-negative-zero": ([-0.0], []),
    "degree-1-inside-threshold": ([1e-12], []),
    "degree-1-on-threshold": ([1e-9], []),
    "pair-only": ([], [(0.3, 0.4)]),
    "pair-only-zero-re": ([], [(0.0, 1.0)]),
    "pair-only-negative-zero-re": ([], [(-0.0, 1.0)]),
    "signed-zeros": ([0.0, -0.0], []),
    "negative-zeros": ([-0.0, -0.0], [(-0.0, 1.0)]),
    "zero-sum-with-pair": ([1.0, -1.0], [(0.0, 2.0)]),
    "pairs-cancelling": ([], [(0.5, 0.1), (-0.5, 2.0)]),
    "pairs-overflow": ([], [(1e308, 1e308), (1.0, 1.0)]),
}

SEARCH_STRATEGIES = [
    Uniform(),
    Mixture(),
    Mixture(narrow_scale=None, narrow_fraction=0.9),
    MultiplicityBias(),
]
ELLS = [2.0**-30, 1.0, 2.0**30]


class TestHasSignWord:
    @pytest.mark.parametrize("name", list(CRAFTED))
    def test_crafted_inputs_match_reference(self, name):
        reals, pairs = CRAFTED[name]
        assert_matches_reference(reals, pairs, all_words(len(reals) + 2 * len(pairs)))

    @pytest.mark.parametrize("name", list(CRAFTED))
    def test_expand_a1_is_the_running_sum(self, name):
        # the pre-test relies on expand(...)[1] being this sum, signed zeros included
        reals, pairs = CRAFTED[name]
        got, want = a1_sum(reals, pairs), expand(reals, pairs, 1.0)[1]
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        # the sum starts at +0.0 and x - y is -0.0 only when x is, so a zero a_1 is
        # +0.0: "a1-zero" and "a1-nan" are the zero and NaN lanes of the pre-test
        assert got != 0.0 or math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("strategy", SEARCH_STRATEGIES, ids=repr)
    def test_census_over_search_draws(self, strategy, ell):
        # pair-search and moduli-search draws, every sign word of their degree
        cfg = SearchConfig(n=1, ell=ell, seed=12, strategy=strategy)
        for attempt in range(1, 151):
            pos, neg, npairs = SHAPES[attempt % 4]
            u = attempt_unit_draws(cfg.seed, attempt, _pair_draw_count(pos, neg, npairs, strategy))
            reals, pairs = _pair_roots(pos, neg, npairs, cfg, u)
            assert a1_sum(reals, pairs) == expand(reals, pairs, 1.0)[1]
            assert_matches_reference(reals, pairs, all_words(pos + neg + 2 * npairs))
            d = 3 + attempt % 3
            u = attempt_unit_draws(cfg.seed, attempt, _value_draw_count(d, strategy))
            mods = _sorted_values(d, cfg, u, signed=False)
            roots = [m if (attempt >> j) & 1 else -m for j, m in enumerate(mods)]
            assert a1_sum(roots, ()) == expand(roots, (), 1.0)[1]
            assert_matches_reference(roots, (), all_words(d))


# --- the block form: one float lane per attempt ------------------------------

Lanes = polycore._Lanes
LANE_VALUES = [0.0, -0.0, 1.0, -1.5, 0.1, 3.0, 1e308, -1e308, 5e-324, INF, -INF, math.nan]


def lane_pairs():
    """Every (x, y) of LANE_VALUES, as two lane vectors."""
    xs, ys = zip(*itertools.product(LANE_VALUES, repeat=2))
    return list(xs), list(ys)


def columns(lanes):
    """Block columns of lanes that share a shape: lanes[k] = (reals, pairs)."""
    reals = [list(c) for c in zip(*(r for r, _ in lanes))]
    pairs = [(list(re), list(im)) for re, im in
             (zip(*col) for col in zip(*(p for _, p in lanes)))]
    return reals, pairs


def reference_lanes(lanes, target):
    return [k for k, (reals, pairs) in enumerate(lanes) if has_sign_word(reals, pairs, target)]


def fillers(reals, pairs, count, seed):
    """`count` ordinary lanes with the shape of (reals, pairs)."""
    rng = random.Random(seed)
    return [([rng.choice((1, -1)) * rng.uniform(0.1, 2.0) for _ in reals],
             [(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)) for _ in pairs])
            for _ in range(count)]


def threshold_lanes():
    """Degree-2 lanes whose a_2 is tau exactly, one ulp inside and one ulp outside.

    (x - t)(x + 1/2) has a_1 = 1/2 - t and a_2 = -t/2, halved exactly, so
    max(1, max|a|) is 1 and the threshold is tau itself; -t gives +t/2.
    """
    t = 2 * DEFAULT_SIGN_TOLERANCE
    out = {}
    for name, v in (("on", t), ("inside", math.nextafter(t, 0.0)),
                    ("outside", math.nextafter(t, INF))):
        out[f"a2-minus-tau-{name}"] = ([v, -0.5], [])
        out[f"a2-plus-tau-{name}"] = ([-v, -0.5], [])
    return out


class TestSignWordLanes:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.iadd, operator.isub], ids=lambda f: f.__name__)
    def test_lane_arithmetic_agrees_with_floats(self, op):
        xs, ys = lane_pairs()
        a, b = Lanes(xs), Lanes(ys)
        got = op(a, b)
        assert type(got) is Lanes and got is not a
        assert bits(got) == bits(map(op, xs, ys))
        assert bits(a) == bits(xs)  # the in-place forms leave the operand as it was

    @pytest.mark.parametrize("k", [2, 1, -1, 0, 3])
    def test_int_times_lanes_agrees_with_floats(self, k):
        a = Lanes(LANE_VALUES)
        got = k * a
        assert type(got) is Lanes and len(got) == len(LANE_VALUES)
        assert bits(got) == bits(k * x for x in LANE_VALUES)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_expand_on_lanes_is_the_float_expansion(self, shape):
        pos, neg, npairs = shape
        cfg = SearchConfig(n=1, seed=5, strategy=Mixture())
        b = 64
        u = _unit_block(cfg.seed, 1, b, _pair_draw_count(pos, neg, npairs, cfg.strategy))
        reals, pairs = _pair_columns(pos, neg, npairs, cfg, u, b)
        got = expand([Lanes(r) for r in reals],
                     [(Lanes(re), Lanes(im)) for re, im in pairs], Lanes([1.0] * b))
        for k in range(b):
            lane = expand([r[k] for r in reals], [(re[k], im[k]) for re, im in pairs], 1.0)
            assert bits(c[k] for c in got) == bits(lane)

    @pytest.mark.parametrize("strategy", [Uniform(), Mixture(), MultiplicityBias()],
                             ids=lambda s: type(s).__name__)
    def test_census_over_engine_draws(self, strategy):
        # every word a lane has, and every word at degree <= 4, over 8 shapes x 3 block sizes
        cfg = SearchConfig(n=1, seed=41, strategy=strategy)
        for pos, neg, npairs in SHAPES:
            d = pos + neg + 2 * npairs
            count = _pair_draw_count(pos, neg, npairs, strategy)
            for first, b in ((64, 64), (256, 256), (3, 3)):
                u = _unit_block(cfg.seed, first, b, count)
                reals, pairs = _pair_columns(pos, neg, npairs, cfg, u, b)
                lanes = [_pair_roots(pos, neg, npairs, cfg, u[k::b]) for k in range(b)]
                words = {sign_tuple(expand(r, p, 1.0)) for r, p in lanes} - {None}
                for t in sorted(words | (set(all_words(d)) if d <= 4 else set())):
                    assert sign_word_lanes(reals, pairs, t) == reference_lanes(lanes, t), t

    @pytest.mark.parametrize("name", list(CRAFTED) + list(threshold_lanes()))
    def test_crafted_lanes_match_has_sign_word(self, name):
        # the crafted lane alone, then at lanes 0, 3 and 9 of a block of ordinary lanes
        reals, pairs = {**CRAFTED, **threshold_lanes()}[name]
        block = fillers(reals, pairs, 12, seed=len(name))
        for k in (0, 3, 9):
            block[k] = (reals, pairs)
        for lanes in ([(reals, pairs)], block):
            cols = columns(lanes)
            for t in all_words(len(reals) + 2 * len(pairs)):
                assert sign_word_lanes(*cols, t) == reference_lanes(lanes, t), t

    def test_threshold_lanes_sit_on_tau(self):
        for name, (reals, pairs) in threshold_lanes().items():
            coeffs = expand(reals, pairs, 1.0)
            assert max(1.0, *map(abs, coeffs)) == 1.0
            a2 = abs(coeffs[2])
            where = name.rsplit("-", 1)[1]
            tau = DEFAULT_SIGN_TOLERANCE
            assert a2 == {"on": tau, "inside": math.nextafter(tau, 0.0),
                          "outside": math.nextafter(tau, INF)}[where]
            assert (sign_tuple(coeffs) is None) == (where != "outside")
