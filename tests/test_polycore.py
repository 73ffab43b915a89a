import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import at_ell, bits, lane_verdicts, q1_spec, random_rootspec, reference_draw_count
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
    horner,
    sign_tuple,
)
from polyrealize.sampler import (
    Mixture,
    MultiplicityBias,
    SearchConfig,
    Uniform,
    _distinct_draws,
    _moduli_front,
    _sign_kernel,
    _unit_block,
    draw_rootspec_pair,
)
from polyrealize.signpatterns import SignPattern

GAP_D6_ROOTS = (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96)


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


class TestRootSpecMap:
    def test_maps_every_real_root_and_both_parts_of_every_pair(self):
        spec = RootSpec(real_roots=(0.5, -2.0), complex_pairs=((0.25, 1.5), (-1.0, 0.75)))
        got = spec.map(lambda v: Fraction(v) * 2)
        assert got.real_roots == (Fraction(1), Fraction(-4))
        assert got.complex_pairs == ((Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(3, 2)))
        assert {type(v) for v in got.real_roots + sum(got.complex_pairs, ())} == {Fraction}
        assert spec.map(lambda v: v) == spec

    def test_result_is_validated(self):
        spec = RootSpec(real_roots=(1.0,), complex_pairs=((0.0, 1.0),))
        with pytest.raises(ZeroRootError):
            spec.map(lambda v: v - 1.0)
        with pytest.raises(ValueError, match="im > 0"):
            spec.map(lambda v: -v)


class TestEvaluate:
    def test_simple(self):
        p = RealPolynomial((0.0, -1.0))  # x^2 - 1
        assert horner(p.coeffs, 2.0) == 3.0
        assert horner(p.coeffs, 1.0) == 0.0

    def test_gap_witness_at_zero(self):
        p = RealPolynomial(tuple(expand(list(GAP_D6_ROOTS), (), 1.0)[1:]))
        assert abs(horner(p.coeffs, 0.0) - 0.000600530112) < 1e-15


class TestDerivative:
    def test_gap_witness_derivative(self):
        p = RealPolynomial(tuple(expand(list(GAP_D6_ROOTS), (), 1.0)[1:]))
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


def words(degree):
    """Every sign word of length degree + 1 with a leading +, as SignPattern.signs is."""
    return [(1, *w) for w in itertools.product((1, -1), repeat=degree)]


def a1_sum(reals, pairs):
    """a_1 summed as the kernels sum it: the reals, then 2*re per pair."""
    a1 = 0.0
    for r in reals:
        a1 -= r
    for re, _ in pairs:
        a1 -= 2 * re
    return a1


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

TAU = DEFAULT_SIGN_TOLERANCE


def root_kernel(nreals, npairs, target, tau=TAU, letters=None):
    """The root-column reader's sign kernel for the shape, bound to target and tau."""
    letters = [1.0] * nreals if letters is None else letters
    return _sign_kernel(nreals, 0, npairs, None, "word")[1](None, target, tau, letters)


def columns(lanes):
    """The block of lanes that share a shape, lanes[k] = (reals, pairs), column-major:
    value t of lane k (its reals, then each pair's re and im) at k + t*b."""
    rows = [[*reals, *(v for pair in pairs for v in pair)] for reals, pairs in lanes]
    return [v for col in zip(*rows) for v in col]


def reference_word(reals, pairs, tau=TAU):
    return sign_tuple(expand(reals, pairs, 1.0), tau)


def assert_kernel_is_the_reference(kernel_for, u, lanes, targets, tau=TAU):
    """kernel_for(t) passes lane k exactly when sign_tuple of its expansion is t, for
    every t in targets and every word a lane has, and returns its roots bit for bit."""
    want = [reference_word(reals, pairs, tau) for reals, pairs in lanes]
    for t in sorted(set(targets) | set(want) - {None}):
        verdicts = lane_verdicts(kernel_for(t), u, len(lanes))
        for k, (reals, pairs) in enumerate(lanes):
            got = verdicts[k]
            assert (got is not None) == (want[k] == t), (reals, pairs, t)
            if got is not None:
                assert bits(got[0]) == bits(reals), (k, t)
                assert bits(v for p in got[1] for v in p) == bits(v for p in pairs for v in p)
    return want


def assert_root_kernel_is_the_reference(lanes, targets, tau=TAU):
    nreals, npairs = len(lanes[0][0]), len(lanes[0][1])
    return assert_kernel_is_the_reference(lambda t: root_kernel(nreals, npairs, t, tau),
                                          columns(lanes), lanes, targets, tau)


LANE_VALUES = [0.0, -0.0, 1.0, -1.5, 0.1, 3.0, 1e308, -1e308, 5e-324, INF, -INF, math.nan]


def fillers(reals, pairs, count, seed):
    """`count` ordinary lanes with the shape of (reals, pairs)."""
    rng = random.Random(seed)
    return [([rng.choice((1, -1)) * rng.uniform(0.1, 2.0) for _ in reals],
             [(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)) for _ in pairs])
            for _ in range(count)]


# (reals, pairs) whose largest coefficient is a_1, on the edge 1e9 (see inverse_edge)
# or one ulp inside it as expand sums it, and on the other side of the edge when summed
# in another order: the reals from the last one ("reals-reversed") or the pairs first
A1_ORDER_LANES = {
    "a1-on-edge-reals-reversed-inside": ([-1000000000.0999999, 0.3, -0.2], []),
    "a1-on-edge-pairs-first-inside": ([0.18, -999999999.3399999], [(-0.42, 0.5)]),
    "a1-inside-pairs-first-on-edge": ([0.71, -999999999.81], [(-0.45, 0.5)]),
}


def a1_other_order(name, reals, pairs):
    """a_1 of an A1_ORDER_LANES lane summed in the other order its name gives."""
    if "reals-reversed" in name:
        return a1_sum(reals[::-1], pairs)
    a1 = 0.0
    for re, _ in pairs:
        a1 -= 2 * re
    for r in reals:
        a1 -= r
    return a1


def inverse_edge(tau):
    """The least m with tau * m >= 1.0 in floats: from max|a_j| = m on, the leading
    1.0 is inside sign_tuple's threshold.  It is 1e9 for the default tau."""
    m = 1 / tau
    while tau * m >= 1.0:
        m = math.nextafter(m, 0.0)
    while tau * m < 1.0:
        m = math.nextafter(m, INF)
    return m


def threshold_lanes(tau=TAU):
    """Lanes on the edges of sign_tuple's threshold tau * max(1, max|a_j|).

    Degree 2, a_2 at tau itself, one ulp inside and one ulp outside:
    (x - t)(x + 1/2) has a_1 = 1/2 - t and a_2 = -t/2, halved exactly, so
    max(1, max|a|) is 1 and the threshold is tau; -t gives +t/2.  Degree 2,
    max|a_j| at `inverse_edge(tau)`, one ulp inside, on and one ulp outside:
    (x - 2)(x + v/2) has a_2 = -v exactly, so the threshold is tau * v and
    the leading 1.0 decides the word.  And A1_ORDER_LANES, whose a_1 sits
    on that edge or one ulp inside it depending on its order of summation.
    """
    t = 2 * tau
    out = {}
    for name, v in (("on", t), ("inside", math.nextafter(t, 0.0)),
                    ("outside", math.nextafter(t, INF))):
        out[f"a2-minus-tau-{name}"] = ([v, -0.5], [])
        out[f"a2-plus-tau-{name}"] = ([-v, -0.5], [])
    edge = inverse_edge(tau)
    for name, v in (("inside", math.nextafter(edge, 0.0)), ("on", edge),
                    ("outside", math.nextafter(edge, INF))):
        out[f"max-at-inverse-tau-{name}"] = ([2.0, -v / 2], [])
    return {**out, **A1_ORDER_LANES}


def grid_lanes(pos, neg, npairs):
    """Ordinary lanes of the shape with two of their root parts (one, at degree 1) set
    to every pair of LANE_VALUES, for each two parts."""
    nreals = pos + neg
    parts = nreals + 2 * npairs
    lanes = []
    for spot in itertools.combinations(range(parts), min(parts, 2)):
        for values in itertools.product(LANE_VALUES, repeat=len(spot)):
            reals, pairs = fillers([0.0] * nreals, [(0.0, 0.0)] * npairs, 1, seed=len(lanes))[0]
            flat = reals + [v for pair in pairs for v in pair]
            for i, v in zip(spot, values):
                flat[i] = v
            lanes.append((flat[:nreals], list(zip(flat[nreals::2], flat[nreals + 1::2]))))
    return lanes


# the shapes above, plus degree 1, pairs only and a moduli search's degree 7
KERNEL_SHAPES = SHAPES + [(0, 1, 0), (0, 0, 1), (0, 0, 2), (1, 2, 0), (3, 4, 0)]


class TestRootColumnKernel:
    """The sign kernel that reads roots from columns (a moduli search's reader)."""

    @pytest.mark.parametrize("name", list(CRAFTED) + list(threshold_lanes()))
    def test_crafted_lanes_match_the_reference(self, name):
        # the crafted lane alone, then at lanes 0, 3 and 9 of a block of ordinary lanes
        reals, pairs = {**CRAFTED, **threshold_lanes()}[name]
        block = fillers(reals, pairs, 12, seed=len(name))
        for k in (0, 3, 9):
            block[k] = (reals, pairs)
        for lanes in ([(reals, pairs)], block):
            assert_root_kernel_is_the_reference(lanes, words(len(reals) + 2 * len(pairs)))

    @pytest.mark.parametrize("name", list(CRAFTED))
    def test_expand_a1_is_the_running_sum(self, name):
        # the a_1 test relies on expand(...)[1] being this sum, signed zeros included
        reals, pairs = CRAFTED[name]
        got, want = a1_sum(reals, pairs), expand(reals, pairs, 1.0)[1]
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        # the sum starts at +0.0 and x - y is -0.0 only when x is, so a zero a_1 is
        # +0.0: "a1-zero" and "a1-nan" are the zero and NaN lanes of the a_1 test
        assert got != 0.0 or math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("shape", [s for s in KERNEL_SHAPES if sum(s) <= 4], ids=str)
    def test_lane_values_grid(self, shape):
        # +-0.0, +-inf, NaN, 5e-324 and +-1e308 in every two root parts of a lane
        pos, neg, npairs = shape
        d = pos + neg + 2 * npairs
        assert_root_kernel_is_the_reference(grid_lanes(pos, neg, npairs),
                                            words(d) if d <= 4 else [])

    def test_threshold_lanes_sit_on_the_edges(self):
        lanes = threshold_lanes()
        for name, (reals, pairs) in lanes.items():
            coeffs = expand(reals, pairs, 1.0)
            where = name.rsplit("-", 1)[1]
            if name.startswith("a2-"):
                assert max(1.0, *map(abs, coeffs)) == 1.0
                assert abs(coeffs[2]) == {"on": TAU, "inside": math.nextafter(TAU, 0.0),
                                          "outside": math.nextafter(TAU, INF)}[where]
                assert (sign_tuple(coeffs) is None) == (where != "outside")
            elif name.startswith("max-"):
                edge = inverse_edge(TAU)
                assert max(map(abs, coeffs)) == abs(coeffs[2]) == {
                    "on": edge, "inside": math.nextafter(edge, 0.0),
                    "outside": math.nextafter(edge, INF)}[where]
                # only the leading 1.0 fails: every a_j lies above tau * max|a_j|
                assert (sign_tuple(coeffs) is None) == (where != "inside")
                assert strictly_above_threshold(coeffs[1:])
        # a_1 on one side of the edge as expand sums it, on the other in the other order,
        # and that alone decides whether the word is ambiguous
        edge = inverse_edge(TAU)
        assert edge == 1e9
        for name, (reals, pairs) in A1_ORDER_LANES.items():
            coeffs = expand(reals, pairs, 1.0)
            other = a1_other_order(name, reals, pairs)
            assert coeffs[1] == a1_sum(reals, pairs) == max(map(abs, coeffs))
            assert {coeffs[1], other} == {edge, math.nextafter(edge, 0.0)}
            assert (coeffs[1] == edge) == name.startswith("a1-on-edge")
            assert (sign_tuple(coeffs) is None) == (coeffs[1] == edge)
            assert (sign_tuple([1.0, other, *coeffs[2:]]) is None) == (other == edge)

    @pytest.mark.parametrize("tau", [1e-3, 0.25])
    def test_the_bound_tau_is_the_threshold(self, tau):
        # the kernel compares with the tau it is bound to, on its own threshold lanes
        for reals, pairs in threshold_lanes(tau).values():
            assert_root_kernel_is_the_reference([(reals, pairs)],
                                                words(len(reals) + 2 * len(pairs)), tau)
        for name in CRAFTED:
            reals, pairs = CRAFTED[name]
            assert_root_kernel_is_the_reference([(reals, pairs)],
                                                words(len(reals) + 2 * len(pairs)), tau)

    def test_letters_set_the_signs_of_the_roots(self):
        # root j is l_j times its column, an exact negation where l_j is -1.0
        lanes = fillers([1.0] * 4, [], 64, seed=3) + [([0.0, -0.0, INF, math.nan], [])]
        block = columns([([abs(r) for r in reals], pairs) for reals, pairs in lanes])
        for letters in itertools.product((1.0, -1.0), repeat=4):
            signed = [([l * abs(r) for l, r in zip(letters, reals)], pairs)
                      for reals, pairs in lanes]
            assert_kernel_is_the_reference(
                lambda t: root_kernel(4, 0, t, letters=letters), block, signed, words(4))


def strictly_above_threshold(tail):
    m = max(1.0, *map(abs, tail))
    return all(abs(c) > TAU * m for c in tail)


SEARCH_STRATEGIES = [
    Uniform(), Mixture(), Mixture(narrow_scale=0.05, narrow_fraction=0.3),
    MultiplicityBias(), MultiplicityBias(dup_probability=0.9),
]
KERNEL_ELLS = [2.0**-30, 0.7, 1.0, 3e5, 1e-300, 1.7e308]


def census_blocks(blocks):
    """Blocks of 1 and 7 attempts, then `blocks` blocks of 64."""
    return [(1, 1), (2, 7)] + [(9 + 64 * i, 64) for i in range(blocks)]


class TestSignKernel:
    """The pair search's sign kernels, which read unit draws, against the reference."""

    @pytest.mark.parametrize("blocks", [1, pytest.param(64, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("ell", KERNEL_ELLS)
    @pytest.mark.parametrize("strategy", SEARCH_STRATEGIES, ids=repr)
    def test_census_over_engine_draws(self, strategy, ell, blocks):
        # every word at degree <= 4 and every word a lane has, lane by lane, on the
        # roots the shape's draw kernel forms from the same draws
        cfg = SearchConfig(n=1, ell=ell, seed=41, strategy=at_ell(strategy, ell))
        seen = set()
        for pos, neg, npairs in KERNEL_SHAPES:
            d = pos + neg + 2 * npairs
            kind = type(strategy)
            count, bind = _sign_kernel(pos, neg, npairs, kind, None)
            assert count == reference_draw_count(pos, neg, npairs, strategy)
            draw = bind(cfg)
            for first, b in census_blocks(blocks):
                u = _unit_block(cfg.seed, first, b, count)
                lanes = draw(u, 0, b)
                assert len(lanes) == b
                seen.update(assert_kernel_is_the_reference(
                    lambda t: _sign_kernel(pos, neg, npairs, kind, "word")[1](cfg, t, TAU),
                    u, lanes, words(d) if d <= 4 else []))
        if ell in (0.7, 1.0):  # lanes of several words; at other scales most are ambiguous
            assert len(seen - {None}) > 1

    @pytest.mark.parametrize("ell", KERNEL_ELLS)
    @pytest.mark.parametrize("strategy", SEARCH_STRATEGIES, ids=repr)
    def test_moduli_census_over_engine_fronts(self, strategy, ell):
        # a moduli search's kernels on its fronts: every order up to degree 4 and eight
        # at degree 7, every word up to degree 4 and every word a lane has; a tied
        # lane, NaN in the front, has no word
        cfg = _distinct_draws(SearchConfig(n=1, ell=ell, seed=43, strategy=at_ell(strategy, ell)))
        for d in (1, 2, 3, 4, 7):
            count, bind = _sign_kernel(d, 0, 0, type(cfg.strategy), None)
            assert count == reference_draw_count(d, 0, 0, cfg.strategy)
            draw = bind(cfg)
            orders = list(itertools.product((1.0, -1.0), repeat=d))
            for first, b in census_blocks(1):
                u = _unit_block(cfg.seed, first, b, count)
                front = _moduli_front(draw, u, b)
                for letters in orders if d <= 4 else orders[::16]:
                    lanes = [([l * m for l, m in zip(letters, front[k::b])], [])
                             for k in range(b)]
                    assert_kernel_is_the_reference(
                        lambda t: root_kernel(d, 0, t, letters=letters), front, lanes,
                        words(d) if d <= 4 else [])
