import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_rootspec
from polyrealize.certifier import exact_expand, rationalize
from polyrealize.polycore import (
    RealPolynomial,
    RootSpec,
    ZeroRootError,
    derivative_coeffs,
    expand,
    expand_from_roots,
    expand_real,
    horner,
    sign_tuple,
)
from polyrealize.sampler import (
    Mixture,
    MultiplicityBias,
    SearchConfig,
    Uniform,
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
        cfg = SearchConfig(n=1, seed=2025, strategy=strategy)
        for attempt in range(1, 10**4 + 1):
            pos, neg, npairs = SHAPES[attempt % len(SHAPES)]
            spec = draw_rootspec_pair(pos + neg + 2 * npairs, (pos, neg), cfg, attempt)
            reals, pairs = list(spec.real_roots), list(spec.complex_pairs)
            want = bits(reference_float_expand(reals, pairs))
            assert bits(expand(reals, pairs, 1.0)) == want
            assert bits(expand_from_roots(spec).coeffs) == want

    def test_exact_path_equals_reference_loop(self):
        for case in range(1000):
            spec = rationalize(random_rootspec(31, case))
            got = exact_expand(spec)
            assert got == reference_exact_expand(spec)
            assert all(type(c) is Fraction for c in got)

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
