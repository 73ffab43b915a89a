from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_rootspec
from polyrealize.moduliorders import (
    ForcedConflict,
    ModuliCouple,
    ModuliOrder,
    TiedModuliError,
    enumerate_orders,
    forcing_test,
    is_compatible,
    order_from_roots,
    parse_order,
)
from polyrealize.polycore import ZeroRootError, expand_from_roots, sign_tuple
from polyrealize.signpatterns import IncompatibleCoupleError, SignPattern, from_runs

S1232 = from_runs((1, 2, 3, 2))

EQ13_BRACKETS = [
    (0, 0, 0, 4), (0, 0, 1, 3), (0, 0, 2, 2), (0, 0, 3, 1), (0, 1, 0, 3),
    (0, 1, 1, 2), (0, 1, 2, 1), (0, 2, 0, 2), (0, 2, 1, 1), (1, 0, 0, 3),
    (1, 0, 2, 1), (1, 0, 1, 2), (1, 1, 0, 2),
]


def brute_force_has_matching(word: str, small: str, large: str) -> bool:
    """Oracle: try every injective assignment of `small` letters to later `large` ones."""
    spos = [i for i, ch in enumerate(word) if ch == small]
    lpos = [i for i, ch in enumerate(word) if ch == large]
    if len(spos) > len(lpos):
        return False
    return any(
        all(l > s for s, l in zip(spos, perm))
        for perm in permutations(lpos, len(spos))
    )


class TestOrderFromRoots:
    def test_interleaved_example(self):
        # moduli a1 < g1 < a2 < g2 < g3 < a3 < g4 with signs + - + - - + -
        roots = [1.0, -2.0, 3.0, -4.0, -5.0, 6.0, -7.0]
        order = order_from_roots(roots)
        assert order.word == "PNPNNPN"
        assert order.bracket == (0, 1, 2, 1)

    def test_degree7_witness(self):
        roots = [0.77, 4.28, -4.31, -4.47, -4.59, -4.68, -4.91]
        order = order_from_roots(roots)
        assert order.word == "PPNNNNN"
        assert order.bracket == (0, 0, 5)

    def test_single_negative(self):
        assert order_from_roots([-2.0]).word == "N"

    def test_tied_moduli(self):
        with pytest.raises(TiedModuliError):
            order_from_roots([1.0, -1.0])

    def test_zero_root(self):
        with pytest.raises(ZeroRootError):
            order_from_roots([0.0, 1.0])


class TestBracketForm:
    def test_parse_both_grammars(self):
        assert parse_order("PNPNNPN") == parse_order("[0,1,2,1]")

    @pytest.mark.parametrize("bad", ["", "PNX", "[1,2", "0,1,2", "pn"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_order(bad)

    @pytest.mark.parametrize("word", ["", "PXN"])
    def test_constructor_rejects_a_bad_word(self, word):
        with pytest.raises(ValueError, match="order word must be a nonempty string"):
            ModuliOrder(word)

    def test_empty_bracket_names_itself(self):
        with pytest.raises(ValueError, match=r"bracket \[0\] describes no modulus"):
            parse_order("[0]")

    def test_negative_bracket_entry_rejected(self):
        with pytest.raises(ValueError, match="bracket entries must be >= 0"):
            ModuliOrder.from_bracket((1, -1))

    @given(st.integers(0, 4), st.integers(0, 5))
    def test_word_bracket_round_trip(self, c, p):
        if c + p == 0:
            return
        for order in enumerate_orders(c, p):
            assert ModuliOrder.from_bracket(order.bracket) == order
            assert len(order.bracket) == order.p_count + 1
            assert sum(order.bracket) == order.n_count


class TestEnumerateOrders:
    def test_counts(self):
        assert len(enumerate_orders(3, 4)) == 35
        assert len(enumerate_orders(2, 4)) == 15
        assert enumerate_orders(0, 4) == [ModuliOrder("NNNN")]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="counts must be >= 0"):
            enumerate_orders(-1, 2)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_count_formula_distinct(self, c, p):
        if c + p == 0:
            return
        orders = enumerate_orders(c, p)
        assert len(orders) == comb(c + p, c)
        assert len(set(o.word for o in orders)) == len(orders)


class TestCompatibility:
    def test_examples(self):
        assert is_compatible(S1232, parse_order("[0,1,2,1]"))
        assert not is_compatible(S1232, ModuliOrder("PPNNNNN"))
        assert is_compatible(from_runs((3, 4, 1)), parse_order("[0,0,5]"))

    def test_couple_validation(self):
        with pytest.raises(IncompatibleCoupleError):
            ModuliCouple(S1232, ModuliOrder("PN"))


class TestForcingTest:
    def test_all_negatives_above(self):
        got = forcing_test(S1232, parse_order("[0,0,0,4]"))
        assert isinstance(got, ForcedConflict)
        assert got.direction == "+"

    def test_inconclusive_case(self):
        # brute-force oracle: no injective matching exists for [0,3,0,1]
        word = parse_order("[0,3,0,1]").word
        assert not brute_force_has_matching(word, "P", "N")
        assert forcing_test(S1232, parse_order("[0,3,0,1]")) is None

    def test_alternating_order_forced(self):
        # oracle: each positive matches the next negative up
        word = parse_order("[1,1,1,1]").word
        assert brute_force_has_matching(word, "P", "N")
        got = forcing_test(S1232, parse_order("[1,1,1,1]"))
        assert isinstance(got, ForcedConflict) and got.direction == "+"

    def test_exactly_fourteen_forced_on_1232(self):
        forced = [
            o.bracket
            for o in enumerate_orders(3, 4)
            if isinstance(forcing_test(S1232, o), ForcedConflict)
        ]
        assert len(forced) == 14
        assert set(forced) == set(EQ13_BRACKETS) | {(1, 1, 1, 1)}

    def test_matches_brute_force_oracle_everywhere(self):
        sigma = S1232
        required = sigma.signs[1]
        for order in enumerate_orders(3, 4):
            expect_plus = brute_force_has_matching(order.word, "P", "N") and required == -1
            expect_minus = brute_force_has_matching(order.word, "N", "P") and required == 1
            got = forcing_test(sigma, order)
            assert isinstance(got, ForcedConflict) == (expect_plus or expect_minus)

    def test_minus_direction(self):
        # pattern ++-+ needs a positive subdominant sign; with the single
        # negative modulus below both positives the sign is forced negative
        sigma = from_runs((2, 1, 1))  # ++-+ : c=2, p=1
        got = forcing_test(sigma, ModuliOrder("NPP"))
        assert isinstance(got, ForcedConflict) and got.direction == "-"

    def test_matching_evidence_is_valid(self):
        got = forcing_test(S1232, parse_order("[0,0,0,4]"))
        ppos = {i for i, ch in enumerate("PPPNNNN") if ch == "P"}
        seen = set()
        for p_i, n_i in got.matching:
            assert p_i in ppos and n_i > p_i and n_i not in seen
            seen.add(n_i)

    def test_incompatible_raises(self):
        with pytest.raises(IncompatibleCoupleError):
            forcing_test(S1232, ModuliOrder("PN"))

    def test_sound_on_sampled_hyperbolic(self):
        # an order extracted from actual roots can never conflict with the
        # actual sign pattern of those roots
        checked = 0
        for case in range(4000):
            spec = random_rootspec(314, case)
            if spec.complex_pairs or spec.degree < 1:
                continue
            try:
                order = order_from_roots(spec.real_roots)
            except TiedModuliError:
                continue
            sv = sign_tuple(expand_from_roots(spec).coeffs)
            if sv is None:
                continue
            assert forcing_test(SignPattern(sv), order) is None
            checked += 1
        assert checked > 500
