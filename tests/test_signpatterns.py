import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyrealize.signpatterns import (
    EmptyRunsError,
    IncompatibleCoupleError,
    PairCouple,
    RootCountPair,
    SignPattern,
    act_g1,
    act_g2,
    compatible_pairs,
    descartes_pair,
    from_runs,
    is_compatible_pair,
    orbit,
    parse_pattern,
)

words = st.builds(
    lambda tail: SignPattern((1,) + tuple(tail)),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=10),
)


def couples(pattern: SignPattern):
    return [PairCouple(pattern, pr) for pr in compatible_pairs(pattern)]


class TestRunsForm:
    def test_notation_example(self):
        assert from_runs((2, 1, 3, 1, 3)).word == "++-+++-+++"

    def test_three_run_example(self):
        assert from_runs((1, 3, 2)).word == "+---++"

    def test_single_run_all_plus(self):
        assert from_runs((6,)).word == "++++++"

    def test_empty_runs(self):
        with pytest.raises(EmptyRunsError):
            from_runs(())

    def test_zero_run_rejected(self):
        with pytest.raises(ValueError):
            from_runs((1, 0, 2))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_round_trip(self, runs):
        assert from_runs(runs).runs == tuple(runs)

    @given(words)
    def test_runs_sum(self, sigma):
        assert sum(sigma.runs) == sigma.degree + 1


class TestParse:
    def test_word_and_runs_agree(self):
        assert parse_pattern("+---++") == parse_pattern("1,3,2")

    @pytest.mark.parametrize("bad", ["", "-++", "+-x", "1,,2", "p n", "[1,2]"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_pattern(bad)

    def test_leading_minus_rejected(self):
        with pytest.raises(ValueError):
            SignPattern((-1, 1))

    @pytest.mark.parametrize("make, message", [
        (lambda: SignPattern(()), "empty sign pattern"),
        (lambda: SignPattern((1, 0)), "signs must be"),
        (lambda: SignPattern.from_word("+x"), "not a sign word"),
    ], ids=["empty", "zero-sign", "bad-letter"])
    def test_constructors_reject(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestDescartesPair:
    def test_examples(self):
        assert descartes_pair(from_runs((1, 3, 2))) == (2, 3)
        assert descartes_pair(SignPattern.from_word("+---+")) == (2, 2)
        assert descartes_pair(from_runs((6,))) == (0, 5)

    @given(words)
    def test_sum_is_degree(self, sigma):
        c, p = descartes_pair(sigma)
        assert c + p == sigma.degree


class TestCompatiblePairs:
    def test_examples(self):
        assert compatible_pairs(from_runs((1, 3, 2))) == [
            (0, 1), (0, 3), (2, 1), (2, 3),
        ]
        assert compatible_pairs(SignPattern.from_word("+---+")) == [
            (0, 0), (0, 2), (2, 0), (2, 2),
        ]
        assert compatible_pairs(SignPattern.from_word("+-")) == [(1, 0)]

    @given(words)
    def test_count_formula_and_predicate(self, sigma):
        c, p = descartes_pair(sigma)
        pairs = compatible_pairs(sigma)
        assert len(pairs) == (c // 2 + 1) * (p // 2 + 1)
        assert len(set(pairs)) == len(pairs)
        assert all(is_compatible_pair(sigma, pr) for pr in pairs)
        assert pairs == sorted(pairs)

    def test_incompatible_couple_rejected(self):
        with pytest.raises(IncompatibleCoupleError):
            PairCouple(from_runs((1, 3, 2)), RootCountPair(1, 1))


class TestGroupAction:
    def test_g1_grabiner(self):
        src = PairCouple(SignPattern.from_word("+---+"), RootCountPair(0, 2))
        dst = act_g1(src)
        assert dst.pattern.word == "++-++"
        assert tuple(dst.pair) == (2, 0)

    def test_g1_all_plus(self):
        d = 5
        src = PairCouple(from_runs((d + 1,)), RootCountPair(0, d))
        dst = act_g1(src)
        assert dst.pattern.word == "+-+-+-"
        assert tuple(dst.pair) == (d, 0)

    def test_g2_palindrome_fixed(self):
        src = PairCouple(SignPattern.from_word("+---+"), RootCountPair(0, 2))
        assert act_g2(src) == src

    def test_g2_reverses_runs(self):
        src = PairCouple(from_runs((1, 3, 2)), RootCountPair(0, 3))
        assert act_g2(src).pattern.runs == (2, 3, 1)
        assert act_g2(src).pair == src.pair

    @given(words, st.data())
    def test_involutions_and_commutation(self, sigma, data):
        pair = data.draw(st.sampled_from(compatible_pairs(sigma)))
        couple = PairCouple(sigma, pair)
        assert act_g1(act_g1(couple)) == couple
        assert act_g2(act_g2(couple)) == couple
        assert act_g1(act_g2(couple)) == act_g2(act_g1(couple))


class TestOrbit:
    def test_grabiner_orbit_is_the_two_couples(self):
        members = orbit(PairCouple(SignPattern.from_word("+---+"), RootCountPair(0, 2)))
        got = {(c.pattern.word, tuple(c.pair)) for c in members}
        assert got == {("+---+", (0, 2)), ("++-++", (2, 0))}

    def test_all_plus_orbit_size_two(self):
        # oracle: apply the two maps by hand; reversal fixes the all-plus word
        couple = PairCouple(from_runs((5,)), RootCountPair(0, 4))
        assert len(orbit(couple)) == 2

    @given(words, st.data())
    def test_orbit_sizes_and_canonical_idempotence(self, sigma, data):
        pair = data.draw(st.sampled_from(compatible_pairs(sigma)))
        couple = PairCouple(sigma, pair)
        members = orbit(couple)
        assert len(members) in (1, 2, 4)
        assert couple in members
        rep = members[0]
        assert orbit(rep)[0] == rep
        for m in members:
            assert orbit(m)[0] == rep
