from array import array
from contextlib import nullcontext
from functools import partial
from math import comb

import pytest

from polyrealize import report, sampler
from polyrealize.certifier import Certificate
from polyrealize.moduliorders import parse_order
from polyrealize.sampler import Mixture, SearchConfig, search_moduli, search_pair
from polyrealize.signpatterns import (
    RootCountPair,
    is_compatible_pair,
    orbit,
)
from polyrealize.sweeps import (
    FORCED,
    REALIZED,
    UNRESOLVED,
    enumerate_couples,
    sweep_moduli,
    sweep_pairs,
)
from polyrealize.signpatterns import SignPattern, from_runs


def couple_count_formula(d: int) -> int:
    return sum(
        comb(d, c) * (c // 2 + 1) * ((d - c) // 2 + 1) for c in range(d + 1)
    )


class TestEnumerateCouples:
    def test_degree_one(self):
        couples = enumerate_couples(1)
        assert [(c.pattern.word, tuple(c.pair)) for c in couples] == [
            ("++", (0, 1)), ("+-", (1, 0)),
        ]

    def test_degree_four_count(self):
        # oracle: sum over change counts of (patterns) x (compatible pairs)
        assert couple_count_formula(4) == 46
        couples = enumerate_couples(4)
        assert len(couples) == 46
        assert all(is_compatible_pair(c.pattern, c.pair) for c in couples)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_count_formula(self, d):
        assert len(enumerate_couples(d)) == couple_count_formula(d)

    def test_deterministic_order(self):
        assert enumerate_couples(3) == enumerate_couples(3)

    def test_orbit_view(self):
        reps = {orbit(c)[0] for c in enumerate_couples(4)}
        assert all(orbit(c)[0] == c for c in reps)
        covered = set()
        for rep in reps:
            covered.update(orbit(rep))
        assert len(covered) == 46

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            enumerate_couples(0)


class TestSweepPairs:
    def test_degree_one_all_realized_at_first_attempt(self):
        rpt = sweep_pairs(1, SearchConfig(n=10, seed=1))
        assert rpt.totals == {REALIZED: 2, FORCED: 0, UNRESOLVED: 0}
        assert all(row.attempt_index == 1 for row in rpt.rows)

    def test_degree_three_fully_realizable(self):
        rpt = sweep_pairs(3, SearchConfig(n=10**4, seed=5))
        assert rpt.totals[UNRESOLVED] == 0
        assert all(
            isinstance(row.certificate, Certificate)
            for row in rpt.rows
            if row.status == REALIZED
        )

    def test_orbit_mode_degree_three(self):
        rpt = sweep_pairs(3, SearchConfig(n=10**4, seed=5), orbits=True)
        assert rpt.totals[UNRESOLVED] == 0
        derived = [row for row in rpt.rows if row.derived_from is not None]
        assert derived, "orbit mode derives non-canonical members"
        for row in derived:
            assert isinstance(row.certificate, Certificate)
            assert row.certificate.claim == row.couple

    def test_orbit_members_share_status(self):
        rpt = sweep_pairs(3, SearchConfig(n=10**4, seed=5), orbits=True)
        for group in rpt.orbits:
            statuses = {rpt.rows[i].status for i in group}
            assert len(statuses) == 1

    def test_json_determinism(self):
        cfg = SearchConfig(n=300, seed=12)
        a = report.dump_json(report.sweep_report_json("sweep pairs", sweep_pairs(2, cfg)))
        b = report.dump_json(report.sweep_report_json("sweep pairs", sweep_pairs(2, cfg)))
        assert a == b


class TestSweepModuli:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            sweep_moduli(SignPattern((1,)), SearchConfig(n=10))

    def test_sigma341_smoke(self):
        rpt = sweep_moduli(from_runs((3, 4, 1)), SearchConfig(n=2000, seed=5))
        assert len(rpt.rows) == comb(7, 2)
        assert rpt.totals[FORCED] == 0  # required sign is +, no minus-matching fits
        by_bracket = {row.couple.order.bracket: row for row in rpt.rows}
        assert by_bracket[(0, 0, 5)].status == REALIZED

    def test_forced_rows_carry_direction(self):
        rpt = sweep_moduli(from_runs((1, 2, 3, 2)), SearchConfig(n=50, seed=5))
        forced = [row for row in rpt.rows if row.status == FORCED]
        assert len(forced) == 14
        assert all(row.forced_direction == "+" for row in forced)
        assert all(row.attempts == 0 for row in forced)


def _search_stores(monkeypatch, name):
    """(store, its keys before the search) for every `sampler.<name>` search a sweep runs."""
    seen = []
    search = getattr(sampler, name)

    def recorded(sigma, target, cfg):
        store = sampler._SHARED.get()
        seen.append((store, set(store)))
        return search(sigma, target, cfg)

    monkeypatch.setattr(sampler, name, recorded)
    return seen


SHARED_SIGMA = from_runs((1, 2, 3, 2))
SHARED_CFG = SearchConfig(n=600, seed=2024, strategy=Mixture(narrow_scale=0.05))


class TestSharedBlocks:
    """A moduli sweep draws and sorts each block once for all of its orders."""

    @pytest.fixture
    def stores(self, monkeypatch):
        return _search_stores(monkeypatch, "search_moduli")

    def test_rows_equal_standalone_searches(self):
        rpt = sweep_moduli(SHARED_SIGMA, SHARED_CFG)
        searched = [row for row in rpt.rows if row.status != FORCED]
        assert len(searched) == 21
        for row in searched:
            out = search_moduli(SHARED_SIGMA, row.couple.order, SHARED_CFG)
            assert row.status == (REALIZED if out.found else UNRESOLVED)
            assert (row.attempts, row.attempt_index, row.spec, row.certificate) == (
                out.attempts, out.attempt_index, out.spec, out.certificate)
        # hits before and inside the lane blocks, and exhaustions through all of them
        hits = [row.attempt_index for row in searched if row.status == REALIZED]
        assert min(hits) < 64 <= max(hits)
        assert any(row.status == UNRESOLVED for row in searched)

    def test_each_block_is_drawn_and_sorted_once(self, monkeypatch):
        drawn, fronts = [], []
        unit_block, moduli_front = sampler._unit_block, sampler._moduli_front
        monkeypatch.setattr(sampler, "_unit_block",
                            lambda seed, first, b, count: drawn.append((first, b))
                            or unit_block(seed, first, b, count))
        monkeypatch.setattr(sampler, "_moduli_front",
                            lambda d, cfg, u, b: fronts.append(b) or moduli_front(d, cfg, u, b))
        sweep_moduli(SHARED_SIGMA, SHARED_CFG)
        assert sorted(drawn) == [(2**i, 2**i) for i in range(9)] + [(512, 89)]
        # inside a sweep a block is a front from _SHARED_LANE_MIN (8) attempts on
        assert fronts == [8, 16, 32, 64, 128, 256, 89]

    def test_store_is_open_only_during_a_sweep(self, stores):
        assert sampler._SHARED.get() is None
        sweep_moduli(SHARED_SIGMA, SHARED_CFG)
        assert sampler._SHARED.get() is None
        first_store, keys = stores[0]
        assert keys == set() and all(store is first_store for store, _ in stores)
        assert len(first_store) == 10  # the blocks 1, 2, ..., 256 and 512..600
        stores.clear()
        sweep_moduli(SHARED_SIGMA, SHARED_CFG)  # a second sweep starts from an empty store
        assert stores[0][0] is not first_store and stores[0][1] == set()
        assert sampler._SHARED.get() is None

    def test_store_is_dropped_when_a_search_raises(self, monkeypatch):
        search = sampler.search_moduli
        calls = []

        def failing(sigma, order, cfg):
            calls.append(order)
            if len(calls) == 3:
                raise RuntimeError("search failed")
            return search(sigma, order, cfg)

        monkeypatch.setattr(sampler, "search_moduli", failing)
        with pytest.raises(RuntimeError, match="search failed"):
            sweep_moduli(SHARED_SIGMA, SHARED_CFG)
        assert len(calls) == 3
        assert sampler._SHARED.get() is None

    def test_blocks_past_the_cap_are_not_stored(self, monkeypatch, stores):
        monkeypatch.setattr(sampler, "_SHARE_CAP", 100)
        rpt = sweep_moduli(SHARED_SIGMA, SHARED_CFG)
        store = stores[0][0]
        assert {key[2] for key in store} == {1, 2, 4, 8, 16, 32, 64}  # key[2] is the first attempt
        monkeypatch.undo()
        assert rpt == sweep_moduli(SHARED_SIGMA, SHARED_CFG)


PAIR_CFG = SearchConfig(n=600, seed=2024)
PAIR_BLOCKS = [(2**i, 2**i) for i in range(9)] + [(512, 89)]  # (first, b) up to 600


class TestPairSweepSharedBlocks:
    """A pair sweep draws each block once for all couples with its draw count."""

    @staticmethod
    def assert_rows_equal_standalone_searches(rpt, cfg, orbits=False):
        """Each row against a standalone search of its couple, or of its orbit's
        searched member; returns the attempt indices of the searches that hit.

        An orbit row's witness is mapped through g1/g2, so only the rows of a
        sweep without orbits are compared witness by witness.
        """
        searched = {}
        for row in rpt.rows:
            rep = row.derived_from or row.couple
            if rep not in searched:
                searched[rep] = search_pair(rep.pattern, rep.pair, cfg)
            out = searched[rep]
            assert row.status == (REALIZED if out.found else UNRESOLVED)
            assert (row.attempts, row.attempt_index) == (out.attempts, out.attempt_index)
            if not orbits:
                assert (row.spec, row.certificate) == (out.spec, out.certificate)
        return [out.attempt_index for out in searched.values() if out.found]

    @pytest.mark.parametrize("orbits", [False, True], ids=["couples", "orbits"])
    def test_rows_equal_standalone_searches(self, monkeypatch, orbits):
        rpt = sweep_pairs(4, PAIR_CFG, orbits=orbits)
        hits = self.assert_rows_equal_standalone_searches(rpt, PAIR_CFG, orbits)
        # hits before and inside the lane blocks, and exhaustions through all of them
        assert min(hits) < 64 <= max(hits)
        assert rpt.totals[UNRESOLVED] == 2
        # the whole report, mapped witnesses too, equals that of a sweep without the store
        monkeypatch.setattr(sampler, "_shared_blocks", nullcontext)
        assert rpt == sweep_pairs(4, PAIR_CFG, orbits=orbits)

    @pytest.mark.parametrize("orbits", [False, True], ids=["couples", "orbits"])
    def test_each_block_is_drawn_once_under_uniform(self, monkeypatch, orbits):
        drawn = []
        unit_block = sampler._unit_block
        monkeypatch.setattr(sampler, "_unit_block",
                            lambda seed, first, b, count: drawn.append((first, b, count))
                            or unit_block(seed, first, b, count))
        sweep_pairs(4, PAIR_CFG, orbits=orbits)
        assert sorted(drawn) == [(first, b, 4) for first, b in PAIR_BLOCKS]

    def test_mixture_couples_with_other_draw_counts_match_standalone_searches(
            self, monkeypatch):
        cfg = SearchConfig(n=600, seed=2024, strategy=Mixture())
        stores = _search_stores(monkeypatch, "search_pair")
        rpt = sweep_pairs(4, cfg)
        store = stores[0][0]
        # (pos + neg, pairs) = (4, 0), (2, 1) and (0, 2) draw 8, 7 and 6 uniforms
        assert {key[1] for key in store} == {6, 7, 8}
        monkeypatch.undo()
        hits = self.assert_rows_equal_standalone_searches(rpt, cfg)
        assert min(hits) < 64 <= max(hits)

    @pytest.mark.parametrize("moduli_first", [True, False], ids=["moduli-first", "pair-first"])
    def test_pair_draws_and_moduli_fronts_never_collide(self, moduli_first):
        # at degree 7 under Uniform both engines draw 7 uniforms per attempt,
        # so the two searches read and write blocks at the same (cfg, count, first, b)
        cfg = SearchConfig(n=300, seed=1)
        searches = [partial(search_moduli, SHARED_SIGMA, parse_order("NPPNNNP"), cfg),
                    partial(search_pair, SHARED_SIGMA, RootCountPair(1, 0), cfg)]
        if not moduli_first:
            searches.reverse()
        with sampler._shared_blocks():
            shared = [search() for search in searches]
            keys = set(sampler._SHARED.get())
        # the moduli fronts start at _SHARED_LANE_MIN (8) attempts; the pair search
        # keeps drawing those blocks, under the shorter draw key
        assert {key[2:4] for key in keys if len(key) == 5} == {
            (8, 8), (16, 16), (32, 32), (64, 64), (128, 128)}
        assert {key[2:4] for key in keys if len(key) == 4} == {
            (1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128)}
        hits = []
        for out, search in zip(shared, searches):
            alone = search()
            assert (out.attempt_index, out.spec, out.certificate) == (
                alone.attempt_index, alone.spec, alone.certificate)
            hits.append(out.attempt_index)
        assert sorted(hits) == [149, 152]  # both in the lane block of attempts 128..255

    def test_store_is_open_only_during_a_sweep(self, monkeypatch):
        stores = _search_stores(monkeypatch, "search_pair")
        assert sampler._SHARED.get() is None
        sweep_pairs(4, PAIR_CFG)
        assert sampler._SHARED.get() is None
        first_store, keys = stores[0]
        assert keys == set() and all(store is first_store for store, _ in stores)
        assert {key[2:] for key in first_store} == set(PAIR_BLOCKS)

    @pytest.mark.parametrize("orbits", [False, True], ids=["couples", "orbits"])
    def test_store_is_dropped_when_a_search_raises(self, monkeypatch, orbits):
        search = sampler.search_pair
        calls = []

        def failing(sigma, pair, cfg):
            calls.append(pair)
            if len(calls) == 3:
                raise RuntimeError("search failed")
            return search(sigma, pair, cfg)

        monkeypatch.setattr(sampler, "search_pair", failing)
        with pytest.raises(RuntimeError, match="search failed"):
            sweep_pairs(4, PAIR_CFG, orbits=orbits)
        assert len(calls) == 3
        assert sampler._SHARED.get() is None

    def test_blocks_past_the_cap_are_not_stored(self, monkeypatch):
        stores = _search_stores(monkeypatch, "search_pair")
        monkeypatch.setattr(sampler, "_SHARE_CAP", 100)
        rpt = sweep_pairs(4, PAIR_CFG)
        assert {key[2] for key in stores[0][0]} == {1, 2, 4, 8, 16, 32, 64}
        monkeypatch.undo()
        assert rpt == sweep_pairs(4, PAIR_CFG)

    def test_store_holds_capped_arrays(self, monkeypatch):
        """The store keeps arrays of at most _SHARE_CAP + _BLOCK_CAP attempts.

        Kept as lists of floats, the draws of the benchmark's pair sweeps
        raised its peak memory by 2.8 MB; as arrays, by about 0.4 MB.
        """
        stores = _search_stores(monkeypatch, "search_pair")
        sweep_pairs(4, SearchConfig(n=10**5, seed=2024))
        store = stores[0][0]
        assert all(type(v) is array and v.typecode == "d" for v in store.values())
        assert max(key[2] for key in store) > sampler._SHARE_CAP - sampler._BLOCK_CAP
        count = 4  # uniforms per attempt of every degree-4 couple under Uniform
        limit = (sampler._SHARE_CAP + sampler._BLOCK_CAP) * count * 8
        assert sum(v.itemsize * len(v) for v in store.values()) <= limit
