from math import comb

import pytest

from polyrealize.catalog import (
    CatalogEntry,
    _pairs,
    UnknownIdError,
    catalog_ids,
    catalog_lookup,
    fixture_ids,
)
from polyrealize.certifier import Certificate, Mismatch, certify_couple, rationalize
from polyrealize.moduliorders import ModuliCouple
from polyrealize.polycore import expand_from_roots


class TestLookup:
    def test_named_entries_exist(self):
        for entry_id in ("grabiner-d4", "gap-d6-LmRp", "sigma1232-table",
                         "q1", "c1", "c2", "c3", "sigma341-witness"):
            assert isinstance(catalog_lookup(entry_id), CatalogEntry)

    def test_quadratic_with_real_roots_rejected(self):
        # x^2 - 2x + 1 has the double root 1, so it stands for no conjugate pair
        with pytest.raises(ValueError, match="has real roots"):
            _pairs((2.0, 1.0))

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            catalog_lookup("nope")

    def test_ids_sorted_and_unique(self):
        ids = catalog_ids()
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestGrabinerEntry:
    def test_two_couples_forming_one_orbit(self):
        from polyrealize.signpatterns import orbit

        couples = catalog_lookup("grabiner-d4").payload["couples"]
        assert len(couples) == 2
        assert set(orbit(couples[0])) == set(couples)


class TestFixturesReverify:
    def test_every_fixture_certifies_its_claim(self):
        for fid in fixture_ids():
            entry = catalog_lookup(fid)
            if "spec" not in entry.payload:
                continue
            spec = rationalize(entry.payload["spec"])
            got = certify_couple(spec, entry.payload["couple"])
            assert isinstance(got, Certificate), f"{fid}: {got}"

    def test_printed_coefficients_close_for_non_exempt(self):
        for fid in fixture_ids():
            entry = catalog_lookup(fid)
            if "spec" not in entry.payload or entry.payload["exempt_coeff_match"]:
                continue
            poly = expand_from_roots(entry.payload["spec"])
            printed = entry.payload["printed_coeffs"]
            assert len(poly.coeffs) == len(printed)
            for got, want in zip(poly.coeffs, printed):
                assert abs(got - want) <= 2e-2, fid

    def test_c1_adjudication(self):
        entry = catalog_lookup("c1")
        spec = rationalize(entry.payload["spec"])
        stated = entry.payload["stated_couple"]
        got = certify_couple(spec, stated)
        assert isinstance(got, Mismatch)
        assert got.failed_check == "sign_vector"
        assert got.actual_pattern.word == "+--++--+++"
        assert got.actual_pair == (2, 3)
        assert entry.payload["exempt_coeff_match"]

    def test_c2_adjudication(self):
        entry = catalog_lookup("c2")
        spec = rationalize(entry.payload["spec"])
        stated = entry.payload["stated_couple"]
        assert stated.pattern.runs == (1, 3, 1, 3, 2)
        got = certify_couple(spec, stated)
        assert isinstance(got, Mismatch)
        assert got.actual_pattern.runs == (1, 3, 2, 3, 1)
        # the claimed (adjudicated) couple is what certifies
        assert entry.payload["couple"].pattern.runs == (1, 3, 2, 3, 1)

    def test_moduli_fixture_claims_are_moduli_couples(self):
        for fid in fixture_ids():
            entry = catalog_lookup(fid)
            if fid.startswith("sigma1232-0") or fid.startswith("sigma1232-1") or \
               fid.startswith("sigma1232-2") or fid.startswith("sigma1232-3") or \
               fid == "sigma341-witness":
                assert isinstance(entry.payload["couple"], ModuliCouple)


class TestClassificationTable:
    def test_partition_of_35(self):
        payload = catalog_lookup("sigma1232-table").payload
        forced = set(payload["forced"])
        realizable = set(payload["realizable"])
        assert len(forced) == 14
        assert len(realizable) == 21
        assert not forced & realizable
        assert len(forced | realizable) == comb(7, 3)
        assert all(sum(b) == 4 and len(b) == 4 for b in forced | realizable)

    def test_concat_list_has_trailing_zero(self):
        payload = catalog_lookup("sigma1232-table").payload
        concat = payload["concat_realizable"]
        assert len(concat) == 15
        assert all(b[-1] == 0 for b in concat)
        assert set(concat) <= set(payload["realizable"])

    def test_witness_ids_resolve(self):
        payload = catalog_lookup("sigma1232-table").payload
        for bracket, fid in payload["witness_ids"].items():
            entry = catalog_lookup(fid)
            assert entry.payload["couple"].order.bracket == bracket
        assert set(payload["witness_ids"]) | set(payload["concat_realizable"]) == set(
            payload["realizable"]
        )

    def test_rigid_order_in_forced(self):
        payload = catalog_lookup("sigma1232-table").payload
        assert payload["rigid"] in payload["forced"]


class TestGapFixture:
    def test_payload(self):
        payload = catalog_lookup("gap-d6-LmRp").payload
        assert payload["roots"] == (-0.19, -0.18, 0.13, 0.21, 0.67, 0.96)
        assert payload["gap_class"] == "L-R+"
        assert len(payload["printed_xi"]) == 5

    def test_reverifies_exactly(self):
        from polyrealize.certifier import certify_gap_class, rationalize_value

        payload = catalog_lookup("gap-d6-LmRp").payload
        cert = certify_gap_class([rationalize_value(x) for x in payload["roots"]])
        assert isinstance(cert, Certificate)
        assert cert.claim == payload["gap_class"]
