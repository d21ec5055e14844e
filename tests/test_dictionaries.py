from fractions import Fraction

import pytest

from pwuncert.dictionaries import (
    N_MAX,
    DictionaryId,
    closed_sigma_w2,
    closed_sigma_x2,
    dict_table,
    envelope,
    prefactor_sq,
    row,
    verify_minimizer,
)
from pwuncert.moments import INF
from pwuncert.piecewise import tent


class TestIdentifiers:
    def test_valid_ranges(self):
        DictionaryId("G", 0)
        DictionaryId("F", 1)
        with pytest.raises(ValueError):
            DictionaryId("F", 0)
        with pytest.raises(ValueError):
            DictionaryId("G", -1)
        with pytest.raises(ValueError):
            DictionaryId("H", 1)


class TestEnvelopes:
    def test_g1_is_the_tent(self):
        assert envelope(DictionaryId("G", 1)) == tent()

    def test_g0_is_a_boxcar(self):
        g0 = envelope(DictionaryId("G", 0))
        assert g0.support == (Fraction(-1), Fraction(1))
        assert g0(0) == 1
        assert g0("1/2") == 1

    def test_f_family_values(self):
        f2 = envelope(DictionaryId("F", 2))
        assert f2(0) == 1
        assert f2("1/2") == Fraction(3, 4)
        assert f2(1) == 0

    @pytest.mark.parametrize("family,n", [("G", 1), ("G", 4), ("F", 1), ("F", 5)])
    def test_prefactor_normalizes_mass(self, family, n):
        ident = DictionaryId(family, n)
        shape = envelope(ident)
        assert prefactor_sq(ident) * shape.moment(0, squared=True) == 1


class TestClosedForms:
    # row() raises ClosedFormMismatch unless the moments pipeline reproduces
    # the closed forms exactly, so constructing rows is itself the test
    @pytest.mark.parametrize("family", ["G", "F"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pipeline_matches_closed_forms(self, family, n):
        r = row(DictionaryId(family, n))
        assert r.sigma_x2 == closed_sigma_x2(DictionaryId(family, n))
        assert r.sigma_w2 == closed_sigma_w2(DictionaryId(family, n))

    def test_g0_diverges(self):
        r = row(DictionaryId("G", 0))
        assert r.sigma_w2 == INF
        assert r.uncertainty == INF

    def test_known_values(self):
        assert row(DictionaryId("G", 2)).uncertainty == Fraction(20, 63)
        assert row(DictionaryId("F", 3)).uncertainty == Fraction(196, 405)


class TestTablesAndMinimizer:
    def test_table_order_and_floats(self):
        rows = dict_table("G", 4)
        assert [r.n for r in rows] == [0, 1, 2, 3, 4]
        finite = rows[2]
        assert float(finite.uncertainty) == 20 / 63
        assert dict_table("F", 3)[0].n == 1

    def test_minimizer_small_scan(self):
        rep = verify_minimizer("G")
        assert rep.argmin_n == 1
        assert rep.min_uncertainty == Fraction(3, 10)
        assert rep.strictly_increasing
        assert rep.all_below_half
        assert rep.ok

    def test_minimizer_f_growth_rate(self):
        rep = verify_minimizer("F")
        assert rep.argmin_n == 1
        assert rep.strictly_increasing
        assert rep.all_below_half is None
        assert rep.ok
        # the n/6 rate itself is a `verify` row, on the pipeline row at N_MAX
        ratio = row(DictionaryId("F", N_MAX)).uncertainty / Fraction(N_MAX, 6)
        assert Fraction(49, 50) <= ratio <= Fraction(51, 50)
