"""How the `verify` groups reach their verdicts: one bound check per seeded
case, pipeline rows for the asymptotic claims, and the seed from
UNCERT_SEED."""

import random

import pytest

from pwuncert import symmetry, verify
from pwuncert.dictionaries import DictionaryId, row
from pwuncert.symmetry import random_f_plus_zero, reflections, theorem_bound_check


def test_properties_make_one_bound_check_per_case(monkeypatch):
    calls, splits = [], []

    def counting(f, **kwargs):
        calls.append(f)
        return theorem_bound_check(f, **kwargs)

    def splitting(f, axis):
        splits.append(f)
        return reflections(f, axis)

    monkeypatch.setattr(verify, "theorem_bound_check", counting)
    monkeypatch.setattr(symmetry, "reflections", splitting)
    assert all(r.ok for r in verify.check_properties())
    assert len(calls) == verify.PROPERTY_CASES
    assert splits == calls  # the halves come from the bound check's split


def test_minimizer_asymptotes_read_pipeline_rows(monkeypatch):
    built = []

    def recording(ident):
        built.append(ident)
        return row(ident)

    monkeypatch.setattr(verify, "row", recording)
    assert all(r.ok for r in verify.check_minimizer())
    assert set(built) == {DictionaryId("G", 100), DictionaryId("F", 100)}


@pytest.mark.parametrize("group", ["properties", "population-oracle"])
def test_seeded_groups_draw_from_uncert_seed(monkeypatch, group):
    monkeypatch.setenv("UNCERT_SEED", "5")
    drawn = []

    def recording(rng):
        drawn.append(random_f_plus_zero(rng))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_f_plus_zero", recording)
    assert all(r.ok for r in verify.CHECK_GROUPS[group]())
    rng = random.Random(5)
    assert drawn == [random_f_plus_zero(rng) for _ in range(verify.PROPERTY_CASES)]
