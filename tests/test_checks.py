"""The exhaustive matching-law sweeps behind the check subcommands."""

import dataclasses

import pytest

from koszuldepth import checks
from koszuldepth.bits import match_tables, psi_index_table, submasks
from koszuldepth.checks import (
    check_greedy_agreement,
    check_index_equivalence,
    check_inverse_law,
)
from koszuldepth.subsets import Subset

from helpers import all_element_sets, index_by_psi, naive_index_disagreements


def test_bulk_index_table_equals_percall_oracle():
    # the one-pass downward push gives, per support, what the exponential
    # per-pair search gives
    for n in range(1, 8):
        tables = match_tables(n)
        sets = list(all_element_sets(n))
        for m_mask, M in enumerate(sets):
            table = psi_index_table(tables, m_mask)
            for g_mask in submasks(m_mask):
                assert table[g_mask] == index_by_psi(n, sets[g_mask], M)


def test_inverse_law_sweep():
    rep = check_inverse_law(10)
    assert rep.passed
    assert rep.counts["subsets"] == 1024
    assert rep.counts["failures"] == 0
    assert "inverse law" in rep.text()


def test_inverse_law_psi_defined_count():
    # n=2: psi is defined exactly on {1} and {1,2}
    rep = check_inverse_law(2)
    assert rep.passed and rep.counts["psi_defined"] == 2


def test_index_equivalence_sweep():
    for n in range(1, 11):
        rep = check_index_equivalence(n)
        assert rep.passed
        assert rep.counts["pairs"] == 3 ** n
        assert rep.counts["failures"] == 0


@pytest.mark.parametrize(
    "field, mask, wrong",
    [
        # phi({2,4}) is {2,4,5}; insert 1 instead
        ("phi", 0b001010, 0b001011),
        # psi({2,3,5}) is {2,5}; delete 2 instead of the first peak 3
        ("psi", 0b010110, 0b010100),
        # psi({1,4,5}) is {4,5}; {1,5} makes it a second preimage of {1,5}
        # beside {1,2,5}, so the longer of two chains must win
        ("psi", 0b011001, 0b010001),
    ],
)
def test_index_equivalence_fails_on_corrupted_table(monkeypatch, field, mask, wrong):
    # negative control: one wrong entry in one table must be reported, pair
    # for pair, as the per-pair walks over the same tables report it
    n = 6
    tables = match_tables(n)
    entries = list(getattr(tables, field))
    assert entries[mask] not in (None, wrong)
    entries[mask] = wrong
    corrupted = dataclasses.replace(tables, **{field: tuple(entries)})
    monkeypatch.setattr(checks, "match_tables", lambda _n: corrupted)
    rep = check_index_equivalence(n)
    expected = [
        f"M={Subset.from_mask(n, m)} G={Subset.from_mask(n, g)}: "
        f"upward index {up} != downward index {down}"
        for m, g, up, down in naive_index_disagreements(corrupted)
    ]
    assert expected
    assert not rep.passed
    assert rep.failures == expected
    assert rep.counts["pairs"] == 3 ** n


def test_greedy_agreement_sweep():
    for n in range(1, 11):
        rep = check_greedy_agreement(n)
        assert rep.passed, rep.failures[:3]
        # empirical finding, reported not asserted by the contract: the
        # closed formula matches greedy on the partial levels as well
        assert rep.counts["low_level_mismatches"] == 0


def test_report_text_shape():
    rep = check_inverse_law(3)
    text = rep.text()
    assert text.endswith("PASS inverse law n=3")
    data = rep.to_json()
    assert data["passed"] is True and data["counts"]["subsets"] == 8
