"""The exhaustive matching-law sweeps behind the check subcommands."""

from koszuldepth.bits import match_tables, psi_index_table, submasks
from koszuldepth.checks import (
    check_greedy_agreement,
    check_index_equivalence,
    check_inverse_law,
)

from helpers import all_element_sets, index_by_psi


def test_bulk_index_table_equals_percall_oracle():
    # the sweep's shared-chain table is the same computation as the
    # exponential per-pair oracle, factored over one support at a time
    n = 5
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
    rep = check_index_equivalence(8)
    assert rep.passed
    assert rep.counts["pairs"] == 3 ** 8


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
