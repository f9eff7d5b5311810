"""The exhaustive matching-law sweeps behind the check subcommands."""

import random

import pytest

from koszuldepth import checks
from koszuldepth.bits import match_tables, psi_index_table, submasks
from koszuldepth.checks import (
    check_greedy_agreement,
    check_index_equivalence,
    check_inverse_law,
)
from koszuldepth.subsets import Subset

from helpers import (
    all_element_sets,
    array_form,
    index_by_psi,
    naive_index_disagreements,
    naive_inverse_failures,
    none_form,
)


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


def test_inverse_law_fails_on_corrupted_tables(monkeypatch):
    # negative control: psi({1,2,3,4}) and phi({5}) made undefined must be
    # reported as the set-based check reports them, in text and order; the
    # mismatches come by size, where mask order would swap them
    n = 6
    tables = match_tables(n)
    assert naive_inverse_failures(tables) == []
    psi, phi = none_form(tables.psi), none_form(tables.phi)
    assert (psi[0b001111], phi[0b010000]) == (0b000111, 0b010001)
    psi[0b001111] = phi[0b010000] = None
    corrupted = tables._replace(psi=array_form(psi), phi=array_form(phi))
    monkeypatch.setattr(checks, "match_tables", lambda _n: corrupted)
    rep = check_inverse_law(n)
    expected = naive_inverse_failures(corrupted)
    assert not rep.passed
    assert rep.failures == expected
    assert expected[-2:] == [
        "image/domain mismatch at {5} (image only)",
        "image/domain mismatch at {1,2,3} (phi-domain only)",
    ]
    assert "image(psi) == domain(phi): NO" in rep.lines[-1]


def test_inverse_law_psi_defined_count():
    # n=2: psi is defined exactly on {1} and {1,2}
    rep = check_inverse_law(2)
    assert rep.passed and rep.counts["psi_defined"] == 2


def test_index_equivalence_sweep():
    for n in range(1, 13):
        rep = check_index_equivalence(n)
        assert rep.passed
        assert rep.counts == {"pairs": 3 ** n, "failures": 0}
        assert rep.lines == [f"index equivalence: {3 ** n} (G, M) pairs, 0 disagreements"]
    # the pairs themselves, on the real tables, by the independent oracle
    for n in range(1, 8):
        assert naive_index_disagreements(match_tables(n)) == []


def _patch_tables(monkeypatch, tables, **entries):
    """Install a copy of ``tables`` with the given {mask: value} entries
    written into its named maps (``None`` for undefined)."""
    maps = {name: none_form(getattr(tables, name)) for name in entries}
    for name, changes in entries.items():
        for mask, value in changes.items():
            maps[name][mask] = value
    patched = tables._replace(**{name: array_form(v) for name, v in maps.items()})
    monkeypatch.setattr(checks, "match_tables", lambda _n: patched)
    return patched


def test_index_equivalence_fails_on_a_two_cycle(monkeypatch):
    # phi({2,4}) = {2,4,5} and psi({2,4,5}) = {2,4} are real; the added
    # phi({2,4,5}) = {2,4} and psi({2,4}) = {2,4,5} keep both maps inverse,
    # so only the one-element condition can reject the tables
    n, g, h = 5, 0b01010, 0b11010
    tables = match_tables(n)
    assert (tables.phi[g], tables.psi[h], tables.phi[h], tables.psi[g]) == (h, g, -1, -1)
    _patch_tables(monkeypatch, tables, phi={h: g}, psi={g: h})
    rep = check_index_equivalence(n)
    assert not rep.passed
    assert rep.failures == ["phi({2,4,5}) = {2,4} does not add one element"]
    assert rep.counts == {"pairs": 243, "failures": 1}
    assert rep.lines == [
        "index equivalence: 1 broken step relations over 32 masks, "
        "so the 243 (G, M) pairs are not shown equal"
    ]


def _corrupt(rng, tables):
    """One or two entries of phi or psi set to None, to a one-element step
    in the map's own direction, or to an arbitrary mask; and whether every
    new entry is None or such a step."""
    n, size = tables.n, 1 << tables.n
    maps = {"phi": none_form(tables.phi), "psi": none_form(tables.psi)}
    steps_only = True
    for _ in range(rng.randint(1, 2)):
        name, mask = rng.choice(("phi", "psi")), rng.randrange(size)
        kind = rng.choice(("none", "step", "arbitrary"))
        # phi adds an element outside the mask, psi deletes one inside it
        pool = [b for b in range(n) if (mask >> b & 1) == (name == "psi")]
        if kind == "none" or (kind == "step" and not pool):
            wrong = None
        elif kind == "step":
            wrong = mask ^ 1 << rng.choice(pool)
        else:
            wrong, steps_only = rng.randrange(size), False
        maps[name][mask] = wrong
    corrupted = tables._replace(phi=array_form(maps["phi"]), psi=array_form(maps["psi"]))
    return corrupted, steps_only


def test_index_equivalence_fails_exactly_when_a_pair_disagrees(monkeypatch):
    # on tables whose every corrupted entry is None or a one-element step in
    # its map's direction, FAIL exactly when the per-pair oracle finds a
    # disagreeing pair (the converse in the README); other corruptions can
    # make the maps cyclic, where the oracle does not terminate
    rng = random.Random(2024)
    checked = failed = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        corrupted, steps_only = _corrupt(rng, match_tables(n))
        if not steps_only:
            continue
        monkeypatch.setattr(checks, "match_tables", lambda _n: corrupted)
        rep = check_index_equivalence(n)
        assert rep.passed == (naive_index_disagreements(corrupted) == [])
        checked += 1
        failed += not rep.passed
    assert checked > 1000 and failed > 500


@pytest.mark.parametrize(
    "cycle, broken",
    [
        # {2,4,6} is unmatched; made its own image it steps by no element
        pytest.param([0b101010, 0b101010], ["phi({2,4,6}) = {2,4,6}"], id="cycle0"),
        # {} -> {1} -> {1,2} -> {2} -> {}: phi deletes an element on the way back
        pytest.param([0b00, 0b01, 0b11, 0b10, 0b00], ["phi({2}) = {}", "phi({1,2}) = {2}"],
                     id="cycle1"),
    ],
)
def test_index_equivalence_fails_on_a_cycle(monkeypatch, cycle, broken):
    # the maps are rebuilt to run round the cycle and still invert each
    # other, so only the one-element condition can reject the tables, and
    # it names exactly the steps that do not add an element
    n = 6
    tables = match_tables(n)
    phi, psi = none_form(tables.phi), none_form(tables.psi)
    for x in range(1 << n):
        if x in cycle or phi[x] in cycle:
            phi[x] = None
        if x in cycle or psi[x] in cycle:
            psi[x] = None
    for g, h in zip(cycle, cycle[1:]):
        phi[g], psi[h] = h, g
    cyclic = tables._replace(phi=array_form(phi), psi=array_form(psi))
    monkeypatch.setattr(checks, "match_tables", lambda _n: cyclic)
    rep = check_index_equivalence(n)
    assert not rep.passed
    assert rep.failures == [f"{step} does not add one element" for step in broken]


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
    # negative control: one wrong entry in one table is named by its mask,
    # and the per-pair oracle confirms that some pair disagrees there
    n = 6
    tables = match_tables(n)
    assert getattr(tables, field)[mask] not in (-1, wrong)
    corrupted = _patch_tables(monkeypatch, tables, **{field: {mask: wrong}})
    rep = check_index_equivalence(n)
    assert naive_index_disagreements(corrupted)
    assert not rep.passed
    assert rep.counts == {"pairs": 3 ** n, "failures": len(rep.failures)}
    named = Subset.from_mask(n, mask)
    assert any(f"({named})" in f for f in rep.failures)


def test_greedy_agreement_sweep():
    for n in range(1, 11):
        rep = check_greedy_agreement(n)
        assert rep.passed, rep.failures[:3]
        # empirical finding, reported not asserted by the contract: the
        # closed formula matches greedy on the partial levels as well
        assert rep.counts["low_level_mismatches"] == 0


def test_greedy_agreement_fails_on_corrupted_tables(monkeypatch):
    # negative control: on the total levels (size >= 4 at n = 6), one psi
    # entry made a wrong mask and one made undefined are each named by level
    # and mask, against greedy's own choice
    n = 6
    tables = match_tables(n)
    assert (tables.psi[0b001111], tables.psi[0b111111]) == (0b000111, 0b011111)
    _patch_tables(monkeypatch, tables, psi={0b001111: 0b001011, 0b111111: None})
    rep = check_greedy_agreement(n)
    assert not rep.passed
    assert rep.failures == [
        "level 4: greedy gives {1,2,3} but formula gives {1,2,4} at {1,2,3,4}",
        "level 6: greedy gives {1,2,3,4,5} but formula gives None at {1,2,3,4,5,6}",
    ]
    assert rep.counts["upper_mismatches"] == 2
    assert rep.counts["low_level_mismatches"] == 0
    assert "2 mismatches; below threshold: 0 mismatches" in rep.lines[-1]


def test_report_text_shape():
    rep = check_inverse_law(3)
    text = rep.text()
    assert text.endswith("PASS inverse law n=3")
    data = rep.to_json()
    assert data["passed"] is True and data["counts"]["subsets"] == 8
