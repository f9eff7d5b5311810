"""Acceptance gate: every exit criterion at its stated size and budget.

One test per criterion, each printing a single pass/fail line (run with
``pytest -s`` to see them inline).  These are the project's exit criteria;
nothing here is sampled or randomised.
"""

import time
from collections import Counter

import pytest

from koszuldepth.checks import (
    check_greedy_agreement,
    check_index_equivalence,
    check_inverse_law,
)
from koszuldepth.cli import main
from koszuldepth.decomposition import (
    build_decomposition,
    StepCheck,
    contribution_family,
    index_step_check,
    index_step_sweep,
    verify_box,
    verify_stanley,
)
from koszuldepth.subsets import Subset

from helpers import (
    admissible_triples,
    all_element_sets,
    boundary_squared,
    indicator,
    term_multidegree,
)


def _pairs(n_max):
    return [(n, k) for n in range(2, n_max + 1) for k in range(max(n // 2, 1), n)]


def _line(num, ok, elapsed, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="module")
def stanley_reports():
    # triangle + hilbert + family sizes + depth for every valid (n, k), n <= 12
    return {(n, k): verify_stanley(n, k, check_rank=False) for n, k in _pairs(12)}


@pytest.fixture(scope="module")
def ranked_reports():
    # full exact-rank sweep, n <= 9
    return {(n, k): verify_stanley(n, k, check_rank=True) for n, k in _pairs(9)}


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    fam = contribution_family(7, 3, Subset(7, [1, 2, 4, 5, 7]))
    elapsed = time.perf_counter() - t0
    got = {tuple(m.G): m.index for m in fam.members}
    expected = {
        (1, 2, 5): 0,
        (1, 2, 7): 0,
        (2, 4, 5): 0,
        (2, 5, 7): 0,
        (1, 4, 5): 0,  # the sixth member easily overlooked in a hand count
        (1, 4, 7): 2,
    }
    ok = got == expected and elapsed < 1.0
    _line(1, ok, elapsed, f"family for 12457 has {len(got)} members, {{1,4,7}} at index 2")
    assert got == expected
    assert elapsed < 1.0


def test_criterion_02_inverse_law():
    t0 = time.perf_counter()
    reports = [check_inverse_law(n) for n in range(1, 15)]
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in reports if not r.passed]
    _line(2, not bad and elapsed < 5.0, elapsed, "phi/psi inverse and image laws, n <= 14")
    assert not bad
    assert elapsed < 5.0


def test_criterion_03_index_equivalence():
    t0 = time.perf_counter()
    reports = [check_index_equivalence(n) for n in range(1, 17)]
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in reports if not r.passed]
    total = sum(r.counts["pairs"] for r in reports)
    _line(3, not bad and elapsed < 120.0, elapsed, f"{total} (G, M) pairs, n <= 16")
    assert not bad
    assert elapsed < 120.0


def test_criterion_04_greedy_agreement():
    t0 = time.perf_counter()
    reports = [check_greedy_agreement(n) for n in range(1, 13)]
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in reports if not r.passed]
    _line(4, not bad and elapsed < 60.0, elapsed, "greedy = closed formula on total levels, n <= 12")
    assert not bad
    assert elapsed < 60.0


def test_criterion_05_hilbert_identity(stanley_reports):
    t0 = time.perf_counter()
    count_bad = [
        key
        for key, rep in stanley_reports.items()
        if rep.counts["family_size_mismatches"] or rep.counts["hilbert_failures"]
    ]
    box_bad = []
    for n, k in _pairs(6):
        rep = verify_box(n, k, 2)
        if not rep.passed:
            box_bad.append((n, k))
    elapsed = time.perf_counter() - t0
    ok = not count_bad and not box_bad and elapsed < 300.0
    _line(5, ok, elapsed, "summand counts = C(|M|-1,k-1) = dimension, n <= 12; box d=2, n <= 6")
    assert not count_bad
    assert not box_bad
    assert elapsed < 300.0


def test_criterion_06_triangle_condition(stanley_reports):
    t0 = time.perf_counter()
    bad = [key for key, rep in stanley_reports.items() if rep.counts["triangle_violations"]]
    elapsed = time.perf_counter() - t0
    _line(6, not bad, elapsed, "squashed-order triangle condition, every support, n <= 12")
    assert not bad
    assert elapsed < 300.0


def test_criterion_07_exact_independence(ranked_reports):
    t0 = time.perf_counter()
    bad = [key for key, rep in ranked_reports.items() if rep.counts["rank_failures"]]
    unchecked = [
        key for key, rep in ranked_reports.items()
        if rep.counts["rank_checked"] != rep.counts["supports"]
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and not unchecked and elapsed < 300.0
    _line(7, ok, elapsed, "sign matrices at full row rank, every support, n <= 9")
    assert not bad and not unchecked
    assert elapsed < 300.0


def test_criterion_08_index_increment():
    # The increment claim: for an admissible triple (G, H equal-size subsets
    # of M, |G| >= floor(n/2), H before G in squashed order, H containing the
    # distinguished facet psi~(G)), ind_M(H) = ind_M(G) + 1 if the peak of G
    # over G alone is >= 0 (case 1) and ind_M(H) = 1 otherwise (case 2).
    # The triangle argument only meets G of even index, the family members,
    # and there the claim holds for every triple.  Over all admissible
    # triples it does not: the first counterexample is n=3, M={1,3}, G={3},
    # H={1}, where case 2 predicts 1 but the upward step from H inserts 2,
    # outside M, so ind_M(H) = 0.  The census accounts for every
    # counterexample: each is case 2 with 1 in M and H = psi~(G) + {1}, its
    # G has index 1 (in case 2, ind_M(G) = [1 in M]), so it is never a
    # member, and ind_M(H) is 0 or 2.  The triples come from a
    # first-principles enumeration (tests/helpers.py) whose tallies must
    # equal the sweep's, so the package neither drops nor invents a triple.
    # See README, "Verification findings".
    t0 = time.perf_counter()
    reports = {n: index_step_sweep(n) for n in range(1, 10)}
    disagree, member_failures, off_shape, case2_off = [], [], [], []
    tallies, members, member_case2, index_H_of_failures = {}, 0, {}, Counter()
    for n in reports:
        tally = {"triples_checked": 0, "case1": 0, "case2": 0, "failures": 0}
        member_case2[n] = 0
        for tr in admissible_triples(n):
            expected = tr.index_G + 1 if tr.case == 1 else 1
            status = "pass" if tr.index_H == expected else "fail"
            got = index_step_check(Subset(n, tr.M), Subset(n, tr.G), Subset(n, tr.H))
            if got != StepCheck(status, tr.case, tr.index_G, tr.index_H, expected):
                disagree.append((n, tr, got))
            tally["triples_checked"] += 1
            tally[f"case{tr.case}"] += 1
            is_member = tr.index_G % 2 == 0
            members += is_member
            if tr.case == 2:
                member_case2[n] += is_member
                if tr.index_G != (1 in tr.M):
                    case2_off.append((n, tr))
            if status == "fail":
                tally["failures"] += 1
                index_H_of_failures[tr.index_H] += 1
                if is_member:
                    member_failures.append((n, tr))
                if not (
                    tr.case == 2
                    and 1 in tr.M
                    and tr.x == 1
                    and tr.index_G == 1
                    and tr.index_H in (0, 2)
                ):
                    off_shape.append((n, tr))
        tallies[n] = tally
    dropped = {n: (tallies[n], rep.counts) for n, rep in reports.items() if rep.counts != tallies[n]}
    no_member_case2 = [n for n in (3, 5, 7, 9) if member_case2[n] == 0]
    elapsed = time.perf_counter() - t0
    ok = not (
        disagree or member_failures or off_shape or case2_off or dropped or no_member_case2
    ) and elapsed < 300.0
    counterexamples = {n: t["failures"] for n, t in tallies.items() if t["failures"]}
    _line(
        8, ok, elapsed,
        f"index increment holds on all {members} triples with even-index G, n <= 9 "
        f"(case 2: {({n: c for n, c in member_case2.items() if c})}); "
        f"all {sum(counterexamples.values())} counterexamples {counterexamples} have odd G: "
        f"case 2, x = 1, ind G = 1, ind H 0/2 = "
        f"{index_H_of_failures[0]}/{index_H_of_failures[2]}",
    )
    assert not disagree, f"index_step_check disagrees with the enumeration: {disagree[:3]}"
    assert not member_failures, f"increment fails for a family member: {member_failures[:3]}"
    assert not off_shape, f"counterexample outside the census: {off_shape[:3]}"
    assert not case2_off, f"case-2 index of G is not [1 in M]: {case2_off[:3]}"
    assert not dropped, f"sweep tallies differ from the enumeration: {dropped}"
    assert not no_member_case2, f"no case-2 triple with an even-index G at n in {no_member_case2}"
    assert elapsed < 300.0


def test_criterion_09_chain_complex_sanity():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for elems in all_element_sets(n):
            if len(elems) >= 2:
                assert boundary_squared(Subset(n, elems)) == {}
    for n, k in _pairs(10):
        for sm in build_decomposition(n, k).summands:
            target = indicator(sm.S)
            assert all(term_multidegree(t, n) == target for t in sm.m.terms)
    elapsed = time.perf_counter() - t0
    _line(9, elapsed < 60.0, elapsed, "boundary twice vanishes (n <= 8); generators homogeneous (n <= 10)")
    assert elapsed < 60.0


def test_criterion_10_depth_conclusion(stanley_reports, capsys):
    t0 = time.perf_counter()
    bad = []
    for (n, k), rep in stanley_reports.items():
        if not rep.passed or rep.counts["min_Z"] != n - 1:
            bad.append((n, k))
    code = main(["verify", "3", "1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    spoke = (
        "sdepth M(3,1) >= 2" in out
        and "cited" in out
        and "not verified" in out
        and code == 0
    )
    with capsys.disabled():
        _line(10, not bad and spoke, elapsed, "min |Z| = n-1 for every (n, k), n <= 12; bound stated, upper bound cited")
    assert not bad
    assert spoke
