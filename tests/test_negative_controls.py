"""Negative controls: below the range guard the theorem fails, and so must
every verification layer; a fault in a producer that looks right must fail
the check that reads what it produced.

The guard is bypassed by monkeypatching ``decomposition.require_upper_half``;
no command-line path reaches these sizes.  At k = n/2 - 1 the script from
the chains equals psi iteration: the Hilbert identity, family size and rank
checks each flag the same supports, and the triangle check names each
violating pair with its least witness support.  Further below, psi iteration
runs out before size k, but the chains still give a script, and the Hilbert
identity fails on it.  On the upper half, a distinguished facet that deletes
the last peak over the members instead of the first breaks the triangle
condition and nothing else, and a chain with a moved or a missing insertion
fails ``verify`` too.  Under every chain fault, the rank check's push of the
families lists what the per-support enumeration lists.  A script row that
removes the wrong variable, or a missing row, fails the Hilbert identity and
the family sizes; a script in another order is no fault.
"""

from itertools import product

import pytest

from koszuldepth import bits, checks, decomposition
from koszuldepth.decomposition import (
    build_decomposition,
    verify_hilbert,
    verify_stanley,
)
from koszuldepth.koszul import Multidegree, dim_oracle
from koszuldepth.maskchecks import (
    contribution_counts, even_families, even_members, triangle_pairs
)
from koszuldepth.subsets import Subset

from helpers import (
    naive_contributes,
    naive_facet,
    naive_least_witnesses,
    naive_support_counts,
    naive_witness_holds,
    script_by_psi,
)


@pytest.fixture
def unguarded(monkeypatch):
    monkeypatch.setattr(decomposition, "require_upper_half", lambda n, k: None)


# violating pairs just below the guard, one triangle line each
_PAIRS = {(4, 1): 4, (6, 2): 12, (8, 3): 39}


@pytest.mark.parametrize(
    "n, k, hilbert_supports, supports, failing",
    [(4, 1, 15, 15, 6), (6, 2, 63, 57, 20), (8, 3, 255, 219, 70)],
)
def test_every_layer_fails_just_below_the_guard(
    unguarded, n, k, hilbert_supports, supports, failing
):
    pairs = _PAIRS[n, k]
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    assert rep.counts["hilbert_supports"] == hilbert_supports
    assert rep.counts["supports"] == rep.counts["rank_checked"] == supports
    for key in ("hilbert_failures", "family_size_mismatches", "rank_failures"):
        assert rep.counts[key] == failing, key
    assert rep.counts["triangle_violations"] == pairs
    assert len(rep.failures) == 2 * failing + pairs
    assert rep.text().endswith(f"FAIL stanley decomposition n={n} k={k}")
    # the whole report, to pin the order of the lines: every Hilbert
    # failure, then every violating pair, then every rank failure
    if (n, k) == (4, 1):
        assert _triangle_lines(n, k) == [
            "support {1,3,4}: distinguished facet of {3} lies inside earlier {1}",
            "support {2,3,4}: distinguished facet of {3} lies inside earlier {2}",
            "support {2,4}: distinguished facet of {4} lies inside earlier {2}",
            "support {3,4}: distinguished facet of {4} lies inside earlier {3}",
        ]
        expected = _below_guard_failures(n, k, _FAILING_4_1, rank=True)
        assert rep.to_json() == {
            "name": "stanley decomposition n=4 k=1",
            "passed": False,
            "counts": {
                "hilbert_supports": 15, "hilbert_failures": 6, "summands": 8, "supports": 15,
                "triangle_violations": 4, "family_size_mismatches": 6, "rank_checked": 15,
                "rank_failures": 6, "min_Z": 3,
            },
            "failures": expected,
        }
        lines = [
            "stanley decomposition of M(4,1): 8 summands",
            "hilbert identity (squarefree): 15 degrees checked, 6 failures",
            "families: 15 supports, sizes MISMATCHED, two-form agreement held",
            "triangle condition (squashed order): 4 violations",
            "exact rank: 15 sign matrices, 6 rank deficient",
            "depth: |Z| sizes [3, 4], minimum 3 = n-1 attained by 5 summands",
        ]
        assert rep.lines == lines
        assert rep.text() == "\n".join(
            lines
            + [f"counterexample: {f}" for f in expected]
            + ["FAIL stanley decomposition n=4 k=1"]
        )
    if (n, k) == (6, 2):
        rep = verify_stanley(n, k, check_rank=False)
        assert rep.failures == _below_guard_failures(n, k, _FAILING_6_2, rank=False)


# per failing support: summands there (the transform count, also its family
# size) and the dimension (also C(|M|-1,k-1))
_FAILING_4_1 = [
    ("{2,4}", 2, 1),
    ("{1,2,4}", 2, 1),
    ("{3,4}", 2, 1),
    ("{1,3,4}", 2, 1),
    ("{2,3,4}", 3, 1),
    ("{1,2,3,4}", 3, 1),
]
_FAILING_6_2 = [
    ("{2,4,6}", 3, 2),
    ("{1,2,4,6}", 4, 3),
    ("{3,4,6}", 3, 2),
    ("{1,3,4,6}", 4, 3),
    ("{2,3,4,6}", 5, 3),
    ("{1,2,3,4,6}", 6, 4),
    ("{2,5,6}", 3, 2),
    ("{1,2,5,6}", 4, 3),
    ("{3,5,6}", 3, 2),
    ("{1,3,5,6}", 4, 3),
    ("{2,3,5,6}", 5, 3),
    ("{1,2,3,5,6}", 6, 4),
    ("{4,5,6}", 3, 2),
    ("{1,4,5,6}", 4, 3),
    ("{2,4,5,6}", 6, 3),
    ("{1,2,4,5,6}", 7, 4),
    ("{3,4,5,6}", 6, 3),
    ("{1,3,4,5,6}", 7, 4),
    ("{2,3,4,5,6}", 9, 4),
    ("{1,2,3,4,5,6}", 10, 5),
]


def _triangle_lines(n, k, facet=naive_facet):
    """The triangle failure lines, from the first-principles enumeration of
    every support: per violating pair, by G then H, its least witness."""
    def text(mask):
        return str(Subset.from_mask(n, mask))

    return [
        f"support {text(r)}: distinguished facet of {text(g)} lies inside earlier {text(h)}"
        for (g, h), r in sorted(naive_least_witnesses(n, k, facet).items())
    ]


def _below_guard_failures(n, k, rows, rank):
    return (
        [f"support {M}: {got} summands vs dimension {dim}" for M, got, dim in rows]
        + _triangle_lines(n, k)
        + ([f"support {M}: sign matrix rank deficient" for M, _, _ in rows] if rank else [])
    )


@pytest.mark.parametrize("n, k, failing", [(4, 1, 6), (6, 2, 20), (8, 3, 70), (10, 4, 252)])
def test_transform_counts_below_the_guard(unguarded, n, k, failing):
    # the subset-sum transform counts what a push of every summand counts,
    # also where the counts miss the dimension
    script = decomposition._script(n, k)
    counts = contribution_counts(n, script)
    assert counts == naive_support_counts(n, script)
    hilbert = decomposition._squarefree_hilbert(n, k, counts)
    assert len(hilbert.failures) == failing


def _families_equal_members(n, k):
    """Whether the rank check's one push lists, at every support, the
    members of the per-support enumeration, in its order."""
    table = bits.k_subset_table(n, k)
    families = even_families(n, k)
    return all(
        families[m] == [g for g, _ in even_members(table, m, k)] for m in range(1 << n)
    )


@pytest.mark.parametrize(
    "n, k, pairs", [(4, 1, 4), (6, 2, 12), (8, 3, 39), (10, 4, 133), (5, 1, 7), (7, 2, 23)]
)
def test_triangle_pairs_below_the_guard(n, k, pairs):
    # the pair test finds exactly the pairs that violate the triangle
    # condition on some support, each once with a support that shows it,
    # the least one, also where psi iteration runs out ((5,1), (7,2)): it
    # reads only the upward chains, and so does the push of the families
    got = list(triangle_pairs(n, k))
    assert len(got) == len({(g, h) for g, h, _ in got}) == pairs
    assert all(naive_witness_holds(n, g, h, r) for g, h, r in got)
    assert {(g, h): r for g, h, r in got} == naive_least_witnesses(n, k)
    assert _families_equal_members(n, k)


@pytest.mark.parametrize("n, k, failing", [(4, 1, 48), (6, 2, 408)])
def test_box_check_fails_just_below_the_guard(unguarded, n, k, failing):
    # every failure line, in order, as exponent arithmetic counts the summands
    decomp = build_decomposition(n, k)
    expected = []
    for exps in product(range(3), repeat=n):
        got = sum(naive_contributes(sm.S.elements, sm.Z.elements, exps) for sm in decomp.summands)
        m = Multidegree(n, exps)
        expect = dim_oracle(n, k, m)
        if got != expect:
            expected.append(f"multidegree {m}: {got} summands vs dimension {expect}")
    rep = verify_hilbert(decomp, "box", 2)
    assert not rep.passed
    assert rep.counts["multidegrees_checked"] == 3 ** n
    assert len(expected) == failing
    assert rep.failures == expected


def test_triangle_lines_name_each_violating_pair(unguarded):
    # one triangle line per violating pair, with its least witness support,
    # as the enumeration of every support's even-index members finds them
    for n, k in ((6, 2), (8, 3)):
        got = [f for f in verify_stanley(n, k, check_rank=False).failures if "distinguished facet" in f]
        assert len(got) == _PAIRS[n, k]
        assert got == _triangle_lines(n, k)


# supports whose summand count misses the dimension, where psi runs out
_UNDEFINED_HILBERT = {(5, 1): 15, (6, 1): 39, (7, 2): 56}


@pytest.mark.parametrize(
    "n, k, mask",
    [(5, 1, Subset(5, [1, 3, 5])), (6, 1, Subset(6, [1, 3, 5])), (7, 2, Subset(7, [1, 3, 5, 7]))],
)
def test_undefined_construction_is_a_structured_failure(unguarded, n, k, mask):
    # psi iteration runs out below mask, but the chains give a script all
    # the same; verify runs every check on it and fails the Hilbert identity
    message = f"downward matching undefined below mask {mask.mask:#x}"
    with pytest.raises(ValueError, match=message):
        script_by_psi(bits.match_tables(n), k)
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    failing = _UNDEFINED_HILBERT[n, k]
    assert rep.counts["hilbert_failures"] == failing
    assert rep.failures[:failing] == [f for f in rep.failures if "summands vs dimension" in f]
    assert len(build_decomposition(n, k).summands) == rep.counts["summands"]
    assert _families_equal_members(n, k)


def _last_pivot_scan(n, mask):
    """``bits.scan`` with the producer fault: the pivot is the last member
    where the height over the members alone peaks, not the first."""
    nu, mu, _ = _real_scan(n, mask)
    height, top, pivot = 0, -n - 1, 0
    for pos in range(1, n + 1):
        if (mask >> (pos - 1)) & 1:
            height += 1
            if height >= top:
                top, pivot = height, pos
        else:
            height -= 1
    return nu, mu, pivot


_real_scan = bits.scan
_CACHES = (bits.match_tables, bits.k_subset_table)


def _faulted(monkeypatch, name, fault):
    monkeypatch.setattr(bits, name, fault)
    for cache in _CACHES:
        cache.cache_clear()
    yield fault
    # no faulted table may outlive the patch
    for cache in _CACHES:
        cache.cache_clear()


@pytest.fixture
def last_pivot(monkeypatch):
    yield from _faulted(monkeypatch, "scan", _last_pivot_scan)


def _last_facet(n, elements):
    return naive_facet(n, elements, pick=max)


@pytest.mark.parametrize("n, k, pairs", [(6, 3, 7), (8, 4, 38), (9, 5, 84), (10, 5, 187)])
def test_last_pivot_fails_the_triangle_alone(last_pivot, n, k, pairs):
    # psi and phi are untouched, so the script, its counts and every sign
    # matrix are too; only the facets move, and the triangle check fails on
    # the upper half, each pair named with a support that shows it
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    assert rep.counts["rank_checked"] == rep.counts["supports"]
    for key in ("hilbert_failures", "family_size_mismatches", "rank_failures"):
        assert rep.counts[key] == 0, key
    assert rep.counts["triangle_violations"] == len(rep.failures) == pairs
    got = list(triangle_pairs(n, k))
    assert all(naive_witness_holds(n, g, h, r, _last_facet) for g, h, r in got)
    if n <= 8:
        assert rep.failures == _triangle_lines(n, k, _last_facet)


def test_no_matching_suite_sees_the_last_pivot(last_pivot):
    # the matching laws read psi and phi only, so they pass under the fault
    for check in (checks.check_inverse_law, checks.check_index_equivalence,
                  checks.check_greedy_agreement):
        assert check(8).passed


_real_chain_insertions = bits.chain_insertions


def _moved_first_insertion(n, g):
    """``bits.chain_insertions`` with a chain fault: the first insertion
    moves to the next position above it that is neither in g nor inserted,
    if there is one."""
    added = _real_chain_insertions(n, g)
    first = added & -added
    free = ~(g | added) & ((1 << n) - 1) & ~((first << 1) - 1)
    return added ^ first | free & -free if first and free else added


def _strict_chain_insertions(n, g):
    """``bits.chain_insertions`` with ``>=`` made strict: a non-member is
    inserted only above every later height, so ties are dropped."""
    height, best, added = 2 * g.bit_count() - n, -n - 1, 0
    for pos in range(n - 1, -1, -1):
        if (g >> pos) & 1:
            best = max(best, height)
            height -= 1
        else:
            if height > best:
                best = height
                added |= 1 << pos
            height += 1
    return added


# per fault and (n, k): Hilbert failures (also the family-size
# mismatches), violating pairs and rank-deficient supports
_CHAIN_FAULT_FAILURES = {
    _moved_first_insertion: {
        (6, 3): (11, 6, 6), (8, 4): (54, 34, 33), (9, 4): (182, 85, 120), (10, 5): (252, 180, 164),
    },
    _strict_chain_insertions: {
        (6, 3): (10, 5, 10), (8, 4): (46, 24, 46), (9, 4): (144, 55, 143), (10, 5): (205, 113, 203),
    },
}


@pytest.fixture(params=list(_CHAIN_FAULT_FAILURES), ids=lambda fault: fault.__name__.strip("_"))
def chain_fault(monkeypatch, request):
    yield from _faulted(monkeypatch, "chain_insertions", request.param)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4), (9, 4), (10, 5)])
def test_chain_fault_fails_verify(chain_fault, n, k):
    # the script, the families and the triangle partners all come from the
    # chains, so a chain with one insertion moved or dropped fails the
    # Hilbert identity, the family sizes, the triangle and the rank check
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    hilbert, pairs, rank = _CHAIN_FAULT_FAILURES[chain_fault][n, k]
    assert rep.counts["hilbert_failures"] == rep.counts["family_size_mismatches"] == hilbert
    assert rep.counts["triangle_violations"] == pairs
    assert rep.counts["rank_failures"] == rank
    assert len(rep.failures) == hilbert + pairs + rank
    # the rank check's families are the even-index members of the faulted
    # chains, so its pinned failures keep their meaning
    assert _families_equal_members(n, k)


def _insertion_inside_g(n, g):
    """``bits.chain_insertions`` with a chain fault: g's least element is
    listed among the insertions, so a stop's next insertion can lie in g."""
    return _real_chain_insertions(n, g) | g & -g


@pytest.fixture
def insertion_inside_g(monkeypatch):
    yield from _faulted(monkeypatch, "chain_insertions", _insertion_inside_g)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4)])
def test_even_families_skip_a_stop_inside_g(insertion_inside_g, n, k):
    # a stop whose next insertion is a member of g meets no support, in the
    # push as in the per-support enumeration
    assert _families_equal_members(n, k)


_real_script = decomposition._script


def _removed_off_by_one(n, k):
    """``decomposition._script`` with a producer fault: the first row whose
    removed element r has r < n and r + 1 outside S removes r + 1 instead."""
    rows = list(_real_script(n, k))
    i = next(i for i, (s, r, _) in enumerate(rows) if r is not None and r < n and not s >> r & 1)
    s, r, g = rows[i]
    rows[i] = (s, r + 1, g)
    return tuple(rows)


def _dropped_summand(n, k):
    """``decomposition._script`` with a producer fault: the middle row is
    missing."""
    rows = list(_real_script(n, k))
    del rows[len(rows) // 2]
    return tuple(rows)


# per fault and (n, k): Hilbert failures, also the family-size mismatches
_SCRIPT_FAULT_FAILURES = {
    _removed_off_by_one: {(6, 3): 4, (8, 4): 8, (9, 4): 16},
    _dropped_summand: {(6, 3): 4, (8, 4): 16, (9, 4): 16},
}


@pytest.fixture(params=list(_SCRIPT_FAULT_FAILURES), ids=lambda fault: fault.__name__.strip("_"))
def script_fault(monkeypatch, request):
    monkeypatch.setattr(decomposition, "_script", request.param)
    yield request.param


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4), (9, 4)])
def test_script_fault_fails_verify(script_fault, n, k):
    # the summand counts come from the script, the families, facets and sign
    # rows from the chains: a summand that removes the wrong variable, or a
    # missing one, fails the Hilbert identity and the family sizes alone
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    failing = _SCRIPT_FAULT_FAILURES[script_fault][n, k]
    assert rep.counts["hilbert_failures"] == rep.counts["family_size_mismatches"] == failing
    assert rep.counts["triangle_violations"] == rep.counts["rank_failures"] == 0
    assert rep.counts["rank_checked"] == rep.counts["supports"]
    assert rep.counts["min_Z"] == n - 1
    assert len(rep.failures) == failing


def test_script_order_is_not_a_fault(monkeypatch):
    # a direct sum has no order: the script in descending squashed order
    # passes verify, and only the listing of decompose changes
    monkeypatch.setattr(decomposition, "_script", lambda n, k: _real_script(n, k)[::-1])
    for n, k in ((6, 3), (8, 4), (9, 4)):
        assert verify_stanley(n, k, check_rank=True).passed
