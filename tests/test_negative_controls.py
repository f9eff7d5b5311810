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
condition and nothing else, as does a pivot drawn at random among its
members, on exactly the pairs an enumeration of every support finds; a
pivot outside G stops ``verify`` and ``triangle_check``, and a chain with a moved or a missing
insertion fails it too.  Under every chain fault, the rank check's push of the
script's rows lists what the per-support enumeration lists.  A script row
that removes the wrong variable, or a missing row, fails the Hilbert
identity, the family sizes and the rank check; a row that names another
generator fails the row check against its chain alone, as does the row that
removes the wrong variable; a script in another order is no fault.  Each
chain or pivot fault builds its table from the per-k-subset reference in
``tests/helpers.py`` and replaces every binding of ``k_subset_table``.
"""

import random
from functools import lru_cache
from itertools import product
from math import comb

import pytest

import koszuldepth
from koszuldepth import bits, checks, decomposition, maskchecks
from koszuldepth.cli import main
from koszuldepth.decomposition import (
    build_decomposition,
    contribution_family,
    sign_matrix,
    triangle_check,
    verify_box,
    verify_stanley,
)
from koszuldepth.koszul import Multidegree, dim_oracle
from koszuldepth.maskchecks import (
    contribution_counts, even_families, even_members, k_polynomial, triangle_pairs
)
from koszuldepth.subsets import Subset

from helpers import (
    chain_insertions,
    k_subset_table_per_subset,
    naive_contributes,
    naive_facet,
    naive_least_witnesses,
    naive_rank_mod2,
    naive_support_counts,
    naive_witness_holds,
    script_by_psi,
    support_major_index_sweep,
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
                "row_failures": 0, "triangle_violations": 4, "family_size_mismatches": 6,
                "rank_checked": 15, "rank_failures": 6, "min_Z": 3,
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
    # also where the counts miss the dimension, which the K-polynomials show
    script = decomposition._script(n, k)
    counts = contribution_counts(n, script)
    assert counts == naive_support_counts(n, script)
    dims = decomposition._dims_by_size(n, k)
    assert decomposition._counts_off_target(n, lambda: script, dims) == counts
    hilbert = decomposition._squarefree_hilbert(n, k, dims, counts)
    assert len(hilbert.failures) == failing


def _families_equal_members(n, k):
    """Whether the rank check's one push of the script's rows lists, at
    every support, the members of the per-support enumeration; the push
    lists them in the order of the rows, (level, S), so both are sorted."""
    table = bits.k_subset_table(n, k)
    families = even_families(n, decomposition._script(n, k))
    return all(
        sorted(families[m]) == [g for g, _ in even_members(table, m, k)] for m in range(1 << n)
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
    rep = verify_box(n, k, 2)
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


def _last_pivot(n, mask):
    """The pivot with the producer fault: the last member where the height
    over the members alone peaks, not the first."""
    height, top, pivot = 0, -n - 1, 0
    for pos in range(1, n + 1):
        if (mask >> (pos - 1)) & 1:
            height += 1
            if height >= top:
                top, pivot = height, pos
        else:
            height -= 1
    return pivot


# every module of the package that binds the chain table
_TABLE_BINDINGS = (bits, maskchecks, decomposition)


def _faulted(monkeypatch, **fault):
    """Patch every binding of ``k_subset_table`` with the per-subset
    reference built from the faulty chain or pivot; the patch, and the
    faulted tables with it, end with the test."""
    bound = {
        name for name, module in vars(koszuldepth).items()
        if hasattr(module, "k_subset_table") and hasattr(module, "__file__")
    }
    assert bound == {module.__name__.rpartition(".")[2] for module in _TABLE_BINDINGS}
    table = lru_cache(maxsize=None)(lambda n, k: k_subset_table_per_subset(n, k, **fault))
    for module in _TABLE_BINDINGS:
        monkeypatch.setattr(module, "k_subset_table", table)


@pytest.fixture
def last_pivot(monkeypatch):
    _faulted(monkeypatch, pivot_of=_last_pivot)


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


def _random_pivot(n, g):
    """The pivot with a producer fault: a member of g drawn at random, by a
    generator seeded with (n, g), so every call for g draws the same one."""
    members = [e for e in range(1, n + 1) if g >> (e - 1) & 1]
    return random.Random(n << 32 | g).choice(members)


def _random_facet(n, elements):
    return elements - {_random_pivot(n, sum(1 << (e - 1) for e in elements))}


@pytest.fixture
def random_pivot(monkeypatch):
    _faulted(monkeypatch, pivot_of=_random_pivot)


@pytest.mark.parametrize("n, k, pairs", [(6, 3, 15), (7, 4, 34), (8, 4, 76)])
def test_any_member_pivot_is_checked(random_pivot, n, k, pairs):
    # the pair test derives g's facet and every partner from the pivot, so
    # with any member of g as the pivot it finds exactly the pairs that an
    # enumeration of every support finds for that facet, and verify names
    # each, on the triangle line alone
    got = list(triangle_pairs(n, k))
    assert {(g, h): r for g, h, r in got} == naive_least_witnesses(n, k, _random_facet)
    assert len(got) == pairs
    rep = verify_stanley(n, k, check_rank=False)
    assert not rep.passed
    assert rep.counts["triangle_violations"] == len(rep.failures) == pairs
    assert rep.failures == _triangle_lines(n, k, _random_facet)


def _outside_pivot(n, g):
    """The pivot with a producer fault: g's least non-member."""
    return (~g & (g + 1)).bit_length()


def test_a_pivot_outside_g_stops_verify(monkeypatch):
    # g ^ pivot is then no facet of g: the pair test would take no or wrong
    # partners, and the per-family check would find no member holding the
    # facet, so each stops at its first entry instead of passing
    _faulted(monkeypatch, pivot_of=_outside_pivot)
    with pytest.raises(ValueError, match="is not one of its members"):
        verify_stanley(6, 3, check_rank=False)
    family = contribution_family(8, 4, Subset(8, range(1, 9)))
    assert family.members
    with pytest.raises(ValueError, match="is not one of its members"):
        triangle_check(family)


def _moved_first_insertion(n, g):
    """``chain_insertions`` with a chain fault: the first insertion moves to
    the next position above it that is neither in g nor inserted, if there
    is one."""
    added = chain_insertions(n, g)
    first = added & -added
    free = ~(g | added) & ((1 << n) - 1) & ~((first << 1) - 1)
    return added ^ first | free & -free if first and free else added


def _strict_chain_insertions(n, g):
    """``chain_insertions`` with ``>=`` made strict: a non-member is
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
# mismatches), violating pairs and rank-deficient supports: every support
# whose family has the wrong size, plus those of the right size whose sign
# matrix is deficient mod 2 (moved: 0, 3, 8, 11; strict: 0, 0, 3, 2)
_CHAIN_FAULT_FAILURES = {
    _moved_first_insertion: {
        (6, 3): (11, 6, 11), (8, 4): (54, 34, 57), (9, 4): (182, 85, 190), (10, 5): (252, 180, 263),
    },
    _strict_chain_insertions: {
        (6, 3): (10, 5, 10), (8, 4): (46, 24, 46), (9, 4): (144, 55, 147), (10, 5): (205, 113, 207),
    },
}


def _rank_deficient_supports(n, k):
    """The supports the rank line must fail, by enumeration: those whose
    even-index members are not C(|M|-1,k-1) rows of a sign matrix of full
    rank mod 2, built by ``sign_matrix`` and reduced by the naive
    elimination."""
    failing = 0
    for m in range(1, 1 << n):
        if m.bit_count() < k:
            continue
        rows = sign_matrix(contribution_family(n, k, Subset.from_mask(n, m)))
        if len(rows) != comb(m.bit_count() - 1, k - 1) or naive_rank_mod2(rows) < len(rows):
            failing += 1
    return failing


@pytest.fixture(params=list(_CHAIN_FAULT_FAILURES), ids=lambda fault: fault.__name__.strip("_"))
def chain_fault(monkeypatch, request):
    _faulted(monkeypatch, insertions=request.param)
    return request.param


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
    assert rep.counts["rank_failures"] == rank == _rank_deficient_supports(n, k)
    assert len(rep.failures) == hilbert + pairs + rank
    # the rank check's families are the even-index members of the faulted
    # chains, so its pinned failures keep their meaning
    assert _families_equal_members(n, k)


@pytest.fixture
def moved_first_insertion(monkeypatch):
    _faulted(monkeypatch, insertions=_moved_first_insertion)


@pytest.mark.parametrize("n", range(4, 10))
def test_index_step_sweep_reads_both_chains_under_a_chain_fault(moved_first_insertion, n):
    # with the first insertion moved, the verdict at a support depends on
    # both chains' bits outside G | x, so the grouped sweep equals the loop
    # over every support only if it reads the bits of G's chain and of H's
    got, want = decomposition.index_step_sweep(n), support_major_index_sweep(n)
    for field in ("name", "passed", "counts", "failures", "lines"):
        assert getattr(got, field) == getattr(want, field), field


def _insertion_inside_g(n, g):
    """``chain_insertions`` with a chain fault: g's least element is listed
    among the insertions, so a stop's next insertion can lie in g."""
    return chain_insertions(n, g) | g & -g


@pytest.fixture
def insertion_inside_g(monkeypatch):
    _faulted(monkeypatch, insertions=_insertion_inside_g)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4)])
def test_even_families_skip_a_stop_inside_g(insertion_inside_g, n, k):
    # a stop whose next insertion is a member of g meets no support, in the
    # push as in the per-support enumeration
    assert _families_equal_members(n, k)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4)])
def test_row_check_names_a_stop_inside_g(insertion_inside_g, n, k):
    # g's least element e counts as an insertion: every row from the stop at
    # e on fails the row check, the row that removes e from S included, as
    # its S holds e or its removed element lies in S; named in the rows' order
    rows = list(decomposition._rows(n, k))
    off = [(s, r, g) for s, r, g in rows if r is None or 1 << (r - 1) >= g & -g]
    assert any(r is not None and 1 << (r - 1) == g & -g for _, r, g in off)
    rep = verify_stanley(n, k, check_rank=False)
    assert rep.counts["row_failures"] == len(off)
    assert [line for line in rep.failures if "even stop" in line] == [
        f"summand S={Subset.from_mask(n, s)} removed={r or '-'} G={Subset.from_mask(n, g)}: "
        f"not an even stop of G's chain"
        for s, r, g in off
    ]


_real_rows = decomposition._rows


def _real_script(n, k):
    """The rows of the real ``decomposition._rows``, in the script's
    (level, squashed) order, which the producer faults below patch in."""
    return tuple(sorted(_real_rows(n, k), key=lambda row: (row[0].bit_count(), row[0])))


def _removed_off_by_one(n, k):
    """``decomposition._rows`` with a producer fault: the first row whose
    removed element r has r < n and r + 1 outside S removes r + 1 instead."""
    rows = list(_real_script(n, k))
    i = next(i for i, (s, r, _) in enumerate(rows) if r is not None and r < n and not s >> r & 1)
    s, r, g = rows[i]
    rows[i] = (s, r + 1, g)
    return tuple(rows)


def _dropped_summand(n, k):
    """``decomposition._rows`` with a producer fault: the middle row is
    missing."""
    rows = list(_real_script(n, k))
    del rows[len(rows) // 2]
    return tuple(rows)


def _other_generator(n, k):
    """``decomposition._rows`` with a producer fault: the first row whose
    S is not its G names the least other k-subset of S as G."""
    rows = list(_real_script(n, k))
    i = next(i for i, (s, _, g) in enumerate(rows) if s != g)
    s, r, g = rows[i]
    rows[i] = (s, r, next(h for h in bits.sized_submasks(s, k) if h != g))
    return tuple(rows)


# per fault and (n, k): Hilbert failures, also the family-size mismatches
# and, with rank checked, the rank-deficient supports
_SCRIPT_FAULT_FAILURES = {
    _removed_off_by_one: {(6, 3): 4, (8, 4): 8, (9, 4): 16},
    _dropped_summand: {(6, 3): 4, (8, 4): 16, (9, 4): 16},
    _other_generator: {(6, 3): 0, (8, 4): 0, (9, 4): 0},
}


@pytest.fixture(params=list(_SCRIPT_FAULT_FAILURES), ids=lambda fault: fault.__name__.strip("_"))
def script_fault(monkeypatch, request):
    monkeypatch.setattr(decomposition, "_rows", request.param)
    yield request.param


def _stray_lines(n, k, rows):
    """The row-check failure lines for the rows that the real script lacks."""
    real = set(_real_script(n, k))
    return [
        f"summand S={Subset.from_mask(n, s)} removed={r or '-'} G={Subset.from_mask(n, g)}: "
        f"not an even stop of G's chain"
        for s, r, g in rows if (s, r, g) not in real
    ]


def _fails_verify(fault, n, k, check_rank):
    # every check reads the script's rows: the counts, the row check against
    # each G's chain and the families that rank reads.  A summand that
    # removes the wrong variable, or a missing one, fails the Hilbert
    # identity, the family sizes and, on the same supports, the rank check;
    # a row that is no even stop of its G's chain, such as one that names
    # another generator, fails the row check, one line per row
    rep = verify_stanley(n, k, check_rank=check_rank)
    assert not rep.passed
    failing = _SCRIPT_FAULT_FAILURES[fault][n, k]
    strays = _stray_lines(n, k, fault(n, k))
    assert len(strays) == (fault is not _dropped_summand)
    assert rep.counts["hilbert_failures"] == rep.counts["family_size_mismatches"] == failing
    assert rep.counts["row_failures"] == len(strays)
    assert rep.counts["triangle_violations"] == 0
    assert rep.counts["rank_failures"] == (failing if check_rank else 0)
    assert rep.counts["rank_checked"] == (rep.counts["supports"] if check_rank else 0)
    assert rep.counts["min_Z"] == n - 1
    assert rep.failures[failing:failing + len(strays)] == strays
    rank = rep.counts["rank_failures"]
    assert len(rep.failures) == failing + len(strays) + rank
    # rank fails on the supports whose Hilbert line failed, in mask order
    supports = [line.split(":")[0] for line in rep.failures]
    assert supports[len(supports) - rank:] == supports[:rank]
    agreement = "FAILED" if rep.counts["row_failures"] else "held"
    assert [line for line in rep.lines if line.startswith("families:")] == [
        f"families: {rep.counts['supports']} supports, sizes {'MISMATCHED' if failing else 'ok'}, "
        f"two-form agreement {agreement}"
    ]


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4), (9, 4)])
def test_script_fault_fails_verify(script_fault, n, k):
    _fails_verify(script_fault, n, k, check_rank=True)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4), (9, 4)])
def test_script_fault_fails_verify_without_rank(script_fault, n, k):
    # the row check, not the rank check, catches another generator
    _fails_verify(script_fault, n, k, check_rank=False)


def test_other_generator_fails_the_row_check_alone(monkeypatch):
    # at (6,3), row 20 (S={1,2,3,4,5}, removed 6) names {1,2,4} instead of
    # {1,2,3}; the counts, the triangle and the rank check all pass on it
    assert _real_script(6, 3)[20] == (0b11111, 6, 0b111)
    assert _other_generator(6, 3)[20] == (0b11111, 6, 0b1011)
    monkeypatch.setattr(decomposition, "_rows", _other_generator)
    rep = verify_stanley(6, 3, check_rank=True)
    assert rep.failures == [
        "summand S={1,2,3,4,5} removed=6 G={1,2,4}: not an even stop of G's chain"
    ]
    assert {key: v for key, v in rep.counts.items() if "fail" in key or "mismatch" in key} == {
        "hilbert_failures": 0, "row_failures": 1, "family_size_mismatches": 0,
        "rank_failures": 0,
    }
    assert rep.counts["triangle_violations"] == 0


def test_a_size_mismatch_at_a_met_dimension_is_named(monkeypatch):
    # at (7,3), row (S={1..7}, nothing removed, G={1,2,3}) twice, with the
    # dimension one too high at the full support: the Hilbert identity holds
    # there, so only the family sizes see the extra row, and the FAIL names
    # the oracle's size that is off C(|M|-1,k-1)
    row = (0b1111111, None, 0b111)
    assert row in _real_script(7, 3)
    monkeypatch.setattr(decomposition, "_rows", lambda n, k: _real_script(n, k) + (row,))
    real = decomposition.dim_oracle
    monkeypatch.setattr(
        decomposition, "dim_oracle", lambda n, k, m: real(n, k, m) + (m.exponents == (1,) * n)
    )
    rep = verify_stanley(7, 3, check_rank=False)
    assert not rep.passed
    assert rep.failures == ["dimension oracle at support size 7: 16, not C(6,2) = 15"]
    assert rep.counts["hilbert_failures"] == 0 and rep.counts["family_size_mismatches"] == 1


@pytest.mark.parametrize("size, hilbert_failures", [(1, 7), (3, 35), (7, 1)])
def test_a_wrong_dimension_oracle_names_its_support_size(monkeypatch, size, hilbert_failures):
    # at (7,3), the oracle one too high at one support size and the real
    # script: one line names that size, every support of that size misses
    # its dimension, and the family sizes all hold
    real = decomposition.dim_oracle
    monkeypatch.setattr(
        decomposition, "dim_oracle",
        lambda n, k, m: real(n, k, m) + (sum(m.exponents) == size),
    )
    rep = verify_stanley(7, 3, check_rank=False)
    assert not rep.passed
    assert [f for f in rep.failures if f.startswith("dimension oracle")] == [
        f"dimension oracle at support size {size}: {comb(size - 1, 2) + 1}, "
        f"not C({size - 1},2) = {comb(size - 1, 2)}"
    ]
    assert rep.counts["hilbert_failures"] == hilbert_failures
    assert rep.counts["family_size_mismatches"] == 0


def test_an_empty_script_fails_the_depth_claim(monkeypatch, capsys):
    # no summand is slim, so the depth claim fails on a line of its own, and
    # verify reports a FAIL (exit 1), not a usage error
    monkeypatch.setattr(decomposition, "_rows", lambda n, k: ())
    rep = verify_stanley(7, 3, check_rank=False)
    assert not rep.passed and rep.counts["min_Z"] == 7
    assert rep.failures[-1] == "depth: no summand has |Z| = n-1 = 6, |Z| sizes []"
    assert main(["verify", "7", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nFAIL stanley decomposition n=7 k=3\n")


def test_a_pass_runs_no_transform(monkeypatch):
    # a PASS is decided on K-polynomials alone; only a mismatch counts the
    # summands per support, by the subset-sum transform, to name supports
    calls = []
    real = maskchecks.subset_sums
    monkeypatch.setattr(maskchecks, "subset_sums", lambda *args: calls.append(args[1]) or real(*args))
    assert verify_stanley(10, 5).passed
    assert calls == []
    monkeypatch.setattr(decomposition, "_rows", _dropped_summand)
    assert not verify_stanley(10, 5).passed
    assert calls and set(calls) == {10}


def _repeated_row(n, k):
    """``decomposition._rows`` with a producer fault: the first row 200
    times, so its S gets a K-polynomial coefficient of 200, outside the
    byte range."""
    rows = _real_script(n, k)
    return rows[:1] * 200 + rows[1:]


def test_a_coefficient_outside_the_byte_range_falls_back_to_the_counts(monkeypatch):
    # the byte K-polynomial raises on the coefficient 200, and verify then
    # names exactly the supports, and counts exactly the failures, that the
    # transform on the list path names and counts
    n, k = 7, 3
    rows = _repeated_row(n, k)
    with pytest.raises(ValueError):
        k_polynomial(rows, bytearray(b"\x80") * (1 << n))
    monkeypatch.setattr(decomposition, "_rows", _repeated_row)
    got = verify_stanley(n, k, check_rank=False)
    monkeypatch.setattr(
        decomposition, "_counts_off_target",
        lambda n_, rows_, target: contribution_counts(n_, rows_()),
    )
    want = verify_stanley(n, k, check_rank=False)
    for field in ("passed", "counts", "failures", "lines"):
        assert getattr(got, field) == getattr(want, field), field
    counts = naive_support_counts(n, rows)
    lines = [
        f"support {Subset.from_mask(n, m)}: {counts[m]} summands vs dimension "
        f"{comb(m.bit_count() - 1, k - 1)}"
        for m in range(1, 1 << n) if counts[m] != comb(m.bit_count() - 1, k - 1)
    ]
    assert lines and got.failures == lines
    assert got.counts["hilbert_failures"] == got.counts["family_size_mismatches"] == len(lines)


def test_script_order_is_not_a_fault(monkeypatch):
    # a direct sum has no order: the script in descending squashed order
    # passes verify, and only the listing of decompose changes
    monkeypatch.setattr(decomposition, "_rows", lambda n, k: _real_script(n, k)[::-1])
    for n, k in ((6, 3), (8, 4), (9, 4)):
        assert verify_stanley(n, k, check_rank=True).passed
