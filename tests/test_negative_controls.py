"""Negative controls: below the range guard the theorem fails, and so must
every verification layer.

The guard is bypassed by monkeypatching ``decomposition.require_upper_half``;
no command-line path reaches these sizes.  At k = n/2 - 1 the construction
still builds, and the Hilbert identity, family size, triangle and rank
checks each flag the same supports.  Further below, the downward matching
runs out before size k, and ``verify_stanley`` reports that as one failure
instead of crashing.
"""

from itertools import product

import pytest

from koszuldepth import decomposition
from koszuldepth.decomposition import (
    build_decomposition,
    contribution_family,
    verify_hilbert,
    verify_stanley,
)
from koszuldepth.koszul import Multidegree, dim_oracle
from koszuldepth.maskchecks import contribution_counts, triangle_pairs
from koszuldepth.subsets import Subset

from helpers import naive_contributes, naive_support_counts, naive_triangle, naive_violating_pairs


@pytest.fixture
def unguarded(monkeypatch):
    monkeypatch.setattr(decomposition, "require_upper_half", lambda n, k: None)


@pytest.mark.parametrize(
    "n, k, hilbert_supports, supports, failing",
    [(4, 1, 15, 15, 6), (6, 2, 63, 57, 20), (8, 3, 255, 219, 70)],
)
def test_every_layer_fails_just_below_the_guard(
    unguarded, n, k, hilbert_supports, supports, failing
):
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    assert rep.counts["hilbert_supports"] == hilbert_supports
    assert rep.counts["supports"] == rep.counts["rank_checked"] == supports
    layers = ("hilbert_failures", "family_size_mismatches", "triangle_violations", "rank_failures")
    for key in layers:
        assert rep.counts[key] == failing, key
    assert len(rep.failures) == 4 * failing
    assert rep.text().endswith(f"FAIL stanley decomposition n={n} k={k}")
    # the whole report, to pin the order of the lines per support: every
    # Hilbert failure first, then per support its size, triangle and rank lines
    if (n, k) == (4, 1):
        expected = _below_guard_failures(_FAILING_4_1, rank=True)
        assert rep.to_json() == {
            "name": "stanley decomposition n=4 k=1",
            "passed": False,
            "counts": {
                "hilbert_supports": 15, "hilbert_failures": 6, "summands": 8, "supports": 15,
                "triangle_violations": 6, "family_size_mismatches": 6, "rank_checked": 15,
                "rank_failures": 6, "min_Z": 3,
            },
            "failures": expected,
        }
        lines = [
            "stanley decomposition of M(4,1): 8 summands",
            "hilbert identity (squarefree): 15 degrees checked, 6 failures",
            "families: 15 supports, sizes MISMATCHED, two-form agreement held",
            "triangle condition (squashed order): 6 violations",
            "exact rank: 15 sign matrices, 6 rank deficient",
            "depth: |Z| sizes [3, 4], minimum 3 = n-1 attained by 5 summands",
        ]
        assert rep.lines == lines
        assert rep.text() == "\n".join(
            lines
            + [f"counterexample: {f}" for f in expected[:20]]
            + ["... and 4 more counterexamples", "FAIL stanley decomposition n=4 k=1"]
        )
    if (n, k) == (6, 2):
        rep = verify_stanley(n, k, check_rank=False)
        assert rep.failures == _below_guard_failures(_FAILING_6_2, rank=False)


# per failing support: summands there (also its family size), dimension
# (also C(|M|-1,k-1)), the member whose facet is hit and the earlier member
_FAILING_4_1 = [
    ("{2,4}", 2, 1, "{4}", "{2}"),
    ("{1,2,4}", 2, 1, "{4}", "{2}"),
    ("{3,4}", 2, 1, "{4}", "{3}"),
    ("{1,3,4}", 2, 1, "{3}", "{1}"),
    ("{2,3,4}", 3, 1, "{3}", "{2}"),
    ("{1,2,3,4}", 3, 1, "{3}", "{2}"),
]
_FAILING_6_2 = [
    ("{2,4,6}", 3, 2, "{4,6}", "{2,6}"),
    ("{1,2,4,6}", 4, 3, "{4,6}", "{2,6}"),
    ("{3,4,6}", 3, 2, "{4,6}", "{3,6}"),
    ("{1,3,4,6}", 4, 3, "{3,6}", "{1,6}"),
    ("{2,3,4,6}", 5, 3, "{3,6}", "{2,6}"),
    ("{1,2,3,4,6}", 6, 4, "{3,6}", "{2,6}"),
    ("{2,5,6}", 3, 2, "{5,6}", "{2,5}"),
    ("{1,2,5,6}", 4, 3, "{5,6}", "{2,5}"),
    ("{3,5,6}", 3, 2, "{5,6}", "{3,5}"),
    ("{1,3,5,6}", 4, 3, "{3,5}", "{1,5}"),
    ("{2,3,5,6}", 5, 3, "{3,5}", "{2,5}"),
    ("{1,2,3,5,6}", 6, 4, "{3,5}", "{2,5}"),
    ("{4,5,6}", 3, 2, "{5,6}", "{4,5}"),
    ("{1,4,5,6}", 4, 3, "{4,5}", "{1,4}"),
    ("{2,4,5,6}", 6, 3, "{4,5}", "{2,4}"),
    ("{1,2,4,5,6}", 7, 4, "{4,5}", "{2,4}"),
    ("{3,4,5,6}", 6, 3, "{4,5}", "{3,4}"),
    ("{1,3,4,5,6}", 7, 4, "{3,5}", "{1,5}"),
    ("{2,3,4,5,6}", 9, 4, "{3,5}", "{2,5}"),
    ("{1,2,3,4,5,6}", 10, 5, "{3,5}", "{2,5}"),
]


def _below_guard_failures(rows, rank):
    per_support = [
        [
            f"support {M}: family size {got} != C(|M|-1,k-1) = {dim}",
            f"support {M}: distinguished facet of {g} lies inside earlier {h}",
        ] + ([f"support {M}: sign matrix rank deficient"] if rank else [])
        for M, got, dim, g, h in rows
    ]
    return [f"support {M}: {got} summands vs dimension {dim}" for M, got, dim, _, _ in rows] + [
        line for lines in per_support for line in lines
    ]


@pytest.mark.parametrize("n, k, failing", [(4, 1, 6), (6, 2, 20), (8, 3, 70), (10, 4, 252)])
def test_transform_counts_below_the_guard(unguarded, n, k, failing):
    # the subset-sum transform counts what a push of every summand counts,
    # also where the counts miss the dimension
    script = decomposition._script(n, k)
    counts = contribution_counts(n, script)
    assert counts == naive_support_counts(n, script)
    hilbert = decomposition._squarefree_hilbert(n, k, counts)
    assert len(hilbert.failures) == failing


@pytest.mark.parametrize(
    "n, k, pairs", [(4, 1, 4), (6, 2, 12), (8, 3, 39), (10, 4, 133), (5, 1, 7), (7, 2, 23)]
)
def test_triangle_pairs_below_the_guard(n, k, pairs):
    # the pair test finds exactly the pairs that violate the triangle
    # condition on some support, each once, also where the construction is
    # undefined ((5,1), (7,2)): it reads only the upward chains
    got = list(triangle_pairs(n, k))
    assert len(got) == len(set(got)) == pairs
    assert set(got) == naive_violating_pairs(n, k)


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


def test_triangle_lines_name_the_first_violation(unguarded):
    # each triangle line must be the pair the quadratic search on element
    # sets finds on the support's canonical family, in support order
    n, k = 6, 2
    expected = []
    for m_mask in range(1, 1 << n):
        if m_mask.bit_count() < k:
            continue
        M = Subset.from_mask(n, m_mask)
        bad = naive_triangle(contribution_family(n, k, M))
        if bad is not None:
            g, h = bad
            expected.append(f"support {M}: distinguished facet of {g} lies inside earlier {h}")
    got = [f for f in verify_stanley(n, k, check_rank=False).failures if "distinguished facet" in f]
    assert len(expected) == 20
    assert got == expected


@pytest.mark.parametrize(
    "n, k, mask",
    [(5, 1, Subset(5, [1, 3, 5])), (6, 1, Subset(6, [1, 3, 5])), (7, 2, Subset(7, [1, 3, 5, 7]))],
)
def test_undefined_construction_is_a_structured_failure(unguarded, n, k, mask):
    rep = verify_stanley(n, k, check_rank=True)
    assert not rep.passed
    assert rep.failures == [f"downward matching undefined below {mask}"]
    # no later stage ran
    assert rep.counts == {}
    assert rep.lines == [f"stanley decomposition of M({n},{k}): undefined, no later check run"]
    message = f"downward matching undefined below mask {mask.mask:#x}"
    with pytest.raises(RuntimeError, match=message):
        build_decomposition(n, k)
