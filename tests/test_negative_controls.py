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
from koszuldepth.bits import match_tables
from koszuldepth.decomposition import (
    build_decomposition,
    contribution_family,
    verify_hilbert,
    verify_stanley,
)
from koszuldepth.koszul import Multidegree, dim_oracle
from koszuldepth.maskchecks import contribution_counts, triangle_pairs
from koszuldepth.subsets import Subset

from helpers import naive_contributes, naive_support_counts, naive_violating_pairs


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
    # the pass per support only probes facets below the pivot; on a hit, its
    # line must be the pair the general order-agnostic search finds on the
    # support's canonical family
    n, k = 6, 2
    expected = []
    for m_mask in range(1, 1 << n):
        if m_mask.bit_count() < k:
            continue
        M = Subset.from_mask(n, m_mask)
        members = [mem.G for mem in contribution_family(n, k, M).members]
        bad = decomposition._first_violation(match_tables(n), m_mask, [G.mask for G in members])
        if bad is not None:
            i, j = bad
            expected.append(
                f"support {M}: distinguished facet of {members[i]} lies inside earlier {members[j]}"
            )
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
