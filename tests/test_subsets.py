"""Subset type, lattice paths, and squashed order.

The package compares equal-size subsets in squashed order as integers on
their masks; the tests hold that against the naive definition.
"""

import pytest
from hypothesis import given, strategies as st

from koszuldepth.subsets import (
    MAX_N,
    Subset,
    check_ground,
    format_subset,
    lattice_path,
    parse_subset,
    same_ground,
)

from helpers import all_element_sets, naive_path, naive_squashed_precedes


def test_lattice_path_examples():
    p = lattice_path(Subset(7, [1, 2, 4, 5, 7]))
    assert p.heights == (0, 1, 2, 1, 2, 3, 2, 3)
    assert (p.alpha, p.nu, p.mu) == (3, 5, 7)
    assert p.peaks == (5, 7)

    p = lattice_path(Subset(3))
    assert p.heights == (0, -1, -2, -3)
    assert (p.alpha, p.nu, p.mu) == (0, 0, 0)

    for n in (1, 5, 16):
        p = lattice_path(Subset(n, range(1, n + 1)))
        assert p.heights == tuple(range(n + 1))
        assert (p.alpha, p.nu, p.mu) == (n, n, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_path_matches_scalar_loop(n):
    for elems in all_element_sets(n):
        g = Subset(n, elems)
        p = lattice_path(g)
        heights, alpha, first, last = naive_path(n, elems)
        assert p.heights == tuple(heights)
        assert (p.alpha, p.nu, p.mu) == (alpha, first, last)


@pytest.mark.parametrize("n", range(1, 9))
def test_path_invariants(n):
    for elems in all_element_sets(n):
        g = Subset(n, elems)
        p = lattice_path(g)
        assert p.heights[0] == 0
        assert all(abs(a - b) == 1 for a, b in zip(p.heights, p.heights[1:]))
        assert p.heights[n] == 2 * len(g) - n
        assert p.alpha >= p.heights[n]
        assert p.alpha >= 0
        assert p.peaks and set(p.peaks) <= elems | {0}
        assert p.nu == min(p.peaks) and p.mu == max(p.peaks)


def test_squashed_examples():
    # the larger side of each pair owns the top of the symmetric difference,
    # and has the larger mask
    for a, b in ((Subset(7, [1, 2, 5]), Subset(7, [1, 4, 7])),
                 (Subset(7, [1, 2, 5]), Subset(7, [1, 4, 5]))):
        assert naive_squashed_precedes(a.elements, b.elements)
        assert not naive_squashed_precedes(b.elements, a.elements)
        assert a.mask < b.mask
    g = Subset(7, [2, 3])
    assert not naive_squashed_precedes(g.elements, g.elements)


def test_squashed_matches_naive_and_mask_order():
    # on a level, squashed order is integer order on masks
    for n in range(1, 8):
        sets = [Subset(n, e) for e in all_element_sets(n)]
        for a in sets:
            for b in sets:
                if len(a) != len(b):
                    continue
                assert naive_squashed_precedes(a.elements, b.elements) == (a.mask < b.mask)


def test_squashed_is_strict_total_order_on_levels():
    n = 6
    sets = [frozenset(e) for e in all_element_sets(n)]
    for a in sets:
        assert not naive_squashed_precedes(a, a)
        for b in sets:
            if len(a) != len(b):
                continue
            assert (a == b) or (naive_squashed_precedes(a, b) ^ naive_squashed_precedes(b, a))


@given(st.integers(2, 8), st.data())
def test_squashed_transitive(n, data):
    level = data.draw(st.integers(1, n - 1))
    elems = st.sets(st.integers(1, n), min_size=level, max_size=level)
    a, b, c = (data.draw(elems) for _ in range(3))
    if naive_squashed_precedes(a, b) and naive_squashed_precedes(b, c):
        assert naive_squashed_precedes(a, c)


def test_ground_validation():
    with pytest.raises(ValueError):
        Subset(0)
    with pytest.raises(ValueError):
        Subset(MAX_N + 1)
    with pytest.raises(ValueError):
        Subset(3, [4])
    with pytest.raises(ValueError):
        Subset(3, [0])
    for n in (3.0, "3", True):
        with pytest.raises(ValueError, match="must be an integer"):
            check_ground(n)


def test_mixed_grounds_rejected():
    with pytest.raises(ValueError, match="mixed ground sets"):
        same_ground(Subset(3, [1]), Subset(4, [1]))


def test_mask_roundtrip():
    for n in (1, 5, 9):
        for mask in range(1 << n):
            assert Subset.from_mask(n, mask).mask == mask
        # a mask wider than n, or negative, fits no subset of {1..n}
        for mask in (1 << n, -1):
            with pytest.raises(ValueError, match="does not fit ground set"):
                Subset.from_mask(n, mask)


def test_format_and_parse():
    g = Subset(7, [1, 4, 7])
    assert format_subset(g) == "{1,4,7}"
    assert str(Subset(3)) == "{}"
    assert parse_subset(7, "{1,4,7}") == g
    assert parse_subset(7, "{ 7, 1 , 4 }") == g
    assert parse_subset(7, "147") == g
    assert parse_subset(3, "{}") == Subset(3)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_subset(10, "147")  # compact form needs n <= 9
    with pytest.raises(ValueError):
        parse_subset(7, "{1,1}")
    with pytest.raises(ValueError):
        parse_subset(7, "11")
    with pytest.raises(ValueError):
        parse_subset(7, "{8}")
    with pytest.raises(ValueError):
        parse_subset(7, "nonsense")
    with pytest.raises(ValueError):
        parse_subset(7, "{1,x}")


@given(st.integers(1, MAX_N), st.data())
def test_parse_format_roundtrip(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    g = Subset.from_mask(n, mask)
    assert parse_subset(n, format_subset(g)) == g
