"""The matching maps, the index function, and the greedy oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from koszuldepth.matching import (
    greedy_lex_matching,
    index,
    phi,
    psi,
    psi_tilde,
)
from koszuldepth.subsets import MAX_N, Subset, lattice_path

from helpers import (
    all_element_sets,
    index_by_psi,
    naive_facet,
    naive_greedy,
    naive_phi,
    naive_psi,
)


def _mask(elements):
    return sum(1 << (e - 1) for e in elements)


def _step(result):
    return (set(result.value.elements), result.pivot) if result.defined else None


def _naive_step(elements, image):
    return None if image is None else (image, *(elements ^ image))


def test_psi_examples():
    r = psi(Subset(7, [1, 2, 4, 5, 7]))
    assert r.defined and r.value == Subset(7, [1, 2, 4, 7]) and r.pivot == 5

    for n in (1, 4, 9):
        r = psi(Subset(n, range(1, n + 1)))
        assert r.value == Subset(n, range(1, n)) and r.pivot == n

    r = psi(Subset(3, [2]))  # heights 0,-1,0,-1: peak at the origin
    assert not r.defined and not r

    r = psi(Subset(7, [1, 2, 4, 7]))
    assert r.value == Subset(7, [1, 4, 7]) and r.pivot == 2


def test_phi_examples():
    r = phi(Subset(7, [1, 4, 7]))
    assert r.defined and r.value == Subset(7, [1, 2, 4, 7]) and r.pivot == 2

    for n in (1, 5):
        r = phi(Subset(n))
        assert r.value == Subset(n, [1]) and r.pivot == 1
        assert not phi(Subset(n, range(1, n + 1))).defined

    assert not phi(Subset(7, [1, 2, 4, 5, 7])).defined  # peak ends at n


def test_psi_tilde_examples():
    r = psi_tilde(Subset(7, [4, 5, 7]))  # all heights negative, first peak at 5
    assert r.value == Subset(7, [4, 7]) and r.pivot == 5

    r = psi_tilde(Subset(7, [1, 2, 5]))
    assert r.value == Subset(7, [1, 5]) and r.pivot == 2

    assert psi_tilde(Subset(4, [1])).value == Subset(4)

    with pytest.raises(ValueError):
        psi_tilde(Subset(4))


@pytest.mark.parametrize("n", range(1, 11))
def test_psi_tilde_refines_psi(n):
    # wherever the unrestricted peak is positive the two maps agree
    for elems in all_element_sets(n):
        if not elems:
            continue
        g = Subset(n, elems)
        r = psi(g)
        if r.defined:
            assert psi_tilde(g).value == r.value


@pytest.mark.parametrize("n", range(1, 11))
def test_inverse_and_image_laws(n):
    image = set()
    phi_defined = set()
    threshold = (n + 2) // 2  # ceil((n+1)/2)
    for elems in all_element_sets(n):
        g = Subset(n, elems)
        down, up = psi(g), phi(g)
        if down.defined:
            image.add(down.value)
            assert phi(down.value).value == g
        else:
            assert len(g) < threshold
        if up.defined:
            phi_defined.add(g)
            assert psi(up.value).value == g
            assert lattice_path(g).mu < n
    assert image == phi_defined


@settings(max_examples=200)
@given(st.integers(1, MAX_N), st.data())
def test_inverse_laws_random_large_ground(n, data):
    g = Subset.from_mask(n, data.draw(st.integers(0, (1 << n) - 1)))
    down, up = psi(g), phi(g)
    if down.defined:
        assert phi(down.value).value == g
    if up.defined:
        assert psi(up.value).value == g
    # values and pivots against the independent oracles
    elems = set(g.elements)
    assert [_step(down), _step(up), _step(psi_tilde(g)) if elems else None] == [
        _naive_step(elems, naive_psi(n, elems)),
        _naive_step(elems, naive_phi(n, elems)),
        _naive_step(elems, naive_facet(n, elems) if elems else None),
    ]


def test_index_examples():
    M = Subset(7, [1, 2, 4, 5, 7])
    assert index(Subset(7, [1, 4, 7]), M) == 2
    assert index(Subset(7, [1, 2, 5]), M) == 0
    assert index(Subset(7, [1, 2, 4]), M) == 1
    for n in (1, 3, 6):
        assert index(Subset(n, range(1, n + 1)), Subset(n, range(1, n + 1))) == 0


def test_index_contract():
    with pytest.raises(ValueError):
        index(Subset(5, [3]), Subset(5, [1, 2]))
    with pytest.raises(ValueError):
        index(Subset(4, [1]), Subset(5, [1]))


def test_index_by_psi_examples():
    M = {1, 2, 4, 5, 7}
    assert index_by_psi(7, {1, 4, 7}, M) == 2
    assert index_by_psi(7, {1, 4, 5}, M) == 0
    assert index_by_psi(7, M, M) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_index_definitions_agree(n):
    # exhaustive agreement of the linear-time form with the defining search
    for m_elems in all_element_sets(n):
        M = Subset(n, m_elems)
        for mask in range(1 << n):
            if mask & ~M.mask:
                continue
            G = Subset.from_mask(n, mask)
            assert index(G, M) == index_by_psi(n, set(G.elements), m_elems)


def test_greedy_examples():
    # masks: bit e-1 is element e; -1 where a set is unmatched
    table = greedy_lex_matching(3)
    assert (table[0b011], table[0b101], table[0b110]) == (0b001, 0b100, 0b010)
    assert (table[0b001], table[0b010], table[0b100]) == (0, -1, -1)  # {2} and {3}
    assert table[0] == -1 and table[0b111] == 0b011
    assert list(greedy_lex_matching(2)) == [-1, 0, -1, 0b01]


def _levels(n, table):
    """The defined entries of a greedy table per level l, as {(l+1)-set: l-set}."""
    levels = [{} for _ in range(n)]
    for big, small in enumerate(table):
        if small >= 0:
            levels[big.bit_count() - 1][big] = small
    return levels


@pytest.mark.parametrize("n", range(1, 10))
def test_greedy_equals_naive_greedy(n):
    table = greedy_lex_matching(n)
    assert len(table) == 1 << n
    for l, level in enumerate(_levels(n, table)):
        expected = {_mask(big): _mask(small) for big, small in naive_greedy(n, l).items()}
        assert level == expected
    # the -1 entries are exactly the sets naive_greedy leaves unmatched
    matched = {_mask(big) for l in range(n) for big in naive_greedy(n, l)}
    assert {mask for mask in range(1 << n) if table[mask] == -1} == set(range(1 << n)) - matched


@pytest.mark.parametrize("n", range(1, 9))
def test_greedy_equals_formula_on_total_levels(n):
    threshold = (n + 2) // 2
    greedy = greedy_lex_matching(n)
    for mask in range(1 << n):
        if mask.bit_count() >= threshold:
            r = psi(Subset.from_mask(n, mask))
            assert r.defined and greedy[mask] == r.value.mask
    # greedy is injective level by level
    for level in _levels(n, greedy):
        values = list(level.values())
        assert len(values) == len(set(values))
