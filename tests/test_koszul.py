"""Multidegrees, the boundary map, the generators, and the dimension oracle.

The boundary of G is the generator ``generator_m(G, G)``; ``boundary`` and
the degree arithmetic come from the oracles in ``helpers``.
"""

from itertools import product
from math import comb

import pytest

from koszuldepth.koszul import Multidegree, boundary_sign, dim_oracle, generator_m
from koszuldepth.subsets import Subset

from helpers import (
    all_element_sets,
    boundary,
    boundary_squared,
    indicator,
    koszul_image_dim,
    term_multidegree,
)


def test_multidegree_basics():
    m = Multidegree(4, (2, 0, 1, 0))
    assert sum(m.exponents) == 3
    assert m.masks() == (0b0101, 0b0001)
    with pytest.raises(ValueError):
        Multidegree(4, (1, 2, 3))
    with pytest.raises(ValueError):
        Multidegree(3, (1, -1, 0))


@pytest.mark.parametrize("exps", [(1.7, 0, 0), (0.9, 0, 0), (1.0, 0, 0), (True, 0, 0), ("1", 0, 0)])
def test_multidegree_rejects_non_integer_exponents(exps):
    # int() would truncate 1.7 to 1 and 0.9 to 0, so the oracle would
    # answer for another multidegree
    with pytest.raises(ValueError, match="exponents must be integers"):
        Multidegree(3, exps)


def test_boundary_examples():
    assert boundary(Subset(3, [1, 3])).text() == "+x1*e{3} -x3*e{1}"
    assert boundary(Subset(4, [1])).text() == "+x1*e{}"
    assert boundary(Subset(3, [1, 2, 3])).text() == "+x1*e{2,3} -x2*e{1,3} +x3*e{1,2}"
    with pytest.raises(ValueError):
        boundary(Subset(3))


def test_boundary_sign_examples():
    g = Subset(4, [1, 2, 3])
    # the sign of dropping the 2nd, the 1st and the 3rd smallest element
    assert boundary_sign(g, Subset(4, [1, 3])) == -1
    assert boundary_sign(g, Subset(4, [2, 3])) == 1
    assert boundary_sign(g, Subset(4, [1, 2])) == 1
    assert boundary_sign(g, Subset(4, [1, 4])) is None
    with pytest.raises(ValueError):
        boundary_sign(g, Subset(4, [1]))


@pytest.mark.parametrize("n", range(2, 7))
def test_boundary_squared_vanishes(n):
    for elems in all_element_sets(n):
        if len(elems) < 2:
            continue
        assert boundary_squared(Subset(n, elems)) == {}


def test_generator_examples():
    got = generator_m(Subset(3, [1, 2, 3]), Subset(3, [1]))
    assert got.text() == "+x1*x2*x3*e{}"

    s = Subset(4, [1, 3])
    assert generator_m(s, s) == boundary(s)

    got = generator_m(Subset(7, [1, 2, 4, 5, 7]), Subset(7, [1, 4, 7]))
    assert got.text() == "+x1*x2*x5*e{4,7} -x2*x4*x5*e{1,7} +x2*x5*x7*e{1,4}"
    for term in got.terms:
        assert term_multidegree(term, 7).exponents == (1, 1, 0, 1, 1, 0, 1)

    with pytest.raises(ValueError):
        generator_m(Subset(3, [1, 2]), Subset(3, [3]))


def test_chain_builders_reject_what_they_cannot_build():
    # the boundary of the empty basis vector is not built, with or without a
    # scale, and G must lie inside S over the same ground set
    with pytest.raises(ValueError, match="non-empty"):
        generator_m(Subset(3, [1, 2]), Subset(3))
    with pytest.raises(ValueError, match="non-empty"):
        boundary(Subset(3))
    with pytest.raises(ValueError, match="not contained"):
        generator_m(Subset(4, [1, 2]), Subset(4, [2, 3]))
    with pytest.raises(ValueError, match="mixed ground sets"):
        generator_m(Subset(4, [1, 2]), Subset(3, [1]))


@pytest.mark.parametrize("n", range(1, 7))
def test_generator_is_the_scaled_boundary(n):
    # the definition term by term: drop the j-th smallest element d of G with
    # sign (-1)^(j+1), multiply by x_d and the monomial on S - G, and list
    # the terms greatest basis subset first
    for s_elems in all_element_sets(n):
        for g_elems in all_element_sets(n):
            if not g_elems or not g_elems <= s_elems:
                continue
            members = sorted(g_elems)
            expected = []
            for j, d in enumerate(members, start=1):
                basis = tuple(e for e in members if e != d)
                monomial = s_elems - g_elems | {d}
                coeff = Multidegree(n, [int(i in monomial) for i in range(1, n + 1)])
                expected.append((sum(1 << (b - 1) for b in basis), basis, (-1) ** (j + 1), coeff))
            expected.sort(reverse=True, key=lambda t: t[0])
            got = generator_m(Subset(n, s_elems), Subset(n, g_elems))
            assert [(t.basis, t.sign, t.coefficient) for t in got.terms] == [
                (basis, sign, coeff) for _, basis, sign, coeff in expected
            ]


@pytest.mark.parametrize("n", range(2, 9))
def test_homogeneity(n):
    # boundary terms carry the degree of G; generators carry the degree of S
    for elems in all_element_sets(n):
        if not elems:
            continue
        g = Subset(n, elems)
        for term in boundary(g).terms:
            assert term_multidegree(term, n) == indicator(g)
    for k in range(max(n // 2, 1), n):
        for elems in all_element_sets(n):
            if len(elems) < k or (len(elems) - k) % 2:
                continue
            s = Subset(n, elems)
            g = Subset(n, sorted(elems)[:k])  # any k-subset works for homogeneity
            for term in generator_m(s, g).terms:
                assert term_multidegree(term, n) == indicator(s)


def test_dim_oracle_examples_match_matrix_rank():
    cases = [
        (3, 2, (1, 1, 1), 2),
        (3, 2, (2, 1, 1), 2),
        (2, 2, (2, 0), 0),
    ]
    for n, k, exps, expected in cases:
        assert dim_oracle(n, k, Multidegree(n, exps)) == expected
        assert koszul_image_dim(k, exps) == expected


def test_dim_oracle_against_matrix_rank_sweep():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for exps in product(range(3), repeat=n):
                m = Multidegree(n, exps)
                assert dim_oracle(n, k, m) == koszul_image_dim(k, exps)


def test_dim_closed_form():
    # support-size binomial, zero below the homological degree
    for n in range(1, 13):
        for k in range(1, n + 1):
            for s in range(0, n + 1):
                m = Multidegree(n, [1] * s + [0] * (n - s))
                got = dim_oracle(n, k, m)
                assert got == (comb(s - 1, k - 1) if s >= 1 else 0)
                if s < k:
                    assert got == 0


def test_dim_total_degree_form_only_squarefree():
    # on squarefree degrees the support size is the total degree...
    m = Multidegree(5, (1, 1, 0, 1, 0))
    assert dim_oracle(5, 2, m) == comb(sum(m.exponents) - 1, 1)
    # ...but not beyond: (2,1,1) has total degree 4 and dimension C(2,1), not C(3,1)
    m = Multidegree(3, (2, 1, 1))
    assert dim_oracle(3, 2, m) == 2 != comb(sum(m.exponents) - 1, 1)


def test_dim_oracle_contract():
    with pytest.raises(ValueError):
        dim_oracle(3, 0, Multidegree(3, (1, 1, 1)))
    with pytest.raises(ValueError):
        dim_oracle(3, 4, Multidegree(3, (1, 1, 1)))
    with pytest.raises(ValueError):
        dim_oracle(4, 2, Multidegree(3, (1, 1, 1)))


def test_chain_text_term_order():
    # greatest basis subset first, i.e. ascending dropped element
    ch = boundary(Subset(5, [2, 3, 5]))
    assert ch.text() == "+x2*e{3,5} -x3*e{2,5} +x5*e{2,3}"
    masks = [sum(1 << (b - 1) for b in t.basis) for t in ch.terms]
    assert masks == sorted(masks, reverse=True)
