"""Multidegrees, the wedge boundary map, and the dimension oracle.

Every element handled here is a signed-monomial combination of wedge basis
vectors, which is all the decomposition ever produces: the boundary of a
basis vector, and that boundary scaled by a monomial.  Linear independence
questions therefore reduce to sign matrices over the basis subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .subsets import Subset, same_ground


@dataclass(frozen=True)
class Multidegree:
    """A vector of n non-negative exponents grading the polynomial ring."""

    n: int
    exponents: tuple[int, ...]

    def __init__(self, n: int, exponents) -> None:
        exps = tuple(exponents)
        if any(not isinstance(e, int) or isinstance(e, bool) for e in exps):
            raise ValueError(f"exponents must be integers, got {exps}")
        if len(exps) != n:
            raise ValueError(f"expected {n} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", exps)

    def support(self) -> Subset:
        return Subset(self.n, (i + 1 for i, e in enumerate(self.exponents) if e > 0))

    def total(self) -> int:
        return sum(self.exponents)

    def plus(self, other: Multidegree) -> Multidegree:
        if self.n != other.n:
            raise ValueError("mixed ground sets")
        return Multidegree(self.n, (a + b for a, b in zip(self.exponents, other.exponents)))

    def masks(self) -> tuple[int, int]:
        """``(support, repeated)``: bit i-1 is set where exponent i is at
        least 1, respectively at least 2."""
        bits = list(enumerate(self.exponents))
        return sum(1 << i for i, e in bits if e), sum(1 << i for i, e in bits if e > 1)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def indicator(S: Subset) -> Multidegree:
    """The squarefree multidegree with exponent 1 exactly on S."""
    return Multidegree(S.n, (1 if i + 1 in S.elements else 0 for i in range(S.n)))


@dataclass(frozen=True)
class SignEntry:
    """The coefficient of basis subset T inside the boundary of basis subset G."""

    G: Subset
    T: Subset
    sign: int
    dropped: int


def boundary_sign(G: Subset, T: Subset) -> SignEntry | None:
    """Sign entry for T in the boundary of G, or None when T is not a facet of G.

    The sign is (-1)^(j+1) where the dropped element is the j-th smallest of G.
    """
    same_ground(G, T)
    if len(T) != len(G) - 1:
        raise ValueError(f"need |T| = |G|-1, got |G|={len(G)}, |T|={len(T)}")
    if not T.elements <= G.elements:
        return None
    (dropped,) = G.elements - T.elements
    j = G.sorted_elements().index(dropped) + 1
    return SignEntry(G, T, 1 if j % 2 == 1 else -1, dropped)


@dataclass(frozen=True)
class ChainTerm:
    basis: tuple[int, ...]
    sign: int
    coefficient: Multidegree


@dataclass(frozen=True)
class KoszulChain:
    """A signed-monomial combination of equal-size wedge basis subsets.

    Terms are kept in squashed order of the basis subset, greatest first
    (for a boundary this is ascending order of the dropped element), which
    makes the text form canonical.
    """

    n: int
    terms: tuple[ChainTerm, ...]

    def text(self) -> str:
        parts = []
        for t in self.terms:
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(t.coefficient.exponents)
                if e > 0
            ]
            mono = "*".join(factors) if factors else "1"
            basis = "{" + ",".join(str(b) for b in t.basis) + "}"
            parts.append(f"{'+' if t.sign > 0 else '-'}{mono}*e{basis}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text()


def _basis_mask(basis: tuple[int, ...]) -> int:
    m = 0
    for e in basis:
        m |= 1 << (e - 1)
    return m


def _make_chain(n: int, terms: list[ChainTerm]) -> KoszulChain:
    sizes = {len(t.basis) for t in terms}
    assert len(sizes) <= 1, "mixed wedge degrees in one chain"
    terms.sort(key=lambda t: -_basis_mask(t.basis))
    return KoszulChain(n, tuple(terms))


def boundary(G: Subset) -> KoszulChain:
    """Boundary of the wedge basis vector indexed by G.

    Dropping the j-th smallest element contributes sign (-1)^(j+1) and the
    variable of the dropped element, so every term has total multidegree
    equal to the indicator of G.
    """
    if not G.elements:
        raise ValueError("boundary needs a non-empty subset")
    n = G.n
    terms = []
    for j, g in enumerate(G.sorted_elements(), start=1):
        coeff = indicator(Subset(n, {g}))
        basis = tuple(e for e in G.sorted_elements() if e != g)
        terms.append(ChainTerm(basis, 1 if j % 2 == 1 else -1, coeff))
    return _make_chain(n, terms)


def generator_m(S: Subset, G: Subset) -> KoszulChain:
    """The chosen generator of multidegree S: the boundary of G scaled by the
    monomial on S minus G."""
    same_ground(S, G)
    if not G.elements <= S.elements:
        raise ValueError(f"{G} is not contained in {S}")
    scale = indicator(Subset(S.n, S.elements - G.elements))
    terms = [
        ChainTerm(t.basis, t.sign, t.coefficient.plus(scale))
        for t in boundary(G).terms
    ]
    return _make_chain(S.n, terms)


def term_multidegree(term: ChainTerm, n: int) -> Multidegree:
    """Total multidegree of a term: coefficient plus the basis indicator."""
    return term.coefficient.plus(indicator(Subset(n, term.basis)))


def boundary_squared(G: Subset) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Apply the boundary twice and accumulate coefficients.

    Returns the non-zero accumulated coefficients keyed by (basis, exponents);
    an empty dict certifies that the composite vanishes on G.
    """
    if len(G) < 2:
        raise ValueError("boundary_squared needs |G| >= 2")
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for t1 in boundary(G).terms:
        inner = Subset(G.n, t1.basis)
        for t2 in boundary(inner).terms:
            coeff = t1.coefficient.plus(t2.coefficient)
            key = (t2.basis, coeff.exponents)
            acc[key] = acc.get(key, 0) + t1.sign * t2.sign
    return {k: v for k, v in acc.items() if v != 0}


def dim_oracle(n: int, k: int, m: Multidegree) -> int:
    """Dimension of the degree-m component of the k-th syzygy module.

    Computed as the alternating sum of wedge-module dimensions truncated at
    homological degree k; with s the support size of m, the j-th wedge module
    contributes C(s, j).  The closed form C(s-1, k-1) is a consequence that
    the tests verify rather than assume.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if m.n != n:
        raise ValueError(f"multidegree over n={m.n}, expected {n}")
    s = len(m.support())
    return sum((-1) ** (j - k) * comb(s, j) for j in range(k, s + 1))
