"""Multidegrees, the wedge boundary map, and the dimension oracle.

Every element handled here is a signed-monomial combination of wedge basis
vectors, which is all the decomposition ever produces: the boundary of a
basis vector, and that boundary scaled by a monomial.  Linear independence
questions therefore reduce to sign matrices over the basis subsets.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .subsets import FrozenValue, Subset, same_ground


class Multidegree(FrozenValue):
    """A vector of n non-negative exponents grading the polynomial ring."""

    __slots__ = ("n", "exponents")
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

    def masks(self) -> tuple[int, int]:
        """``(support, repeated)``: bit i-1 is set where exponent i is at
        least 1, respectively at least 2."""
        bits = list(enumerate(self.exponents))
        return sum(1 << i for i, e in bits if e), sum(1 << i for i, e in bits if e > 1)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def _squarefree(n: int, mask: int) -> Multidegree:
    return Multidegree(n, ((mask >> i) & 1 for i in range(n)))


class SignEntry(NamedTuple):
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
    g, t = G.mask, T.mask
    if t & ~g:
        return None
    dropped = g ^ t
    below = (g & (dropped - 1)).bit_count()
    return SignEntry(G, T, -1 if below % 2 else 1, dropped.bit_length())


class ChainTerm(NamedTuple):
    basis: tuple[int, ...]
    sign: int
    coefficient: Multidegree


class KoszulChain(NamedTuple):
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


def generator_m(S: Subset, G: Subset) -> KoszulChain:
    """The chosen generator of multidegree S: the boundary of G scaled by the
    monomial on S minus G (the boundary itself when S = G).

    Dropping the j-th smallest element of G contributes sign (-1)^(j+1) and
    the variable of the dropped element.  The terms come out in ascending
    dropped element, which is descending basis mask: the canonical order.
    """
    same_ground(S, G)
    n, g = S.n, G.mask
    if g & ~S.mask:
        raise ValueError(f"{G} is not contained in {S}")
    if not g:
        raise ValueError("boundary needs a non-empty subset")
    scale, members = S.mask & ~g, G.sorted_elements()
    terms = (
        ChainTerm(tuple(e for e in members if e != d), 1 if j % 2 else -1,
                  _squarefree(n, scale | 1 << (d - 1)))
        for j, d in enumerate(members, start=1)
    )
    return KoszulChain(n, tuple(terms))


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
    s = m.masks()[0].bit_count()
    return sum((-1) ** (j - k) * comb(s, j) for j in range(k, s + 1))
