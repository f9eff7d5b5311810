"""Independent oracles used to derive and pin expected values.

Everything here is deliberately written from first principles (plain loops,
brute enumeration, sympy for exact rank, list elimination for rank mod 2) so
that it shares no code path with the package under test.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import sympy


def naive_path(n: int, elements: set[int]):
    """Scalar re-derivation of the height profile and its peak data."""
    heights = [0]
    for g in range(1, n + 1):
        heights.append(heights[-1] + (1 if g in elements else -1))
    best = first = last = None
    for g in [0] + sorted(elements):
        h = heights[g]
        if best is None or h > best:
            best, first, last = h, g, g
        elif h == best:
            last = g
    return heights, best, first, last


def naive_index_up(n: int, G: set[int], M: set[int]) -> int:
    """Index of G inside M: how often the upward step (insert the successor
    of the last peak, origin included) can be taken without leaving M."""
    cur = set(G)
    steps = 0
    while True:
        _, _, _, last = naive_path(n, cur)
        if last == n or last + 1 not in M:
            return steps
        cur.add(last + 1)
        steps += 1


def naive_psi(n: int, elements: set[int]) -> set[int] | None:
    """The downward step: delete the first peak (origin included), or None
    when that peak is the origin."""
    _, _, first, _ = naive_path(n, elements)
    return None if first == 0 else elements - {first}


def index_by_psi(n: int, G: set[int], M: set[int]) -> int:
    """Index of G inside M by its defining search: the largest number of
    downward steps leading from a subset of M to G.  Exponential in |M|."""
    best = 0
    for size in range(len(G) + 1, len(M) + 1):
        for start in combinations(sorted(M), size):
            cur = set(start)
            for _ in range(size - len(G)):
                cur = naive_psi(n, cur)
                if cur is None:
                    break
            if cur == G:
                best = size - len(G)
                break
    return best


def compute_Z_by_search(n: int, S: set[int]) -> tuple[set[int], int | None]:
    """The variables of the summand at S, by trying every insertion: all but
    the element whose insertion the downward step undoes, or all if none."""
    hits = [s for s in range(1, n + 1) if s not in S and naive_psi(n, S | {s}) == S]
    assert len(hits) <= 1, f"matching not injective at {S}: preimages add {hits}"
    full = set(range(1, n + 1))
    if hits:
        return full - {hits[0]}, hits[0]
    return full, None


def naive_summands(n: int, k: int):
    """(S, Z, removed, G) per summand of the decomposition of M(n, k).

    S runs over the sets of size k, k+2, k+4, ... by level, each level in
    squashed order (lexicographic on the elements read from the largest
    down); G is S after |S| - k downward steps.
    """
    out = []
    for size in range(k, n + 1, 2):
        for S in sorted(combinations(range(1, n + 1), size), key=lambda c: c[::-1]):
            G = set(S)
            for _ in range(size - k):
                G = naive_psi(n, G)
            Z, removed = compute_Z_by_search(n, set(S))
            out.append((set(S), Z, removed, G))
    return out


def naive_squashed_precedes(a: set[int], b: set[int]) -> bool:
    """a strictly before b: the largest element where they differ lies in b."""
    diff = a ^ b
    return bool(diff) and max(diff) in b


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([list(r) for r in rows]).rank()


def naive_rank_mod2(rows) -> int:
    """Rank over GF(2) of 0/1 rows given as lists, by Gauss-Jordan
    elimination on a list-of-lists copy."""
    m = [[e % 2 for e in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def koszul_image_dim(k: int, exponents) -> int:
    """Dimension of the syzygy module component at one multidegree, computed
    as the exact rank of the wedge boundary matrix restricted there."""
    supp = [i + 1 for i, e in enumerate(exponents) if e > 0]
    cols = {c: j for j, c in enumerate(combinations(supp, k - 1))}
    rows = []
    for T in combinations(supp, k):
        row = [0] * len(cols)
        for j, t in enumerate(T):
            facet = tuple(x for x in T if x != t)
            row[cols[facet]] = (-1) ** j
        rows.append(row)
    return sympy_rank(rows)


def all_element_sets(n: int):
    """Every subset of {1..n} as a python set, by mask order."""
    for mask in range(1 << n):
        yield {e for e in range(1, n + 1) if (mask >> (e - 1)) & 1}


def naive_facet(n: int, elements: set[int]) -> set[int]:
    """The distinguished facet: drop the first member where the height over
    the members alone is largest."""
    heights, _, _, _ = naive_path(n, elements)
    top = max(heights[g] for g in elements)
    return elements - {min(g for g in elements if heights[g] == top)}


def naive_triangle(family):
    """Quadratic triangle check on element sets: (G, H) for the first member G
    whose distinguished facet lies in an earlier member H, the earliest such
    H, or None."""
    n = family.M.n
    earlier = []
    for member in family.members:
        t = naive_facet(n, set(member.G.elements))
        for h in earlier:
            if t <= h.elements:
                return member.G, h
        earlier.append(member.G)
    return None


def naive_admissible(n: int, M: set[int], G: set[int], H: set[int]) -> bool:
    """Whether (M, G, H) is admissible for the index-increment claim: G and H
    are equal-size subsets of M with at least max(floor(n/2), 1) elements,
    H precedes G in squashed order, and H strictly contains the
    distinguished facet of G."""
    return (
        G <= M
        and H <= M
        and len(G) == len(H) >= max(n // 2, 1)
        and naive_squashed_precedes(H, G)
        and naive_facet(n, G) < H
    )


class Triple(NamedTuple):
    """One admissible triple of the index-increment claim, with its data."""

    M: frozenset[int]
    G: frozenset[int]
    H: frozenset[int]
    case: int  # 1 if the peak height over G alone is >= 0, else 2
    index_G: int
    index_H: int
    x: int  # the element H adds to the distinguished facet of G

    @property
    def expected_H(self) -> int:
        """The index of H that the claim predicts."""
        return self.index_G + 1 if self.case == 1 else 1


def admissible_triples(n: int):
    """Every admissible (M, G, H) over [n], straight from the definition.

    G and H are equal-size subsets of M with at least max(floor(n/2), 1)
    elements, H precedes G in squashed order, and H strictly contains the
    distinguished facet t of G.  Such an H is t plus one element x of M
    outside t, so every candidate x is tried and the order test decides.
    """
    for M in all_element_sets(n):
        for size in range(max(n // 2, 1), len(M) + 1):
            for G in map(set, combinations(sorted(M), size)):
                heights, _, _, _ = naive_path(n, G)
                case = 1 if max(heights[g] for g in G) >= 0 else 2
                t = naive_facet(n, G)
                index_G = naive_index_up(n, G, M)
                for x in sorted(M - t):
                    H = t | {x}
                    if naive_squashed_precedes(H, G):
                        yield Triple(
                            frozenset(M), frozenset(G), frozenset(H),
                            case, index_G, naive_index_up(n, H, M), x,
                        )
