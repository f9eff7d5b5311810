"""Independent oracles used to derive and pin expected values.

Everything here is deliberately written from first principles (plain loops,
brute enumeration, sympy for exact rank) so that it shares no code path with
the package under test.
"""

from __future__ import annotations

from itertools import combinations

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


def naive_squashed_precedes(a: set[int], b: set[int]) -> bool:
    """a strictly before b: the largest element where they differ lies in b."""
    diff = a ^ b
    return bool(diff) and max(diff) in b


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([list(r) for r in rows]).rank()


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
