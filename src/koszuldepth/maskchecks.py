"""Verification kernels on masks, for :mod:`koszuldepth.decomposition`.

The checks that let ``verify`` decide without visiting a support run on the
upward chains of :func:`koszuldepth.bits.k_subset_table` (``even_stops``,
from which the script is built, and ``triangle_pairs``, which also yields a
witness support per violating pair) and on one subset-sum transform
(``contribution_counts``, whose counts are also the family sizes); the
README states the lemmas behind them.  A support's family is its k-subsets
of even index (``even_members``), which only the rank check mod 2
(``facet_rows``, ``rank_full_mod2``) reads per support.
"""

from __future__ import annotations

from operator import add
from typing import Iterator

from .bits import chain_index, k_subset_table, sized_submasks


def even_members(table, m: int, k: int) -> list[tuple[int, int]]:
    """The k-subsets of m with even index, ascending, with their indices
    (``table`` as :func:`k_subset_table` gives it)."""
    members = []
    for g in sized_submasks(m, k):
        ind = chain_index(table[g][0], m)
        if not ind & 1:
            members.append((g, ind))
    return members


def odd_positions(mask: int) -> int:
    """The first, third, fifth, ... elements of ``mask``, ascending."""
    odd = 0
    while mask:
        low = mask & -mask
        odd |= low
        mask ^= low
        mask &= mask - 1
    return odd


def even_stops(added: int) -> list[tuple[int, int]]:
    """Per even j, the chain's insertions ``a_1..a_j`` as a mask and the bit
    of ``a_{j+1}`` (0 past the chain's end): g has index j in M exactly when
    M holds g and the mask and lacks the bit."""
    odd = odd_positions(added)
    out = []
    while odd:
        low = odd & -odd
        out.append((added & (low - 1), low))
        odd ^= low
    if not added.bit_count() & 1:
        out.append((added, 0))
    return out


def triangle_pairs(n: int, k: int) -> Iterator[tuple[int, int, int]]:
    """Every triple (g, h, r) of k-subsets g and h and a support r on which
    both have even index and h, an earlier k-subset, contains g's
    distinguished facet; one triple per such pair (g, h).

    h is the facet plus an element x of g's probe.  With chains a of g and
    b of h, the least witness of indices i and j is ``R = g | x | a_1..a_i |
    b_1..b_j``, which must lack a_{i+1} and b_{j+1} (README, "Checking
    without visiting supports").  Per even i: a_{i+1} is not x, and some
    even j < len(b) has b_{j+1} outside ``g | x | a_1..a_i`` and no earlier
    b equal to a_{i+1}, or j = len(b) is even and b lacks a_{i+1}.  r is R
    for the first such i and the lowest such j.
    """
    table = k_subset_table(n, k)
    # per chain, the bits of b_{j+1} for even j; for an even j = len(b),
    # past the chain's end, a bit above every element
    odd = {
        g: odd_positions(added) | (0 if added.bit_count() & 1 else 1 << n)
        for g, (added, _, _) in table.items()
    }
    for g, (added, t, probe) in table.items():
        stops = [(g | prefix, a) for prefix, a in even_stops(added)]
        while probe:
            x = probe & -probe
            probe ^= x
            h = t | x
            b_added, b_odd = table[h][0], odd[h]
            for base, a in stops:
                if a == x:
                    continue
                # the b_{j+1} that R lacks; with a_{i+1} in b's chain, only
                # those up to it leave a_{i+1} out of b_1..b_j
                hit = b_odd & ~(base | x)
                if a & b_added:
                    hit &= (a << 1) - 1
                if hit:
                    yield g, h, base | x | b_added & ((hit & -hit) - 1)
                    break


def subset_sums(values: list[int], n: int) -> None:
    """Turn ``values`` over the masks of {1..n} into its sums over submasks.

    Per bit, each mask with the bit adds its partner without it, by slices:
    contiguous runs when they are few, else strided, about 2 * 2^(n/2) in all.
    """
    size = 1 << n
    for b in range(n):
        step = 1 << b
        span = step << 1
        if size // span <= step:
            for lo in range(0, size, span):
                mid = lo + step
                values[mid:mid + step] = map(add, values[mid:mid + step], values[lo:mid])
        else:
            for lo in range(step):
                values[lo + step::span] = map(add, values[lo + step::span], values[lo::span])


def contribution_counts(n: int, summands) -> list[int]:
    """Per support mask, how many summands ``(S, removed, ...)`` contribute
    there, those with S inside it and the removed element outside: +1 at S
    and -1 at S plus the removed element, summed over submasks."""
    counts = [0] * (1 << n)
    for s, removed, *_ in summands:
        counts[s] += 1
        if removed is not None:
            counts[s | 1 << (removed - 1)] -= 1
    subset_sums(counts, n)
    return counts


def facet_rows(m_mask: int, k: int, members: list[int]) -> list[int]:
    """The sign matrix of the given k-subsets of M reduced mod 2, one int
    bitmask per member.

    Bit j of a row is set when the j-th (k-1)-subset of M, ascending (the
    column order of the sign matrix), is a facet of that member.
    """
    cols = {t: 1 << j for j, t in enumerate(sized_submasks(m_mask, k - 1))}
    rows = []
    for g in members:
        row = 0
        rest = g
        while rest:
            low = rest & -rest
            row |= cols[g ^ low]
            rest ^= low
        rows.append(row)
    return rows


def rank_full_mod2(rows: list[int]) -> bool:
    """Full row rank over GF(2) of 0/1 rows given as int bitmasks.

    Keeps an XOR basis keyed by each basis row's lowest set bit; a row that
    reduces to zero is dependent on the earlier ones.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = row
                break
            row ^= pivot
        else:
            return False
    return True
