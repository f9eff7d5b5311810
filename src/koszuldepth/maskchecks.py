"""Verification kernels on masks, for :mod:`koszuldepth.decomposition`.

The checks that let ``verify`` decide without visiting a support run on the
upward chains of :func:`koszuldepth.bits.k_subset_table`, whose ``odd``
field holds each chain's stops (``even_stop_row``, which checks each row of
the script against its generator's chain, and ``triangle_pairs``, which also
yields a witness support per violating pair), and on the script's rows
pushed into their squarefree K-polynomial (``k_polynomial``, one byte per
mask), which decides the summand counts, and so the family sizes, against
a target per support size (``k_polynomial_by_size``, in bytes
``by_size_bytes``).  Only a mismatch runs the subset-sum transform
(``contribution_counts``), to count the summands per support; the README
states the lemmas behind them.  A support's family is its k-subsets of even
index (``even_members`` for one support).  The rank check mod 2 reads every
family at once from one push of the rows (``even_families``), so it tests
the generators the script names, and every member's row from one table of
sign-matrix rows mod 2 over all (k-1)-subsets of {1..n}
(``facet_row_table``); a row has bits only at its member's facets, which
lie in the support, so against the support's own sign matrix it only gains
zero columns, and ``rank_full_mod2`` decides on it unchanged.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Iterable, Iterator

from .bits import chain_index, k_subset_table, sized_submasks


def even_members(table, m: int, k: int) -> list[tuple[int, int]]:
    """The k-subsets of m with even index, ascending, with their indices
    (``table`` as :func:`k_subset_table` gives it)."""
    members = []
    for g in sized_submasks(m, k):
        ind = chain_index(table.added[g], m)
        if not ind & 1:
            members.append((g, ind))
    return members


def triangle_pairs(n: int, k: int) -> Iterator[tuple[int, int, int]]:
    """Every triple (g, h, r) of k-subsets g and h and a support r on which
    both have even index and h, an earlier k-subset, contains g's
    distinguished facet; one triple per such pair (g, h).

    h is g without its pivot plus an element x outside g below the pivot,
    whichever member that is.  With chains a of g and b of h, the least
    witness of indices i and j is ``R = g | x | a_1..a_i | b_1..b_j``, which
    must lack a_{i+1} and b_{j+1} (README, "Checking without visiting
    supports").  Per even i: a_{i+1} is not x, and some even j < len(b) has
    b_{j+1} outside ``g | x | a_1..a_i`` and no earlier b equal to a_{i+1},
    or j = len(b) is even and b lacks a_{i+1}.  r is R for the first such i
    and the lowest such j; ``odd`` gives the bits of a_{i+1} and b_{j+1}.
    """
    table = k_subset_table(n, k)
    added_at, pivot_at, odd_at = table
    for g in table.masks():
        added, pivot, odd = added_at[g], 1 << pivot_at[g] >> 1, odd_at[g]
        if not pivot & g:
            raise ValueError(f"pivot {pivot:#x} of {g:#x} is not one of its members")
        # per even i, g | a_1..a_i and the bit of a_{i+1}; past the chain's
        # end, a bit above every element, which no chain inserts
        stops = []
        while odd:
            a = odd & -odd
            odd ^= a
            stops.append((g | added & (a - 1), a))
        partners = (pivot - 1) & ~g
        while partners:
            x = partners & -partners
            partners ^= x
            h = g ^ pivot | x
            b_added, b_odd = added_at[h], odd_at[h]
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


def k_polynomial(summands, coeffs):
    """The summands' squarefree K-polynomial, the numerator of their Hilbert
    series over prod(1 - x_i), as its coefficient per mask: +1 at S and -1
    at S plus the removed element, per summand ``(S, removed, ...)``, pushed
    into ``coeffs``, 2^n zeros, or 2^n bytes of 128 that raise ValueError on
    a coefficient outside -128..127.  Its sums over submasks count the
    summands per support."""
    # indexing the rows, where unpacking `s, removed, *_` built a list per row
    for row in summands:
        s, removed = row[0], row[1]
        coeffs[s] += 1
        if removed is not None:
            coeffs[s | 1 << (removed - 1)] -= 1
    return coeffs


def k_polynomial_by_size(by_size: list[int]) -> list[int]:
    """The K-polynomial of the squarefree series whose value at every
    support M is ``by_size[|M|]``, per size s of a mask T: the Moebius sum
    over the submasks of T, sum_j (-1)^(s-j) C(s, j) by_size[j]."""
    return [
        sum((-1) ** (s - j) * comb(s, j) * by_size[j] for j in range(s + 1))
        for s in range(len(by_size))
    ]


def by_size_bytes(n: int, by_size: list[int]) -> bytearray:
    """``by_size[|T|]`` at every mask T over {1..n}, offset by 128 into one
    byte each: the popcounts by doubling, then one translate from size to
    value, both in C.  A value outside -128..127 raises ValueError."""
    sizes, plus_one = bytearray(1), bytes(range(1, 256)) + b"\0"
    for _ in range(n):
        sizes += sizes.translate(plus_one)
    return sizes.translate(bytes(v + 128 for v in by_size).ljust(256, b"\0"))


def contribution_counts(n: int, summands) -> list[int]:
    """Per support mask, how many summands ``(S, removed, ...)`` contribute
    there, those with S inside it and the removed element outside: the sums
    of :func:`k_polynomial` over submasks."""
    counts = k_polynomial(summands, [0] * (1 << n))
    subset_sums(counts, n)
    return counts


def even_families(n: int, summands) -> list[list[int]]:
    """Per support mask over {1..n}, the generators G of the summands
    ``(S, removed, G)`` that meet it, in the order of the rows.

    Each row appends G to every M above S that lacks the removed element,
    one submask walk over the rest of {1..n}; a row whose removed element
    lies in S meets no M.  When every row passes :func:`even_stop_row` and
    each appears once, M's list is its k-subsets of even index (README,
    lemma 1).
    """
    full = (1 << n) - 1
    families: list[list[int]] = [[] for _ in range(full + 1)]
    for s, removed, g in summands:
        a = 0 if removed is None else 1 << (removed - 1)
        if a & s:
            continue
        free = full & ~(s | a)
        sub = free
        while True:
            families[s | sub].append(g)
            if not sub:
                break
            sub = (sub - 1) & free
    return families


def even_stop_row(table, s: int, removed: int | None, g: int) -> bool:
    """Whether the script row ``(S, removed, G)`` is an even stop of G's
    chain (``table`` as :func:`k_subset_table` gives it): G is a k-subset,
    S is G plus the chain's first j insertions for an even j, and the
    removed element, outside S, is the next insertion, None past the end."""
    added_at, _, odd_at = table
    # off the k-subsets odd is 0, and so is every stop tested below
    if g >= len(odd_at) or s & g != g:
        return False
    added, odd = added_at[g], odd_at[g]
    # the next insertion's bit; past the chain's end, the bit above every
    # element that odd holds when the chain is even
    a = odd & ~added if removed is None else 1 << (removed - 1) & added
    return bool(a & odd) and not a & s and s ^ g == added & (a - 1)


def facet_row_table(n: int, k: int) -> dict[int, int]:
    """Per k-subset g over {1..n}, its sign-matrix row reduced mod 2 as an
    int: bit j is set when the j-th (k-1)-subset of {1..n}, ascending, is a
    facet of g."""
    full = (1 << n) - 1
    cols = {t: 1 << j for j, t in enumerate(sized_submasks(full, k - 1))}
    rows = {}
    for g in sized_submasks(full, k):
        row = 0
        rest = g
        while rest:
            low = rest & -rest
            row |= cols[g ^ low]
            rest ^= low
        rows[g] = row
    return rows


def rank_full_mod2(rows: Iterable[int]) -> bool:
    """Full row rank over GF(2) of 0/1 rows given as int bitmasks.

    Keeps an XOR basis keyed by each basis row's highest set bit; a row that
    reduces to zero is dependent on the earlier ones.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
        else:
            return False
    return True
