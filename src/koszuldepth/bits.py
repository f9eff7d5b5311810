"""The integer-mask engine: the peak scan, the chain table, matching tables
and submask walks.

Bit e-1 encodes element e, so on a fixed cardinality level the squashed
order is plain integer order on masks.  ``scan`` finds the peaks of one
lattice path, for the subset-level maps in :mod:`koszuldepth.matching`;
``match_tables`` finds those of every mask at once, by extending every
prefix by one position (for the matching-law sweeps of ``check-matching``).
``k_subset_table`` reads every k-subset's upward chain and facet pivot off
its path by the chain lemma, in one pass per shard that extends every
suffix by one position, into flat arrays indexed by mask, 9 bytes per mask.
The tables are cached for the last ``n`` (and ``k``) only: ``verify
--all-n`` hands its tasks out in increasing (n, k) order, so no process
comes back to an earlier size, and a larger cache only holds memory.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from operator import add
from typing import Iterator, NamedTuple

from .subsets import check_ground


class MatchTables(NamedTuple):
    """``psi`` and ``phi`` of every mask over {1..n}, each an ``array("i")``
    of 2^n masks indexed by mask, -1 where the map is undefined.  Indexing
    with -1 reads the last entry, so a reader tests for -1 before it uses
    an entry as an index."""

    n: int
    psi: array
    phi: array


def scan(n: int, mask: int) -> tuple[int, int, int]:
    """Peak positions ``(nu, mu, pivot)`` of the lattice path of ``mask``.

    One left-to-right pass tracks the running height, the maximum over the
    origin and the members with the first and last position attaining it
    (the peaks ``nu`` and ``mu``, 0 for the origin), and the first member
    where the maximum over the members alone is attained (``pivot``, 0 for
    the empty mask).  ``psi`` deletes ``nu``, ``phi`` inserts ``mu + 1`` and
    ``psi_tilde`` deletes ``pivot``.
    """
    height = top = nu = mu = 0
    top_g = -n - 1
    pivot = 0
    for pos in range(1, n + 1):
        if (mask >> (pos - 1)) & 1:
            height += 1
            if height > top:
                top, nu, mu = height, pos, pos
            elif height == top:
                mu = pos
            if height > top_g:
                top_g, pivot = height, pos
        else:
            height -= 1
    return nu, mu, pivot


# gap + 1, and max(gap - 1, 0), per byte
_GAP_UP = bytes(range(1, 256)) + b"\0"
_GAP_DOWN = b"\0" + bytes(range(255))


@lru_cache(maxsize=1)
def match_tables(n: int) -> MatchTables:
    """``psi`` and ``phi`` of every mask over {1..n}.

    The peaks ``nu`` and ``mu`` of :func:`scan` are found for all masks at
    once, by extending every prefix by one position: the masks below
    2^(pos-1) are the prefixes, and setting bit pos-1 appends a member.
    ``gap`` is the running maximum minus the current height.  A member at
    gap 0 is a new peak (``nu`` and ``mu``), at gap 1 it ties the maximum
    (``mu``); after a member the gap is max(gap - 1, 0), after a non-member
    gap + 1.  The three are one byte per mask, and the tables are filled
    in chunks of 2^12 masks, so no list of 2^n ints is built.
    """
    check_ground(n)
    nu, mu, gap = bytearray(1), bytearray(1), bytearray(1)
    for pos in range(1, n + 1):
        nu += bytes(v if g else pos for g, v in zip(gap, nu))
        mu += bytes(v if g > 1 else pos for g, v in zip(gap, mu))
        gap = gap.translate(_GAP_UP) + gap.translate(_GAP_DOWN)
    size, step = 1 << n, 1 << 12
    # written in place: two arrays grown side by side are copied as they grow
    psi, phi = array("i", [-1]) * size, array("i", [-1]) * size
    for start in range(0, size, step):
        part = slice(start, start + step)
        masks = range(start, size)
        psi[part] = array("i", [m ^ 1 << v >> 1 if v else -1 for m, v in zip(masks, nu[part])])
        phi[part] = array("i", [m | 1 << v if v != n else -1 for m, v in zip(masks, mu[part])])
    return MatchTables(n, psi, phi)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` as masks, in decreasing order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def sized_submasks(mask: int, k: int) -> list[int]:
    """The k-element subsets of ``mask``, ascending (= squashed order)."""
    high_first = [1 << e for e in range(mask.bit_length() - 1, -1, -1) if (mask >> e) & 1]
    # combinations of the bits taken highest first come out in descending order
    out = list(map(sum, combinations(high_first, k)))
    out.reverse()
    return out


# phi_index and psi_index_table are called by no sweep (chain_index reads
# every index); they stay because the benchmark tracer wraps them by name
def phi_index(tables: MatchTables, g: int, m: int) -> int:
    """Index of g in m via the upward table walk."""
    i = 0
    cur = g
    phi_t = tables.phi
    while True:
        nxt = phi_t[cur]
        if nxt < 0 or nxt & ~m:
            return i
        cur = nxt
        i += 1


class ChainTable(NamedTuple):
    """The fields of :func:`k_subset_table` per mask, 0 off the k-subsets."""

    added: array
    pivot: bytearray
    odd: array

    def masks(self) -> Iterator[int]:
        """The masks with a pivot, ascending: the k-subsets, for k >= 1."""
        return compress(range(len(self.pivot)), self.pivot)


@lru_cache(maxsize=1)
def k_subset_table(n: int, k: int) -> ChainTable:
    """Per k-subset g over {1..n}, k >= 1: ``added``, ``pivot`` and ``odd``.

    ``added`` holds the elements a_1 < a_2 < ... that g's upward chain
    inserts, in that order, so it fixes every chain mask: the non-members
    p whose height on g's lattice path is at least every later height
    (README, "The chain lemma").  ``odd`` holds a_1, a_3, ..., the next
    insertion after each chain prefix of even length, and bit n, above
    every element, when ``added`` has even size: past the chain's end.
    ``pivot`` is the position of the first member where the height over
    the members alone peaks: ``g ^ 1 << pivot >> 1`` is the distinguished
    facet psi_tilde(g).  Filled in shards of about 2^12 k-subsets.
    """
    check_ground(n)
    return _table_in_shards(n, k, (comb(n, k) >> 12).bit_length())


def _table_in_shards(n: int, k: int, shard_bits: int) -> ChainTable:
    """The chain table in shards, one per pattern of the top ``shard_bits``
    positions (README, "The chain table in one pass").

    Per shard, one pass from position n down to 1 extends every suffix with
    the pattern by one position, in lists per member count (none are left
    for a pattern of more than k members, or too few).  Per suffix, ``rise``
    is the largest sum of the steps right after the position (+1 a member,
    -1 not; 0 for none), so a non-member is inserted where it is 0; ``peak``
    is how far the highest member after the position lies above it (at most
    0 for none), so a member is the pivot so far where it is at most 0.  The
    chain's end is an insertion at bit n, and each insertion, the lowest so
    far, turns the even insertions above it odd and the odd ones even.
    """
    end = 1 << n
    table = ChainTable(array("I", [0]) * end, bytearray(end), array("I", [0]) * end)
    for top in range(0, end, 1 << (n - shard_bits)):
        # per member count: masks, rise, peak, pivot, added and odd, one list each
        by_count = {0: ([0], [0], [0], [0], [end], [end])}
        for pos in range(n, 0, -1):
            bit = 1 << (pos - 1)
            grown = {}
            # the pos - 1 positions left must hold the members still missing;
            # a position of the pattern holds a member exactly where top does
            for m in range(max(k - pos + 1, 0), min(k, n - pos + 1) + 1):
                parts = []
                if m in by_count and not top & bit:
                    masks, rise, peak, pivot, added, odd = by_count[m]
                    parts.append((
                        masks, [r - 1 if r else 0 for r in rise], [p - 1 for p in peak], pivot,
                        [a if r else a | bit for r, a in zip(rise, added)],
                        [o if r else a ^ o | bit for r, a, o in zip(rise, added, odd)],
                    ))
                if m - 1 in by_count and (pos <= n - shard_bits or top & bit):
                    masks, rise, peak, pivot, added, odd = by_count[m - 1]
                    parts.append((
                        [g | bit for g in masks], [r + 1 for r in rise],
                        [p + 1 if p > 0 else 1 for p in peak],
                        [v if p > 0 else pos for p, v in zip(peak, pivot)], added, odd,
                    ))
                if parts:
                    grown[m] = tuple(map(add, *parts)) if len(parts) == 2 else parts[0]
            by_count = grown
        for g, _, _, p, a, o in zip(*by_count.get(k, ((),) * 6)):
            table.pivot[g], table.added[g], table.odd[g] = p, a ^ end, o
    return table


def chain_index(added: int, m: int) -> int:
    """Index of g in M: how many leading masks of g's upward chain lie inside
    M, that is how many elements the chain inserts before the first one M
    lacks (``added`` as in :func:`k_subset_table`)."""
    missing = added & ~m
    if missing:
        added &= (missing & -missing) - 1
    return added.bit_count()


def psi_index_table(tables: MatchTables, m: int) -> dict[int, int]:
    """Index of every subset of m at once: the longest downward chain into it
    from a subset of m.  ``psi`` deletes a bit, so in decreasing mask order
    each subset has received every chain before it pushes its own on."""
    psi_t = tables.psi
    ind: dict[int, int] = {}
    for g in submasks(m):
        i = ind.setdefault(g, 0)
        prev = psi_t[g]
        if prev >= 0 and ind.get(prev, -1) <= i:
            ind[prev] = i + 1
    return ind
