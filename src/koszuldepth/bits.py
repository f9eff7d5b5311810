"""The integer-mask engine: the peak scan, the chains, matching tables and
submask walks.

Bit e-1 encodes element e, so on a fixed cardinality level the squashed
order is plain integer order on masks.  ``scan`` is the one place where the
peaks of a lattice path are found: ``match_tables`` runs it on every mask
(for the matching-law sweeps of ``check-matching``), and the subset-level
maps in :mod:`koszuldepth.matching` and the k-subset table run it on one.
``chain_insertions`` reads a whole upward chain off one path by its closed
form, so the k-subset table, and everything ``verify`` runs on, needs no
table over the 2^n masks.  The tables are cached for the last ``n`` (and
``k``) only: ``verify --all-n`` hands its tasks out in increasing (n, k)
order, so no process comes back to an earlier size, and a larger cache only
holds memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .subsets import check_ground


@dataclass(frozen=True)
class MatchTables:
    n: int
    psi: tuple[int | None, ...]
    phi: tuple[int | None, ...]


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


@lru_cache(maxsize=1)
def match_tables(n: int) -> MatchTables:
    """``psi`` and ``phi`` of every mask over {1..n}, by one ``scan`` per
    mask."""
    check_ground(n)
    size = 1 << n
    psi_t: list[int | None] = [None] * size
    phi_t: list[int | None] = [None] * size
    for mask in range(size):
        nu, mu, _ = scan(n, mask)
        if nu:
            psi_t[mask] = mask ^ (1 << (nu - 1))
        if mu != n:
            phi_t[mask] = mask | (1 << mu)
    return MatchTables(n, tuple(psi_t), tuple(phi_t))


def chain_insertions(n: int, g: int) -> int:
    """The elements that the upward chain phi(g), phi^2(g), ... inserts, as a
    mask: the non-members p of g whose height h(p) on g's lattice path is at
    least h(q) for every q > p (README, "The chain lemma").

    One right-to-left pass, from h(n) = 2|g| - n, keeps the largest height
    seen so far.
    """
    height = 2 * g.bit_count() - n
    best = -n - 1
    added = 0
    for pos in range(n - 1, -1, -1):
        if (g >> pos) & 1:
            if height > best:
                best = height
            height -= 1
        else:
            if height >= best:
                best = height
                added |= 1 << pos
            height += 1
    return added


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
        if nxt is None or nxt & ~m:
            return i
        cur = nxt
        i += 1


@lru_cache(maxsize=1)
def k_subset_table(n: int, k: int) -> dict[int, tuple[int, int, int]]:
    """Per k-subset g over {1..n}, k >= 1: ``(added, facet, probe)``.

    ``added`` is :func:`chain_insertions`.  The chain inserts its elements
    in increasing order, so ``added`` fixes every chain mask.  ``facet`` is
    the distinguished facet psi_tilde(g), g without the pivot of
    :func:`scan`; ``probe`` holds the elements outside g below that pivot.
    """
    check_ground(n)
    out = {}
    for g in sized_submasks((1 << n) - 1, k):
        pivot = 1 << (scan(n, g)[2] - 1)
        out[g] = (chain_insertions(n, g), g ^ pivot, (pivot - 1) & ~g)
    return out


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
        if prev is not None and ind.get(prev, -1) <= i:
            ind[prev] = i + 1
    return ind
