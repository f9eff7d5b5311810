"""The integer-mask engine: matching tables and submask walks.

Bit e-1 encodes element e, so on a fixed cardinality level the squashed
order is plain integer order on masks.  ``match_tables`` computes ``psi``,
``phi`` and ``psi_tilde`` for every mask from one left-to-right scan of its
lattice path; the subset-level maps in :mod:`koszuldepth.matching` are the
reference implementation these tables are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .subsets import check_ground


def bit_elements(mask: int) -> tuple[int, ...]:
    return tuple(e + 1 for e in range(mask.bit_length()) if (mask >> e) & 1)


@dataclass(frozen=True)
class MatchTables:
    n: int
    psi: tuple[int | None, ...]
    phi: tuple[int | None, ...]
    psi_tilde: tuple[int | None, ...]


@lru_cache(maxsize=None)
def match_tables(n: int) -> MatchTables:
    """``psi``, ``phi`` and ``psi_tilde`` of every mask over {1..n}.

    One scan per mask tracks the running height, the maximum over the origin
    and the members with the first and last position attaining it (the
    peaks ``nu`` and ``mu``), and the first position where the maximum over
    the members alone is attained (the pivot of ``psi_tilde``).
    """
    check_ground(n)
    size = 1 << n
    psi_t: list[int | None] = [None] * size
    phi_t: list[int | None] = [None] * size
    tilde_t: list[int | None] = [None] * size
    for mask in range(size):
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
        if nu:
            psi_t[mask] = mask ^ (1 << (nu - 1))
        if mu != n:
            phi_t[mask] = mask | (1 << mu)
        if pivot:
            tilde_t[mask] = mask ^ (1 << (pivot - 1))
    return MatchTables(n, tuple(psi_t), tuple(phi_t), tuple(tilde_t))


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
    out = [sum(c) for c in combinations(high_first, k)]
    out.reverse()
    return out


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


def psi_index_table(tables: MatchTables, m: int) -> dict[int, int]:
    """Index of every subset of m at once, by walking all downward chains."""
    psi_t = tables.psi
    ind: dict[int, int] = {}
    for start in submasks(m):
        cur: int | None = start
        i = 0
        while cur is not None:
            if ind.get(cur, -1) < i:
                ind[cur] = i
            cur = psi_t[cur]
            i += 1
    return ind
