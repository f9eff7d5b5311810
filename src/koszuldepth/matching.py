"""The up/down matching on the Boolean lattice and the index function.

``psi`` deletes the first position at which the lattice path of G attains
its maximum over G and the origin; ``phi`` inserts the successor of the last
such position.  On their respective domains the two maps are mutually
inverse, so the index of G inside M (the number of upward steps that stay
inside M) is computable by iterating ``phi``.  The maps here are ``Subset``
adapters over :func:`koszuldepth.bits.scan`, the one peak scan that the
sweep tables also run on; the independent reference they are tested
against lives in the test suite's helpers.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .bits import scan
# lattice_path is unused here, but the benchmark tracer wraps this module's binding
from .subsets import Subset, check_ground, lattice_path, same_ground


class MatchResult(NamedTuple):
    """Outcome of a partial matching map; undefined is a result, not an error."""

    defined: bool
    value: Subset | None = None
    pivot: int | None = None

    def __bool__(self) -> bool:
        return self.defined


_UNDEFINED = MatchResult(False)


def psi(G: Subset) -> MatchResult:
    """Delete the first peak of G's lattice path; undefined iff the peak is the origin."""
    nu, _, _ = scan(G.n, G.mask)
    if nu == 0:
        return _UNDEFINED
    return MatchResult(True, Subset.from_mask(G.n, G.mask ^ 1 << (nu - 1)), nu)


def phi(G: Subset) -> MatchResult:
    """Insert the successor of the last peak; undefined iff that peak is at n."""
    _, mu, _ = scan(G.n, G.mask)
    if mu == G.n:
        return _UNDEFINED
    return MatchResult(True, Subset.from_mask(G.n, G.mask | 1 << mu), mu + 1)


def psi_tilde(G: Subset) -> MatchResult:
    """Like ``psi`` but the peak is taken over G only (origin excluded).

    Always defined for non-empty G, at the cost of injectivity.  Coincides
    with ``psi`` whenever the unrestricted maximum is positive.
    """
    g = G.mask
    if not g:
        raise ValueError("psi_tilde needs a non-empty subset")
    _, _, pivot = scan(G.n, g)
    return MatchResult(True, Subset.from_mask(G.n, g ^ 1 << (pivot - 1)), pivot)


def index(G: Subset, M: Subset) -> int:
    """Largest i such that the i-th upward iterate of G is defined and inside M.

    Since ``phi`` only adds elements, the admissible iterates form an initial
    segment and a simple loop on masks suffices.
    """
    same_ground(G, M)
    n, m, cur = G.n, M.mask, G.mask
    if cur & ~m:
        raise ValueError(f"{G} is not contained in {M}")
    i = 0
    while True:
        _, mu, _ = scan(n, cur)
        if mu == n or not (m >> mu) & 1:
            return i
        cur |= 1 << mu
        i += 1


def greedy_lex_matching(n: int, l: int) -> dict[int, int]:
    """Greedy level matching on masks: each (l+1)-set takes its lex-smallest
    unused l-subset.

    Processes the (l+1)-sets in lexicographic order and leaves a set unmatched
    when all of its l-subsets are already taken.  The lex-smallest l-subset
    of a set drops its largest element, the next one its second largest, and
    so on.  This replays the original definition of the matching and serves
    as the oracle for ``psi``.
    """
    check_ground(n)
    if not 0 <= l < n:
        raise ValueError(f"level must satisfy 0 <= l < n, got l={l}, n={n}")
    used = bytearray(1 << n)
    out: dict[int, int] = {}
    for big in combinations([1 << e for e in range(n)], l + 1):
        big_mask = sum(big)
        for drop in reversed(big):
            small = big_mask ^ drop
            if not used[small]:
                used[small] = 1
                out[big_mask] = small
                break
    return out
