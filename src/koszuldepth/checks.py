"""Exhaustive verification sweeps for the matching laws, on the tables of
:mod:`koszuldepth.bits` that ``verify`` runs on."""

from __future__ import annotations

from . import matching
# phi_index and psi_index_table are unused here, but the benchmark tracer
# wraps this module's bindings
from .bits import MatchTables, match_tables, phi_index, psi_index_table, sized_submasks
from .report import Report
from .subsets import Subset


def _subset(n: int, mask: int | None) -> Subset | None:
    return None if mask is None else Subset.from_mask(n, mask)


def check_inverse_law(n: int) -> Report:
    """Over all 2^n subsets: the two maps invert each other, the image of the
    downward map is the domain of the upward one, and the downward map is
    total above the halfway threshold."""
    rep = Report(f"inverse law n={n}")
    tables = match_tables(n)
    threshold = (n + 1 + 1) // 2  # ceil((n+1)/2)
    image = bytearray(1 << n)
    psi_defined = 0
    for mask in range(1 << n):
        down = tables.psi[mask]
        up = tables.phi[mask]
        if down is not None:
            psi_defined += 1
            image[down] = 1
            if tables.phi[down] != mask:
                rep.fail(f"phi(psi({_subset(n, mask)})) != {_subset(n, mask)}")
        elif mask.bit_count() >= threshold:
            rep.fail(f"psi undefined on {_subset(n, mask)} despite |G| >= {threshold}")
        if up is not None and tables.psi[up] != mask:
            rep.fail(f"psi(phi({_subset(n, mask)})) != {_subset(n, mask)}")
    mismatches = 0
    for size in range(n + 1):
        for mask in sized_submasks((1 << n) - 1, size):
            if image[mask] != (tables.phi[mask] is not None):
                mismatches += 1
                side = "image only" if image[mask] else "phi-domain only"
                rep.fail(f"image/domain mismatch at {_subset(n, mask)} ({side})")
    rep.counts["subsets"] = 1 << n
    rep.counts["psi_defined"] = psi_defined
    rep.counts["failures"] = len(rep.failures)
    rep.lines.append(
        f"inverse law: {1 << n} subsets, psi defined on {psi_defined}, "
        f"image(psi) == domain(phi): {'NO' if mismatches else 'yes'}, "
        f"{len(rep.failures)} counterexamples"
    )
    return rep


def _inverse_steps(tables: MatchTables) -> bool:
    """Whether phi adds one element wherever it is defined, psi undoes each
    such step, and phi undoes each step of psi.  Then psi deletes one
    element wherever it is defined too."""
    phi, psi = tables.phi, tables.psi
    for g in range(1 << tables.n):
        h = phi[g]
        if h is not None and (h & g != g or (h ^ g).bit_count() != 1 or psi[h] != g):
            return False
        h = psi[g]
        if h is not None and phi[h] != g:
            return False
    return True


def check_index_equivalence(n: int) -> Report:
    """For every pair G inside M: the upward-walk index equals the index from
    exhaustive downward chains.

    If ``phi`` and ``psi`` are inverse one-bit steps on all 2^n masks, the
    only ``psi``-preimage of G is ``phi(G)``, so both indices obey
    ind_M(G) = [phi(G) inside M] * (1 + ind_M(phi(G))) and agree on all 3^n
    pairs without visiting one (README, "Index equivalence without visiting
    pairs").  Otherwise the per-pair walk names the disagreements.
    """
    tables = match_tables(n)
    if not _inverse_steps(tables):
        return _index_walk(n, tables)
    rep = Report(f"index equivalence n={n}")
    rep.counts["pairs"] = 3 ** n
    rep.counts["failures"] = 0
    rep.lines.append(f"index equivalence: {3 ** n} (G, M) pairs, 0 disagreements")
    return rep


def _index_walk(n: int, tables: MatchTables) -> Report:
    """The two indices compared pair by pair, over all 3^n pairs G inside M.

    One pass per support M visits its subsets in decreasing integer order.
    ``phi`` adds a bit, so ``phi(G)`` is visited before G and the upward index
    is one more than its own, or 0 once ``phi`` is undefined or leaves M.
    ``psi`` deletes a bit, so every chain reaching G has been pushed into G
    before G is visited, and G pushes its longest chain on into ``psi(G)``.
    The two sides read only their own table.
    """
    rep = Report(f"index equivalence n={n}")
    phi_t, psi_t = tables.phi, tables.psi
    size = 1 << n
    up = [0] * size
    # every push lands on a subset visited later in the same walk, and the
    # visit resets it, so down is all zero again when the next support starts
    down = [0] * size
    pairs = 0
    for m in range(size):
        outside = ~m
        g = m
        while True:
            nxt = phi_t[g]
            via_phi = up[g] = 0 if nxt is None or nxt & outside else up[nxt] + 1
            via_psi = down[g]
            down[g] = 0
            if via_phi != via_psi:
                rep.fail(
                    f"M={Subset.from_mask(n, m)} G={Subset.from_mask(n, g)}: "
                    f"upward index {via_phi} != downward index {via_psi}"
                )
            prev = psi_t[g]
            if prev is not None and down[prev] <= via_psi:
                down[prev] = via_psi + 1
            if not g:
                break
            g = (g - 1) & m
        pairs += 1 << m.bit_count()
    rep.counts["pairs"] = pairs
    rep.counts["failures"] = len(rep.failures)
    rep.lines.append(f"index equivalence: {pairs} (G, M) pairs, {len(rep.failures)} disagreements")
    return rep


def check_greedy_agreement(n: int) -> Report:
    """Compare the greedy lexicographic matching against the closed formula.

    Agreement is asserted on the levels where the closed formula is total
    (sets of size at least ceil((n+1)/2)); lower levels are compared as well
    and any mismatch there is reported informationally, never as a failure.
    """
    rep = Report(f"greedy agreement n={n}")
    threshold = (n + 2) // 2  # ceil((n+1)/2)
    low_mismatches = 0
    upper_sets = 0
    tables = match_tables(n)
    for l in range(n):
        greedy = matching.greedy_lex_matching(n, l)
        upper = l + 1 >= threshold
        for mask in sized_submasks((1 << n) - 1, l + 1):
            expected = tables.psi[mask]
            got = greedy.get(mask)
            if upper:
                upper_sets += 1
                if got != expected:
                    rep.fail(
                        f"level {l + 1}: greedy gives {_subset(n, got)} but formula gives "
                        f"{_subset(n, expected)} at {_subset(n, mask)}"
                    )
            elif got != expected:
                low_mismatches += 1
        # freed before the next level's is built: two middle levels alive at
        # once set the peak resident set of check-matching
        del greedy
    rep.counts["upper_level_sets"] = upper_sets
    rep.counts["upper_mismatches"] = len(rep.failures)
    rep.counts["low_level_mismatches"] = low_mismatches
    rep.lines.append(
        f"greedy agreement: {upper_sets} sets on total levels (size >= {threshold}), "
        f"{len(rep.failures)} mismatches; below threshold: {low_mismatches} mismatches "
        f"(informational)"
    )
    return rep
