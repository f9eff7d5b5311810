"""Exhaustive verification sweeps for the matching laws, on the tables of
:mod:`koszuldepth.bits` that ``verify`` runs on."""

from __future__ import annotations

from . import matching
# phi_index and psi_index_table are unused here, but the benchmark tracer
# wraps this module's bindings
from .bits import match_tables, phi_index, psi_index_table, sized_submasks
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


def check_index_equivalence(n: int) -> Report:
    """For every pair G inside M: the upward-walk index equals the index from
    exhaustive downward chains.

    Decided on the 2^n masks, not the 3^n pairs: wherever ``phi(G)`` is
    defined it must be G plus one element with ``psi(phi(G)) == G``, and
    wherever ``psi(H)`` is defined, ``phi(psi(H)) == H``.  Then the only
    ``psi``-preimage of G is ``phi(G)``, so both indices obey
    ind_M(G) = [phi(G) inside M] * (1 + ind_M(phi(G))) and agree on all 3^n
    pairs; on tables of one-element steps, a broken relation means some pair
    disagrees (README, "Index equivalence without visiting pairs").  A FAIL
    names each mask and the relation that broke there.
    """
    rep = Report(f"index equivalence n={n}")
    tables = match_tables(n)
    phi, psi = tables.phi, tables.psi
    for g in range(1 << n):
        h = phi[g]
        if h is not None:
            if h & g != g or (h ^ g).bit_count() != 1:
                rep.fail(f"phi({_subset(n, g)}) = {_subset(n, h)} does not add one element")
            if psi[h] != g:
                rep.fail(f"psi(phi({_subset(n, g)})) != {_subset(n, g)}")
        h = psi[g]
        if h is not None and phi[h] != g:
            rep.fail(f"phi(psi({_subset(n, g)})) != {_subset(n, g)}")
    rep.counts["pairs"] = 3 ** n
    rep.counts["failures"] = len(rep.failures)
    if rep.passed:
        rep.lines.append(f"index equivalence: {3 ** n} (G, M) pairs, 0 disagreements")
    else:
        rep.lines.append(
            f"index equivalence: {len(rep.failures)} broken step relations over {1 << n} "
            f"masks, so the {3 ** n} (G, M) pairs are not shown equal"
        )
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
