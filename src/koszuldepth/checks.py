"""Exhaustive sweeps for the matching laws, on the :mod:`koszuldepth.bits`
tables: inverse law, index equivalence, greedy agreement, index increment."""

from __future__ import annotations

from typing import NamedTuple

from . import matching
# phi_index and psi_index_table are unused here, but the benchmark tracer
# wraps this module's bindings
from .bits import (chain_index, k_subset_table, match_tables, phi_index, psi_index_table,
                   sized_submasks, submasks)
from .report import Report
from .subsets import Subset, same_ground


class StepCheck(NamedTuple):
    """Outcome of the index-increment check on one (M, G, H) triple."""

    status: str  # "pass" | "fail" | "skip"
    case: int | None = None
    index_G: int | None = None
    index_H: int | None = None
    expected_H: int | None = None


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


def _admissible(table, n: int, m: int, g: int, h: int) -> bool:
    """Mask form of the admissibility of (M, G, H); see :func:`index_step_check`.

    On equal sizes, squashed order is integer order on masks.  g's facet is
    g without the pivot that ``table``, the k-subset table of g's size,
    names, read only once g is known to be non-empty.
    """
    return (
        not (g | h) & ~m
        and g.bit_count() == h.bit_count() >= n // 2
        and g != 0
        and h < g
        and not (g ^ 1 << table.pivot[g] >> 1) & ~h
    )


def _index_step(table, m: int, g: int, h: int) -> tuple[int, int, int, int]:
    """``(case, index_G, index_H, expected_H)`` of one admissible mask
    triple, from g's k-subset table.

    The pivot p of ``psi_tilde`` is the first member where the height over
    the members alone peaks, so the restricted peak height is the height of
    the lattice path at p: p minus twice the non-members below p.
    """
    pos = table.pivot[g]
    ind_g = chain_index(table.added[g], m)
    if pos >= 2 * (((1 << pos >> 1) - 1) & ~g).bit_count():
        case, expected = 1, ind_g + 1
    else:
        case, expected = 2, 1
    return case, ind_g, chain_index(table.added[h], m), expected


def index_step_check(M: Subset, G: Subset, H: Subset) -> StepCheck:
    """Check the index increment along one admissible squashed-order pair.

    Admissible means: G and H are equal-size subsets of M with at least
    floor(n/2) elements, H precedes G in squashed order, and H contains the
    distinguished facet of G.  The claim under test: if the restricted peak
    height of G is non-negative then the index of H exceeds that of G by
    one, and otherwise the index of H equals 1.  Inadmissible triples are
    skipped, not failed.  Admissibility deliberately does not ask G to be a
    family member (of even index), so ``check-lemma`` reports the
    counterexamples whose G has odd index.
    """
    same_ground(M, G)
    same_ground(M, H)
    m, g, h = M.mask, G.mask, H.mask
    # psi_tilde, and so the table, is defined on non-empty subsets only
    table = k_subset_table(M.n, len(G)) if g else None
    if not _admissible(table, M.n, m, g, h):
        return StepCheck("skip")
    case, ind_g, ind_h, expected = _index_step(table, m, g, h)
    return StepCheck("pass" if ind_h == expected else "fail", case, ind_g, ind_h, expected)


def index_step_sweep(n: int) -> Report:
    """Exhaustively check the index increment over all admissible triples.

    For fixed G the admissible partners H are the distinguished facet of G
    plus one element x outside G below its pivot, on every support M
    containing G | x.  Both indices read M only on the chains' bits outside
    G | x, so each pattern of M there is decided once, for every M showing
    it (README, "Grouping supports by the chains' bits"), and only a failing
    one is expanded.  Failures are reported in the order (M, |G|, G, x).
    """
    rep = Report(f"index increment n={n}")
    full = (1 << n) - 1
    width = n.bit_length()
    by_case = {1: 0, 2: 0}
    failing = []  # one sort key (M, |G|, G, x) per failure, packed into an int
    kept = {}  # the tables of the sizes that failed, to render the failures
    for size in range(max(n // 2, 1), n + 1):
        # fetched once: the table cache holds only the last (n, k)
        table = k_subset_table(n, size)
        before = len(failing)
        for g_mask in table.masks():
            added_g, pivot = table.added[g_mask], 1 << table.pivot[g_mask] >> 1
            rest = (pivot - 1) & ~g_mask
            while rest:
                low = rest & -rest
                rest ^= low
                h_mask, base = g_mask ^ pivot | low, g_mask | low
                # admissible at G | x, hence at every support containing it
                if not _admissible(table, n, base, g_mask, h_mask):
                    raise RuntimeError(f"inadmissible partner {h_mask:#x} of {g_mask:#x}")
                free = full & ~base
                read = free & (added_g | table.added[h_mask])
                other = free & ~read
                for sub in submasks(read):
                    case, _, ind_h, expected = _index_step(table, base | sub, g_mask, h_mask)
                    by_case[case] += 1 << other.bit_count()
                    if ind_h != expected:
                        failing += (
                            (((base | sub | o) << width | size) << n | g_mask) << n | low
                            for o in submasks(other)
                        )
        if len(failing) > before:
            kept[size] = table
    failing.sort()
    text = {}  # each mask's, built once
    for key in failing:
        low, g_mask, m_mask = key & full, key >> n & full, key >> 2 * n + width
        table = kept[g_mask.bit_count()]
        h_mask = g_mask ^ 1 << table.pivot[g_mask] >> 1 | low
        for mask in (m_mask, g_mask, h_mask):
            if mask not in text:
                text[mask] = str(Subset.from_mask(n, mask))
        case, ind_g, ind_h, expected = _index_step(table, m_mask, g_mask, h_mask)
        rep.fail(
            f"M={text[m_mask]} G={text[g_mask]} H={text[h_mask]}: case {case}, "
            f"index {ind_h} != expected {expected} (index of G: {ind_g})"
        )
    checked = by_case[1] + by_case[2]
    rep.counts["triples_checked"] = checked
    rep.counts["case1"] = by_case[1]
    rep.counts["case2"] = by_case[2]
    rep.counts["failures"] = len(rep.failures)
    rep.lines.append(
        f"index increment: {checked} admissible triples "
        f"({by_case[1]} with non-negative restricted peak, {by_case[2]} below), "
        f"{len(rep.failures)} failures"
    )
    return rep
