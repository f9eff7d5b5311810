"""Construction and verification of the depth-(n-1) decomposition.

For floor(n/2) <= k < n the k-th syzygy module of the residue field splits,
as a graded vector space, into one summand per subset S of even distance
above cardinality k.  Each summand is a polynomial subring (all variables,
or all but the one the matching would delete) times a fixed generator of
multidegree S.  This module builds that family and checks everything it
claims: the dimension count per multidegree, the agreement of the two
descriptions of the contributing generators, the squashed-order triangle
condition, exact linear independence, and the per-pair index increment the
triangle argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

from . import matching
# phi_index and lattice_path are unused here, but the benchmark tracer wraps
# this module's bindings
from .bits import (
    MatchTables, chain_index, k_subset_table, match_tables, phi_index, sized_submasks, submasks
)
from .koszul import KoszulChain, Multidegree, boundary_sign, dim_oracle, generator_m, indicator
from .report import Report
from .subsets import Subset, lattice_path, same_ground


def require_upper_half(n: int, k: int) -> None:
    """The construction covers only floor(n/2) <= k < n; fail fast outside it."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not (1 <= k and n // 2 <= k < n):
        raise ValueError(
            f"out of range: the construction needs floor(n/2) <= k < n "
            f"(and k >= 1), got n={n}, k={k}; the lower half is not covered"
        )


@dataclass(frozen=True)
class Summand:
    """One Stanley space: the variables Z acting on the generator m of degree S."""

    S: Subset
    Z: Subset
    removed: int | None
    G: Subset
    m: KoszulChain


@dataclass(frozen=True)
class Decomposition:
    n: int
    k: int
    summands: tuple[Summand, ...]


@dataclass(frozen=True)
class FamilyMember:
    G: Subset
    index: int


@dataclass(frozen=True)
class ContributionFamily:
    """The k-subsets of M contributing at any multidegree with support M,
    with their indices, ascending in squashed order."""

    M: Subset
    k: int
    members: tuple[FamilyMember, ...]


@dataclass(frozen=True)
class TriangleReport:
    passed: bool
    violation: tuple[Subset, Subset] | None = None


@dataclass(frozen=True)
class StepCheck:
    """Outcome of the index-increment check on one (M, G, H) triple."""

    status: str  # "pass" | "fail" | "skip"
    case: int | None = None
    index_G: int | None = None
    index_H: int | None = None
    expected_H: int | None = None


def build_decomposition(n: int, k: int) -> Decomposition:
    """The summands as objects, for display and export; verification runs on
    the masks of :func:`_script`."""
    require_upper_half(n, k)
    full = (1 << n) - 1
    summands = []
    for s_mask, removed, g_mask in _script(n, k):
        S = Subset.from_mask(n, s_mask)
        G = Subset.from_mask(n, g_mask)
        z_mask = full if removed is None else full & ~(1 << (removed - 1))
        summands.append(Summand(S, Subset.from_mask(n, z_mask), removed, G, generator_m(S, G)))
    return Decomposition(n, k, tuple(summands))


def contributes(summand: Summand, m: Multidegree) -> bool:
    """Whether the summand has a non-zero component in multidegree m."""
    if summand.S.n != m.n:
        raise ValueError(f"multidegree over n={m.n}, summand over n={summand.S.n}")
    rest = m.minus_or_none(indicator(summand.S))
    if rest is None:
        return False
    return rest.support().elements <= summand.Z.elements


class UndefinedScript(RuntimeError):
    """The downward matching runs out before a summand's generator reaches
    size k; this happens only below the range guard."""

    def __init__(self, mask: int) -> None:
        super().__init__(f"downward matching undefined below mask {mask:#x}")
        self.mask = mask


@lru_cache(maxsize=None)
def _script(n: int, k: int) -> tuple[tuple[int, int | None, int], ...]:
    """(S mask, removed element, G mask) per summand, in (level, squashed) order."""
    tables = match_tables(n)
    out = []
    for size in range(k, n + 1, 2):
        for s_mask in sized_submasks((1 << n) - 1, size):
            up = tables.phi[s_mask]
            removed = None if up is None else (up ^ s_mask).bit_length()
            g_mask = s_mask
            for _ in range(size - k):
                nxt = tables.psi[g_mask]
                if nxt is None:
                    raise UndefinedScript(s_mask)
                g_mask = nxt
            out.append((s_mask, removed, g_mask))
    return tuple(out)


def _push_summands(n: int, script) -> list[list[int]]:
    """Per support mask, the generator masks of the summands contributing there.

    A summand (S, removed, G) contributes at every support M containing S
    and avoiding the removed variable, so G is pushed into each such M by
    walking the submasks of the free variables.
    """
    full = (1 << n) - 1
    out: list[list[int]] = [[] for _ in range(1 << n)]
    for s_mask, removed, g_mask in script:
        free = full & ~s_mask
        if removed is not None:
            free &= ~(1 << (removed - 1))
        for extra in submasks(free):
            out[s_mask | extra].append(g_mask)
    return out


@lru_cache(maxsize=None)
def _summand_families(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _push_summands(n, _script(n, k))))


def _families_disagree(m_mask: int) -> RuntimeError:
    return RuntimeError(f"summand-based and parity-based families disagree on mask {m_mask:#x}")


def _support_pass(
    n: int, k: int, m_mask: int
) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
    """The contribution family of support mask ``m_mask`` as (G mask, index)
    pairs, ascending, and the first member whose distinguished facet lies
    inside an earlier member, with the earliest such member, or None.

    One loop over the k-subsets of M builds the family twice: as the
    k-subsets of even index, and as the generators of the summands
    contributing at M.  A repeated generator, or a k-subset of even index
    that is not a generator, or a count mismatch, would break the dimension
    count, so each raises.  The earlier k-subsets of M that contain a
    member's facet are the facet plus an element of M below the member's
    pivot, so only those are probed, against the generators, which equal
    the members whenever the pass returns.  The probes rise with the added
    element, so the lowest hit is the earliest member.
    """
    gens = _summand_families(n, k)[m_mask]
    gen_set = set(gens)
    if len(gen_set) != len(gens):
        raise RuntimeError(f"distinct summands share a generator on support mask {m_mask:#x}")
    table = k_subset_table(n, k)
    members = []
    violation = None
    for g in sized_submasks(m_mask, k):
        added, t, probe = table[g]
        ind = chain_index(added, m_mask)
        if ind & 1:
            continue
        if g not in gen_set:
            raise _families_disagree(m_mask)
        members.append((g, ind))
        if violation is None:
            rest = m_mask & probe
            while rest:
                low = rest & -rest
                if t | low in gen_set:
                    violation = g, t | low
                    break
                rest ^= low
    if len(members) != len(gens):
        raise _families_disagree(m_mask)
    return members, violation


def _family_from_masks(M: Subset, k: int, members: list[tuple[int, int]]) -> ContributionFamily:
    return ContributionFamily(
        M,
        k,
        tuple(FamilyMember(Subset.from_mask(M.n, g), ind) for g, ind in members),
    )


def contribution_family(n: int, k: int, M: Subset) -> ContributionFamily:
    require_upper_half(n, k)
    if M.n != n:
        raise ValueError(f"support over n={M.n}, expected {n}")
    if len(M) < k:
        raise ValueError(f"support {M} has fewer than k={k} elements")
    members, _ = _support_pass(n, k, M.mask)
    return _family_from_masks(M, k, members)


def distinguished_subset(G: Subset) -> Subset:
    """The facet a family member claims for itself in the triangle condition."""
    return matching.psi_tilde(G).value


def _first_violation(tables: MatchTables, m_mask: int, members: list[int]) -> tuple[int, int] | None:
    """Positions (i, j), j < i, of the first member whose distinguished facet
    lies inside an earlier member, j being the earliest such; None if none.

    Members must be k-subsets of M.  A k-subset of M contains the facet t
    exactly when it is t plus one element of M outside t, so each member
    looks up at most n candidates among the earlier ones.
    """
    tilde = tables.psi_tilde
    position: dict[int, int] = {}
    for i, g in enumerate(members):
        t = tilde[g]
        rest = m_mask & ~t
        hit = None
        while rest:
            low = rest & -rest
            j = position.get(t | low)
            if j is not None and (hit is None or j < hit):
                hit = j
            rest ^= low
        if hit is not None:
            return i, hit
        position.setdefault(g, i)
    return None


def triangle_check(family: ContributionFamily) -> TriangleReport:
    """Each member's distinguished facet must avoid all earlier members.

    Members are taken in the order given (canonical families are already
    ascending in squashed order); the first offending member is reported
    with the earliest member containing its facet.
    """
    M, k = family.M, family.k
    for member in family.members:
        G = member.G
        if k < 1 or G.n != M.n or len(G) != k or not G.elements <= M.elements:
            raise ValueError(f"family member {G} is not a non-empty {k}-subset of {M}")
    masks = [member.G.mask for member in family.members]
    bad = _first_violation(match_tables(M.n), M.mask, masks)
    if bad is None:
        return TriangleReport(True)
    i, j = bad
    return TriangleReport(False, (family.members[i].G, family.members[j].G))


def sign_matrix(family: ContributionFamily) -> list[list[int]]:
    """Rows: members in the given order.  Columns: all (k-1)-subsets of M,
    ascending in squashed order.  Entries: boundary signs, 0 off the facets."""
    n = family.M.n
    cols = {t: j for j, t in enumerate(sized_submasks(family.M.mask, family.k - 1))}
    rows = []
    for member in family.members:
        row = [0] * len(cols)
        for t_mask in sized_submasks(member.G.mask, family.k - 1):
            entry = boundary_sign(member.G, Subset.from_mask(n, t_mask))
            assert entry is not None
            row[cols[t_mask]] = entry.sign
        rows.append(row)
    return rows


def rank_full(matrix: list[list[int]]) -> bool:
    """Exact full-row-rank test by fraction-free elimination.

    Entries must be -1, 0 or +1; intermediate values are exact integer
    minors, which Python integers hold without overflow.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return True
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        if any(e not in (-1, 0, 1) for e in r):
            raise ValueError("entries must be -1, 0 or +1")
    nrows = len(rows)
    prev = 1
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][c]
        for i in range(rank + 1, nrows):
            factor = rows[i][c]
            if factor or piv != prev:
                row_i = rows[i]
                row_r = rows[rank]
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - factor * row_r[j]) // prev
                row_i[c] = 0
        prev = piv
        rank += 1
    return rank == nrows


def facet_rows(m_mask: int, k: int, members: list[int]) -> list[int]:
    """The sign matrix of the given k-subsets of M reduced mod 2, one int
    bitmask per member.

    Bit j of a row is set when the j-th (k-1)-subset of M, in the column
    order of :func:`sign_matrix`, is a facet of that member.
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


def _indicator_of_mask(n: int, m_mask: int) -> Multidegree:
    return Multidegree(n, (1 if (m_mask >> i) & 1 else 0 for i in range(n)))


def verify_hilbert(decomp: Decomposition, mode: str = "squarefree", box_depth: int = 2) -> Report:
    """Check that the summands account for every graded dimension.

    squarefree mode: for every support M the number of contributing summands
    must equal the dimension oracle at the indicator multidegree.  box mode:
    the same equality at every multidegree with entries up to ``box_depth``.
    """
    n, k = decomp.n, decomp.k
    if mode == "squarefree":
        script = ((sm.S.mask, sm.removed, sm.G.mask) for sm in decomp.summands)
        return _squarefree_hilbert(n, k, _push_summands(n, script))
    if mode != "box":
        raise ValueError(f"unknown mode {mode!r}")
    if box_depth < 0:
        raise ValueError(f"box depth must be >= 0, got {box_depth}")
    rep = Report(f"hilbert identity n={n} k={k} (box)")
    checked = 0
    for exps in product(range(box_depth + 1), repeat=n):
        m = Multidegree(n, exps)
        got = sum(1 for sm in decomp.summands if contributes(sm, m))
        expect = dim_oracle(n, k, m)
        checked += 1
        if got != expect:
            rep.fail(f"multidegree {m}: {got} summands vs dimension {expect}")
    rep.counts["multidegrees_checked"] = checked
    rep.counts["box_depth"] = box_depth
    return _close_hilbert(rep, "box", checked)


def _squarefree_hilbert(n: int, k: int, families) -> Report:
    """The squarefree identity, given the contributing generators per support."""
    rep = Report(f"hilbert identity n={n} k={k} (squarefree)")
    # the dimension depends on the support size only: one oracle call per size
    by_size = [0] + [dim_oracle(n, k, _indicator_of_mask(n, (1 << s) - 1)) for s in range(1, n + 1)]
    checked = 0
    for m_mask in range(1, 1 << n):
        got = len(families[m_mask])
        expect = by_size[m_mask.bit_count()]
        checked += 1
        if got != expect:
            rep.fail(
                f"support {Subset.from_mask(n, m_mask)}: "
                f"{got} summands vs dimension {expect}"
            )
    rep.counts["supports_checked"] = checked
    return _close_hilbert(rep, "squarefree", checked)


def _close_hilbert(rep: Report, mode: str, checked: int) -> Report:
    rep.counts["failures"] = len(rep.failures)
    rep.lines.append(
        f"hilbert identity ({mode}): {checked} degrees checked, {len(rep.failures)} failures"
    )
    return rep


def _admissible(tables: MatchTables, m: int, g: int, h: int) -> bool:
    """Mask form of the admissibility of (M, G, H); see :func:`index_step_check`.

    On equal sizes, squashed order is integer order on masks.
    """
    return (
        not (g | h) & ~m
        and g.bit_count() == h.bit_count() >= tables.n // 2
        and g != 0
        and h < g
        and not tables.psi_tilde[g] & ~h
    )


def _index_step(n: int, m: int, g: int, h: int) -> StepCheck:
    """The increment claim on one admissible mask triple.

    The pivot p of ``psi_tilde`` is the first member where the height over
    the members alone peaks, so the restricted peak height is the height of
    the lattice path at p: p minus twice the non-members below p, which are
    exactly g's probe.
    """
    table = k_subset_table(n, g.bit_count())
    added, t, probe = table[g]
    ind_g = chain_index(added, m)
    ind_h = chain_index(table[h][0], m)
    if (g ^ t).bit_length() >= 2 * probe.bit_count():
        case, expected = 1, ind_g + 1
    else:
        case, expected = 2, 1
    status = "pass" if ind_h == expected else "fail"
    return StepCheck(status, case, ind_g, ind_h, expected)


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
    tables = match_tables(M.n)
    if not _admissible(tables, M.mask, G.mask, H.mask):
        return StepCheck("skip")
    return _index_step(M.n, M.mask, G.mask, H.mask)


def index_step_sweep(n: int) -> Report:
    """Exhaustively check the index increment over all admissible triples.

    For fixed G the admissible partners H are exactly the sets obtained from
    the distinguished facet of G by adding an element of M below the deleted
    pivot: the elements of M in G's probe.
    """
    rep = Report(f"index increment n={n}")
    tables = match_tables(n)
    by_case = {1: 0, 2: 0}
    checked = 0
    for m_mask in range(1, 1 << n):
        for size in range(max(n // 2, 1), m_mask.bit_count() + 1):
            table = k_subset_table(n, size)
            for g_mask in sized_submasks(m_mask, size):
                _, t_mask, probe = table[g_mask]
                rest = m_mask & probe
                while rest:
                    low = rest & -rest
                    rest ^= low
                    h_mask = t_mask | low
                    assert _admissible(tables, m_mask, g_mask, h_mask)
                    result = _index_step(n, m_mask, g_mask, h_mask)
                    checked += 1
                    by_case[result.case] += 1
                    if result.status == "fail":
                        M, G, H = (Subset.from_mask(n, mask) for mask in (m_mask, g_mask, h_mask))
                        rep.fail(
                            f"M={M} G={G} H={H}: "
                            f"case {result.case}, index {result.index_H} != "
                            f"expected {result.expected_H} (index of G: {result.index_G})"
                        )
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


def verify_stanley(n: int, k: int, check_rank: bool | None = None) -> Report:
    """Full verification of the decomposition for one (n, k).

    Runs the squarefree Hilbert identity, with one dimension-oracle call per
    support size, then one pass per support of size at least k (see
    :func:`_support_pass`): the two-form family construction, the expected
    family size, the triangle condition, and (by default for n <= 13, where
    it is affordable) exact linear independence of the sign matrix: full
    rank mod 2, with fraction-free elimination over Q wherever that fails.
    Below the range guard, where the construction can be undefined, that
    alone fails the report.  The depth conclusion is reported with the
    upper bound cited, not verified.
    """
    require_upper_half(n, k)
    if check_rank is None:
        check_rank = n <= 13
    rep = Report(f"stanley decomposition n={n} k={k}")
    try:
        script = _script(n, k)
    except UndefinedScript as err:
        rep.lines.append(f"stanley decomposition of M({n},{k}): undefined, no later check run")
        rep.fail(f"downward matching undefined below {Subset.from_mask(n, err.mask)}")
        return rep
    rep.lines.append(f"stanley decomposition of M({n},{k}): {len(script)} summands")

    hilbert = _squarefree_hilbert(n, k, _summand_families(n, k))
    rep.lines.extend(hilbert.lines)
    rep.failures.extend(hilbert.failures)
    rep.passed &= hilbert.passed
    rep.counts["hilbert_supports"] = hilbert.counts["supports_checked"]
    rep.counts["hilbert_failures"] = len(hilbert.failures)

    supports = 0
    size_mismatches = 0
    triangle_violations = 0
    rank_checked = 0
    rank_failures = 0
    for m_mask in range(1, 1 << n):
        if m_mask.bit_count() < k:
            continue
        supports += 1
        members, violation = _support_pass(n, k, m_mask)
        expect = comb(m_mask.bit_count() - 1, k - 1)
        if len(members) != expect:
            size_mismatches += 1
            rep.fail(
                f"support {Subset.from_mask(n, m_mask)}: family size {len(members)} "
                f"!= C(|M|-1,k-1) = {expect}"
            )
        if violation is not None:
            triangle_violations += 1
            g_bad, h_bad = (Subset.from_mask(n, g) for g in violation)
            rep.fail(
                f"support {Subset.from_mask(n, m_mask)}: distinguished facet of "
                f"{g_bad} lies inside earlier {h_bad}"
            )
        if check_rank:
            rank_checked += 1
            # an odd maximal minor is a non-zero integer, so full rank mod 2
            # is full rank over Q; only a deficiency mod 2 needs Bareiss
            if not rank_full_mod2(facet_rows(m_mask, k, [g for g, _ in members])):
                family = _family_from_masks(Subset.from_mask(n, m_mask), k, members)
                if not rank_full(sign_matrix(family)):
                    rank_failures += 1
                    rep.fail(f"support {Subset.from_mask(n, m_mask)}: sign matrix rank deficient")

    rep.counts["summands"] = len(script)
    rep.counts["supports"] = supports
    rep.counts["triangle_violations"] = triangle_violations
    rep.counts["family_size_mismatches"] = size_mismatches
    rep.counts["rank_checked"] = rank_checked
    rep.counts["rank_failures"] = rank_failures

    rep.lines.append(
        f"families: {supports} supports, sizes {'ok' if not size_mismatches else 'MISMATCHED'}, "
        f"two-form agreement held"
    )
    rep.lines.append(f"triangle condition (squashed order): {triangle_violations} violations")
    if check_rank:
        rep.lines.append(f"exact rank: {rank_checked} sign matrices, {rank_failures} rank deficient")
    else:
        rep.lines.append("exact rank: skipped at this size (rerun with rank checking forced)")

    slim = sum(1 for _, removed, _ in script if removed is not None)
    z_sizes = sorted({n if removed is None else n - 1 for _, removed, _ in script})
    min_z = min(z_sizes)
    rep.counts["min_Z"] = min_z
    if min_z != n - 1 or slim == 0:
        rep.fail(f"depth bookkeeping broken: |Z| sizes {z_sizes}, {slim} slim summands")
    rep.lines.append(
        f"depth: |Z| sizes {z_sizes}, minimum {min_z} = n-1 attained by {slim} summands"
    )
    if rep.passed:
        rep.lines.append(
            f"conclusion: sdepth M({n},{k}) >= {n - 1} verified by this decomposition; "
            f"equality with {n - 1} = n-1 follows from the known Hilbert depth upper bound "
            f"(Bruns, Krattenthaler & Uliczka 2010), which is cited here, not verified."
        )
    return rep


def decomposition_to_dict(decomp: Decomposition) -> dict:
    """Stable machine-readable form of a decomposition."""
    return {
        "n": decomp.n,
        "k": decomp.k,
        "summands": [
            {
                "S": list(sm.S.sorted_elements()),
                "Z": list(sm.Z.sorted_elements()),
                "removed": sm.removed,
                "G": list(sm.G.sorted_elements()),
                "m": sm.m.text(),
            }
            for sm in decomp.summands
        ],
    }
