"""Construction and verification of the depth-(n-1) decomposition.

For floor(n/2) <= k < n the k-th syzygy module of the residue field splits,
as a graded vector space, into one summand per subset S of even distance
above cardinality k.  Each summand is a polynomial subring (all variables,
or all but the one the matching would delete) times a fixed generator of
multidegree S.  This module builds that family from the upward chains of
the k-subsets, its one producer, and checks everything it claims: the
dimension count per multidegree, the squashed-order triangle condition
and linear independence mod 2.
"""

from __future__ import annotations

from contextlib import suppress
from functools import partial
from itertools import product
from math import comb
from operator import ne
from typing import Iterator, NamedTuple

# match_tables, phi_index, lattice_path and the index-increment checks are
# unused here, but the benchmark tracer wraps this module's bindings
from .bits import k_subset_table, match_tables, phi_index, sized_submasks
from .checks import index_step_check, index_step_sweep
from .maskchecks import (
    by_size_bytes, contribution_counts, even_families, even_members, even_stop_row,
    facet_row_table, k_polynomial, k_polynomial_by_size, rank_full_mod2, triangle_pairs,
)
from .koszul import KoszulChain, Multidegree, boundary_sign, dim_oracle, generator_m
from .report import Report
from .subsets import RANK_AUTO_MAX_N, Subset, lattice_path


def upper_half(n: int) -> range:
    """The k the construction covers: floor(n/2) <= k < n, and k >= 1."""
    return range(max(n // 2, 1), n)


def require_upper_half(n: int, k: int) -> None:
    """The construction covers only floor(n/2) <= k < n; fail fast outside it."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k not in upper_half(n):
        raise ValueError(
            f"out of range: the construction needs floor(n/2) <= k < n "
            f"(and k >= 1), got n={n}, k={k}; the lower half is not covered"
        )


class Summand(NamedTuple):
    """One Stanley space: the variables Z acting on the generator m of degree S."""

    S: Subset
    Z: Subset
    removed: int | None
    G: Subset
    m: KoszulChain


class Decomposition(NamedTuple):
    n: int
    k: int
    summands: tuple[Summand, ...]


class FamilyMember(NamedTuple):
    G: Subset
    index: int


class ContributionFamily(NamedTuple):
    """The k-subsets of M contributing at any multidegree with support M,
    with their indices, ascending in squashed order."""

    M: Subset
    k: int
    members: tuple[FamilyMember, ...]


class TriangleReport(NamedTuple):
    passed: bool
    violation: tuple[Subset, Subset] | None = None


def build_decomposition(n: int, k: int) -> Decomposition:
    """The summands as objects, for display and export; verification runs on
    the masks of :func:`_rows`."""
    require_upper_half(n, k)
    summands = []
    for s_mask, removed, g_mask in _script(n, k):
        S = Subset.from_mask(n, s_mask)
        G = Subset.from_mask(n, g_mask)
        Z = Subset.from_mask(n, _z_mask(n, removed))
        summands.append(Summand(S, Z, removed, G, generator_m(S, G)))
    return Decomposition(n, k, tuple(summands))


def contributes(s: int, z: int, support: int, repeated: int) -> bool:
    """Whether the summand with generator degree S and variables Z (masks
    ``s`` and ``z``) has a non-zero component in a multidegree m, given
    ``m.masks()``: m - 1_S, defined when S lies in the support, is supported
    on (support - S) | (S & repeated)."""
    return not s & ~support and not (support & ~s | s & repeated) & ~z


def _rows(n: int, k: int) -> Iterator[tuple[int, int | None, int]]:
    """(S mask, removed element, G mask) per summand, by G ascending.

    Each k-subset G, with upward chain a_1 < a_2 < ..., generates the
    summands (G | a_1..a_j, removed a_{j+1}) for even j, nothing removed past
    the chain's end.  At every support the generators are then the k-subsets
    of even index, each once (README, lemma 1).  On the upper half this is
    the paper's G(S) = psi^(|S|-k)(S) with the variable phi(S) inserts
    removed: S lies on the chain of G, and psi inverts phi.
    """
    end = 1 << n
    table = k_subset_table(n, k)
    for g in table.masks():
        added, odd = table.added[g], table.odd[g]
        # per even j, the bit of a_{j+1}, or past the chain's end bit n
        while odd:
            a = odd & -odd
            odd ^= a
            yield g | added & (a - 1), a.bit_length() if a != end else None, g


def _script(n: int, k: int) -> tuple[tuple[int, int | None, int], ...]:
    """The rows of :func:`_rows` in (level, squashed) order, for listing."""
    return tuple(sorted(_rows(n, k), key=lambda row: (row[0].bit_count(), row[0])))


def _z_mask(n: int, removed: int | None) -> int:
    full = (1 << n) - 1
    return full if removed is None else full & ~(1 << (removed - 1))


def contribution_family(n: int, k: int, M: Subset) -> ContributionFamily:
    """The family of support M: its k-subsets of even index, ascending, which
    are exactly the generators of the summands meeting M (README, lemma 1)."""
    require_upper_half(n, k)
    if M.n != n:
        raise ValueError(f"support over n={M.n}, expected {n}")
    if len(M) < k:
        raise ValueError(f"support {M} has fewer than k={k} elements")
    members = even_members(k_subset_table(n, k), M.mask, k)
    return ContributionFamily(
        M, k, tuple(FamilyMember(Subset.from_mask(n, g), ind) for g, ind in members)
    )


def triangle_check(family: ContributionFamily) -> TriangleReport:
    """Each member's distinguished facet must avoid all earlier members.

    Members are taken in the order given (canonical families are already
    ascending in squashed order); the first offending member is reported
    with the earliest member containing its facet.  A k-subset of M contains
    the facet t exactly when it is t plus one element of M outside t, so
    each member looks up at most n candidates among the earlier ones.
    """
    M, k = family.M, family.k
    for member in family.members:
        G = member.G
        if k < 1 or G.n != M.n or len(G) != k or G.mask & ~M.mask:
            raise ValueError(f"family member {G} is not a non-empty {k}-subset of {M}")
    table = k_subset_table(M.n, k)
    position: dict[int, int] = {}
    for i, member in enumerate(family.members):
        g = member.G.mask
        pivot = 1 << table.pivot[g] >> 1
        if not pivot & g:
            raise ValueError(f"pivot {pivot:#x} of {g:#x} is not one of its members")
        t = g ^ pivot
        hits = [position[t | low] for low in sized_submasks(M.mask & ~t, 1) if t | low in position]
        if hits:
            return TriangleReport(False, (member.G, family.members[min(hits)].G))
        position.setdefault(g, i)
    return TriangleReport(True)


def sign_matrix(family: ContributionFamily) -> list[list[int]]:
    """Rows: members in the given order.  Columns: all (k-1)-subsets of M,
    ascending in squashed order.  Entries: boundary signs, 0 off the facets."""
    n = family.M.n
    cols = {t: j for j, t in enumerate(sized_submasks(family.M.mask, family.k - 1))}
    rows = []
    for member in family.members:
        row = [0] * len(cols)
        for t_mask in sized_submasks(member.G.mask, family.k - 1):
            sign = boundary_sign(member.G, Subset.from_mask(n, t_mask))
            assert sign is not None
            row[cols[t_mask]] = sign
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


def verify_hilbert(decomp: Decomposition, mode: str = "squarefree") -> Report:
    """Check that the summands account for every squarefree graded dimension:
    for every support M the number of contributing summands must equal the
    dimension oracle at the indicator multidegree.  ``squarefree`` is the
    only mode; the box identity is :func:`verify_box`."""
    if mode != "squarefree":
        raise ValueError(f"unknown mode {mode!r}")
    n, k = decomp.n, decomp.k
    summands = [(sm.S.mask, sm.removed) for sm in decomp.summands]
    dims = _dims_by_size(n, k)
    return _squarefree_hilbert(n, k, dims, _counts_off_target(n, lambda: summands, dims))


def verify_box(n: int, k: int, box_depth: int) -> Report:
    """The box identity: at every multidegree with entries up to
    ``box_depth``, the number of contributing summands must equal the
    dimension oracle.  Runs on the construction's masks, without building
    its summands."""
    require_upper_half(n, k)
    _require_box_depth(box_depth)
    pairs = [(s_mask, _z_mask(n, removed)) for s_mask, removed, _ in _rows(n, k)]
    rep = Report(f"hilbert identity n={n} k={k} (box)")
    for exps in product(range(box_depth + 1), repeat=n):
        m = Multidegree(n, exps)
        support, repeated = m.masks()
        got = sum(contributes(s, z, support, repeated) for s, z in pairs)
        expect = dim_oracle(n, k, m)
        if got != expect:
            rep.fail(f"multidegree {m}: {got} summands vs dimension {expect}")
    checked = (box_depth + 1) ** n
    rep.counts["multidegrees_checked"] = checked
    rep.counts["box_depth"] = box_depth
    return _close_hilbert(rep, "box", checked)


def _require_box_depth(box_depth: int) -> None:
    if not isinstance(box_depth, int) or isinstance(box_depth, bool) or box_depth < 0:
        raise ValueError(f"box depth must be an integer >= 0, got {box_depth!r}")


def _dims_by_size(n: int, k: int) -> list[int]:
    """The dimension at a squarefree degree per support size, 0 at the empty
    support: it depends on the size only, so one oracle call per size."""
    return [0] + [
        dim_oracle(n, k, Multidegree(n, [1] * s + [0] * (n - s))) for s in range(1, n + 1)
    ]


def _counts_off_target(n: int, rows, target: list[int]) -> list[int] | None:
    """The number of summands ``rows()`` gives at each support mask, or None
    when at every support M it is ``target[|M|]``, as their K-polynomials in
    bytes show (README, lemma 2); a coefficient outside the byte range, like
    a mismatch, runs the transform."""
    with suppress(ValueError):  # outside the byte range, the counts decide
        coeffs = k_polynomial(rows(), bytearray(b"\x80") * (1 << n))
        if coeffs == by_size_bytes(n, k_polynomial_by_size(target)):
            return None
    return contribution_counts(n, rows())


def _squarefree_hilbert(n: int, k: int, dims: list[int], counts: list[int] | None) -> Report:
    """The squarefree identity, given the dimension per support size and
    the number of contributing summands per support mask, or None when the
    K-polynomials agree, so that every support meets its dimension."""
    rep = Report(f"hilbert identity n={n} k={k} (squarefree)")
    if counts is not None:
        for m_mask in range(1, 1 << n):
            got, expect = counts[m_mask], dims[m_mask.bit_count()]
            if got != expect:
                rep.fail(
                    f"support {Subset.from_mask(n, m_mask)}: "
                    f"{got} summands vs dimension {expect}"
                )
    checked = (1 << n) - 1
    rep.counts["supports_checked"] = checked
    return _close_hilbert(rep, "squarefree", checked)


def _close_hilbert(rep: Report, mode: str, checked: int) -> Report:
    rep.counts["failures"] = len(rep.failures)
    rep.lines.append(
        f"hilbert identity ({mode}): {checked} degrees checked, {len(rep.failures)} failures"
    )
    return rep


def verify_stanley(
    n: int, k: int, check_rank: bool | None = None, box_depth: int | None = None
) -> Report:
    """Full verification of the decomposition for one (n, k).

    Every check reads the rows ``(S, removed, G)`` of :func:`_rows`, made
    afresh from the chain table per pass.  Pushed into one byte per mask,
    they are the decomposition's squarefree K-polynomial.  The dimension
    oracle, called once per support size s, must give C(s-1, k-1), the
    family size; the squarefree Hilbert identity compares the K-polynomial
    with that of the dimensions, and only a mismatch or a wrong oracle runs
    the subset-sum transform, whose counts name each failing support.  One
    pass names each row that is not an even stop of G's chain and counts
    the summands and the slim ones; with the Hilbert
    identity, which fails on a missing or repeated row, each support's
    generators are its k-subsets of even index (README, lemma 1).  The
    triangle condition is decided on those by pairs of k-subsets, each
    violating pair named with its least witness support.  None of these
    visits a support; only rank does (by default for n <=
    ``RANK_AUTO_MAX_N``): mod 2, on the generators one push of the rows
    lists and sign rows from one table of facets.  ``box_depth`` adds the
    box identity.  The depth conclusion, drawn last, cites the upper bound
    rather than verifying it.
    """
    require_upper_half(n, k)
    if box_depth is not None:
        _require_box_depth(box_depth)
    if check_rank is None:
        check_rank = n <= RANK_AUTO_MAX_N
    rep = Report(f"stanley decomposition n={n} k={k}")
    rows, table = partial(_rows, n, k), k_subset_table(n, k)
    summands, slim, strays = 0, 0, []
    for summands, (s, removed, g) in enumerate(rows(), 1):
        slim += removed is not None
        if not even_stop_row(table, s, removed, g):
            strays.append((s, removed, g))
    rep.lines.append(f"stanley decomposition of M({n},{k}): {summands} summands")

    dims = _dims_by_size(n, k)
    # the counts below size k are 0, as C(|M|-1, k-1) is there
    family_sizes = [0] + [comb(s - 1, k - 1) for s in range(1, n + 1)]
    off = [s for s in range(1, n + 1) if dims[s] != family_sizes[s]]
    rep.fail(*(f"dimension oracle at support size {s}: {dims[s]}, "
               f"not C({s - 1},{k - 1}) = {family_sizes[s]}" for s in off))
    # a wrong oracle fails the run anyway; counting directly keeps both tallies exact
    counts = contribution_counts(n, rows()) if off else _counts_off_target(n, rows, dims)
    hilbert = _squarefree_hilbert(n, k, dims, counts)
    rep.lines.extend(hilbert.lines)
    rep.fail(*hilbert.failures)
    rep.counts["hilbert_supports"] = hilbert.counts["supports_checked"]
    rep.counts["hilbert_failures"] = len(hilbert.failures)

    by_support = map(family_sizes.__getitem__, map(int.bit_count, range(1 << n)))
    size_mismatches = 0 if counts is None else sum(map(ne, counts, by_support))
    for s, removed, g in strays:
        S, G = Subset.from_mask(n, s), Subset.from_mask(n, g)
        rep.fail(f"summand S={S} removed={removed or '-'} G={G}: not an even stop of G's chain")
    triangle_violations = 0
    for g, h, r in triangle_pairs(n, k):
        triangle_violations += 1
        G, H, R = (Subset.from_mask(n, mask) for mask in (g, h, r))
        rep.fail(f"support {R}: distinguished facet of {G} lies inside earlier {H}")

    supports = sum(comb(n, s) for s in range(k, n + 1))
    rank_failures = 0
    if check_rank:
        families = even_families(n, rows())
        row_of = facet_row_table(n, k).__getitem__
        for m_mask in range(1, 1 << n):
            size = m_mask.bit_count()
            if size < k:
                continue
            family = families[m_mask]
            # K is any field, so a deficiency mod 2 is a counterexample; full
            # rank mod 2 gives an odd maximal minor, so full rank over Q too
            if len(family) != family_sizes[size] or not rank_full_mod2(map(row_of, family)):
                rank_failures += 1
                rep.fail(f"support {Subset.from_mask(n, m_mask)}: sign matrix rank deficient")

    rep.counts.update(
        summands=summands, supports=supports, row_failures=len(strays),
        triangle_violations=triangle_violations, family_size_mismatches=size_mismatches,
        rank_checked=supports if check_rank else 0, rank_failures=rank_failures,
    )

    rep.lines.append(
        f"families: {supports} supports, sizes {'ok' if not size_mismatches else 'MISMATCHED'}, "
        f"two-form agreement {'held' if not strays else 'FAILED'}"
    )
    rep.lines.append(f"triangle condition (squashed order): {triangle_violations} violations")
    if check_rank:
        rep.lines.append(f"exact rank: {supports} sign matrices, {rank_failures} rank deficient")
    else:
        rep.lines.append("exact rank: skipped at this size (rerun with rank checking forced)")

    z_sizes = [n - 1] * (slim > 0) + [n] * (slim < summands)
    min_z = min(z_sizes, default=n)  # an empty script, with no slim summand, fails below
    rep.counts["min_Z"] = min_z
    if not slim:
        rep.fail(f"depth: no summand has |Z| = n-1 = {n - 1}, |Z| sizes {z_sizes}")
    rep.lines.append(
        f"depth: |Z| sizes {z_sizes}, minimum {min_z} = n-1 attained by {slim} summands"
    )
    if box_depth is not None:
        box = verify_box(n, k, box_depth)
        rep.lines.extend(box.lines)
        rep.fail(*box.failures)
        rep.counts.update({f"box_{key}": v for key, v in box.counts.items()})
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
