"""Independent oracles used to derive and pin expected values.

Everything here is deliberately written from first principles (plain loops,
brute enumeration, sympy for exact rank, list elimination for rank mod 2) so
that it shares no code path with the package under test.  Three kinds are
the exception: the chain oracles at the end build on the package's chain
builder; ``support_major_index_sweep``, the index-increment sweep as one
loop per support, runs the package's per-triple step, so that it checks how
the sweep groups supports, not the step itself; and ``naive_k_polynomial``
sums the package's dimension oracle, which the tests check against boundary
ranks.  ``k_subset_table_per_subset`` is the chain table one k-subset at a
time, by one ``chain_insertions`` and one ``scan_pivot`` each: the reference
for the table's one pass, and the base of the producer faults.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import NamedTuple

import sympy

from koszuldepth import checks
from koszuldepth.bits import ChainTable, sized_submasks
from koszuldepth.koszul import KoszulChain, Multidegree, dim_oracle, generator_m
from koszuldepth.report import Report
from koszuldepth.subsets import Subset


def naive_path(n: int, elements: set[int]):
    """Scalar re-derivation of the height profile and its peak data."""
    heights = [0]
    for g in range(1, n + 1):
        heights.append(heights[-1] + (1 if g in elements else -1))
    best = first = last = None
    for g in [0] + sorted(elements):
        h = heights[g]
        if best is None or h > best:
            best, first, last = h, g, g
        elif h == best:
            last = g
    return heights, best, first, last


def naive_index_up(n: int, G: set[int], M: set[int]) -> int:
    """Index of G inside M: how often the upward step can be taken without
    leaving M."""
    cur = set(G)
    steps = 0
    while True:
        cur = naive_phi(n, cur)
        if cur is None or not cur <= M:
            return steps
        steps += 1


def naive_psi(n: int, elements: set[int]) -> set[int] | None:
    """The downward step: delete the first peak (origin included), or None
    when that peak is the origin."""
    _, _, first, _ = naive_path(n, elements)
    return None if first == 0 else elements - {first}


def naive_phi(n: int, elements: set[int]) -> set[int] | None:
    """The upward step: insert the successor of the last peak (origin
    included), or None when that peak is n."""
    _, _, _, last = naive_path(n, elements)
    return None if last == n else elements | {last + 1}


def index_by_psi(n: int, G: set[int], M: set[int]) -> int:
    """Index of G inside M by its defining search: the largest number of
    downward steps leading from a subset of M to G.  Exponential in |M|."""
    best = 0
    for size in range(len(G) + 1, len(M) + 1):
        for start in combinations(sorted(M), size):
            cur = set(start)
            for _ in range(size - len(G)):
                cur = naive_psi(n, cur)
                if cur is None:
                    break
            if cur == G:
                best = size - len(G)
                break
    return best


def compute_Z_by_search(n: int, S: set[int]) -> tuple[set[int], int | None]:
    """The variables of the summand at S, by trying every insertion: all but
    the element whose insertion the downward step undoes, or all if none."""
    hits = [s for s in range(1, n + 1) if s not in S and naive_psi(n, S | {s}) == S]
    assert len(hits) <= 1, f"matching not injective at {S}: preimages add {hits}"
    full = set(range(1, n + 1))
    if hits:
        return full - {hits[0]}, hits[0]
    return full, None


def naive_summands(n: int, k: int):
    """(S, Z, removed, G) per summand of the decomposition of M(n, k).

    S runs over the sets of size k, k+2, k+4, ... by level, each level in
    squashed order (lexicographic on the elements read from the largest
    down); G is S after |S| - k downward steps.
    """
    out = []
    for size in range(k, n + 1, 2):
        for S in sorted(combinations(range(1, n + 1), size), key=lambda c: c[::-1]):
            G = set(S)
            for _ in range(size - k):
                G = naive_psi(n, G)
            Z, removed = compute_Z_by_search(n, set(S))
            out.append((set(S), Z, removed, G))
    return out


def script_by_psi(tables, k: int) -> tuple[tuple[int, int | None, int], ...]:
    """(S mask, removed element, G mask) per summand, by the paper's
    definition on the matching ``tables``: S runs over the masks of size k,
    k+2, ... by level, each level ascending (squashed order); the removed
    element is the one phi(S) inserts, and G = psi^(|S|-k)(S).  Raises
    where psi runs out before size k."""
    n = tables.n
    out = []
    for size in range(k, n + 1, 2):
        for elements in sorted(combinations(range(n), size), key=lambda c: c[::-1]):
            s_mask = sum(1 << e for e in elements)
            up = tables.phi[s_mask]
            g_mask = s_mask
            for _ in range(size - k):
                g_mask = tables.psi[g_mask]
                if g_mask is None:
                    raise ValueError(f"downward matching undefined below mask {s_mask:#x}")
            out.append((s_mask, None if up is None else (up ^ s_mask).bit_length(), g_mask))
    return tuple(out)


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


def scan_pivot(n: int, mask: int) -> int:
    """The pivot of ``psi_tilde``: the first member where the height over
    the members alone peaks, by one left-to-right pass (0 for the empty
    mask)."""
    height, top, pivot = 0, -n - 1, 0
    for pos in range(1, n + 1):
        if (mask >> (pos - 1)) & 1:
            height += 1
            if height > top:
                top, pivot = height, pos
        else:
            height -= 1
    return pivot


def even_stops(added: int) -> list[tuple[int, int]]:
    """Per even j, the chain's insertions a_1..a_j as a mask and the bit of
    a_{j+1}, 0 past the chain's end: g has index j in M exactly when M
    holds g and the mask and lacks the bit."""
    rest = added
    out = []
    j = 0
    while rest:
        low = rest & -rest
        if not j & 1:
            out.append((added & (low - 1), low))
        rest ^= low
        j += 1
    if not j & 1:
        out.append((added, 0))
    return out


def k_subset_entry(n: int, g: int, insertions=chain_insertions, pivot_of=scan_pivot):
    """The chain table's fields ``(added, pivot, odd)`` at g, from one
    ``insertions`` and one ``pivot_of`` call (the pivot's position), with
    ``odd`` read off :func:`even_stops` (bit n for the stop past the
    chain's end)."""
    added = insertions(n, g)
    pivot = pivot_of(n, g)
    odd = 0
    for _, a in even_stops(added):
        odd |= a or 1 << n
    return added, pivot, odd


def k_subset_table_per_subset(n: int, k: int, insertions=chain_insertions, pivot_of=scan_pivot):
    """The reference for ``bits.k_subset_table``: :func:`k_subset_entry`
    written into the arrays at each k-subset g.  The producer faults pass
    their own ``insertions`` or ``pivot_of``."""
    table = ChainTable(array("I", [0]) * (1 << n), bytearray(1 << n), array("I", [0]) * (1 << n))
    for g in sized_submasks((1 << n) - 1, k):
        table.added[g], table.pivot[g], table.odd[g] = k_subset_entry(n, g, insertions, pivot_of)
    return table



def naive_squashed_precedes(a: set[int], b: set[int]) -> bool:
    """a strictly before b: the largest element where they differ lies in b."""
    diff = a ^ b
    return bool(diff) and max(diff) in b


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([list(r) for r in rows]).rank()


def naive_rank_mod2(rows) -> int:
    """Rank over GF(2) of 0/1 rows given as lists, by Gauss-Jordan
    elimination on a list-of-lists copy."""
    m = [[e % 2 for e in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def koszul_image_dim(k: int, exponents) -> int:
    """Dimension of the syzygy module component at one multidegree, computed
    as the exact rank of the wedge boundary matrix restricted there."""
    supp = [i + 1 for i, e in enumerate(exponents) if e > 0]
    cols = {c: j for j, c in enumerate(combinations(supp, k - 1))}
    rows = []
    for T in combinations(supp, k):
        row = [0] * len(cols)
        for j, t in enumerate(T):
            facet = tuple(x for x in T if x != t)
            row[cols[facet]] = (-1) ** j
        rows.append(row)
    return sympy_rank(rows)


def all_element_sets(n: int):
    """Every subset of {1..n} as a python set, by mask order."""
    for mask in range(1 << n):
        yield {e for e in range(1, n + 1) if (mask >> (e - 1)) & 1}


def naive_greedy(n: int, l: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The greedy level matching on element tuples: the (l+1)-sets in
    lexicographic order, each taking its lex-smallest l-subset not yet
    taken, and left unmatched when every one is taken."""
    used: set[tuple[int, ...]] = set()
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for big in combinations(range(1, n + 1), l + 1):
        for small in combinations(big, l):
            if small not in used:
                used.add(small)
                out[big] = small
                break
    return out


def naive_index_disagreements(tables) -> list[tuple[int, int, int, int]]:
    """(M, G, upward, downward) masks and indices for every pair G inside M
    whose two indices differ on ``tables``, M ascending, G descending.  The
    upward index walks ``tables.phi`` from G for each pair; the downward one
    is the longest ``tables.psi`` chain into G, over chains started from every
    subset of M."""
    out = []
    for m in range(1 << tables.n):
        inside = [g for g in range(m, -1, -1) if g & m == g]
        down: dict[int, int] = {}
        for start in inside:
            cur, steps = start, 0
            while cur is not None:
                down[cur] = max(down.get(cur, 0), steps)
                cur, steps = tables.psi[cur], steps + 1
        for g in inside:
            cur, up = g, 0
            while tables.phi[cur] is not None and tables.phi[cur] & m == tables.phi[cur]:
                cur, up = tables.phi[cur], up + 1
            if up != down[g]:
                out.append((m, g, up, down[g]))
    return out


def naive_facet(n: int, elements: set[int], pick=min) -> set[int]:
    """The distinguished facet: drop the first member where the height over
    the members alone is largest (the last one with ``pick=max``, a producer
    fault)."""
    heights, _, _, _ = naive_path(n, elements)
    top = max(heights[g] for g in elements)
    return elements - {pick(g for g in elements if heights[g] == top)}


def naive_triangle(family):
    """Quadratic triangle check on element sets: (G, H) for the first member G
    whose distinguished facet lies in an earlier member H, the earliest such
    H, or None."""
    n = family.M.n
    earlier = []
    for member in family.members:
        t = naive_facet(n, set(member.G.elements))
        for h in earlier:
            if t <= h.elements:
                return member.G, h
        earlier.append(member.G)
    return None


def naive_admissible(n: int, M: set[int], G: set[int], H: set[int]) -> bool:
    """Whether (M, G, H) is admissible for the index-increment claim: G and H
    are equal-size subsets of M with at least max(floor(n/2), 1) elements,
    H precedes G in squashed order, and H strictly contains the
    distinguished facet of G."""
    return (
        G <= M
        and H <= M
        and len(G) == len(H) >= max(n // 2, 1)
        and naive_squashed_precedes(H, G)
        and naive_facet(n, G) < H
    )


class Triple(NamedTuple):
    """One admissible triple of the index-increment claim, with its data."""

    M: frozenset[int]
    G: frozenset[int]
    H: frozenset[int]
    case: int  # 1 if the peak height over G alone is >= 0, else 2
    index_G: int
    index_H: int
    x: int  # the element H adds to the distinguished facet of G

    @property
    def expected_H(self) -> int:
        """The index of H that the claim predicts."""
        return self.index_G + 1 if self.case == 1 else 1


def admissible_triples(n: int):
    """Every admissible (M, G, H) over [n], straight from the definition.

    G and H are equal-size subsets of M with at least max(floor(n/2), 1)
    elements, H precedes G in squashed order, and H strictly contains the
    distinguished facet t of G.  Such an H is t plus one element x of M
    outside t, so every candidate x is tried and the order test decides.
    """
    for M in all_element_sets(n):
        for size in range(max(n // 2, 1), len(M) + 1):
            for G in map(set, combinations(sorted(M), size)):
                heights, _, _, _ = naive_path(n, G)
                case = 1 if max(heights[g] for g in G) >= 0 else 2
                t = naive_facet(n, G)
                index_G = naive_index_up(n, G, M)
                for x in sorted(M - t):
                    H = t | {x}
                    if naive_squashed_precedes(H, G):
                        yield Triple(
                            frozenset(M), frozenset(G), frozenset(H),
                            case, index_G, naive_index_up(n, H, M), x,
                        )


def support_major_index_sweep(n: int):
    """The reference for ``checks.index_step_sweep``: the loop over
    every support M, size, G inside M and x in M outside G below G's pivot,
    deciding each triple on its own.  It reads the k-subset tables through
    the ``checks`` module, so a table patched there reaches it too."""
    rep = Report(f"index increment n={n}")
    # fetched once: the table cache holds only the last (n, k)
    by_size = {
        size: checks.k_subset_table(n, size) for size in range(max(n // 2, 1), n + 1)
    }
    by_case = {1: 0, 2: 0}
    checked = 0
    for m_mask in range(1, 1 << n):
        for size in range(max(n // 2, 1), m_mask.bit_count() + 1):
            table = by_size[size]
            for g_mask in sized_submasks(m_mask, size):
                pivot = 1 << table.pivot[g_mask] >> 1
                rest = m_mask & (pivot - 1) & ~g_mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    h_mask = g_mask ^ pivot | low
                    assert checks._admissible(table, n, m_mask, g_mask, h_mask)
                    case, ind_g, ind_h, expected = checks._index_step(
                        table, m_mask, g_mask, h_mask
                    )
                    checked += 1
                    by_case[case] += 1
                    if ind_h != expected:
                        M, G, H = (Subset.from_mask(n, mask) for mask in (m_mask, g_mask, h_mask))
                        rep.fail(
                            f"M={M} G={G} H={H}: case {case}, index {ind_h} != "
                            f"expected {expected} (index of G: {ind_g})"
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


def naive_contributes(S: set[int], Z: set[int], exponents) -> bool:
    """Whether the Stanley space with generator degree 1_S and variables Z
    meets the multidegree: subtracting 1 on S leaves no exponent negative,
    and every positive exponent left is on a variable of Z."""
    rest = [e - (1 if i + 1 in S else 0) for i, e in enumerate(exponents)]
    return all(r >= 0 for r in rest) and all(i + 1 in Z for i, r in enumerate(rest) if r > 0)


def naive_inverse_failures(tables) -> list[str]:
    """The failure lines of the inverse-law check on ``tables``, from Python
    sets of masks: per subset in mask order the broken inverse laws and a
    psi undefined at or above ceil((n+1)/2), then every subset in exactly
    one of the image of psi and the domain of phi, by size, then mask."""
    n = tables.n

    def text(mask):
        return "{" + ",".join(str(e) for e in range(1, n + 1) if (mask >> (e - 1)) & 1) + "}"

    threshold = (n + 2) // 2
    out = []
    image, domain = set(), set()
    for mask in range(1 << n):
        down, up = tables.psi[mask], tables.phi[mask]
        if down is not None:
            image.add(down)
            if tables.phi[down] != mask:
                out.append(f"phi(psi({text(mask)})) != {text(mask)}")
        elif bin(mask).count("1") >= threshold:
            out.append(f"psi undefined on {text(mask)} despite |G| >= {threshold}")
        if up is not None:
            domain.add(mask)
            if tables.psi[up] != mask:
                out.append(f"psi(phi({text(mask)})) != {text(mask)}")
    for size in range(n + 1):
        for elements in combinations(range(1, n + 1), size):
            mask = sum(1 << (e - 1) for e in elements)
            if (mask in image) != (mask in domain):
                side = "image only" if mask in image else "phi-domain only"
                out.append(f"image/domain mismatch at {text(mask)} ({side})")
    return out


def naive_support_counts(n: int, script) -> list[int]:
    """Per support mask, how many script entries (S, removed, G) contribute
    there: every superset of S that avoids the removed variable, walked as
    the submasks of the free variables; none when S holds the removed
    variable."""
    counts = [0] * (1 << n)
    full = (1 << n) - 1
    for s, removed, _ in script:
        a = 0 if removed is None else 1 << (removed - 1)
        if s & a:
            continue
        free = full & ~s & ~a
        sub = free
        while True:
            counts[s | sub] += 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return counts


def naive_k_polynomial(n: int, k: int) -> list[int]:
    """The squarefree K-polynomial of M(n, k), per mask T over {1..n}: by
    inclusion-exclusion over the submasks M of T, the sum of
    (-1)^(|T|-|M|) times the dimension oracle at the indicator of M."""
    dims = [
        dim_oracle(n, k, Multidegree(n, [(m >> i) & 1 for i in range(n)])) for m in range(1 << n)
    ]
    out = []
    for t in range(1 << n):
        total = 0
        for m in range(t + 1):
            if m & ~t == 0:
                total += (-1) ** (t.bit_count() - m.bit_count()) * dims[m]
        out.append(total)
    return out


def _mask(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def _elements(n: int, mask: int) -> set[int]:
    return {e for e in range(1, n + 1) if (mask >> (e - 1)) & 1}


def naive_witness_holds(n: int, g: int, h: int, r: int, facet=naive_facet) -> bool:
    """Whether support r shows (g, h) breaking the triangle condition: both
    k-subsets of r with even index there, h before g in squashed order and
    holding g's distinguished facet (as ``facet`` computes it)."""
    G, H, R = (_elements(n, mask) for mask in (g, h, r))
    return (
        G <= R
        and H <= R
        and naive_index_up(n, G, R) % 2 == 0
        and naive_index_up(n, H, R) % 2 == 0
        and naive_squashed_precedes(H, G)
        and facet(n, G) <= H
    )


def naive_least_witnesses(n: int, k: int, facet=naive_facet) -> dict[tuple[int, int], int]:
    """Per (G, H) mask pair that breaks the triangle condition on some
    support M (both k-subsets of M of even index, H before G in squashed
    order and holding G's distinguished facet), the least such M: the
    lowest index of G there, then the lowest index of H, then the fewest
    elements."""
    best: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for M in all_element_sets(n):
        index = {G: naive_index_up(n, set(G), M) for G in combinations(sorted(M), k)}
        members = [set(G) for G, ind in index.items() if ind % 2 == 0]
        for G in members:
            t = facet(n, G)
            for H in members:
                if t <= H and naive_squashed_precedes(H, G):
                    pair = (_mask(G), _mask(H))
                    key = (index[tuple(sorted(G))], index[tuple(sorted(H))], len(M), _mask(M))
                    best[pair] = min(best.get(pair, key), key)
    return {pair: key[-1] for pair, key in best.items()}


# Chain oracles.  Unlike the rest of this file they compose the package's one
# chain builder, ``koszul.generator_m``: the boundary of G is its generator of
# multidegree G, and degrees are added exponent by exponent.


def boundary(G: Subset) -> KoszulChain:
    """The boundary of the wedge basis vector indexed by G."""
    return generator_m(G, G)


def indicator(S: Subset) -> Multidegree:
    """The squarefree multidegree with exponent 1 exactly on S."""
    return Multidegree(S.n, [int(e in S) for e in range(1, S.n + 1)])


def plus(a: Multidegree, b: Multidegree) -> Multidegree:
    return Multidegree(a.n, [x + y for x, y in zip(a.exponents, b.exponents)])


def term_multidegree(term, n: int) -> Multidegree:
    """Total multidegree of a chain term: coefficient plus the basis indicator."""
    return plus(term.coefficient, indicator(Subset(n, term.basis)))


def boundary_squared(G: Subset) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The boundary applied twice to G, as its non-zero coefficients keyed by
    (basis, exponents); an empty dict certifies that it vanishes on G."""
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for t1 in boundary(G).terms:
        for t2 in boundary(Subset(G.n, t1.basis)).terms:
            key = (t2.basis, plus(t1.coefficient, t2.coefficient).exponents)
            acc[key] = acc.get(key, 0) + t1.sign * t2.sign
    return {key: v for key, v in acc.items() if v}
