"""Construction of the decomposition and every verification layer."""

import re
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from koszuldepth.decomposition import (
    ContributionFamily,
    FamilyMember,
    StepCheck,
    build_decomposition,
    contributes,
    contribution_family,
    decomposition_to_dict,
    index_step_check,
    index_step_sweep,
    rank_full,
    rank_full_mod2,
    require_upper_half,
    sign_matrix,
    triangle_check,
    verify_box,
    verify_hilbert,
    verify_stanley,
)
from koszuldepth import decomposition, koszul, matching
from koszuldepth.bits import k_subset_table, match_tables, submasks
from koszuldepth.koszul import Multidegree
from koszuldepth.maskchecks import (
    by_size_bytes, contribution_counts, even_families, even_members, even_stop_row,
    facet_row_table, k_polynomial, k_polynomial_by_size, triangle_pairs,
)
from koszuldepth.subsets import Subset

from helpers import (
    admissible_triples,
    all_element_sets,
    even_stops,
    naive_admissible,
    naive_contributes,
    naive_k_polynomial,
    naive_rank_mod2,
    naive_summands,
    naive_support_counts,
    naive_least_witnesses,
    naive_triangle,
    naive_witness_holds,
    script_by_psi,
    support_major_index_sweep,
    sympy_rank,
)


def S(n, elems=()):
    return Subset(n, elems)


def _summand_sets(n, k):
    return [sm.S for sm in build_decomposition(n, k).summands]


def test_summand_index_sets_examples():
    assert _summand_sets(3, 1) == [S(3, [1]), S(3, [2]), S(3, [3]), S(3, [1, 2, 3])]
    assert _summand_sets(2, 1) == [S(2, [1]), S(2, [2])]
    sets = _summand_sets(7, 3)
    assert len(sets) == 57  # 35 + 21 + 1
    assert [len(s) for s in sets] == [3] * 35 + [5] * 21 + [7]
    # (level, squashed) order throughout
    assert sets == sorted(sets, key=lambda s: (len(s), s.mask))


def test_range_guard():
    for n, k in ((4, 1), (3, 0), (3, 3), (5, 7), (6, 2)):
        with pytest.raises(ValueError):
            require_upper_half(n, k)
        with pytest.raises(ValueError):
            build_decomposition(n, k)


@pytest.mark.parametrize("n", range(2, 11))
def test_build_decomposition_matches_subset_replay(n):
    # the decomposition is built from mask tables; replay it from first
    # principles: step down to size k, search for the removed variable
    for k in range(max(n // 2, 1), n):
        got = [
            (set(sm.S.elements), set(sm.Z.elements), sm.removed, set(sm.G.elements))
            for sm in build_decomposition(n, k).summands
        ]
        assert got == naive_summands(n, k)


def test_build_decomposition_n3():
    d = build_decomposition(3, 1)
    rows = [(sm.S, sm.Z, sm.removed, sm.G) for sm in d.summands]
    assert rows == [
        (S(3, [1]), S(3, [1, 3]), 2, S(3, [1])),
        (S(3, [2]), S(3, [1, 2]), 3, S(3, [2])),
        (S(3, [3]), S(3, [2, 3]), 1, S(3, [3])),
        (S(3, [1, 2, 3]), S(3, [1, 2, 3]), None, S(3, [1])),
    ]
    assert d.summands[3].m.text() == "+x1*x2*x3*e{}"


def test_build_decomposition_n7_example():
    d = build_decomposition(7, 3)
    by_S = {sm.S: sm for sm in d.summands}
    assert by_S[S(7, [1, 2, 4, 5, 7])].G == S(7, [1, 4, 7])
    assert len(d.summands) == 57


def test_build_decomposition_n2():
    d = build_decomposition(2, 1)
    assert [(sm.S, sm.Z, sm.removed) for sm in d.summands] == [
        (S(2, [1]), S(2, [1]), 2),
        (S(2, [2]), S(2, [1, 2]), None),
    ]


def test_decomposition_dict_schema():
    assert decomposition_to_dict(build_decomposition(2, 1)) == {
        "n": 2,
        "k": 1,
        "summands": [
            {"S": [1], "Z": [1], "removed": 2, "G": [1], "m": "+x1*e{}"},
            {"S": [2], "Z": [1, 2], "removed": None, "G": [2], "m": "+x2*e{}"},
        ],
    }


def test_contributes_examples():
    d = build_decomposition(3, 1)
    by_S = {sm.S.mask: sm.Z.mask for sm in d.summands}
    m = Multidegree(3, (1, 1, 0)).masks()
    assert contributes(0b010, by_S[0b010], *m)
    assert not contributes(0b001, by_S[0b001], *m)
    # every summand meets its own squarefree degree, and no squarefree
    # degree whose support misses part of S
    for s, z in by_S.items():
        assert contributes(s, z, s, 0)
        assert not contributes(s, z, s & (s - 1), 0)


def test_contribution_family_worked_example():
    fam = contribution_family(7, 3, S(7, [1, 2, 4, 5, 7]))
    got = [(mem.G, mem.index) for mem in fam.members]
    assert got == [
        (S(7, [1, 2, 5]), 0),
        (S(7, [1, 4, 5]), 0),
        (S(7, [2, 4, 5]), 0),
        (S(7, [1, 2, 7]), 0),
        (S(7, [1, 4, 7]), 2),
        (S(7, [2, 5, 7]), 0),
    ]
    assert [matching.psi_tilde(mem.G).value for mem in fam.members] == [
        S(7, [1, 5]),
        S(7, [4, 5]),
        S(7, [2, 4]),
        S(7, [1, 7]),
        S(7, [4, 7]),
        S(7, [5, 7]),
    ]


def test_contribution_family_small_cases():
    fam = contribution_family(3, 1, S(3, [1, 2, 3]))
    assert [(m.G, m.index) for m in fam.members] == [(S(3, [1]), 2)]
    fam = contribution_family(5, 3, S(5, [1, 3, 4]))
    assert [(m.G, m.index) for m in fam.members] == [(S(5, [1, 3, 4]), 0)]


def test_contribution_family_contract():
    with pytest.raises(ValueError):
        contribution_family(5, 3, S(5, [1, 2]))
    with pytest.raises(ValueError):
        contribution_family(5, 3, S(6, [1, 2, 3]))


@pytest.mark.parametrize("n", range(2, 9))
def test_family_sizes(n):
    for k in range(max(n // 2, 1), n):
        for elems in all_element_sets(n):
            if len(elems) < k:
                continue
            fam = contribution_family(n, k, S(n, elems))
            assert len(fam.members) == comb(len(elems) - 1, k - 1)
            assert all(mem.index % 2 == 0 for mem in fam.members)
            masks = [mem.G.mask for mem in fam.members]
            assert masks == sorted(masks)


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(2, 15) for k in range(max(n // 2, 1), n)]
    + [(16, 8), (4, 1), (6, 2), (8, 3), (10, 4)],
)
def test_chain_script_equals_psi_iteration(n, k):
    # the script from the chains is the paper's G(S) = psi^(|S|-k)(S) with
    # the variable phi(S) inserts removed, on the upper half and at the
    # points below the guard where psi iteration is still defined
    assert decomposition._script(n, k) == script_by_psi(match_tables(n), k)


def test_verify_stanley_does_no_per_pair_work(monkeypatch):
    calls = {"phi_index": 0, "dim_oracle": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decomposition, name, counting(name, getattr(decomposition, name)))
    n, k = 10, 5
    rep = verify_stanley(n, k, check_rank=False)
    assert rep.passed
    assert calls["phi_index"] == 0
    assert 0 < calls["dim_oracle"] <= n + 1
    # every support is still compared: an oracle wrong at one support size
    # fails exactly the supports of that size
    for s in (1, 5, n):
        monkeypatch.setattr(
            decomposition, "dim_oracle",
            lambda n_, k_, m, s=s: koszul.dim_oracle(n_, k_, m) + (m.masks()[0].bit_count() == s),
        )
        rep = verify_stanley(n, k, check_rank=False)
        assert rep.counts["hilbert_failures"] == comb(n, s)
        assert not rep.passed


@pytest.mark.parametrize("n", range(2, 13))
def test_transform_counts_equal_generator_counts(n):
    # the subset-sum transform against a push of every summand into every
    # support it reaches; both equal the dimension on the upper half
    for k in range(max(n // 2, 1), n):
        script = decomposition._script(n, k)
        counts = contribution_counts(n, script)
        assert counts == naive_support_counts(n, script)
        assert all(counts[m] == comb(m.bit_count() - 1, k - 1) for m in range(1, 1 << n)
                   if m.bit_count() >= k)


@pytest.mark.parametrize("n", range(2, 9))
def test_even_stop_row_is_membership_in_the_stops(n):
    # the row check's bit operations against membership of (S - G, removed
    # bit) in G's list of even stops, for every G, every S above it and
    # every removed element, None and n + 1 included
    full = (1 << n) - 1
    for k in decomposition.upper_half(n):
        table = k_subset_table(n, k)
        for g in table.masks():
            stops = set(even_stops(table.added[g]))
            for extra in submasks(full & ~g):
                for removed in [None, *range(1, n + 2)]:
                    a = 0 if removed is None else 1 << (removed - 1)
                    assert even_stop_row(table, g | extra, removed, g) == ((extra, a) in stops)


@pytest.mark.parametrize("n", range(1, 9))
def test_k_polynomial_of_the_module(n):
    # M(n,k)'s squarefree K-polynomial, by inclusion-exclusion over the
    # dimension oracle: 0 below size k, (-1)^(|T|-k) from k on; the Moebius
    # sums per size give it, and on the upper half the script's rows push it
    for k in range(1, n + 1):
        want = naive_k_polynomial(n, k)
        sizes = [t.bit_count() for t in range(1 << n)]
        assert want == [0 if s < k else (-1) ** (s - k) for s in sizes]
        dims = decomposition._dims_by_size(n, k)
        assert [k_polynomial_by_size(dims)[s] for s in sizes] == want
        if k in decomposition.upper_half(n):
            assert k_polynomial(decomposition._script(n, k), [0] * (1 << n)) == want


@pytest.mark.parametrize("n", range(1, 17))
def test_byte_target_equals_the_moebius_sums(n):
    # the target in bytes, popcounts doubled and translated, holds each
    # upper-half Moebius sum of its mask's size, offset by 128; a value
    # outside -128..127 raises
    sizes = [t.bit_count() for t in range(1 << n)]
    for k in decomposition.upper_half(n):
        by_size = k_polynomial_by_size(decomposition._dims_by_size(n, k))
        assert list(by_size_bytes(n, by_size)) == [by_size[s] + 128 for s in sizes], k
    for value in (-129, 128):
        with pytest.raises(ValueError):
            by_size_bytes(n, [0] * n + [value])


def _perturbed(data, n, k):
    """The rows of (n, k), in the script's order, with one fault drawn: a
    row dropped, repeated or added, or a row's removed element moved."""
    rows = list(decomposition._script(n, k))
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    s, removed, g = rows[i]
    kind = data.draw(st.sampled_from(["drop", "repeat", "extra", "move"]), label="kind")
    if kind == "drop":
        del rows[i]
    elif kind == "repeat":
        rows.insert(i, rows[i])
    elif kind == "extra":
        full = (1 << n) - 1
        s = g | data.draw(st.integers(0, full), label="S") & full
        outside = [None] + [e for e in range(1, n + 1) if not s >> (e - 1) & 1]
        rows.append((s, data.draw(st.sampled_from(outside), label="removed"), g))
    else:
        others = [None] + [e for e in range(1, n + 1) if e != removed]
        rows[i] = (s, data.draw(st.sampled_from(others), label="removed"), g)
    return tuple(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_k_polynomial_decision_names_what_the_transform_names(data):
    # on a faulty script, the report decided on K-polynomials equals the
    # one that always runs the transform, and its Hilbert lines and family
    # size mismatches are those of the summands counted at each support; a
    # removed element moved into S makes a row that meets no support
    n = data.draw(st.integers(2, 9), label="n")
    k = data.draw(st.sampled_from(list(decomposition.upper_half(n))), label="k")
    rows = _perturbed(data, n, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "_rows", lambda n_, k_: rows)
        got = verify_stanley(n, k, check_rank=False)
        mp.setattr(
            decomposition, "_counts_off_target",
            lambda n_, rows_, target: contribution_counts(n_, rows_()),
        )
        want = verify_stanley(n, k, check_rank=False)
    for field in ("passed", "counts", "failures", "lines"):
        assert getattr(got, field) == getattr(want, field), field
    counts = naive_support_counts(n, rows)
    lines = [
        f"support {Subset.from_mask(n, m)}: {counts[m]} summands vs dimension "
        f"{comb(m.bit_count() - 1, k - 1)}"
        for m in range(1, 1 << n) if counts[m] != comb(m.bit_count() - 1, k - 1)
    ]
    assert got.counts["hilbert_failures"] == got.counts["family_size_mismatches"] == len(lines)
    assert got.failures[:len(lines)] == lines


@pytest.mark.parametrize("n", range(2, 10))
def test_triangle_pairs_equal_per_support_enumeration(n):
    # no violating pair on the upper half, by either method
    for k in range(max(n // 2, 1), n):
        got = list(triangle_pairs(n, k))
        assert all(naive_witness_holds(n, g, h, r) for g, h, r in got)
        assert got == []
        assert naive_least_witnesses(n, k) == {}


@pytest.mark.parametrize("n, k", [(9, 4), (10, 5)])
def test_verify_stanley_passes_without_the_pass_per_support(monkeypatch, n, k):
    calls = []
    rank_calls = []
    members = decomposition.even_members
    rank_mod2 = decomposition.rank_full_mod2
    monkeypatch.setattr(
        decomposition, "even_members", lambda *args: calls.append(args) or members(*args)
    )
    monkeypatch.setattr(
        decomposition, "rank_full_mod2", lambda rows: rank_calls.append(1) or rank_mod2(rows)
    )
    supports = sum(comb(n, s) for s in range(k, n + 1))
    # a PASS visits no support unless rank is checked, once per support, and
    # rank reads the families from one push, so it lists no support's members
    for check_rank, visits in ((False, 0), (True, supports)):
        calls.clear()
        rank_calls.clear()
        rep = verify_stanley(n, k, check_rank=check_rank)
        assert rep.passed and rep.counts["supports"] == supports
        assert len(rank_calls) == visits
        assert calls == []
    # a violating pair fails the report by itself, named with its witness
    # support, and still no support is visited
    g, h, r = (S(n, e).mask for e in ([2, 4, 5, 7], [1, 4, 5, 7], [1, 2, 4, 5, 7]))
    monkeypatch.setattr(decomposition, "triangle_pairs", lambda n_, k_: iter([(g, h, r)]))
    calls.clear()
    rank_calls.clear()
    rep = verify_stanley(n, k, check_rank=False)
    assert not rep.passed and calls == [] and rank_calls == []
    assert rep.counts["triangle_violations"] == 1
    assert "triangle condition (squashed order): 1 violations" in rep.lines
    assert rep.failures == [
        "support {1,2,4,5,7}: distinguished facet of {2,4,5,7} lies inside earlier {1,4,5,7}"
    ]


def test_triangle_worked_example_and_trivia():
    fam = contribution_family(7, 3, S(7, [1, 2, 4, 5, 7]))
    assert triangle_check(fam).passed
    singleton = contribution_family(5, 3, S(5, [1, 3, 4]))
    assert triangle_check(singleton).passed


def test_triangle_violation_paths():
    # mis-ordered fixture: the earlier set swallows the later one's facet
    fam = ContributionFamily(
        S(3, [1, 2, 3]),
        2,
        (FamilyMember(S(3, [1, 3]), 0), FamilyMember(S(3, [1, 2]), 0)),
    )
    rep = triangle_check(fam)
    assert not rep.passed
    assert rep.violation == (S(3, [1, 2]), S(3, [1, 3]))

    # naturally ordered family that genuinely fails the condition
    fam = ContributionFamily(
        S(2, [1, 2]),
        1,
        (FamilyMember(S(2, [1]), 0), FamilyMember(S(2, [2]), 0)),
    )
    rep = triangle_check(fam)
    assert not rep.passed
    assert rep.violation == (S(2, [2]), S(2, [1]))


@pytest.mark.parametrize("n", range(2, 9))
def test_triangle_check_matches_naive_oracle(n):
    # reversed families violate the condition, and from n = 5 on some
    # violating facet lies in several earlier members, so the exact pair
    # pins the choice of the earliest one
    reversed_violations = 0
    for k in range(max(n // 2, 1), n):
        for elems in all_element_sets(n):
            if len(elems) < k:
                continue
            fam = contribution_family(n, k, S(n, elems))
            flipped = ContributionFamily(fam.M, k, fam.members[::-1])
            for f in (fam, flipped):
                expected = naive_triangle(f)
                rep = triangle_check(f)
                assert rep.passed == (expected is None)
                assert rep.violation == expected
            reversed_violations += naive_triangle(flipped) is not None
    assert reversed_violations > 0 or n == 2


def test_triangle_check_rejects_non_members():
    M = S(5, [1, 2, 4, 5])
    for bad in (S(5, [1, 2]), S(5, [1, 2, 3]), S(6, [1, 2, 4])):
        fam = ContributionFamily(M, 3, (FamilyMember(S(5, [1, 2, 4]), 0), FamilyMember(bad, 0)))
        with pytest.raises(ValueError):
            triangle_check(fam)


def test_sign_matrix_examples():
    fam = contribution_family(3, 1, S(3, [1, 2, 3]))
    m = sign_matrix(fam)
    assert m == [[1]]  # one member against the single empty facet

    fam = contribution_family(7, 3, S(7, [1, 2, 4, 5, 7]))
    m = sign_matrix(fam)
    assert len(m) == 6 and all(len(row) == 10 for row in m)
    assert all(e in (-1, 0, 1) for row in m for e in row)
    assert all(sum(1 for e in row if e) == 3 for row in m)
    assert sympy_rank(m) == 6
    assert rank_full(m)


def test_rank_full_basics():
    assert rank_full([])
    assert rank_full([[1, 0, 0], [0, -1, 0], [1, 1, 1]])
    assert not rank_full([[1, 0, 1], [1, 0, 1]])
    assert not rank_full([[1, -1], [-1, 1]])
    with pytest.raises(ValueError):
        rank_full([[2, 0]])
    with pytest.raises(ValueError):
        rank_full([[1, 0], [1]])


def test_rank_full_matches_sympy_exhaustive_small():
    for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
        for flat in product((-1, 0, 1), repeat=rows * cols):
            m = [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]
            assert rank_full(m) == (sympy_rank(m) == rows)


@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_rank_full_matches_sympy_random(rows, cols, data):
    m = [
        [data.draw(st.sampled_from((-1, 0, 1))) for _ in range(cols)]
        for _ in range(rows)
    ]
    assert rank_full(m) == (sympy_rank(m) == rows)


@pytest.mark.parametrize("n", range(2, 8))
def test_triangle_implies_rank(n):
    # both checks computed independently; wherever the first passes the
    # second must as well
    for k in range(max(n // 2, 1), n):
        for elems in all_element_sets(n):
            if len(elems) < k:
                continue
            fam = contribution_family(n, k, S(n, elems))
            if triangle_check(fam).passed:
                assert rank_full(sign_matrix(fam))


@given(st.integers(0, 7), st.integers(1, 9), st.data())
def test_rank_full_mod2_matches_naive_oracle(rows, cols, data):
    m = [[data.draw(st.sampled_from((0, 1))) for _ in range(cols)] for _ in range(rows)]
    ints = [sum(e << j for j, e in enumerate(r)) for r in m]
    assert rank_full_mod2(ints) == (naive_rank_mod2(m) == rows)


def test_rank_full_mod2_basics():
    assert rank_full_mod2([])
    assert rank_full_mod2([0b011, 0b110, 0b100])
    assert not rank_full_mod2([0b011, 0b110, 0b101])
    assert not rank_full_mod2([0b10, 0])
    # any iterable of rows, read once
    assert rank_full_mod2(iter([0b011, 0b110, 0b100]))
    assert not rank_full_mod2(map(int, [0b011, 0b110, 0b101]))
    assert rank_full_mod2(row for row in ())


def _on_support(n, k, m, rows):
    """Rows over every (k-1)-subset of {1..n}, ascending, projected onto
    the (k-1)-subsets of m, ascending."""
    cols = [t for t in range(1 << n) if t.bit_count() == k - 1]
    inside = [j for j, t in enumerate(cols) if not t & ~m]
    return [sum((row >> j & 1) << i for i, j in enumerate(inside)) for row in rows]


@pytest.mark.parametrize("n", range(2, 10))
def test_rank_mod2_agrees_with_bareiss(n):
    # every upper-half support: the global rows have bits only at the
    # support's columns and, projected there, are its sign matrix mod 2; the
    # mod-2 verdict on the global rows equals the exact one
    for k in range(max(n // 2, 1), n):
        table = facet_row_table(n, k)
        for elems in all_element_sets(n):
            if len(elems) < k:
                continue
            M = S(n, elems)
            fam = contribution_family(n, k, M)
            matrix = sign_matrix(fam)
            rows = [table[mem.G.mask] for mem in fam.members]
            projected = _on_support(n, k, M.mask, rows)
            assert projected == [sum((e % 2) << j for j, e in enumerate(r)) for r in matrix]
            assert list(map(int.bit_count, projected)) == list(map(int.bit_count, rows))
            assert rank_full_mod2(rows) == rank_full(matrix)


def test_repeated_member_is_deficient_on_both_fields():
    fam = contribution_family(7, 3, S(7, [1, 2, 4, 5, 7]))
    doubled = ContributionFamily(fam.M, fam.k, fam.members + fam.members[:1])
    table = facet_row_table(7, 3)
    rows = [table[mem.G.mask] for mem in doubled.members]
    assert _on_support(7, 3, fam.M.mask, rows) == [
        sum((e % 2) << j for j, e in enumerate(r)) for r in sign_matrix(doubled)
    ]
    assert not rank_full_mod2(rows)
    assert not rank_full(sign_matrix(doubled))


@pytest.mark.parametrize("n", range(2, 11))
def test_even_families_equal_even_members(n):
    # one push of the script's rows lists, at every support, the members
    # that the per-support enumeration finds; the push lists them in the
    # order of the rows, (level, S), so both are sorted
    for k in range(max(n // 2, 1), n):
        table = k_subset_table(n, k)
        families = even_families(n, decomposition._script(n, k))
        assert len(families) == 1 << n
        for m in range(1 << n):
            assert sorted(families[m]) == [g for g, _ in even_members(table, m, k)]


# the 10 triangles of the 6-vertex real projective plane: every edge lies
# on two of them, so their boundary rows sum to 0 mod 2 and have rank 9
# there, while over Q they have full rank 10
_RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def _refuse(*args):
    raise AssertionError("verify rebuilt a family, its sign matrix or its exact rank")


def _with_families(monkeypatch, change):
    """Patch ``decomposition.even_families`` to list ``change(m, family)``
    at each support mask m, and make every per-support builder raise."""
    real = decomposition.even_families

    def patched(n, summands):
        return [change(m, family) for m, family in enumerate(real(n, summands))]

    monkeypatch.setattr(decomposition, "even_families", patched)
    for name in ("contribution_family", "sign_matrix", "rank_full"):
        monkeypatch.setattr(decomposition, name, _refuse)


def test_verify_stanley_decides_rank_mod2_on_the_families_given(monkeypatch):
    # the rank line reads the families it was given, over GF(2) alone: at
    # support {1..6} of (6,3), a member listed twice (beside the others or
    # in place of the second) and the projective plane's triangles each fail
    # it, though the real family, and the plane over Q, have full rank
    rp2 = [S(6, t).mask for t in _RP2]
    plane = ContributionFamily(S(6, range(1, 7)), 3, tuple(FamilyMember(S(6, t), 0) for t in _RP2))
    assert sympy_rank(sign_matrix(plane)) == 10 == comb(5, 2)
    assert naive_rank_mod2(sign_matrix(plane)) == 9
    for fault in (
        lambda family: family + family[:1],
        lambda family: family[:1] + family[:1] + family[2:],
        lambda family: rp2,
    ):
        with monkeypatch.context() as patch:
            _with_families(patch, lambda m, family: fault(family) if m == 0b111111 else family)
            rep = verify_stanley(6, 3, check_rank=True)
        assert not rep.passed
        assert rep.counts["rank_checked"] == 42 and rep.counts["rank_failures"] == 1
        assert rep.failures == ["support {1,2,3,4,5,6}: sign matrix rank deficient"]
        assert "exact rank: 42 sign matrices, 1 rank deficient" in rep.lines
        assert not any(line.startswith("conclusion:") for line in rep.lines)


def test_verify_stanley_rank_never_passes_on_no_rows(monkeypatch):
    # with every family empty no row is checked, and every support fails
    _with_families(monkeypatch, lambda m, family: [])
    rep = verify_stanley(7, 3, check_rank=True)
    assert not rep.passed
    assert rep.counts["rank_checked"] == rep.counts["rank_failures"] == 99
    assert "exact rank: 99 sign matrices, 99 rank deficient" in rep.lines
    assert "support {1,2,3}: sign matrix rank deficient" in rep.failures


def test_verify_hilbert_squarefree_and_box():
    d = build_decomposition(3, 1)
    rep = verify_hilbert(d, "squarefree")
    assert rep.passed and rep.counts["supports_checked"] == 7

    rep = verify_box(3, 1, 2)
    assert rep.passed and rep.counts["multidegrees_checked"] == 27

    # the box identity has one entry, verify_box
    for mode in ("box", "cubes"):
        with pytest.raises(ValueError, match="unknown mode"):
            verify_hilbert(d, mode)


@pytest.mark.parametrize("depth", [-1, 1.5, 2.0, True])
def test_box_depth_must_be_a_non_negative_integer(depth):
    # a float depth used to reach range() and raise TypeError there
    with pytest.raises(ValueError, match="box depth must be an integer >= 0"):
        verify_box(3, 1, depth)


def test_verify_stanley_rejects_the_box_depth_before_any_check(monkeypatch):
    # a bad depth fails before any check runs, not after all of them
    calls = []
    rows = decomposition._rows
    monkeypatch.setattr(decomposition, "_rows", lambda n, k: calls.append(n) or rows(n, k))
    for depth in (-1, 1.5, True):
        with pytest.raises(ValueError, match="box depth must be an integer >= 0"):
            verify_stanley(14, 7, check_rank=True, box_depth=depth)
    assert calls == []
    # the row check, the K-polynomial, rank's push and the box identity
    # each make the rows afresh
    assert verify_stanley(3, 1, box_depth=1).passed and calls == [3, 3, 3, 3]


def test_verify_hilbert_pointwise_examples():
    d = build_decomposition(3, 1)
    cases = [((1, 1, 0), 1), ((2, 1, 1), 1), ((0, 0, 0), 0)]
    for exps, expected in cases:
        m = Multidegree(3, exps).masks()
        assert sum(contributes(sm.S.mask, sm.Z.mask, *m) for sm in d.summands) == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_contributions_depend_only_on_support(n):
    for k in range(max(n // 2, 1), n):
        d = build_decomposition(n, k)
        for exps in product(range(3), repeat=n):
            support, repeated = Multidegree(n, exps).masks()
            got = [sm.S for sm in d.summands
                   if contributes(sm.S.mask, sm.Z.mask, support, repeated)]
            # the same at the squarefree degree on that support
            ref = [sm.S for sm in d.summands if contributes(sm.S.mask, sm.Z.mask, support, 0)]
            assert got == ref
            # every summand of every upper-half (n, k) agrees with exponent arithmetic
            naive = [
                sm.S for sm in d.summands
                if naive_contributes(sm.S.elements, sm.Z.elements, exps)
            ]
            assert got == naive


@pytest.mark.parametrize("n", range(1, 5))
def test_contributes_matches_naive_oracle(n):
    # every S and every Z of at least n - 1 variables; a Z missing an element
    # of S, which no summand has, makes exponents >= 2 on S matter
    sets = [frozenset(e) for e in all_element_sets(n)]
    degrees = [(exps, Multidegree(n, exps).masks()) for exps in product(range(3), repeat=n)]
    for S_set in sets:
        for Z in (z for z in sets if len(z) >= n - 1):
            s, z = S(n, S_set).mask, S(n, Z).mask
            for exps, m in degrees:
                assert contributes(s, z, *m) == naive_contributes(S_set, Z, exps), (S_set, Z, exps)


@pytest.mark.parametrize("n", range(1, 6))
def test_index_step_check_on_every_triple(n):
    # skip exactly on the inadmissible triples; on the others, the case,
    # indices and verdict of the first-principles enumeration
    expected = {}
    for tr in admissible_triples(n):
        status = "pass" if tr.index_H == tr.expected_H else "fail"
        expected[tr.M, tr.G, tr.H] = StepCheck(
            status, tr.case, tr.index_G, tr.index_H, tr.expected_H
        )
    sets = [frozenset(e) for e in all_element_sets(n)]
    admissible = 0
    for M, G, H in product(sets, repeat=3):
        got = index_step_check(S(n, M), S(n, G), S(n, H))
        if naive_admissible(n, M, G, H):
            admissible += 1
            assert got == expected[M, G, H]
        else:
            assert got == StepCheck("skip")
    assert admissible == len(expected)


def test_index_step_check_skip_example():
    M = S(7, [1, 2, 4, 5, 7])
    res = index_step_check(M, S(7, [1, 4, 7]), S(7, [1, 4, 5]))
    assert res.status == "skip"  # distinguished facet {4,7} not inside H


def test_index_step_check_passing_cases():
    res = index_step_check(S(3, [1, 2, 3]), S(3, [2]), S(3, [1]))
    assert res.status == "pass" and res.case == 1
    assert (res.index_G, res.index_H) == (1, 2)

    res = index_step_check(S(5, [2, 3, 5]), S(5, [3, 5]), S(5, [2, 5]))
    assert res.status == "pass" and res.case == 2
    assert res.index_H == 1


def test_index_step_first_counterexample():
    # the unrestricted claim genuinely fails here: every admissibility
    # condition holds, the restricted peak of G is negative, yet the index
    # of H is 0 because its first upward step leaves M
    res = index_step_check(S(3, [1, 3]), S(3, [3]), S(3, [1]))
    assert res.status == "fail"
    assert res.case == 2
    assert (res.index_G, res.index_H, res.expected_H) == (1, 0, 1)


def test_index_step_sweep_structure():
    # hand-derived n=3 census: seven admissible triples, the two with
    # 1 in H but not G fail, all others pass
    rep = index_step_sweep(3)
    assert rep.counts == {"triples_checked": 7, "case1": 3, "case2": 4, "failures": 2}
    assert not rep.passed

    for n in (2, 4, 6):
        rep = index_step_sweep(n)
        assert rep.passed and rep.counts["case2"] == 0

    for n in (5, 7):
        rep = index_step_sweep(n)
        assert not rep.passed
        assert rep.counts["case2"] > 0
        # every failure is a case-2 triple whose added element is 1
        assert all("case 2" in f for f in rep.failures)
        assert all("H={1," in f for f in rep.failures)

    # the failures, read back, are the failing triples of the first-principles
    # enumeration, in the sweep's order: support, size, G, added element
    record = re.compile(
        r"M=\{(.*)\} G=\{(.*)\} H=\{(.*)\}: case (\d), index (\d+) != "
        r"expected (\d+) \(index of G: (\d+)\)"
    )

    def mask(elements):
        return sum(1 << (e - 1) for e in elements)

    for n in range(1, 8):
        got = []
        for f in index_step_sweep(n).failures:
            m, g, h, *numbers = record.fullmatch(f).groups()
            sets = (frozenset(int(e) for e in part.split(",") if e) for part in (m, g, h))
            got.append((*sets, *map(int, numbers)))
        failing = [
            (tr.M, tr.G, tr.H, tr.case, tr.index_H, tr.expected_H, tr.index_G)
            for tr in admissible_triples(n)
            if tr.index_H != tr.expected_H
        ]
        failing.sort(key=lambda t: (mask(t[0]), len(t[1]), mask(t[1]), mask(t[2])))
        assert got == failing


def _same_report(got, want):
    for field in ("name", "passed", "counts", "failures", "lines"):
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("n", range(2, 12))
def test_index_step_sweep_equals_the_support_major_loop(n):
    # the grouped sweep against the loop over every support, size, G and x
    _same_report(index_step_sweep(n), support_major_index_sweep(n))


def test_index_step_sweep_guards_admissibility(monkeypatch):
    # the check that every (G, x) partner is admissible survives python -O
    monkeypatch.setattr(decomposition, "_admissible", lambda *args: False)
    with pytest.raises(RuntimeError, match="inadmissible partner"):
        index_step_sweep(5)


def test_index_step_sweep_reads_the_table_pivots(monkeypatch):
    # negative control: the sweep derives every partner H from the pivots of
    # the k-subset table, so one pivot moved down to a member with fewer
    # non-members below it must change its counts
    n = 7
    triples = list(admissible_triples(n))
    tallies = {
        "triples_checked": len(triples),
        "case1": sum(tr.case == 1 for tr in triples),
        "case2": sum(tr.case == 2 for tr in triples),
        "failures": sum(tr.index_H != tr.expected_H for tr in triples),
    }
    assert index_step_sweep(n).counts == tallies
    real = k_subset_table(n, 4)
    table = real._replace(pivot=bytearray(real.pivot))
    g = next(
        g for g in real.masks()
        if (((1 << real.pivot[g] >> 1) - 1) & ~g).bit_count() > (((g & -g) - 1) & ~g).bit_count()
    )
    table.pivot[g] = (g & -g).bit_length()
    monkeypatch.setattr(
        decomposition, "k_subset_table",
        lambda n_, k_: table if (n_, k_) == (n, 4) else k_subset_table(n_, k_),
    )
    assert index_step_sweep(n).counts != tallies
    # and the grouped sweep still equals the support-major loop on that table
    _same_report(index_step_sweep(n), support_major_index_sweep(n))


def test_verify_stanley_small():
    rep = verify_stanley(2, 1)
    assert rep.passed and rep.counts["min_Z"] == 1
    rep = verify_stanley(3, 1)
    assert rep.passed and rep.counts["min_Z"] == 2
    assert any("cited" in line for line in rep.lines)
    rep = verify_stanley(7, 3)
    assert rep.passed
    assert rep.counts["summands"] == 57
    assert rep.counts["supports"] == 99
    assert rep.counts["rank_checked"] == 99


def test_verify_stanley_default_checks_rank_at_n_10():
    rep = verify_stanley(10, 5)
    assert rep.passed
    assert rep.counts["rank_checked"] == rep.counts["supports"] == 638


def test_verify_stanley_rank_toggle():
    rep = verify_stanley(6, 3, check_rank=False)
    assert rep.passed and rep.counts["rank_checked"] == 0
    assert any("skipped" in line for line in rep.lines)
