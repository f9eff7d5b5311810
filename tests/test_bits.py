"""The integer-mask engine against the independent oracles."""

import ast
import random
from array import array
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import koszuldepth
from koszuldepth import bits
from koszuldepth.bits import (
    chain_index,
    k_subset_table,
    match_tables,
    phi_index,
    scan,
    sized_submasks,
    submasks,
)

from helpers import (
    all_element_sets,
    none_form,
    chain_insertions,
    k_subset_entry,
    k_subset_table_per_subset,
    naive_facet,
    naive_index_up,
    naive_path,
    naive_phi,
    naive_psi,
)


def _mask(elements):
    return None if elements is None else sum(1 << (e - 1) for e in elements)


@pytest.mark.parametrize("n", range(1, 13))
def test_match_tables_equal_reference_maps(n):
    tables = match_tables(n)
    psi, phi = none_form(tables.psi), none_form(tables.phi)
    for mask, elems in enumerate(all_element_sets(n)):
        _, _, first, last = naive_path(n, elems)
        facet = naive_facet(n, elems) if elems else None
        pivot = min(elems - facet) if elems else 0
        assert scan(n, mask) == (first, last, pivot)
        assert psi[mask] == _mask(naive_psi(n, elems))
        assert phi[mask] == _mask(naive_phi(n, elems))


def _scan_tables(n):
    """psi and phi of every mask by one ``scan`` each: the per-mask
    reference for ``match_tables``."""
    psi, phi = [], []
    for mask in range(1 << n):
        nu, mu, _ = scan(n, mask)
        psi.append(mask ^ (1 << (nu - 1)) if nu else None)
        phi.append(mask | (1 << mu) if mu != n else None)
    return psi, phi


@pytest.mark.parametrize("n", range(1, 17))
def test_match_tables_equal_the_scan_per_mask(n):
    # the all-prefixes sweep finds the same peaks as the scan of each mask,
    # in int arrays of 2^n entries with -1 for undefined
    tables = match_tables(n)
    for table in (tables.psi, tables.phi):
        assert isinstance(table, array) and table.typecode == "i" and len(table) == 1 << n
    assert (none_form(tables.psi), none_form(tables.phi)) == _scan_tables(n)


def test_match_tables_ground_guard():
    for n in (0, -1, 99):
        with pytest.raises(ValueError):
            match_tables(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_chain_insertions_equal_the_phi_walk(n):
    # the closed form against the chain itself: walk phi to its end
    phi = none_form(match_tables(n).phi)
    for g in range(1 << n):
        top = g
        while phi[top] is not None:
            top = phi[top]
        assert chain_insertions(n, g) == top ^ g, g


def test_sized_submasks_ascending():
    n = 7
    for mask in range(1 << n):
        positions = [e for e in range(n) if (mask >> e) & 1]
        for k in range(len(positions) + 1):
            expected = sorted(sum(1 << e for e in c) for c in combinations(positions, k))
            assert sized_submasks(mask, k) == expected


def test_lattice_path_called_only_for_drawing():
    # bits.scan finds the peaks of one mask and match_tables those of all
    # masks at once, and k_subset_table is the one source of upward indices;
    # a lattice_path call elsewhere, or any call of the per-pair index walks,
    # would be a second matching engine
    callers = set()
    walks = []
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "lattice_path":
                    callers.add(path.name)
                elif name in ("phi_index", "psi_index_table"):
                    walks.append((path.name, node.lineno, name))
    assert "cli.py" in callers
    assert callers <= {"subsets.py", "cli.py"}
    assert walks == []


def test_one_chain_engine():
    # verify runs on the chain table alone: only the matching-law sweeps
    # build the tables over all masks, and only the single-subset maps scan
    # one path; the table reads every chain and facet in its own pass
    callers = {"match_tables": set(), "scan": set()}
    defined = set()
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in callers:
                    callers[name].add(path.name)
    assert callers == {"match_tables": {"checks.py"}, "scan": {"matching.py"}}
    assert "chain_insertions" not in defined


@pytest.mark.parametrize("n", range(1, 17))
def test_k_subset_table_equals_the_per_subset_reference(n):
    # the suffix pass against one chain_insertions and one pivot scan per
    # k-subset, at every k check-lemma reads: every field at every mask,
    # 0 off the k-subsets
    for k in range(1, n + 1):
        got = k_subset_table(n, k)
        assert (got.added.typecode, got.odd.typecode) == ("I", "I")
        assert got == k_subset_table_per_subset(n, k), k
        assert len(got.pivot) == 1 << n


@pytest.mark.parametrize("shard_bits", range(4))
def test_k_subset_table_in_shards(shard_bits):
    # n = 12 fills its table in one shard; forced to 2, 4 and 8 shards, one
    # per pattern of the top positions, it fills the same arrays
    n = 12
    for k in range(1, n + 1):
        assert bits._table_in_shards(n, k, shard_bits) == k_subset_table_per_subset(n, k), k


@pytest.mark.parametrize("n", [18, 19, 20])
def test_k_subset_table_sampled_at_large_n(n):
    # a seeded sample of entries, at k = n/2 and one more k; the entries
    # are the k-subsets, ascending
    rng = random.Random(n)
    for k in (n // 2, rng.randrange(1, n + 1)):
        table = k_subset_table(n, k)
        keys = list(table.masks())
        assert len(keys) == comb(n, k)
        assert keys == sorted(keys)
        assert all(g.bit_count() == k for g in keys)
        for g in rng.sample(keys, min(len(keys), 300)):
            assert (table.added[g], table.pivot[g], table.odd[g]) == k_subset_entry(n, g), (k, g)


@pytest.mark.parametrize("n", range(15, 21))
def test_chain_lemma_sampled_past_n_14(n):
    # past the exhaustive walk above, a seeded sample of one upper-half
    # table: each chain against phi walked by scan to its end, and each
    # facet, g without the pivot, against the definition
    rng = random.Random(n)
    table = k_subset_table(n, rng.randrange(n // 2, n))
    keys = list(table.masks())
    for g in rng.sample(keys, min(len(keys), 200)):
        top = g
        while (mu := scan(n, top)[1]) != n:
            top |= 1 << mu
        assert table.added[g] == top ^ g, g
        assert g ^ 1 << table.pivot[g] >> 1 == _mask(naive_facet(n, _elements(g))), g


def _stop_field_readers(tree):
    """Per function of a module, whether it reads the stop field of a chain
    table (its ``odd`` attribute or index 2, or the third name of an unpack
    of the table) and whether it calls ``k_subset_table``.

    A table is a ``k_subset_table`` call, a parameter named ``table`` or a
    name bound to one.
    """
    def called(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )

    def named(target, i, size):
        # an unpack into `size` names whose i-th is bound, not "_"
        return (
            isinstance(target, ast.Tuple) and len(target.elts) == size
            and isinstance(target.elts[i], ast.Name) and target.elts[i].id != "_"
        )

    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        tables = {arg.arg for arg in fn.args.args if arg.arg == "table"}

        def is_table(node):
            return isinstance(node, ast.Name) and node.id in tables or called(node, "k_subset_table")

        # bindings in any order: repeat until no new name is bound
        for _ in range(3):
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 and is_table(node.value):
                    if isinstance(node.targets[0], ast.Name):
                        tables.add(node.targets[0].id)
        reads = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "odd":
                reads |= is_table(node.value)
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                reads |= is_table(node.value) and node.slice.value == 2
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                reads |= is_table(node.value) and named(node.targets[0], 2, 3)
        calls = any(called(node, "k_subset_table") for node in ast.walk(fn))
        yield fn.name, reads, calls


@pytest.mark.parametrize("source, reads", [
    ("def f(table, g):\n    return table.odd[g]", True),
    ("def f(table, g):\n    return table.pivot[g]", False),
    ("def f(table, g):\n    return table[2][g]", True),
    ("def f(n, k):\n    for g in k_subset_table(n, k).masks():\n        pass", False),
    ("def f(n, k):\n    t = k_subset_table(n, k)\n    a, p, odd = t", True),
    ("def f(n, k):\n    t = k_subset_table(n, k)\n    a, p, _ = t", False),
    ("def f(n, k):\n    t = k_subset_table(n, k)\n    return [t.odd[g] for g in t.masks()]", True),
    ("def f(script):\n    for s, removed, g in script:\n        pass", False),
    ("def f(rows):\n    s, r, g = rows[0]", False),
])
def test_stop_field_readers_sees_each_form(source, reads):
    # the guard below finds a read of the stops in every form the package
    # writes one, and takes no other three-name unpack for one
    assert [r for _, r, _ in _stop_field_readers(ast.parse(source))] == [reads]


def test_one_family_producer():
    # the families have one derivation from the chains, the rows: only
    # the rows, the row check against its chains and the triangle test by
    # pairs read the chain table's stops, and the rank check's push reads
    # the rows, neither the chain table nor its stops
    readers, callers = set(), set()
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for name, reads, calls in _stop_field_readers(ast.parse(path.read_text())):
            if reads:
                readers.add((path.name, name))
            if calls:
                callers.add((path.name, name))
    assert readers == {
        ("decomposition.py", "_rows"),
        ("maskchecks.py", "even_stop_row"),
        ("maskchecks.py", "triangle_pairs"),
    }
    assert not {c for c in readers | callers if c[1] == "even_families"}


def test_subset_only_parses_and_prints():
    # every check runs on masks: outside the subsets module, a Subset is
    # read through its mask, its size or its sorted elements, never the set
    readers = set()
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "elements":
                readers.add(path.name)
    assert readers == {"subsets.py"}


def _elements(mask):
    return {e + 1 for e in range(mask.bit_length()) if (mask >> e) & 1}


@pytest.mark.parametrize("n", range(2, 11))
def test_chain_index_equals_naive_index(n):
    # every upper-half k, every k-subset g and every support M containing g
    full = (1 << n) - 1
    for k in range(max(n // 2, 1), n):
        table = k_subset_table(n, k)
        masks = list(table.masks())
        assert len(masks) == comb(n, k)
        for g in masks:
            added = table.added[g]
            G = _elements(g)
            assert g ^ 1 << table.pivot[g] >> 1 == _mask(naive_facet(n, G))
            for extra in submasks(full & ~g):
                M = _elements(g | extra)
                assert chain_index(added, g | extra) == naive_index_up(n, G, M), (G, M)


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_index_equals_chain_index(n):
    # the upward walk on the tables over all masks against the chain table,
    # at every G inside M, the empty G included (its table reads only added)
    full = (1 << n) - 1
    tables = match_tables(n)
    for k in range(n + 1):
        table = k_subset_table(n, k)
        for g in sized_submasks(full, k):
            for extra in submasks(full & ~g):
                assert phi_index(tables, g, g | extra) == chain_index(table.added[g], g | extra)
