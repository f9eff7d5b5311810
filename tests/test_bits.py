"""The integer-mask engine against the independent oracles."""

import ast
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import koszuldepth
from koszuldepth.bits import (
    chain_index,
    chain_insertions,
    k_subset_table,
    match_tables,
    scan,
    sized_submasks,
    submasks,
)

from helpers import (
    all_element_sets,
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
    for mask, elems in enumerate(all_element_sets(n)):
        _, _, first, last = naive_path(n, elems)
        facet = naive_facet(n, elems) if elems else None
        pivot = min(elems - facet) if elems else 0
        assert scan(n, mask) == (first, last, pivot)
        assert tables.psi[mask] == _mask(naive_psi(n, elems))
        assert tables.phi[mask] == _mask(naive_phi(n, elems))


def test_match_tables_ground_guard():
    for n in (0, -1, 99):
        with pytest.raises(ValueError):
            match_tables(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_chain_insertions_equal_the_phi_walk(n):
    # the closed form against the chain itself: walk phi to its end
    phi = match_tables(n).phi
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
    # bits.scan is the one peak scan, and k_subset_table the one source of
    # upward indices; a lattice_path call elsewhere, or any call of the
    # per-pair index walks, would be a second matching engine
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
    # verify runs on the chains' closed form alone: only the matching-law
    # sweeps build the tables over all masks, and only the k-subset table
    # reads the closed form
    callers = {"match_tables": set(), "chain_insertions": set()}
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in callers:
                    callers[name].add(path.name)
    assert callers == {"match_tables": {"checks.py"}, "chain_insertions": {"bits.py"}}


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
        assert len(table) == comb(n, k)
        for g, (added, facet, probe) in table.items():
            G = _elements(g)
            assert facet == _mask(naive_facet(n, G))
            pivot = (g ^ facet).bit_length()
            assert probe == ((1 << (pivot - 1)) - 1) & ~g
            for extra in submasks(full & ~g):
                M = _elements(g | extra)
                assert chain_index(added, g | extra) == naive_index_up(n, G, M), (G, M)
