"""The integer-mask engine against the independent oracles."""

import ast
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import koszuldepth
from koszuldepth.bits import (
    chain_index,
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
        assert tables.psi_tilde[mask] == _mask(facet)


def test_match_tables_ground_guard():
    for n in (0, -1, 99):
        with pytest.raises(ValueError):
            match_tables(n)


def test_sized_submasks_ascending():
    n = 7
    for mask in range(1 << n):
        positions = [e for e in range(n) if (mask >> e) & 1]
        for k in range(len(positions) + 1):
            expected = sorted(sum(1 << e for e in c) for c in combinations(positions, k))
            assert sized_submasks(mask, k) == expected


def test_lattice_path_called_only_for_drawing():
    # bits.scan is the one peak scan; a lattice_path call elsewhere would be
    # a second matching engine
    callers = set()
    for path in Path(koszuldepth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "lattice_path":
                    callers.add(path.name)
    assert "cli.py" in callers
    assert callers <= {"subsets.py", "cli.py"}


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
