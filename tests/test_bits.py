"""The integer-mask engine against the subset-level reference maps."""

from itertools import combinations

import pytest

from koszuldepth import matching
from koszuldepth.bits import match_tables, sized_submasks
from koszuldepth.subsets import Subset


def _mask_or_none(result):
    return result.value.mask if result.defined else None


@pytest.mark.parametrize("n", range(1, 13))
def test_match_tables_equal_reference_maps(n):
    tables = match_tables(n)
    for mask in range(1 << n):
        G = Subset.from_mask(n, mask)
        assert tables.psi[mask] == _mask_or_none(matching.psi(G))
        assert tables.phi[mask] == _mask_or_none(matching.phi(G))
        expected = matching.psi_tilde(G).value.mask if mask else None
        assert tables.psi_tilde[mask] == expected


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
