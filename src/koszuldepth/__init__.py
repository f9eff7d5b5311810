"""Verified Stanley decompositions in the upper half of the Koszul complex.

For floor(n/2) <= k < n this package builds the explicit decomposition of
the k-th syzygy module of the residue field of K[X_1..X_n] whose depth is
n-1, and verifies, exhaustively at desk scale, every combinatorial fact it
rests on: the up/down matching of the Boolean lattice, the index function,
the graded dimension counts, the squashed-order triangle condition, and
exact linear independence of the chosen generators.

The package imports none of its modules; import the one you need, e.g.
``koszuldepth.decomposition``.
"""

__version__ = "0.1.0"
