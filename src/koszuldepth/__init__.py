"""Verified Stanley decompositions in the upper half of the Koszul complex.

For floor(n/2) <= k < n this package builds the explicit decomposition of
the k-th syzygy module of the residue field of K[X_1..X_n] whose depth is
n-1, and verifies, exhaustively at desk scale, every combinatorial fact it
rests on: the up/down matching of the Boolean lattice, the index function,
the graded dimension counts, the squashed-order triangle condition, and
exact linear independence of the chosen generators.
"""

from .checks import check_greedy_agreement, check_index_equivalence, check_inverse_law
from .decomposition import (
    ContributionFamily,
    Decomposition,
    FamilyMember,
    StepCheck,
    Summand,
    TriangleReport,
    build_decomposition,
    contributes,
    contribution_family,
    decomposition_to_dict,
    distinguished_subset,
    index_step_check,
    index_step_sweep,
    rank_full,
    require_upper_half,
    sign_matrix,
    triangle_check,
    verify_hilbert,
    verify_stanley,
)
from .koszul import (
    ChainTerm,
    KoszulChain,
    Multidegree,
    SignEntry,
    boundary,
    boundary_sign,
    boundary_squared,
    dim_oracle,
    generator_m,
    indicator,
    term_multidegree,
)
from .matching import MatchResult, greedy_lex_matching, index, phi, psi, psi_tilde
from .report import Report
from .subsets import (
    MAX_N,
    LatticePath,
    Subset,
    format_subset,
    lattice_path,
    parse_subset,
    squashed_less,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_N",
    "ChainTerm",
    "ContributionFamily",
    "Decomposition",
    "FamilyMember",
    "KoszulChain",
    "LatticePath",
    "MatchResult",
    "Multidegree",
    "Report",
    "SignEntry",
    "StepCheck",
    "Subset",
    "Summand",
    "TriangleReport",
    "boundary",
    "boundary_sign",
    "boundary_squared",
    "build_decomposition",
    "check_greedy_agreement",
    "check_index_equivalence",
    "check_inverse_law",
    "contributes",
    "contribution_family",
    "decomposition_to_dict",
    "dim_oracle",
    "distinguished_subset",
    "format_subset",
    "generator_m",
    "greedy_lex_matching",
    "index",
    "index_step_check",
    "index_step_sweep",
    "indicator",
    "lattice_path",
    "parse_subset",
    "phi",
    "psi",
    "psi_tilde",
    "rank_full",
    "require_upper_half",
    "sign_matrix",
    "squashed_less",
    "term_multidegree",
    "triangle_check",
    "verify_hilbert",
    "verify_stanley",
]
