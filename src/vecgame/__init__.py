"""Zero-sum matrix games with vector payoffs.

Solves for minimal and maximal mixed strategies under set inclusion of
payoff polyhedra, classifies equilibrium pairs, and computes security
images with Pareto optimal security strategies.
"""

from .equilibria import (
    Classification,
    EquilibriumRecord,
    SeedResult,
    classify_pair,
    classify_pairs,
    find_strong_seed,
    is_max_point_of_row_set,
    is_min_point_of_col_set,
    is_shapley_equilibrium,
    is_strong_shapley,
    vector_minimax_diagnostic,
)
from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    PayoffVector,
    Player,
    SimplexGrid,
    VectorPayoffGame,
    componentwise_security_point,
    enumerate_simplex_grid,
    expected_payoff,
)
from .lp import FeasibilityResult, LinearProgram, LPOutcome, check_feasibility, solve_lp
from .polyhedra import (
    OrientedPayoffPolyhedron,
    build_lower_set,
    build_upper_set,
    contains_point,
    pareto_max_points,
    pareto_min_points,
    poly_subset,
)
from .poss import (
    GapReport,
    SecurityImage,
    compute_security_image,
    poss_strategies,
    verify_gap,
)
from .solver import (
    ImprovementResult,
    MinimalityCertificate,
    ScalarizationWeight,
    StrategyFront,
    classify_grid,
    improve_to_maximal,
    improve_to_minimal,
    maximality_lp,
    minimality_lp,
    scalarized_game_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "EquilibriumRecord",
    "FeasibilityResult",
    "GapReport",
    "ImprovementResult",
    "InputError",
    "LPOutcome",
    "LinearProgram",
    "MinimalityCertificate",
    "MixedStrategy",
    "NumericalError",
    "OrientedPayoffPolyhedron",
    "PayoffVector",
    "Player",
    "ScalarizationWeight",
    "SecurityImage",
    "SeedResult",
    "SimplexGrid",
    "StrategyFront",
    "VectorPayoffGame",
    "build_lower_set",
    "build_upper_set",
    "check_feasibility",
    "classify_grid",
    "classify_pair",
    "classify_pairs",
    "componentwise_security_point",
    "compute_security_image",
    "contains_point",
    "enumerate_simplex_grid",
    "expected_payoff",
    "find_strong_seed",
    "improve_to_maximal",
    "improve_to_minimal",
    "is_max_point_of_row_set",
    "is_min_point_of_col_set",
    "is_shapley_equilibrium",
    "is_strong_shapley",
    "maximality_lp",
    "minimality_lp",
    "pareto_max_points",
    "pareto_min_points",
    "poly_subset",
    "poss_strategies",
    "scalarized_game_solve",
    "solve_lp",
    "vector_minimax_diagnostic",
    "verify_gap",
]
