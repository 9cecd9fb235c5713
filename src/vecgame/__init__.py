"""Zero-sum matrix games with vector payoffs.

Solves for minimal and maximal mixed strategies under set inclusion of
payoff polyhedra, classifies equilibrium pairs, and computes security
images with Pareto optimal security strategies.
"""

from .equilibria import Classification, EquilibriumRecord, classify_pair, classify_pairs
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
    MinimalityCertificate,
    StrategyFront,
    classify_grid,
    maximality_lp,
    minimality_lp,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "EquilibriumRecord",
    "FeasibilityResult",
    "GapReport",
    "InputError",
    "LPOutcome",
    "LinearProgram",
    "MinimalityCertificate",
    "MixedStrategy",
    "NumericalError",
    "OrientedPayoffPolyhedron",
    "PayoffVector",
    "Player",
    "SecurityImage",
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
    "maximality_lp",
    "minimality_lp",
    "pareto_max_points",
    "pareto_min_points",
    "poly_subset",
    "poss_strategies",
    "solve_lp",
    "verify_gap",
]
