"""Zero-sum matrix games with vector payoffs.

Solves for minimal and maximal mixed strategies under set inclusion of
payoff polyhedra, classifies equilibrium pairs, and computes security
images with Pareto optimal security strategies.
"""

import os

# No array here is large enough for BLAS threads to pay, and starting
# OpenBLAS's thread pool costs each process about 0.08 s of CPU.  This must
# run before the first submodule loads NumPy; a value the caller set wins,
# and where NumPy is already loaded it changes nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .equilibria import Classification, EquilibriumRecord, classify_pair, classify_pairs
from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    Player,
    SimplexGrid,
    VectorPayoffGame,
    enumerate_simplex_grid,
)
from .lp import FeasibilityResult, LinearProgram, LPOutcome, check_feasibility, solve_lp
from .polyhedra import (
    OrientedPayoffPolyhedron,
    build_lower_set,
    build_upper_set,
    pareto_max_points,
    pareto_min_points,
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
    "compute_security_image",
    "enumerate_simplex_grid",
    "maximality_lp",
    "minimality_lp",
    "pareto_max_points",
    "pareto_min_points",
    "poss_strategies",
    "solve_lp",
    "verify_gap",
]
