"""The names `vecgame` exports."""

from __future__ import annotations

import vecgame


def test_every_exported_name_resolves_on_the_package():
    assert vecgame.__all__
    assert len(set(vecgame.__all__)) == len(vecgame.__all__)
    missing = [name for name in vecgame.__all__ if not hasattr(vecgame, name)]
    assert not missing


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from vecgame import *", namespace)
    assert set(vecgame.__all__) <= set(namespace)


# Every name a command's results can be reached through, and nothing else:
# a name added to or dropped from `__all__` is a deliberate edit here.
EXPORTED = (
    "Classification", "EquilibriumRecord", "FeasibilityResult", "GapReport", "InputError",
    "LPOutcome", "LinearProgram", "MinimalityCertificate", "MixedStrategy", "NumericalError",
    "OrientedPayoffPolyhedron", "PayoffVector", "Player", "SecurityImage", "SimplexGrid",
    "StrategyFront", "VectorPayoffGame", "build_lower_set", "build_upper_set",
    "check_feasibility", "classify_grid", "classify_pair", "classify_pairs",
    "componentwise_security_point", "compute_security_image", "contains_point",
    "enumerate_simplex_grid", "expected_payoff", "maximality_lp", "minimality_lp",
    "pareto_max_points", "pareto_min_points", "poly_subset", "poss_strategies", "solve_lp",
    "verify_gap",
)


def test_the_exported_names_are_exactly_the_library_surface():
    assert sorted(vecgame.__all__) == sorted(EXPORTED)
