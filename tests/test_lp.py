"""Dense simplex solver: statuses, the feasibility probe, and duality."""

from __future__ import annotations

import numpy as np
import pytest

from vecgame.errors import InputError
from vecgame.game import row_generator_matrix, row_strategy
from vecgame.lp import (
    FeasibilityResult,
    LinearProgram,
    LPOutcome,
    check_feasibility,
    solve_lp,
)
from vecgame.polyhedra import build_lower_set, exposing_normal_at_vertex
from vecgame.solver import minimality_lp

from properties import check_lp_duality, relabeled_game


def test_bounded_maximum():
    out = solve_lp(
        LinearProgram(
            objective=[1.0], lhs=[[1.0]], relations=("<=",), rhs=[3.0], sense="max"
        )
    )
    assert out.status == "optimal"
    assert abs(out.objective_value - 3.0) <= 1e-9
    assert abs(out.solution[0] - 3.0) <= 1e-9


def test_unbounded_maximum():
    out = solve_lp(
        LinearProgram(
            objective=[1.0], lhs=[[1.0]], relations=(">=",), rhs=[0.0], sense="max"
        )
    )
    assert out.status == "unbounded"
    assert out.objective_value is None


def test_infeasible_system():
    out = solve_lp(
        LinearProgram(
            objective=[1.0], lhs=[[1.0]], relations=("<=",), rhs=[-1.0], sense="min"
        )
    )
    assert out.status == "infeasible"


def test_iteration_budget_is_reported_as_its_own_status():
    lp = LinearProgram(
        objective=[1.0], lhs=[[1.0]], relations=("<=",), rhs=[3.0], sense="max"
    )
    out = solve_lp(lp, max_iter=0)
    assert out.status == "iteration_limit"
    assert out.status != "infeasible"


# The row strategy (5, 8, 1, 2)/16 of the benchmark's 4x4x3 game r1000, as
# three relabelings of the game list it.  Under Dantzig's rule phase 1 of its
# improvement LP cycles with period 8, and rounding raises the objective a
# little each cycle, so a switch on a stalled objective never fired.
CYCLING_POINTS = [(4, (1, 5, 2, 8)), (18, (1, 5, 2, 8)), (23, (5, 8, 2, 1))]


def test_a_repeated_basis_switches_to_blands_rule():
    verdicts = set()
    for variant, counts in CYCLING_POINTS:
        game = relabeled_game(1000, (4, 4, 3), variant)
        verdicts.add(minimality_lp(game, row_strategy(*(c / 16 for c in counts))).is_minimal)
    assert verdicts == {True}


def test_scalar_game_value_by_direct_lp(scalar_game):
    # min u  s.t.  p1*g1j + p2*g2j <= u for both columns, p on the simplex
    matrix = scalar_game.entries[:, :, 0]
    lp = LinearProgram(
        objective=[0.0, 0.0, 1.0],
        lhs=[
            [matrix[0, 0], matrix[1, 0], -1.0],
            [matrix[0, 1], matrix[1, 1], -1.0],
            [1.0, 1.0, 0.0],
        ],
        relations=("<=", "<=", "="),
        rhs=[0.0, 0.0, 1.0],
        sense="min",
        bounds=((0.0, None), (0.0, None), (None, None)),
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert abs(out.objective_value - 2.0) <= 1e-9
    assert np.allclose(out.solution[:2], [1 / 3, 2 / 3], atol=1e-9)


def test_optimal_solution_is_primal_feasible():
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        lhs=[[1.0, 1.0], [1.0, 3.0]],
        relations=("<=", "<="),
        rhs=[4.0, 6.0],
        sense="min",
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert np.all(lp.lhs @ out.solution <= lp.rhs + 1e-9)
    assert np.all(out.solution >= -1e-9)


def test_free_and_upper_bounded_variables():
    # min x + y  s.t.  x + y >= -3,  x >= -5,  y free
    out = solve_lp(
        LinearProgram(
            objective=[1.0, 1.0],
            lhs=[[1.0, 1.0]],
            relations=(">=",),
            rhs=[-3.0],
            sense="min",
            bounds=((-5.0, None), (None, None)),
        )
    )
    assert out.status == "optimal"
    assert abs(out.objective_value - (-3.0)) <= 1e-9
    # an upper bound is rejected: it belongs in a constraint row
    for bound in ((-5.0, 5.0), (None, 5.0)):
        with pytest.raises(InputError):
            LinearProgram(
                objective=[1.0, 1.0],
                lhs=[[1.0, 1.0]],
                relations=(">=",),
                rhs=[-3.0],
                bounds=(bound, (None, None)),
            )


def test_malformed_lp_is_rejected():
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], lhs=[[1.0, 2.0]], relations=("<=",), rhs=[1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], lhs=[[1.0]], relations=("<",), rhs=[1.0])
    with pytest.raises(InputError):
        LinearProgram(
            objective=[1.0], lhs=[[1.0]], relations=("<=",), rhs=[1.0], sense="maximize"
        )
    with pytest.raises(InputError):
        LinearProgram(
            objective=[np.inf], lhs=[[1.0]], relations=("<=",), rhs=[1.0]
        )


def test_check_feasibility_trivial_cases():
    infeasible = check_feasibility(
        LinearProgram(
            objective=[0.0],
            lhs=[[1.0], [1.0]],
            relations=(">=", "<="),
            rhs=[1.0, 0.0],
            bounds=((None, None),),
        )
    )
    assert isinstance(infeasible, FeasibilityResult)
    assert not infeasible.feasible and infeasible.witness is None

    feasible = check_feasibility(
        LinearProgram(
            objective=[0.0],
            lhs=[[1.0], [1.0]],
            relations=(">=", "<="),
            rhs=[0.0, 1.0],
            bounds=((None, None),),
        )
    )
    assert feasible.feasible
    assert -1e-9 <= feasible.witness[0] <= 1.0 + 1e-9


def test_check_feasibility_ignores_the_objective():
    # An unbounded objective must not disturb the feasibility answer.
    lp = LinearProgram(
        objective=[-1.0], lhs=[[1.0]], relations=(">=",), rhs=[2.0], sense="min"
    )
    assert check_feasibility(lp).feasible


def _improvement_system(game, p, margin):
    """Containment plus a vertex push for V_I(p), as a plain feasibility LP.

    Feasible iff some mixture keeps all columns inside the payoff set
    while clearing the vertex's exposing hyperplane by `margin`.
    """
    poly = build_lower_set(row_generator_matrix(game, p))
    assert len(poly.vertices) == 1  # both tested strategies have one vertex
    cut = exposing_normal_at_vertex(poly, poly.vertices[0])
    m = game.rows
    rows, relations, rhs = [], [], []
    for h in poly.halfspaces:
        scal = game.entries @ np.array(h.normal)  # (m, n)
        for j in range(game.cols):
            rows.append(scal[:, j])
            relations.append("<=")
            rhs.append(h.offset)
    scal = game.entries @ np.array(cut.normal)
    for j in range(game.cols):
        rows.append(scal[:, j])
        relations.append("<=")
        rhs.append(cut.offset - margin)
    rows.append(np.ones(m))
    relations.append("=")
    rhs.append(1.0)
    return LinearProgram(
        objective=np.zeros(m),
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs),
    )


def test_improvement_system_feasibility_tracks_minimality(three_by_three):
    # (1,0,0) is strictly improvable; (0,1,0) admits no improvement at all.
    feasible = check_feasibility(
        _improvement_system(three_by_three, row_strategy(1, 0, 0), margin=1e-3)
    )
    assert feasible.feasible
    w = feasible.witness
    assert abs(w.sum() - 1.0) <= 1e-9 and np.all(w >= -1e-9)

    stuck = check_feasibility(
        _improvement_system(three_by_three, row_strategy(0, 1, 0), margin=1e-3)
    )
    assert not stuck.feasible


def test_duality_gap_on_random_instances():
    check_lp_duality(np.random.default_rng(20240817), count=12)


def test_identical_inputs_give_identical_outcomes():
    lp = LinearProgram(
        objective=[2.0, 1.0, 3.0],
        lhs=[[1.0, 1.0, 1.0], [2.0, 0.5, 1.0]],
        relations=(">=", ">="),
        rhs=[2.0, 3.0],
        sense="min",
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status == "optimal"
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.solution, second.solution)
    assert first.iterations == second.iterations
    assert isinstance(first, LPOutcome)
