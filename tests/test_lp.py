"""Dense simplex solver: statuses, the slack-basis start, the feasibility
probe, and duality."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from vecgame.errors import InputError
from vecgame.game import (
    MixedStrategy,
    Player,
    VectorPayoffGame,
    col_strategy,
    row_generator_matrix,
    row_strategy,
)
from vecgame import lp as lp_module
from vecgame.lp import (
    TIE_AFTER,
    FeasibilityResult,
    LinearProgram,
    LPOutcome,
    check_feasibility,
    solve_batch,
    solve_lp,
)
from vecgame.polyhedra import build_lower_set
from vecgame import poss, solver
from vecgame.poss import _support_value, _verify_vertex, compute_security_image
from vecgame.solver import DECISION_TOL, maximality_lp, minimality_lp

import full_tableau
from properties import (
    benson_cut_by_highs,
    check_lp_duality,
    exposing_normals,
    relabeled_game,
    stack_lps,
    unstack_lp,
)


def test_bounded_maximum():
    out = solve_lp(LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[3.0], sense="max"))
    assert out.status == "optimal"
    assert abs(out.objective_value - 3.0) <= 1e-9
    assert abs(out.solution[0] - 3.0) <= 1e-9


def test_unbounded_maximum():
    # max x  s.t.  -x <= 0
    out = solve_lp(LinearProgram(objective=[1.0], lhs=[[-1.0]], rhs=[0.0], sense="max"))
    assert out.status == "unbounded"
    assert out.objective_value is None


def test_iteration_budget_is_reported_as_its_own_status():
    lp = LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[3.0], sense="max")
    out = solve_lp(lp, max_iter=0)
    assert out.status == "iteration_limit"
    assert out.objective_value is None


def test_a_negative_rhs_is_rejected():
    # the slack basis of x - y <= -1 is not feasible; check_feasibility takes it
    lp = LinearProgram(objective=[1.0, 0.0], lhs=[[1.0, -1.0], [1.0, 1.0]], rhs=[-1.0, 4.0])
    with pytest.raises(InputError, match="rhs >= 0"):
        solve_lp(lp)
    with pytest.raises(InputError, match="rhs >= 0"):
        solve_batch(stack_lps([lp, dataclasses.replace(lp, rhs=[1.0, 4.0])]))
    assert check_feasibility(lp).feasible


def test_a_lower_bound_other_than_zero_is_rejected():
    with pytest.raises(InputError, match=r"\(0, None\) or \(None, None\)"):
        LinearProgram(objective=[1.0, 1.0], lhs=np.eye(2), rhs=[1.0, 1.0],
                      bounds=((2.0, None), (0.0, None)))


def test_relations_are_not_an_lp_field():
    # every row is `<=`
    with pytest.raises(TypeError, match="relations"):
        LinearProgram(objective=[1.0], lhs=[[1.0]], relations=("<=",), rhs=[1.0])


def _both_loops(lp: LinearProgram) -> list[LPOutcome]:
    """`lp` solved alone (the scalar loop) and twice in a stack (lockstep)."""
    stack = LinearProgram(objective=lp.objective, lhs=[lp.lhs, lp.lhs], rhs=[lp.rhs, lp.rhs],
                          sense=lp.sense)
    return [solve_lp(lp), *solve_batch(stack)]


def test_a_ratio_tie_must_leave_the_row_of_the_least_ratio_feasible():
    # Both rows lie in the ratio window of 1e-9 (1 + 1), and row 0 has the
    # lower basis index; leaving on it would put row 1 at 6000 - 6000 (1 + 5e-10)
    lp = LinearProgram(objective=[1.0], lhs=[[1.0], [6000.0]], rhs=[1.0 + 5e-10, 6000.0],
                       sense="max")
    for out in _both_loops(lp):
        assert out.status == "optimal" and out.solution.tolist() == [1.0]


def test_the_row_of_the_least_ratio_ties_when_its_step_rounds_past_tie_after():
    b, a = 864408.5098109989, 3.1211920696638242
    assert b - (b / a) * a > TIE_AFTER
    lp = LinearProgram(objective=[1.0], lhs=[[a]], rhs=[b], sense="max")
    for out in _both_loops(lp):
        assert out.status == "optimal" and out.solution.tolist() == [b / a]


# Beale's example ("Cycling in the dual simplex algorithm", Naval Research
# Logistics Quarterly 2, 1955): from the slack basis, Dantzig's rule with
# ties to the lowest index returns to that basis after six pivots.
def _beale(cap=1.0):
    """max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4  s.t.  1/4 x1 - 8 x2 - x3 + 9 x4 <= 0,
    1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0  and  x3 <= cap; its optimum is
    5/4 cap at x = (cap, 0, cap, 0)."""
    return LinearProgram(
        objective=[0.75, -20.0, 0.5, -6.0],
        lhs=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        rhs=[0.0, 0.0, cap],
        sense="max",
    )


def test_a_repeated_basis_switches_to_blands_rule(monkeypatch):
    lp = _beale()
    m = lp.num_constraints
    bases = [tuple(range(4, 4 + m))]  # the slack basis
    pivot = lp_module._pivot

    def spy(T, labels, row, slot):
        pivot(T, labels, row, slot)
        bases.append(tuple(labels[:m]))

    monkeypatch.setattr(lp_module, "_pivot", spy)
    out = solve_lp(lp)
    # pivot 6 returns to the slack basis, and Bland's rule takes over there
    repeats = [i for i, basis in enumerate(bases) if basis in bases[:i]]
    assert repeats[0] == 6 and bases[6] == bases[0]
    assert out.status == "optimal" and out.iterations == 12 == len(bases) - 1
    assert out.objective_value == pytest.approx(1.25, abs=1e-12)
    assert np.allclose(out.solution, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


# The row strategy (5, 8, 1, 2)/16 of the benchmark's 4x4x3 game r1000, as
# three relabelings of the game list it.  Its improvement LP in the variables
# (p, eps) cycled in phase 1 under Dantzig's rule, with period 8; the
# package's LP in the shift d = p - pbar starts at its slack basis.
CYCLING_POINTS = [(4, (1, 5, 2, 8)), (18, (1, 5, 2, 8)), (23, (5, 8, 2, 1))]


def test_the_points_whose_p_eps_lp_cycled_are_minimal():
    for variant, counts in CYCLING_POINTS:
        game = relabeled_game(1000, (4, 4, 3), variant)
        p = row_strategy(*(c / 16 for c in counts))
        assert minimality_lp(game, p).is_minimal
        _assert_improvement_value_agrees_with_highs(game, p)


def test_scalar_game_value_by_the_mixed_strategy_lp(scalar_game):
    # min u  s.t.  p1*g1j + p2*g2j <= u for both columns, p on the simplex
    matrix = scalar_game.entries[:, :, 0]
    value, p, _ = poss._mixed_strategy_lp(matrix, np.zeros(2), np.ones(1), "scalar game")
    assert abs(value - 2.0) <= 1e-9
    assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-9)


def test_optimal_solution_is_primal_feasible():
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        lhs=[[1.0, 1.0], [1.0, 3.0]],
        rhs=[4.0, 6.0],
        sense="min",
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert np.all(lp.lhs @ out.solution <= lp.rhs + 1e-9)
    assert np.all(out.solution >= -1e-9)


def test_free_and_upper_bounded_variables():
    # min x + y  s.t.  -x - y <= 3,  x >= 0,  y free
    out = solve_lp(
        LinearProgram(
            objective=[1.0, 1.0],
            lhs=[[-1.0, -1.0]],
            rhs=[3.0],
            sense="min",
            bounds=((0.0, None), (None, None)),
        )
    )
    assert out.status == "optimal"
    assert abs(out.objective_value - (-3.0)) <= 1e-9
    # an upper bound is rejected: it belongs in a constraint row
    for bound in ((0.0, 5.0), (None, 5.0)):
        with pytest.raises(InputError):
            LinearProgram(
                objective=[1.0, 1.0],
                lhs=[[-1.0, -1.0]],
                rhs=[3.0],
                bounds=(bound, (None, None)),
            )


def test_malformed_lp_is_rejected():
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], lhs=[[1.0, 2.0]], rhs=[1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0, 2.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], lhs=[[1.0]], rhs=[1.0], sense="maximize")
    with pytest.raises(InputError):
        LinearProgram(objective=[np.inf], lhs=[[1.0]], rhs=[1.0])


def test_an_integer_coefficient_beyond_float_range_is_an_input_error():
    with pytest.raises(InputError, match="must be numbers"):
        LinearProgram(objective=[10**400], lhs=[[1.0]], rhs=[1.0])


def test_check_feasibility_trivial_cases():
    # x >= 1 and x <= 0
    infeasible = check_feasibility(
        LinearProgram(objective=[0.0], lhs=[[-1.0], [1.0]], rhs=[-1.0, 0.0],
                      bounds=((None, None),))
    )
    assert isinstance(infeasible, FeasibilityResult)
    assert not infeasible.feasible and infeasible.witness is None

    # x >= 0 and x <= 1
    feasible = check_feasibility(
        LinearProgram(objective=[0.0], lhs=[[-1.0], [1.0]], rhs=[0.0, 1.0],
                      bounds=((None, None),))
    )
    assert feasible.feasible
    assert feasible.witness.shape == (1,)
    assert -1e-9 <= feasible.witness[0] <= 1.0 + 1e-9


def test_check_feasibility_ignores_the_objective():
    # An unbounded objective must not disturb the feasibility answer: x >= 2.
    lp = LinearProgram(objective=[-1.0], lhs=[[-1.0]], rhs=[-2.0], sense="min")
    result = check_feasibility(lp)
    assert result.feasible and result.witness[0] >= 2.0 - 1e-9


def _improvement_system(game, p, margin):
    """Containment plus a vertex push for V_I(p), as a plain feasibility system.

    Feasible iff some mixture keeps all columns inside the payoff set
    while clearing the vertex's exposing hyperplane by `margin`; the
    simplex row sum(p) = 1 is two `<=` rows.
    """
    poly = build_lower_set(row_generator_matrix(game, p))
    assert len(poly.vertices) == 1  # both tested strategies have one vertex
    (cut_normal,), (cut_offset,) = exposing_normals(poly)
    m = game.rows
    rows, rhs = [], []
    for normal, offset in zip(poly.normals, poly.offsets):
        scal = game.entries @ np.array(normal)  # (m, n)
        for j in range(game.cols):
            rows.append(scal[:, j])
            rhs.append(offset)
    scal = game.entries @ np.array(cut_normal)
    for j in range(game.cols):
        rows.append(scal[:, j])
        rhs.append(cut_offset - margin)
    rows += [np.ones(m), -np.ones(m)]
    rhs += [1.0, -1.0]
    return LinearProgram(objective=np.zeros(m), lhs=np.array(rows), rhs=np.array(rhs))


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


@st.composite
def _systems(draw):
    """A small integer system lhs x <= rhs, with rhs of both signs and a mix
    of free and nonnegative variables."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    coeff = st.integers(-4, 4).map(float)
    return LinearProgram(
        objective=np.zeros(n),
        lhs=[draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)],
        rhs=draw(st.lists(st.integers(-6, 6).map(float), min_size=m, max_size=m)),
        bounds=tuple((lo, None) for lo in draw(st.lists(_LOWER, min_size=n, max_size=n))),
    )


@settings(deadline=None, max_examples=300)
@given(_systems())
def test_check_feasibility_agrees_with_highs(lp):
    got = check_feasibility(lp)
    res = linprog(np.zeros(lp.num_vars), A_ub=lp.lhs, b_ub=lp.rhs,
                  bounds=[(lo, None) for lo, _ in lp.bounds], method="highs")
    assert res.status in (0, 2), res.message
    assert got.feasible == (res.status == 0)
    if got.feasible:
        x = got.witness
        assert x.shape == (lp.num_vars,)
        assert np.all(lp.lhs @ x <= lp.rhs + 1e-9)
        assert all(xi >= -1e-12 for xi, (lo, _) in zip(x, lp.bounds) if lo is not None)


def test_duality_gap_on_random_instances():
    check_lp_duality(np.random.default_rng(20240817), count=12)


def test_identical_inputs_give_identical_outcomes():
    lp = LinearProgram(
        objective=[2.0, 1.0, 3.0],
        lhs=[[1.0, 1.0, 1.0], [2.0, 0.5, 1.0]],
        rhs=[2.0, 3.0],
        sense="max",
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status == "optimal"
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.solution, second.solution)
    assert first.iterations == second.iterations
    assert isinstance(first, LPOutcome)


def _highs(lp):
    """(status, value) of the one LP `lp` by scipy's HiGHS.

    x = 0 is feasible, so the LP is optimal or unbounded.  Only bounded LPs
    reach HiGHS with the objective: HiGHS can call an unbounded LP
    infeasible (its presolve only knows "infeasible or unbounded") or give
    up on it with an unknown status, so unboundedness is settled by a
    recession LP.
    """
    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * lp.objective
    # A feasible LP is unbounded iff some direction d in its recession cone has
    # c @ d < 0; in the box |d| <= 1 that LP is feasible (d = 0) and bounded.
    box = [(-1.0 if lo is None else 0.0, 1.0) for lo, _ in lp.bounds]
    ray = linprog(c, A_ub=lp.lhs, b_ub=np.zeros_like(lp.rhs), bounds=box, method="highs")
    assert ray.status == 0, ray.message
    if ray.fun < -1e-9:
        return "unbounded", None
    res = linprog(c, A_ub=lp.lhs, b_ub=lp.rhs, bounds=[(lo, None) for lo, _ in lp.bounds],
                  method="highs")
    assert res.status == 0, res.message
    return "optimal", sign * res.fun


_LOWER = st.sampled_from((None, 0.0))


@st.composite
def _slack_lps(draw):
    """A small integer LP with rhs >= 0, so that its slack basis is
    feasible; its first row may repeat as its last."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    coeff = st.integers(-4, 4).map(float)
    A = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(0, 6).map(float), min_size=m, max_size=m))
    repeat = draw(st.booleans())
    return LinearProgram(
        objective=draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)),
        lhs=A + A[:1] if repeat else A,
        rhs=b + b[:1] if repeat else b,
        sense=draw(st.sampled_from(("min", "max"))),
        bounds=tuple((lo, None) for lo in draw(st.lists(_LOWER, min_size=n, max_size=n))),
    )


# Unbounded (x2 falls without bound), but HiGHS's presolve reports it infeasible.
_PRESOLVE_UNBOUNDED = LinearProgram(
    objective=[0.0, 1.0, 0.0, 0.0],
    lhs=[[0.0] * 4, [1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, -1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0] * 4],
    rhs=[0.0, 0.0, 1.0, 0.0, 0.0], sense="min",
    bounds=((None, None), (None, None), (0.0, None), (None, None)),
)

# One stack, max x + y over a free x and y >= 0: an optimal LP, an
# unbounded one, an optimal one that takes two pivots, and one unbounded
# at the start.  A budget of 2 pivots stops the third.
_STATUS_STACK = LinearProgram(
    objective=[1.0, 1.0],
    lhs=[[[1.0, 1.0], [-1.0, 0.0]], [[1.0, -1.0], [0.0, -1.0]],
         [[2.0, 1.0], [-1.0, 1.0]], [[0.0, 1.0], [-1.0, -1.0]]],
    rhs=[[2.0, 3.0], [1.0, 2.0], [4.0, 1.0], [5.0, 0.0]],
    sense="max",
    bounds=((None, None), (0.0, None)),
)


@settings(deadline=None, max_examples=300)
@given(_slack_lps())
@example(_PRESOLVE_UNBOUNDED)
@example(unstack_lp(_STATUS_STACK)[1])
def test_solve_lp_agrees_with_highs(lp):
    out = solve_lp(lp)
    status, value = _highs(lp)
    assert out.status == status
    if status == "optimal":
        assert abs(out.objective_value - value) <= 1e-7 * (1.0 + abs(value))
        x = out.solution
        assert np.all(lp.lhs @ x <= lp.rhs + 1e-9)
        assert all(xi >= -1e-9 for xi, (lo, _) in zip(x, lp.bounds) if lo is not None)
        assert out.objective_value == pytest.approx(float(lp.objective @ x), abs=1e-12)
    for got in solve_batch(stack_lps([lp, lp, lp])):
        _assert_same_outcome(got, out)


def test_the_status_stack_covers_every_status():
    assert [out.status for out in solve_batch(_STATUS_STACK, max_iter=2)] == [
        "optimal", "unbounded", "iteration_limit", "unbounded"
    ]
    assert [out.status for out in solve_batch(_STATUS_STACK)] == ["optimal", "unbounded"] * 2


def _assert_same_outcome(got, want):
    """Equal status and pivot count, and the same bytes of value, solution and duals."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if want.status != "optimal":
        assert got.objective_value is None and got.solution is None and got.duals is None
        return
    assert np.float64(got.objective_value).tobytes() == np.float64(want.objective_value).tobytes()
    for field in ("solution", "duals"):
        assert getattr(got, field).shape == getattr(want, field).shape
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@st.composite
def _lp_stacks(draw):
    """A few stacks of small integer LPs with rhs >= 0, each LP of a stack
    drawn from the stack's objective, constraint shape, bounds and sense;
    a template may repeat its first row last."""
    stacks = []
    coeff = st.integers(-4, 4).map(float)
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        m = draw(st.integers(1, 4))
        objective = draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n))
        bounds = tuple((lo, None) for lo in draw(st.lists(_LOWER, min_size=n, max_size=n)))
        sense = draw(st.sampled_from(("min", "max")))
        repeat = draw(st.booleans())
        lps = []
        for _ in range(draw(st.integers(1, 5))):
            A = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)]
            b = draw(st.lists(st.integers(0, 6).map(float), min_size=m, max_size=m))
            lps.append(
                LinearProgram(
                    objective=objective,
                    lhs=A + A[:1] if repeat else A,
                    rhs=b + b[:1] if repeat else b,
                    sense=sense,
                    bounds=bounds,
                )
            )
        stacks.append(stack_lps(lps))
    return stacks


@settings(deadline=None, max_examples=200)
@given(_lp_stacks(), st.sampled_from((None, 0, 1, 2)))
@example([_STATUS_STACK], 2)
def test_solve_batch_equals_solve_lp_bit_for_bit(stacks, max_iter):
    for stack in stacks:
        want = [solve_lp(lp, max_iter=max_iter) for lp in unstack_lp(stack)]
        for got, w in zip(solve_batch(stack, max_iter=max_iter), want, strict=True):
            _assert_same_outcome(got, w)


def test_a_stack_of_one_equals_solve_lp():
    for lp in (_PRESOLVE_UNBOUNDED, *unstack_lp(_STATUS_STACK)):
        (got,) = solve_batch(stack_lps([lp]))
        _assert_same_outcome(got, solve_lp(lp))


def test_malformed_stacks_are_rejected():
    spec = dict(objective=[1.0, 1.0], sense="max")
    lhs = np.ones((3, 2, 2))
    with pytest.raises(InputError):  # lhs and rhs batch sizes disagree
        LinearProgram(lhs=lhs, rhs=np.ones((2, 2)), **spec)
    with pytest.raises(InputError):  # a 4-D lhs
        LinearProgram(lhs=lhs[None], rhs=np.ones((1, 3, 2)), **spec)
    with pytest.raises(InputError):  # an empty stack
        LinearProgram(lhs=np.ones((0, 2, 2)), rhs=np.ones((0, 2)), **spec)
    with pytest.raises(InputError):  # solve_lp given a stack
        solve_lp(LinearProgram(lhs=lhs, rhs=np.ones((3, 2)), **spec))
    with pytest.raises(InputError):  # check_feasibility given a stack
        check_feasibility(LinearProgram(lhs=lhs, rhs=np.ones((3, 2)), **spec))


@pytest.mark.parametrize("bad", [[[1.0, 0.0], [1.0]], [[1.0, "a"], [0.0, 1.0]]])
def test_ragged_or_non_numeric_coefficients_are_rejected(bad):
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0, 1.0], lhs=bad, rhs=[1.0, 1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0, 1.0], lhs=np.eye(2), rhs=bad)


@pytest.mark.parametrize(
    "bounds", [((0.0,), (0.0, None)), (("a", None), (0.0, None)), (None, None)]
)
def test_malformed_bounds_are_rejected(bounds):
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0, 1.0], lhs=np.eye(2), rhs=[1.0, 1.0], bounds=bounds)


def _spy(monkeypatch, name):
    """Record the arguments of every call to the lp module's function `name`."""
    calls = []
    original = getattr(lp_module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(lp_module, name, spy)
    return calls


def _beale_stack():
    return stack_lps([_beale(cap) for cap in (1.0, 2.0, 3.0)])


def test_a_cycling_lp_finishes_under_blands_rule_inside_a_batch(monkeypatch):
    lps = unstack_lp(_beale_stack())
    want = [solve_lp(lp) for lp in lps]
    runs = _spy(monkeypatch, "_run_simplex")
    got = solve_batch(_beale_stack())
    # each LP of the one stack leaves the lockstep loop for Bland's rule
    assert [kwargs.get("bland") for _, kwargs in runs] == [True] * 3
    for g, w, cap in zip(got, want, (1.0, 2.0, 3.0), strict=True):
        _assert_same_outcome(g, w)
        assert g.objective_value == pytest.approx(1.25 * cap, abs=1e-12)


def _assert_matches_the_full_tableau(stack, max_iter=None):
    """`solve_batch` on the stack, and `solve_lp` on each of its LPs, against
    the full-tableau kernel of `tests/full_tableau.py`, bit for bit."""
    members = unstack_lp(stack)
    want = full_tableau.solve_batch(stack, max_iter=max_iter)
    for g, w in zip(solve_batch(stack, max_iter=max_iter), want, strict=True):
        _assert_same_outcome(g, w)
    for lp in members:
        _assert_same_outcome(solve_lp(lp, max_iter=max_iter),
                             full_tableau.solve_lp(lp, max_iter=max_iter))


@settings(deadline=None, max_examples=200)
@given(_lp_stacks(), st.sampled_from((None, 0, 1, 2)))
@example([_STATUS_STACK], 2)
def test_the_kernel_equals_the_full_tableau_bit_for_bit(stacks, max_iter):
    # free variables, repeated rows and small pivot budgets
    for stack in stacks:
        _assert_matches_the_full_tableau(stack, max_iter)


def test_the_kernel_equals_the_full_tableau_on_a_cycling_lp():
    for max_iter in (None, 6, 7):
        _assert_matches_the_full_tableau(_beale_stack(), max_iter)


def test_every_improvement_lp_of_a_grid_replays_on_the_full_tableau(monkeypatch):
    stacks = []

    def recording_solve_batch(lp):
        stacks.append(lp)
        return solve_batch(lp)

    monkeypatch.setattr(solver, "solve_batch", recording_solve_batch)
    game = relabeled_game(1000, (4, 4, 3), 0)
    for player in (Player.ROW, Player.COL):
        solver.classify_grid(game, player, Fraction(1, 8))
    assert sum(len(lp.lhs) for lp in stacks) == 2 * 165
    for stack in stacks:
        _assert_matches_the_full_tableau(stack)


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_an_iteration_limit_inside_a_batch(max_iter):
    lps = unstack_lp(_STATUS_STACK)
    want = [solve_lp(lp, max_iter=max_iter) for lp in lps]
    assert "iteration_limit" in {out.status for out in want}
    for g, w in zip(solve_batch(_STATUS_STACK, max_iter=max_iter), want, strict=True):
        _assert_same_outcome(g, w)


_GAMES = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.integers(-5, 5), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda v: np.array(v, dtype=float).reshape(shape))
)


def _simplex_lp(m, extra, A_ub, b_ub, c):
    """HiGHS value of min c·(p, z) over p in the simplex and free z with A_ub (p, z) <= b_ub."""
    res = linprog(
        np.concatenate([np.zeros(m), c]),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.concatenate([np.ones(m), np.zeros(extra)])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)] * extra,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


@settings(deadline=None, max_examples=60)
@given(_GAMES)
def test_scalar_security_images_sit_at_the_highs_game_value(entries):
    # K = 1: both players' security images have the game value as their only vertex
    m, n, _ = entries.shape
    scal = entries[:, :, 0]
    # value: min u  s.t.  sum_i p_i a_ij <= u  for every column j
    value = _simplex_lp(m, 1, np.hstack([scal.T, -np.ones((n, 1))]), np.zeros(n), [1.0])
    game = VectorPayoffGame(scal[:, :, None])
    for player in Player:
        vertices = compute_security_image(game, player).vertices
        assert vertices.shape == (1, 1), player
        assert vertices[0, 0] == pytest.approx(value, abs=1e-7 * (1.0 + abs(value))), player


@settings(deadline=None, max_examples=60)
@given(_GAMES, st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any))
def test_image_support_lp_agrees_with_highs(entries, direction):
    m, n, k = entries.shape
    d = np.array(direction[:k], dtype=float)
    if not d.any():
        d[0] = 1.0
    # min d·y  s.t.  sum_i p_i g_ijk <= y_k  for every column j and component k
    A_ub = np.array(
        [np.concatenate([entries[:, j, kk], -np.eye(k)[kk]]) for j in range(n) for kk in range(k)]
    )
    value = _simplex_lp(m, k, A_ub, np.zeros(n * k), d)
    got = _support_value(entries, d)
    assert got == pytest.approx(value, abs=1e-7 * (1.0 + abs(value)))


@settings(deadline=None, max_examples=60)
@given(_GAMES, st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_vertex_lift_lp_agrees_with_highs(entries, point):
    m, n, k = entries.shape
    v = np.array(point[:k], dtype=float)
    # min z  s.t.  sum_i p_i g_ijk <= v_k + z  for every column j and component k
    A_ub = np.array(
        [np.concatenate([entries[:, j, kk], [-1.0]]) for j in range(n) for kk in range(k)]
    )
    value = _simplex_lp(m, 1, A_ub, np.array([v[kk] for j in range(n) for kk in range(k)]), [1.0])
    lift, witness, _ = _verify_vertex(entries, v)
    assert lift == pytest.approx(value, abs=1e-7 * (1.0 + abs(value)))
    # the witness guarantees v + lift in every component
    assert np.all(np.einsum("i,ijk->jk", witness, entries) <= v + lift + 1e-9)


@settings(deadline=None, max_examples=60)
@given(_GAMES, st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_the_cut_read_off_the_lift_lp_is_optimal_for_the_cut_lp(entries, point):
    # The cut LP, the dual of the lift LP, is the reference: HiGHS solves
    # it, and the weights read off the lift LP's duals must be optimal for it.
    m, n, k = entries.shape
    v = np.array(point[:k], dtype=float)
    value, _, _ = benson_cut_by_highs(entries, v)
    lift, _, w = _verify_vertex(entries, v)
    assert w.shape == (n, k)
    assert (w >= -1e-9).all() and w.sum() == pytest.approx(1.0, abs=1e-9)
    normal = w.sum(axis=0)
    offset = (entries.reshape(m, n * k) @ w.ravel()).min()
    tol = 1e-7 * (1.0 + abs(value))
    assert offset - normal @ v == pytest.approx(value, abs=tol)
    assert offset - normal @ v == pytest.approx(lift, abs=tol)


def _row_built(rows, rhs, objective, sense, bounds=None):
    return LinearProgram(
        objective=np.array(objective, dtype=float),
        lhs=np.array(rows),
        rhs=np.array(rhs, dtype=float),
        sense=sense,
        bounds=bounds,
    )


def _assert_same_lp(got, want):
    # bytes, so that a -0.0 where the row-built LP has 0.0 fails too
    for field in ("objective", "lhs", "rhs"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert getattr(got, field).shape == getattr(want, field).shape, field
    assert (got.sense, got.bounds) == (want.sense, want.bounds)


def _row_built_improvement_lp(game, p):
    """The improvement LP of row strategy `p` in the shift d = p - pbar, over
    (d_1..d_{m-1} free, eps >= 0) with d_m = -sum_{i<m} d_i: n rows per
    halfspace, then n rows per exposing normal with its slack, each with rhs
    b - sum_i pbar_i a·g_ij summed left to right (0 if rounding made it
    negative), then the rows -d_i <= pbar_i and sum(d) <= pbar_m."""
    target = build_lower_set(row_generator_matrix(game, p))
    exp_normals, exp_offsets = exposing_normals(target)
    m, L, F = game.rows, len(exp_offsets), len(target.offsets)
    pbar = p.as_array()
    rows, rhs = [], []
    for ell, (normal, offset) in enumerate(
        zip([*target.normals, *exp_normals], [*target.offsets, *exp_offsets])
    ):
        eps = np.zeros(L)
        if ell >= F:
            eps[ell - F] = 1.0
        scal = game.entries @ np.array(normal)
        for j in range(game.cols):
            rows.append(np.concatenate([scal[:-1, j] - scal[-1, j], eps]))
            gain = pbar[0] * scal[0, j]
            for i in range(1, m):
                gain = gain + pbar[i] * scal[i, j]
            room = offset - gain
            assert room >= -1e-7
            rhs.append(0.0 if room < 0.0 else room)
    for i in range(m - 1):
        row = np.zeros(m - 1 + L)
        row[i] = -1.0
        rows.append(row)
        rhs.append(pbar[i])
    rows.append(np.concatenate([np.ones(m - 1), np.zeros(L)]))
    rhs.append(pbar[-1])
    return _row_built(rows, rhs,
                      np.concatenate([np.zeros(m - 1), np.ones(L)]), "max",
                      ((None, None),) * (m - 1) + ((0.0, None),) * L)


def test_block_built_lps_equal_their_row_by_row_definitions(three_by_three, monkeypatch):
    """Each LP the package builds in blocks, against the same LP written one row at a time."""
    seen = []

    def recording_solve_lp(lp):
        seen.append(lp)
        return solve_lp(lp)

    def recording_solve_batch(lp):
        seen.extend(unstack_lp(lp))
        return solve_batch(lp)

    monkeypatch.setattr(poss, "solve_lp", recording_solve_lp)
    monkeypatch.setattr(solver, "solve_batch", recording_solve_batch)
    entries = relabeled_game(2000, (4, 4, 4), 0).entries
    m, n, k = entries.shape
    free = (None, None)

    # improvement LP, solved as a stack of one
    game, p = three_by_three, row_strategy(0.2, 0.3, 0.5)
    minimality_lp(game, p)
    _assert_same_lp(seen.pop(), _row_built_improvement_lp(game, p))

    # image support and vertex lift, shifted to the cheapest pure strategy
    # s: over p_i (i != s) and a free u = z - z0, one row per column and
    # component with rhs z0 - (g_sjk - h_jk) >= 0, then sum_i p_i <= 1
    direction, v = np.array([0.0, 1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 2.5, 1.0])
    _support_value(entries, direction)
    _verify_vertex(entries, v)
    support_z0 = entries.max(axis=1)  # (m, k): each pure strategy's worst payoff
    lift_z0 = (entries - v).max(axis=(1, 2))  # (m,): each pure strategy's lift of v
    s_support = int(np.argmin(support_z0 @ direction))
    s_lift = int(np.argmin(lift_z0))
    support_rows, lift_rows, support_rhs, lift_rhs = [], [], [], []
    for j in range(n):
        for kk in range(k):
            row = [entries[i, j, kk] - entries[s_support, j, kk] for i in range(m)
                   if i != s_support]
            level = np.zeros(k)
            level[kk] = -1.0
            support_rows.append(np.concatenate([row, level]))
            support_rhs.append(support_z0[s_support, kk] - entries[s_support, j, kk])
            row = [entries[i, j, kk] - entries[s_lift, j, kk] for i in range(m) if i != s_lift]
            lift_rows.append(np.concatenate([row, [-1.0]]))
            lift_rhs.append(lift_z0[s_lift] - (entries[s_lift, j, kk] - v[kk]))
    support_rows.append(np.concatenate([np.ones(m - 1), np.zeros(k)]))
    lift_rows.append(np.concatenate([np.ones(m - 1), [0.0]]))
    lift = _row_built(lift_rows, lift_rhs + [1.0],
                      np.concatenate([np.zeros(m - 1), [1.0]]), "min",
                      ((0.0, None),) * (m - 1) + (free,))
    support = _row_built(support_rows, support_rhs + [1.0],
                         np.concatenate([np.zeros(m - 1), direction]), "min",
                         ((0.0, None),) * (m - 1) + (free,) * k)
    _assert_same_lp(seen.pop(), lift)
    _assert_same_lp(seen.pop(), support)
    assert not seen


def test_each_member_of_a_stacked_improvement_lp_equals_its_row_by_row_definition(
    three_by_three, monkeypatch
):
    stacks = []

    def recording_solve_batch(lp):
        stacks.append(lp)
        return solve_batch(lp)

    monkeypatch.setattr(solver, "solve_batch", recording_solve_batch)
    monkeypatch.setattr(solver, "GRID_BLOCK", 64)
    # 91 grid points: two blocks, each stacked by facet and exposing normal count
    front = solver.classify_grid(three_by_three, Player.ROW, Fraction(1, 12))
    assert len(stacks) > 2 and max(len(lp.lhs) for lp in stacks) > 1
    # A shape's stacks, in call order, hold its grid points in grid order.
    got, want = {}, {}
    for lp in stacks:
        got.setdefault(lp.lhs.shape[1:], []).extend(unstack_lp(lp))
    for cert in front.certificates:
        lp = _row_built_improvement_lp(three_by_three, cert.tested_strategy)
        want.setdefault(lp.lhs.shape, []).append(lp)
    assert got.keys() == want.keys()
    for shape in want:
        for g, w in zip(got[shape], want[shape], strict=True):
            _assert_same_lp(g, w)


def _pe_improvement_value(game, p):
    """HiGHS's optimum of the improvement LP of row strategy `p` in the
    variables (p, eps): n rows per halfspace, then n rows per exposing
    normal with its slack, and p in the simplex.  It is the package's LP
    value, which the package computes in the shift d = p - pbar."""
    target = build_lower_set(row_generator_matrix(game, p))
    exp_normals, exp_offsets = exposing_normals(target)
    L = len(exp_offsets)
    rows, rhs = [], []
    F = len(target.offsets)
    for ell, (normal, offset) in enumerate(
        zip([*target.normals, *exp_normals], [*target.offsets, *exp_offsets])
    ):
        eps = np.zeros(L)
        if ell >= F:
            eps[ell - F] = 1.0
        scal = game.entries @ np.array(normal)
        for j in range(game.cols):
            rows.append(np.concatenate([scal[:, j], eps]))
            rhs.append(offset)
    res = linprog(
        np.concatenate([np.zeros(game.rows), -np.ones(L)]),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=np.concatenate([np.ones(game.rows), np.zeros(L)])[None],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (game.rows + L),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def _assert_improvement_value_agrees_with_highs(game, strategy, tol=1e-9):
    """The package's LP value, to `tol` (1 + |value|), and verdict for
    `strategy`, against HiGHS's optimum of the (p, eps) LP built on the
    owner's view of `game`."""
    owner = strategy.owner
    value = _pe_improvement_value(
        game.for_player(owner), MixedStrategy(strategy.weights, Player.ROW)
    )
    cert = (minimality_lp if owner is Player.ROW else maximality_lp)(game, strategy)
    assert cert.lp_value == pytest.approx(value, abs=tol * (1.0 + abs(value)))
    assert cert.is_minimal == (value <= DECISION_TOL)


_IMPROVEMENT_GAMES = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4)).flatmap(
    lambda shape: st.lists(
        st.integers(-5, 5), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda v: np.array(v, dtype=float).reshape(shape))
)


@settings(deadline=None, max_examples=80)
@given(_IMPROVEMENT_GAMES, st.sampled_from(Player), st.data())
def test_the_shifted_improvement_lp_agrees_with_highs_on_the_p_eps_lp(entries, owner, data):
    size = entries.shape[0] if owner is Player.ROW else entries.shape[1]
    # grid counts; zeros put the tested strategy on a face of the simplex
    counts = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    strategy = MixedStrategy(tuple(c / sum(counts) for c in counts), owner)
    _assert_improvement_value_agrees_with_highs(VectorPayoffGame(entries), strategy)


@pytest.mark.parametrize(
    ("owner", "support"),
    [(Player.ROW, (7,)), (Player.COL, (2, 3)), (Player.COL, (3, 9)), (Player.COL, (4,)),
     (Player.COL, (0, 1)), (Player.COL, (4, 7)), (Player.COL, (5, 7))],
)
def test_improvement_lps_of_hundreds_of_rows_agree_with_highs(owner, support):
    # LPs of 250-380 rows on the 10x10x4 game r7, whose columns reach 400:
    # a pivot on an entry of about 1e-9 once ended them "optimal" with
    # weights down to -1.19, or with a value of 1.9 where HiGHS reads 0.
    # Values agree to the decision tolerance.  The maximal (5, 7) read 1.85e-7,
    # not maximal, until a ratio-test tie had to leave its row feasible
    # (`lp.TIE_AFTER`); it reads 2.8e-8 now, and HiGHS 0.
    strategy = MixedStrategy(tuple(1 / len(support) if i in support else 0.0
                                   for i in range(10)), owner)
    _assert_improvement_value_agrees_with_highs(
        relabeled_game(7, (10, 10, 4), 0), strategy, tol=DECISION_TOL
    )


def test_the_improvement_lp_reads_highs_zero_where_the_p_eps_lp_read_1e_9():
    # The (p, eps) LP, solved by this package's simplex, read 1.2e-9 here.
    game = relabeled_game(2001, (4, 4, 4), 4)
    _assert_improvement_value_agrees_with_highs(game, col_strategy(1 / 6, 1 / 3, 1 / 6, 1 / 3))
