"""Dense simplex solver: statuses, the feasibility probe, and duality."""

from __future__ import annotations

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
    FeasibilityResult,
    LinearProgram,
    LPOutcome,
    check_feasibility,
    solve_batch,
    solve_lp,
)
from vecgame.polyhedra import build_lower_set, exposing_normals
from vecgame import poss, solver
from vecgame.poss import _support_value, _verify_vertex, compute_security_image
from vecgame.solver import DECISION_TOL, maximality_lp, minimality_lp

from properties import benson_cut_lp, check_lp_duality, relabeled_game, stack_lps, unstack_lp


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
# improvement LP in the variables (p, eps) (`_pe_improvement_lp`) cycles with
# period 8, and rounding raises the objective a little each cycle, so a switch
# on a stalled objective never fired.  The package's LP in the shift
# d = p - pbar starts feasible and runs no phase 1, so the cycling LP is
# built here in the (p, eps) form.
CYCLING_POINTS = [(4, (1, 5, 2, 8)), (18, (1, 5, 2, 8)), (23, (5, 8, 2, 1))]


def _pe_improvement_lp(game, p):
    """The improvement LP of row strategy `p` in the variables (p, eps): n rows
    per halfspace, then n rows per exposing normal with its slack, then the
    simplex row.  Its optimum is the package's LP value."""
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
    rows.append(np.concatenate([np.ones(game.rows), np.zeros(L)]))
    return _row_built(rows, ("<=",) * (len(rows) - 1) + ("=",), rhs + [1.0],
                      np.concatenate([np.zeros(game.rows), np.ones(L)]), "max")


def _cycling_lps():
    return [
        _pe_improvement_lp(
            relabeled_game(1000, (4, 4, 3), variant), row_strategy(*(c / 16 for c in counts))
        )
        for variant, counts in CYCLING_POINTS
    ]


def test_a_repeated_basis_switches_to_blands_rule():
    verdicts = set()
    for variant, counts in CYCLING_POINTS:
        game = relabeled_game(1000, (4, 4, 3), variant)
        verdicts.add(minimality_lp(game, row_strategy(*(c / 16 for c in counts))).is_minimal)
    assert verdicts == {True}
    # the (p, eps) LPs, whose phase 1 cycles under Dantzig's rule, finish too
    for lp in _cycling_lps():
        out = solve_lp(lp)
        assert out.status == "optimal" and out.objective_value <= DECISION_TOL


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
    (cut_normal,), (cut_offset,) = exposing_normals(poly)
    m = game.rows
    rows, relations, rhs = [], [], []
    for normal, offset in zip(poly.normals, poly.offsets):
        scal = game.entries @ np.array(normal)  # (m, n)
        for j in range(game.cols):
            rows.append(scal[:, j])
            relations.append("<=")
            rhs.append(offset)
    scal = game.entries @ np.array(cut_normal)
    for j in range(game.cols):
        rows.append(scal[:, j])
        relations.append("<=")
        rhs.append(cut_offset - margin)
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


def _highs(c, A, relations, b, bounds, sense="min"):
    """(status, value) of the LP by scipy's HiGHS; relations mix <=, >= and =.

    Only bounded LPs reach HiGHS with the objective: HiGHS can call an unbounded
    LP infeasible (its presolve only knows "infeasible or unbounded") or give up
    on it with an unknown status, so unboundedness is settled by a recession LP.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float) * (1.0 if sense == "min" else -1.0)
    rel = np.array(relations)
    ub = rel != "="
    flip = np.where(rel[ub] == ">=", -1.0, 1.0)

    def solve(objective, rhs, var_bounds):
        return linprog(
            objective,
            A_ub=A[ub] * flip[:, None] if ub.any() else None,
            b_ub=rhs[ub] * flip if ub.any() else None,
            A_eq=A[~ub] if (~ub).any() else None,
            b_eq=rhs[~ub] if (~ub).any() else None,
            bounds=var_bounds,
            method="highs",
        )

    # A zero objective settles feasibility, so "infeasible or unbounded" never arises.
    if solve(np.zeros(len(c)), b, bounds).status == 2:
        return "infeasible", None
    # A feasible LP is unbounded iff some direction d in its recession cone has
    # c @ d < 0; in the box |d| <= 1 that LP is feasible (d = 0) and bounded.
    cone = [(None if lo is None else 0.0, None if hi is None else 0.0) for lo, hi in bounds]
    box = [(-1.0 if lo is None else lo, 1.0 if hi is None else hi) for lo, hi in cone]
    ray = solve(c, np.zeros_like(b), box)
    assert ray.status == 0, ray.message
    if ray.fun < -1e-9:
        return "unbounded", None
    res = solve(c, b, bounds)
    assert res.status == 0, res.message
    return "optimal", (1.0 if sense == "min" else -1.0) * res.fun


_RELATION = st.sampled_from(("<=", ">=", "="))
_LOWER = st.one_of(st.none(), st.just(0.0), st.integers(-3, 3).filter(bool).map(float))


@st.composite
def _mixed_lps(draw):
    """A small integer LP whose first row is an equality repeated as the last row."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    coeff = st.integers(-4, 4).map(float)
    A = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-6, 6).map(float), min_size=m, max_size=m))
    relations = ["="] + [draw(_RELATION) for _ in range(m - 1)]
    return dict(
        objective=draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)),
        lhs=A + [A[0]],
        relations=tuple(relations + ["="]),
        rhs=b + [b[0]],
        sense=draw(st.sampled_from(("min", "max"))),
        bounds=tuple((lo, None) for lo in draw(st.lists(_LOWER, min_size=n, max_size=n))),
    )


_INFEASIBLE = dict(
    objective=[1.0, 0.0], lhs=[[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
    relations=("=", ">=", "="), rhs=[-2.0, 1.0, -2.0], sense="min",
    bounds=((None, None), (0.0, None)),
)
_UNBOUNDED = dict(
    objective=[1.0, 1.0], lhs=[[1.0, -1.0], [0.0, 1.0], [1.0, -1.0]],
    relations=("=", ">=", "="), rhs=[-1.0, 2.0, -1.0], sense="max",
    bounds=((-2.0, None), (None, None)),
)

# Unbounded (x2 falls without bound), but HiGHS's presolve reports it infeasible.
_PRESOLVE_UNBOUNDED = dict(
    objective=[0.0, 1.0, 0.0, 0.0],
    lhs=[[0.0] * 4, [1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, -1.0, 0.0], [0.0, -1.0, -1.0, 0.0], [0.0] * 4],
    relations=("=", "<=", "<=", ">=", "="), rhs=[0.0, 0.0, 1.0, 0.0, 0.0], sense="min",
    bounds=((None, None), (None, None), (0.0, None), (None, None)),
)

# Unbounded (x3 grows without bound), but HiGHS without presolve gives up on it
# with an unknown status.
_UNKNOWN_UNBOUNDED = dict(
    objective=[0.0, 0.0, 1.0, 2.0],
    lhs=[[1.0, 0.0, -2.0, -1.0], [0.0, 0.0, 1.0, 2.0], [1.0, 0.0, -2.0, -1.0]],
    relations=("=", ">=", "="), rhs=[-1.0, 0.0, -1.0], sense="max",
    bounds=((0.0, None), (None, None), (0.0, None), (1.0, None)),
)


@settings(deadline=None, max_examples=300)
@given(_mixed_lps())
@example(_INFEASIBLE)
@example(_UNBOUNDED)
@example(_PRESOLVE_UNBOUNDED)
@example(_UNKNOWN_UNBOUNDED)
def test_solve_lp_agrees_with_highs(spec):
    lp = LinearProgram(**spec)
    out = solve_lp(lp)
    status, value = _highs(
        spec["objective"], spec["lhs"], spec["relations"], spec["rhs"], spec["bounds"],
        spec["sense"],
    )
    assert out.status == status
    if status == "optimal":
        assert abs(out.objective_value - value) <= 1e-7 * (1.0 + abs(value))
        x = out.solution
        lows = np.array([-np.inf if lo is None else lo for lo, _ in spec["bounds"]])
        assert np.all(x >= lows - 1e-9)
        assert out.objective_value == pytest.approx(float(lp.objective @ x), abs=1e-12)
    for got in solve_batch(stack_lps([lp, lp, lp])):
        _assert_same_outcome(got, out)


def test_the_highs_examples_cover_every_status():
    statuses = {solve_lp(LinearProgram(**spec)).status for spec in (_INFEASIBLE, _UNBOUNDED)}
    assert statuses == {"infeasible", "unbounded"}


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
    """A few stacks of small integer LPs, each LP of a stack drawn from the
    stack's objective, constraint shape, relations, bounds and sense; a
    template may repeat its first row last."""
    stacks = []
    coeff = st.integers(-4, 4).map(float)
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        m = draw(st.integers(1, 4))
        objective = draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n))
        relations = tuple(draw(st.lists(_RELATION, min_size=m, max_size=m)))
        bounds = tuple((lo, None) for lo in draw(st.lists(_LOWER, min_size=n, max_size=n)))
        sense = draw(st.sampled_from(("min", "max")))
        repeat = draw(st.booleans())
        lps = []
        for _ in range(draw(st.integers(1, 5))):
            A = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(m)]
            b = draw(st.lists(st.integers(-6, 6).map(float), min_size=m, max_size=m))
            lps.append(
                LinearProgram(
                    objective=objective,
                    lhs=A + A[:1] if repeat else A,
                    relations=relations + relations[:1] if repeat else relations,
                    rhs=b + b[:1] if repeat else b,
                    sense=sense,
                    bounds=bounds,
                )
            )
        stacks.append(stack_lps(lps))
    return stacks


# Two stacks: two infeasible LPs with two optimal ones, and two unbounded LPs.
_STATUS_STACKS = [
    stack_lps(
        [
            LinearProgram(**_INFEASIBLE),
            LinearProgram(**dict(_INFEASIBLE, rhs=[-3.0, 2.0, -3.0])),
            LinearProgram(**dict(_INFEASIBLE, rhs=[2.0, 1.0, 2.0])),
            LinearProgram(**dict(_INFEASIBLE, rhs=[3.0, -1.0, 3.0])),
        ]
    ),
    stack_lps(
        [LinearProgram(**_UNBOUNDED), LinearProgram(**dict(_UNBOUNDED, rhs=[1.0, 0.0, 1.0]))]
    ),
]


def test_the_status_stack_covers_every_status():
    statuses = [[out.status for out in solve_batch(stack)] for stack in _STATUS_STACKS]
    assert statuses == [["infeasible"] * 2 + ["optimal"] * 2, ["unbounded"] * 2]


@settings(deadline=None, max_examples=200)
@given(_lp_stacks())
@example(_STATUS_STACKS)
def test_solve_batch_equals_solve_lp_bit_for_bit(stacks):
    for stack in stacks:
        want = [solve_lp(lp) for lp in unstack_lp(stack)]
        for got, w in zip(solve_batch(stack), want, strict=True):
            _assert_same_outcome(got, w)


def test_a_stack_of_one_equals_solve_lp():
    optimal = dict(_INFEASIBLE, rhs=[2.0, 1.0, 2.0])
    for spec in (_INFEASIBLE, _UNBOUNDED, _PRESOLVE_UNBOUNDED, optimal):
        lp = LinearProgram(**spec)
        (got,) = solve_batch(stack_lps([lp]))
        _assert_same_outcome(got, solve_lp(lp))


def test_malformed_stacks_are_rejected():
    spec = dict(objective=[1.0, 1.0], relations=("<=", ">="), sense="max")
    lhs = np.ones((3, 2, 2))
    with pytest.raises(InputError):  # lhs and rhs batch sizes disagree
        LinearProgram(lhs=lhs, rhs=np.ones((2, 2)), **spec)
    with pytest.raises(InputError):  # a 4-D lhs
        LinearProgram(lhs=lhs[None], rhs=np.ones((1, 3, 2)), **spec)
    with pytest.raises(InputError):  # an empty stack
        LinearProgram(lhs=np.ones((0, 2, 2)), rhs=np.ones((0, 2)), **spec)
    with pytest.raises(InputError):  # solve_lp given a stack
        solve_lp(LinearProgram(lhs=lhs, rhs=np.ones((3, 2)), **spec))


@pytest.mark.parametrize("bad", [[[1.0, 0.0], [1.0]], [[1.0, "a"], [0.0, 1.0]]])
def test_ragged_or_non_numeric_coefficients_are_rejected(bad):
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0, 1.0], lhs=bad, relations=("<=", "<="), rhs=[1.0, 1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0, 1.0], lhs=np.eye(2), relations=("<=", "<="), rhs=bad)


@pytest.mark.parametrize("bounds", [((0.0,), (0.0, None)), (("a", None), (0.0, None)), (None, None)])
def test_malformed_bounds_are_rejected(bounds):
    with pytest.raises(InputError):
        LinearProgram(
            objective=[1.0, 1.0], lhs=np.eye(2), relations=("<=", "<="), rhs=[1.0, 1.0],
            bounds=bounds,
        )


def _spy(monkeypatch, name):
    """Record the arguments of every call to the lp module's function `name`."""
    calls = []
    original = getattr(lp_module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(lp_module, name, spy)
    return calls


def test_a_cycling_lp_finishes_under_blands_rule_inside_a_batch(monkeypatch):
    lps = _cycling_lps()
    want = [solve_lp(lp) for lp in lps]
    runs = _spy(monkeypatch, "_run_simplex")
    got = solve_batch(stack_lps(lps))
    # each LP of the one stack leaves the lockstep loop for Bland's rule
    assert [kwargs.get("bland") for _, kwargs in runs] == [True] * 3
    for g, w in zip(got, want, strict=True):
        _assert_same_outcome(g, w)


def test_a_leftover_artificial_is_handled_inside_a_batch(monkeypatch):
    # The equality x + y + z = b appears twice, so phase 1 ends with one of
    # its two artificials still basic, on a row that has become redundant.
    lps = [
        LinearProgram(
            objective=[1.0, -2.0, 0.5],
            lhs=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 1.0]],
            relations=("=", "<=", "="),
            rhs=[b, c, b],
            sense=sense,
        )
        for sense in ("min", "max")
        for b, c in ((1.0, 0.5), (2.0, -1.0), (3.0, 1.0))
    ]
    want = [solve_lp(lp) for lp in lps]
    pivot_outs = _spy(monkeypatch, "_pivot_out_artificials")
    runs = _spy(monkeypatch, "_run_simplex")
    got = solve_batch(stack_lps(lps[:3])) + solve_batch(stack_lps(lps[3:]))
    assert len(pivot_outs) == len(lps) and not runs
    for g, w in zip(got, want, strict=True):
        _assert_same_outcome(g, w)


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_an_iteration_limit_inside_a_batch(max_iter):
    lps = [
        LinearProgram(
            objective=[1.0, 1.0, 1.0],
            lhs=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]],
            relations=(">=", "<=", ">="),
            rhs=rhs,
            sense="max",
        )
        for rhs in ([1.0, 3.0, 1.0], [0.0, 2.0, 4.0], [2.0, 5.0, 2.0], [-1.0, 1.0, 3.0])
    ]
    want = [solve_lp(lp, max_iter=max_iter) for lp in lps]
    assert "iteration_limit" in {out.status for out in want}
    for g, w in zip(solve_batch(stack_lps(lps), max_iter=max_iter), want, strict=True):
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
    lp = benson_cut_lp(entries, v)
    status, value = _highs(lp.objective, lp.lhs, lp.relations, lp.rhs, lp.bounds, lp.sense)
    assert status == "optimal"
    lift, _, w = _verify_vertex(entries, v)
    assert w.shape == (n, k)
    assert (w >= -1e-9).all() and w.sum() == pytest.approx(1.0, abs=1e-9)
    normal = w.sum(axis=0)
    offset = (entries.reshape(m, n * k) @ w.ravel()).min()
    tol = 1e-7 * (1.0 + abs(value))
    assert offset - normal @ v == pytest.approx(value, abs=tol)
    assert offset - normal @ v == pytest.approx(lift, abs=tol)


def _row_built(rows, relations, rhs, objective, sense, bounds=None):
    return LinearProgram(
        objective=np.array(objective, dtype=float),
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs, dtype=float),
        sense=sense,
        bounds=bounds,
    )


def _assert_same_lp(got, want):
    # bytes, so that a -0.0 where the row-built LP has 0.0 fails too
    for field in ("objective", "lhs", "rhs"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert getattr(got, field).shape == getattr(want, field).shape, field
    assert (got.relations, got.sense, got.bounds) == (want.relations, want.sense, want.bounds)


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
    return _row_built(rows, ("<=",) * len(rows), rhs,
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

    # image support and vertex lift: one row per column and component
    direction, v = np.array([0.0, 1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 2.5, 1.0])
    _support_value(entries, direction)
    _verify_vertex(entries, v)
    support_rows, lift_rows = [], []
    for j in range(n):
        for kk in range(k):
            row = np.zeros(m + k)
            row[:m] = entries[:, j, kk]
            row[m + kk] = -1.0
            support_rows.append(row)
            lift_rows.append(np.concatenate([entries[:, j, kk], [-1.0]]))
    support_rows.append(np.concatenate([np.ones(m), np.zeros(k)]))
    lift_rows.append(np.concatenate([np.ones(m), [0.0]]))
    relations = ("<=",) * (n * k) + ("=",)
    lift = _row_built(lift_rows, relations, [v[kk] for j in range(n) for kk in range(k)] + [1.0],
                      np.concatenate([np.zeros(m), [1.0]]), "min", ((0.0, None),) * m + (free,))
    support = _row_built(support_rows, relations, [0.0] * (n * k) + [1.0],
                         np.concatenate([np.zeros(m), direction]), "min",
                         ((0.0, None),) * m + (free,) * k)
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


def _assert_improvement_value_agrees_with_highs(game, strategy):
    """The package's LP value and verdict for `strategy`, against HiGHS's optimum
    of the (p, eps) LP built on the owner's view of `game`."""
    owner = strategy.owner
    lp = _pe_improvement_lp(game.for_player(owner), MixedStrategy(strategy.weights, Player.ROW))
    status, value = _highs(lp.objective, lp.lhs, lp.relations, lp.rhs,
                           [(0.0, None)] * lp.num_vars, lp.sense)
    assert status == "optimal"
    cert = (minimality_lp if owner is Player.ROW else maximality_lp)(game, strategy)
    assert cert.lp_value == pytest.approx(value, abs=1e-9 * (1.0 + abs(value)))
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


def test_the_improvement_lp_reads_highs_zero_where_the_p_eps_lp_read_1e_9():
    # The (p, eps) LP, solved by this package's simplex, read 1.2e-9 here.
    game = relabeled_game(2001, (4, 4, 4), 4)
    _assert_improvement_value_agrees_with_highs(game, col_strategy(1 / 6, 1 / 3, 1 / 6, 1 / 3))
