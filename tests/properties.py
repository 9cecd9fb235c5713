"""Shared property-suite drivers.

The module tests exercise these on small sample counts; the acceptance
gate reruns them at full size.  Reference answers come from scipy's
HiGHS solver so the package's own simplex code is never its own oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from vecgame.equilibria import Classification, EquilibriumRecord, _boundary_mask
from vecgame.game import (
    MixedStrategy,
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    enumerate_simplex_grid,
    expected_payoff,
    row_generator_matrix,
)
from vecgame.lp import LinearProgram, LPOutcome, solve_batch, solve_lp
from vecgame.polyhedra import (
    LOWER,
    build_lower_set,
    build_upper_set,
    contains_point,
    poly_subset,
)
from vecgame.solver import minimality_lp


def stack_lps(lps) -> LinearProgram:
    """One stack of the LPs `lps`, which must differ only in lhs and rhs."""
    first = lps[0]
    for lp in lps:
        assert np.array_equal(lp.objective, first.objective)
        assert (lp.relations, lp.bounds, lp.sense) == (first.relations, first.bounds, first.sense)
    return dataclasses.replace(first, lhs=[lp.lhs for lp in lps], rhs=[lp.rhs for lp in lps])


def unstack_lp(stack: LinearProgram) -> list[LinearProgram]:
    """The LPs of a stack, each on its own."""
    return [dataclasses.replace(stack, lhs=a, rhs=b) for a, b in zip(stack.lhs, stack.rhs)]


def fail_one_stacked_lp(monkeypatch, module) -> list[int]:
    """Make the last LP of the first stack of more than one that `module`
    solves end at the iteration limit; the others keep their outcomes.
    Returns the sizes of the stacks solved."""
    sizes = []

    def solve(lp):
        outcomes = solve_batch(lp)
        if len(outcomes) > 1 and not any(n > 1 for n in sizes):
            outcomes[-1] = LPOutcome("iteration_limit", None, None, outcomes[-1].iterations)
        sizes.append(len(outcomes))
        return outcomes

    monkeypatch.setattr(module, "solve_batch", solve)
    return sizes


def random_game(rng: np.random.Generator, rows: int, cols: int, dim: int,
                lo: int = -5, hi: int = 5) -> VectorPayoffGame:
    entries = rng.integers(lo, hi + 1, size=(rows, cols, dim)).astype(float)
    return VectorPayoffGame(entries)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def relabeled_game(seed: int, shape: tuple[int, int, int], variant: int) -> VectorPayoffGame:
    """The benchmark's random game r{seed} of this shape under one of its relabelings."""
    workloads = _workloads()
    payoffs = workloads.random_payoffs(seed, *shape)
    relabel = workloads.variant_relabel(variant, workloads.BaseGame(f"r{seed}", payoffs))
    return VectorPayoffGame(np.array(relabel.apply(payoffs), dtype=float))


def benson_cut_lp(entries: np.ndarray, v: np.ndarray) -> LinearProgram:
    """The dual of the vertex verification LP, written out as an LP of its
    own: weights w_jk >= 0 with unit sum and a free level mu <= sum_jk w_jk
    g_ijk for every row i, maximizing mu - sum_jk w_jk v_k.  Its optimum is
    the lift of v, and (a, b) = (sum_j w_jk, mu) is Benson's cut a·y >= b."""
    m, n, k = entries.shape
    nw = n * k
    lhs = np.zeros((m + 1, nw + 1))
    lhs[:m, :nw] = -entries.reshape(m, nw)
    lhs[:m, nw] = 1.0
    lhs[m, :nw] = 1.0
    return LinearProgram(
        objective=np.concatenate([-np.tile(v, n), [1.0]]),
        lhs=lhs,
        relations=("<=",) * m + ("=",),
        rhs=np.append(np.zeros(m), 1.0),
        sense="max",
        bounds=((0.0, None),) * nw + ((None, None),),
    )


def benson_cut_by_lp(entries: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Benson's cut through v from `benson_cut_lp`, solved by `solve_lp`."""
    n, k = entries.shape[1:]
    out = solve_lp(benson_cut_lp(entries, v))
    assert out.status == "optimal", out.status
    normal = out.solution[: n * k].reshape(n, k).sum(axis=0)
    offset = float(out.solution[n * k])
    assert float(normal @ v) < offset - 1e-10
    return normal, offset


def same_polyhedron(a, b) -> bool:
    """Exact equality of two payoff polyhedra, field by field."""
    return a.orientation == b.orientation and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("generators", "normals", "offsets", "vertices")
    )


def optimal_weight_set(front) -> set[tuple[float, ...]]:
    """Weights of every grid strategy the front certifies optimal."""
    return {c.tested_strategy.weights for c in front.certificates if c.is_minimal}


def weights_close(a, b, tol: float = 1e-9) -> bool:
    return len(a) == len(b) and max(abs(x - y) for x, y in zip(a, b)) <= tol


def random_mixed(rng: np.random.Generator, size: int, owner: Player) -> MixedStrategy:
    return MixedStrategy.cleaned(rng.random(size) + 1e-3, owner=owner)


def on_row_frontier(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    """Whether the pair's payoff is Pareto-maximal in V_I(p), the row player's lower set."""
    vi = build_lower_set(row_generator_matrix(game, p))
    return bool(_boundary_mask(vi, expected_payoff(game, p, q).as_array()[None])[0])


def on_col_frontier(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    """Whether the pair's payoff is Pareto-minimal in V_II(q), the column player's upper set."""
    vii = build_upper_set(col_generator_matrix(game, q))
    return bool(_boundary_mask(vii, expected_payoff(game, p, q).as_array()[None])[0])


def scalar_game_value(matrix: np.ndarray) -> float:
    """Minimax value of a scalar matrix game (row player minimizes), by HiGHS."""
    m, n = matrix.shape
    c = np.zeros(m + 1)
    c[m] = 1.0
    a_ub = np.hstack([matrix.T, -np.ones((n, 1))])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0, f"reference scalar LP failed: {res.message}"
    return float(res.fun)


def check_k1_reduction(rng: np.random.Generator, games: int) -> None:
    """K=1 games: minimality of a strategy is equivalent to scalar optimality.

    In one dimension the lower payoff set is the ray (-inf, max_j y_j(p)],
    so inclusion-minimality collapses to the classic minimax criterion.
    """
    for _ in range(games):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        game = random_game(rng, m, n, 1)
        value = scalar_game_value(game.entries[:, :, 0])
        for p in list(enumerate_simplex_grid(m, "1/2"))[:6]:
            worst = float(row_generator_matrix(game, p).max())
            minimal = minimality_lp(game, p).is_minimal
            optimal = worst <= value + 1e-7
            assert minimal == optimal, (
                f"K=1 mismatch: p={p.weights} worst={worst} value={value} "
                f"minimal={minimal}"
            )


def _oracle_margin(points: np.ndarray, y: np.ndarray, orientation: str) -> float:
    """Signed depth of y inside the oriented hull, by an independent LP.

    Positive means inside with clearance, negative means outside; the
    magnitude is the largest uniform shift keeping/putting y in the set.
    """
    k = points.shape[1]
    nv = points.shape[0]
    sign = 1.0 if orientation == LOWER else -1.0
    # vars (lambda, s): maximize s  s.t.  sign*(P^T lam - y) >= s*e, sum lam = 1
    c = np.zeros(nv + 1)
    c[nv] = -1.0
    a_ub = np.hstack([-sign * points.T, np.ones((k, 1))])
    b_ub = -sign * y
    a_eq = np.zeros((1, nv + 1))
    a_eq[0, :nv] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * nv + [(None, None)],
        method="highs",
    )
    assert res.status == 0, f"membership oracle LP failed: {res.message}"
    return float(-res.fun)


def check_dd_membership(rng: np.random.Generator, instances: int, queries: int) -> None:
    """contains_point agrees with a convex-combination LP oracle."""
    for _ in range(instances):
        k = int(rng.integers(1, 4))
        npts = int(rng.integers(2, 7))
        points = rng.integers(-5, 6, size=(npts, k)).astype(float)
        lower = bool(rng.integers(0, 2))
        poly = build_lower_set(points) if lower else build_upper_set(points)
        lo = points.min(axis=0) - 2.0
        hi = points.max(axis=0) + 2.0
        for _ in range(queries):
            y = lo + (hi - lo) * rng.random(k)
            margin = _oracle_margin(points, y, poly.orientation)
            if abs(margin) <= 1e-7:
                continue  # query too close to the boundary to be decisive
            assert contains_point(poly, y) == (margin > 0), (
                f"membership mismatch at {y} (oracle margin {margin})"
            )


def check_lp_duality(rng: np.random.Generator, count: int) -> None:
    """Primal optimum equals the independently assembled dual optimum, and
    each LP's read-off duals are an optimal solution of the other."""
    for _ in range(count):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        a = rng.integers(-4, 5, size=(m, n)).astype(float)
        x0 = rng.random(n) * 2.0
        y0 = rng.random(m) * 2.0
        b = a @ x0 - rng.random(m)  # primal strictly feasible at x0
        c = a.T @ y0 + rng.random(n)  # dual strictly feasible at y0

        primal = solve_lp(
            LinearProgram(
                objective=c,
                lhs=a,
                relations=(">=",) * m,
                rhs=b,
                sense="min",
            )
        )
        dual = solve_lp(
            LinearProgram(
                objective=b,
                lhs=a.T,
                relations=("<=",) * n,
                rhs=c,
                sense="max",
            )
        )
        # the primal once more with its rows negated: `<=` rows of a `min` LP
        negated = solve_lp(
            LinearProgram(
                objective=c,
                lhs=-a,
                relations=("<=",) * m,
                rhs=-b,
                sense="min",
            )
        )
        assert {primal.status, dual.status, negated.status} == {"optimal"}
        tol = 1e-7 * (1.0 + abs(primal.objective_value))
        gap = abs(primal.objective_value - dual.objective_value)
        assert gap <= tol, (
            f"duality gap {gap} (primal {primal.objective_value}, "
            f"dual {dual.objective_value})"
        )
        # Each LP's read-off duals solve the other LP: the `>=` rows of the
        # `min` LP give y >= 0, its negated `<=` rows -y <= 0, and the `<=`
        # rows of the `max` LP give x >= 0.
        for y in (primal.duals, -negated.duals):
            assert (y >= -1e-7).all() and (a.T @ y <= c + 1e-7).all(), y
            assert abs(b @ y - dual.objective_value) <= tol
        x = dual.duals
        assert (x >= -1e-7).all() and (a @ x >= b - 1e-7).all(), x
        assert abs(c @ x - primal.objective_value) <= tol


def check_set_relation_monotonicity(rng: np.random.Generator, games: int) -> None:
    """Componentwise-worse column payoffs imply payoff-set inclusion.

    Append a row dominated by an existing one; moving probability mass
    onto it can only pull every column payoff down, and the lower payoff
    set must then be contained in the original.
    """
    for _ in range(games):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        game = random_game(rng, m, n, k)
        i0 = int(rng.integers(0, m))
        delta = rng.random((n, k)) * 2.0
        extra = game.entries[i0] - delta  # dominated row: worse in every column
        bigger = VectorPayoffGame(np.concatenate([game.entries, extra[None]], axis=0))

        p = random_mixed(rng, m, Player.ROW)
        alpha = float(rng.random())
        w = list(p.weights) + [0.0]
        moved = w.copy()
        moved[m] = alpha * w[i0]
        moved[i0] = (1.0 - alpha) * w[i0]
        p_ext = MixedStrategy.cleaned(w, owner=Player.ROW)
        p_prime = MixedStrategy.cleaned(moved, owner=Player.ROW)

        before = row_generator_matrix(bigger, p_ext)
        after = row_generator_matrix(bigger, p_prime)
        assert np.all(after <= before + 1e-9), "construction must lower every column"

        inner = build_lower_set(after)
        outer = build_lower_set(before)
        assert poly_subset(inner, outer, tol=1e-7), (
            f"monotonicity violated for p={p.weights}, row {i0}, alpha={alpha}"
        )


def assert_hierarchy(record: EquilibriumRecord) -> None:
    """Flag/classification consistency for one classified pair."""
    c = record.classification
    if record.strong:
        assert record.shapley, f"strong pair not Shapley: {record}"
    both = record.p_minimal and record.q_maximal
    expected = {
        (True, True, True): Classification.STRONG_SET_SHAPLEY,
        (True, True, False): Classification.SET_SHAPLEY,
        (True, False, False): Classification.SET_RELATION,
        (False, True, True): Classification.STRONG_SHAPLEY,
        (False, True, False): Classification.SHAPLEY,
        (False, False, False): Classification.NONE,
    }[(both, record.shapley, record.strong)]
    assert c is expected, (
        f"classification {c} does not match flags p_min={record.p_minimal} "
        f"q_max={record.q_maximal} shapley={record.shapley} strong={record.strong}"
    )
