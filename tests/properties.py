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
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from vecgame.equilibria import Classification, EquilibriumRecord, _boundary_mask
from vecgame.errors import InputError, NumericalError
from vecgame.game import (
    MixedStrategy,
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    enumerate_simplex_grid,
    expected_payoffs,
    row_generator_matrix,
)
from vecgame.lp import LinearProgram, LPOutcome, solve_batch, solve_lp
from vecgame.polyhedra import (
    ACTIVE_TOL,
    LOWER,
    VERTEX_MERGE_TOL,
    OrientedPayoffPolyhedron,
    _dot,
    build_lower_set,
    build_upper_set,
)
from vecgame.poss import GAP_EPS, _row_view
from vecgame.solver import MinimalityCertificate, StrategyFront, minimality_lp

import exact_oracle


def expected_payoff(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> np.ndarray:
    """v(p, q) = sum_ij p_i g_ij q_j, the expected vector loss of player I."""
    return expected_payoffs(game, (p,), (q,))[0, 0]


def componentwise_security_point(game: VectorPayoffGame, strategy: MixedStrategy) -> np.ndarray:
    """Worst-case payoff per component: w(p) = max_j y_j(p) for the row
    player.  Player II's is the negated row answer on the mirrored game,
    the componentwise min over rows."""
    sign = 1.0 if strategy.owner is Player.ROW else -1.0
    worst = row_generator_matrix(game.for_player(strategy.owner), strategy).max(axis=0)
    return sign * worst


def contains_point(poly: OrientedPayoffPolyhedron, y, *, tol: float = 1e-9) -> bool:
    """Whether the point y, or every row of an (N, K) array y, lies in poly."""
    yv = np.asarray(y, dtype=float)
    if yv.ndim not in (1, 2) or yv.shape[-1] != poly.dim:
        raise InputError(f"point has dimension {yv.shape}, polyhedron has {poly.dim}")
    values = yv @ poly.normals.T
    if poly.orientation == LOWER:
        return bool(np.all(values <= poly.offsets + tol))
    return bool(np.all(values >= poly.offsets - tol))


def poly_subset(
    a: OrientedPayoffPolyhedron, b: OrientedPayoffPolyhedron, *, tol: float = 1e-9
) -> bool:
    """A ⊆ B; valid because both share the same orthant recession cone."""
    if a.orientation != b.orientation:
        raise InputError("cannot compare polyhedra of different orientations")
    return contains_point(b, a.generators, tol=tol)


def support_value(poly: OrientedPayoffPolyhedron, direction) -> float:
    """max of w·y over a lower set / min over an upper set, w in R^K_+."""
    w = np.asarray(direction, dtype=float)
    if w.shape != (poly.dim,):
        raise InputError("direction dimension mismatch")
    if np.any(w < -1e-12):
        raise InputError("support value is unbounded for directions outside R^K_+")
    vals = poly.generators @ w
    return float(vals.max() if poly.orientation == LOWER else vals.min())


def exposing_normals(poly: OrientedPayoffPolyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex v of a lower set, one set at a time: the strictly positive
    unit-sum normal c that sums the facet normals active at v, and its offset
    c·v; each check raises the `NumericalError` the package raises for it.
    The reference for the stacked build of `solver`."""
    active = np.abs(poly.vertices @ poly.normals.T - poly.offsets) <= ACTIVE_TOL
    sums = np.where(active[:, :, None], poly.normals, 0.0).sum(axis=1)
    totals = sums.sum(axis=1, keepdims=True)
    if np.any(totals == 0.0):
        v = poly.vertices[np.flatnonzero(totals[:, 0] == 0.0)[0]]
        raise NumericalError(f"no active facet at the claimed vertex {tuple(v)}")
    normals = sums / totals
    offsets = np.array([float(c @ v) for c, v in zip(normals, poly.vertices)])
    bad = np.flatnonzero(np.any(normals <= 1e-12, axis=1))
    if bad.size:
        v, c = poly.vertices[bad[0]], normals[bad[0]]
        raise NumericalError(
            f"exposing normal has a zero component at vertex {tuple(v)}: {tuple(c)}"
        )
    # a generator within VERTEX_MERGE_TOL of v is v itself and is not tested
    values = poly.generators @ normals.T
    exposed = values < offsets - 1e-12 * (1.0 + np.abs(offsets))
    same = np.abs(poly.generators[:, None, :] - poly.vertices[None, :, :]).max(axis=2)
    failed = np.argwhere(~exposed & (same > VERTEX_MERGE_TOL))
    if failed.size:
        g, i = failed[0]
        raise NumericalError(
            f"exposure failed at vertex {tuple(poly.vertices[i])}: generator "
            f"{tuple(poly.generators[g])} sits on the supporting hyperplane "
            f"(value {values[g, i]}, offset {offsets[i]})"
        )
    return normals, offsets


def improvement_lp(
    game: VectorPayoffGame, target: OrientedPayoffPolyhedron, pbar: MixedStrategy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The improvement LP of the row strategy `pbar`, whose lower payoff set
    is `target`, built one strategy at a time: the exposing normals (L, K),
    their offsets (L,), and the LP's `lhs` and `rhs` in the shifted
    variables (d, eps) of `solver`.  The reference for the stacked build."""
    if not len(target.vertices):
        raise NumericalError("payoff set has no identifiable vertex")
    exp_normals, exp_offsets = exposing_normals(target)
    m, n = game.rows, game.cols
    L = len(exp_offsets)
    normals = np.vstack([target.normals, exp_normals])
    R = len(normals) * n
    scal = np.array([game.entries @ a for a in normals])  # (blocks, m, n)
    p = pbar.as_array()
    offsets = np.concatenate([target.offsets, exp_offsets])
    room = (offsets[:, None] - _dot(scal.transpose(0, 2, 1), p)).ravel()
    if room.min() < -1e-7:
        raise NumericalError("a generator of the tested strategy lies outside its payoff set")
    lhs = np.zeros((R + m, m - 1 + L))
    lhs[:R, : m - 1] = (scal[:, :-1] - scal[:, -1:]).transpose(0, 2, 1).reshape(R, m - 1)
    lhs[R - L * n + np.arange(L * n), m - 1 + np.repeat(np.arange(L), n)] = 1.0
    lhs[R + np.arange(m - 1), np.arange(m - 1)] = -1.0
    lhs[R + m - 1, : m - 1] = 1.0
    rhs = np.concatenate([np.where(room < 0.0, 0.0, room), p])
    return exp_normals, exp_offsets, lhs, rhs


def stack_lps(lps) -> LinearProgram:
    """One stack of the LPs `lps`, which must differ only in lhs and rhs."""
    first = lps[0]
    for lp in lps:
        assert np.array_equal(lp.objective, first.objective)
        assert (lp.bounds, lp.sense) == (first.bounds, first.sense)
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


def benson_cut_by_highs(entries: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The dual of the vertex verification LP, written out as an LP of its
    own and solved by HiGHS: weights w_jk >= 0 with unit sum and a free
    level mu <= sum_jk w_jk g_ijk for every row i, maximizing
    mu - sum_jk w_jk v_k.  Returns its optimum, the lift of v, and Benson's
    cut a·y >= b through v, (a, b) = (sum_j w_jk, mu)."""
    m, n, k = entries.shape
    nw = n * k
    res = linprog(
        np.append(np.tile(v, n), -1.0),
        A_ub=np.hstack([-entries.reshape(m, nw), np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.append(np.ones(nw), 0.0)[None],
        b_eq=[1.0],
        bounds=[(0.0, None)] * nw + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun), res.x[:nw].reshape(n, k).sum(axis=0), float(res.x[nw])


def benson_cut_by_lp(entries: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Benson's cut through v from `benson_cut_by_highs`."""
    _, normal, offset = benson_cut_by_highs(entries, v)
    assert float(normal @ v) < offset - 1e-10
    return normal, offset


def certify_every_grid_point(game: VectorPayoffGame, player: Player, step) -> StrategyFront:
    """A front of `player` that certifies every grid strategy optimal, each
    with the lower payoff set built from its generators in the owner's view,
    as `classify_grid` would attach it to an optimal certificate."""
    oriented = game.for_player(player)
    grid = enumerate_simplex_grid(oriented.rows, step, owner=player)
    certificates = tuple(
        MinimalityCertificate(
            s, 0.0, None, True, build_lower_set(row_generator_matrix(oriented, s))
        )
        for s in grid.points
    )
    return StrategyFront(player, grid, (), certificates, ())


def gap_violations_by_lp(front, image) -> list[tuple[MixedStrategy, int]]:
    """The gap check in payoff space, by HiGHS: for each optimal certificate
    and each component k, one feasibility LP over a free payoff point w that
    must lie in the certificate's payoff set (its F_P halfspaces) and in the
    image shifted by GAP_EPS along e_k (its F_I halfspaces).  A feasible LP
    is a violation (strategy, k)."""
    img = _row_view(image)
    k = img.dim
    violations = []
    for cert in front.certificates:
        if not cert.is_minimal:
            continue
        poly = cert.payoff_set
        lhs = np.vstack([poly.normals, -img.normals])
        for kk in range(k):
            res = linprog(
                np.zeros(k),
                A_ub=lhs,
                b_ub=np.concatenate([poly.offsets, -(img.offsets + GAP_EPS * img.normals[:, kk])]),
                bounds=[(None, None)] * k,
                method="highs",
            )
            assert res.status in (0, 2), res.message
            if res.status == 0:
                violations.append((cert.tested_strategy, kk))
    return violations


def meets_shifted_image_exactly(generators: np.ndarray, image, k: int) -> bool:
    """Whether co(generators) - R^K_+ meets the image shifted by GAP_EPS
    along e_k, decided in rational arithmetic on the same floats: some mu
    in the simplex with A Y^T mu >= b + GAP_EPS A[:, k] (`exact_oracle.maximize`)."""
    img = _row_view(image)
    A = [[Fraction(a) for a in row] for row in img.normals.tolist()]
    Y = [[Fraction(y) for y in row] for row in generators.tolist()]
    eps = Fraction(GAP_EPS)
    rows = [
        ([exact_oracle.dot(a, y) for y in Y], ">=", Fraction(b) + eps * a[k])
        for a, b in zip(A, img.offsets.tolist())
    ]
    rows.append(([Fraction(1)] * len(Y), "=", Fraction(1)))
    return exact_oracle.maximize([Fraction(0)] * len(Y), rows) is not None


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
    return bool(_boundary_mask(vi, expected_payoff(game, p, q)[None])[0])


def on_col_frontier(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    """Whether the pair's payoff is Pareto-minimal in V_II(q), the column player's upper set."""
    vii = build_upper_set(col_generator_matrix(game, q))
    return bool(_boundary_mask(vii, expected_payoff(game, p, q)[None])[0])


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
    """The package's optimum of  max c·x  s.t.  a x <= b, x >= 0  equals
    HiGHS's optimum of its dual  min b·y  s.t.  a^T y >= c, y >= 0, and the
    duals read off the package's tableau are an optimal solution of that
    dual; the same LP as  min -c·x  reads the negated value and duals."""
    for _ in range(count):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        a = rng.integers(-4, 5, size=(m, n)).astype(float)
        y0 = rng.random(m) * 2.0
        b = rng.random(m) * 2.0  # x = 0 is feasible: the LP starts at its slack basis
        c = a.T @ y0 - rng.random(n)  # dual strictly feasible at y0: the primal is bounded

        primal = solve_lp(LinearProgram(objective=c, lhs=a, rhs=b, sense="max"))
        negated = solve_lp(LinearProgram(objective=-c, lhs=a, rhs=b, sense="min"))
        dual = linprog(b, A_ub=-a.T, b_ub=-c, bounds=[(0.0, None)] * m, method="highs")
        assert dual.status == 0, dual.message
        assert primal.status == negated.status == "optimal"
        tol = 1e-7 * (1.0 + abs(dual.fun))
        gap = abs(primal.objective_value - dual.fun)
        assert gap <= tol, f"duality gap {gap} (primal {primal.objective_value}, dual {dual.fun})"
        assert abs(negated.objective_value + dual.fun) <= tol
        x = primal.solution
        assert (x >= -1e-9).all() and (a @ x <= b + 1e-9).all(), x
        # the `<=` rows' duals are >= 0 in the `max` LP and <= 0 in the `min` LP
        for y in (primal.duals, -negated.duals):
            assert (y >= -1e-7).all() and (a.T @ y >= c - 1e-7).all(), y
            assert abs(b @ y - dual.fun) <= tol


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
