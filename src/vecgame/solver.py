"""Minimal and maximal mixed strategies located by linear programming.

The test for a row strategy asks whether some other mixture keeps every
column payoff inside the tested strategy's lower set while pushing it
strictly away from each vertex; the total slack achievable is zero
exactly when the strategy is already minimal.  Column strategies run
the same test on the mirrored game, where upper payoff sets become
lower ones.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    Player,
    SimplexGrid,
    VectorPayoffGame,
    col_generator_matrix,
    enumerate_simplex_grid,
    row_generator_matrix,
)
from .lp import LinearProgram, check_feasibility, solve_lp
from .polyhedra import (
    Halfspace,
    OrientedPayoffPolyhedron,
    VERTEX_MERGE_TOL,
    build_lower_set,
    build_upper_set,
    exposing_normal_at_vertex,
    poly_subset,
)

# A strategy counts as minimal/maximal when the improvement LP value
# stays at or below this.
DECISION_TOL = 1e-7
# Default interior margin for the security-image prefilter.
PREFILTER_EPS = 1e-6


@dataclass(frozen=True)
class ScalarizationWeight:
    """Strictly positive Pareto weights, normalized to unit sum."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must form a nonempty vector")
        if not np.isfinite(w).all():
            raise InputError("weights must be finite")
        if np.any(w <= 0):
            raise InputError("scalarization weights must be strictly positive")
        w = w / w.sum()
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def as_array(self) -> np.ndarray:
        return np.array(self.weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of one improvement LP (or a prefilter skip).

    `slacks` holds the per-vertex separation achieved by the best
    improving mixture; their sum is `lp_value`.  A prefiltered
    certificate records a skipped LP: the strategy was certified
    non-minimal by the security-image feasibility test instead, so
    `lp_value` is +inf and no improving strategy is reported.
    """

    tested_strategy: MixedStrategy
    lp_value: float
    improving_strategy: MixedStrategy | None
    is_minimal: bool
    slacks: tuple[float, ...]
    prefiltered: bool = False


@dataclass(frozen=True)
class StrategyFront:
    """Grid classification for one player.

    `certificates` aligns with `grid.points`.  `minimal_or_maximal`
    lists one representative per equivalence class of payoff-identical
    optimal strategies (the lexicographically smallest weights);
    `equivalence_classes` gives the grid indices of every class in the
    same order.
    """

    player: Player
    grid: SimplexGrid
    minimal_or_maximal: tuple[MixedStrategy, ...]
    certificates: tuple[MinimalityCertificate, ...]
    equivalence_classes: tuple[tuple[int, ...], ...]

    def optimal_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.certificates) if c.is_minimal]


def _payoff_polyhedron(game: VectorPayoffGame, strategy: MixedStrategy) -> OrientedPayoffPolyhedron:
    if strategy.owner is Player.ROW:
        return build_lower_set(row_generator_matrix(game, strategy))
    return build_upper_set(col_generator_matrix(game, strategy))


def _lp_strategy(weights, owner: Player) -> MixedStrategy:
    """A strategy read off an LP solution; invalid weights are a numerical fault."""
    try:
        return MixedStrategy.cleaned(weights, owner=owner)
    except InputError as exc:
        raise NumericalError(f"LP returned invalid strategy weights: {exc}") from exc


def _minimality_core(
    game: VectorPayoffGame, pbar: MixedStrategy, tol: float
) -> MinimalityCertificate:
    """Improvement LP for a row strategy on `game`; owner is ROW here."""
    target = build_lower_set(row_generator_matrix(game, pbar))
    if not target.vertices:
        raise NumericalError("payoff set has no identifiable vertex")
    exposing = [exposing_normal_at_vertex(target, v) for v in target.vertices]

    m, n = game.rows, game.cols
    L = len(exposing)
    entries = game.entries
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for h in target.halfspaces:
        scal = entries @ np.array(h.normal)  # (m, n): a·g_ij
        for j in range(n):
            rows.append(np.concatenate([scal[:, j], np.zeros(L)]))
            rhs.append(h.offset)
    for ell, h in enumerate(exposing):
        scal = entries @ np.array(h.normal)
        eps_col = np.zeros(L)
        eps_col[ell] = 1.0
        for j in range(n):
            rows.append(np.concatenate([scal[:, j], eps_col]))
            rhs.append(h.offset)
    rows.append(np.concatenate([np.ones(m), np.zeros(L)]))
    rhs.append(1.0)
    relations = ("<=",) * (len(rows) - 1) + ("=",)

    lp = LinearProgram(
        objective=np.concatenate([np.zeros(m), np.ones(L)]),
        lhs=np.array(rows),
        relations=relations,
        rhs=np.array(rhs),
        sense="max",
    )
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"improvement LP ended with status {out.status}")
    value = float(out.objective_value)
    slacks = tuple(float(s) for s in out.solution[m:])
    if value <= tol:
        return MinimalityCertificate(pbar, value, None, True, slacks)

    improving = _lp_strategy(out.solution[:m], Player.ROW)
    improved = build_lower_set(row_generator_matrix(game, improving))
    if not poly_subset(improved, target, tol=1e-7):
        raise NumericalError(
            "improvement LP produced a strategy whose payoff set is not contained "
            "in the tested one"
        )
    if poly_subset(target, improved, tol=1e-9):
        raise NumericalError(
            "improvement LP reported positive value but the payoff sets coincide"
        )
    return MinimalityCertificate(pbar, value, improving, False, slacks)


def minimality_lp(
    game: VectorPayoffGame, pbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a row strategy for minimality of its lower payoff set."""
    if pbar.owner is not Player.ROW:
        raise InputError("minimality_lp expects a row strategy")
    if len(pbar) != game.rows:
        raise InputError(f"strategy has {len(pbar)} weights, game has {game.rows} rows")
    return _minimality_core(game, pbar, tol)


def maximality_lp(
    game: VectorPayoffGame, qbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a column strategy for maximality of its upper payoff set."""
    if qbar.owner is not Player.COL:
        raise InputError("maximality_lp expects a column strategy")
    if len(qbar) != game.cols:
        raise InputError(f"strategy has {len(qbar)} weights, game has {game.cols} columns")
    cert = _minimality_core(game.mirror(), MixedStrategy(qbar.weights, Player.ROW), tol)
    improving = None
    if cert.improving_strategy is not None:
        improving = MixedStrategy(cert.improving_strategy.weights, Player.COL)
    return MinimalityCertificate(
        tested_strategy=qbar,
        lp_value=cert.lp_value,
        improving_strategy=improving,
        is_minimal=cert.is_minimal,
        slacks=cert.slacks,
    )


def _natural_image_halfspaces(image, owner: Player) -> tuple[Halfspace, ...]:
    """Halfspaces of a security image in the player's natural orientation."""
    player = getattr(image, "player", None)
    if player is not None and player is not owner:
        raise InputError(f"security image belongs to {player}, expected {owner}")
    hs = getattr(image, "halfspaces", image)
    out = tuple(h if isinstance(h, Halfspace) else Halfspace(*h) for h in hs)
    if not out:
        raise InputError("security image supplies no halfspaces")
    return out


def poss_prefilter(
    game: VectorPayoffGame,
    strategy: MixedStrategy,
    image,
    *,
    eps: float = PREFILTER_EPS,
) -> bool:
    """True when the strategy is certifiably non-minimal and may be skipped.

    Feasibility of: a point of the strategy's payoff set lies eps deep
    inside the security image.  Sound but not complete; eps must be > 0.
    """
    if eps <= 0:
        raise InputError("prefilter margin eps must be positive")
    halfspaces = _natural_image_halfspaces(image, strategy.owner)
    if strategy.owner is Player.COL:
        if len(strategy) != game.cols:
            raise InputError("strategy length does not match the game")
        mirrored = tuple(Halfspace(h.normal, -h.offset) for h in halfspaces)
        return poss_prefilter(
            game.mirror(), MixedStrategy(strategy.weights, Player.ROW), mirrored, eps=eps
        )
    if len(strategy) != game.rows:
        raise InputError("strategy length does not match the game")

    k = game.dim
    n = game.cols
    gen = row_generator_matrix(game, strategy)  # (n, K): y_j(pbar)
    rows: list[np.ndarray] = []
    relations: list[str] = []
    rhs: list[float] = []
    # y_k <= sum_j q_j y_j(pbar)_k
    for comp in range(k):
        row = np.zeros(k + n)
        row[comp] = 1.0
        row[k:] = -gen[:, comp]
        rows.append(row)
        relations.append("<=")
        rhs.append(0.0)
    # y - eps*e inside the image: a·y >= b + eps * sum(a)
    for h in halfspaces:
        a = np.asarray(h.normal, dtype=float)
        row = np.zeros(k + n)
        row[:k] = a
        rows.append(row)
        relations.append(">=")
        rhs.append(h.offset + eps * float(a.sum()))
    row = np.zeros(k + n)
    row[k:] = 1.0
    rows.append(row)
    relations.append("=")
    rhs.append(1.0)

    lp = LinearProgram(
        objective=np.zeros(k + n),
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs),
        bounds=((None, None),) * k + ((0.0, None),) * n,
    )
    return check_feasibility(lp).feasible


def _classify_one(args) -> MinimalityCertificate:
    game, player, strategy, halfspaces, tol, eps = args
    if halfspaces is not None and poss_prefilter(game, strategy, halfspaces, eps=eps):
        return MinimalityCertificate(
            tested_strategy=strategy,
            lp_value=float("inf"),
            improving_strategy=None,
            is_minimal=False,
            slacks=(),
            prefiltered=True,
        )
    if player is Player.ROW:
        return minimality_lp(game, strategy, tol=tol)
    return maximality_lp(game, strategy, tol=tol)


def _poly_equal(a: OrientedPayoffPolyhedron, b: OrientedPayoffPolyhedron) -> bool:
    if a.vertices and b.vertices:
        if len(a.vertices) != len(b.vertices):
            return False
        return all(
            max(abs(x - y) for x, y in zip(u, v)) <= VERTEX_MERGE_TOL
            for u, v in zip(a.vertices, b.vertices)
        )
    return poly_subset(a, b, tol=VERTEX_MERGE_TOL) and poly_subset(b, a, tol=VERTEX_MERGE_TOL)


def classify_grid(
    game: VectorPayoffGame,
    player: Player,
    step,
    use_prefilter: bool = False,
    *,
    tol: float = DECISION_TOL,
    eps: float = PREFILTER_EPS,
    workers: int | None = None,
    image=None,
) -> StrategyFront:
    """Run the minimality (maximality) test on every grid strategy.

    Certificates come back in grid order regardless of `workers`.  With
    `use_prefilter` the security image is computed once (or taken from
    `image`) and grid points certified non-minimal by the feasibility
    test skip their LP.
    """
    dim = game.rows if player is Player.ROW else game.cols
    grid = enumerate_simplex_grid(dim, step, owner=player)

    halfspaces = None
    if use_prefilter:
        if image is None:
            from .poss import compute_security_image

            image = compute_security_image(game, player)
        halfspaces = _natural_image_halfspaces(image, player)

    tasks = [(game, player, pt, halfspaces, tol, eps) for pt in grid.points]
    if workers is not None and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            certificates = list(pool.map(_classify_one, tasks, chunksize=8))
    else:
        certificates = [_classify_one(t) for t in tasks]

    polys: dict[int, OrientedPayoffPolyhedron] = {}
    classes: list[list[int]] = []
    for idx, cert in enumerate(certificates):
        if not cert.is_minimal:
            continue
        polys[idx] = _payoff_polyhedron(game, cert.tested_strategy)
        for members in classes:
            if _poly_equal(polys[members[0]], polys[idx]):
                members.append(idx)
                break
        else:
            classes.append([idx])

    representatives = tuple(certificates[c[0]].tested_strategy for c in classes)
    return StrategyFront(
        player=player,
        grid=grid,
        minimal_or_maximal=representatives,
        certificates=tuple(certificates),
        equivalence_classes=tuple(tuple(c) for c in classes),
    )


@dataclass(frozen=True)
class ImprovementResult:
    strategy: MixedStrategy
    certificate: MinimalityCertificate
    improvement_steps: int
    converged: bool


def improve_to_minimal(
    game: VectorPayoffGame,
    p0: MixedStrategy,
    max_iter: int = 25,
    *,
    tol: float = DECISION_TOL,
) -> ImprovementResult:
    """Follow improving strategies until the LP certifies minimality.

    The lower payoff set shrinks strictly at every step; `max_iter`
    bounds the number of improvement steps, and a run that exhausts it
    comes back with converged=False and the last certificate.
    """
    if max_iter < 0:
        raise InputError("max_iter must be nonnegative")
    cur = p0
    cert = minimality_lp(game, cur, tol=tol)
    steps = 0
    while not cert.is_minimal and steps < max_iter:
        cur = cert.improving_strategy
        steps += 1
        cert = minimality_lp(game, cur, tol=tol)
    return ImprovementResult(cur, cert, steps, cert.is_minimal)


def improve_to_maximal(
    game: VectorPayoffGame,
    q0: MixedStrategy,
    max_iter: int = 25,
    *,
    tol: float = DECISION_TOL,
) -> ImprovementResult:
    """Column-player counterpart of improve_to_minimal."""
    if max_iter < 0:
        raise InputError("max_iter must be nonnegative")
    cur = q0
    cert = maximality_lp(game, cur, tol=tol)
    steps = 0
    while not cert.is_minimal and steps < max_iter:
        cur = cert.improving_strategy
        steps += 1
        cert = maximality_lp(game, cur, tol=tol)
    return ImprovementResult(cur, cert, steps, cert.is_minimal)


def scalarized_game_solve(
    game: VectorPayoffGame, weight: ScalarizationWeight, player: Player
) -> MixedStrategy:
    """Optimal strategy of the scalar game with entries weight·g_ij."""
    if len(weight) != game.dim:
        raise InputError(f"weight has {len(weight)} components, game payoffs have {game.dim}")
    scal = game.entries @ weight.as_array()  # (m, n)
    m, n = scal.shape
    if player is Player.ROW:
        # min u  s.t.  sum_i p_i scal_ij <= u for all j, p in simplex
        rows = [np.concatenate([scal[:, j], [-1.0]]) for j in range(n)]
        rows.append(np.concatenate([np.ones(m), [0.0]]))
        lp = LinearProgram(
            objective=np.concatenate([np.zeros(m), [1.0]]),
            lhs=np.array(rows),
            relations=("<=",) * n + ("=",),
            rhs=np.concatenate([np.zeros(n), [1.0]]),
            sense="min",
            bounds=((0.0, None),) * m + ((None, None),),
        )
        size = m
    elif player is Player.COL:
        # max u  s.t.  sum_j scal_ij q_j >= u for all i, q in simplex
        rows = [np.concatenate([scal[i, :], [-1.0]]) for i in range(m)]
        rows.append(np.concatenate([np.ones(n), [0.0]]))
        lp = LinearProgram(
            objective=np.concatenate([np.zeros(n), [1.0]]),
            lhs=np.array(rows),
            relations=(">=",) * m + ("=",),
            rhs=np.concatenate([np.zeros(m), [1.0]]),
            sense="max",
            bounds=((0.0, None),) * n + ((None, None),),
        )
        size = n
    else:
        raise InputError(f"unknown player {player!r}")
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"scalar game LP ended with status {out.status}")
    return _lp_strategy(out.solution[:size], player)
