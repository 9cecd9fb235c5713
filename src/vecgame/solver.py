"""Minimal and maximal mixed strategies located by linear programming.

The test for a row strategy asks whether some other mixture keeps every
column payoff inside the tested strategy's lower set while pushing it
strictly away from each vertex; the total slack achievable is zero
exactly when the strategy is already minimal.  Column strategies run
the same test on the mirrored game, where upper payoff sets become
lower ones: each entry point mirrors once, at the edge.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    Player,
    SimplexGrid,
    VectorPayoffGame,
    enumerate_simplex_grid,
    row_generator_matrix,
)
from .lp import LinearProgram, LPOutcome, solve_batch
from .polyhedra import (
    OrientedPayoffPolyhedron,
    VERTEX_MERGE_TOL,
    _dot,
    build_lower_set,
    contains_point,
    exposing_normals,
)

# A strategy counts as minimal/maximal when the improvement LP value
# stays at or below this.
DECISION_TOL = 1e-7
# The most grid points one `classify_grid` task certifies.  Serial fronts
# of both players of a 4x4x3 game at 1/16 (969 points each) took, median
# of 7 runs on a 2-vCPU Xeon: blocks of 1, 2.77 s CPU at 35.0 MB peak RSS;
# of 64, 2.16 s at 38.8 MB; of 485, 1.88 s at 60.9 MB.  The cap keeps a
# task's memory from growing with the grid.
GRID_BLOCK = 64


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of one improvement LP.

    `slacks` holds the per-vertex separation achieved by the best
    improving mixture; their sum is `lp_value`.  An optimal certificate
    carries the lower payoff set it tested, in the owner's view of the
    game, in `payoff_set`, so that fronts, pairs and the gap check never
    build it again; other certificates leave it None.
    """

    tested_strategy: MixedStrategy
    lp_value: float
    improving_strategy: MixedStrategy | None
    is_minimal: bool
    slacks: tuple[float, ...]
    payoff_set: OrientedPayoffPolyhedron | None = None

    def __post_init__(self) -> None:
        if self.is_minimal and self.payoff_set is None:
            raise InputError("an optimal certificate must carry its payoff set")


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


def _lp_strategy(weights, owner: Player) -> MixedStrategy:
    """A strategy read off an LP solution; invalid weights are a numerical fault."""
    try:
        return MixedStrategy.cleaned(weights, owner=owner)
    except InputError as exc:
        raise NumericalError(f"LP returned invalid strategy weights: {exc}") from exc


class _Built(NamedTuple):
    """A tested strategy's lower payoff set, its exposing normals (L, K) and
    offsets (L,), and its improvement LP's constraint matrix and rhs, in the
    shifted variables (d, eps) of `_improvement_lp`."""

    target: OrientedPayoffPolyhedron
    exp_normals: np.ndarray
    exp_offsets: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def _improvement_lp(
    game: VectorPayoffGame, target: OrientedPayoffPolyhedron, pbar: MixedStrategy
) -> _Built:
    """Build stage of the improvement LP for the row strategy `pbar` of `game`,
    whose lower payoff set is `target`.

    The LP runs in the shift d = p - pbar from the tested strategy, with
    d_m = -sum_{i<m} d_i, over the variables (d_1..d_{m-1} free, eps >= 0)
    and maximizes sum(eps).  Each halfspace and each exposing normal a with
    offset b gives a block of n rows
        sum_{i<m} d_i (a·g_ij - a·g_mj) <= b - sum_i pbar_i a·g_ij  (j = 1..n),
    where the block of exposing normal ell also carries eps_ell; then the
    rows -d_i <= pbar_i (i < m) and sum(d) <= pbar_m keep p >= 0.

    Every generator of pbar lies in its own lower set and under every
    exposing normal, so each rhs is >= 0 and d = 0, eps = 0 is the slack
    basis: the simplex starts feasible and runs no phase 1.  A rhs that
    rounding left in [-1e-7, 0), the containment tolerance of
    `_check_improvement`, is set to 0; a lower one is a numerical fault.
    """
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
    return _Built(target, exp_normals, exp_offsets, lhs, rhs)


def _solve_improvement_lps(m: int, built: Sequence[_Built]) -> list[LPOutcome]:
    """Solve stage: the outcome of each built LP, in order.

    The LPs are stacked by `lhs` shape, which fixes the facet and exposing
    normal counts and so the objective (0_{m-1}, 1_L), the relations and
    the bounds; each stack is one `solve_batch` call.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(built):
        groups.setdefault(b.lhs.shape, []).append(i)
    outcomes: list[LPOutcome | None] = [None] * len(built)
    for (rows, cols), idx in groups.items():
        lp = LinearProgram(
            objective=np.concatenate([np.zeros(m - 1), np.ones(cols - m + 1)]),
            lhs=np.stack([built[i].lhs for i in idx]),
            relations=("<=",) * rows,
            rhs=np.stack([built[i].rhs for i in idx]),
            sense="max",
            bounds=((None, None),) * (m - 1) + ((0.0, None),) * (cols - m + 1),
        )
        for i, out in zip(idx, solve_batch(lp)):
            outcomes[i] = out
    return outcomes


def _check_improvement(
    game: VectorPayoffGame, pbar: MixedStrategy, built: _Built, out: LPOutcome, tol: float
) -> MinimalityCertificate:
    """Check stage: the certificate of `pbar` from its improvement LP's outcome."""
    if out.status != "optimal":
        raise NumericalError(f"improvement LP ended with status {out.status}")
    target, exp_normals, exp_offsets, _, _ = built
    m = game.rows
    value = float(out.objective_value)
    slacks = tuple(float(s) for s in out.solution[m - 1 :])
    if value <= tol:
        return MinimalityCertificate(pbar, value, None, True, slacks, target)

    # Both checks read the improving strategy's generators y_j against the
    # tested set; no second set is built.  The set is contained when every
    # y_j satisfies the tested halfspaces, and it differs when some exposing
    # normal separates every y_j from its vertex, which leaves that vertex out.
    d, p = out.solution[: m - 1], pbar.as_array()
    improving = _lp_strategy(np.append(p[:-1] + d, p[-1] - d.sum()), pbar.owner)
    points = row_generator_matrix(game, improving)
    if not contains_point(target, points, tol=1e-7):
        raise NumericalError(
            "improvement LP produced a strategy whose payoff set is not contained "
            "in the tested one"
        )
    if not np.any((points @ exp_normals.T).max(axis=0) < exp_offsets - 1e-9):
        raise NumericalError(
            "improvement LP reported positive value but the payoff sets coincide"
        )
    return MinimalityCertificate(pbar, value, improving, False, slacks)


def _certificates(
    game: VectorPayoffGame, points: Sequence[MixedStrategy], tol: float
) -> list[MinimalityCertificate]:
    """The certificates of a block of row strategies of `game`, in order.

    `game` is already the owner's view (`game.for_player(owner)`); each
    improving strategy keeps its tested strategy's owner.  The block's lower
    sets are built in one call, then every LP of the block is built, solved
    in stacks and checked.
    """
    targets = build_lower_set(np.stack([row_generator_matrix(game, p) for p in points]))
    built = [_improvement_lp(game, t, p) for t, p in zip(targets, points)]
    outcomes = _solve_improvement_lps(game.rows, built)
    return [_check_improvement(game, *args, tol) for args in zip(points, built, outcomes)]


def _certificate(
    game: VectorPayoffGame, strategy: MixedStrategy, tol: float
) -> MinimalityCertificate:
    """Minimality (row) or maximality (column) test, keyed on the strategy's owner:
    a block of one, whose stack of one runs the scalar pivot loop."""
    return _certificates(game.for_player(strategy.owner), [strategy], tol)[0]


def _require_owner(strategy: MixedStrategy, player: Player) -> None:
    if strategy.owner is not player:
        raise InputError(f"expected a strategy of player {player.value}")


def minimality_lp(
    game: VectorPayoffGame, pbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a row strategy for minimality of its lower payoff set."""
    _require_owner(pbar, Player.ROW)
    return _certificate(game, pbar, tol)


def maximality_lp(
    game: VectorPayoffGame, qbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a column strategy for maximality of its upper payoff set."""
    _require_owner(qbar, Player.COL)
    return _certificate(game, qbar, tol)


def check_workers(workers: int | None) -> None:
    """A worker count is None (serial) or at least 1."""
    if workers is not None and workers < 1:
        raise InputError("workers must be at least 1")


def pool_map(fn: Callable, items: Sequence, workers: int | None) -> list:
    """[fn(x) for x in items], in order; in a pool of `workers` processes,
    but never more than one per item, when there are more than one of each.

    The cap matters under `fork`, where the executor starts all its
    processes at the first submit."""
    check_workers(workers)
    if workers is not None and workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def pool_parts(workers: int | None) -> int:
    """How many tasks to cut a job into: four a worker in a pool, one when serial."""
    return 4 * workers if workers is not None and workers > 1 else 1


def _grid_blocks(count: int, workers: int | None) -> list[slice]:
    """Contiguous near-equal blocks of `count` grid points, `pool_parts` of
    them or more where a block would exceed GRID_BLOCK points.  Empty
    blocks are left out."""
    nblocks = max(pool_parts(workers), -(-count // GRID_BLOCK))
    cuts = [count * k // nblocks for k in range(nblocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def classify_grid(
    game: VectorPayoffGame,
    player: Player,
    step,
    *,
    tol: float = DECISION_TOL,
    workers: int | None = None,
) -> StrategyFront:
    """Run the minimality (maximality) test on every grid strategy.

    Each block of `_grid_blocks` is one task, which solves its LPs in
    stacks.  Certificates come back in grid order regardless of `workers`.
    """
    oriented = game.for_player(player)
    grid = enumerate_simplex_grid(oriented.rows, step, owner=player)

    tasks = [grid.points[block] for block in _grid_blocks(len(grid.points), workers)]
    certificates = [
        cert
        for block in pool_map(partial(_certificates, oriented, tol=tol), tasks, workers)
        for cert in block
    ]

    # Two optimal sets are one class when their vertex lists agree within
    # VERTEX_MERGE_TOL; each set joins the first such class, and is compared
    # in one call with the representatives of its vertex count.
    classes: list[list[int]] = []
    by_count: dict[int, tuple[list[int], np.ndarray]] = {}
    for idx, cert in enumerate(certificates):
        if not cert.is_minimal:
            continue
        verts = cert.payoff_set.vertices
        ids, stacked = by_count.get(len(verts), ([], np.zeros((0, *verts.shape))))
        match = np.flatnonzero(np.abs(stacked - verts).max(axis=(1, 2)) <= VERTEX_MERGE_TOL)
        if match.size:
            classes[ids[match[0]]].append(idx)
        else:
            ids.append(len(classes))
            by_count[len(verts)] = (ids, np.concatenate([stacked, verts[None]]))
            classes.append([idx])

    representatives = tuple(certificates[c[0]].tested_strategy for c in classes)
    return StrategyFront(
        player=player,
        grid=grid,
        minimal_or_maximal=representatives,
        certificates=tuple(certificates),
        equivalence_classes=tuple(tuple(c) for c in classes),
    )
