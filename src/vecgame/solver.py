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
from typing import Callable, Sequence

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
from .lp import LinearProgram, LPOutcome, clip_rhs, solve_batch
from .polyhedra import (
    OrientedPayoffPolyhedron,
    VERTEX_MERGE_TOL,
    _dot,
    build_lower_set,
    exposing_normals,
)

# A strategy counts as minimal/maximal when the improvement LP value
# stays at or below this.
DECISION_TOL = 1e-7
# The most grid points one `classify_grid` task certifies.  Serial fronts
# of both players of a 4x4x3 game at 1/16 (969 points each) took, median
# of 7 runs on a 2-vCPU Xeon: blocks of 1, 4.69 s CPU at 39.5 MB peak RSS;
# of 64, 1.13 s at 39.3 MB; of 128, 1.02 s at 39.5 MB; of 485, 0.92 s at
# 41.7 MB.  The cap keeps a task's memory from growing with the grid.
GRID_BLOCK = 128
# The grid points a pool process must be given to pay for its start; a
# job of fewer than two such shares runs serially (README, "When a pool
# pays").  At 2 x GRID_BLOCK, every pool process gets two or more blocks.
GRID_BREAK_EVEN = 256


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of one improvement LP: its value, the verdict, and the
    improving mixture when the value exceeds the tolerance.  An optimal
    certificate carries the lower payoff set it tested, in the owner's view
    of the game, in `payoff_set`, so that fronts, pairs and the gap check
    never build it again; other certificates leave it None.
    """

    tested_strategy: MixedStrategy
    lp_value: float
    improving_strategy: MixedStrategy | None
    is_minimal: bool
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


def _improvement_lps(
    game: VectorPayoffGame, targets: list[OrientedPayoffPolyhedron], pbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray, LinearProgram]:
    """Build stage of the improvement LPs of the row strategies `pbar` (B, m)
    of `game`, whose lower payoff sets `targets` share F facets and V >= 1
    vertices: their exposing normals, offsets and LPs, in one pass.

    Each LP runs in the shift d = p - pbar from the tested strategy, with
    d_m = -sum_{i<m} d_i, over the variables (d_1..d_{m-1} free, eps >= 0)
    and maximizes sum(eps).  Each halfspace and each exposing normal a with
    offset b gives a block of n rows
        sum_{i<m} d_i (a·g_ij - a·g_mj) <= b - sum_i pbar_i a·g_ij  (j = 1..n),
    where the block of exposing normal ell also carries eps_ell; then the
    rows -d_i <= pbar_i (i < m) and sum(d) <= pbar_m keep p >= 0.

    Every generator of pbar lies in its own lower set and under every
    exposing normal, so each rhs is >= 0 and d = 0, eps = 0 is the slack
    basis, where the simplex starts.  `clip_rhs` sets a rhs that rounding
    left in [-1e-7, 0), the containment tolerance of `_check_improvements`,
    to 0; a lower one is a numerical fault.

    The products are stacked matmuls, which round as the one-set products
    `entries @ a` and `c @ v` do, and the rhs sums run in `_dot`.
    """
    m, n = game.rows, game.cols
    B, L = len(targets), len(targets[0].vertices)
    vertices = np.stack([t.vertices for t in targets])
    normals = np.stack([t.normals for t in targets])
    offsets = np.stack([t.offsets for t in targets])
    # the generator counts may differ; a set's first generator fills its list
    most = max(len(t.generators) for t in targets)
    generators = np.stack([
        np.concatenate([t.generators, np.repeat(t.generators[:1], most - len(t.generators), 0)])
        for t in targets
    ])
    exp_normals, exp_offsets = exposing_normals(normals, offsets, vertices, generators)

    blocks = np.concatenate([normals, exp_normals], axis=1)
    R = blocks.shape[1] * n
    scal = (game.entries @ blocks[:, :, None, :, None])[..., 0]  # (B, blocks, m, n)
    room = np.concatenate([offsets, exp_offsets], axis=1)[:, :, None] - _dot(
        scal.transpose(0, 1, 3, 2), pbar[:, None, None, :]
    )
    room = clip_rhs(
        room.reshape(B, R), "a generator of the tested strategy lies outside its payoff set"
    )
    lhs = np.zeros((B, R + m, m - 1 + L))
    lhs[:, :R, : m - 1] = (scal[:, :, :-1] - scal[:, :, -1:]).transpose(0, 1, 3, 2).reshape(
        B, R, m - 1
    )
    lhs[:, R - L * n + np.arange(L * n), m - 1 + np.repeat(np.arange(L), n)] = 1.0
    lhs[:, R + np.arange(m - 1), np.arange(m - 1)] = -1.0
    lhs[:, R + m - 1, : m - 1] = 1.0
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(m - 1), np.ones(L)]),
        lhs=lhs,
        rhs=np.concatenate([room, pbar], axis=1),
        sense="max",
        bounds=((None, None),) * (m - 1) + ((0.0, None),) * L,
    )
    return exp_normals, exp_offsets, lp


def _check_improvements(
    game: VectorPayoffGame, points: Sequence[MixedStrategy],
    targets: Sequence[OrientedPayoffPolyhedron], exp_normals: np.ndarray,
    exp_offsets: np.ndarray, outcomes: Sequence[LPOutcome], tol: float,
) -> list[MinimalityCertificate]:
    """Check stage: the certificates of one group's strategies `points`, in
    order, from the outcomes of their improvement LPs.  `targets` are the
    strategies' lower sets and `exp_normals` (B, V, K), `exp_offsets` (B, V)
    the exposing normals and offsets `_improvement_lps` built for them."""
    m = game.rows
    for out in outcomes:
        if out.status != "optimal":
            raise NumericalError(f"improvement LP ended with status {out.status}")
    certificates = []
    improved = []
    for pbar, target, out in zip(points, targets, outcomes):
        value = float(out.objective_value)
        if value <= tol:
            certificates.append(MinimalityCertificate(pbar, value, None, True, target))
            continue
        d, p = out.solution[: m - 1], pbar.as_array()
        improving = _lp_strategy(np.append(p[:-1] + d, p[-1] - d.sum()), pbar.owner)
        improved.append(len(certificates))
        certificates.append(MinimalityCertificate(pbar, value, improving, False))
    if not improved:
        return certificates

    # Both checks read the improving strategies' generators y_j against the
    # tested sets; no second set is built.  A set is contained when every
    # y_j satisfies the tested halfspaces, and it differs when some exposing
    # normal separates every y_j from its vertex, which leaves that vertex out.
    ys = np.stack([
        row_generator_matrix(game, certificates[k].improving_strategy) for k in improved
    ])
    normals = np.stack([targets[k].normals for k in improved])
    offsets = np.stack([targets[k].offsets for k in improved])
    if not np.all(ys @ normals.transpose(0, 2, 1) <= offsets[:, None, :] + 1e-7):
        raise NumericalError(
            "improvement LP produced a strategy whose payoff set is not contained "
            "in the tested one"
        )
    separated = (ys @ exp_normals[improved].transpose(0, 2, 1)).max(axis=1) < (
        exp_offsets[improved] - 1e-9
    )
    if not np.all(np.any(separated, axis=1)):
        raise NumericalError(
            "improvement LP reported positive value but the payoff sets coincide"
        )
    return certificates


def _certificates(
    game: VectorPayoffGame, points: Sequence[MixedStrategy], tol: float
) -> tuple[list[MinimalityCertificate], tuple[OrientedPayoffPolyhedron, ...]]:
    """The certificates of a block of row strategies of `game`, in order,
    and the lower sets they tested.

    `game` is already the owner's view (`game.for_player(owner)`); each
    improving strategy keeps its tested strategy's owner.  The block's lower
    sets are built in one call.  The strategies whose sets share a facet
    and a vertex count have LPs of one shape, and form a group.  The groups
    run in first-seen order, one at a time: a group's LPs are built in one
    pass, solved as one stack and checked before the next group's are built.
    """
    targets = build_lower_set(np.stack([row_generator_matrix(game, p) for p in points]))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(targets):
        if not len(t.vertices):
            raise NumericalError("payoff set has no identifiable vertex")
        groups.setdefault((len(t.offsets), len(t.vertices)), []).append(i)
    certificates: list[MinimalityCertificate | None] = [None] * len(points)
    for members in groups.values():
        group = [points[i] for i in members]
        sets = [targets[i] for i in members]
        pbar = np.array([p.weights for p in group])
        exp_normals, exp_offsets, lp = _improvement_lps(game, sets, pbar)
        outcomes = solve_batch(lp)
        checked = _check_improvements(game, group, sets, exp_normals, exp_offsets, outcomes, tol)
        for i, cert in zip(members, checked):
            certificates[i] = cert
    return certificates, targets


def _certificate(
    game: VectorPayoffGame, strategy: MixedStrategy, tol: float
) -> tuple[MinimalityCertificate, OrientedPayoffPolyhedron]:
    """Minimality (row) or maximality (column) test, keyed on the strategy's
    owner: a block of one, whose stack of one runs the scalar pivot loop.
    Returns the certificate and the lower set it tested, in the owner's
    view, whatever the verdict."""
    certificates, targets = _certificates(game.for_player(strategy.owner), [strategy], tol)
    return certificates[0], targets[0]


def _require_owner(strategy: MixedStrategy, player: Player) -> None:
    if strategy.owner is not player:
        raise InputError(f"expected a strategy of player {player.value}")


def minimality_lp(
    game: VectorPayoffGame, pbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a row strategy for minimality of its lower payoff set."""
    _require_owner(pbar, Player.ROW)
    return _certificate(game, pbar, tol)[0]


def maximality_lp(
    game: VectorPayoffGame, qbar: MixedStrategy, *, tol: float = DECISION_TOL
) -> MinimalityCertificate:
    """Test a column strategy for maximality of its upper payoff set."""
    _require_owner(qbar, Player.COL)
    return _certificate(game, qbar, tol)[0]


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


def pool_size(workers: int | None, work: int, break_even: int) -> int:
    """How many processes to map a job of `work` units over: at most
    `workers`, and at most one per `break_even` units, the least work that
    pays for a pool process's start.  1 is serial."""
    check_workers(workers)
    return 1 if workers is None else max(1, min(workers, work // break_even))


def _grid_blocks(count: int) -> list[slice]:
    """The fewest contiguous near-equal blocks of `count` grid points that
    hold at most GRID_BLOCK points each, whatever the worker count."""
    nblocks = -(-count // GRID_BLOCK)
    cuts = [count * k // nblocks for k in range(nblocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _block_certificates(task: tuple[VectorPayoffGame, Sequence[MixedStrategy]], tol: float):
    """One pool task: the certificates of a block of strategies of a game in its owner's view."""
    return _certificates(*task, tol)[0]


def _classify_grids(
    game: VectorPayoffGame, steps: Sequence[tuple[Player, object]], tol: float, workers: int | None
) -> list[StrategyFront]:
    """`classify_grid` for each (player, step) of `steps`, in order, with the
    blocks of every grid mapped in one `pool_map`: one pool, and no wait
    for one player's blocks before the next player's start.  The pool is
    sized (`pool_size`) by the grid points of all the grids."""
    grids, tasks = [], []
    for player, step in steps:
        oriented = game.for_player(player)
        grid = enumerate_simplex_grid(oriented.rows, step, owner=player)
        blocks = _grid_blocks(len(grid.points))
        grids.append((player, grid, len(blocks)))
        tasks += [(oriented, grid.points[block]) for block in blocks]
    points = sum(len(grid.points) for _, grid, _ in grids)
    processes = pool_size(workers, points, GRID_BREAK_EVEN)
    done = iter(pool_map(partial(_block_certificates, tol=tol), tasks, processes))
    return [
        _front(player, grid, [cert for _ in range(count) for cert in next(done)])
        for player, grid, count in grids
    ]


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
    stacks.  A pool of at most `workers` processes starts only when the
    grid is large enough to pay for it (`pool_size`).  Certificates come
    back in grid order regardless of `workers`.
    """
    return _classify_grids(game, [(player, step)], tol, workers)[0]


def _front(
    player: Player, grid: SimplexGrid, certificates: list[MinimalityCertificate]
) -> StrategyFront:
    """The front of a grid whose certificates, in grid order, are given."""
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
