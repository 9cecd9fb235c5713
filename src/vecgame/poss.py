"""Security images and Pareto optimal security strategies.

The row player's security image collects every payoff vector that some
mixed strategy can guarantee componentwise against all columns; it is a
polyhedral upper set.  The column player's image is the mirrored lower
set.  Images are computed by outer approximation: keep a polyhedral
superset, test its vertices by scalar LPs, and cut each unverified
vertex off with the halfspace that its LP's duals give, until every
vertex belongs to the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    Player,
    VectorPayoffGame,
    enumerate_simplex_grid,
    row_generator_matrix,
)
from .lp import LinearProgram, LPOutcome, check_feasibility, solve_lp
from .polyhedra import (
    UPPER,
    ConeDD,
    OrientedPayoffPolyhedron,
    facet_rows,
    halfspace_row,
    negated_set,
    pareto_min_points,
    unit_sum_halfspaces,
    upper_set_cone,
    upper_set_vertices,
)
from .solver import StrategyFront, _lp_strategy

# A candidate vertex belongs to the image when its clearance LP stays below this.
VERIFY_TOL = 1e-7
# A security point counts as lying on the image boundary within this slack.
BOUNDARY_TOL = 1e-7
# Shift used by the gap check; must stay positive for the test to be meaningful.
GAP_EPS = 1e-6
MAX_ROUNDS = 500


@dataclass(frozen=True, eq=False)
class SecurityImage:
    """Polyhedral set of componentwise-guaranteeable payoffs for one player.

    `polyhedron` is the image itself, with its vertices as generators: an
    upper set a·y >= b for the row player, a lower set a·y <= b for the
    column player.  `attainments` is aligned with its vertices; entry i is
    a strategy whose security point reproduces vertex i.
    """

    player: Player
    polyhedron: OrientedPayoffPolyhedron
    attainments: tuple[MixedStrategy, ...]

    @property
    def vertices(self) -> np.ndarray:
        return self.polyhedron.vertices

    def to_dict(self) -> dict:
        return {
            "player": self.player.value,
            **self.polyhedron.to_dict(),
            "attainments": [list(s.weights) for s in self.attainments],
        }


def _mixed_strategy_lp(
    M: np.ndarray, z_index: np.ndarray, h: np.ndarray, cost: np.ndarray, name: str
) -> LPOutcome:
    """Solve  min cost·z  over p in the simplex and free z  subject to
    sum_i p_i M[i, r] - z[z_index[r]] <= h[r]  for every column r of M.

    The solution is (p, z); any status but optimal is a numerical fault
    of the LP called `name`.
    """
    m, R = M.shape
    lhs = np.zeros((R + 1, m + cost.size))
    lhs[:R, :m] = M.T
    lhs[np.arange(R), m + z_index] = -1.0
    lhs[R, :m] = 1.0
    out = solve_lp(
        LinearProgram(
            objective=np.concatenate([np.zeros(m), cost]),
            lhs=lhs,
            relations=("<=",) * R + ("=",),
            rhs=np.append(h, 1.0),
            sense="min",
            bounds=((0.0, None),) * m + ((None, None),) * cost.size,
        )
    )
    if out.status != "optimal":
        raise NumericalError(f"{name} LP ended with status {out.status}")
    return out


def _support_value(entries: np.ndarray, direction: np.ndarray) -> float:
    """min direction·y over y >= sum_i p_i g_ij (componentwise, all j), p in simplex."""
    m, n, k = entries.shape
    out = _mixed_strategy_lp(
        entries.reshape(m, n * k), np.tile(np.arange(k), n), np.zeros(n * k), direction,
        "image support",
    )
    return float(out.objective_value)


def _verify_vertex(entries: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest uniform lift z making v + z·e guaranteeable; witness strategy;
    the weights w (n, K) >= 0 with unit sum, minus the duals of the LP's
    n·K rows, that `_cut` turns into a halfspace."""
    m, n, k = entries.shape
    out = _mixed_strategy_lp(
        entries.reshape(m, n * k), np.zeros(n * k, dtype=int), np.tile(v, n), np.ones(1),
        "vertex verification",
    )
    return float(out.objective_value), out.solution[:m], -out.duals[: n * k].reshape(n, k)


def _cut(entries: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """The halfspace (a, b), a·y >= b, valid for the image and violated at v.

    The weights w of a failed verification solve its LP's dual: they give
    a_k = sum_j w_jk and b = min_i sum_jk w_jk g_ijk, and b - a·v is the
    lift (Hamel, Löhne & Rudloff, J. Global Optim. 59, 2014).
    """
    m = entries.shape[0]
    normal = w.sum(axis=0)
    offset = float((entries.reshape(m, -1) @ w.ravel()).min())
    if float(normal @ v) >= offset - 1e-10:
        raise NumericalError(f"cut through {tuple(v)} fails to separate it from the image")
    return normal, offset


def _vertex_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v, 9).tolist())


def _benson(entries: np.ndarray) -> tuple[ConeDD, dict]:
    """Settled DD of the row player's upper set, and its vertices' witnesses by `_vertex_key`."""
    k = entries.shape[2]
    # the K coordinate bounds, then the bound along (1, ..., 1) / K
    normals = np.vstack([np.eye(k), np.full(k, 1.0 / k)])
    offsets = np.array([_support_value(entries, a) for a in normals])

    verified: dict[tuple, np.ndarray] = {}
    dd = upper_set_cone(normals, offsets)
    for _ in range(MAX_ROUNDS):
        vertices = upper_set_vertices(dd)
        if vertices.size == 0:
            raise NumericalError("outer approximation lost all vertices")
        cut = None
        for v in vertices:
            key = _vertex_key(v)
            if key in verified:
                continue
            lift, witness, w = _verify_vertex(entries, v)
            if lift <= VERIFY_TOL:
                verified[key] = witness
            else:
                cut = _cut(entries, v, w)
                break
        if cut is None:
            return dd, verified
        dd.add(halfspace_row(*cut))
    raise NumericalError(f"security image not settled after {MAX_ROUNDS} cuts")


def compute_security_image(game: VectorPayoffGame, player: Player) -> SecurityImage:
    """Exact polyhedral image of guaranteeable payoffs for one player.

    Halfspaces and vertices are read off Benson's settled double description.
    Player II's image is player I's image of the mirrored game, negated.
    """
    dd, verified = _benson(game.for_player(player).entries)
    rows = dd.done[0]
    facets = rows[facet_rows(dd.extreme_rays(), rows)]
    # each row is (-b, a) for a·y >= b; the row t >= 0 has a = 0 and drops out
    normals, offsets = unit_sum_halfspaces(facets[:, 1:], -facets[:, 0])
    vertices = upper_set_vertices(dd)
    attainments = tuple(_lp_strategy(verified[_vertex_key(v)], player) for v in vertices)
    image = OrientedPayoffPolyhedron(UPPER, vertices, normals, offsets, vertices)
    if player is Player.ROW:
        return SecurityImage(player, image, attainments)
    # negation reverses the vertex order (`negated_set`)
    return SecurityImage(player, negated_set(image), attainments[::-1])


def _row_view(image: SecurityImage) -> OrientedPayoffPolyhedron:
    """The image in the game seen by its player, where it is an upper set."""
    return image.polyhedron if image.player is Player.ROW else negated_set(image.polyhedron)


def poss_strategies(
    game: VectorPayoffGame,
    player: Player,
    step,
    *,
    image: SecurityImage | None = None,
) -> list[MixedStrategy]:
    """Grid strategies whose security point is Pareto optimal.

    A strategy is kept when no grid strategy has a componentwise better
    security point and its own point lies on the image boundary.
    """
    if image is not None and image.player is not player:
        raise InputError("image belongs to the other player")
    if image is None:
        image = compute_security_image(game, player)
    oriented = game.for_player(player)
    img = _row_view(image)
    grid = enumerate_simplex_grid(oriented.rows, step, owner=player)
    # security points as losses: the worst column for each component
    points = np.array([row_generator_matrix(oriented, s).max(axis=0) for s in grid.points])
    frontier = pareto_min_points(points)
    chosen = []
    for s, w in zip(grid.points, points):
        undominated = bool(
            (np.max(np.abs(frontier - w), axis=1) <= 1e-9).any()
        )
        if undominated and float((img.normals @ w - img.offsets).min()) <= BOUNDARY_TOL:
            chosen.append(s)
    return chosen


@dataclass(frozen=True)
class GapReport:
    """Outcome of checking that optimal payoff sets stay clear of the image."""

    player: Player
    eps: float
    checked: tuple[MixedStrategy, ...]
    violations: tuple[tuple[MixedStrategy, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_gap(
    game: VectorPayoffGame,
    front: StrategyFront,
    image: SecurityImage,
    eps: float = GAP_EPS,
) -> GapReport:
    """For every grid-optimal strategy, confirm its payoff set misses the
    image shifted by eps along each coordinate.

    The payoff sets are the ones the front's certificates tested.
    """
    if eps <= 0:
        raise InputError("eps must be strictly positive")
    if front.player is not image.player:
        raise InputError("front and image belong to different players")
    img = _row_view(image)
    k = game.dim
    checked = []
    violations = []
    for cert in front.certificates:
        if not cert.is_minimal:
            continue
        strategy = cert.tested_strategy
        checked.append(strategy)
        poly = cert.payoff_set
        lhs = np.vstack([poly.normals, img.normals])
        relations = ("<=",) * len(poly.offsets) + (">=",) * len(img.offsets)
        for kk in range(k):
            lp = LinearProgram(
                objective=np.zeros(k),
                lhs=lhs,
                relations=relations,
                rhs=np.concatenate([poly.offsets, img.offsets + eps * img.normals[:, kk]]),
                sense="min",
                bounds=((None, None),) * k,
            )
            if check_feasibility(lp).feasible:
                violations.append((strategy, kk))
    return GapReport(
        player=front.player,
        eps=eps,
        checked=tuple(checked),
        violations=tuple(violations),
    )
