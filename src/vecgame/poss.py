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
from .lp import TOL_FEAS, LinearProgram, LPOutcome, solve_batch, solve_lp
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
from .solver import GRID_BLOCK, StrategyFront, _lp_strategy

# A candidate vertex belongs to the image when its clearance LP stays below this.
VERIFY_TOL = 1e-7
# A security point counts as lying on the image boundary within this slack.
BOUNDARY_TOL = 1e-7
# The gap check shifts the image by this much along each coordinate.
GAP_EPS = 1e-6


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


def _mixed_strategy_lps(
    M: np.ndarray, h: np.ndarray, cost: np.ndarray, levels: np.ndarray
) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """The LPs  min cost·z  over p in the simplex and free z (C,), cost >= 0,
    subject to  sum_i p_i M[i, r] - z[levels[r]] <= h[r]  for every column r
    of M (m, R), one per M of a stack (..., m, R) and its h (..., R), in one
    `LinearProgram` of that stack shape.  Returns it, each LP's start s
    and its least feasible z0 there (`_mixed_strategy`).

    An LP starts at the pure strategy s whose least feasible z0 costs
    least, and runs over p_i >= 0 (i != s) and a free u = z - z0, with
    p_s = 1 - sum p_i.  Its rows
        sum_{i != s} p_i (M[i, r] - M[s, r]) - u[levels[r]] <= z0[levels[r]] - (M[s, r] - h[r]),
        sum_{i != s} p_i <= 1
    all have rhs >= 0, so the slack basis is feasible.  A row's rhs moves
    by a constant, which leaves its dual as it was.
    """
    stack, (m, R), c = M.shape[:-2], M.shape[-2:], cost.size
    M, h = M.reshape(-1, m, R), h.reshape(-1, R)
    at = np.arange(len(M))
    reach = M - h[:, None, :]  # row i: how far pure strategy i reaches past each rhs
    z0 = np.stack([reach[:, :, levels == lv].max(axis=2) for lv in range(c)], axis=2)
    s = (z0 @ cost).argmin(axis=1)
    rest = np.arange(m - 1) + (np.arange(m - 1) >= s[:, None])
    lhs = np.zeros((len(M), R + 1, m - 1 + c))
    lhs[:, :R, : m - 1] = (M[at[:, None], rest] - M[at, s][:, None]).transpose(0, 2, 1)
    lhs[:, np.arange(R), m - 1 + levels] = -1.0
    lhs[:, R, : m - 1] = 1.0
    rhs = np.ones((len(M), R + 1))
    rhs[:, :R] = z0[at, s][:, levels] - reach[at, s]
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(m - 1), cost]),
        lhs=lhs.reshape(*stack, R + 1, m - 1 + c),
        rhs=rhs.reshape(*stack, R + 1),
        sense="min",
        bounds=((0.0, None),) * (m - 1) + ((None, None),) * c,
    )
    return lp, s, z0[at, s]


def _mixed_strategy(x: np.ndarray, s: int, m: int) -> np.ndarray:
    """The strategy p (m,) of the solution x of an LP of `_mixed_strategy_lps`
    that started at the pure strategy s."""
    p = np.zeros(m)
    rest = np.arange(m) != s
    p[rest] = x[: m - 1]
    p[s] = 1.0 - p[rest].sum()
    return p


def _mixed_strategy_lp(
    M: np.ndarray, h: np.ndarray, cost: np.ndarray, name: str
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve the LP of `_mixed_strategy_lps` whose levels are r mod C, the
    size of `cost`.  Returns the value, p and the duals of the rows of M.
    Any status but optimal is a numerical fault of the LP called `name`."""
    m, R = M.shape
    lp, s, z0 = _mixed_strategy_lps(M, h, cost, np.arange(R) % cost.size)
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"{name} LP ended with status {out.status}")
    p = _mixed_strategy(out.solution, int(s[0]), m)
    return float(cost @ z0[0]) + out.objective_value, p, out.duals[:R]


def _support_value(entries: np.ndarray, direction: np.ndarray) -> float:
    """min direction·y over y >= sum_i p_i g_ij (componentwise, all j), p in simplex."""
    m, n, k = entries.shape
    value, _, _ = _mixed_strategy_lp(
        entries.reshape(m, n * k), np.zeros(n * k), direction, "image support"
    )
    return value


def _verify_vertex(entries: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest uniform lift z making v + z·e guaranteeable; witness strategy;
    the weights w (n, K) >= 0 with unit sum, minus the duals of the LP's
    n·K rows, that `_cut` turns into a halfspace."""
    m, n, k = entries.shape
    lift, witness, duals = _mixed_strategy_lp(
        entries.reshape(m, n * k), np.tile(v, n), np.ones(1), "vertex verification"
    )
    return lift, witness, -duals.reshape(n, k)


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


def _vertex_keys(rows: np.ndarray) -> list[tuple]:
    """Each row rounded to 9 decimals, as a tuple: one `np.round` for them all."""
    return [tuple(row) for row in np.round(rows, 9).tolist()]


def _benson(entries: np.ndarray) -> tuple[ConeDD, np.ndarray, list[np.ndarray]]:
    """Settled DD of the row player's upper set, its vertices (`upper_set_vertices`)
    and a witness strategy for each vertex."""
    k = entries.shape[2]
    # the K coordinate bounds, then the bound along (1, ..., 1) / K
    normals = np.vstack([np.eye(k), np.full(k, 1.0 / k)])
    offsets = np.array([_support_value(entries, a) for a in normals])

    verified: dict[tuple, np.ndarray] = {}
    # Each cut comes from a basic dual solution of a verification LP, and
    # there are finitely many, so the loop ends unless the DD fails to
    # remove a vertex: then the vertex fails again and its cut repeats.
    cuts: set[tuple] = set()
    dd = upper_set_cone(normals, offsets)
    while True:
        vertices = upper_set_vertices(dd)
        if vertices.size == 0:
            raise NumericalError("outer approximation lost all vertices")
        cut = None
        keys = _vertex_keys(vertices)
        for v, key in zip(vertices, keys):
            if key in verified:
                continue
            lift, witness, w = _verify_vertex(entries, v)
            if lift <= VERIFY_TOL:
                verified[key] = witness
            else:
                cut = _cut(entries, v, w)
                break
        if cut is None:
            return dd, vertices, [verified[key] for key in keys]
        key = _vertex_keys(np.append(*cut)[None])[0]
        if key in cuts:
            raise NumericalError(f"cut through {tuple(v)} repeats an earlier one")
        cuts.add(key)
        dd.add(halfspace_row(*cut))


def compute_security_image(game: VectorPayoffGame, player: Player) -> SecurityImage:
    """Exact polyhedral image of guaranteeable payoffs for one player.

    Halfspaces and vertices are read off Benson's settled double description.
    Player II's image is player I's image of the mirrored game, negated.
    """
    dd, vertices, witnesses = _benson(game.for_player(player).entries)
    rows = dd.done[0]
    facets = rows[facet_rows(dd.extreme_rays(), rows)]
    # each row is (-b, a) for a·y >= b; the row t >= 0 has a = 0 and drops out
    normals, offsets = unit_sum_halfspaces(facets[:, 1:], -facets[:, 0])
    attainments = tuple(_lp_strategy(w, player) for w in witnesses)
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


def _margin_lps(
    img: OrientedPayoffPolyhedron, generators: np.ndarray, components: np.ndarray
) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """The margin LPs of a stack (B, n, K) of generator sets against the
    image {w : A w >= b} (F facets), one per set, as `_mixed_strategy_lps`
    returns them.  Row b of `components` (B, c) names the shifts e_k that
    LP b must clear: over lambda in the simplex of R^F, it maximizes
        GAP_EPS min_k (A^T lambda)_k - max_j sum_f lambda_f (a_f·y_j - b_f)
    with k over components[b], the margin that `_separated` checks.  They
    are `_mixed_strategy_lps` that minimize its negation z_0 + z_1 over
    two levels:
        z_0 >= sum_f lambda_f (a_f·y_j - b_f)   for each generator y_j,
        z_1 >= -GAP_EPS (A^T lambda)_k           for each k in components[b].
    Every LP has the shape (n + c + 1) x (F + 1)."""
    count, n, _ = generators.shape
    c = components.shape[1]
    M = np.concatenate(
        [
            (generators @ img.normals.T - img.offsets).transpose(0, 2, 1),
            (-GAP_EPS * img.normals[:, components]).transpose(1, 0, 2),
        ],
        axis=2,
    )
    return _mixed_strategy_lps(M, np.zeros((count, n + c)), np.ones(2), np.repeat([0, 1], [n, c]))


def _separated(
    img: OrientedPayoffPolyhedron, Y: np.ndarray, out: LPOutcome, start: int,
    components: np.ndarray | list[int], limit: float,
) -> bool:
    """Whether the weights lambda of the margin LP that started at facet
    `start` prove that co(Y) - R^K_+ misses the image shifted by GAP_EPS
    along e_k, for every k in `components`.

    The normals A are nonnegative, so h = A^T lambda is too: the lower set
    lies in {h·w <= max_j h·y_j}, and the image shifted along e_k lies in
    {h·w >= lambda·b + GAP_EPS h_k} (Farkas).  The margin between the two,
    at the least h_k over `components`, is recomputed in floats from
    lambda and must exceed `limit`.
    """
    if out.status != "optimal":
        return False
    lam = np.maximum(_mixed_strategy(out.solution, start, len(img.offsets)), 0.0)
    h = lam @ img.normals
    margin = GAP_EPS * h[components].min() - (float((Y @ h).max()) - float(lam @ img.offsets))
    return bool(margin > limit)


def verify_gap(
    game: VectorPayoffGame,
    front: StrategyFront,
    image: SecurityImage,
) -> GapReport:
    """For every grid-optimal strategy, confirm its payoff set misses the
    image shifted by GAP_EPS along each coordinate.

    The payoff set co(Y) - R^K_+ is read from the strategy's generators Y.
    One margin LP a strategy (`_margin_lps`), solved in stacks of at most
    GRID_BLOCK, clears all K shifts at once when its weights pass
    `_separated`.  A strategy they do not clear gets one stack of K margin
    LPs, where LP k clears e_k alone, and (strategy, k) is a violation
    when LP k's weights do not.  By LP duality, LP k's optimal margin is
    minus the least uniform violation of {mu in the simplex :
    A Y^T mu >= b + GAP_EPS A e_k}, so a violation is a mixture of the
    generators that reaches the shifted image within `limit`.
    """
    if front.player is not image.player:
        raise InputError("front and image belong to different players")
    img = _row_view(image)
    oriented = game.for_player(front.player)
    checked = [c.tested_strategy for c in front.certificates if c.is_minimal]
    # the margin a certificate must exceed: TOL_FEAS relative to the
    # largest |rhs| of the shifted images' systems A w >= b + GAP_EPS A e_k
    limit = TOL_FEAS * (1.0 + float(np.abs(img.offsets[:, None] + GAP_EPS * img.normals).max()))
    every = np.arange(game.dim)
    violations = []
    for lo in range(0, len(checked), GRID_BLOCK):
        block = checked[lo : lo + GRID_BLOCK]
        generators = np.stack([row_generator_matrix(oriented, s) for s in block])
        lp, starts, _ = _margin_lps(img, generators, np.tile(every, (len(block), 1)))
        outcomes = solve_batch(lp)
        for strategy, Y, out, start in zip(block, generators, outcomes, starts.tolist()):
            if _separated(img, Y, out, start, every, limit):
                continue
            # one LP a shift: LP k clears e_k alone
            copies = np.broadcast_to(Y, (len(every), *Y.shape))
            lp_k, starts_k, _ = _margin_lps(img, copies, every[:, None])
            for k, out_k, start_k in zip(every.tolist(), solve_batch(lp_k), starts_k.tolist()):
                if out_k.status != "optimal":
                    raise NumericalError(f"gap LP ended with status {out_k.status}")
                if not _separated(img, Y, out_k, start_k, [k], limit):
                    violations.append((strategy, k))
    return GapReport(
        player=front.player,
        eps=GAP_EPS,
        checked=tuple(checked),
        violations=tuple(violations),
    )
