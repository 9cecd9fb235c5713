"""Security images and Pareto optimal security strategies.

The row player's security image collects every payoff vector that some
mixed strategy can guarantee componentwise against all columns; it is a
polyhedral upper set.  The column player's image is the mirrored lower
set.  Images are computed by outer approximation: keep a polyhedral
superset, test its vertices by scalar LPs, and cut unverified vertices
off with halfspaces obtained from the dual until every vertex belongs
to the image.
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
from .lp import LinearProgram, check_feasibility, solve_lp
from .polyhedra import (
    LOWER,
    UPPER,
    ConeDD,
    Halfspace,
    facet_rows,
    halfspace_row,
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


@dataclass(frozen=True)
class SecurityImage:
    """Polyhedral set of componentwise-guaranteeable payoffs for one player.

    Halfspaces are stored in the player's natural orientation: a·y >= b
    for the row player's upper set, a·y <= b for the column player's
    lower set.  `attainments` is aligned with `vertices`; entry i is a
    strategy whose security point reproduces vertex i.
    """

    player: Player
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[float, ...], ...]
    attainments: tuple[MixedStrategy, ...]

    @property
    def orientation(self) -> str:
        return UPPER if self.player is Player.ROW else LOWER

    @property
    def dim(self) -> int:
        return len(self.halfspaces[0].normal)

    def witness_for(self, vertex, *, tol: float = 1e-7) -> MixedStrategy:
        v = np.asarray(vertex, dtype=float)
        for known, strategy in zip(self.vertices, self.attainments):
            if np.max(np.abs(np.array(known) - v)) <= tol:
                return strategy
        raise InputError(f"no image vertex within {tol} of {tuple(v)}")

    def normal_matrix(self) -> np.ndarray:
        return np.array([h.normal for h in self.halfspaces])

    def offset_vector(self) -> np.ndarray:
        return np.array([h.offset for h in self.halfspaces])

    def to_dict(self) -> dict:
        return {
            "player": self.player.value,
            "orientation": self.orientation,
            "halfspaces": [
                {"normal": list(h.normal), "offset": h.offset} for h in self.halfspaces
            ],
            "vertices": [list(v) for v in self.vertices],
            "attainments": [list(s.weights) for s in self.attainments],
        }


def _support_lp(entries: np.ndarray, direction: np.ndarray) -> LinearProgram:
    """min direction·y over y >= sum_i p_i g_ij (componentwise, all j), p in simplex."""
    m, n, k = entries.shape
    rows, rhs, relations = [], [], []
    for j in range(n):
        for kk in range(k):
            coeff = np.zeros(m + k)
            coeff[:m] = entries[:, j, kk]
            coeff[m + kk] = -1.0
            rows.append(coeff)
            rhs.append(0.0)
            relations.append("<=")
    rows.append(np.concatenate([np.ones(m), np.zeros(k)]))
    rhs.append(1.0)
    relations.append("=")
    return LinearProgram(
        objective=np.concatenate([np.zeros(m), direction]),
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs),
        sense="min",
        bounds=((0.0, None),) * m + ((None, None),) * k,
    )


def _support_value(entries: np.ndarray, direction: np.ndarray) -> float:
    out = solve_lp(_support_lp(entries, direction))
    if out.status != "optimal":
        raise NumericalError(f"image support LP ended with status {out.status}")
    return float(out.objective_value)


def _verify_vertex(entries: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest uniform lift z making v + z·e guaranteeable; witness strategy."""
    m, n, k = entries.shape
    rows, rhs = [], []
    for j in range(n):
        for kk in range(k):
            coeff = np.zeros(m + 1)
            coeff[:m] = entries[:, j, kk]
            coeff[m] = -1.0
            rows.append(coeff)
            rhs.append(v[kk])
    rows.append(np.concatenate([np.ones(m), [0.0]]))
    rhs.append(1.0)
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(m), [1.0]]),
        lhs=np.array(rows),
        relations=("<=",) * (n * k) + ("=",),
        rhs=np.array(rhs),
        sense="min",
        bounds=((0.0, None),) * m + ((None, None),),
    )
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"vertex verification LP ended with status {out.status}")
    return float(out.objective_value), out.solution[:m]


def _cut_for_vertex(entries: np.ndarray, v: np.ndarray) -> Halfspace:
    """Halfspace a·y >= b valid for the image and violated at v.

    Dual of the verification LP: weights w_jk >= 0 with unit sum and a level
    mu <= sum_jk w_jk g_ijk for every row i give the cut a_k = sum_j w_jk,
    b = mu; the unit-sum constraint normalizes the cut automatically.
    """
    m, n, k = entries.shape
    nw = n * k
    rows, rhs, relations = [], [], []
    for i in range(m):
        coeff = np.zeros(nw + 1)
        coeff[:nw] = -entries[i].reshape(nw)
        coeff[nw] = 1.0
        rows.append(coeff)
        rhs.append(0.0)
        relations.append("<=")
    rows.append(np.concatenate([np.ones(nw), [0.0]]))
    rhs.append(1.0)
    relations.append("=")
    objective = np.concatenate([-np.tile(v, n), [1.0]])
    lp = LinearProgram(
        objective=objective,
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs),
        sense="max",
        bounds=((0.0, None),) * nw + ((None, None),),
    )
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"cut LP ended with status {out.status}")
    w = out.solution[:nw].reshape(n, k)
    normal = w.sum(axis=0)
    offset = float(out.solution[nw])
    if float(normal @ v) >= offset - 1e-10:
        raise NumericalError(f"cut through {tuple(v)} fails to separate it from the image")
    return Halfspace(tuple(float(x) for x in normal), offset)


def _vertex_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v, 9).tolist())


def _benson(entries: np.ndarray) -> tuple[ConeDD, dict]:
    """Settled DD of the row player's upper set, and its vertices' witnesses by `_vertex_key`."""
    m, n, k = entries.shape
    halfspaces = []
    for kk in range(k):
        direction = np.zeros(k)
        direction[kk] = 1.0
        halfspaces.append(Halfspace(tuple(direction), _support_value(entries, direction)))
    ones = np.full(k, 1.0 / k)
    halfspaces.append(Halfspace(tuple(ones), _support_value(entries, ones)))

    verified: dict[tuple, np.ndarray] = {}
    dd = upper_set_cone(halfspaces)
    for _ in range(MAX_ROUNDS):
        vertices = upper_set_vertices(dd)
        if vertices.size == 0:
            raise NumericalError("outer approximation lost all vertices")
        pending = None
        for v in vertices:
            key = _vertex_key(v)
            if key in verified:
                continue
            lift, witness = _verify_vertex(entries, v)
            if lift <= VERIFY_TOL:
                verified[key] = witness
            else:
                pending = v
                break
        if pending is None:
            return dd, verified
        dd.add(halfspace_row(_cut_for_vertex(entries, pending)))
    raise NumericalError(f"security image not settled after {MAX_ROUNDS} cuts")


def compute_security_image(game: VectorPayoffGame, player: Player) -> SecurityImage:
    """Exact polyhedral image of guaranteeable payoffs for one player.

    Halfspaces and vertices are read off Benson's settled double description.
    Player II's image is player I's image of the mirrored game, negated.
    """
    entries = game.for_player(player).entries
    sign = _payoff_sign(player)
    dd, verified = _benson(entries)
    rows = np.array(dd.done)
    # each row is (-b, a) for a·y >= b; the row t >= 0 has a = 0 and drops out
    halfspaces = unit_sum_halfspaces(
        (row[1:], -float(row[0])) for row in rows[facet_rows(dd.extreme_rays(), rows)]
    )
    raw_vertices = upper_set_vertices(dd)
    attainments = [_lp_strategy(verified[_vertex_key(v)], player) for v in raw_vertices]
    vertices = [tuple(sign * float(x) for x in v) for v in raw_vertices]
    order = sorted(range(len(vertices)), key=vertices.__getitem__)
    return SecurityImage(
        player=player,
        halfspaces=tuple(Halfspace(tuple(a), sign * b) for a, b in halfspaces),
        vertices=tuple(vertices[i] for i in order),
        attainments=tuple(attainments[i] for i in order),
    )


def _payoff_sign(player: Player) -> float:
    """Factor taking payoffs between the game and the game seen by `player`."""
    return 1.0 if player is Player.ROW else -1.0


def _row_view(
    game: VectorPayoffGame, image: SecurityImage
) -> tuple[VectorPayoffGame, np.ndarray, np.ndarray]:
    """The game seen by the image's player, and the image there as rows a·y >= b."""
    sign = _payoff_sign(image.player)
    return game.for_player(image.player), image.normal_matrix(), sign * image.offset_vector()


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
    oriented, img_A, img_b = _row_view(game, image)
    grid = enumerate_simplex_grid(oriented.rows, step, owner=player)
    # security points as losses: the worst column for each component
    points = np.array([row_generator_matrix(oriented, s).max(axis=0) for s in grid.points])
    frontier = pareto_min_points(points)
    chosen = []
    for s, w in zip(grid.points, points):
        undominated = bool(
            (np.max(np.abs(frontier - w), axis=1) <= 1e-9).any()
        )
        if undominated and float((img_A @ w - img_b).min()) <= BOUNDARY_TOL:
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
    _, img_A, img_b = _row_view(game, image)
    k = game.dim
    checked = []
    violations = []
    for cert in front.certificates:
        if not cert.is_minimal:
            continue
        strategy = cert.tested_strategy
        checked.append(strategy)
        poly = cert.payoff_set
        lhs = np.vstack([poly.normal_matrix(), img_A])
        relations = ("<=",) * len(poly.halfspaces) + (">=",) * len(img_b)
        for kk in range(k):
            lp = LinearProgram(
                objective=np.zeros(k),
                lhs=lhs,
                relations=relations,
                rhs=np.concatenate([poly.offset_vector(), img_b + eps * img_A[:, kk]]),
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
