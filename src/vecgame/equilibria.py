"""Equilibrium tests and classification for strategy pairs.

A pair is an equilibrium in the payoff sense when its expected payoff
is simultaneously a Pareto-maximal point of the row player's payoff
set and a Pareto-minimal point of the column player's.  The strong
variant additionally requires the whole intersection of the two payoff
sets to consist of such points, which reduces to a zero-valued LP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    PayoffVector,
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    enumerate_simplex_grid,
    expected_payoff,
    row_generator_matrix,
)
from .lp import LinearProgram, solve_lp
from .polyhedra import (
    OrientedPayoffPolyhedron,
    active_halfspace_indices,
    build_lower_set,
    build_upper_set,
    negated_set,
    pareto_max_points,
    pareto_min_points,
    weak_pareto_points,
)
from .solver import (
    DECISION_TOL,
    improve_to_maximal,
    improve_to_minimal,
    maximality_lp,
    minimality_lp,
    scalarized_game_solve,
    ScalarizationWeight,
    StrategyFront,
)

# The strong test accepts when the separation LP value stays below this.
STRONG_TOL = 1e-7
# A summed normal counts as strictly positive when every component exceeds this.
POSITIVE_TOL = 1e-9


class Classification(enum.Enum):
    NONE = "none"
    SET_RELATION = "set_relation"
    SHAPLEY = "shapley"
    SET_SHAPLEY = "set_shapley"
    STRONG_SHAPLEY = "strong_shapley"
    STRONG_SET_SHAPLEY = "strong_set_shapley"


@dataclass(frozen=True)
class EquilibriumRecord:
    p: MixedStrategy
    q: MixedStrategy
    payoff: PayoffVector
    p_minimal: bool
    q_maximal: bool
    shapley: bool
    strong: bool
    classification: Classification


def _classification(p_min: bool, q_max: bool, shapley: bool, strong: bool) -> Classification:
    if p_min and q_max:
        if strong:
            return Classification.STRONG_SET_SHAPLEY
        if shapley:
            return Classification.SET_SHAPLEY
        return Classification.SET_RELATION
    if strong:
        return Classification.STRONG_SHAPLEY
    if shapley:
        return Classification.SHAPLEY
    return Classification.NONE


def _on_pareto_boundary(poly: OrientedPayoffPolyhedron, point: np.ndarray) -> bool:
    """Whether the facets of `poly` active at `point` sum to a strictly positive normal.

    Such a point is Pareto-maximal in a lower set and Pareto-minimal in an
    upper set.
    """
    active = active_halfspace_indices(poly, point)
    return bool(active) and bool(np.all(poly.normal_matrix()[active].sum(axis=0) > POSITIVE_TOL))


def _payoff_sets(
    game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy, row_set=None, col_set=None
) -> tuple[OrientedPayoffPolyhedron, OrientedPayoffPolyhedron]:
    """V_I(p), the row player's lower set, and V_II(q), the column player's upper set;
    a set a certificate carries is passed in (`col_set` on the mirrored game), not built."""
    vi = build_lower_set(row_generator_matrix(game, p)) if row_set is None else row_set
    if col_set is not None:
        return vi, negated_set(col_set)
    return vi, build_upper_set(col_generator_matrix(game, q))


def _is_shapley(
    sets: tuple[OrientedPayoffPolyhedron, OrientedPayoffPolyhedron], point: np.ndarray
) -> bool:
    return _on_pareto_boundary(sets[0], point) and _on_pareto_boundary(sets[1], point)


def is_max_point_of_row_set(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    """Whether the pair's payoff is Pareto-maximal in the row payoff set."""
    row_set = build_lower_set(row_generator_matrix(game, p))
    return _on_pareto_boundary(row_set, expected_payoff(game, p, q).as_array())


def is_min_point_of_col_set(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    """Whether the pair's payoff is Pareto-minimal in the column payoff set."""
    col_set = build_upper_set(col_generator_matrix(game, q))
    return _on_pareto_boundary(col_set, expected_payoff(game, p, q).as_array())


def is_shapley_equilibrium(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    return _is_shapley(_payoff_sets(game, p, q), expected_payoff(game, p, q).as_array())


def _strong_lp_value(
    game: VectorPayoffGame,
    p: MixedStrategy,
    q: MixedStrategy,
    sets: tuple[OrientedPayoffPolyhedron, OrientedPayoffPolyhedron] | None = None,
) -> float:
    """Largest total downward shift from a point of V_I(p) landing in V_II(q).

    Zero means the intersection contains no improvable point.
    """
    vi, vii = sets if sets is not None else _payoff_sets(game, p, q)
    k = game.dim
    rows: list[np.ndarray] = []
    relations: list[str] = []
    rhs: list[float] = []
    for h in vi.halfspaces:  # y stays in the row payoff set
        rows.append(np.concatenate([h.normal, np.zeros(k)]))
        relations.append("<=")
        rhs.append(h.offset)
    for h in vii.halfspaces:  # y - t stays in the column payoff set
        a = np.asarray(h.normal)
        rows.append(np.concatenate([a, -a]))
        relations.append(">=")
        rhs.append(h.offset)
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(k), np.ones(k)]),
        lhs=np.array(rows),
        relations=tuple(relations),
        rhs=np.array(rhs),
        sense="max",
        bounds=((None, None),) * k + ((0.0, None),) * k,
    )
    out = solve_lp(lp)
    if out.status != "optimal":
        raise NumericalError(f"strong-equilibrium LP ended with status {out.status}")
    return float(out.objective_value)


def _pair_record(
    game: VectorPayoffGame,
    p: MixedStrategy,
    q: MixedStrategy,
    sets: tuple[OrientedPayoffPolyhedron, OrientedPayoffPolyhedron],
    p_min: bool,
    q_max: bool,
) -> EquilibriumRecord:
    """The record of one pair from its two payoff sets; the payoff is computed once."""
    payoff = expected_payoff(game, p, q)
    shapley = _is_shapley(sets, payoff.as_array())
    strong = shapley and _strong_lp_value(game, p, q, sets) <= STRONG_TOL
    return EquilibriumRecord(
        p=p,
        q=q,
        payoff=payoff,
        p_minimal=p_min,
        q_maximal=q_max,
        shapley=shapley,
        strong=strong,
        classification=_classification(p_min, q_max, shapley, strong),
    )


def is_strong_shapley(game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy) -> bool:
    return _pair_record(game, p, q, _payoff_sets(game, p, q), False, False).strong


def classify_pair(
    game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy, *, tol: float = DECISION_TOL
) -> EquilibriumRecord:
    """Full classification of one pair, running the optimality LPs."""
    row = minimality_lp(game, p, tol=tol)
    col = maximality_lp(game, q, tol=tol)
    sets = _payoff_sets(game, p, q, row.payoff_set, col.payoff_set)
    return _pair_record(game, p, q, sets, row.is_minimal, col.is_minimal)


def classify_pairs(
    game: VectorPayoffGame, front_row: StrategyFront, front_col: StrategyFront
) -> list[EquilibriumRecord]:
    """One record per pair of grid-optimal strategies, in grid order.

    Optimality flags and payoff sets are taken from the fronts'
    certificates, so every record here has p_minimal and q_maximal set and
    no set is built again.  A column certificate holds V_II(q) as a lower
    set of the mirrored game; negating it gives the upper set.
    """
    if front_row.player is not Player.ROW or front_col.player is not Player.COL:
        raise InputError("expected a row front and a column front, in that order")
    minimal = [(c.tested_strategy, c.payoff_set) for c in front_row.certificates if c.is_minimal]
    maximal = [
        (c.tested_strategy, negated_set(c.payoff_set))
        for c in front_col.certificates
        if c.is_minimal
    ]
    return [
        _pair_record(game, p, q, (vi, vii), True, True)
        for p, vi in minimal
        for q, vii in maximal
    ]


def vector_minimax_diagnostic(
    game: VectorPayoffGame,
    player: Player,
    step,
    mode: str = "weak",
    opponent_step=None,
) -> list[MixedStrategy]:
    """Grid approximation of the minimax (maximin) strategy set.

    Per own-grid strategy the opponent-grid payoff samples are filtered
    to their weak or strict Pareto frontier; a strategy is reported when
    one of its samples coincides with a strict Pareto point of the union
    of all frontiers.  Accurate only up to both grid resolutions.  Player
    II's question is player I's on the mirrored game, whose samples are
    the negated ones.
    """
    mode_l = mode.lower()
    if mode_l not in ("weak", "strong"):
        raise InputError("mode must be 'weak' or 'strong'")
    oriented = game.for_player(player)
    own_grid = enumerate_simplex_grid(oriented.rows, step, owner=player)
    opp_grid = enumerate_simplex_grid(
        oriented.cols, opponent_step if opponent_step is not None else step, owner=player.opponent
    )
    opp_matrix = np.array([o.weights for o in opp_grid.points])  # (num_opp, dim_opp)
    # one (num_opp, K) sample array per own strategy
    sample_sets = [opp_matrix @ row_generator_matrix(oriented, s) for s in own_grid.points]
    if mode_l == "weak":
        filtered = [weak_pareto_points(samples, "max") for samples in sample_sets]
    else:
        filtered = [pareto_max_points(samples) for samples in sample_sets]
    outer = pareto_min_points(np.vstack(filtered))

    chosen = []
    for s, samples in zip(own_grid.points, sample_sets):
        hits = np.abs(samples[:, None, :] - outer[None, :, :]).max(axis=2) <= 1e-9
        if hits.any():
            chosen.append(s)
    return chosen


@dataclass(frozen=True)
class SeedResult:
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    verified: bool


def find_strong_seed(game: VectorPayoffGame) -> SeedResult:
    """Equilibrium pair obtained from the all-ones scalarization.

    The scalar-game saddle point is driven to a minimal/maximal pair by
    the improvement iteration; such a pair always admits the strong
    property, and `verified` records that the numerical test agreed.
    """
    weight = ScalarizationWeight((1.0,) * game.dim)
    p_hat = scalarized_game_solve(game, weight, Player.ROW)
    q_hat = scalarized_game_solve(game, weight, Player.COL)
    imp_p = improve_to_minimal(game, p_hat)
    imp_q = improve_to_maximal(game, q_hat)
    p, q = imp_p.strategy, imp_q.strategy
    if not (imp_p.converged and imp_q.converged):
        return SeedResult(p, q, False)
    sets = _payoff_sets(game, p, q, imp_p.certificate.payoff_set, imp_q.certificate.payoff_set)
    return SeedResult(p, q, _pair_record(game, p, q, sets, True, True).strong)
