"""Equilibrium tests and classification for strategy pairs.

A pair is an equilibrium in the payoff sense when its expected payoff
is simultaneously a Pareto-maximal point of the row player's payoff
set and a Pareto-minimal point of the column player's.  The strong
variant additionally requires the whole intersection of the two payoff
sets to consist of such points, which reduces to a zero-valued LP.
`classify_pairs` classifies every pair of two grid fronts from their
certificates' payoff sets; `classify_pair` classifies one pair, running
its optimality LPs first and reading the sets they tested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .game import MixedStrategy, Player, VectorPayoffGame, expected_payoffs
from .lp import LinearProgram, clip_rhs, solve_batch
from .polyhedra import OrientedPayoffPolyhedron, active_normal_sums, negated_set
from .solver import DECISION_TOL, GRID_BLOCK, StrategyFront, _certificate, _require_owner

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
    payoff: tuple[float, ...]
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


def _boundary_mask(poly: OrientedPayoffPolyhedron, points: np.ndarray) -> np.ndarray:
    """Per row of the (N, K) array `points`: whether the facets of `poly`
    active there sum to a strictly positive normal (`active_normal_sums`).

    Such a point is Pareto-maximal in a lower set and Pareto-minimal in an
    upper set.  A point with no active facet sums to the zero normal.
    """
    return np.all(active_normal_sums(poly.normals, poly.offsets, points) > POSITIVE_TOL, axis=1)


# A payoff set's facets, (normals (F, K), offsets (F,)), and a pair of
# them: V_I(p)'s and V_II(q)'s.
_Facets = tuple[np.ndarray, np.ndarray]
_Pair = tuple[_Facets, _Facets]


def _strong_lps(
    pairs: Sequence[_Pair], payoffs: np.ndarray
) -> list[tuple[list[int], LinearProgram]]:
    """The separation LPs of the pairs (V_I(p), V_II(q)), whose payoffs
    v(p, q) are the rows of `payoffs` (N, K), one stack per pair of facet
    counts (f, g), each with the indices of its pairs.

    A pair's LP finds the largest total downward shift t >= 0 from a point
    y of V_I(p) with y - t in V_II(q); zero means the intersection contains
    no improvable point.  It runs in the free shift d = y - v: v mixes the
    generators of both sets, so it lies in both, and every row
        a1 d <= b1 - a1·v,    -a2 d + a2 t <= a2·v - b2
    has rhs >= 0 (`clip_rhs`), which makes d = 0, t = 0 the slack basis.  A
    stack's (B, f + g, 2k) constraint matrices, over (d, t), come from one
    block build.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ((_, b1), (_, b2)) in enumerate(pairs):
        groups.setdefault((len(b1), len(b2)), []).append(i)
    stacks = []
    for idx in groups.values():
        a1 = np.array([pairs[i][0][0] for i in idx])
        b1 = np.array([pairs[i][0][1] for i in idx])
        a2 = np.array([pairs[i][1][0] for i in idx])
        b2 = np.array([pairs[i][1][1] for i in idx])
        v = payoffs[idx][:, :, None]
        k = a1.shape[2]
        rhs = np.concatenate([b1 - (a1 @ v)[..., 0], (a2 @ v)[..., 0] - b2], axis=1)
        lp = LinearProgram(
            objective=np.concatenate([np.zeros(k), np.ones(k)]),
            lhs=np.block([[a1, np.zeros_like(a1)], [-a2, a2]]),
            rhs=clip_rhs(rhs, "a pair's payoff lies outside its payoff sets"),
            sense="max",
            bounds=((None, None),) * k + ((0.0, None),) * k,
        )
        stacks.append((idx, lp))
    return stacks


def _strong_values(pairs: Sequence[_Pair], payoffs: np.ndarray) -> list[float]:
    """The value of each pair's separation LP, solved one stack at a time."""
    values = [0.0] * len(pairs)
    for idx, lp in _strong_lps(pairs, payoffs):
        for i, out in zip(idx, solve_batch(lp)):
            if out.status != "optimal":
                raise NumericalError(f"strong-equilibrium LP ended with status {out.status}")
            values[i] = float(out.objective_value)
    return values


# One side of the pairs: per strategy, its payoff set and its optimality flag.
_Side = Sequence[tuple[MixedStrategy, OrientedPayoffPolyhedron, bool]]


def _classify(game: VectorPayoffGame, rows: _Side, cols: _Side) -> list[EquilibriumRecord]:
    """The record of every pair in rows x cols, in row-major order.

    Each V_I(p) is tested against the payoffs of all its pairs in one
    call, and so is each V_II(q).  The strong LPs run only on the
    Shapley pairs, in row-major order, GRID_BLOCK pairs a `_strong_values`
    call, so that no stack grows with the number of pairs.
    """
    payoffs = expected_payoffs(game, [p for p, _, _ in rows], [q for q, _, _ in cols])
    shapley = np.zeros(payoffs.shape[:2], dtype=bool)
    for a, (_, vi, _) in enumerate(rows):
        shapley[a] = _boundary_mask(vi, payoffs[a])
    for b, (_, vii, _) in enumerate(cols):
        shapley[:, b] &= _boundary_mask(vii, payoffs[:, b])

    row_facets = [(vi.normals, vi.offsets) for _, vi, _ in rows]
    col_facets = [(vii.normals, vii.offsets) for _, vii, _ in cols]
    pairs = [(row_facets[a], col_facets[b]) for a, b in np.argwhere(shapley).tolist()]
    pair_payoffs = payoffs[shapley]
    values = []
    for lo in range(0, len(pairs), GRID_BLOCK):
        values += _strong_values(pairs[lo : lo + GRID_BLOCK], pair_payoffs[lo : lo + GRID_BLOCK])
    strong = np.zeros_like(shapley)
    strong[shapley] = np.array(values) <= STRONG_TOL

    records = []
    for (p, _, p_min), pay_row, sh_row, st_row in zip(
        rows, payoffs.tolist(), shapley.tolist(), strong.tolist()
    ):
        for (q, _, q_max), pay, sh, st in zip(cols, pay_row, sh_row, st_row):
            records.append(
                EquilibriumRecord(
                    p=p,
                    q=q,
                    payoff=tuple(pay),
                    p_minimal=p_min,
                    q_maximal=q_max,
                    shapley=sh,
                    strong=st,
                    classification=_classification(p_min, q_max, sh, st),
                )
            )
    return records


def classify_pair(
    game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy, *, tol: float = DECISION_TOL
) -> EquilibriumRecord:
    """Full classification of one pair, running the optimality LPs.

    The pair is classified with the two sets its certificates tested,
    whatever their verdicts, so each set is built once.  The column
    certificate tests V_II(q) as a lower set of the mirrored game;
    negating it gives the upper set.
    """
    _require_owner(p, Player.ROW)
    _require_owner(q, Player.COL)
    row, vi = _certificate(game, p, tol)
    col, vii = _certificate(game, q, tol)
    return _classify(game, [(p, vi, row.is_minimal)], [(q, negated_set(vii), col.is_minimal)])[0]


def classify_pairs(
    game: VectorPayoffGame,
    front_row: StrategyFront,
    front_col: StrategyFront,
) -> list[EquilibriumRecord]:
    """One record per pair of grid-optimal strategies, in grid order.

    Optimality flags and payoff sets are taken from the fronts'
    certificates, so every record here has p_minimal and q_maximal set and
    no set is built again.  A column certificate holds V_II(q) as a lower
    set of the mirrored game; negating it gives the upper set.
    """
    if front_row.player is not Player.ROW or front_col.player is not Player.COL:
        raise InputError("expected a row front and a column front, in that order")
    rows = [(c.tested_strategy, c.payoff_set, True) for c in front_row.certificates if c.is_minimal]
    cols = [
        (c.tested_strategy, negated_set(c.payoff_set), True)
        for c in front_col.certificates
        if c.is_minimal
    ]
    return _classify(game, rows, cols)
