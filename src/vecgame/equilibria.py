"""Equilibrium tests and classification for strategy pairs.

A pair is an equilibrium in the payoff sense when its expected payoff
is simultaneously a Pareto-maximal point of the row player's payoff
set and a Pareto-minimal point of the column player's.  The strong
variant additionally requires the whole intersection of the two payoff
sets to consist of such points, which reduces to a zero-valued LP.
`classify_pairs` classifies every pair of two grid fronts from their
certificates' payoff sets; `classify_pair` classifies one pair, running
its optimality LPs first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .game import (
    MixedStrategy,
    PayoffVector,
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    expected_payoffs,
    row_generator_matrix,
)
from .lp import LinearProgram, solve_batch
from .polyhedra import (
    OrientedPayoffPolyhedron,
    active_normal_sums,
    build_lower_set,
    build_upper_set,
    negated_set,
)
from .solver import (
    DECISION_TOL,
    StrategyFront,
    check_workers,
    maximality_lp,
    minimality_lp,
    pool_map,
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


def _boundary_mask(poly: OrientedPayoffPolyhedron, points: np.ndarray) -> np.ndarray:
    """Per row of the (N, K) array `points`: whether the facets of `poly`
    active there sum to a strictly positive normal (`active_normal_sums`).

    Such a point is Pareto-maximal in a lower set and Pareto-minimal in an
    upper set.  A point with no active facet sums to the zero normal.
    """
    return np.all(active_normal_sums(poly, points) > POSITIVE_TOL, axis=1)


def _payoff_sets(
    game: VectorPayoffGame, p: MixedStrategy, q: MixedStrategy, row_set=None, col_set=None
) -> tuple[OrientedPayoffPolyhedron, OrientedPayoffPolyhedron]:
    """V_I(p), the row player's lower set, and V_II(q), the column player's upper set;
    a set a certificate carries is passed in (`col_set` on the mirrored game), not built."""
    vi = build_lower_set(row_generator_matrix(game, p)) if row_set is None else row_set
    if col_set is not None:
        return vi, negated_set(col_set)
    return vi, build_upper_set(col_generator_matrix(game, q))


# A payoff set's facets, (normals (F, K), offsets (F,)), and a pair of
# them: V_I(p)'s and V_II(q)'s.
_Facets = tuple[np.ndarray, np.ndarray]
_Pair = tuple[_Facets, _Facets]


def _strong_lps(pairs: Sequence[_Pair]) -> list[tuple[list[int], LinearProgram]]:
    """The separation LPs of the pairs (V_I(p), V_II(q)), one stack per pair
    of facet counts (f, g), each with the indices of its pairs.

    A pair's LP finds the largest total downward shift t >= 0 from a point
    y of V_I(p) with y - t in V_II(q); zero means the intersection contains
    no improvable point.  A stack's (B, f + g, 2k) constraint matrices, over
    the variables (y, t), come from one block build.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ((_, b1), (_, b2)) in enumerate(pairs):
        groups.setdefault((len(b1), len(b2)), []).append(i)
    stacks = []
    for (f, g), idx in groups.items():
        a1 = np.array([pairs[i][0][0] for i in idx])
        b1 = np.array([pairs[i][0][1] for i in idx])
        a2 = np.array([pairs[i][1][0] for i in idx])
        b2 = np.array([pairs[i][1][1] for i in idx])
        k = a1.shape[2]
        lp = LinearProgram(
            objective=np.concatenate([np.zeros(k), np.ones(k)]),
            lhs=np.block([[a1, np.zeros_like(a1)], [a2, -a2]]),
            relations=("<=",) * f + (">=",) * g,
            rhs=np.concatenate([b1, b2], axis=1),
            sense="max",
            bounds=((None, None),) * k + ((0.0, None),) * k,
        )
        stacks.append((idx, lp))
    return stacks


def _strong_values(pairs: Sequence[_Pair]) -> list[float]:
    """The value of each pair's separation LP, solved one stack at a time."""
    values = [0.0] * len(pairs)
    for idx, lp in _strong_lps(pairs):
        for i, out in zip(idx, solve_batch(lp)):
            if out.status != "optimal":
                raise NumericalError(f"strong-equilibrium LP ended with status {out.status}")
            values[i] = float(out.objective_value)
    return values


def _strong_flags(block: Sequence[tuple[_Facets, Sequence[_Facets]]]) -> list[bool]:
    """One pool task: the strong test on the Shapley pairs of a block of rows.

    `block` holds, per row strategy p, the facets of V_I(p) and those of
    the V_II(q) of each q that makes a Shapley pair with it; one flag comes
    back per pair.
    """
    pairs = [(vi, vii) for vi, partners in block for vii in partners]
    return [value <= STRONG_TOL for value in _strong_values(pairs)]


def _row_blocks(counts: np.ndarray, parts: int) -> list[np.ndarray]:
    """Up to `parts` contiguous blocks of row indices with near-equal sums of
    `counts`; rows past the last nonzero count and empty blocks are left out."""
    cum = np.cumsum(counts)
    if not len(cum) or cum[-1] == 0:
        return []
    ends = np.searchsorted(cum, cum[-1] * np.arange(1, parts + 1) / parts) + 1
    starts = np.concatenate([[0], ends[:-1]])
    return [np.arange(lo, hi) for lo, hi in zip(starts, ends) if hi > lo]


# One side of the pairs: per strategy, its payoff set and its optimality flag.
_Side = Sequence[tuple[MixedStrategy, OrientedPayoffPolyhedron, bool]]


def _classify(
    game: VectorPayoffGame, rows: _Side, cols: _Side, workers: int | None = None
) -> list[EquilibriumRecord]:
    """The record of every pair in rows x cols, in row-major order.

    Each V_I(p) is tested against the payoffs of all its pairs in one
    call, and so is each V_II(q).  The strong LPs run only on the
    Shapley pairs, in contiguous blocks of row strategies (four a worker)
    mapped over the pool; each block returns one flag a pair.
    """
    payoffs = expected_payoffs(game, [p for p, _, _ in rows], [q for q, _, _ in cols])
    shapley = np.zeros(payoffs.shape[:2], dtype=bool)
    for a, (_, vi, _) in enumerate(rows):
        shapley[a] = _boundary_mask(vi, payoffs[a])
    for b, (_, vii, _) in enumerate(cols):
        shapley[:, b] &= _boundary_mask(vii, payoffs[:, b])

    parts = 4 * workers if workers is not None and workers > 1 else 1
    # The tasks carry only the facet arrays the strong LPs read.
    row_facets = [(vi.normals, vi.offsets) for _, vi, _ in rows]
    col_facets = [(vii.normals, vii.offsets) for _, vii, _ in cols]
    tasks = [
        [(row_facets[a], [col_facets[b] for b in np.flatnonzero(shapley[a])]) for a in block]
        for block in _row_blocks(shapley.sum(axis=1), parts)
    ]
    strong = np.zeros_like(shapley)
    strong[shapley] = [flag for flags in pool_map(_strong_flags, tasks, workers) for flag in flags]

    records = []
    for (p, _, p_min), pay_row, sh_row, st_row in zip(
        rows, payoffs.tolist(), shapley.tolist(), strong.tolist()
    ):
        for (q, _, q_max), pay, sh, st in zip(cols, pay_row, sh_row, st_row):
            records.append(
                EquilibriumRecord(
                    p=p,
                    q=q,
                    payoff=PayoffVector(tuple(pay)),
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
    """Full classification of one pair, running the optimality LPs."""
    row = minimality_lp(game, p, tol=tol)
    col = maximality_lp(game, q, tol=tol)
    vi, vii = _payoff_sets(game, p, q, row.payoff_set, col.payoff_set)
    return _classify(game, [(p, vi, row.is_minimal)], [(q, vii, col.is_minimal)])[0]


def classify_pairs(
    game: VectorPayoffGame,
    front_row: StrategyFront,
    front_col: StrategyFront,
    *,
    workers: int | None = None,
) -> list[EquilibriumRecord]:
    """One record per pair of grid-optimal strategies, in grid order.

    Optimality flags and payoff sets are taken from the fronts'
    certificates, so every record here has p_minimal and q_maximal set and
    no set is built again.  A column certificate holds V_II(q) as a lower
    set of the mirrored game; negating it gives the upper set.  The
    strong LPs run in a pool of `workers` processes when there are more
    than one; the records do not depend on `workers`.
    """
    check_workers(workers)
    if front_row.player is not Player.ROW or front_col.player is not Player.COL:
        raise InputError("expected a row front and a column front, in that order")
    rows = [(c.tested_strategy, c.payoff_set, True) for c in front_row.certificates if c.is_minimal]
    cols = [
        (c.tested_strategy, negated_set(c.payoff_set), True)
        for c in front_col.certificates
        if c.is_minimal
    ]
    return _classify(game, rows, cols, workers)
