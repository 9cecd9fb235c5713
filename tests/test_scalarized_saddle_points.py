"""Saddle points of weighted scalarizations are Shapley equilibria.

For weights w > 0, a saddle point (p, q) of the zero-sum game M·w, where
the row player pays p (M·w) q, is a Shapley equilibrium of the vector
game M (Shapley 1959).  A unique minimax strategy of M·w is minimal: a
strictly smaller payoff set would also minimize the support function in
direction w.  Likewise a unique maximin strategy of the column player is
maximal.  These hold whatever the program says, for any K, so scipy's
HiGHS solves the scalar games and the program only classifies.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from vecgame.equilibria import classify_pair
from vecgame.game import MixedStrategy, Player, VectorPayoffGame
from vecgame.solver import maximality_lp, minimality_lp

GAMES = 60
# a coordinate of the optimal set that moves by more than this makes the
# strategy not unique
UNIQUE_TOL = 1e-7


def _minimax(a: np.ndarray) -> tuple[np.ndarray, float]:
    """A minimax strategy p of the row player who pays p a q, and the value."""
    m, n = a.shape
    res = linprog(np.append(np.zeros(m), 1.0), A_ub=np.hstack([a.T, -np.ones((n, 1))]),
                  b_ub=np.zeros(n), A_eq=[[1.0] * m + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return res.x[:m], float(res.x[m])


def _unique(a: np.ndarray, value: float) -> bool:
    """Whether the row player of `a` has one minimax strategy: every
    weight spans at most UNIQUE_TOL over the strategies that reach `value`."""
    m, n = a.shape
    for i in range(m):
        span = []
        for sign in (1.0, -1.0):
            res = linprog(sign * np.eye(m)[i], A_ub=a.T, b_ub=np.full(n, value + 1e-9),
                          A_eq=[[1.0] * m], b_eq=[1.0], bounds=[(0.0, None)] * m,
                          method="highs")
            assert res.status == 0, res.message
            span.append(res.x[i])
        if abs(span[0] - span[1]) > UNIQUE_TOL:
            return False
    return True


def test_a_saddle_point_of_a_scalarization_is_shapley_and_a_unique_one_is_optimal():
    rng = np.random.default_rng(20261021)
    counts = {"minimal": 0, "maximal": 0}
    for _ in range(GAMES):
        m, n, k = (int(x) for x in rng.integers(2, 5, size=3))
        entries = rng.integers(-5, 6, size=(m, n, k)).astype(float)
        w = rng.dirichlet(np.ones(k))
        game, a = VectorPayoffGame(entries), entries @ w
        # the column player maximizes p a q: it is the row player of -a^T
        p_weights, row_value = _minimax(a)
        q_weights, col_value = _minimax(-a.T)
        p = MixedStrategy.cleaned(p_weights, Player.ROW)
        q = MixedStrategy.cleaned(q_weights, Player.COL)
        assert abs(row_value + col_value) < 1e-7, entries.tolist()
        record = classify_pair(game, p, q)
        assert record.shapley, (entries.tolist(), w.tolist())
        if _unique(a, row_value):
            assert minimality_lp(game, p).is_minimal, (entries.tolist(), w.tolist())
            counts["minimal"] += 1
        if _unique(-a.T, col_value):
            assert maximality_lp(game, q).is_minimal, (entries.tolist(), w.tolist())
            counts["maximal"] += 1
    # most draws have a unique minimax strategy, so the optimality checks ran
    assert counts["minimal"] > GAMES // 2 and counts["maximal"] > GAMES // 2, counts


def test_the_uniqueness_check_tells_a_unique_minimax_strategy_from_a_segment():
    # matching pennies has the one minimax strategy (1/2, 1/2); a game whose
    # rows are equal is minimized by every mixture
    for a, unique in (([[0.0, 1.0], [1.0, 0.0]], True), ([[1.0, 2.0], [1.0, 2.0]], False)):
        a = np.array(a)
        assert _unique(a, _minimax(a)[1]) is unique
