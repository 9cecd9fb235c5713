"""Verdicts do not depend on how a game is written down.

Relabeling the rows, the columns or the payoff components, translating a
component by an integer and scaling it by a positive integer leave every
grid verdict in place: a strategy is minimal (maximal) in the new game
iff the strategy it relabels is minimal (maximal) in the old one.
`tests/test_mirror.py` checks the mirror the same way.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vecgame.game import Player, VectorPayoffGame
from vecgame.solver import classify_grid

STEP = Fraction(1, 6)
GAMES = 12


def _optimal(game: VectorPayoffGame, player: Player) -> set[tuple[float, ...]]:
    """The weights of the player's optimal grid strategies."""
    front = classify_grid(game, player, STEP)
    return {front.grid.points[i].weights for i in front.optimal_indices()}


def _relabeled(weights: set[tuple[float, ...]], order) -> set[tuple[float, ...]]:
    """The weights (w[order[0]], w[order[1]], ...) of each w; None keeps them."""
    return weights if order is None else {tuple(np.array(w)[order].tolist()) for w in weights}


def _relabelings(rng: np.random.Generator, entries: np.ndarray):
    """(name, new entries, row order, column order): the new strategy i is the
    old strategy order[i], so a mixture w becomes w[order]; None keeps it."""
    m, n, k = entries.shape
    rows, cols, comps = rng.permutation(m), rng.permutation(n), rng.permutation(k)
    yield "rows", entries[rows], rows, None
    yield "columns", entries[:, cols], None, cols
    yield "components", entries[:, :, comps], None, None
    yield "translation", entries + rng.integers(-5, 6, size=k), None, None
    yield "scaling", entries * rng.integers(1, 4, size=k), None, None


def test_grid_verdicts_survive_relabeling_translation_and_scaling():
    rng = np.random.default_rng(20261019)
    for _ in range(GAMES):
        m, n, k = (int(x) for x in rng.integers(2, 4, size=3))
        entries = rng.integers(-5, 6, size=(m, n, k)).astype(float)
        game = VectorPayoffGame(entries)
        minimal, maximal = _optimal(game, Player.ROW), _optimal(game, Player.COL)
        for name, new, rows, cols in _relabelings(rng, entries):
            changed = VectorPayoffGame(new)
            got = (_optimal(changed, Player.ROW), _optimal(changed, Player.COL))
            want = (_relabeled(minimal, rows), _relabeled(maximal, cols))
            assert got == want, (name, entries.tolist())
