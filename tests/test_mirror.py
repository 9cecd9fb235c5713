"""Player II's questions are player I's questions on the mirrored game.

The mirror -G^T swaps the players' roles and negates payoffs, so every
column-player result must equal the row-player result on `game.mirror()`
exactly: strategies and verdicts unchanged, payoff-valued results
negated.  The column-player entry points rely on this to share one
row-player kernel.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vecgame.game import MixedStrategy, Player, enumerate_simplex_grid
from vecgame.poss import compute_security_image, poss_strategies, verify_gap
from vecgame.solver import classify_grid

from properties import on_col_frontier, on_row_frontier, random_game

STEP = Fraction(1, 4)
FIXTURE_GAMES = (
    "two_by_two",
    "null_row",
    "constant_row",
    "corley",
    "zero_row",
    "three_by_three",
    "single_column",
    "scalar_game",
)
RANDOM_SHAPES = ((2, 3, 2), (3, 2, 3), (3, 3, 2))


def _games(request):
    yield from (request.getfixturevalue(name) for name in FIXTURE_GAMES)
    rng = np.random.default_rng(20241018)
    for m, n, k in RANDOM_SHAPES:
        yield random_game(rng, m, n, k)


def _weights(strategies):
    return [s.weights for s in strategies]


def _negated(point):
    return tuple(-x for x in point)


def _as(strategy: MixedStrategy, owner: Player) -> MixedStrategy:
    return MixedStrategy(strategy.weights, owner)


def _front_table(front):
    return (
        [
            (
                c.tested_strategy.weights,
                c.lp_value,
                c.is_minimal,
                c.slacks,
                None if c.improving_strategy is None else c.improving_strategy.weights,
            )
            for c in front.certificates
        ],
        _weights(front.minimal_or_maximal),
        front.equivalence_classes,
    )


def _gap_table(report):
    return (
        _weights(report.checked),
        [(s.weights, k) for s, k in report.violations],
        report.ok,
    )


def test_column_results_equal_row_results_on_the_mirror(request):
    for game in _games(request):
        mirror = game.mirror()

        front_col = classify_grid(game, Player.COL, STEP)
        front_mirror = classify_grid(mirror, Player.ROW, STEP)
        assert _front_table(front_col) == _front_table(front_mirror)

        image_col = compute_security_image(game, Player.COL)
        image_mirror = compute_security_image(mirror, Player.ROW)
        assert sorted(
            (_negated(v), s.weights)
            for v, s in zip(image_col.vertices.tolist(), image_col.attainments)
        ) == sorted(
            (tuple(v), s.weights)
            for v, s in zip(image_mirror.vertices.tolist(), image_mirror.attainments)
        )
        col, mirrored = image_col.polyhedron, image_mirror.polyhedron
        assert sorted(zip(map(tuple, col.normals.tolist()), (-col.offsets).tolist())) == sorted(
            zip(map(tuple, mirrored.normals.tolist()), mirrored.offsets.tolist())
        )

        assert _weights(poss_strategies(game, Player.COL, STEP, image=image_col)) == _weights(
            poss_strategies(mirror, Player.ROW, STEP, image=image_mirror)
        )
        assert _gap_table(verify_gap(game, front_col, image_col)) == _gap_table(
            verify_gap(mirror, front_mirror, image_mirror)
        )

        for p in enumerate_simplex_grid(game.rows, Fraction(1, 2), owner=Player.ROW):
            for q in enumerate_simplex_grid(game.cols, Fraction(1, 2), owner=Player.COL):
                q_m, p_m = _as(q, Player.ROW), _as(p, Player.COL)
                assert on_col_frontier(game, p, q) == on_row_frontier(mirror, q_m, p_m)
                assert on_row_frontier(game, p, q) == on_col_frontier(mirror, q_m, p_m)
