"""The exact rational oracle on its own, against fronts already settled,
and the package against the oracle on random games.

Criterion 4 trusts exact_oracle.py to judge the package, so the oracle
must reproduce the fronts of criteria 1 and 3 and prove a known
dominated strategy non-minimal, independently of the package's answers.
"""

from __future__ import annotations

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecgame.equilibria import classify_pairs
from vecgame.game import Player, VectorPayoffGame
from vecgame.solver import classify_grid

import exact_dd
import exact_oracle as eo


def _game(fixture_game):
    return eo.exact_game(fixture_game.entries.tolist())


def test_oracle_imports_only_the_standard_library():
    modules = set()
    for oracle in (eo, exact_dd):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add((node.module or "").split(".")[0])
    assert modules <= {"__future__", "dataclasses", "fractions", "itertools", "typing"}


def test_oracle_simplex_on_small_programs():
    # max x + y, x + 2y <= 4, 3x + y <= 6: optimum (8/5, 6/5)
    value, x = eo.maximize([F(1), F(1)], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
    assert (value, x) == (F(14, 5), [F(8, 5), F(6, 5)])
    # negative right-hand side, a duplicated equality and a >= row
    value, x = eo.maximize(
        [F(-1), F(0)],
        [([1, 1], "=", 1), ([2, 2], "=", 2), ([-1, 0], "<=", F(-1, 3)), ([0, 1], ">=", 0)],
    )
    assert (value, x) == (F(-1, 3), [F(1, 3), F(2, 3)])
    assert eo.maximize([F(1)], [([1], ">=", 2), ([1], "<=", 1)]) is None
    with pytest.raises(eo.Unbounded):
        eo.maximize([F(1), F(0)], [([1, -1], "<=", 1)])


def test_oracle_lower_set_geometry():
    points = [(F(0), F(2)), (F(1), F(1)), (F(2), F(0)), (F(-1), F(-1)), (F(0), F(1))]
    vertices = eo.lower_set_vertices(points)
    assert vertices == [(F(0), F(2)), (F(2), F(0))]  # (1, 1) lies on the edge
    assert eo.lower_set_vertices([(F(0), F(2)), (F(0), F(1))]) == [(F(0), F(2))]
    facets = eo.lower_set_facets(vertices)
    assert eo.in_lower_set((F(1), F(1)), points)
    assert not eo.in_lower_set((F(1), F(1) + F(1, 10**9)), points)
    assert all(eo.in_lower_set(v, points) for v in vertices)
    assert eo.pareto_maximal((F(1), F(1)), facets)
    assert not eo.pareto_maximal((F(-1), F(2)), facets)
    assert not eo.pareto_maximal((F(1, 2), F(1)), facets)
    # the exact double description finds the same facets, at unit normal sum
    unit = {(a[0] / sum(a), a[1] / sum(a), b / sum(a)) for a, b in facets}
    assert exact_dd.lower_set_halfspaces(points) == unit


def test_oracle_two_by_two_fronts_at_one_twelfth(two_by_two):
    game = _game(two_by_two)
    for p in eo.simplex_grid(2, 12):
        assert eo.minimality(game, p).minimal == (p[0] <= F(1, 3)), p
    for q in eo.simplex_grid(2, 12):
        assert eo.maximality(game, q).minimal == (q[0] <= F(1, 2)), q


def test_oracle_corley_fronts_and_pairs(corley):
    game = _game(corley)
    for q in eo.simplex_grid(2, 8):
        assert eo.maximality(game, q).minimal == (q[0] >= F(1, 2)), q
    assert not eo.minimality(game, (F(0), F(1))).minimal
    assert eo.minimality(game, (F(1, 8), F(7, 8))).minimal
    assert eo.minimality(game, (F(1), F(0))).minimal
    strong = eo.classify_pair(game, (F(1), F(0)), (F(1), F(0)))
    assert strong.shapley and strong.strong
    assert not eo.classify_pair(game, (F(1), F(0)), (F(3, 4), F(1, 4))).shapley
    shapley = eo.classify_pair(game, (F(1, 8), F(7, 8)), (F(5, 8), F(3, 8)))
    assert shapley.shapley and not shapley.strong


def test_oracle_pure_first_row_of_the_three_by_three_game_is_dominated(three_by_three):
    game = _game(three_by_three)
    p = (F(1), F(0), F(0))
    verdict = eo.minimality(game, p)
    assert not verdict.minimal and verdict.dominator is not None
    assert sum(verdict.dominator) == 1 and min(verdict.dominator) >= 0
    tested = eo.row_generators(game, p)
    better = eo.row_generators(game, verdict.dominator)
    assert eo.lower_subset(better, tested)
    assert not eo.lower_subset(tested, better)
    assert not eo.in_lower_set(verdict.vertex, better)


# Integer K=2 games with 2 or 3 rows and columns and entries in [-5, 5].
_GAMES = st.tuples(st.integers(2, 3), st.integers(2, 3)).flatmap(
    lambda shape: st.lists(
        st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


def _sixths(weights) -> tuple[F, ...]:
    return tuple(F(round(6 * w), 6) for w in weights)


@settings(deadline=None, max_examples=12)
@given(_GAMES)
def test_fronts_and_pair_flags_match_the_exact_oracle_on_random_games(entries):
    # expected values come from the oracle alone
    game = VectorPayoffGame.from_rows(entries)
    exact = eo.exact_game(entries)
    fronts = []
    for player, decide in ((Player.ROW, eo.minimality), (Player.COL, eo.maximality)):
        front = classify_grid(game, player, F(1, 6))
        for cert in front.certificates:
            point = _sixths(cert.tested_strategy.weights)
            assert cert.is_minimal == decide(exact, point).minimal, (player, point)
        fronts.append(front)
    for record in classify_pairs(game, *fronts):
        pair = (_sixths(record.p.weights), _sixths(record.q.weights))
        verdict = eo.classify_pair(exact, *pair)
        assert (record.shapley, record.strong) == (verdict.shapley, verdict.strong), pair
