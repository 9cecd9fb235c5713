"""Shared fixtures: the worked example games, their grid fronts, and
`tools/report_diff.py` as a module.

Front computation is session scoped because the grids behind the larger
games take a few seconds; every test that consumes a front treats it as
read-only.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from vecgame import cli, solver
from vecgame.game import Player, VectorPayoffGame
from vecgame.solver import classify_grid

# 2x2, K=2: mixing helps both players.
TWO_BY_TWO_ROWS = [
    [(0, 0), (4, 4)],
    [(3, 1), (1, 3)],
]

# 2x2, K=2: second row is a matching-pennies block, first row is null.
NULL_ROW_ROWS = [
    [(0, 0), (0, 0)],
    [(1, -1), (-1, 1)],
]

# 3x2, K=2: third row is constant (1,1) and yields a singleton payoff set.
CONSTANT_ROW_ROWS = [
    [(0, 0), (3, -3)],
    [(-3, 3), (0, 0)],
    [(1, 1), (1, 1)],
]

# 2x2, K=2: the classic small example with a rich set of optimal mixtures.
CORLEY_ROWS = [
    [(1, 0), (0, 0)],
    [(0, 1), (1, 0)],
]

# 2x2, K=2: second row identically zero, so player I can opt out.
ZERO_ROW_ROWS = [
    [(2, -1), (-1, 2)],
    [(0, 0), (0, 0)],
]

# 3x3, K=2: the large worked example used for pair classification.
THREE_BY_THREE_ROWS = [
    [(5, 0), (-1, -5), (4, -4)],
    [(2, -2), (2, -7), (2, 2)],
    [(0, -6), (6, -2), (-2, 4)],
]

# 2x1, K=2: single column, incomparable rows.
SINGLE_COLUMN_ROWS = [
    [(0, 2)],
    [(3, 1)],
]

# 2x2, K=1: scalar game with value 2 at p=(1/3,2/3).
SCALAR_ROWS = [
    [(0,), (4,)],
    [(3,), (1,)],
]


@pytest.fixture
def pool_pays(monkeypatch):
    """Break-evens of one grid point and one payoff entry, so that a worker
    count above 1 starts a pool even on the small grids and games a test can
    afford (`solver.pool_size`)."""
    monkeypatch.setattr(solver, "GRID_BREAK_EVEN", 1)
    monkeypatch.setattr(cli, "POSS_BREAK_EVEN", 1)


@pytest.fixture(scope="session")
def two_by_two() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(TWO_BY_TWO_ROWS)


@pytest.fixture(scope="session")
def null_row() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(NULL_ROW_ROWS)


@pytest.fixture(scope="session")
def constant_row() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(CONSTANT_ROW_ROWS)


@pytest.fixture(scope="session")
def corley() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(CORLEY_ROWS)


@pytest.fixture(scope="session")
def zero_row() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(ZERO_ROW_ROWS)


@pytest.fixture(scope="session")
def three_by_three() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(THREE_BY_THREE_ROWS)


@pytest.fixture(scope="session")
def single_column() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(SINGLE_COLUMN_ROWS)


@pytest.fixture(scope="session")
def scalar_game() -> VectorPayoffGame:
    return VectorPayoffGame.from_rows(SCALAR_ROWS)


@pytest.fixture(scope="session")
def three_by_three_fronts(three_by_three):
    row = classify_grid(three_by_three, Player.ROW, Fraction(1, 10))
    col = classify_grid(three_by_three, Player.COL, Fraction(1, 5))
    return row, col


@pytest.fixture(scope="session")
def corley_fronts(corley):
    row = classify_grid(corley, Player.ROW, Fraction(1, 8))
    col = classify_grid(corley, Player.COL, Fraction(1, 8))
    return row, col


@pytest.fixture(scope="session")
def zero_row_fronts(zero_row):
    row = classify_grid(zero_row, Player.ROW, Fraction(1, 10))
    col = classify_grid(zero_row, Player.COL, Fraction(1, 10))
    return row, col


@pytest.fixture(scope="session")
def report_diff():
    tool = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
    spec = importlib.util.spec_from_file_location("report_diff", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_pairs():
    tool = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
