"""Minimality/maximality LPs and grid fronts."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from vecgame import solver
from vecgame.errors import InputError, NumericalError
from vecgame.game import (
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    col_strategy,
    enumerate_simplex_grid,
    row_generator_matrix,
    row_strategy,
)
from vecgame.polyhedra import build_lower_set, build_upper_set, poly_subset, support_value
from vecgame.lp import LPOutcome
from vecgame.solver import (
    DECISION_TOL,
    MinimalityCertificate,
    classify_grid,
    maximality_lp,
    minimality_lp,
)

from properties import (
    check_k1_reduction,
    check_set_relation_monotonicity,
    fail_one_stacked_lp,
    optimal_weight_set,
    random_game,
    relabeled_game,
    same_polyhedron,
    scalar_game_value,
)
from test_report_digests import GAMES as BUNDLED_GAMES

# Grid-front ground truth for the 3x3 game, established by exact-arithmetic
# recomputation (rational hulls and facets; LP results cross-checked with an
# independent solver and an exact grid improver).
BIG_GAME_MINIMAL = {
    (0.7, 0.0, 0.3),
    (0.6, 0.0, 0.4),
    (0.5, 0.0, 0.5),
    (0.4, 0.2, 0.4),
    (0.4, 0.0, 0.6),
    (0.3, 0.4, 0.3),
    (0.2, 0.6, 0.2),
    (0.1, 0.8, 0.1),
    (0.0, 1.0, 0.0),
}
BIG_GAME_MAXIMAL = {
    (0.4, 0.2, 0.4),
    (0.4, 0.0, 0.6),
    (0.2, 0.2, 0.6),
    (0.2, 0.0, 0.8),
    (0.0, 0.2, 0.8),
    (0.0, 0.0, 1.0),
}


# --- minimality ------------------------------------------------------------

def test_minimality_accepts_an_optimal_mixture(two_by_two):
    cert = minimality_lp(two_by_two, row_strategy(1 / 3, 2 / 3))
    assert cert.is_minimal
    assert cert.lp_value <= DECISION_TOL
    assert cert.improving_strategy is None


def test_minimality_rejects_and_improves(two_by_two):
    tested = row_strategy(2 / 3, 1 / 3)
    cert = minimality_lp(two_by_two, tested)
    assert not cert.is_minimal
    assert cert.lp_value > DECISION_TOL
    better = cert.improving_strategy
    inner = build_lower_set(row_generator_matrix(two_by_two, better))
    outer = build_lower_set(row_generator_matrix(two_by_two, tested))
    assert poly_subset(inner, outer, tol=1e-7)
    assert not poly_subset(outer, inner, tol=1e-9)


def test_an_improving_strategy_can_land_in_the_minimal_region(two_by_two):
    # the minimal strategies of this game are p with p_1 <= 1/3
    cert = minimality_lp(two_by_two, row_strategy(2 / 3, 1 / 3))
    better = cert.improving_strategy
    assert better.weights[0] <= 1 / 3 + 1e-7
    assert minimality_lp(two_by_two, better).is_minimal


def test_minimality_constant_row(constant_row):
    assert minimality_lp(constant_row, row_strategy(0, 0, 1)).is_minimal


def test_minimality_null_row_game(null_row):
    cert = minimality_lp(null_row, row_strategy(0, 1))
    assert not cert.is_minimal
    assert cert.lp_value == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(cert.improving_strategy.weights, (1.0, 0.0), atol=1e-9)
    assert minimality_lp(null_row, row_strategy(1, 0)).is_minimal


def test_minimality_value_of_a_pure_strategy(three_by_three):
    # slack measured against the unit-sum exposing normal at the single
    # vertex (5,0), half of the raw facet-sum slack 55/13
    cert = minimality_lp(three_by_three, row_strategy(1, 0, 0))
    assert not cert.is_minimal
    assert cert.lp_value == pytest.approx(55 / 26, abs=1e-6)


def test_certificate_slacks_sum_to_the_value(two_by_two):
    cert = minimality_lp(two_by_two, row_strategy(1, 0))
    assert isinstance(cert, MinimalityCertificate)
    assert sum(cert.slacks) == pytest.approx(cert.lp_value, abs=1e-9)


def _stub_improvement_lp(monkeypatch, weights):
    """Make every improvement LP report value 1 with `weights` as its mixture.

    The LP runs in the shift d = p - pbar, so each outcome holds the first
    m - 1 entries of weights - pbar, read off the last m rhs entries (pbar).
    """

    def fake_solve_batch(lp):
        m = len(weights)
        slacks = np.zeros(lp.lhs.shape[2] - (m - 1))
        slacks[0] = 1.0
        return [
            LPOutcome("optimal", 1.0, np.concatenate([(weights - rhs[-m:])[:-1], slacks]), 0)
            for rhs in lp.rhs
        ]

    monkeypatch.setattr(solver, "solve_batch", fake_solve_batch)


def test_a_positive_value_without_improvement_is_a_numerical_fault(two_by_two, monkeypatch):
    # the "improving" mixture is the tested strategy itself
    _stub_improvement_lp(monkeypatch, [0.5, 0.5])
    with pytest.raises(NumericalError, match="payoff sets coincide"):
        minimality_lp(two_by_two, row_strategy(0.5, 0.5))


def test_an_improving_set_outside_the_tested_one_is_a_numerical_fault(two_by_two, monkeypatch):
    # row 1 reaches (4, 4), which lies outside co{(3, 1), (1, 3)} - R^2_+
    _stub_improvement_lp(monkeypatch, [1.0, 0.0])
    with pytest.raises(NumericalError, match="not contained in the tested one"):
        minimality_lp(two_by_two, row_strategy(0.0, 1.0))


def test_verdicts_do_not_depend_on_the_payoff_unit():
    # At scale 1e-4 an improvement LP of this game once returned a weight of
    # -0.5, from rounding in the double description its payoff sets came from.
    entries = np.array([[[2, -2, 1], [2, 0, 1], [1, -2, 2]],
                        [[2, 2, -2], [2, 2, 0], [-2, 1, -2]],
                        [[-1, 1, 2], [2, -1, -2], [2, 2, -1]]], dtype=float)
    for player in Player:
        verdicts = [
            [c.is_minimal for c in classify_grid(
                VectorPayoffGame(scale * entries), player, Fraction(1, 4), workers=1
            ).certificates]
            for scale in (1.0, 1e-4)
        ]
        assert verdicts[0] == verdicts[1], player


def test_only_optimal_certificates_carry_their_payoff_set(two_by_two):
    optimal = minimality_lp(two_by_two, row_strategy(0.25, 0.75))
    assert optimal.is_minimal
    assert same_polyhedron(
        optimal.payoff_set,
        build_lower_set(row_generator_matrix(two_by_two, row_strategy(0.25, 0.75))),
    )
    assert minimality_lp(two_by_two, row_strategy(1, 0)).payoff_set is None
    with pytest.raises(InputError, match="must carry its payoff set"):
        MinimalityCertificate(row_strategy(1, 0), 0.0, None, True, (0.0,))


def test_minimality_input_validation(two_by_two):
    with pytest.raises(InputError):
        minimality_lp(two_by_two, col_strategy(0.5, 0.5))
    with pytest.raises(InputError):
        minimality_lp(two_by_two, row_strategy(1, 0, 0))


# --- maximality ------------------------------------------------------------

def test_maximality_examples(two_by_two, corley):
    assert maximality_lp(two_by_two, col_strategy(0.5, 0.5)).is_minimal
    cert = maximality_lp(two_by_two, col_strategy(1, 0))
    assert not cert.is_minimal
    assert cert.improving_strategy.owner is Player.COL
    assert maximality_lp(corley, col_strategy(0.75, 0.25)).is_minimal


def test_maximality_improvement_grows_the_upper_set(two_by_two):
    cert = maximality_lp(two_by_two, col_strategy(1, 0))
    inner = build_upper_set(col_generator_matrix(two_by_two, cert.improving_strategy))
    outer = build_upper_set(col_generator_matrix(two_by_two, cert.tested_strategy))
    assert poly_subset(inner, outer, tol=1e-7)


def test_a_maximality_witness_can_itself_be_maximal(two_by_two):
    # the maximal strategies of this game are q with q_1 <= 1/2
    better = maximality_lp(two_by_two, col_strategy(1, 0)).improving_strategy
    assert better.owner is Player.COL
    assert better.weights[0] <= 0.5 + 1e-7
    assert maximality_lp(two_by_two, better).is_minimal


def test_maximality_input_validation(two_by_two):
    with pytest.raises(InputError):
        maximality_lp(two_by_two, row_strategy(0.5, 0.5))
    with pytest.raises(InputError):
        maximality_lp(two_by_two, col_strategy(1, 0, 0))


# --- grid fronts -----------------------------------------------------------

def test_corley_fronts(corley_fronts):
    row, col = corley_fronts
    assert optimal_weight_set(row) == {
        (i / 8, 1 - i / 8) for i in range(1, 9)
    }
    assert optimal_weight_set(col) == {
        (i / 8, 1 - i / 8) for i in range(4, 9)
    }


def test_zero_row_fronts(zero_row_fronts):
    row, col = zero_row_fronts
    assert optimal_weight_set(row) == {(0.0, 1.0)}
    assert optimal_weight_set(col) == {(0.4, 0.6), (0.5, 0.5), (0.6, 0.4)}
    # the three maximal mixtures share one payoff set
    assert len(col.equivalence_classes) == 1
    assert len(col.minimal_or_maximal) == 1
    assert col.minimal_or_maximal[0].weights == (0.4, 0.6)
    members = col.equivalence_classes[0]
    assert [col.grid.points[i].weights for i in members] == [
        (0.4, 0.6),
        (0.5, 0.5),
        (0.6, 0.4),
    ]


def test_big_game_fronts(three_by_three_fronts):
    row, col = three_by_three_fronts
    assert optimal_weight_set(row) == BIG_GAME_MINIMAL
    assert optimal_weight_set(col) == BIG_GAME_MAXIMAL
    # pairwise distinct payoff sets: no equivalence classes merge
    assert len(row.equivalence_classes) == 9
    assert len(col.equivalence_classes) == 6


def test_front_bookkeeping(corley_fronts):
    row, _ = corley_fronts
    assert row.player is Player.ROW
    assert row.grid.step == Fraction(1, 8)
    assert len(row.certificates) == len(row.grid.points) == 9
    for cert, point in zip(row.certificates, row.grid.points):
        assert cert.tested_strategy.weights == point.weights
    assert row.optimal_indices() == [
        i for i, c in enumerate(row.certificates) if c.is_minimal
    ]


def test_classify_grid_worker_independence(two_by_two):
    serial = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    parallel = classify_grid(two_by_two, Player.ROW, Fraction(1, 10), workers=2)
    assert len(serial.certificates) == len(parallel.certificates)
    for a, b in zip(serial.certificates, parallel.certificates):
        assert a.tested_strategy.weights == b.tested_strategy.weights
        assert a.is_minimal == b.is_minimal
        assert a.lp_value == pytest.approx(b.lp_value, abs=1e-12)
    assert [s.weights for s in serial.minimal_or_maximal] == [
        s.weights for s in parallel.minimal_or_maximal
    ]


def _certificate_bytes(cert: MinimalityCertificate) -> tuple:
    """What a certificate holds, floats as bytes, so that a change in the last bit shows."""
    improving, payoff_set = cert.improving_strategy, cert.payoff_set
    fields = ("generators", "normals", "offsets", "vertices")
    return (
        cert.tested_strategy.weights,
        cert.is_minimal,
        np.float64(cert.lp_value).tobytes(),
        np.array(cert.slacks).tobytes(),
        None if improving is None else np.array(improving.weights).tobytes(),
        None if payoff_set is None else tuple(getattr(payoff_set, f).tobytes() for f in fields),
    )


@pytest.fixture(scope="module")
def per_point_certificates():
    """The relabeled benchmark game of the fronts workload at 1/12 (455 points a
    player, eight blocks of 56 or 57), certified one point at a time."""
    game = relabeled_game(1000, (4, 4, 3), 0)
    step = Fraction(1, 12)
    test = {Player.ROW: minimality_lp, Player.COL: maximality_lp}
    return game, step, {
        player: [
            _certificate_bytes(test[player](game, s))
            for s in enumerate_simplex_grid(4, step, owner=player).points
        ]
        for player in Player
    }


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_classify_grid_equals_per_point_certificates_bit_for_bit(per_point_certificates, workers):
    game, step, want = per_point_certificates
    assert len(want[Player.ROW]) == 455
    for player in Player:
        front = classify_grid(game, player, step, workers=workers)
        got = [_certificate_bytes(c) for c in front.certificates]
        assert got == want[player], player


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 5, 35, 64, 65, 455, 969])
def test_grid_blocks_are_contiguous_and_hold_at_most_64_points(count, workers):
    blocks = solver._grid_blocks(count, workers)
    assert [i for b in blocks for i in range(count)[b]] == list(range(count))
    assert max(b.stop - b.start for b in blocks) <= 64
    parts = 4 * workers if workers is not None and workers > 1 else 1
    assert len(blocks) == max(min(parts, count), -(-count // 64))


@pytest.mark.parametrize(
    ("workers", "count", "processes"),
    [(2, 2, 2), (16, 2, 2), (3, 8, 3), (4, 4, 4), (16, 1, None), (1, 8, None), (None, 8, None)],
)
def test_pool_map_starts_at_most_one_process_per_item(monkeypatch, workers, count, processes):
    started = []

    class RecordingExecutor:
        """Stands in for the process pool: records its size and maps in process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingExecutor)
    items = list(range(count))
    assert solver.pool_map(str, items, workers) == [str(x) for x in items]
    assert started == ([] if processes is None else [processes])


def test_one_non_optimal_lp_in_a_block_is_a_numerical_fault(two_by_two, monkeypatch):
    sizes = fail_one_stacked_lp(monkeypatch, solver)
    with pytest.raises(NumericalError, match="status iteration_limit"):
        classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    assert any(n > 1 for n in sizes)


# --- properties ---------------------------------------------------------------

def test_improvement_is_sound_on_random_games():
    rng = np.random.default_rng(101)
    improved = 0
    for _ in range(10):
        game = random_game(rng, 3, 2, 2)
        for p in list(enumerate_simplex_grid(3, Fraction(1, 2)))[:4]:
            cert = minimality_lp(game, p)
            if cert.is_minimal:
                continue
            improved += 1
            inner = build_lower_set(row_generator_matrix(game, cert.improving_strategy))
            outer = build_lower_set(row_generator_matrix(game, p))
            assert poly_subset(inner, outer, tol=1e-7)
            assert not poly_subset(outer, inner, tol=1e-9)
    assert improved >= 5


@pytest.mark.parametrize("name", BUNDLED_GAMES)
def test_each_improving_strategy_of_a_bundled_front_shrinks_the_tested_set(name):
    # Each set is built from the strategy's own generators, not taken from a
    # certificate: the improving set lies in the tested one and differs from it.
    game = VectorPayoffGame.from_rows(BUNDLED_GAMES[name])
    for player, build, generators in ((Player.ROW, build_lower_set, row_generator_matrix),
                                      (Player.COL, build_upper_set, col_generator_matrix)):
        for cert in classify_grid(game, player, Fraction(1, 10)).certificates:
            if cert.is_minimal:
                continue
            inner = build(generators(game, cert.improving_strategy))
            outer = build(generators(game, cert.tested_strategy))
            assert poly_subset(inner, outer, tol=1e-7), cert.tested_strategy
            assert not poly_subset(outer, inner, tol=1e-9), cert.tested_strategy


def test_strict_inclusion_shows_up_in_some_support_direction():
    rng = np.random.default_rng(103)
    grid = [np.array([i / 20, 1 - i / 20]) for i in range(21)]
    witnessed = 0
    for _ in range(15):
        game = random_game(rng, 3, 3, 2)
        for p in list(enumerate_simplex_grid(3, Fraction(1, 2)))[:4]:
            cert = minimality_lp(game, p)
            if cert.is_minimal or cert.lp_value < 0.05:
                continue
            inner = build_lower_set(
                row_generator_matrix(game, cert.improving_strategy)
            )
            outer = build_lower_set(row_generator_matrix(game, p))
            gaps = [
                support_value(outer, w) - support_value(inner, w) for w in grid
            ]
            assert max(gaps) > 1e-9
            witnessed += 1
    assert witnessed >= 5


def test_k1_reduction_equivalence():
    check_k1_reduction(np.random.default_rng(107), games=8)


def test_k1_maximality_is_scalar_optimality_for_the_column_player():
    # In one dimension the upper payoff set of q is [min_i (A q)_i, inf), so
    # it is maximal exactly when q guarantees the game value.
    rng = np.random.default_rng(108)
    verdicts = []
    for _ in range(8):
        game = random_game(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), 1)
        value = scalar_game_value(game.entries[:, :, 0])
        for q in enumerate_simplex_grid(game.cols, "1/4", owner=Player.COL):
            guarantee = float(col_generator_matrix(game, q).min())
            verdicts.append(maximality_lp(game, q).is_minimal)
            assert verdicts[-1] == (guarantee >= value - 1e-7), q.weights
    assert any(verdicts) and not all(verdicts)


def test_k1_fronts_are_the_optimal_strategies_of_the_scalar_game(scalar_game):
    row = classify_grid(scalar_game, Player.ROW, Fraction(1, 6), workers=1)
    col = classify_grid(scalar_game, Player.COL, Fraction(1, 6), workers=1)
    assert [p.weights for p in row.minimal_or_maximal] == [pytest.approx((1 / 3, 2 / 3))]
    assert [q.weights for q in col.minimal_or_maximal] == [pytest.approx((0.5, 0.5))]
    assert len(row.optimal_indices()) == len(col.optimal_indices()) == 1


def test_dominated_row_monotonicity():
    check_set_relation_monotonicity(np.random.default_rng(109), games=10)
