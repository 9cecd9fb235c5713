"""Game container, payoff evaluation, security points and simplex grids."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecgame.errors import InputError
from vecgame.game import (
    MixedStrategy,
    PayoffVector,
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    col_strategy,
    componentwise_security_point,
    enumerate_simplex_grid,
    expected_payoff,
    expected_payoffs,
    row_generator_matrix,
    row_strategy,
)

from properties import weights_close


def close(vec, expected, tol=1e-12):
    return max(abs(a - b) for a, b in zip(vec, expected)) <= tol


# --- expected payoff -------------------------------------------------------

def test_expected_payoff_pure_pair(two_by_two):
    v = expected_payoff(two_by_two, row_strategy(1, 0), col_strategy(1, 0))
    assert close(v, (0.0, 0.0))


def test_expected_payoff_mixed_row(two_by_two):
    v = expected_payoff(two_by_two, row_strategy(1 / 3, 2 / 3), col_strategy(0, 1))
    assert close(v, (2.0, 10.0 / 3.0), tol=1e-12)


def test_expected_payoff_every_pure_pair_is_the_entry(three_by_three):
    for i in range(3):
        for j in range(3):
            p = row_strategy(*(1.0 if t == i else 0.0 for t in range(3)))
            q = col_strategy(*(1.0 if t == j else 0.0 for t in range(3)))
            v = expected_payoff(three_by_three, p, q)
            assert close(v, tuple(three_by_three.entries[i, j]))


def test_expected_payoff_rejects_wrong_lengths(two_by_two):
    with pytest.raises(InputError):
        expected_payoff(two_by_two, row_strategy(1, 0, 0), col_strategy(1, 0))
    with pytest.raises(InputError):
        expected_payoff(two_by_two, row_strategy(1, 0), col_strategy(1, 0, 0))


@pytest.mark.parametrize("rows", [[[[1, 0], [0, 0]], [[0, 1]]], [[["a", 0]]], [[[1, None]]]])
def test_ragged_or_non_numeric_entries_are_an_input_error(rows):
    with pytest.raises(InputError):
        VectorPayoffGame.from_rows(rows)
    with pytest.raises(InputError):
        VectorPayoffGame(rows)


# --- generator matrices ----------------------------------------------------

def test_row_generators_pure_strategy(two_by_two):
    gen = row_generator_matrix(two_by_two, row_strategy(1, 0))
    assert np.allclose(gen, [(0, 0), (4, 4)])


def test_row_generators_constant_row(constant_row):
    gen = row_generator_matrix(constant_row, row_strategy(0, 0, 1))
    assert np.allclose(gen, [(1, 1), (1, 1)])


def test_col_generators(two_by_two):
    assert np.allclose(
        col_generator_matrix(two_by_two, col_strategy(1, 0)), [(0, 0), (3, 1)]
    )
    assert np.allclose(
        col_generator_matrix(two_by_two, col_strategy(0.5, 0.5)), [(2, 2), (2, 2)]
    )


# --- security points -------------------------------------------------------

def test_row_security_point(two_by_two):
    w = componentwise_security_point(two_by_two, row_strategy(0, 1))
    assert close(w, (3.0, 3.0))
    w = componentwise_security_point(two_by_two, row_strategy(1 / 3, 2 / 3))
    assert close(w, (2.0, 10.0 / 3.0), tol=1e-12)


def test_col_security_point(two_by_two):
    w = componentwise_security_point(two_by_two, col_strategy(1, 0))
    assert close(w, (0.0, 0.0))


def test_security_point_names_the_owner_of_a_wrong_length_strategy(two_by_two):
    with pytest.raises(InputError, match="strategy has 3 weights, player II has 2 pure"):
        componentwise_security_point(two_by_two, col_strategy(0.5, 0.25, 0.25))
    with pytest.raises(InputError, match="strategy has 1 weights, player I has 2 pure"):
        componentwise_security_point(two_by_two, row_strategy(1.0))


def test_single_column_security_point_is_the_only_generator(single_column):
    for a in (0.0, 0.25, 1.0):
        p = row_strategy(a, 1 - a)
        w = componentwise_security_point(single_column, p)
        assert close(w, row_generator_matrix(single_column, p)[0])


# --- simplex grids ---------------------------------------------------------

def test_grid_dim2_half_step_order():
    grid = enumerate_simplex_grid(2, Fraction(1, 2))
    assert [s.weights for s in grid] == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_grid_sizes():
    assert len(enumerate_simplex_grid(3, Fraction(1, 2))) == 6
    assert len(enumerate_simplex_grid(3, Fraction(1, 10))) == 66


def test_grid_cardinality_matches_compositions():
    for dim in range(1, 6):
        for n in range(1, 21):
            grid = enumerate_simplex_grid(dim, Fraction(1, n))
            assert len(grid) == math.comb(n + dim - 1, dim - 1)


def test_grid_owner_and_step_are_recorded():
    grid = enumerate_simplex_grid(2, "1/4", owner=Player.COL)
    assert grid.step == Fraction(1, 4)
    assert all(s.owner is Player.COL for s in grid)


def test_grid_weights_are_exact_multiples():
    grid = enumerate_simplex_grid(3, Fraction(1, 5))
    for s in grid:
        for w in s.weights:
            assert w == round(w * 5) / 5


def test_grid_step_validation():
    with pytest.raises(InputError):
        enumerate_simplex_grid(2, Fraction(2, 3))
    with pytest.raises(InputError):
        enumerate_simplex_grid(2, 2)
    with pytest.raises(InputError):
        enumerate_simplex_grid(0, Fraction(1, 2))
    for step in ("abc", "1/0", float("nan"), float("inf"), "3/10", Fraction(3, 10)):
        with pytest.raises(InputError):
            enumerate_simplex_grid(2, step)


# --- mirror ----------------------------------------------------------------

def test_mirror_negates_and_transposes(two_by_two):
    m = two_by_two.mirror()
    assert (m.rows, m.cols, m.dim) == (2, 2, 2)
    assert np.array_equal(
        m.entries, -np.transpose(two_by_two.entries, (1, 0, 2))
    )


def test_mirror_is_an_involution(three_by_three):
    assert np.array_equal(
        three_by_three.mirror().mirror().entries, three_by_three.entries
    )


# --- construction and validation ------------------------------------------

def test_game_shape_validation():
    with pytest.raises(InputError):
        VectorPayoffGame(np.zeros((2, 2)))
    with pytest.raises(InputError):
        VectorPayoffGame(np.array([[[np.inf, 0.0]]]))


def test_game_entries_are_read_only(two_by_two):
    with pytest.raises(ValueError):
        two_by_two.entries[0, 0, 0] = 9.0


def test_mixed_strategy_validation():
    with pytest.raises(InputError):
        MixedStrategy((0.5, 0.6))
    with pytest.raises(InputError):
        MixedStrategy((-0.1, 1.1))
    with pytest.raises(InputError):
        MixedStrategy(())
    with pytest.raises(InputError):
        MixedStrategy((1.0,), owner="row")


def test_mixed_strategy_cleaned():
    s = MixedStrategy.cleaned([0.5, 0.5 + 1e-13, -1e-12])
    assert abs(sum(s.weights) - 1.0) <= 1e-12
    assert all(w >= 0 for w in s.weights)
    with pytest.raises(InputError):
        MixedStrategy.cleaned([0.5, -0.5])
    with pytest.raises(InputError):
        MixedStrategy.cleaned([0.0, 0.0])


def test_strategy_support():
    s = MixedStrategy((0.5, 0.0, 0.5))
    assert s.support() == (0, 2)


def test_owner_helpers():
    assert row_strategy(1.0).owner is Player.ROW
    assert col_strategy(1.0).owner is Player.COL
    assert Player.ROW.opponent is Player.COL
    assert Player.COL.opponent is Player.ROW


def test_payoff_vector_validation():
    with pytest.raises(InputError):
        PayoffVector(())
    with pytest.raises(InputError):
        PayoffVector((1.0, float("nan")))
    v = PayoffVector((1, 2))
    assert v[1] == 2.0 and len(v) == 2 and list(v) == [1.0, 2.0]


# --- algebraic properties --------------------------------------------------

small_entries = st.integers(min_value=-9, max_value=9)


def _game_strategy(draw, m, n, k):
    rows = draw(
        st.lists(
            st.lists(
                st.lists(small_entries, min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
    return VectorPayoffGame.from_rows(rows)


positive_weights = st.lists(
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=2, max_size=4
)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_expected_payoff_is_bilinear(data):
    m = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, 3))
    game = _game_strategy(data.draw, m, n, k)
    p1 = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)), Player.ROW
    )
    p2 = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)), Player.ROW
    )
    q1 = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)), Player.COL
    )
    q2 = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)), Player.COL
    )
    a = data.draw(st.floats(0.0, 1.0))

    blend_p = MixedStrategy(
        tuple(a * x + (1 - a) * y for x, y in zip(p1.weights, p2.weights)), Player.ROW
    )
    left = expected_payoff(game, blend_p, q1).as_array()
    right = a * expected_payoff(game, p1, q1).as_array() + (1 - a) * expected_payoff(
        game, p2, q1
    ).as_array()
    assert np.max(np.abs(left - right)) <= 1e-10

    blend_q = MixedStrategy(
        tuple(a * x + (1 - a) * y for x, y in zip(q1.weights, q2.weights)), Player.COL
    )
    left = expected_payoff(game, p1, blend_q).as_array()
    right = a * expected_payoff(game, p1, q1).as_array() + (1 - a) * expected_payoff(
        game, p1, q2
    ).as_array()
    assert np.max(np.abs(left - right)) <= 1e-10


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_k1_payoff_is_the_scalar_bilinear_form(data):
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(2, 4))
    game = _game_strategy(data.draw, m, n, 1)
    p = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)), Player.ROW
    )
    q = MixedStrategy.cleaned(
        data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)), Player.COL
    )
    direct = float(p.as_array() @ game.entries[:, :, 0] @ q.as_array())
    assert abs(expected_payoff(game, p, q)[0] - direct) <= 1e-12


def test_batched_payoffs_equal_single_payoffs_bit_for_bit():
    # The reference is one einsum per pair, the float every report has
    # printed.  A fused einsum over the batch sums in an order that depends
    # on the shapes; for K = 1 it misses the last bit on some of these pairs.
    rng = np.random.default_rng(20261018)
    for _ in range(150):
        m, n, k, num_p, num_q = (int(x) for x in rng.integers(1, 5, size=5))
        game = VectorPayoffGame(rng.integers(-9, 10, size=(m, n, k)).astype(float))
        ps = [MixedStrategy.cleaned(rng.dirichlet(np.ones(m)), Player.ROW) for _ in range(num_p)]
        qs = [MixedStrategy.cleaned(rng.dirichlet(np.ones(n)), Player.COL) for _ in range(num_q)]
        batch = expected_payoffs(game, ps, qs)
        assert batch.shape == (num_p, num_q, k)
        for a, p in enumerate(ps):
            for b, q in enumerate(qs):
                single = np.einsum("i,ijk,j->k", p.as_array(), game.entries, q.as_array())
                assert batch[a, b].tobytes() == single.tobytes()
                assert np.array(expected_payoff(game, p, q).value).tobytes() == single.tobytes()
    assert expected_payoffs(game, [], qs).shape == (0, num_q, k)


def test_weights_close_helper():
    assert weights_close((0.5, 0.5), (0.5, 0.5 + 1e-12))
    assert not weights_close((0.5, 0.5), (0.5, 0.6))
    assert not weights_close((1.0,), (0.5, 0.5))
