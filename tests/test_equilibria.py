"""Pair classification: frontier membership, the Shapley and strong tests, and
the equilibrium hierarchy of single pairs and grid fronts."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from vecgame import equilibria
from vecgame import lp as lp_module
from vecgame.equilibria import (
    STRONG_TOL,
    Classification,
    _boundary_mask,
    _strong_lps,
    _strong_values,
    classify_pair,
    classify_pairs,
)
from vecgame.errors import InputError
from vecgame.game import (
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    col_strategy,
    row_generator_matrix,
    row_strategy,
)
from vecgame.lp import solve_batch, solve_lp
from vecgame.polyhedra import build_lower_set, build_upper_set
from vecgame.solver import StrategyFront, classify_grid

from properties import (
    assert_hierarchy,
    expected_payoff,
    on_col_frontier,
    on_row_frontier,
    random_game,
    random_mixed,
    scalar_game_value,
    unstack_lp,
)


def _strong_lp_value(game, p, q):
    """The value of the pair's separation LP, solved alone."""
    vi = build_lower_set(row_generator_matrix(game, p))
    vii = build_upper_set(col_generator_matrix(game, q))
    payoff = expected_payoff(game, p, q)
    return _strong_values([((vi.normals, vi.offsets), (vii.normals, vii.offsets))], payoff[None])[0]


def _highs_strong_value(game, p, q):
    """HiGHS's value of the pair's separation LP as first defined, without
    the shift: over a free y and t >= 0, maximize sum(t) subject to
    a1 y <= b1 (V_I(p)) and a2 (y - t) >= b2 (V_II(q))."""
    vi = build_lower_set(row_generator_matrix(game, p))
    vii = build_upper_set(col_generator_matrix(game, q))
    k = game.dim
    res = linprog(
        np.concatenate([np.zeros(k), -np.ones(k)]),
        A_ub=np.block([[vi.normals, np.zeros_like(vi.normals)], [-vii.normals, vii.normals]]),
        b_ub=np.concatenate([vi.offsets, -vii.offsets]),
        bounds=[(None, None)] * k + [(0.0, None)] * k,
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


# ---------------------------------------------------------------------------
# frontier membership of a pair's payoff


def test_pair_payoff_on_the_row_frontier(corley):
    assert on_row_frontier(corley, row_strategy(1, 0), col_strategy(1, 0))


def test_interior_pair_payoff_is_not_a_max_point(corley):
    # v((1,0),(1/2,1/2)) = (1/2,0) sits strictly under the generator (1,0)
    assert not on_row_frontier(corley, row_strategy(1, 0), col_strategy(0.5, 0.5))


def test_single_column_payoff_is_always_a_max_point(single_column):
    for p1 in (0.0, 0.25, 1.0):
        p = row_strategy(p1, 1 - p1)
        assert on_row_frontier(single_column, p, col_strategy(1.0))


def test_pair_payoff_on_the_column_frontier(corley):
    assert on_col_frontier(corley, row_strategy(1, 0), col_strategy(1, 0))


def test_mixed_pair_payoff_is_not_a_min_point(corley):
    # v((1/2,1/2),(1/2,1/2)) = (1/2,1/4) lies above r_1(q) = (1/2,0)
    assert not on_col_frontier(corley, row_strategy(0.5, 0.5), col_strategy(0.5, 0.5))


def test_single_row_payoff_is_always_a_min_point():
    game = VectorPayoffGame.from_rows([[(0, 2), (3, 1)]])
    for q1 in (0.0, 0.5, 1.0):
        q = col_strategy(q1, 1 - q1)
        assert on_col_frontier(game, row_strategy(1.0), q)


# ---------------------------------------------------------------------------
# Shapley and strong Shapley tests


def test_shapley_detection_on_known_pairs(corley):
    assert classify_pair(corley, row_strategy(1, 0), col_strategy(1, 0)).shapley
    assert not classify_pair(corley, row_strategy(1, 0), col_strategy(0.75, 0.25)).shapley
    assert classify_pair(corley, row_strategy(0.125, 0.875), col_strategy(0.625, 0.375)).shapley


def test_strong_test_separates_the_two_shapley_pairs(corley):
    assert classify_pair(corley, row_strategy(1, 0), col_strategy(1, 0)).strong
    assert not classify_pair(corley, row_strategy(0.125, 0.875), col_strategy(0.625, 0.375)).strong


def test_strong_shapley_pair_of_the_three_by_three_game(three_by_three):
    p = row_strategy(0.4, 0.0, 0.6)
    q = col_strategy(0.0, 0.0, 1.0)
    assert classify_pair(three_by_three, p, q).strong


def test_strong_lp_value_of_the_non_strong_pair(corley):
    value = _strong_lp_value(corley, row_strategy(0.125, 0.875), col_strategy(0.625, 0.375))
    assert value == pytest.approx(7 / 24, abs=1e-9)


# ---------------------------------------------------------------------------
# single-pair classification


CORLEY_PAIRS = [
    ((1.0, 0.0), (1.0, 0.0), Classification.STRONG_SET_SHAPLEY, (1.0, 0.0)),
    ((0.25, 0.75), (0.75, 0.25), Classification.STRONG_SET_SHAPLEY, (0.375, 0.5625)),
    ((1.0, 0.0), (0.75, 0.25), Classification.SET_RELATION, (0.75, 0.0)),
    ((0.0, 1.0), (1.0, 0.0), Classification.STRONG_SHAPLEY, (0.0, 1.0)),
    ((0.125, 0.875), (0.625, 0.375), Classification.SET_SHAPLEY, (13 / 32, 35 / 64)),
]


@pytest.mark.parametrize("p, q, expected, payoff", CORLEY_PAIRS)
def test_classification_of_known_pairs(corley, p, q, expected, payoff):
    record = classify_pair(corley, row_strategy(*p), col_strategy(*q))
    assert record.classification is expected
    assert tuple(record.payoff) == pytest.approx(payoff, abs=1e-9)
    assert_hierarchy(record)


def test_record_flags_back_the_classification(corley):
    record = classify_pair(corley, row_strategy(1, 0), col_strategy(1, 0))
    assert record.p_minimal and record.q_maximal and record.shapley and record.strong


def test_midpoint_pair_of_the_two_by_two_game(two_by_two):
    record = classify_pair(two_by_two, row_strategy(1 / 3, 2 / 3), col_strategy(0.5, 0.5))
    assert record.classification is Classification.SET_RELATION
    assert not record.shapley
    assert tuple(record.payoff) == pytest.approx((2.0, 2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# classification of full fronts


@pytest.fixture(scope="module")
def three_by_three_records(three_by_three, three_by_three_fronts):
    row, col = three_by_three_fronts
    return classify_pairs(three_by_three, row, col)


@pytest.fixture(scope="module")
def corley_records(corley, corley_fronts):
    row, col = corley_fronts
    return classify_pairs(corley, row, col)


EXPECTED_SET_SHAPLEY = [
    ((0.4, 0.0, 0.6), (0.0, 0.0, 1.0), (2 / 5, 4 / 5), True),
    ((0.4, 0.0, 0.6), (0.0, 0.2, 0.8), (24 / 25, 0.0), False),
    ((0.5, 0.0, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0), True),
    ((0.5, 0.0, 0.5), (0.2, 0.0, 0.8), (13 / 10, -3 / 5), False),
    ((0.5, 0.0, 0.5), (0.4, 0.0, 0.6), (8 / 5, -6 / 5), False),
    ((0.6, 0.0, 0.4), (0.0, 0.0, 1.0), (8 / 5, -4 / 5), False),
    ((0.6, 0.0, 0.4), (0.2, 0.0, 0.8), (47 / 25, -28 / 25), False),
    ((0.6, 0.0, 0.4), (0.4, 0.0, 0.6), (54 / 25, -36 / 25), False),
    ((0.7, 0.0, 0.3), (0.0, 0.0, 1.0), (11 / 5, -8 / 5), False),
    ((0.7, 0.0, 0.3), (0.2, 0.0, 0.8), (123 / 50, -41 / 25), False),
    ((0.7, 0.0, 0.3), (0.4, 0.0, 0.6), (68 / 25, -42 / 25), False),
]


def test_every_front_pair_gets_a_record(three_by_three_records, three_by_three_fronts):
    row, col = three_by_three_fronts
    n_min = sum(c.is_minimal for c in row.certificates)
    n_max = sum(c.is_minimal for c in col.certificates)
    assert n_min * n_max == 54
    assert len(three_by_three_records) == 54


def test_records_follow_grid_order(three_by_three_records, three_by_three_fronts):
    row, col = three_by_three_fronts
    minimal = [c.tested_strategy.weights for c in row.certificates if c.is_minimal]
    maximal = [c.tested_strategy.weights for c in col.certificates if c.is_minimal]
    expected = [(p, q) for p in minimal for q in maximal]
    got = [(r.p.weights, r.q.weights) for r in three_by_three_records]
    assert got == expected


def test_front_records_carry_both_optimality_flags(three_by_three_records):
    assert all(r.p_minimal and r.q_maximal for r in three_by_three_records)


def test_set_shapley_records_of_the_three_by_three_game(three_by_three_records):
    found = [
        (r.p.weights, r.q.weights, tuple(r.payoff), r.strong)
        for r in three_by_three_records
        if r.classification in (Classification.SET_SHAPLEY, Classification.STRONG_SET_SHAPLEY)
    ]
    assert len(found) == len(EXPECTED_SET_SHAPLEY) == 11
    for got, exp in zip(found, EXPECTED_SET_SHAPLEY):
        assert got[0] == pytest.approx(exp[0], abs=1e-9)
        assert got[1] == pytest.approx(exp[1], abs=1e-9)
        assert got[2] == pytest.approx(exp[2], abs=1e-7)
        assert got[3] is exp[3]


def test_exactly_two_strong_records(three_by_three_records):
    strong = [
        r
        for r in three_by_three_records
        if r.classification is Classification.STRONG_SET_SHAPLEY
    ]
    assert len(strong) == 2
    payoffs = sorted(tuple(r.payoff) for r in strong)
    assert payoffs[0] == pytest.approx((2 / 5, 4 / 5), abs=1e-9)
    assert payoffs[1] == pytest.approx((1.0, 0.0), abs=1e-9)


def test_corley_front_pairs(corley_records):
    # 8 minimal rows x 5 maximal columns
    assert len(corley_records) == 40
    by_pair = {(r.p.weights, r.q.weights): r.classification for r in corley_records}
    assert by_pair[(1.0, 0.0), (1.0, 0.0)] is Classification.STRONG_SET_SHAPLEY
    assert by_pair[(1.0, 0.0), (0.75, 0.25)] is Classification.SET_RELATION
    assert by_pair[(0.125, 0.875), (0.625, 0.375)] is Classification.SET_SHAPLEY


def test_hierarchy_holds_on_every_record(three_by_three_records, corley_records):
    for record in [*three_by_three_records, *corley_records]:
        assert_hierarchy(record)


def test_set_relation_pairs_interchange(three_by_three_records):
    # with every cross pair present, interchanging two listed equilibria
    # must land on another listed set relation equilibrium
    by_pair = {(r.p.weights, r.q.weights): r for r in three_by_three_records}
    ps = {r.p.weights for r in three_by_three_records}
    qs = {r.q.weights for r in three_by_three_records}
    assert len(by_pair) == len(ps) * len(qs)
    at_least_set_relation = (
        Classification.SET_RELATION,
        Classification.SET_SHAPLEY,
        Classification.STRONG_SET_SHAPLEY,
    )
    for p in ps:
        for q in qs:
            assert by_pair[p, q].classification in at_least_set_relation


def test_classify_pair_rejects_a_strategy_of_the_wrong_player(two_by_two):
    with pytest.raises(InputError, match="of player I$"):
        classify_pair(two_by_two, col_strategy(1, 0), col_strategy(0, 1))
    with pytest.raises(InputError, match="of player II$"):
        classify_pair(two_by_two, row_strategy(1, 0), row_strategy(0, 1))


def test_classifying_swapped_fronts_is_rejected(three_by_three, three_by_three_fronts):
    row, col = three_by_three_fronts
    with pytest.raises(InputError):
        classify_pairs(three_by_three, col, row)


def test_empty_fronts_give_an_empty_record_list(corley, corley_fronts):
    row, col = corley_fronts
    empty = StrategyFront(
        player=Player.ROW,
        grid=row.grid,
        minimal_or_maximal=(),
        certificates=(),
        equivalence_classes=(),
    )
    assert classify_pairs(corley, empty, col) == []


# ---------------------------------------------------------------------------
# the batched pass agrees with the single-pair path


def _payoff_bits(record) -> bytes:
    return np.array(record.payoff).tobytes()


def _assert_batch_matches_single_pairs(game, records):
    for record in records:
        single = classify_pair(game, record.p, record.q)
        assert (single.p_minimal, single.q_maximal) == (True, True)
        assert (record.shapley, record.strong) == (single.shapley, single.strong)
        assert record.classification is single.classification
        assert _payoff_bits(record) == _payoff_bits(single)
        expected = expected_payoff(game, record.p, record.q)
        assert _payoff_bits(record) == expected.tobytes()


@pytest.mark.parametrize("name", ["corley", "three_by_three"])
def test_batched_records_equal_single_pair_records(request, name):
    game = request.getfixturevalue(name)
    row, col = request.getfixturevalue(f"{name}_fronts")
    records = classify_pairs(game, row, col)
    assert records
    _assert_batch_matches_single_pairs(game, records)


@settings(deadline=None, max_examples=30)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_records_equal_single_pair_records_on_random_games(shape, seed):
    rng = np.random.default_rng(seed)
    game = VectorPayoffGame(rng.integers(-3, 4, size=shape).astype(float))
    row = classify_grid(game, Player.ROW, Fraction(1, 3))
    col = classify_grid(game, Player.COL, Fraction(1, 3))
    _assert_batch_matches_single_pairs(game, classify_pairs(game, row, col))


@pytest.fixture(scope="module")
def corley_fine_fronts(corley):
    return (
        classify_grid(corley, Player.ROW, Fraction(1, 20)),
        classify_grid(corley, Player.COL, Fraction(1, 20)),
    )


@pytest.fixture(scope="module")
def corley_fine_records(corley, corley_fine_fronts):
    return classify_pairs(corley, *corley_fine_fronts)


# A game, its fronts and their records (classified serially), as fixture names.
_GAMES_WITH_RECORDS = [
    pytest.param("corley", "corley_fine_fronts", "corley_fine_records", id="corley-1/20"),
    pytest.param(
        "three_by_three", "three_by_three_fronts", "three_by_three_records", id="three_by_three"
    ),
]


@pytest.mark.parametrize("name, fronts, records", _GAMES_WITH_RECORDS)
def test_batched_strong_flags_equal_the_single_pair_lp(request, name, fronts, records):
    game = request.getfixturevalue(name)
    records = request.getfixturevalue(records)
    shapley = [r for r in records if r.shapley]
    assert any(r.strong for r in shapley) and not all(r.strong for r in shapley)
    for r in shapley:
        assert r.strong == (_strong_lp_value(game, r.p, r.q) <= STRONG_TOL)
    assert not any(r.strong for r in records if not r.shapley)


@pytest.mark.parametrize("workers", [None, 1, 2])
@pytest.mark.parametrize("name, fronts, records", _GAMES_WITH_RECORDS)
def test_records_do_not_depend_on_workers(request, name, fronts, records, workers, pool_pays):
    # the fronts are classified again under `workers`, in a pool for 2
    game = request.getfixturevalue(name)
    row, col = (
        classify_grid(game, front.player, front.grid.step, workers=workers)
        for front in request.getfixturevalue(fronts)
    )
    assert classify_pairs(game, row, col) == request.getfixturevalue(records)


def test_strong_lps_run_in_slices_of_grid_block_pairs(corley, corley_fine_fronts,
                                                     corley_fine_records, monkeypatch):
    stacks = []

    def recording_solve_batch(lp):
        stacks.append(len(lp.lhs))
        return solve_batch(lp)

    monkeypatch.setattr(equilibria, "solve_batch", recording_solve_batch)
    monkeypatch.setattr(equilibria, "STRONG_SLICE", 4)
    assert classify_pairs(corley, *corley_fine_fronts) == corley_fine_records
    assert sum(stacks) == sum(r.shapley for r in corley_fine_records) > 4
    assert max(stacks) <= 4


def test_strong_lps_solve_in_lockstep_bit_for_bit(corley, corley_fine_fronts, monkeypatch):
    stacks = []

    def recording_solve_batch(lp):
        stacks.append(lp)
        return solve_batch(lp)

    monkeypatch.setattr(equilibria, "solve_batch", recording_solve_batch)
    classify_pairs(corley, *corley_fine_fronts)
    assert any(len(lp.lhs) > 1 for lp in stacks)
    want = [solve_lp(member) for lp in stacks for member in unstack_lp(lp)]
    blands = []
    scalar_loop = lp_module._run_simplex

    def spy(T, basis, budget, bland=False):
        blands.append(bland)
        return scalar_loop(T, basis, budget, bland)

    monkeypatch.setattr(lp_module, "_run_simplex", spy)
    got = [out for lp in stacks for out in solve_batch(lp)]
    assert not any(blands)  # no LP leaves the lockstep loop for Bland's rule
    for g, w in zip(got, want, strict=True):
        assert g.status == w.status == "optimal" and g.iterations == w.iterations
        assert np.float64(g.objective_value).tobytes() == np.float64(w.objective_value).tobytes()
        assert g.solution.tobytes() == w.solution.tobytes()


def test_block_built_strong_lps_equal_their_pair_by_pair_definition(three_by_three):
    ps = [row_strategy(*p) for p in ((1, 0, 0), (0.2, 0.3, 0.5), (0.5, 0.5, 0))]
    qs = [col_strategy(*q) for q in ((0, 1, 0), (0.25, 0.25, 0.5), (0.6, 0, 0.4))]
    row_sets = [build_lower_set(row_generator_matrix(three_by_three, p)) for p in ps]
    col_sets = [build_upper_set(col_generator_matrix(three_by_three, q)) for q in qs]
    pairs = [((vi.normals, vi.offsets), (vii.normals, vii.offsets))
             for vi in row_sets for vii in col_sets]
    payoffs = np.array([expected_payoff(three_by_three, p, q) for p in ps for q in qs])
    counts = {(len(b1), len(b2)) for (_, b1), (_, b2) in pairs}
    stacks = _strong_lps(pairs, payoffs)
    assert len(counts) > 1 and len(stacks) == len(counts)
    built = {i: lp for idx, stack in stacks for i, lp in zip(idx, unstack_lp(stack), strict=True)}
    assert sorted(built) == list(range(len(pairs)))
    for i, ((a1, b1), (a2, b2)) in enumerate(pairs):
        # in the shift d = y - v: a1 d <= b1 - a1·v and -a2 d + a2 t <= a2·v - b2
        got, v = built[i], payoffs[i]
        f, k = a1.shape
        lhs = np.zeros((f + len(a2), 2 * k))
        lhs[:f, :k] = a1
        lhs[f:, :k] = -a2
        lhs[f:, k:] = a2
        rhs = np.concatenate([b1 - a1 @ v, a2 @ v - b2])
        assert (rhs >= -1e-7).all()
        assert got.objective.tobytes() == np.concatenate([np.zeros(k), np.ones(k)]).tobytes()
        assert got.lhs.tobytes() == lhs.tobytes() and got.lhs.shape == lhs.shape
        assert got.rhs == pytest.approx(np.maximum(rhs, 0.0), abs=1e-12)
        assert (got.rhs >= 0.0).all()
        assert (got.sense, got.bounds) == ("max", ((None, None),) * k + ((0.0, None),) * k)


@pytest.mark.parametrize("name, fronts, records", _GAMES_WITH_RECORDS)
def test_the_shifted_strong_lp_agrees_with_highs_on_the_unshifted_definition(
    request, name, fronts, records
):
    game = request.getfixturevalue(name)
    shapley = [r for r in request.getfixturevalue(records) if r.shapley]
    rng = np.random.default_rng(20240818)
    pairs = [(game, r.p, r.q) for r in shapley[:: max(1, len(shapley) // 40)]]
    for _ in range(20):
        other = random_game(rng, 3, 3, int(rng.integers(1, 4)))
        pairs.append((other, random_mixed(rng, 3, Player.ROW), random_mixed(rng, 3, Player.COL)))
    for game, p, q in pairs:
        want = _highs_strong_value(game, p, q)
        assert _strong_lp_value(game, p, q) == pytest.approx(want, abs=1e-7 * (1.0 + abs(want)))


@pytest.mark.parametrize("workers", [0, -1])
def test_library_rejects_a_worker_count_below_one(corley, workers):
    with pytest.raises(InputError, match="workers must be at least 1"):
        classify_grid(corley, Player.ROW, Fraction(1, 4), workers=workers)


def test_boundary_mask_edge_cases():
    # The lower set of the single point (1, 1) has the facets y1 <= 1 and y2 <= 1.
    poly = build_lower_set(np.array([[1.0, 1.0]]))
    points = np.array(
        [
            [0.0, 0.0],  # no active facet
            [1.0, 0.0],  # only y1 <= 1 is active: the summed normal has a zero component
            [1.0, 1.0],  # both are active
        ]
    )
    mask = _boundary_mask(poly, points)
    assert mask.tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# payoffs in the intersection of the two payoff sets


def _intersection_samples(game, p, q, directions):
    """Points of V_I(p) ∩ V_II(q) that maximize each direction, by HiGHS, and
    the midpoints of every two of them."""
    vi = build_lower_set(row_generator_matrix(game, p))
    vii = build_upper_set(col_generator_matrix(game, q))
    lhs = np.vstack([vi.normals, -vii.normals])
    rhs = np.concatenate([vi.offsets, -vii.offsets])
    points = []
    for d in directions:
        res = linprog(-np.asarray(d, dtype=float), A_ub=lhs, b_ub=rhs,
                      bounds=[(None, None)] * game.dim, method="highs")
        assert res.status == 0, res.message
        points.append(res.x)
    points = np.array(points)
    mids = (points[:, None, :] + points[None, :, :]) / 2.0
    return np.vstack([points, mids.reshape(-1, points.shape[1])])


def test_intersection_points_are_incomparable_to_the_pair_payoff(corley):
    p, q = row_strategy(0.125, 0.875), col_strategy(0.625, 0.375)
    assert classify_pair(corley, p, q).shapley
    v = expected_payoff(corley, p, q)
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    samples = _intersection_samples(corley, p, q, directions)
    checked = 0
    for y in samples:
        if np.max(np.abs(y - v)) <= 1e-7:
            continue
        assert not np.all(y >= v - 1e-9), f"{y} dominates the pair payoff {v}"
        assert not np.all(y <= v + 1e-9), f"{y} is dominated by the pair payoff {v}"
        checked += 1
    assert checked >= 10


def test_strong_lp_value_is_finite_and_nonnegative(corley, three_by_three, three_by_three_records):
    pairs = [
        (corley, row_strategy(1, 0), col_strategy(1, 0)),
        (corley, row_strategy(0.125, 0.875), col_strategy(0.625, 0.375)),
        (corley, row_strategy(0.5, 0.5), col_strategy(0.25, 0.75)),
    ]
    pairs += [(three_by_three, r.p, r.q) for r in three_by_three_records[::7]]
    for game, p, q in pairs:
        value = _strong_lp_value(game, p, q)
        assert np.isfinite(value)
        assert value >= -1e-8


# ---------------------------------------------------------------------------
# known strong pairs


# Saddle points of the all-ones scalarization, driven to a minimal and a
# maximal strategy: (p, q, payoff) per fixture game.
KNOWN_STRONG_PAIRS = {
    "two_by_two": ((0.0, 1.0), (0.5, 0.5), (2.0, 2.0)),
    "null_row": ((1.0, 0.0), (0.5, 0.5), (0.0, 0.0)),
    "constant_row": ((1.0, 0.0, 0.0), (1.0, 0.0), (0.0, 0.0)),
    "corley": ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0)),
    "zero_row": ((0.0, 1.0), (2 / 3, 1 / 3), (0.0, 0.0)),
    "three_by_three": ((8 / 13, 0.0, 5 / 13), (2 / 13, 0.0, 11 / 13), (322 / 169, -192 / 169)),
    "single_column": ((1.0, 0.0), (1.0,), (0.0, 2.0)),
    "scalar_game": ((1 / 3, 2 / 3), (0.5, 0.5), (2.0,)),
}


@pytest.mark.parametrize("name", list(KNOWN_STRONG_PAIRS))
def test_known_strong_pairs_classify_as_strong_set_shapley(request, name):
    p, q, payoff = KNOWN_STRONG_PAIRS[name]
    game = request.getfixturevalue(name)
    record = classify_pair(game, row_strategy(*p), col_strategy(*q))
    assert record.classification is Classification.STRONG_SET_SHAPLEY
    assert tuple(record.payoff) == pytest.approx(payoff, abs=1e-9)


@pytest.mark.parametrize("name", list(KNOWN_STRONG_PAIRS))
def test_known_strong_pairs_guarantee_the_all_ones_scalar_value(request, name):
    # Shrinking a payoff set never raises a weighted guarantee, so the pair
    # stays a saddle point of the game with payoff sum_k g_ijk.
    p, q, _ = KNOWN_STRONG_PAIRS[name]
    scal = request.getfixturevalue(name).entries.sum(axis=2)
    value = scalar_game_value(scal)
    assert float((np.array(p) @ scal).max()) == pytest.approx(value, abs=1e-9)
    assert float((scal @ np.array(q)).min()) == pytest.approx(value, abs=1e-9)


# ---------------------------------------------------------------------------
# randomized consistency


def test_random_pairs_classify_consistently():
    rng = np.random.default_rng(20240818)
    for _ in range(15):
        game = random_game(
            rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
        )
        p = random_mixed(rng, game.rows, Player.ROW)
        q = random_mixed(rng, game.cols, Player.COL)
        record = classify_pair(game, p, q)
        assert_hierarchy(record)
        value = _strong_lp_value(game, p, q)
        assert np.isfinite(value)
        assert value >= -1e-8
