"""Security images, Pareto optimal security strategies, and the gap check."""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from vecgame import poss
from vecgame.errors import InputError, NumericalError
from vecgame.game import (
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    enumerate_simplex_grid,
    row_generator_matrix,
    row_strategy,
)
from vecgame.lp import LPOutcome
from vecgame.polyhedra import (
    UPPER,
    build_lower_set,
    build_upper_set,
    upper_set_vertices,
)
from vecgame.poss import (
    VERIFY_TOL,
    SecurityImage,
    _benson,
    _verify_vertex,
    compute_security_image,
    poss_strategies,
    verify_gap,
)
from vecgame.solver import MinimalityCertificate, StrategyFront, classify_grid

from conftest import TWO_BY_TWO_ROWS
from properties import (
    benson_cut_by_lp,
    certify_every_grid_point,
    componentwise_security_point,
    contains_point,
    gap_violations_by_lp,
    meets_shifted_image_exactly,
    random_game,
    relabeled_game,
    scalar_game_value,
)


@pytest.fixture(scope="module")
def two_by_two_row_image(two_by_two) -> SecurityImage:
    return compute_security_image(two_by_two, Player.ROW)


@pytest.fixture(scope="module")
def two_by_two_col_image(two_by_two) -> SecurityImage:
    return compute_security_image(two_by_two, Player.COL)


@pytest.fixture(scope="module")
def three_by_three_row_image(three_by_three) -> SecurityImage:
    return compute_security_image(three_by_three, Player.ROW)


def _sorted_vertices(image: SecurityImage) -> list[tuple[float, ...]]:
    return sorted(map(tuple, image.vertices.tolist()))


def _halfspace_table(image: SecurityImage) -> list[tuple[tuple[float, ...], float]]:
    poly = image.polyhedron
    return [(tuple(a), b) for a, b in zip(poly.normals.tolist(), poly.offsets.tolist())]


# ---------------------------------------------------------------------------
# exact images of the 2x2 game


def test_row_image_vertices(two_by_two_row_image):
    got = _sorted_vertices(two_by_two_row_image)
    assert len(got) == 2
    assert got[0] == pytest.approx((2.0, 10 / 3), abs=1e-9)
    assert got[1] == pytest.approx((3.0, 3.0), abs=1e-9)


def test_row_image_halfspaces(two_by_two_row_image):
    expected = [((0.0, 1.0), 3.0), ((0.25, 0.75), 3.0), ((1.0, 0.0), 2.0)]
    got = _halfspace_table(two_by_two_row_image)
    assert len(got) == 3
    for (normal, offset), (e_normal, e_offset) in zip(got, expected):
        assert normal == pytest.approx(e_normal, abs=1e-9)
        assert offset == pytest.approx(e_offset, abs=1e-9)


def test_row_image_orientation_and_dim(two_by_two_row_image):
    assert two_by_two_row_image.polyhedron.orientation == "upper"
    assert two_by_two_row_image.polyhedron.dim == 2
    assert two_by_two_row_image.player is Player.ROW


def test_col_image_vertices(two_by_two_col_image):
    got = _sorted_vertices(two_by_two_col_image)
    assert len(got) == 2
    assert got[0] == pytest.approx((1.0, 3.0), abs=1e-9)
    assert got[1] == pytest.approx((2.0, 2.0), abs=1e-9)


def test_col_image_halfspaces(two_by_two_col_image):
    expected = [((0.0, 1.0), 3.0), ((0.5, 0.5), 2.0), ((1.0, 0.0), 2.0)]
    got = _halfspace_table(two_by_two_col_image)
    assert len(got) == 3
    for (normal, offset), (e_normal, e_offset) in zip(got, expected):
        assert normal == pytest.approx(e_normal, abs=1e-9)
        assert offset == pytest.approx(e_offset, abs=1e-9)


def test_col_image_orientation(two_by_two_col_image):
    assert two_by_two_col_image.polyhedron.orientation == "lower"


def test_row_witnesses_reproduce_the_vertices(two_by_two, two_by_two_row_image):
    for vertex, witness in zip(two_by_two_row_image.vertices, two_by_two_row_image.attainments):
        point = componentwise_security_point(two_by_two, witness)
        assert tuple(point) == pytest.approx(vertex, abs=1e-7)


def test_known_row_witnesses(two_by_two_row_image):
    image = two_by_two_row_image
    expected = {(2.0, 10 / 3): (1 / 3, 2 / 3), (3.0, 3.0): (0.0, 1.0)}
    assert len(image.vertices) == len(expected)
    for vertex, strategy in zip(image.vertices, image.attainments):
        known = min(expected, key=lambda e: np.abs(vertex - e).max())
        assert tuple(vertex) == pytest.approx(known, abs=1e-7)
        assert strategy.weights == pytest.approx(expected[known], abs=1e-7)


# ---------------------------------------------------------------------------
# degenerate shapes


def test_single_column_image_is_the_upper_set_of_the_rows(single_column):
    image = compute_security_image(single_column, Player.ROW)
    reference = build_upper_set(np.array([[0.0, 2.0], [3.0, 1.0]]))
    got = np.array(sorted(image.vertices.tolist()))
    expected = np.array(sorted(reference.vertices.tolist()))
    assert got.shape == expected.shape
    assert np.allclose(got, expected, atol=1e-9)


def test_dominant_row_collapses_the_image_to_one_vertex():
    game = VectorPayoffGame.from_rows([[(1, 1)], [(3, 2)]])
    image = compute_security_image(game, Player.ROW)
    assert len(image.vertices) == 1
    assert image.vertices[0] == pytest.approx((1.0, 1.0), abs=1e-9)
    assert image.attainments[0].weights == pytest.approx((1.0, 0.0), abs=1e-7)


def test_scalar_image_vertex_is_the_game_value(scalar_game):
    value = scalar_game_value(scalar_game.entries[:, :, 0])
    for player in (Player.ROW, Player.COL):
        image = compute_security_image(scalar_game, player)
        assert len(image.vertices) == 1
        assert image.vertices[0][0] == pytest.approx(value, abs=1e-7)


# ---------------------------------------------------------------------------
# structural invariants


def test_each_vertex_sits_on_enough_facets(two_by_two_row_image, two_by_two_col_image,
                                            three_by_three_row_image):
    for image in (two_by_two_row_image, two_by_two_col_image, three_by_three_row_image):
        A = image.polyhedron.normals
        b = image.polyhedron.offsets
        k = image.polyhedron.dim
        for vertex in image.vertices:
            tight = np.abs(A @ np.array(vertex) - b) <= 1e-7
            assert tight.sum() >= k


def test_every_vertex_has_an_attainment(two_by_two, three_by_three, two_by_two_row_image,
                                         three_by_three_row_image):
    for game, image in ((two_by_two, two_by_two_row_image),
                        (three_by_three, three_by_three_row_image)):
        assert len(image.attainments) == len(image.vertices)
        for vertex, witness in zip(image.vertices, image.attainments):
            point = componentwise_security_point(game, witness)
            assert point == pytest.approx(vertex, abs=1e-7)


def _five_by_five_by_four() -> VectorPayoffGame:
    return random_game(np.random.default_rng(20241017), 5, 5, 4, lo=-10, hi=10)


@functools.lru_cache(maxsize=None)
def _five_by_five_by_four_image(player: Player) -> SecurityImage:
    return compute_security_image(_five_by_five_by_four(), player)


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
def test_five_by_five_by_four_image_is_verified_and_valid(player):
    # Benson's loop runs dozens of cuts on one incremental DD here.
    game = _five_by_five_by_four()
    image = _five_by_five_by_four_image(player)
    entries = game.entries if player is Player.ROW else game.mirror().entries
    sign = 1.0 if player is Player.ROW else -1.0
    assert len(image.vertices) > 10
    for vertex, witness in zip(image.vertices, image.attainments, strict=True):
        lift, _, _ = _verify_vertex(entries, sign * np.array(vertex))
        assert lift <= VERIFY_TOL
        point = componentwise_security_point(game, witness)
        assert point == pytest.approx(vertex, abs=1e-7)
    grid = enumerate_simplex_grid(5, Fraction(1, 4), owner=player)
    points = np.array([componentwise_security_point(game, s) for s in grid.points])
    slack = sign * (points @ image.polyhedron.normals.T - image.polyhedron.offsets)
    assert slack.min() >= -1e-7


# ---------------------------------------------------------------------------
# facets and vertices read off Benson's double description

# Relabelings of the benchmark's 4x4x4 image games whose column images lost
# vertices while the image was rebuilt from its vertices by a second double
# description; each column image has 36 vertices.
LOST_VERTEX_INPUTS = [(2000, 4), (2000, 7), (2000, 10), (2000, 23), (2002, 8), (2002, 20)]
# That rebuild listed one facet of this column image twice and missed another.
DUPLICATE_FACET_INPUT = (2002, 17)
# A cut of this column image has a normal component of about 3e-17.
ROUNDING_RESIDUE_INPUT = (2001, 5)


@functools.lru_cache(maxsize=None)
def _relabeled_image(seed: int, variant: int, player: Player) -> SecurityImage:
    return compute_security_image(relabeled_game(seed, (4, 4, 4), variant), player)


@pytest.mark.parametrize("seed, variant", LOST_VERTEX_INPUTS)
def test_column_image_keeps_every_vertex_and_clears_the_gap(seed, variant):
    game = relabeled_game(seed, (4, 4, 4), variant)
    image = _relabeled_image(seed, variant, Player.COL)
    assert len(image.vertices) == 36
    front = classify_grid(game, Player.COL, Fraction(1, 4), workers=1)
    assert verify_gap(game, front, image).ok


def test_upper_set_of_benson_vertices_does_not_depend_on_their_order():
    # the vertices of one column image in the order Benson's loop lists them;
    # a double description that started from whichever rows came first kept
    # 21 of them and 25 halfspaces in this order
    vertices = upper_set_vertices(_benson(relabeled_game(2000, (4, 4, 4), 4).mirror().entries)[0])
    rng = np.random.default_rng(5)
    for order in [np.arange(36)] + [rng.permutation(36) for _ in range(3)]:
        poly = build_upper_set(vertices[order])
        assert (len(poly.vertices), len(poly.offsets)) == (36, 54)


def test_column_image_lists_no_facet_twice():
    image = _relabeled_image(*DUPLICATE_FACET_INPUT, Player.COL)
    rows = np.column_stack([image.polyhedron.normals, image.polyhedron.offsets])
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-6


def _check_image_facets(image: SecurityImage) -> None:
    """Every halfspace is a Pareto-weighted facet that holds at every vertex."""
    k = image.polyhedron.dim
    A, b = image.polyhedron.normals, image.polyhedron.offsets
    V = np.array(image.vertices)
    sign = 1.0 if image.polyhedron.orientation == UPPER else -1.0
    slack = sign * (V @ A.T - b)  # nonnegative inside the image
    assert np.all(A >= 0.0)
    assert not np.any((A > 0.0) & (A < 1e-12))  # rounding residue is cleaned to 0
    assert np.allclose(A.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert slack.min() >= -1e-10
    rows = np.column_stack([A, b])
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    assert np.all(gaps[np.triu_indices(len(b), 1)] > 1e-9)  # no halfspace twice
    for j in range(len(b)):
        # the face a·y = b spans K dimensions of the homogenized cone: rows
        # (1, v) of its vertices and (0, e_k) of its recession directions
        tight = [np.concatenate(([1.0], v)) for v in V[slack[:, j] <= 1e-7]]
        tight += [np.eye(k + 1)[1 + kk] for kk in range(k) if A[j, kk] == 0.0]
        assert np.linalg.matrix_rank(np.array(tight), tol=1e-6) == k


EXAMPLE_GAMES = ["two_by_two", "null_row", "constant_row", "corley", "zero_row",
                 "three_by_three", "single_column", "scalar_game"]


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
@pytest.mark.parametrize("name", EXAMPLE_GAMES)
def test_image_halfspaces_are_facets_on_the_example_games(name, player, request):
    _check_image_facets(compute_security_image(request.getfixturevalue(name), player))


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
def test_image_halfspaces_are_facets_on_the_five_by_five_by_four_game(player):
    _check_image_facets(_five_by_five_by_four_image(player))


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
@pytest.mark.parametrize(
    "seed, variant", LOST_VERTEX_INPUTS + [DUPLICATE_FACET_INPUT, ROUNDING_RESIDUE_INPUT]
)
def test_image_halfspaces_are_facets_on_relabeled_games(seed, variant, player):
    _check_image_facets(_relabeled_image(seed, variant, player))


def test_image_to_dict_round_trip(two_by_two_row_image):
    data = two_by_two_row_image.to_dict()
    assert data["player"] == Player.ROW.value
    assert data["orientation"] == "upper"
    assert len(data["halfspaces"]) == len(two_by_two_row_image.polyhedron.offsets)
    assert len(data["vertices"]) == len(two_by_two_row_image.vertices)
    assert len(data["attainments"]) == len(two_by_two_row_image.vertices)
    first = data["halfspaces"][0]
    assert set(first) == {"normal", "offset"}


# ---------------------------------------------------------------------------
# Pareto optimal security strategies


def test_poss_strategies_of_the_two_by_two_game(two_by_two, two_by_two_row_image):
    chosen = poss_strategies(two_by_two, Player.ROW, Fraction(1, 10), image=two_by_two_row_image)
    assert [s.weights for s in chosen] == [(0.0, 1.0), (0.1, 0.9), (0.2, 0.8), (0.3, 0.7)]


def test_poss_strategies_on_a_fine_grid(two_by_two, two_by_two_row_image):
    chosen = poss_strategies(two_by_two, Player.ROW, Fraction(1, 100), image=two_by_two_row_image)
    assert len(chosen) == 34
    assert max(s.weights[0] for s in chosen) == pytest.approx(0.33, abs=1e-12)


def test_poss_strategies_of_a_single_row_game():
    game = VectorPayoffGame.from_rows([[(0, 2), (3, 1)]])
    chosen = poss_strategies(game, Player.ROW, Fraction(1, 10))
    assert [s.weights for s in chosen] == [(1.0,)]


def test_poss_strategies_of_the_three_by_three_game(three_by_three, three_by_three_row_image):
    chosen = poss_strategies(
        three_by_three, Player.ROW, Fraction(1, 10), image=three_by_three_row_image
    )
    expected = [
        (0.0, 1.0, 0.0),
        (0.1, 0.8, 0.1),
        (0.2, 0.6, 0.2),
        (0.3, 0.4, 0.3),
        (0.4, 0.2, 0.4),
        (0.5, 0.0, 0.5),
        (0.6, 0.0, 0.4),
        (0.7, 0.0, 0.3),
    ]
    assert [s.weights for s in chosen] == pytest.approx(expected, abs=1e-12)


def test_poss_points_lie_on_the_image_boundary(three_by_three, three_by_three_row_image):
    A = three_by_three_row_image.polyhedron.normals
    b = three_by_three_row_image.polyhedron.offsets
    for s in poss_strategies(three_by_three, Player.ROW, Fraction(1, 10),
                             image=three_by_three_row_image):
        w = componentwise_security_point(three_by_three, s)
        residual = A @ w - b
        assert residual.min() >= -1e-7  # inside the image
        assert residual.min() <= 1e-6  # and touching its boundary


def test_poss_rejects_an_image_of_the_other_player(two_by_two, two_by_two_col_image):
    with pytest.raises(InputError):
        poss_strategies(two_by_two, Player.ROW, Fraction(1, 10), image=two_by_two_col_image)


# ---------------------------------------------------------------------------
# gap verification


def test_gap_clear_for_the_two_by_two_row_front(two_by_two, two_by_two_row_image):
    front = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    report = verify_gap(two_by_two, front, two_by_two_row_image)
    assert report.ok
    assert report.violations == ()
    assert len(report.checked) == sum(c.is_minimal for c in front.certificates) == 4


def test_gap_clear_for_the_two_by_two_col_front(two_by_two, two_by_two_col_image):
    front = classify_grid(two_by_two, Player.COL, Fraction(1, 10))
    report = verify_gap(two_by_two, front, two_by_two_col_image)
    assert report.ok
    assert len(report.checked) == 6


def test_gap_clear_for_the_three_by_three_row_front(three_by_three, three_by_three_fronts,
                                                    three_by_three_row_image):
    row, _ = three_by_three_fronts
    report = verify_gap(three_by_three, row, three_by_three_row_image)
    assert report.ok
    assert len(report.checked) == 9


def test_gap_report_flags_a_non_minimal_certificate(two_by_two, two_by_two_row_image):
    front = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    # a pure first row is far from minimal; smuggle it in as if certified
    bad = MinimalityCertificate(
        tested_strategy=row_strategy(1.0, 0.0),
        lp_value=0.0,
        improving_strategy=None,
        is_minimal=True,
        payoff_set=build_lower_set(row_generator_matrix(two_by_two, row_strategy(1.0, 0.0))),
    )
    fake = StrategyFront(
        player=Player.ROW,
        grid=front.grid,
        minimal_or_maximal=(bad.tested_strategy,),
        certificates=(bad,),
        equivalence_classes=((0,),),
    )
    report = verify_gap(two_by_two, fake, two_by_two_row_image)
    assert not report.ok
    assert [(s.weights, k) for s, k in report.violations] == [((1.0, 0.0), 0), ((1.0, 0.0), 1)]


@st.composite
def _small_games(draw) -> list:
    """The entries of an m x n x K game, m and n in 2..4 and K in 2..4."""
    m, n, k = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    entries = draw(st.lists(st.integers(-4, 4), min_size=m * n * k, max_size=m * n * k))
    return np.reshape(entries, (m, n, k)).tolist()


@settings(max_examples=20, deadline=None)
@given(rows=_small_games(), player=st.sampled_from(Player), den=st.integers(2, 3))
@example(rows=TWO_BY_TWO_ROWS, player=Player.ROW, den=2)
@example(rows=TWO_BY_TWO_ROWS, player=Player.COL, den=3)
# (0, 2/3, 1/3, 0) is separated from the image shifted along component 1
# by GAP_EPS/232, about 4.3e-9, which the payoff-space LP read as feasible
# when the package's phase 1 solved it
@example(
    rows=[[[0, 0, 0], [-1, 0, 0], [3, 0, 0], [3, 0, 0]],
          [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]],
          [[-1, 0, 1], [2, -3, -2], [-3, -4, 0], [-1, 1, -3]]],
    player=Player.COL,
    den=3,
)
def test_gap_verdicts_match_the_payoff_space_lp(rows, player, den):
    # Every grid strategy is certified optimal, so strategies whose payoff
    # sets reach into the shifted image are checked as well.  Where the two
    # formulations differ, the sets are within the LPs' tolerances of
    # touching, and an exact LP on the same floats must side with verify_gap.
    game = VectorPayoffGame.from_rows(rows)
    front = certify_every_grid_point(game, player, Fraction(1, den))
    image = compute_security_image(game, player)
    report = verify_gap(game, front, image)
    got, want = list(report.violations), gap_violations_by_lp(front, image)
    assert len(report.checked) == len(front.grid)
    disputed = set(got) ^ set(want)
    for s, k in disputed:
        generators = row_generator_matrix(game.for_player(player), s)
        assert ((s, k) in got) == meets_shifted_image_exactly(generators, image, k), (s, k)
    assert [v for v in got if v not in disputed] == [v for v in want if v not in disputed]


def _count_gap_lps(monkeypatch) -> list[int]:
    """Record the stack size of each `solve_batch` call of `poss`."""
    stacks = []

    def solve(lp):
        stacks.append(len(lp.lhs))
        return poss_solve_batch(lp)

    poss_solve_batch = poss.solve_batch
    monkeypatch.setattr(poss, "solve_batch", solve)
    return stacks


def test_separation_certificates_clear_an_optimal_front_in_stacks(
    three_by_three, three_by_three_fronts, three_by_three_row_image, monkeypatch
):
    row, _ = three_by_three_fronts
    stacks = _count_gap_lps(monkeypatch)
    monkeypatch.setattr(poss, "GRID_BLOCK", 4)
    report = verify_gap(three_by_three, row, three_by_three_row_image)
    assert report.ok and len(report.checked) == 9
    # no per-component stack follows the three screening stacks
    assert stacks == [4, 4, 1]


def test_a_payoff_set_that_meets_the_image_falls_back_to_one_lp_per_component(
    two_by_two, two_by_two_row_image, monkeypatch
):
    # the pure first row's payoff set reaches into the image, so no
    # separation certificate exists and each component is decided alone,
    # in one stack of a margin LP per component
    front = certify_every_grid_point(two_by_two, Player.ROW, Fraction(1, 1))
    stacks = _count_gap_lps(monkeypatch)
    report = verify_gap(two_by_two, front, two_by_two_row_image)
    assert [(s.weights, k) for s, k in report.violations] == [((1.0, 0.0), 0), ((1.0, 0.0), 1)]
    assert stacks == [2, 2]


def test_weights_that_do_not_separate_are_no_certificate(two_by_two, two_by_two_row_image,
                                                         monkeypatch):
    # every margin LP claims uniform weights: its F - 1 free weights read
    # 1/F, which leaves 1/F to its start, and both levels read 0; the margin
    # is recomputed from the weights, so the pure first row still falls back
    def uniform(lp):
        f = lp.lhs.shape[2] - 1
        solution = np.append(np.full(f - 1, 1.0 / f), [0.0, 0.0])
        return [LPOutcome("optimal", -1.0, solution.copy(), 0) for _ in lp.lhs]

    monkeypatch.setattr(poss, "solve_batch", uniform)
    front = certify_every_grid_point(two_by_two, Player.ROW, Fraction(1, 1))
    report = verify_gap(two_by_two, front, two_by_two_row_image)
    assert [(s.weights, k) for s, k in report.violations] == [((1.0, 0.0), 0), ((1.0, 0.0), 1)]


def test_a_margin_lp_of_one_component_that_does_not_end_optimal_is_a_numerical_error(
    two_by_two, two_by_two_row_image, monkeypatch
):
    # a screening LP that fails sends its strategy to the per-component
    # LPs, which are bounded and start feasible, so they must end optimal
    def stalled(lp):
        return [LPOutcome("iteration_limit", None, None, 0) for _ in lp.lhs]

    monkeypatch.setattr(poss, "solve_batch", stalled)
    front = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    with pytest.raises(NumericalError, match="gap LP ended with status iteration_limit"):
        verify_gap(two_by_two, front, two_by_two_row_image)


def test_gap_check_validates_its_inputs(two_by_two, two_by_two_col_image):
    front = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    with pytest.raises(InputError):
        verify_gap(two_by_two, front, two_by_two_col_image)


# ---------------------------------------------------------------------------
# weak duality between the players' security points


def test_security_points_respect_weak_duality(two_by_two, three_by_three):
    rng = np.random.default_rng(20240819)
    games = [two_by_two, three_by_three]
    games += [random_game(rng, 3, 3, 2), random_game(rng, 2, 4, 3)]
    for game in games:
        row_grid = enumerate_simplex_grid(game.rows, Fraction(1, 5), owner=Player.ROW)
        col_grid = enumerate_simplex_grid(game.cols, Fraction(1, 5), owner=Player.COL)
        for _ in range(12):
            p = row_grid.points[rng.integers(len(row_grid.points))]
            q = col_grid.points[rng.integers(len(col_grid.points))]
            vi = build_lower_set(row_generator_matrix(game, p))
            vii = build_upper_set(col_generator_matrix(game, q))
            r = tuple(componentwise_security_point(game, q))
            w = tuple(componentwise_security_point(game, p))
            assert contains_point(vi, r, tol=1e-7)
            assert contains_point(vii, w, tol=1e-7)


# ---------------------------------------------------------------------------
# image support values against a from-scratch security LP


def _image_support(image: SecurityImage, direction: np.ndarray) -> float:
    A = image.polyhedron.normals
    b = image.polyhedron.offsets
    if image.player is Player.ROW:
        res = linprog(direction, A_ub=-A, b_ub=-b, bounds=[(None, None)] * image.polyhedron.dim)
        assert res.status == 0
        return float(res.fun)
    res = linprog(-direction, A_ub=A, b_ub=b, bounds=[(None, None)] * image.polyhedron.dim)
    assert res.status == 0
    return -float(res.fun)


def _direct_security_value(game: VectorPayoffGame, player: Player,
                           direction: np.ndarray) -> float:
    entries = game.entries
    m, n, k = entries.shape
    rows_ub, rhs_ub = [], []
    if player is Player.ROW:
        size, opp = m, n
        for j in range(n):
            for kk in range(k):
                coeff = np.zeros(size + k)
                coeff[:size] = entries[:, j, kk]
                coeff[size + kk] = -1.0
                rows_ub.append(coeff)
                rhs_ub.append(0.0)
        c = np.concatenate([np.zeros(size), direction])
    else:
        size = n
        for i in range(m):
            for kk in range(k):
                coeff = np.zeros(size + k)
                coeff[:size] = -entries[i, :, kk]
                coeff[size + kk] = 1.0
                rows_ub.append(coeff)
                rhs_ub.append(0.0)
        c = np.concatenate([np.zeros(size), -direction])
    A_eq = np.concatenate([np.ones(size), np.zeros(k)])[None, :]
    bounds = [(0.0, None)] * size + [(None, None)] * k
    res = linprog(c, A_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
                  A_eq=A_eq, b_eq=[1.0], bounds=bounds)
    assert res.status == 0
    return float(res.fun) if player is Player.ROW else -float(res.fun)


def test_image_support_matches_the_direct_security_lp(two_by_two, three_by_three,
                                                      two_by_two_row_image,
                                                      two_by_two_col_image,
                                                      three_by_three_row_image):
    rng = np.random.default_rng(20240820)
    cases = [
        (two_by_two, two_by_two_row_image),
        (two_by_two, two_by_two_col_image),
        (three_by_three, three_by_three_row_image),
    ]
    for game, image in cases:
        k = game.dim
        directions = [np.eye(k)[kk] for kk in range(k)]
        while len(directions) < 40:
            d = rng.random(k)
            total = d.sum()
            if total > 1e-9:
                directions.append(d / total)
        for d in directions:
            assert _image_support(image, d) == pytest.approx(
                _direct_security_value(game, image.player, d), abs=1e-6
            )


def _image_and_cut_count(game, player, cut, monkeypatch) -> tuple[SecurityImage, int]:
    """`player`'s security image with Benson's cuts made by `cut`, and how many it made."""
    cuts = []

    def counting_cut(entries, v, w):
        cuts.append(v)
        return cut(entries, v, w)

    monkeypatch.setattr(poss, "_cut", counting_cut)
    return compute_security_image(game, player), len(cuts)


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
@pytest.mark.parametrize(
    "case", [*EXAMPLE_GAMES, "five_by_five_by_four", *LOST_VERTEX_INPUTS], ids=str
)
def test_cuts_read_off_the_verification_duals_give_the_images_of_the_cut_lp(
    case, player, request, monkeypatch, report_diff
):
    # The cut LP (`properties.benson_cut_lp`) is the reference: cutting by
    # it must give the same number of cuts and the same image within 1e-9.
    if case == "five_by_five_by_four":
        game = _five_by_five_by_four()
    elif isinstance(case, tuple):
        game = relabeled_game(case[0], (4, 4, 4), case[1])
    else:
        game = request.getfixturevalue(case)
    got, got_cuts = _image_and_cut_count(game, player, poss._cut, monkeypatch)
    want, want_cuts = _image_and_cut_count(
        game, player, lambda entries, v, w: benson_cut_by_lp(entries, v), monkeypatch
    )
    assert got_cuts == want_cuts
    _, _, found = report_diff.differences(got.to_dict(), want.to_dict(), 1e-9)
    assert not found, found


def test_vertex_keys_round_the_whole_array_as_each_vertex_alone():
    # the per-vertex rounding is the reference; ties at the ninth decimal
    # and values of every scale must key the same bit for bit
    rng = np.random.default_rng(11)
    vertices = np.vstack([
        rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-12, 4, size=(200, 1)),
        np.array([[0.5e-9, -0.5e-9, 2.5e-9, 1.0000000005], [-0.0, 0.0, 1e-10, -1e-10]]),
    ])
    want = [tuple(np.round(v, 9).tolist()) for v in vertices]
    got = poss._vertex_keys(vertices)
    assert got == want
    assert np.array(got).tobytes() == np.array(want).tobytes()  # -0.0 too
