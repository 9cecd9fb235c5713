"""Security images, Pareto optimal security strategies, and the gap check."""

from __future__ import annotations

import functools
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from vecgame.errors import InputError
from vecgame.game import (
    Player,
    VectorPayoffGame,
    col_generator_matrix,
    componentwise_security_point,
    enumerate_simplex_grid,
    row_generator_matrix,
    row_strategy,
)
from vecgame.polyhedra import UPPER, build_lower_set, build_upper_set, contains_point
from vecgame.poss import (
    VERIFY_TOL,
    SecurityImage,
    _verify_vertex,
    compute_security_image,
    poss_strategies,
    verify_gap,
)
from vecgame.solver import MinimalityCertificate, StrategyFront, classify_grid

from properties import random_game, scalar_game_value


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
    return sorted(image.vertices)


def _halfspace_table(image: SecurityImage) -> list[tuple[tuple[float, ...], float]]:
    return [(tuple(h.normal), h.offset) for h in image.halfspaces]


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
    assert two_by_two_row_image.orientation == "upper"
    assert two_by_two_row_image.dim == 2
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
    assert two_by_two_col_image.orientation == "lower"


def test_row_witnesses_reproduce_the_vertices(two_by_two, two_by_two_row_image):
    for vertex, witness in zip(two_by_two_row_image.vertices, two_by_two_row_image.attainments):
        point = componentwise_security_point(two_by_two, witness)
        assert tuple(point) == pytest.approx(vertex, abs=1e-7)


def test_known_row_witnesses(two_by_two_row_image):
    w = two_by_two_row_image.witness_for((2.0, 10 / 3))
    assert w.weights == pytest.approx((1 / 3, 2 / 3), abs=1e-7)
    w = two_by_two_row_image.witness_for((3.0, 3.0))
    assert w.weights == pytest.approx((0.0, 1.0), abs=1e-7)


def test_witness_lookup_rejects_unknown_vertices(two_by_two_row_image):
    with pytest.raises(InputError):
        two_by_two_row_image.witness_for((5.0, 5.0))


# ---------------------------------------------------------------------------
# degenerate shapes


def test_single_column_image_is_the_upper_set_of_the_rows(single_column):
    image = compute_security_image(single_column, Player.ROW)
    reference = build_upper_set(np.array([[0.0, 2.0], [3.0, 1.0]]))
    got = np.array(sorted(image.vertices))
    expected = np.array(sorted(reference.vertices))
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
        A = image.normal_matrix()
        b = image.offset_vector()
        k = image.dim
        for vertex in image.vertices:
            tight = np.abs(A @ np.array(vertex) - b) <= 1e-7
            assert tight.sum() >= k


def test_every_vertex_has_an_attainment(two_by_two, three_by_three, two_by_two_row_image,
                                         three_by_three_row_image):
    for game, image in ((two_by_two, two_by_two_row_image),
                        (three_by_three, three_by_three_row_image)):
        assert len(image.attainments) == len(image.vertices)
        for vertex, witness in zip(image.vertices, image.attainments):
            point = np.array(tuple(componentwise_security_point(game, witness)))
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
        lift, _ = _verify_vertex(entries, sign * np.array(vertex))
        assert lift <= VERIFY_TOL
        point = np.array(tuple(componentwise_security_point(game, witness)))
        assert point == pytest.approx(vertex, abs=1e-7)
    grid = enumerate_simplex_grid(5, Fraction(1, 4), owner=player)
    points = np.array([tuple(componentwise_security_point(game, s)) for s in grid.points])
    slack = sign * (points @ image.normal_matrix().T - image.offset_vector())
    assert slack.min() >= -1e-7


# ---------------------------------------------------------------------------
# facets and vertices read off Benson's double description

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# Relabelings of the benchmark's 4x4x4 image games whose column images lost
# vertices while the image was rebuilt from its vertices by a second double
# description; each column image has 36 vertices.
LOST_VERTEX_INPUTS = [(2000, 4), (2000, 7), (2000, 10), (2000, 23), (2002, 8), (2002, 20)]
# That rebuild listed one facet of this column image twice and missed another.
DUPLICATE_FACET_INPUT = (2002, 17)
# A cut of this column image has a normal component of about 3e-17.
ROUNDING_RESIDUE_INPUT = (2001, 5)


@functools.lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _relabeled_game(seed: int, variant: int) -> VectorPayoffGame:
    workloads = _workloads()
    payoffs = workloads.random_payoffs(seed, 4, 4, 4)
    relabel = workloads.variant_relabel(variant, workloads.BaseGame(f"r{seed}", payoffs))
    return VectorPayoffGame(np.array(relabel.apply(payoffs), dtype=float))


@functools.lru_cache(maxsize=None)
def _relabeled_image(seed: int, variant: int, player: Player) -> SecurityImage:
    return compute_security_image(_relabeled_game(seed, variant), player)


@pytest.mark.parametrize("seed, variant", LOST_VERTEX_INPUTS)
def test_column_image_keeps_every_vertex_and_clears_the_gap(seed, variant):
    game = _relabeled_game(seed, variant)
    image = _relabeled_image(seed, variant, Player.COL)
    assert len(image.vertices) == 36
    front = classify_grid(game, Player.COL, Fraction(1, 4), workers=1)
    assert verify_gap(game, front, image).ok


def test_column_image_lists_no_facet_twice():
    image = _relabeled_image(*DUPLICATE_FACET_INPUT, Player.COL)
    rows = np.array([h.normal + (h.offset,) for h in image.halfspaces])
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-6


def _check_image_facets(image: SecurityImage) -> None:
    """Every halfspace is a Pareto-weighted facet that holds at every vertex."""
    k = image.dim
    A, b = image.normal_matrix(), image.offset_vector()
    V = np.array(image.vertices)
    sign = 1.0 if image.orientation == UPPER else -1.0
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


@pytest.mark.parametrize("player", [Player.ROW, Player.COL])
@pytest.mark.parametrize(
    "name",
    ["two_by_two", "null_row", "constant_row", "corley", "zero_row", "three_by_three",
     "single_column", "scalar_game"],
)
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
    assert len(data["halfspaces"]) == len(two_by_two_row_image.halfspaces)
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
    A = three_by_three_row_image.normal_matrix()
    b = three_by_three_row_image.offset_vector()
    for s in poss_strategies(three_by_three, Player.ROW, Fraction(1, 10),
                             image=three_by_three_row_image):
        w = np.array(tuple(componentwise_security_point(three_by_three, s)))
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
        slacks=(0.0, 0.0),
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


def test_gap_check_validates_its_inputs(two_by_two, two_by_two_row_image, two_by_two_col_image):
    front = classify_grid(two_by_two, Player.ROW, Fraction(1, 10))
    with pytest.raises(InputError):
        verify_gap(two_by_two, front, two_by_two_row_image, eps=0.0)
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
    A = image.normal_matrix()
    b = image.offset_vector()
    if image.player is Player.ROW:
        res = linprog(direction, A_ub=-A, b_ub=-b, bounds=[(None, None)] * image.dim)
        assert res.status == 0
        return float(res.fun)
    res = linprog(-direction, A_ub=A, b_ub=b, bounds=[(None, None)] * image.dim)
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
