"""Oriented payoff polyhedra: construction, queries, Pareto filters."""

from __future__ import annotations

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from vecgame.errors import InputError, NumericalError
from vecgame.game import row_generator_matrix, row_strategy
from vecgame.polyhedra import (
    LOWER,
    UPPER,
    VERTEX_MERGE_TOL,
    ConeDD,
    OrientedPayoffPolyhedron,
    build_lower_set,
    build_upper_set,
    cone_extreme_rays,
    exposing_normals,
    facet_rows,
    pareto_max_points,
    pareto_min_points,
    upper_set_vertices_from_halfspaces,
    zero_set,
)

import exact_dd
import exact_oracle
from properties import (
    check_dd_membership,
    contains_point,
    exposing_normals as one_set_exposing_normals,
    poly_subset,
    support_value,
)


def normals_of(poly):
    return {tuple(np.round(a, 9)) for a in poly.normals}


def has_halfspace(poly, normal, offset, tol=1e-9):
    return any(
        max(abs(a - b) for a, b in zip(h_normal, normal)) <= tol
        and abs(h_offset - offset) <= tol
        for h_normal, h_offset in zip(poly.normals, poly.offsets)
    )


# --- construction ----------------------------------------------------------

def test_lower_set_dominated_generator():
    poly = build_lower_set([(0, 0), (4, 4)])
    assert poly.orientation == LOWER
    assert len(poly.offsets) == 2
    assert has_halfspace(poly, (1, 0), 4) and has_halfspace(poly, (0, 1), 4)
    assert np.array_equal(poly.vertices, [(4.0, 4.0)])


def test_lower_set_single_point_k3():
    z = (2.0, -1.0, 3.0)
    poly = build_lower_set([z])
    assert len(poly.offsets) == 3
    for k in range(3):
        unit = tuple(1.0 if i == k else 0.0 for i in range(3))
        assert has_halfspace(poly, unit, z[k])
    assert np.array_equal(poly.vertices, [z])


def test_lower_set_two_incomparable_points():
    poly = build_lower_set([(3, 1), (1, 3)])
    assert set(map(tuple, poly.vertices.tolist())) == {(3.0, 1.0), (1.0, 3.0)}
    assert len(poly.offsets) == 3
    assert has_halfspace(poly, (0.5, 0.5), 2.0)
    assert has_halfspace(poly, (1, 0), 3) and has_halfspace(poly, (0, 1), 3)


@pytest.mark.parametrize("shift", [1e-13, -1e-13])
def test_rounding_noise_on_a_tied_coordinate_keeps_the_vertex_order(shift):
    # two vertices tie on their first coordinate; noise far below the
    # 9-decimal key must not decide which of them comes first
    points = np.array([(1.0, 0.0, 2.0), (1.0, 2.0, 0.0), (0.0, 1.0, 1.5)])
    noisy = points.copy()
    noisy[1, 0] += shift
    for build, sign in ((build_lower_set, 1.0), (build_upper_set, -1.0)):
        want = build(sign * points).vertices
        got = build(sign * noisy).vertices
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_upper_set_single_point():
    poly = build_upper_set([(1.0, -2.0)])
    assert poly.orientation == UPPER
    assert has_halfspace(poly, (1, 0), 1) and has_halfspace(poly, (0, 1), -2)
    assert np.array_equal(poly.vertices, [(1.0, -2.0)])


def test_upper_set_two_points():
    poly = build_upper_set([(0, 0), (1, -1)])
    assert set(map(tuple, poly.vertices.tolist())) == {(0.0, 0.0), (1.0, -1.0)}
    assert has_halfspace(poly, (0.5, 0.5), 0.0)
    assert has_halfspace(poly, (1, 0), 0) and has_halfspace(poly, (0, 1), -1)


def test_upper_set_antidiagonal_facet():
    # column player's payoff set at q=(1,0) in the 2x2 mixing game
    poly = build_upper_set([(1, 0), (0, 1)])
    assert has_halfspace(poly, (0.5, 0.5), 0.5)


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        build_lower_set([])
    with pytest.raises(InputError):
        build_lower_set([(np.inf, 0.0)])


# --- Pareto filters --------------------------------------------------------

def test_pareto_max_examples():
    assert [tuple(p) for p in pareto_max_points([(0, 0), (4, 4)])] == [(4.0, 4.0)]
    kept = {tuple(p) for p in pareto_max_points([(3, 1), (1, 3)])}
    assert kept == {(3.0, 1.0), (1.0, 3.0)}


def test_pareto_min_is_the_mirror():
    kept = {tuple(p) for p in pareto_min_points([(0, 0), (4, 4), (0, 5)])}
    assert kept == {(0.0, 0.0)}


def test_pareto_min_keeps_incomparable_points_and_drops_weakly_dominated_ones():
    kept = {tuple(p) for p in pareto_min_points([(2, 0), (0, 2), (1, 1)])}
    assert kept == {(2.0, 0.0), (0.0, 2.0), (1.0, 1.0)}
    # (0, 1) ties (0, 0) on the first component and loses on the second
    assert [tuple(p) for p in pareto_min_points([(0, 0), (0, 1), (1, 1)])] == [(0.0, 0.0)]


def test_pareto_min_matches_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.integers(-5, 6, size=(60, 2)).astype(float)
    fast = {tuple(p) for p in pareto_min_points(pts)}
    slow = {
        tuple(pts[i])
        for i in range(len(pts))
        if not any(np.all(pts[j] <= pts[i]) and np.any(pts[j] < pts[i]) for j in range(len(pts)))
    }
    assert fast == slow


def test_pareto_max_matches_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.integers(-10, 11, size=(100, 3)).astype(float)
    fast = {tuple(p) for p in pareto_max_points(pts)}
    slow = set()
    for i in range(len(pts)):
        dominated = any(
            np.all(pts[j] >= pts[i]) and np.any(pts[j] > pts[i]) for j in range(len(pts))
        )
        if not dominated:
            slow.add(tuple(pts[i]))
    assert fast == slow


# --- membership and inclusion ----------------------------------------------

def test_contains_point_basics():
    poly = build_lower_set([(4, 4)])
    assert contains_point(poly, (0, 0))
    assert not contains_point(poly, (5, 0))
    with pytest.raises(InputError):
        contains_point(poly, (0, 0, 0))


def test_null_row_generators_are_contained(null_row):
    inner = build_lower_set(row_generator_matrix(null_row, row_strategy(1, 0)))
    outer = build_lower_set(row_generator_matrix(null_row, row_strategy(0, 1)))
    for g in inner.generators:
        assert contains_point(outer, g)


def test_poly_subset_reflexive_and_strict(null_row):
    inner = build_lower_set(row_generator_matrix(null_row, row_strategy(1, 0)))
    outer = build_lower_set(row_generator_matrix(null_row, row_strategy(0, 1)))
    assert poly_subset(inner, inner)
    assert poly_subset(inner, outer)
    assert not poly_subset(outer, inner)


def test_poly_subset_requires_matching_orientation():
    lower = build_lower_set([(0, 0)])
    upper = build_upper_set([(0, 0)])
    with pytest.raises(InputError):
        poly_subset(lower, upper)


def test_dominated_extra_generator_does_not_change_the_set():
    base = [(3.0, 1.0), (1.0, 3.0)]
    a = build_lower_set(base)
    b = build_lower_set(base + [(0.5, 0.5)])
    assert poly_subset(a, b) and poly_subset(b, a)
    assert len(a.offsets) == len(b.offsets)
    for na, oa, nb, ob in zip(a.normals, a.offsets, b.normals, b.offsets):
        assert np.allclose(na, nb, atol=1e-9)
        assert abs(oa - ob) <= 1e-9


# --- support values ---------------------------------------------------------

def test_support_value_examples():
    assert support_value(build_lower_set([(4, 4)]), (1, 0)) == pytest.approx(4.0)
    two = build_lower_set([(3, 1), (1, 3)])
    assert support_value(two, (0.5, 0.5)) == pytest.approx(2.0)
    upper = build_upper_set([(3, 1), (1, 3)])
    assert support_value(upper, (0.5, 0.5)) == pytest.approx(2.0)
    assert support_value(upper, (1.0, 0.0)) == pytest.approx(1.0)


def test_support_value_rejects_negative_directions():
    poly = build_lower_set([(4, 4)])
    with pytest.raises(InputError, match="unbounded"):
        support_value(poly, (1.0, -0.5))
    with pytest.raises(InputError):
        support_value(poly, (1.0, 0.0, 0.0))


def test_support_value_is_monotone_under_inclusion():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.integers(-5, 6, size=(4, 2)).astype(float)
        small = build_lower_set(pts)
        big = build_lower_set(np.vstack([pts, pts[0] + rng.random(2) + 0.1]))
        assert poly_subset(small, big)
        for _ in range(5):
            w = rng.random(2)
            assert support_value(small, w) <= support_value(big, w) + 1e-9


# --- exposing normals -------------------------------------------------------

def _exposing(*polys):
    """`exposing_normals` of lower sets with equal facet and vertex counts, as one stack."""
    fields = ("normals", "offsets", "vertices", "generators")
    return exposing_normals(*(np.stack([getattr(p, f) for p in polys]) for f in fields))


def _one_exposing(poly):
    normals, offsets = _exposing(poly)
    return normals[0], offsets[0]


def test_exposing_normal_single_vertex():
    poly = build_lower_set([(4, 4)])
    normals, offsets = _one_exposing(poly)
    assert np.array_equal(poly.vertices, [(4.0, 4.0)])
    assert np.allclose(normals[0], (0.5, 0.5))
    assert offsets[0] == pytest.approx(4.0)


def test_exposing_normal_separates_the_other_vertex():
    poly = build_lower_set([(3, 1), (1, 3)])
    normals, _ = _one_exposing(poly)
    c = normals[poly.vertices.tolist().index([3.0, 1.0])]
    assert np.all(c > 0) and abs(c.sum() - 1.0) <= 1e-12
    assert c @ (3, 1) > c @ (1, 3)


def test_exposing_normals_random_k3():
    rng = np.random.default_rng(31)
    for _ in range(15):
        pts = rng.integers(-6, 7, size=(5, 3)).astype(float)
        poly = build_lower_set(pts)
        for v, c, offset in zip(poly.vertices, *_one_exposing(poly), strict=True):
            assert np.all(c > 0)
            assert abs(float(c @ np.array(v)) - offset) <= 1e-9
            for g in poly.generators:
                if max(abs(a - b) for a, b in zip(g, v)) <= 1e-8:
                    continue
                assert float(c @ np.array(g)) < offset - 1e-12


def test_a_stack_of_exposing_normals_equals_each_set_alone_bit_for_bit():
    rng = np.random.default_rng(32)
    by_shape = {}
    for _ in range(60):
        poly = build_lower_set(rng.integers(-6, 7, size=(5, 3)).astype(float))
        by_shape.setdefault((len(poly.offsets), len(poly.vertices)), []).append(poly)
    stacks = [polys for polys in by_shape.values() if len(polys) > 1]
    assert stacks
    for polys in stacks:
        normals, offsets = _exposing(*polys)
        for poly, c, b in zip(polys, normals, offsets, strict=True):
            want_c, want_b = one_set_exposing_normals(poly)
            assert c.tobytes() == want_c.tobytes() and b.tobytes() == want_b.tobytes()


# --- double description kernel ---------------------------------------------

def _random_cone_rows(rng, d):
    """Rows in {-1, 0, 1}^d plus sums of two of them, shuffled: sums are tight
    wherever both summands are, so degenerate steps are common."""
    base = rng.integers(-1, 2, size=(int(rng.integers(d, 2 * d)), d)).astype(float)
    sums = [base[i] + base[j] for i, j in rng.integers(0, len(base), size=(d, 2))]
    rows = np.vstack([base, sums])
    return rows[rng.permutation(len(rows))]


def _benson_rows(rng, k):
    """t >= 0, coordinate bounds, then cuts (-b, a) with a >= 0 of unit sum;
    small integer offsets make cuts pass through earlier vertices."""
    rows = [np.eye(k + 1)[0]]
    rows += [np.concatenate(([-float(rng.integers(0, 2))], np.eye(k)[i])) for i in range(k)]
    for _ in range(int(rng.integers(k, 3 * k))):
        a = rng.integers(0, 2, size=k).astype(float)
        if a.sum() > 0:
            rows.append(np.concatenate(([-float(rng.integers(1, 4))], a / a.sum())))
    return np.array(rows)


def _has_leading_block(C):
    """The first dim rows are nonsingular, so a double description can start there."""
    d = C.shape[1]
    return len(C) >= d and np.linalg.matrix_rank(C[:d]) == d


def test_cone_dd_incremental_state_equals_a_fresh_run():
    rng = np.random.default_rng(71)
    sequences = [_benson_rows(rng, int(rng.integers(2, 6))) for _ in range(20)]
    while len(sequences) < 40:
        C = _random_cone_rows(rng, int(rng.integers(3, 7)))
        if _has_leading_block(C):
            sequences.append(C)
    for C in sequences:
        d = C.shape[1]
        dd = ConeDD(C[:d])
        for i in range(d, len(C) + 1):
            got, want = dd.extreme_rays(), cone_extreme_rays(C[:i])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if i < len(C):
                dd.add(C[i])


def _cones(dd):
    """Each cone of a ConeDD stack as (its processed rows, its current rays)."""
    return zip(dd.done, (r[v] for r, v in zip(dd.rays, dd.valid)))


class _LoopAdjacencyDD(ConeDD):
    """The combinatorial adjacency test, one cone, one pair and one third ray at a time."""

    def _adjacent_pairs(self, pos, neg):
        out = []
        for b, (D, rays) in enumerate(_cones(self)):
            zsets = [np.abs(D @ r) <= 1e-8 for r in rays]
            for ip in np.flatnonzero(pos[b]):
                for ineg in np.flatnonzero(neg[b]):
                    common = zsets[ip] & zsets[ineg]
                    if int(common.sum()) < self.dim - 2:
                        continue
                    if not any(
                        np.all(zsets[other][common])
                        for other in range(len(rays))
                        if other not in (ip, ineg)
                    ):
                        out.append((b, ip, ineg))
        return tuple(np.array(out, dtype=int).reshape(-1, 3).T)


class _RankAdjacencyDD(ConeDD):
    """The algebraic adjacency test: the common zero rows have rank dim - 2."""

    def _adjacent_pairs(self, pos, neg):
        out = []
        for b, (D, rays) in enumerate(_cones(self)):
            zero = np.abs(rays @ D.T) <= 1e-8
            for ip in np.flatnonzero(pos[b]):
                for ineg in np.flatnonzero(neg[b]):
                    common = zero[ip] & zero[ineg]
                    rank = np.linalg.matrix_rank(D[common]) if common.any() else 0
                    if rank == self.dim - 2:
                        out.append((b, ip, ineg))
        return tuple(np.array(out, dtype=int).reshape(-1, 3).T)


@pytest.mark.parametrize("reference", [_LoopAdjacencyDD, _RankAdjacencyDD])
def test_vectorised_adjacency_matches_pairwise_references(reference):
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 40:
        d = int(rng.integers(3, 7))
        C = _random_cone_rows(rng, d) if checked % 2 else _benson_rows(rng, d - 1)
        if not _has_leading_block(C):
            continue
        fast, slow = ConeDD(C[:d]), reference(C[:d])
        for row in C[d:]:
            fast.add(row)
            slow.add(row)
        got, want = fast.extreme_rays(), slow.extreme_rays()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert facet_rows(got, C).tolist() == _facet_rows_per_row(got, C)
        checked += 1


def _facet_rows_per_row(rays, rows):
    """Reference for `facet_rows`: one rank computation per row."""
    Z = zero_set(rays, rows)
    dim = rows.shape[1]
    return [j for j in range(len(rows))
            if np.linalg.matrix_rank(rays[Z[:, j]], tol=1e-9) == dim - 1]


def _cone_stacks(rng, count):
    """`count` stacks of 1 to 6 cones with small rational rows, each stack of
    one dimension and row count, each cone with a nonsingular leading block."""
    stacks = []
    while len(stacks) < count:
        d, size = int(rng.integers(3, 7)), int(rng.integers(1, 7))
        members = []
        while len(members) < size:
            C = _random_cone_rows(rng, d) if rng.integers(0, 2) else _benson_rows(rng, d - 1)
            if _has_leading_block(C):
                members.append(C)
        rows = min(len(C) for C in members)
        stacks.append(np.stack([C[:rows] for C in members]))
    return stacks


def test_each_cone_of_a_stacked_dd_equals_its_stack_of_one_after_every_add():
    rng = np.random.default_rng(83)
    for stack in _cone_stacks(rng, 30):
        # positive row scales keep each cone and make its arithmetic round
        stack = stack * rng.integers(1, 10, size=(*stack.shape[:2], 1)) / 7
        d = stack.shape[2]
        dd, alone = ConeDD(stack[:, :d]), [ConeDD(C[:d]) for C in stack]
        for j in range(d, stack.shape[1] + 1):
            for got, one in zip(dd.extreme_rays(), alone):
                want = one.extreme_rays()
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if j < stack.shape[1]:
                dd.add(stack[:, j])
                for C, one in zip(stack, alone):
                    one.add(C[j])


def test_a_stacked_dd_has_the_rays_of_the_exact_double_description():
    for stack in _cone_stacks(np.random.default_rng(89), 30):
        d = stack.shape[2]
        dd = ConeDD(stack[:, :d])
        for j in range(d, stack.shape[1]):
            dd.add(stack[:, j])
        for C, rays in zip(stack, dd.extreme_rays()):
            want = np.array(sorted(exact_dd.cone_extreme_rays(
                [[Fraction(x).limit_denominator(1000) for x in row] for row in C]
            )), dtype=float).reshape(-1, d)
            got = rays / np.abs(rays).max(axis=1, keepdims=True)
            assert got.shape == want.shape
            if len(want):  # the cone may shrink to {0}
                gaps = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
                assert gaps.min(axis=1).max() <= 1e-9 and gaps.min(axis=0).max() <= 1e-9


def test_a_singular_block_in_one_cone_of_a_stack_raises():
    blocks = np.stack([np.eye(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], np.eye(3)])
    with pytest.raises(NumericalError):
        ConeDD(blocks)
    ConeDD(blocks[::2])


@st.composite
def _generator_stacks(draw):
    """Stacks (B, n, K) of generator sets, K = 2..4, drawn from a few points and
    their midpoints: repeats make the distinct counts differ within a stack,
    and a midpoint is collinear with its two ends."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                                  min_size=1, max_size=4)), dtype=float) / 3
    pool = np.vstack([pool, ((pool[:, None] + pool[None, :]) / 2).reshape(-1, k)])
    picks = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
                          min_size=1, max_size=6))
    return pool[np.array(picks)]


@settings(deadline=None, max_examples=150)
@given(_generator_stacks())
def test_each_member_of_a_stacked_build_equals_its_build_alone(points):
    stacked = build_lower_set(points)
    assert isinstance(stacked, tuple) and len(stacked) == len(points)
    for pts, got in zip(points, stacked):
        want = build_lower_set(pts)
        for field in ("generators", "normals", "offsets", "vertices"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def test_a_stacked_build_groups_members_by_distinct_generator_count():
    points = np.array([[(0, 0), (1, 2), (2, 1)], [(0, 0), (0, 0), (1, 1)], [(3, 0), (0, 3), (1, 1)]])
    sets = build_lower_set(points)
    assert [len(s.generators) for s in sets] == [3, 2, 3]
    assert [len(s.vertices) for s in sets] == [2, 1, 2]


def _greedy_dedupe(points):
    """Reference: each point in order, kept when it is farther than
    VERTEX_MERGE_TOL (infinity norm) from every point kept before it."""
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > VERTEX_MERGE_TOL for q in kept):
            kept.append(p)
    return np.array(kept)


def test_a_stacked_build_dedupes_generators_greedily():
    # offsets in steps of 0.6 tol: a point near a dropped point but far from
    # every kept one stays, so the rule is not "far from every earlier point"
    rng = np.random.default_rng(97)
    step = 0.6 * VERTEX_MERGE_TOL
    for _ in range(20):
        base = rng.integers(-3, 4, size=(3, 2)).astype(float)
        points = base[rng.integers(0, 3, size=(5, 6))] + step * rng.integers(0, 4, size=(5, 6, 2))
        for pts, poly in zip(points, build_lower_set(points)):
            want = _greedy_dedupe(pts)
            assert poly.generators.shape == want.shape and np.array_equal(poly.generators, want)
    chain = np.array([[0.0, 0.0], [step, 0.0], [2 * step, 0.0]])
    assert build_lower_set(chain).generators.tolist() == [[0.0, 0.0], [2 * step, 0.0]]


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=9))
def test_lower_set_vertices_are_the_facet_rows_of_the_polar_cone(points):
    pts = np.array(points, dtype=float)
    exact = exact_oracle.lower_set_vertices([tuple(map(Fraction, p)) for p in points])
    want = sorted(tuple(map(float, v)) for v in exact)
    assert np.array_equal(build_lower_set(pts).vertices, want)
    # the polar cone build_lower_set runs on: rows (0, -e_k), then (1, p)
    unique = np.unique(pts, axis=0)
    rows = np.vstack([-np.eye(3)[1:], np.hstack([np.ones((len(unique), 1)), unique])])
    rays = cone_extreme_rays(rows)
    assert facet_rows(rays, rows).tolist() == _facet_rows_per_row(rays, rows)


_POINTS_IN_SOME_ORDER = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.tuples(*[st.integers(-4, 4)] * k), min_size=1, max_size=8)
).flatmap(lambda pts: st.tuples(st.just(pts), st.permutations(range(len(pts)))))


@settings(deadline=None, max_examples=150)
@given(_POINTS_IN_SOME_ORDER)
def test_lower_set_halfspaces_match_an_exact_double_description(points_and_order):
    points, order = points_and_order
    poly = build_lower_set(np.array(points, dtype=float)[list(order)])
    got = np.column_stack([poly.normals, poly.offsets])
    want = np.array(sorted(exact_dd.lower_set_halfspaces(points)), dtype=float)
    assert got.shape == want.shape
    gaps = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    assert gaps.min(axis=1).max() <= 1e-9 and gaps.min(axis=0).max() <= 1e-9


def test_cone_extreme_rays_of_the_nonnegative_orthant():
    rays = cone_extreme_rays(np.eye(3))
    assert {tuple(r) for r in np.round(rays, 12)} == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                                       (0.0, 0.0, 1.0)}


def test_cone_that_is_not_pointed_raises():
    with pytest.raises(NumericalError):  # a short block
        cone_extreme_rays(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(NumericalError):  # a singular block: the line x1 = x2 remains
        ConeDD([[1.0, -1.0], [-1.0, 1.0]])


# --- vertex recovery from halfspaces ----------------------------------------

def test_upper_vertices_from_halfspaces_roundtrip():
    poly = build_upper_set([(1, 0), (0, 1), (2, 2)])
    got = upper_set_vertices_from_halfspaces(poly.normals, poly.offsets)
    assert np.allclose(got, np.array(sorted(poly.vertices.tolist())), atol=1e-9)


# --- type invariants on random instances ------------------------------------

def test_halfspace_representation_invariants():
    rng = np.random.default_rng(47)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        pts = rng.integers(-8, 9, size=(int(rng.integers(1, 7)), k)).astype(float)
        for build, orientation in ((build_lower_set, LOWER), (build_upper_set, UPPER)):
            poly = build(pts)
            A = poly.normals
            b = poly.offsets
            # normals nonnegative, unit coordinate sum
            assert np.all(A >= -1e-12)
            assert np.allclose(A.sum(axis=1), 1.0, atol=1e-9)
            # every generator satisfies every halfspace
            for g in poly.generators:
                vals = A @ np.array(g)
                if orientation == LOWER:
                    assert np.all(vals <= b + 1e-9)
                else:
                    assert np.all(vals >= b - 1e-9)
            # every vertex is tight on >= k independent halfspaces
            for v in poly.vertices:
                act = np.abs(A @ np.array(v) - b) <= 1e-7
                assert np.linalg.matrix_rank(A[act], tol=1e-9) == k


def test_roundtrip_rebuild_from_vertices():
    rng = np.random.default_rng(53)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        pts = rng.integers(-8, 9, size=(int(rng.integers(2, 7)), k)).astype(float)
        poly = build_lower_set(pts)
        rebuilt = build_lower_set(poly.vertices)
        assert np.array_equal(rebuilt.vertices, poly.vertices)
        assert len(rebuilt.offsets) == len(poly.offsets)
        for na, oa, nb, ob in zip(rebuilt.normals, rebuilt.offsets, poly.normals, poly.offsets):
            assert np.allclose(na, nb, atol=1e-9)
            assert abs(oa - ob) <= 1e-9


def test_lower_vertices_are_pareto_maximal_extremes():
    rng = np.random.default_rng(59)
    for _ in range(20):
        pts = rng.integers(-8, 9, size=(6, 2)).astype(float)
        poly = build_lower_set(pts)
        frontier = {tuple(p) for p in pareto_max_points(poly.generators)}
        vertices = list(map(tuple, poly.vertices.tolist()))
        assert set(vertices) <= frontier
        if len(vertices) > 1:
            for v in vertices:
                rest = [u for u in vertices if u != v]
                assert not contains_point(build_lower_set(rest), v)


# The polar-cone rays tight on some of these points leave the point's
# hyperplane by about 1e-14; a rank test that counts such a singular value
# sees full rank and drops a vertex.
NOISY_TIGHT_POINTS = [
    [-0.603, -0.426, -0.117], [-0.265, 1.172, -0.687], [-1.279, -1.07, 1.114],
    [-0.49, 1.417, -0.274], [1.173, 0.717, -0.527], [0.039, -0.606, -0.017],
]


def test_vertices_are_the_generators_outside_the_lower_set_of_the_others():
    from scipy.optimize import linprog

    pts = np.array(NOISY_TIGHT_POINTS)
    expected = []
    for i, p in enumerate(pts):
        others = np.delete(pts, i, axis=0)
        # max s such that some mixture of the others dominates p + s·1
        res = linprog(
            np.concatenate([np.zeros(len(others)), [-1.0]]),
            A_ub=np.hstack([-others.T, np.ones((3, 1))]),
            b_ub=-p,
            A_eq=np.concatenate([np.ones(len(others)), [0.0]])[None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * len(others) + [(None, None)],
        )
        assert res.status == 0
        if -res.fun < -1e-6:
            expected.append(tuple(p))
    assert len(expected) == 3
    assert np.array_equal(build_lower_set(pts).vertices, sorted(expected))


def test_every_generator_is_dominated_by_a_frontier_point():
    # domination property: each generator sits below some Pareto-maximal
    # point of its lower set (above some Pareto-minimal point for upper
    # sets); the witness is produced by pushing along the all-ones
    # direction, which cannot leave the set undominated.
    rng = np.random.default_rng(61)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        pts = rng.integers(-8, 9, size=(6, k)).astype(float)
        for build, sense in ((build_lower_set, "max"), (build_upper_set, "min")):
            poly = build(pts)
            A = poly.normals
            b = poly.offsets
            # a lower set's rows A y <= b and y >= g; an upper set's A y >= b
            # and y <= g; each as `<=` rows for HiGHS, which minimizes
            flip = 1.0 if sense == "max" else -1.0
            for g in poly.generators:
                out = linprog(
                    -flip * np.ones(k),
                    A_ub=np.vstack([flip * A, -flip * np.eye(k)]),
                    b_ub=np.concatenate([flip * b, -flip * np.asarray(g)]),
                    bounds=[(None, None)] * k,
                    method="highs",
                )
                assert out.status == 0, out.message
                y = out.x
                assert contains_point(poly, y, tol=1e-7)
                if sense == "max":
                    assert np.all(y >= np.array(g) - 1e-9)
                else:
                    assert np.all(y <= np.array(g) + 1e-9)
                # the witness touches the frontier: some facet is active
                assert np.min(np.abs(A @ y - b)) <= 1e-7


def test_membership_agrees_with_lp_oracle():
    check_dd_membership(np.random.default_rng(67), instances=10, queries=25)


def test_halfspace_type_is_plain_data():
    poly = OrientedPayoffPolyhedron(
        orientation=LOWER,
        generators=((1.0, 1.0),),
        normals=((1.0, 0.0), (0.0, 1.0)),
        offsets=(1.0, 1.0),
        vertices=((1.0, 1.0),),
    )
    assert np.array_equal(poly.normals, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(poly.offsets, [1.0, 1.0])
    for field in (poly.generators, poly.normals, poly.offsets, poly.vertices):
        assert field.dtype == float and not field.flags.writeable
    assert poly.dim == 2
    assert poly.to_dict()["orientation"] == LOWER


def test_a_pickled_polyhedron_keeps_its_fields_read_only():
    # pool workers send payoff sets back to the parent through pickle
    poly = build_upper_set([(0, 1), (1, 0), (2, 2)])
    copy = pickle.loads(pickle.dumps(poly))
    assert copy.orientation == poly.orientation
    for field in ("generators", "normals", "offsets", "vertices"):
        assert np.array_equal(getattr(copy, field), getattr(poly, field))
        assert not getattr(copy, field).flags.writeable
