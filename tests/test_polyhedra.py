"""Oriented payoff polyhedra: construction, queries, Pareto filters."""

from __future__ import annotations

import numpy as np
import pytest

from vecgame.errors import InputError, NumericalError
from vecgame.game import row_generator_matrix, row_strategy
from vecgame.polyhedra import (
    LOWER,
    UPPER,
    ConeDD,
    Halfspace,
    OrientedPayoffPolyhedron,
    build_lower_set,
    build_upper_set,
    cone_extreme_rays,
    contains_point,
    exposing_normal_at_vertex,
    pareto_max_points,
    pareto_min_points,
    poly_subset,
    support_value,
    upper_set_vertices_from_halfspaces,
    weak_pareto_points,
)

from properties import check_dd_membership


def normals_of(poly):
    return {tuple(np.round(h.normal, 9)) for h in poly.halfspaces}


def has_halfspace(poly, normal, offset, tol=1e-9):
    return any(
        max(abs(a - b) for a, b in zip(h.normal, normal)) <= tol
        and abs(h.offset - offset) <= tol
        for h in poly.halfspaces
    )


# --- construction ----------------------------------------------------------

def test_lower_set_dominated_generator():
    poly = build_lower_set([(0, 0), (4, 4)])
    assert poly.orientation == LOWER
    assert len(poly.halfspaces) == 2
    assert has_halfspace(poly, (1, 0), 4) and has_halfspace(poly, (0, 1), 4)
    assert poly.vertices == ((4.0, 4.0),)


def test_lower_set_single_point_k3():
    z = (2.0, -1.0, 3.0)
    poly = build_lower_set([z])
    assert len(poly.halfspaces) == 3
    for k in range(3):
        unit = tuple(1.0 if i == k else 0.0 for i in range(3))
        assert has_halfspace(poly, unit, z[k])
    assert poly.vertices == (z,)


def test_lower_set_two_incomparable_points():
    poly = build_lower_set([(3, 1), (1, 3)])
    assert set(poly.vertices) == {(3.0, 1.0), (1.0, 3.0)}
    assert len(poly.halfspaces) == 3
    assert has_halfspace(poly, (0.5, 0.5), 2.0)
    assert has_halfspace(poly, (1, 0), 3) and has_halfspace(poly, (0, 1), 3)


def test_upper_set_single_point():
    poly = build_upper_set([(1.0, -2.0)])
    assert poly.orientation == UPPER
    assert has_halfspace(poly, (1, 0), 1) and has_halfspace(poly, (0, 1), -2)
    assert poly.vertices == ((1.0, -2.0),)


def test_upper_set_two_points():
    poly = build_upper_set([(0, 0), (1, -1)])
    assert set(poly.vertices) == {(0.0, 0.0), (1.0, -1.0)}
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


def test_weak_pareto_examples():
    assert [tuple(p) for p in weak_pareto_points([(0, 0), (1, 1)], "max")] == [(1.0, 1.0)]
    kept = {tuple(p) for p in weak_pareto_points([(2, 0), (0, 2), (1, 1)], "max")}
    assert kept == {(2.0, 0.0), (0.0, 2.0), (1.0, 1.0)}
    with pytest.raises(InputError):
        weak_pareto_points([(0, 0)], "best")


def test_weak_pareto_matches_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.integers(-5, 6, size=(60, 2)).astype(float)
    fast = {tuple(p) for p in weak_pareto_points(pts, "min")}
    slow = {
        tuple(pts[i])
        for i in range(len(pts))
        if not any(np.all(pts[j] < pts[i]) for j in range(len(pts)))
    }
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
    assert len(a.halfspaces) == len(b.halfspaces)
    for ha, hb in zip(a.halfspaces, b.halfspaces):
        assert np.allclose(ha.normal, hb.normal, atol=1e-9)
        assert abs(ha.offset - hb.offset) <= 1e-9


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

def test_exposing_normal_single_vertex():
    poly = build_lower_set([(4, 4)])
    cut = exposing_normal_at_vertex(poly, (4, 4))
    assert np.allclose(cut.normal, (0.5, 0.5))
    assert cut.offset == pytest.approx(4.0)


def test_exposing_normal_separates_the_other_vertex():
    poly = build_lower_set([(3, 1), (1, 3)])
    cut = exposing_normal_at_vertex(poly, (3, 1))
    c = np.array(cut.normal)
    assert np.all(c > 0) and abs(c.sum() - 1.0) <= 1e-12
    assert c @ (3, 1) > c @ (1, 3)


def test_exposing_normal_unknown_vertex():
    poly = build_lower_set([(4, 4)])
    with pytest.raises(InputError):
        exposing_normal_at_vertex(poly, (1, 1))


def test_exposing_normals_random_k3():
    rng = np.random.default_rng(31)
    for _ in range(15):
        pts = rng.integers(-6, 7, size=(5, 3)).astype(float)
        poly = build_lower_set(pts)
        for v in poly.vertices:
            cut = exposing_normal_at_vertex(poly, v)
            c = np.array(cut.normal)
            assert np.all(c > 0)
            assert abs(float(c @ np.array(v)) - cut.offset) <= 1e-9
            for g in poly.generators:
                if max(abs(a - b) for a, b in zip(g, v)) <= 1e-8:
                    continue
                assert float(c @ np.array(g)) < cut.offset - 1e-12


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


def _rays_or_error(extreme_rays):
    try:
        return extreme_rays()
    except NumericalError:
        return None


def test_cone_dd_incremental_state_equals_a_fresh_run():
    rng = np.random.default_rng(71)
    sequences = [_random_cone_rows(rng, int(rng.integers(3, 7))) for _ in range(20)]
    sequences += [_benson_rows(rng, int(rng.integers(2, 6))) for _ in range(20)]
    for C in sequences:
        dd = ConeDD(C.shape[1])
        for i, row in enumerate(C):
            dd.add(row)
            got = _rays_or_error(dd.extreme_rays)
            want = _rays_or_error(lambda: cone_extreme_rays(C[: i + 1]))
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class _LoopAdjacencyDD(ConeDD):
    """The combinatorial adjacency test, one pair and one third ray at a time."""

    def _adjacent_pairs(self, pos_idx, neg_idx):
        D = np.array(self.done)
        zsets = [np.abs(D @ r) <= 1e-8 for r in self.rays]
        quotient_dim = self.dim - len(self.basis)
        out = []
        for ip in pos_idx:
            for ineg in neg_idx:
                common = zsets[ip] & zsets[ineg]
                if int(common.sum()) < quotient_dim - 2:
                    continue
                if not any(
                    np.all(zsets[other][common])
                    for other in range(len(self.rays))
                    if other not in (ip, ineg)
                ):
                    out.append((ip, ineg))
        return np.array(out, dtype=int).reshape(-1, 2)


class _RankAdjacencyDD(ConeDD):
    """The algebraic adjacency test: the common zero rows have rank quotient_dim - 2."""

    def _adjacent_pairs(self, pos_idx, neg_idx):
        D = np.array(self.done)
        zero = np.abs(np.array(self.rays) @ D.T) <= 1e-8
        quotient_dim = self.dim - len(self.basis)
        out = []
        for ip in pos_idx:
            for ineg in neg_idx:
                common = zero[ip] & zero[ineg]
                rank = np.linalg.matrix_rank(D[common]) if common.any() else 0
                if rank == quotient_dim - 2:
                    out.append((ip, ineg))
        return np.array(out, dtype=int).reshape(-1, 2)


@pytest.mark.parametrize("reference", [_LoopAdjacencyDD, _RankAdjacencyDD])
def test_vectorised_adjacency_matches_pairwise_references(reference):
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 40:
        d = int(rng.integers(3, 7))
        C = _random_cone_rows(rng, d) if checked % 2 else _benson_rows(rng, d - 1)
        if np.linalg.matrix_rank(C) < d:
            continue  # not pointed
        fast, slow = ConeDD(d), reference(d)
        for row in C:
            fast.add(row)
            slow.add(row)
        got, want = fast.extreme_rays(), slow.extreme_rays()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        checked += 1


def test_cone_extreme_rays_of_the_nonnegative_orthant():
    rays = cone_extreme_rays(np.eye(3))
    assert {tuple(r) for r in np.round(rays, 12)} == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                                       (0.0, 0.0, 1.0)}


def test_cone_that_is_not_pointed_raises():
    with pytest.raises(NumericalError):
        cone_extreme_rays(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    dd = ConeDD(2)
    dd.add([1.0, -1.0])
    dd.add([-1.0, 1.0])  # the line x1 = x2 remains
    with pytest.raises(NumericalError):
        dd.extreme_rays()


# --- vertex recovery from halfspaces ----------------------------------------

def test_upper_vertices_from_halfspaces_roundtrip():
    poly = build_upper_set([(1, 0), (0, 1), (2, 2)])
    got = upper_set_vertices_from_halfspaces(poly.halfspaces)
    assert np.allclose(got, np.array(sorted(poly.vertices)), atol=1e-9)


# --- type invariants on random instances ------------------------------------

def test_halfspace_representation_invariants():
    rng = np.random.default_rng(47)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        pts = rng.integers(-8, 9, size=(int(rng.integers(1, 7)), k)).astype(float)
        for build, orientation in ((build_lower_set, LOWER), (build_upper_set, UPPER)):
            poly = build(pts)
            A = poly.normal_matrix()
            b = poly.offset_vector()
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
        assert rebuilt.vertices == poly.vertices
        assert len(rebuilt.halfspaces) == len(poly.halfspaces)
        for ha, hb in zip(rebuilt.halfspaces, poly.halfspaces):
            assert np.allclose(ha.normal, hb.normal, atol=1e-9)
            assert abs(ha.offset - hb.offset) <= 1e-9


def test_lower_vertices_are_pareto_maximal_extremes():
    rng = np.random.default_rng(59)
    for _ in range(20):
        pts = rng.integers(-8, 9, size=(6, 2)).astype(float)
        poly = build_lower_set(pts)
        frontier = {tuple(p) for p in pareto_max_points(poly.generators)}
        assert set(poly.vertices) <= frontier
        if len(poly.vertices) > 1:
            for v in poly.vertices:
                rest = [u for u in poly.vertices if u != v]
                assert not contains_point(build_lower_set(rest), v)


def test_every_generator_is_dominated_by_a_frontier_point():
    # domination property: each generator sits below some Pareto-maximal
    # point of its lower set (above some Pareto-minimal point for upper
    # sets); the witness is produced by pushing along the all-ones
    # direction, which cannot leave the set undominated.
    from vecgame.lp import LinearProgram, solve_lp

    rng = np.random.default_rng(61)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        pts = rng.integers(-8, 9, size=(6, k)).astype(float)
        for build, sense in ((build_lower_set, "max"), (build_upper_set, "min")):
            poly = build(pts)
            A = poly.normal_matrix()
            b = poly.offset_vector()
            rel = "<=" if sense == "max" else ">="
            for g in poly.generators:
                bounds = tuple(
                    (x, None) if sense == "max" else (None, x) for x in g
                )
                out = solve_lp(
                    LinearProgram(
                        objective=np.ones(k),
                        lhs=A,
                        relations=(rel,) * len(b),
                        rhs=b,
                        sense=sense,
                        bounds=bounds,
                    )
                )
                assert out.status == "optimal"
                y = out.solution
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
    h = Halfspace((0.5, 0.5), 2)
    assert h.normal == (0.5, 0.5) and h.offset == 2.0
    a, b = h.as_arrays()
    assert np.array_equal(a, [0.5, 0.5]) and b == 2.0
    poly = OrientedPayoffPolyhedron(
        orientation=LOWER,
        generators=((1.0, 1.0),),
        halfspaces=(Halfspace((1.0, 0.0), 1.0), Halfspace((0.0, 1.0), 1.0)),
        vertices=((1.0, 1.0),),
    )
    assert poly.dim == 2
    assert poly.to_dict()["orientation"] == LOWER
