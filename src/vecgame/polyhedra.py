"""Payoff polyhedra of the form co(points) -/+ R^K_+ and their queries.

A lower set stores constraints a·y <= b, an upper set a·y >= b; in both
cases the normals a are nonnegative and normalized to unit coordinate sum,
so they read directly as Pareto weights.  Conversion between generators and
halfspaces runs through one double-description kernel on a homogenized cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

LOWER = "lower"
UPPER = "upper"

# Vertex candidates closer than this (infinity norm) are merged.
VERTEX_MERGE_TOL = 1e-8
# A halfspace counts as active at a point when |a·y - b| is below this.
ACTIVE_TOL = 1e-7
# The double description counts a ray on a row's positive or negative side
# when |row·ray| exceeds this; rays are unit vectors.
DD_TOL = 1e-9


@dataclass(frozen=True)
class Halfspace:
    """normal·y <= offset on lower sets, normal·y >= offset on upper sets."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self) -> None:
        n = tuple(float(v) for v in self.normal)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def as_arrays(self) -> tuple[np.ndarray, float]:
        return np.array(self.normal), self.offset


@dataclass(frozen=True)
class OrientedPayoffPolyhedron:
    orientation: str  # LOWER or UPPER
    generators: tuple[tuple[float, ...], ...]
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[float, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    def normal_matrix(self) -> np.ndarray:
        return np.array([h.normal for h in self.halfspaces])

    def offset_vector(self) -> np.ndarray:
        return np.array([h.offset for h in self.halfspaces])

    def to_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "vertices": [list(v) for v in self.vertices],
            "halfspaces": [
                {"normal": list(h.normal), "offset": h.offset} for h in self.halfspaces
            ],
        }


def _normalize_ray(r: np.ndarray) -> np.ndarray | None:
    norm = float(np.linalg.norm(r))
    if norm < 1e-12:
        return None
    return r / norm


def _dedupe_rays(rays: list[np.ndarray]) -> list[np.ndarray]:
    seen = set()
    out = []
    keys = np.round(np.array(rays), 9).tolist() if rays else []
    for r, key in zip(rays, map(tuple, keys)):
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


class ConeDD:
    """Incremental double description of {x : C x >= 0}, one row of C at a time.

    The start is a square nonsingular block B of rows.  {x : B x >= 0} is the
    simplicial cone spanned by the columns of B^-1, so those columns,
    normalized, are its extreme rays (Fukuda & Prodon, "Double description
    method revisited", 1996).  Each `add` then runs the positive/negative
    combination step with the combinatorial adjacency test.  The state after
    a sequence of `add` calls depends only on the block and the rows in their
    order, so a caller that keeps one object across cuts gets exactly what a
    fresh run over all rows would give.
    """

    def __init__(self, block) -> None:
        B = np.atleast_2d(np.asarray(block, dtype=float))
        self.dim = B.shape[1]
        if B.shape[0] != self.dim or np.linalg.matrix_rank(B) < self.dim:
            raise NumericalError(
                f"a double description starts from a square nonsingular block, "
                f"not from this {B.shape[0]}x{self.dim} one"
            )
        self.rays: list[np.ndarray] = [c / np.linalg.norm(c) for c in np.linalg.inv(B).T]
        self.done: list[np.ndarray] = list(B)

    def add(self, row) -> None:
        """Intersect the cone with {x : row·x >= 0}."""
        a = np.asarray(row, dtype=float)
        rays = self.rays
        vals = np.array([float(a @ r) for r in rays]) if rays else np.zeros(0)
        neg_idx = np.nonzero(vals < -DD_TOL)[0]
        if neg_idx.size == 0:
            self.done.append(a)
            return
        pos_idx = np.nonzero(vals > DD_TOL)[0]
        zer_idx = np.nonzero(np.abs(vals) <= DD_TOL)[0]
        new_rays: list[np.ndarray] = []
        for ip, ineg in self._adjacent_pairs(pos_idx, neg_idx):
            w = vals[ip] * rays[ineg] - vals[ineg] * rays[ip]
            nw = _normalize_ray(w)
            if nw is not None:
                new_rays.append(nw)
        self.rays = _dedupe_rays(
            [rays[i] for i in pos_idx] + [rays[i] for i in zer_idx] + new_rays
        )
        self.done.append(a)

    def _adjacent_pairs(self, pos_idx: np.ndarray, neg_idx: np.ndarray) -> np.ndarray:
        """The adjacent (positive, negative) ray pairs, in row-major order.

        Two rays are adjacent when their common zero set among the processed
        rows has at least dim - 2 rows and no third ray is zero on all of it.
        Counting is done with matrix products on the zero-set matrix, and the
        blocking test runs only on pairs that pass the count.
        """
        Z = zero_set(self.rays, self.done).astype(float)
        ci, cj = np.nonzero(Z[pos_idx] @ Z[neg_idx].T >= self.dim - 2)
        pairs = np.stack([pos_idx[ci], neg_idx[cj]], axis=1)
        common = Z[pairs[:, 0]] * Z[pairs[:, 1]]
        # misses[c, r] counts the common zero rows of pair c on which ray r is
        # nonzero; the pair's own two rays always miss none.
        misses = common @ (1.0 - Z).T
        return pairs[(misses == 0).sum(axis=1) == 2]

    def extreme_rays(self) -> np.ndarray:
        """The current extreme rays, one unit vector a row."""
        return np.array(self.rays) if self.rays else np.zeros((0, self.dim))


def cone_extreme_rays(constraints: np.ndarray) -> np.ndarray:
    """Extreme rays of {x : C x >= 0}; the first dim rows of C must be nonsingular."""
    C = np.atleast_2d(np.asarray(constraints, dtype=float))
    d = C.shape[1]
    dd = ConeDD(C[:d])
    for a in C[d:]:
        dd.add(a)
    return dd.extreme_rays()


def zero_set(rays, rows) -> np.ndarray:
    """Boolean ray-by-row matrix: True where the unit-norm ray lies on the row's
    hyperplane, |row·ray| <= 1e-8.  The DD's adjacency test and `facet_rows` share it."""
    return np.abs(np.asarray(rays) @ np.asarray(rows).T) <= 1e-8


def facet_rows(rays: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices of the rows that are facets of the pointed cone {x : rows x >= 0}:
    those whose tight extreme `rays` have rank dim - 1, in one batched rank test."""
    # slice j holds the rays tight on row j and zeros; tight rays leave the
    # hyperplane by rounding (about 1e-14), which numpy's default tolerance counts
    tight = np.where(zero_set(rays, rows).T[:, :, None], rays[None, :, :], 0.0)
    return np.nonzero(np.linalg.matrix_rank(tight, tol=1e-9) == rows.shape[1] - 1)[0]


def unit_sum_halfspaces(pairs) -> list[tuple[np.ndarray, float]]:
    """Distinct halfspaces (a, b) with unit normal sum, sorted; normal components below
    1e-12 become zero, and a normal summing to about zero (a cone's t >= 0) drops out."""
    out = []
    seen = set()
    for a, b in pairs:
        s = float(a.sum())
        if s <= 1e-9:
            continue
        a = a / s
        b = b / s
        a[np.abs(a) < 1e-12] = 0.0
        s2 = float(a.sum())
        a = a / s2
        b = b / s2
        key = tuple(np.round(np.concatenate([a, [b]]), 9))
        if key in seen:
            continue
        seen.add(key)
        out.append((a, b))
    out.sort(key=lambda ab: (tuple(ab[0]), ab[1]))
    return out


def _lower_halfspaces(points: np.ndarray) -> tuple[list, list[tuple[float, ...]]]:
    """Irredundant facets a·y <= b of co(points) - R^K_+ via the polar cone, and the
    sorted vertices: the points whose rows (1, p) are facets of the polar cone."""
    k = points.shape[1]
    # the rows (0, -e_k) and (1, p_0) lead: their block inverts without rounding
    rows = np.vstack([np.hstack([np.zeros((k, 1)), -np.eye(k)]),
                      np.hstack([np.ones((len(points), 1)), points])])
    rays = cone_extreme_rays(rows)
    halfspaces = unit_sum_halfspaces((-d[1:], float(d[0])) for d in rays)
    verts = sorted(tuple(float(x) for x in rows[i, 1:]) for i in facet_rows(rays, rows) if i >= k)
    return halfspaces, verts


def _dedupe_points(points: np.ndarray, tol: float = VERTEX_MERGE_TOL) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def build_lower_set(points) -> OrientedPayoffPolyhedron:
    """co(points) - R^K_+ with irredundant halfspaces and its vertex list."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise InputError("need at least one generator point")
    if pts.ndim != 2:
        raise InputError("points must be a list of equal-length vectors")
    if not np.isfinite(pts).all():
        raise InputError("generator points must be finite")
    gens = _dedupe_points(pts)
    hs, verts = _lower_halfspaces(gens)
    return OrientedPayoffPolyhedron(
        orientation=LOWER,
        generators=tuple(tuple(float(x) for x in p) for p in gens),
        halfspaces=tuple(Halfspace(tuple(a), b) for a, b in hs),
        vertices=tuple(verts),
    )


def negated_set(poly: OrientedPayoffPolyhedron) -> OrientedPayoffPolyhedron:
    """The set {-y : y in poly}: a lower set becomes an upper set and back.

    Normals stay, offsets, vertices and generators change sign; halfspaces
    and vertices are re-sorted, as `build_lower_set` sorts them.
    """
    hs = sorted(
        (Halfspace(h.normal, -h.offset) for h in poly.halfspaces),
        key=lambda h: (h.normal, h.offset),
    )
    return OrientedPayoffPolyhedron(
        orientation=UPPER if poly.orientation == LOWER else LOWER,
        generators=tuple(tuple(float(-x) for x in g) for g in poly.generators),
        halfspaces=tuple(hs),
        vertices=tuple(sorted(tuple(float(-x) for x in v) for v in poly.vertices)),
    )


def build_upper_set(points) -> OrientedPayoffPolyhedron:
    """co(points) + R^K_+; computed as the negation of a lower set."""
    return negated_set(build_lower_set(-np.atleast_2d(np.asarray(points, dtype=float))))


def contains_point(poly: OrientedPayoffPolyhedron, y, *, tol: float = 1e-9) -> bool:
    yv = np.asarray(y, dtype=float)
    if yv.shape != (poly.dim,):
        raise InputError(f"point has dimension {yv.shape}, polyhedron has {poly.dim}")
    A = poly.normal_matrix()
    b = poly.offset_vector()
    if poly.orientation == LOWER:
        return bool(np.all(A @ yv <= b + tol))
    return bool(np.all(A @ yv >= b - tol))


def poly_subset(
    a: OrientedPayoffPolyhedron, b: OrientedPayoffPolyhedron, *, tol: float = 1e-9
) -> bool:
    """A ⊆ B; valid because both share the same orthant recession cone."""
    if a.orientation != b.orientation:
        raise InputError("cannot compare polyhedra of different orientations")
    return all(contains_point(b, g, tol=tol) for g in a.generators)


def support_value(poly: OrientedPayoffPolyhedron, direction) -> float:
    """max of w·y over a lower set / min over an upper set, w in R^K_+."""
    w = np.asarray(direction, dtype=float)
    if w.shape != (poly.dim,):
        raise InputError("direction dimension mismatch")
    if np.any(w < -1e-12):
        raise InputError("support value is unbounded for directions outside R^K_+")
    vals = np.array(poly.generators) @ w
    return float(vals.max() if poly.orientation == LOWER else vals.min())


def pareto_max_points(points, *, tol: float = 1e-9) -> np.ndarray:
    """Points not dominated by another listed point (>= with some strict >)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = []
    for i in range(pts.shape[0]):
        y = pts[i]
        dominated = np.any(
            np.all(pts >= y - tol, axis=1) & np.any(pts > y + tol, axis=1)
        )
        if not dominated:
            keep.append(i)
    return pts[keep]


def pareto_min_points(points, *, tol: float = 1e-9) -> np.ndarray:
    return -pareto_max_points(-np.atleast_2d(np.asarray(points, dtype=float)), tol=tol)


def weak_pareto_points(points, sense: str, *, tol: float = 1e-9) -> np.ndarray:
    """Points not strictly dominated in every component."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if sense not in ("max", "min"):
        raise InputError("sense must be 'max' or 'min'")
    cmp = pts if sense == "max" else -pts
    keep = []
    for i in range(cmp.shape[0]):
        y = cmp[i]
        dominated = np.any(np.all(cmp > y + tol, axis=1))
        if not dominated:
            keep.append(i)
    return pts[keep]


def active_halfspace_indices(
    poly: OrientedPayoffPolyhedron, y, *, tol: float = ACTIVE_TOL
) -> list[int]:
    yv = np.asarray(y, dtype=float)
    A = poly.normal_matrix()
    b = poly.offset_vector()
    return [i for i, v in enumerate(A @ yv) if abs(v - b[i]) <= tol]


def exposing_normal_at_vertex(
    poly: OrientedPayoffPolyhedron, vertex, *, tol: float = ACTIVE_TOL
) -> Halfspace:
    """A strictly positive normal whose halfspace touches the set only at
    `vertex`: the renormalized sum of all facet normals active there."""
    v = np.asarray(vertex, dtype=float)
    if not any(np.max(np.abs(v - np.array(u))) <= VERTEX_MERGE_TOL for u in poly.vertices):
        raise InputError(f"{tuple(v)} is not a vertex of the polyhedron")
    idx = active_halfspace_indices(poly, v, tol=tol)
    if not idx:
        raise NumericalError("no active facet at the claimed vertex")
    A = poly.normal_matrix()
    c = A[idx].sum(axis=0)
    c = c / c.sum()
    gamma = float(c @ v)
    if np.any(c <= 1e-12):
        raise NumericalError(
            f"exposing normal has a zero component at vertex {tuple(v)}: {tuple(c)}"
        )
    margin = 1e-12 * (1.0 + abs(gamma))
    for g in poly.generators:
        garr = np.array(g)
        if np.max(np.abs(garr - v)) <= VERTEX_MERGE_TOL:
            continue
        val = float(c @ garr)
        exposed = val < gamma - margin if poly.orientation == LOWER else val > gamma + margin
        if not exposed:
            raise NumericalError(
                f"exposure failed at vertex {tuple(v)}: generator {g} sits on the "
                f"supporting hyperplane (value {val}, offset {gamma})"
            )
    return Halfspace(tuple(c), gamma)


def halfspace_row(h: Halfspace) -> np.ndarray:
    """The row (-b, a) of a·y >= b on the homogenized cone {(t, y) : a·y >= b t}."""
    return np.concatenate(([-float(h.offset)], np.asarray(h.normal, dtype=float)))


def upper_set_cone(halfspaces) -> ConeDD:
    """Double description of the homogenized cone of {y : a·y >= b for all (a, b)}.

    The rows are t >= 0, then one `halfspace_row` per halfspace.  The first
    K + 1 rows are the starting block, so the first K normals must be
    independent, as Benson's K coordinate bounds are.  Further halfspaces go
    in with `add(halfspace_row(h))`, and `upper_set_vertices` reads the
    vertices at any point.
    """
    halfspaces = list(halfspaces)
    k = len(halfspaces[0].normal)
    rows = [np.eye(k + 1)[0]] + [halfspace_row(h) for h in halfspaces]
    dd = ConeDD(rows[: k + 1])
    for row in rows[k + 1 :]:
        dd.add(row)
    return dd


def upper_set_vertices(dd: ConeDD) -> np.ndarray:
    """Sorted vertices of the upper set whose homogenized cone `dd` holds."""
    rays = dd.extreme_rays()
    rays = rays[rays[:, 0] > 1e-9]
    verts = rays[:, 1:] / rays[:, :1]
    return verts[np.lexsort(verts.T[::-1])]


def upper_set_vertices_from_halfspaces(halfspaces) -> np.ndarray:
    """Vertices of {y : a·y >= b for all (a, b)}; the first K normals must be independent."""
    return upper_set_vertices(upper_set_cone(halfspaces))
