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


@dataclass(frozen=True, eq=False)
class OrientedPayoffPolyhedron:
    """A lower set {y : normals y <= offsets} or an upper set {y : normals y >= offsets}.

    Every field is a read-only float array: `generators` (n, K), `normals`
    (F, K), `offsets` (F,) and `vertices` (V, K).  Builders sort the
    halfspaces by (normal, offset) and the vertices lexicographically.
    """

    orientation: str  # LOWER or UPPER
    generators: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray

    def __post_init__(self) -> None:
        for name in ("generators", "normals", "offsets", "vertices"):
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays own their data, so they turn read-only without a copy
        for name in ("generators", "normals", "offsets", "vertices"):
            state[name].setflags(write=False)
        self.__dict__.update(state)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def to_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "halfspaces": [
                {"normal": a, "offset": b}
                for a, b in zip(self.normals.tolist(), self.offsets.tolist())
            ],
            "vertices": self.vertices.tolist(),
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


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """The permutation sorting the rows of a 2-D array lexicographically."""
    return np.lexsort(rows.T[::-1])


def unit_sum_halfspaces(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct halfspaces (a, b) with unit normal sum, sorted; normal components
    below 1e-12 become zero, and a normal summing to about zero (a cone's t >= 0)
    drops out.  Of halfspaces equal to 9 decimals the first one is kept."""
    s = normals.sum(axis=1)
    keep = s > 1e-9
    a = normals[keep] / s[keep, None]
    b = offsets[keep] / s[keep]
    a[np.abs(a) < 1e-12] = 0.0
    s = a.sum(axis=1)
    rows = np.column_stack([a / s[:, None], b / s])
    seen = set()
    first = []
    for i, key in enumerate(map(tuple, np.round(rows, 9).tolist())):
        if key not in seen:
            seen.add(key)
            first.append(i)
    rows = rows[first]
    rows = rows[_lex_order(rows)]
    return rows[:, :-1], rows[:, -1]


def _lower_halfspaces(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Irredundant facets a·y <= b of co(points) - R^K_+ via the polar cone, and the
    sorted vertices: the points whose rows (1, p) are facets of the polar cone."""
    k = points.shape[1]
    # the rows (0, -e_k) and (1, p_0) lead: their block inverts without rounding
    rows = np.vstack([np.hstack([np.zeros((k, 1)), -np.eye(k)]),
                      np.hstack([np.ones((len(points), 1)), points])])
    rays = cone_extreme_rays(rows)
    normals, offsets = unit_sum_halfspaces(-rays[:, 1:], rays[:, 0])
    facets = facet_rows(rays, rows)
    verts = rows[facets[facets >= k], 1:]
    return normals, offsets, verts[_lex_order(verts)]


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
    return OrientedPayoffPolyhedron(LOWER, gens, *_lower_halfspaces(gens))


def negated_set(poly: OrientedPayoffPolyhedron) -> OrientedPayoffPolyhedron:
    """The set {-y : y in poly}: a lower set becomes an upper set and back.

    Normals stay; offsets, vertices and generators change sign.  The
    halfspaces are re-sorted by (normal, offset), as `build_lower_set`
    sorts them.  Negation reverses lexicographic order, so the vertices
    come out in reverse order and a sorted list stays sorted.
    """
    order = _lex_order(np.column_stack([poly.normals, -poly.offsets]))
    return OrientedPayoffPolyhedron(
        orientation=UPPER if poly.orientation == LOWER else LOWER,
        generators=-poly.generators,
        normals=poly.normals[order],
        offsets=-poly.offsets[order],
        vertices=-poly.vertices[::-1],
    )


def build_upper_set(points) -> OrientedPayoffPolyhedron:
    """co(points) + R^K_+; computed as the negation of a lower set."""
    return negated_set(build_lower_set(-np.atleast_2d(np.asarray(points, dtype=float))))


def contains_point(poly: OrientedPayoffPolyhedron, y, *, tol: float = 1e-9) -> bool:
    """Whether the point y, or every row of an (N, K) array y, lies in poly."""
    yv = np.asarray(y, dtype=float)
    if yv.ndim not in (1, 2) or yv.shape[-1] != poly.dim:
        raise InputError(f"point has dimension {yv.shape}, polyhedron has {poly.dim}")
    values = yv @ poly.normals.T
    if poly.orientation == LOWER:
        return bool(np.all(values <= poly.offsets + tol))
    return bool(np.all(values >= poly.offsets - tol))


def poly_subset(
    a: OrientedPayoffPolyhedron, b: OrientedPayoffPolyhedron, *, tol: float = 1e-9
) -> bool:
    """A ⊆ B; valid because both share the same orthant recession cone."""
    if a.orientation != b.orientation:
        raise InputError("cannot compare polyhedra of different orientations")
    return contains_point(b, a.generators, tol=tol)


def support_value(poly: OrientedPayoffPolyhedron, direction) -> float:
    """max of w·y over a lower set / min over an upper set, w in R^K_+."""
    w = np.asarray(direction, dtype=float)
    if w.shape != (poly.dim,):
        raise InputError("direction dimension mismatch")
    if np.any(w < -1e-12):
        raise InputError("support value is unbounded for directions outside R^K_+")
    vals = poly.generators @ w
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


def active_normal_sums(poly: OrientedPayoffPolyhedron, points: np.ndarray) -> np.ndarray:
    """Per row of the (N, K) array `points`: the sum of the normals of the
    halfspaces active there, |a·y - b| <= ACTIVE_TOL; zero where none is.

    A point of a lower set is Pareto-maximal, and one of an upper set
    Pareto-minimal, exactly when this sum is strictly positive.  Each sum
    adds the active normals one at a time, in halfspace order.
    """
    active = np.abs(points @ poly.normals.T - poly.offsets) <= ACTIVE_TOL
    return np.where(active[:, :, None], poly.normals, 0.0).sum(axis=1)


def exposing_normals(poly: OrientedPayoffPolyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex v: a strictly positive normal c with unit sum whose halfspace
    touches the set only at v, and its offset c·v.  The normal is the
    renormalized sum of the facet normals active at v."""
    sums = active_normal_sums(poly, poly.vertices)
    totals = sums.sum(axis=1, keepdims=True)
    if np.any(totals == 0.0):
        v = poly.vertices[np.flatnonzero(totals[:, 0] == 0.0)[0]]
        raise NumericalError(f"no active facet at the claimed vertex {tuple(v)}")
    normals = sums / totals
    offsets = np.array([float(c @ v) for c, v in zip(normals, poly.vertices)])
    bad = np.flatnonzero(np.any(normals <= 1e-12, axis=1))
    if bad.size:
        v, c = poly.vertices[bad[0]], normals[bad[0]]
        raise NumericalError(
            f"exposing normal has a zero component at vertex {tuple(v)}: {tuple(c)}"
        )
    # values[g, v]: generator g against the normal of vertex v; a generator
    # within VERTEX_MERGE_TOL of v is v itself and is not tested
    values = poly.generators @ normals.T
    margin = 1e-12 * (1.0 + np.abs(offsets))
    if poly.orientation == LOWER:
        exposed = values < offsets - margin
    else:
        exposed = values > offsets + margin
    same = np.abs(poly.generators[:, None, :] - poly.vertices[None, :, :]).max(axis=2)
    failed = np.argwhere(~exposed & (same > VERTEX_MERGE_TOL))
    if failed.size:
        g, i = failed[0]
        raise NumericalError(
            f"exposure failed at vertex {tuple(poly.vertices[i])}: generator "
            f"{tuple(poly.generators[g])} sits on the supporting hyperplane "
            f"(value {values[g, i]}, offset {offsets[i]})"
        )
    return normals, offsets


def halfspace_row(normals: np.ndarray, offsets) -> np.ndarray:
    """The row (-b, a) of a·y >= b on the homogenized cone {(t, y) : a·y >= b t};
    for (F, K) normals and (F,) offsets, one row each."""
    return np.hstack([-np.asarray(offsets, dtype=float)[..., None], normals])


def upper_set_cone(normals: np.ndarray, offsets: np.ndarray) -> ConeDD:
    """Double description of the homogenized cone of {y : normals y >= offsets}.

    The rows are t >= 0, then one `halfspace_row` per halfspace.  The first
    K + 1 rows are the starting block, so the first K normals must be
    independent, as Benson's K coordinate bounds are.  Further halfspaces go
    in with `add(halfspace_row(a, b))`, and `upper_set_vertices` reads the
    vertices at any point.
    """
    k = normals.shape[1]
    rows = np.vstack([np.eye(k + 1)[0], halfspace_row(normals, offsets)])
    dd = ConeDD(rows[: k + 1])
    for row in rows[k + 1 :]:
        dd.add(row)
    return dd


def upper_set_vertices(dd: ConeDD) -> np.ndarray:
    """Sorted vertices of the upper set whose homogenized cone `dd` holds."""
    rays = dd.extreme_rays()
    rays = rays[rays[:, 0] > 1e-9]
    verts = rays[:, 1:] / rays[:, :1]
    return verts[_lex_order(verts)]


def upper_set_vertices_from_halfspaces(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {y : normals y >= offsets}; the first K normals must be independent."""
    return upper_set_vertices(upper_set_cone(normals, offsets))
