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

    While the lineality space is nontrivial a violated row consumes one basis
    vector; afterwards the classic positive/negative combination step with
    the combinatorial adjacency test runs.  Rays are kept orthogonal to the
    remaining lineality space so that representatives are canonical.  The
    state after a sequence of `add` calls depends only on the rows and their
    order, so a caller that keeps one object across cuts gets exactly what a
    fresh run over all rows would give.
    """

    def __init__(self, dim: int, *, tol: float = 1e-9) -> None:
        self.dim = dim
        self.tol = tol
        self.basis: list[np.ndarray] = [np.eye(dim)[i] for i in range(dim)]
        self.rays: list[np.ndarray] = []
        self.done: list[np.ndarray] = []

    def _project_out_basis(self) -> None:
        if not self.basis:
            return
        B = np.array(self.basis)
        q, _ = np.linalg.qr(B.T)
        q = q[:, : len(self.basis)]
        self.basis = [q[:, i] for i in range(q.shape[1])]
        proj = []
        for r in self.rays:
            r2 = r - q @ (q.T @ r)
            nr = _normalize_ray(r2)
            if nr is not None:
                proj.append(nr)
        self.rays = _dedupe_rays(proj)

    def add(self, row) -> None:
        """Intersect the cone with {x : row·x >= 0}."""
        a = np.asarray(row, dtype=float)
        tol = self.tol
        basis, rays = self.basis, self.rays
        if basis:
            dots = np.array([a @ bvec for bvec in basis])
            k = int(np.argmax(np.abs(dots)))
            if abs(dots[k]) > tol:
                b0 = basis[k] if dots[k] > 0 else -basis[k]
                ab0 = float(a @ b0)
                self.basis = [
                    bvec - (float(a @ bvec) / ab0) * b0
                    for i, bvec in enumerate(basis)
                    if i != k
                ]
                self.rays = [r - (float(a @ r) / ab0) * b0 for r in rays] + [b0]
                self.done.append(a)
                self._project_out_basis()
                self.rays = _dedupe_rays(
                    [r for r in map(_normalize_ray, self.rays) if r is not None]
                )
                return

        vals = np.array([float(a @ r) for r in rays]) if rays else np.zeros(0)
        neg_idx = np.nonzero(vals < -tol)[0]
        if neg_idx.size == 0:
            self.done.append(a)
            return
        pos_idx = np.nonzero(vals > tol)[0]
        zer_idx = np.nonzero(np.abs(vals) <= tol)[0]
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
        rows has at least quotient_dim - 2 rows and no third ray is zero on
        all of it.  Counting is done with matrix products on the zero-set
        matrix, and the blocking test runs only on pairs that pass the count.
        """
        R = np.array(self.rays)
        Z = (np.abs(R @ np.array(self.done).T) <= 1e-8).astype(float)
        quotient_dim = self.dim - len(self.basis)
        ci, cj = np.nonzero(Z[pos_idx] @ Z[neg_idx].T >= quotient_dim - 2)
        pairs = np.stack([pos_idx[ci], neg_idx[cj]], axis=1)
        common = Z[pairs[:, 0]] * Z[pairs[:, 1]]
        # misses[c, r] counts the common zero rows of pair c on which ray r is
        # nonzero; the pair's own two rays always miss none.
        misses = common @ (1.0 - Z).T
        return pairs[(misses == 0).sum(axis=1) == 2]

    def extreme_rays(self) -> np.ndarray:
        """Current extreme rays; the cone must be pointed by now."""
        if self.basis:
            raise NumericalError("cone has nontrivial lineality; extreme rays undefined")
        return np.array(self.rays) if self.rays else np.zeros((0, self.dim))


def cone_extreme_rays(constraints: np.ndarray, *, tol: float = 1e-9) -> np.ndarray:
    """Extreme rays of {x : C x >= 0} for a cone that ends up pointed."""
    C = np.atleast_2d(np.asarray(constraints, dtype=float))
    dd = ConeDD(C.shape[1], tol=tol)
    for a in C:
        dd.add(a)
    return dd.extreme_rays()


def _lower_halfspaces(points: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Irredundant facets a·y <= b of co(points) - R^K_+ via the polar cone."""
    r, k = points.shape
    rows = [np.concatenate(([1.0], p)) for p in points]
    for unit in range(k):
        e = np.zeros(k + 1)
        e[1 + unit] = -1.0
        rows.append(e)
    rays = cone_extreme_rays(np.array(rows))
    out = []
    seen = set()
    for d in rays:
        a = -d[1:]
        b = float(d[0])
        s = float(a.sum())
        if s <= 1e-9:
            continue  # the trivial inequality 1 >= 0
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


def _dedupe_points(points: np.ndarray, tol: float = VERTEX_MERGE_TOL) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _vertices_of(points: np.ndarray, halfspaces) -> list[tuple[float, ...]]:
    k = points.shape[1]
    verts = []
    for p in points:
        active = []
        for a, b in halfspaces:
            v = float(a @ p)
            if abs(v - b) <= ACTIVE_TOL:
                active.append(a)
        if active and np.linalg.matrix_rank(np.array(active), tol=1e-9) == k:
            verts.append(tuple(float(x) for x in p))
    verts.sort()
    return verts


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
    hs = _lower_halfspaces(gens)
    verts = _vertices_of(gens, hs)
    return OrientedPayoffPolyhedron(
        orientation=LOWER,
        generators=tuple(tuple(float(x) for x in p) for p in gens),
        halfspaces=tuple(Halfspace(tuple(a), b) for a, b in hs),
        vertices=tuple(verts),
    )


def build_upper_set(points) -> OrientedPayoffPolyhedron:
    """co(points) + R^K_+; computed as the negation of a lower set."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    low = build_lower_set(-pts)
    hs = [Halfspace(h.normal, -h.offset) for h in low.halfspaces]
    hs.sort(key=lambda h: (h.normal, h.offset))
    verts = sorted(tuple(float(-x) for x in v) for v in low.vertices)
    gens = tuple(tuple(float(-x) for x in g) for g in low.generators)
    return OrientedPayoffPolyhedron(
        orientation=UPPER,
        generators=gens,
        halfspaces=tuple(hs),
        vertices=tuple(verts),
    )


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


def upper_set_cone(halfspaces, *, tol: float = 1e-9) -> ConeDD:
    """Double description of the homogenized cone of {y : a·y >= b for all (a, b)}.

    The first row is t >= 0, then one `halfspace_row` per halfspace; further
    halfspaces go in with `add(halfspace_row(h))`, and `upper_set_vertices`
    reads the vertices at any point.
    """
    halfspaces = list(halfspaces)
    k = len(halfspaces[0].normal)
    dd = ConeDD(k + 1, tol=tol)
    dd.add(np.concatenate(([1.0], np.zeros(k))))
    for h in halfspaces:
        dd.add(halfspace_row(h))
    return dd


def upper_set_vertices(dd: ConeDD) -> np.ndarray:
    """Sorted vertices of the upper set whose homogenized cone `dd` holds."""
    rays = dd.extreme_rays()
    rays = rays[rays[:, 0] > 1e-9]
    verts = rays[:, 1:] / rays[:, :1]
    return verts[np.lexsort(verts.T[::-1])]


def upper_set_vertices_from_halfspaces(
    halfspaces, *, tol: float = 1e-9
) -> np.ndarray:
    """Vertices of {y : a·y >= b for all (a, b)}; normals must span R^K."""
    return upper_set_vertices(upper_set_cone(halfspaces, tol=tol))
