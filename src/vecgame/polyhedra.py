"""Payoff polyhedra of the form co(points) -/+ R^K_+ and their queries.

A lower set stores constraints a·y <= b, an upper set a·y >= b; in both
cases the normals a are nonnegative and normalized to unit coordinate sum,
so they read directly as Pareto weights.  Conversion between generators and
halfspaces runs through one double-description kernel on a homogenized cone.

The kernel, `ConeDD`, steps a stack of cones in lockstep, and
`build_lower_set` builds a stack of lower sets in one call; one cone or one
set is a stack of one.  Every stacked step is elementwise, an exact count,
or a computation within one member, so a member comes out bit for bit as it
would alone, whatever else is in its stack.
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


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·y over the last axis, broadcast over the others, summed left to right.

    Only elementwise operations run, so a value does not depend on the shape
    of the stack it sits in; matmul, einsum and BLAS dot products round
    differently with the shape of their operands.
    """
    out = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        out = out + x[..., k] * y[..., k]
    return out


def _places(member: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """For items sorted by member (0 <= member < count): the number of items of
    each member, and each item's place among its member's items."""
    counts = np.bincount(member, minlength=count)
    return counts, np.arange(len(member)) - np.repeat(np.cumsum(counts) - counts, counts)


class ConeDD:
    """Double description of one cone {x : C x >= 0}, or of a stack of B such
    cones stepped in lockstep, one row of each C at a time.

    A 2-D block gives one cone; a 3-D block (B, d, d) gives a stack, and
    `add` then takes one row per cone, (B, d).  Each cone starts from a
    square nonsingular block of rows.  {x : B x >= 0} is the simplicial cone
    spanned by the columns of B^-1, so those columns, normalized, are its
    extreme rays (Fukuda & Prodon, "Double description method revisited",
    1996).  Each `add` then runs the positive/negative combination step with
    the combinatorial adjacency test, once for the whole stack.

    The state is padded: `rays` (B, R, d) holds cone b's unit rays in the
    rows where `valid` (B, R) is True, which come first, and zeros after;
    `done` (B, J, d) holds the rows processed.  Every step is elementwise,
    an exact count, or works within one cone, so a cone's state does not
    depend on the rest of its stack: member b of a stack ends bit for bit
    where a stack of one would.  The state after a sequence of `add` calls
    depends only on the block and the rows in their order, so a caller that
    keeps one object across cuts gets exactly what a fresh run over all
    rows would give.
    """

    def __init__(self, block) -> None:
        blocks = np.asarray(block, dtype=float)
        self.single = blocks.ndim < 3
        if self.single:
            blocks = np.atleast_2d(blocks)[None]
        self.dim = blocks.shape[-1]
        if (blocks.ndim != 3 or blocks.shape[1] != self.dim
                or np.any(np.linalg.matrix_rank(blocks) < self.dim)):
            raise NumericalError(
                f"a double description starts from a square nonsingular block, "
                f"not from this {'x'.join(map(str, blocks.shape[1:]))} one"
            )
        columns = np.linalg.inv(blocks).transpose(0, 2, 1)
        self.rays = columns / np.sqrt(_dot(columns, columns))[..., None]
        self.valid = np.ones(blocks.shape[:2], dtype=bool)
        self.done = blocks

    def add(self, row) -> None:
        """Intersect each cone with {x : row·x >= 0}, one row per cone."""
        a = np.asarray(row, dtype=float).reshape(len(self.done), 1, self.dim)
        vals = _dot(self.rays, a)
        neg = self.valid & (vals < -DD_TOL)
        cut = neg.any(axis=1)
        if cut.any():
            self._cut(vals, neg, cut)
        self.done = np.concatenate([self.done, a], axis=1)

    def _cut(self, vals: np.ndarray, neg: np.ndarray, cut: np.ndarray) -> None:
        """The combination step on the cones marked `cut`, whose new row
        `vals` (B, R) leaves negative on the rays marked `neg`.

        A cut cone keeps its positive rays, then its zero rays, then the
        normalized combinations of its adjacent pairs in pair order, and
        drops every ray equal to an earlier one to 9 decimals.  The other
        cones keep their rays as they are.
        """
        rays, valid = self.rays, self.valid
        pos = valid & (vals > DD_TOL)
        b, p, n = self._adjacent_pairs(pos & cut[:, None], neg)
        new = vals[b, p, None] * rays[b, n] - vals[b, n, None] * rays[b, p]
        norm = np.sqrt(_dot(new, new))
        big = norm >= 1e-12
        kb, kr = np.nonzero(valid & ~neg)
        member = np.concatenate([kb, b[big]])
        group = np.concatenate([(cut[kb] & ~pos[kb, kr]).astype(int), np.full(big.sum(), 2)])
        rank = np.concatenate([kr, np.arange(big.sum())])
        cand = np.concatenate([rays[kb, kr], new[big] / norm[big, None]])
        order = np.lexsort((rank, group, member))
        member, cand = member[order], cand[order]

        keep = ~(_repeats(member, cand) & cut[member])
        member, cand = member[keep], cand[keep]

        counts, slot = _places(member, len(valid))
        self.rays = np.zeros((len(valid), counts.max(initial=0), self.dim))
        self.rays[member, slot] = cand
        self.valid = np.arange(self.rays.shape[1]) < counts[:, None]

    def _adjacent_pairs(self, pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, ...]:
        """The adjacent (positive, negative) ray pairs of every cone, as index
        arrays (b, p, n) in row-major order, from the (B, R) masks `pos` and `neg`.

        Two rays of a cone are adjacent when their common zero set among the
        cone's processed rows has at least dim - 2 rows and no third ray of
        the cone is zero on all of it.  Counting is done with matrix products
        on the zero-set matrices, which count exactly, and the blocking test
        runs only on pairs that pass the count.
        """
        Z = zero_set(self.rays, self.done).astype(float)
        shared = Z @ Z.transpose(0, 2, 1)
        b, p, n = np.nonzero(pos[:, :, None] & neg[:, None, :] & (shared >= self.dim - 2))
        # the pairs of each cone are padded to one length, so that misses[b, c, r],
        # the common zero rows of pair c on which ray r is nonzero, is one
        # batched product; the pair's own two rays always miss none
        count, c = _places(b, len(Z))
        common = np.zeros((len(Z), count.max(initial=0), Z.shape[2]))
        common[b, c] = Z[b, p] * Z[b, n]
        misses = common @ (1.0 - Z).transpose(0, 2, 1)
        adjacent = ((misses[b, c] == 0) & self.valid[b]).sum(axis=1) == 2
        return b[adjacent], p[adjacent], n[adjacent]

    def extreme_rays(self) -> np.ndarray | tuple[np.ndarray, ...]:
        """The current extreme rays, one unit vector a row: an (R, d) array for
        one cone, a tuple of them for a stack."""
        rays = tuple(r[v] for r, v in zip(self.rays, self.valid))
        return rays[0] if self.single else rays


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
    hyperplane, |row·ray| <= 1e-8.  Stacks (..., R, d) and (..., J, d) give
    (..., R, J).  The DD's adjacency test and `facet_rows` share it."""
    rays, rows = np.asarray(rays, dtype=float), np.asarray(rows, dtype=float)
    return np.abs(_dot(rays[..., :, None, :], rows[..., None, :, :])) <= 1e-8


def _facet_mask(rays: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows (..., J, d) are facets of the pointed cone {x : rows x >= 0}:
    those whose tight extreme `rays` (..., R, d) have rank dim - 1, in one
    batched rank test.  The rank of a member depends on R, so a stack must
    hold members with equally many rays to rank each as it would alone."""
    # slice j holds the rays tight on row j and zeros; tight rays leave the
    # hyperplane by rounding (about 1e-14), which numpy's default tolerance counts
    tight = np.where(np.swapaxes(zero_set(rays, rows), -1, -2)[..., None],
                     rays[..., None, :, :], 0.0)
    return np.linalg.matrix_rank(tight, tol=1e-9) == rows.shape[-1] - 1


def facet_rows(rays: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices of the rows (J, d) that are facets of the pointed cone
    {x : rows x >= 0} with extreme `rays` (R, d), as `_facet_mask` finds them."""
    return np.flatnonzero(_facet_mask(rays, rows))


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """The permutation sorting the rows of a 2-D array lexicographically, on
    the rows rounded to 9 decimals as `_repeats` keys them, so that rounding
    noise on a tied coordinate cannot reorder them."""
    return np.lexsort(np.round(rows, 9).T[::-1])


def _repeats(member: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows equal, to 9 decimals, an earlier row of the same member;
    row i belongs to member[i]."""
    key = np.round(rows, 9)
    seq = np.lexsort((np.arange(len(rows)), *key.T[::-1], member))
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[seq[1:]] = (member[seq[1:]] == member[seq[:-1]]) & np.all(
        key[seq[1:]] == key[seq[:-1]], axis=1
    )
    return repeat


def _unit_sum_halfspaces(
    member: np.ndarray, normals: np.ndarray, offsets: np.ndarray, count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """`unit_sum_halfspaces` of each of `count` members at once; row i of
    `normals` and `offsets` belongs to member[i]."""
    s = normals.sum(axis=1)
    keep = s > 1e-9
    member, s = member[keep], s[keep]
    a = normals[keep] / s[:, None]
    b = offsets[keep] / s
    a[np.abs(a) < 1e-12] = 0.0
    s = a.sum(axis=1)
    rows = np.column_stack([a / s[:, None], b / s])
    fresh = ~_repeats(member, rows)
    member, rows = member[fresh], rows[fresh]
    order = np.lexsort((*np.round(rows, 9).T[::-1], member))
    parts = np.split(rows[order], np.cumsum(np.bincount(member, minlength=count))[:-1])
    return [(r[:, :-1], r[:, -1]) for r in parts]


def unit_sum_halfspaces(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct halfspaces (a, b) with unit normal sum, sorted; normal components
    below 1e-12 become zero, and a normal summing to about zero (a cone's t >= 0)
    drops out.  Of halfspaces equal to 9 decimals the first one is kept."""
    return _unit_sum_halfspaces(np.zeros(len(normals), dtype=int), normals, offsets, 1)[0]


def _lower_halfspaces(points: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per member of a stack (B, n, K) of generator sets: the irredundant facets
    a·y <= b of co(points) - R^K_+ via the polar cone, and the sorted vertices,
    the points whose rows (1, p) are facets of the polar cone.  The polar
    cones run as one stacked double description."""
    count, n, k = points.shape
    # the rows (0, -e_k) and (1, p_0) lead: their block inverts without rounding
    rows = np.concatenate([
        np.broadcast_to(np.hstack([np.zeros((k, 1)), -np.eye(k)]), (count, k, k + 1)),
        np.concatenate([np.ones((count, n, 1)), points], axis=2),
    ], axis=1)
    dd = ConeDD(rows[:, : k + 1])
    for j in range(k + 1, k + n):
        dd.add(rows[:, j])
    member, r = np.nonzero(dd.valid)
    rays = dd.rays[member, r]
    halfspaces = _unit_sum_halfspaces(member, -rays[:, 1:], rays[:, 0], count)
    # the rank test of a member depends on its ray count, so it runs once per count
    facets = np.zeros(rows.shape[:2], dtype=bool)
    sizes = dd.valid.sum(axis=1)
    for size in set(sizes.tolist()):
        same = np.flatnonzero(sizes == size)
        facets[same] = _facet_mask(dd.rays[same, :size], rows[same])
    out = []
    for (normals, offsets), row, facet in zip(halfspaces, rows, facets):
        verts = row[k:][facet[k:], 1:]
        out.append((normals, offsets, verts[_lex_order(verts)]))
    return out


def _dedupe_points(points: np.ndarray) -> list[np.ndarray]:
    """Per member of a stack (B, n, K): its points in order, less each point
    within VERTEX_MERGE_TOL (infinity norm) of a point kept before it."""
    near = np.abs(points[:, :, None, :] - points[:, None, :, :]).max(axis=3) <= VERTEX_MERGE_TOL
    kept = np.zeros(points.shape[:2], dtype=bool)
    for i in range(points.shape[1]):
        kept[:, i] = ~np.any(near[:, i, :i] & kept[:, :i], axis=1)
    return [p[keep] for p, keep in zip(points, kept)]


def build_lower_set(points) -> OrientedPayoffPolyhedron | tuple[OrientedPayoffPolyhedron, ...]:
    """co(points) - R^K_+ with irredundant halfspaces and its vertex list.

    `points` (n, K) gives one polyhedron; a stack (B, n, K) gives a tuple of
    B, built in one stacked double description per count of distinct
    generators.  Member b is bit for bit `build_lower_set(points[b])`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise InputError("need at least one generator point")
    if pts.ndim not in (2, 3):
        raise InputError("points must be a list of equal-length vectors")
    if not np.isfinite(pts).all():
        raise InputError("generator points must be finite")
    gens = _dedupe_points(pts if pts.ndim == 3 else pts[None])
    by_count: dict[int, list[int]] = {}
    for b, g in enumerate(gens):
        by_count.setdefault(len(g), []).append(b)
    sets: list[OrientedPayoffPolyhedron | None] = [None] * len(gens)
    for members in by_count.values():
        halfspaces = _lower_halfspaces(np.stack([gens[b] for b in members]))
        for b, (normals, offsets, verts) in zip(members, halfspaces):
            sets[b] = OrientedPayoffPolyhedron(LOWER, gens[b], normals, offsets, verts)
    return tuple(sets) if pts.ndim == 3 else sets[0]


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


def active_normal_sums(normals: np.ndarray, offsets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point: the sum of the normals of the halfspaces a·y vs b active
    there, |a·y - b| <= ACTIVE_TOL; zero where none is.  (F, K) `normals`,
    (F,) `offsets` and (N, K) `points` give (N, K); stacks of them,
    (B, F, K), (B, F) and (B, N, K), give (B, N, K).

    A point of a lower set is Pareto-maximal, and one of an upper set
    Pareto-minimal, exactly when this sum is strictly positive.  Each sum
    adds the active normals one at a time, in halfspace order.
    """
    active = np.abs(points @ np.swapaxes(normals, -1, -2) - offsets[..., None, :]) <= ACTIVE_TOL
    return np.where(active[..., None], normals[..., None, :, :], 0.0).sum(axis=-2)


def exposing_normals(
    normals: np.ndarray, offsets: np.ndarray, vertices: np.ndarray, generators: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex v of each lower set of a stack: a strictly positive normal c
    with unit sum whose halfspace touches the set only at v, and its offset
    c·v.  The normal is the renormalized sum of the facet normals active at v.

    The sets come as arrays (B, F, K) `normals`, (B, F) `offsets`, (B, V, K)
    `vertices` and (B, G, K) `generators`, and the result as (B, V, K)
    normals and (B, V) offsets.  A generator listed twice is tested twice.
    A vertex with no active facet, a normal with a zero component, or a
    generator other than v on v's hyperplane is a numerical fault, reported
    at the first set of the stack that has it.
    """
    sums = active_normal_sums(normals, offsets, vertices)
    totals = sums.sum(axis=2, keepdims=True)
    if np.any(totals == 0.0):
        b, i = np.argwhere(totals[:, :, 0] == 0.0)[0]
        raise NumericalError(f"no active facet at the claimed vertex {tuple(vertices[b, i])}")
    exp_normals = sums / totals
    exp_offsets = (exp_normals[:, :, None, :] @ vertices[:, :, :, None])[:, :, 0, 0]
    bad = np.argwhere(np.any(exp_normals <= 1e-12, axis=2))
    if bad.size:
        b, i = bad[0]
        raise NumericalError(
            f"exposing normal has a zero component at vertex {tuple(vertices[b, i])}: "
            f"{tuple(exp_normals[b, i])}"
        )
    # values[b, g, v]: generator g against the normal of vertex v; a
    # generator within VERTEX_MERGE_TOL of v is v itself and is not tested
    values = generators @ exp_normals.transpose(0, 2, 1)
    margin = 1e-12 * (1.0 + np.abs(exp_offsets))
    exposed = values < (exp_offsets - margin)[:, None, :]
    same = np.abs(generators[:, :, None, :] - vertices[:, None, :, :]).max(axis=3)
    failed = np.argwhere(~exposed & (same > VERTEX_MERGE_TOL))
    if failed.size:
        b, g, i = failed[0]
        raise NumericalError(
            f"exposure failed at vertex {tuple(vertices[b, i])}: generator "
            f"{tuple(generators[b, g])} sits on the supporting hyperplane "
            f"(value {values[b, g, i]}, offset {exp_offsets[b, i]})"
        )
    return exp_normals, exp_offsets


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
