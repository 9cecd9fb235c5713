"""Exact double description in rational arithmetic, a reference for the package's.

Everything here runs in `fractions.Fraction` and shares no code with the
package.  Like the package's double description it starts from the
simplicial cone of a square nonsingular block of rows, whose extreme rays
are the columns of the block's inverse, and adds one row at a time with
the combinatorial adjacency test.  Zero tests are exact, so the result
does not depend on the order in which the rows arrive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Ray = tuple[Fraction, ...]


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _scaled(ray: Sequence[Fraction]) -> Ray:
    """The positive multiple of `ray` whose largest absolute entry is 1."""
    top = max(abs(x) for x in ray)
    return tuple(x / top for x in ray)


def _inverse_columns(block: list[list[Fraction]]) -> list[Ray]:
    """Columns of block^-1 by Gauss-Jordan elimination; raises on a singular block."""
    d = len(block)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(block)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("the starting block is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [tuple(aug[i][d + j] for i in range(d)) for j in range(d)]


def cone_extreme_rays(rows: Sequence[Sequence]) -> set[Ray]:
    """Extreme rays of {x : rows x >= 0}, each scaled to largest absolute entry 1.

    The first dim rows must be nonsingular.
    """
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    d = len(rows[0])
    if len(rows) < d:
        raise ValueError("need at least dim rows")
    rays = [_scaled(c) for c in _inverse_columns([list(r) for r in rows[:d]])]
    done = rows[:d]
    for a in rows[d:]:
        vals = [_dot(a, r) for r in rays]
        zeros = [frozenset(i for i, row in enumerate(done) if _dot(row, r) == 0) for r in rays]
        kept = [r for r, v in zip(rays, vals) if v >= 0]
        for p in (i for i, v in enumerate(vals) if v > 0):
            for n in (i for i, v in enumerate(vals) if v < 0):
                common = zeros[p] & zeros[n]
                if len(common) < d - 2:
                    continue
                if any(common <= zeros[o] for o in range(len(rays)) if o not in (p, n)):
                    continue
                kept.append(_scaled([vals[p] * y - vals[n] * x for x, y in zip(rays[p], rays[n])]))
        rays = kept
        done.append(a)
    return set(rays)


def lower_set_halfspaces(points: Sequence[Sequence[int]]) -> set[tuple[Fraction, ...]]:
    """Facets a·y <= b of conv(points) - R^K_+ as tuples (a..., b), a >= 0 of unit sum.

    They are read off the polar cone with rows (0, -e_k) for every k, then
    (1, p) for every point; the leading block is nonsingular.
    """
    k = len(points[0])
    rows = [(0,) + tuple(-int(i == j) for j in range(k)) for i in range(k)]
    rows += [(1,) + tuple(p) for p in points]
    out = set()
    for ray in cone_extreme_rays(rows):
        a = [-x for x in ray[1:]]
        s = sum(a)
        if s > 0:  # the ray (1, 0) is t >= 0, not a facet
            out.add(tuple(x / s for x in a) + (ray[0] / s,))
    return out
