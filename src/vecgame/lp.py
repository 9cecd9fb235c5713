"""Dense two-phase simplex solver for small linear programs.

Everything here is deliberately dense and explicit: the problems produced by
the rest of the package have tens of variables at most, so a tableau with
full row reduction per pivot is both fast enough and easy to audit.  The
solver reports four statuses: "optimal", "infeasible", "unbounded" and
"iteration_limit"; an exhausted pivot budget is never misreported as
infeasibility.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

RELATIONS = ("<=", ">=", "=")

Bound = tuple[float | None, float | None]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max objective @ x  subject to  lhs @ x (relations) rhs, bounds.

    `bounds` gives per-variable (lower, upper) with None for unbounded;
    omitted bounds default to x >= 0 for every variable.  Upper bounds
    are not supported: write them as constraint rows.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    sense: str = "min"
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self) -> None:
        obj = np.atleast_1d(np.array(self.objective, dtype=float))
        rel = tuple(self.relations)
        lhs = np.array(self.lhs, dtype=float)
        if lhs.size == 0:
            lhs = np.zeros((len(rel), obj.size))
        lhs = np.atleast_2d(lhs)
        rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
        if self.sense not in ("min", "max"):
            raise InputError(f"unknown sense {self.sense!r}")
        for r in rel:
            if r not in RELATIONS:
                raise InputError(f"unknown relation {r!r}")
        if lhs.shape != (len(rel), obj.size):
            raise InputError(
                f"lhs shape {lhs.shape} does not match "
                f"{len(rel)} constraints x {obj.size} variables"
            )
        if rhs.shape != (len(rel),):
            raise InputError("rhs length does not match constraint count")
        if not (np.isfinite(obj).all() and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise InputError("LP coefficients must be finite")
        if self.bounds is None:
            bounds: tuple[Bound, ...] = (((0.0, None),) * obj.size)
        else:
            bounds = tuple(
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in self.bounds
            )
            if len(bounds) != obj.size:
                raise InputError("bounds length does not match variable count")
            if any(hi is not None for _, hi in bounds):
                raise InputError("upper bounds are not supported; write them as constraints")
        for arr in (obj, lhs, rhs):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "bounds", bounds)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.rhs.size


@dataclass(frozen=True, eq=False)
class LPOutcome:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective_value: float | None
    solution: np.ndarray | None
    iterations: int


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(
    T: np.ndarray, basis: list[int], tol_opt: float, budget: int
) -> tuple[str, int]:
    """Iterate to optimality by Dantzig's rule.  A basis seen before means the
    pivots are cycling, so from then on Bland's rule picks the entering column."""
    ncols = T.shape[1] - 1
    iters = 0
    bland = False
    seen = {tuple(basis)}
    while iters < budget:
        red = T[-1, :ncols]
        if bland:
            enter = -1
            for c in range(ncols):
                if red[c] < -tol_opt:
                    enter = c
                    break
            if enter == -1:
                return "optimal", iters
        else:
            enter = int(np.argmin(red))
            if red[enter] >= -tol_opt:
                return "optimal", iters
        colvals = T[:-1, enter]
        rows = np.nonzero(colvals > 1e-9)[0]
        if rows.size == 0:
            return "unbounded", iters
        ratios = T[rows, -1] / colvals[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        # among ratio ties pick the smallest basis index (anti-cycling bias)
        leave = int(ties[int(np.argmin([basis[i] for i in ties]))])
        _pivot(T, basis, leave, enter)
        rhs = T[:-1, -1]
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        iters += 1
        if not bland:
            key = tuple(basis)
            bland = key in seen
            seen.add(key)
    return "iteration_limit", iters


def solve_lp(
    lp: LinearProgram,
    *,
    tol_feas: float = 1e-9,
    tol_opt: float = 1e-8,
    max_iter: int | None = None,
) -> LPOutcome:
    """Solve the LP by two-phase dense simplex."""
    c0 = lp.objective if lp.sense == "min" else -lp.objective
    rhs = lp.rhs.copy()
    rels = list(lp.relations)

    # Substitute bounds away: x >= 0 columns only after this block.
    cols: list[np.ndarray] = []
    cobj: list[float] = []
    transforms: list[tuple] = []
    for j in range(lp.num_vars):
        lo = lp.bounds[j][0]
        col = lp.lhs[:, j]
        if lo is not None:
            rhs = rhs - col * lo
            cols.append(col.copy())
            cobj.append(float(c0[j]))
            transforms.append(("shift", len(cols) - 1, lo))
        else:
            cols.append(col.copy())
            cobj.append(float(c0[j]))
            cols.append(-col)
            cobj.append(float(-c0[j]))
            transforms.append(("split", len(cols) - 2, len(cols) - 1))

    n_core = len(cols)
    m = lp.num_constraints
    mat = np.column_stack(cols) if n_core and m else np.zeros((m, n_core))

    slack_sign = {}
    slack_cols: list[np.ndarray] = []
    for i, r in enumerate(rels):
        if r == "=":
            continue
        s = np.zeros(m)
        sign = 1.0 if r == "<=" else -1.0
        s[i] = sign
        slack_sign[i] = (n_core + len(slack_cols), sign)
        slack_cols.append(s)
    full = np.column_stack([mat] + slack_cols) if slack_cols else mat.copy()
    nfull = full.shape[1]

    flipped = rhs < 0
    full[flipped] *= -1.0
    rhs = np.abs(rhs)

    basis = [-1] * m
    for i, (cidx, sign) in slack_sign.items():
        effective = sign * (-1.0 if flipped[i] else 1.0)
        if effective > 0:
            basis[i] = cidx

    art_cols: list[np.ndarray] = []
    for i in range(m):
        if basis[i] == -1:
            a = np.zeros(m)
            a[i] = 1.0
            basis[i] = nfull + len(art_cols)
            art_cols.append(a)
    nart = len(art_cols)

    if max_iter is None:
        max_iter = 1000 + 50 * (m + nfull + nart)

    T = np.zeros((m + 1, nfull + nart + 1))
    if m:
        T[:m, :nfull] = full
        for k, a in enumerate(art_cols):
            T[:m, nfull + k] = a
        T[:m, -1] = rhs

    iters_used = 0
    if nart:
        T[-1, nfull : nfull + nart] = 1.0
        for i in range(m):
            if basis[i] >= nfull:
                T[-1] -= T[i]
        status, it1 = _run_simplex(T, basis, tol_opt, max_iter)
        iters_used += it1
        if status == "iteration_limit":
            return LPOutcome("iteration_limit", None, None, iters_used)
        if status == "unbounded":
            raise NumericalError("phase-1 simplex reported unbounded")
        phase1_value = -T[-1, -1]
        if phase1_value > tol_feas * (1.0 + float(np.abs(rhs).max(initial=0.0))):
            return LPOutcome("infeasible", None, None, iters_used)
        # Pivot leftover artificials out; rows that cannot pivot are redundant.
        basic_set = set(basis)
        for i in range(m):
            if basis[i] >= nfull:
                row = T[i, :nfull]
                for c in np.nonzero(np.abs(row) > 1e-9)[0]:
                    if int(c) not in basic_set:
                        basic_set.discard(basis[i])
                        _pivot(T, basis, i, int(c))
                        basic_set.add(int(c))
                        break

    keep = [i for i in range(m) if basis[i] < nfull]
    T2 = np.zeros((len(keep) + 1, nfull + 1))
    for new_i, i in enumerate(keep):
        T2[new_i, :nfull] = T[i, :nfull]
        T2[new_i, -1] = T[i, -1]
    basis2 = [basis[i] for i in keep]
    cvec = np.concatenate([np.array(cobj), np.zeros(nfull - n_core)])
    T2[-1, :nfull] = cvec
    for i, col in enumerate(basis2):
        coef = cvec[col]
        if coef != 0.0:
            T2[-1] -= coef * T2[i]

    status, it2 = _run_simplex(T2, basis2, tol_opt, max_iter - iters_used)
    iters_used += it2
    if status != "optimal":
        return LPOutcome(status, None, None, iters_used)

    xprime = np.zeros(nfull)
    for i, col in enumerate(basis2):
        xprime[col] = T2[i, -1]
    x = np.zeros(lp.num_vars)
    for j, tr in enumerate(transforms):
        kind = tr[0]
        if kind == "shift":
            x[j] = xprime[tr[1]] + tr[2]
        else:
            x[j] = xprime[tr[1]] - xprime[tr[2]]
    value = float(lp.objective @ x)
    return LPOutcome("optimal", value, x, iters_used)


def check_feasibility(
    lp: LinearProgram, *, tol_feas: float = 1e-9, max_iter: int | None = None
) -> FeasibilityResult:
    """Phase-one feasibility of the constraint system; objective is ignored."""
    probe = dataclasses.replace(lp, objective=np.zeros(lp.num_vars), sense="min")
    out = solve_lp(probe, tol_feas=tol_feas, max_iter=max_iter)
    if out.status == "optimal":
        return FeasibilityResult(True, out.solution)
    if out.status == "infeasible":
        return FeasibilityResult(False, None)
    raise NumericalError(f"feasibility probe ended with status {out.status!r}")
