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
# Phase one calls the LP infeasible when its value exceeds this, relative to the rhs.
TOL_FEAS = 1e-9
# A column enters the basis when its reduced cost is below -TOL_OPT.
TOL_OPT = 1e-8

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


def _run_simplex(T: np.ndarray, basis: list[int], budget: int) -> tuple[str, int]:
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
                if red[c] < -TOL_OPT:
                    enter = c
                    break
            if enter == -1:
                return "optimal", iters
        else:
            enter = int(np.argmin(red))
            if red[enter] >= -TOL_OPT:
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


def solve_lp(lp: LinearProgram, *, max_iter: int | None = None) -> LPOutcome:
    """Solve the LP by two-phase dense simplex.

    The tableau's columns are the structural columns, one per variable
    with a lower bound (shifted to zero) and two (+x, -x) per free
    variable, then one slack per inequality row, then one artificial per
    row that no slack can start in the basis.
    """
    m = lp.num_constraints
    c0 = lp.objective if lp.sense == "min" else -lp.objective
    # Structural column -> source variable and the sign it carries; a nonzero
    # lower bound is shifted into the rhs.
    src: list[int] = []
    sign: list[float] = []
    rhs = lp.rhs
    for j, (lo, _) in enumerate(lp.bounds):
        src.append(j)
        sign.append(1.0)
        if lo is None:
            src.append(j)
            sign.append(-1.0)
        elif lo != 0.0:
            rhs = rhs - lp.lhs[:, j] * lo
    n_core = len(src)
    flipped = rhs < 0
    rhs = np.abs(rhs)

    # Slack k enters row ineq[k] as +s ("<=") or -s (">=") and starts in the
    # basis unless the row was flipped against it; every other row starts
    # with an artificial.
    ineq = [i for i, r in enumerate(lp.relations) if r != "="]
    slack = [1.0 if lp.relations[i] == "<=" else -1.0 for i in ineq]
    nfull = n_core + len(ineq)
    basis = [-1] * m
    for k, (i, flip) in enumerate(zip(ineq, flipped[ineq].tolist())):
        if (slack[k] > 0) != flip:
            basis[i] = n_core + k
    art = [i for i in range(m) if basis[i] < 0]
    nart = len(art)
    for k, i in enumerate(art):
        basis[i] = nfull + k

    if max_iter is None:
        max_iter = 1000 + 50 * (m + nfull + nart)

    sign_arr = np.array(sign)
    T = np.zeros((m + 1, nfull + nart + 1))
    T[:m, :n_core] = lp.lhs[:, src] * sign_arr
    T[ineq, range(n_core, nfull)] = slack
    T[:m][flipped, :nfull] *= -1.0
    T[art, range(nfull, nfull + nart)] = 1.0
    T[:m, -1] = rhs

    iters_used = 0
    if nart:
        T[-1, nfull : nfull + nart] = 1.0
        for i in art:
            T[-1] -= T[i]
        status, it1 = _run_simplex(T, basis, max_iter)
        iters_used += it1
        if status == "iteration_limit":
            return LPOutcome("iteration_limit", None, None, iters_used)
        if status == "unbounded":
            raise NumericalError("phase-1 simplex reported unbounded")
        phase1_value = -T[-1, -1]
        if phase1_value > TOL_FEAS * (1.0 + float(rhs.max(initial=0.0))):
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
    T2[:-1, :nfull] = T[keep, :nfull]
    T2[:-1, -1] = T[keep, -1]
    basis2 = [basis[i] for i in keep]
    cvec = np.zeros(nfull)
    cvec[:n_core] = c0[src] * sign_arr
    T2[-1, :nfull] = cvec
    for i, col in enumerate(basis2):
        coef = cvec[col]
        if coef != 0.0:
            T2[-1] -= coef * T2[i]

    status, it2 = _run_simplex(T2, basis2, max_iter - iters_used)
    iters_used += it2
    if status != "optimal":
        return LPOutcome(status, None, None, iters_used)

    xprime = np.zeros(nfull)
    xprime[basis2] = T2[:-1, -1]
    x = xprime[:n_core][sign_arr > 0]
    free = np.array([lo is None for lo, _ in lp.bounds], dtype=bool)
    x[free] -= xprime[:n_core][sign_arr < 0]
    x[~free] += np.array([lo for lo, _ in lp.bounds if lo is not None])
    value = float(lp.objective @ x)
    return LPOutcome("optimal", value, x, iters_used)


def check_feasibility(lp: LinearProgram, *, max_iter: int | None = None) -> FeasibilityResult:
    """Phase-one feasibility of the constraint system; objective is ignored."""
    probe = dataclasses.replace(lp, objective=np.zeros(lp.num_vars), sense="min")
    out = solve_lp(probe, max_iter=max_iter)
    if out.status == "optimal":
        return FeasibilityResult(True, out.solution)
    if out.status == "infeasible":
        return FeasibilityResult(False, None)
    raise NumericalError(f"feasibility probe ended with status {out.status!r}")
