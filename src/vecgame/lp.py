"""Dense simplex solver for small linear programs that start at their
slack basis.

Everything here is deliberately dense and explicit: the problems produced by
the rest of the package have tens of variables at most.  Every LP is
`min/max c·x  subject to  lhs x <= rhs` with rhs >= 0 and each variable
either >= 0 or free, so x = 0 with every slack basic is a feasible basis
and the simplex starts there, with no artificial variable and no phase 1.
Each caller shifts its LP to a known feasible point to get that form.
The tableau is condensed (Tucker's layout): it stores the rhs and only the
nonbasic columns, since a basic column is a unit column that no pivot needs
to read, and labels each row with its basic variable and each column with
its nonbasic one.  A pivot swaps the two labels and reduces every row over
the kept columns, by the floating-point operations the full tableau would
make on them, so it gives the full tableau's outcome bit for bit at a
fraction of the cost: most improvement-LP columns are slacks.  The solver
reports three statuses: "optimal", "unbounded" and "iteration_limit".
The ratio test leaves by the smallest basis index among its ties, and a
row ties only when the step leaves it feasible (`TIE_AFTER`).

A `LinearProgram` is one LP, or a stack of B LPs that share their
objective, bounds and sense and differ in `lhs` (B, m, n) and `rhs`
(B, m).  `solve_lp` solves one LP and `solve_batch` a stack, with one
outcome per LP that is bit for bit what `solve_lp` gives it alone.
`solve_batch` pivots a (B, rows + 1, slots + 1) stack of tableaux, and
`solve_lp` calls it on a stack of one, so both share the set-up and the
read-off.  Only the pivot loop exists twice: a stack of one runs the
scalar loop, and a larger stack pivots in lockstep by Dantzig's rule,
each step doing the floating-point operations of the scalar loop (the
layout of Gurung & Ray, "Simultaneous solving of batched linear programs
on a GPU", ICPE 2019).  A tableau whose basis repeats leaves the
lockstep and finishes under the scalar loop's Bland rule.  The scalar
loop stays because lockstep costs about 2.2x as much on a stack of one.

Three callers build stacks.  `equilibria` solves its strong-equilibrium
LPs in slices of `equilibria.STRONG_SLICE` = 512 Shapley pairs, as one
stack per pair of facet counts of a slice: thousands of LPs with 5 or 6
rows, whose cost in `solve_lp` was mostly per call.  `solver` builds the
improvement LPs of a block of grid points and solves them as one stack
per constraint shape.  `poss.verify_gap` solves one margin LP per optimal
strategy; a player's LPs share one shape, so they go in stacks of at most
`solver.GRID_BLOCK`, and a strategy they do not clear gets a stack of one
margin LP per payoff component.  Benson's verification and support LPs
stay on `solve_lp`, because the loop needs each answer before it builds
the next LP.  No command calls `check_feasibility`: it serves the
public API.  The improvement LPs start at the tested strategy,
the strong LPs at the pair's payoff, and Benson's and the margin LPs at
a pure strategy (`poss._mixed_strategy_lps`).

An optimal outcome also carries the duals of its rows, read off the
final cost row in the pass that reads the solution.  Benson's loop takes
each cut from the duals of the verification LP that failed, so the cut
needs no LP of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

# `check_feasibility` calls a system feasible when its least uniform
# violation stays within this, relative to the largest |rhs|; a gap
# certificate's margin must exceed it on the same scale (`poss.verify_gap`).
TOL_FEAS = 1e-9
# A rhs that rounding left in [-TOL_RHS, 0) is read as 0 (`clip_rhs`).
TOL_RHS = 1e-7
# A column enters the basis when its reduced cost is below -TOL_OPT.
TOL_OPT = 1e-8
# A row is a pivot candidate when its entry in the entering column exceeds
# TOL_PIVOT times the column's largest entry, or TOL_PIVOT where that is below
# 1: a degenerate row with an entry of 1e-9, in a column reaching 400, must
# not win the ratio test, because pivoting on it wrecks the tableau.
TOL_PIVOT = 1e-9
# The leaving row is the smallest basis index among the ratio ties: the
# rows with the least ratio, and the rows within 1e-9 (1 + |least|) of it
# whose rhs the step leaves at most TIE_AFTER, rhs - least·entry <=
# TIE_AFTER.  Without that second test a tie could win and leave a row of
# the least ratio negative by the ratio gap times its entry, which in
# rows reaching 6000 passes 1e-8 and stays in the tableau.
TIE_AFTER = 1e-11

Bound = tuple[float | None, float | None]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max objective @ x  subject to  lhs @ x <= rhs, bounds.

    `lhs` (m, n) and `rhs` (m,) give one LP; `lhs` (B, m, n) and `rhs`
    (B, m) give a stack of B >= 1 LPs that share the other fields, for
    `solve_batch`.  `bounds` gives per-variable (lower, upper): a lower
    bound is 0 or None (free), and omitted bounds make every variable
    >= 0.  Upper bounds are not supported: write them as constraint rows.
    The solver needs rhs >= 0 (see `_setup`); `check_feasibility` takes
    any rhs.
    """

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    sense: str = "min"
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self) -> None:
        try:
            obj = np.atleast_1d(np.array(self.objective, dtype=float))
            lhs = np.array(self.lhs, dtype=float)
            rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
            bounds = None if self.bounds is None else tuple(
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in self.bounds
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"LP coefficients and bounds must be numbers: {exc}") from exc
        if lhs.size == 0 and lhs.ndim < 3:
            lhs = np.zeros((rhs.size, obj.size))
        lhs = np.atleast_2d(lhs)
        if self.sense not in ("min", "max"):
            raise InputError(f"unknown sense {self.sense!r}")
        if lhs.ndim > 3 or lhs.shape[-1] != obj.size:
            raise InputError(
                f"lhs shape {lhs.shape} is not constraints x {obj.size} variables, "
                "alone or stacked"
            )
        if rhs.shape != lhs.shape[:-1]:
            raise InputError(f"rhs shape {rhs.shape} does not match lhs shape {lhs.shape}")
        if lhs.ndim == 3 and not len(lhs):
            raise InputError("a stack of LPs needs at least one LP")
        if not (np.isfinite(obj).all() and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise InputError("LP coefficients must be finite")
        if bounds is None:
            bounds = ((0.0, None),) * obj.size
        elif len(bounds) != obj.size:
            raise InputError("bounds length does not match variable count")
        elif any(lo not in (0.0, None) or hi is not None for lo, hi in bounds):
            raise InputError("each bound must be (0, None) or (None, None)")
        for arr in (obj, lhs, rhs):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "bounds", bounds)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.lhs.shape[-2]


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """How an LP ended; value, solution and duals are None unless optimal.

    `duals` holds one shadow price per constraint row, d value / d rhs_r in
    the LP's own sense: <= 0 in a `min` LP and >= 0 in a `max` LP.  They
    are read off the final tableau (see `_read_off`).
    """

    status: str  # optimal | unbounded | iteration_limit
    objective_value: float | None
    solution: np.ndarray | None
    iterations: int
    duals: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None


def clip_rhs(rhs: np.ndarray, fault: str) -> np.ndarray:
    """`rhs` with its entries in [-TOL_RHS, 0) set to 0, for an LP shifted to
    a point that is feasible up to rounding; an entry below -TOL_RHS means
    the point is not feasible, a `NumericalError` with the message `fault`."""
    if rhs.min(initial=0.0) < -TOL_RHS:
        raise NumericalError(fault)
    return np.where(rhs < 0.0, 0.0, rhs)


def _pivot(T: np.ndarray, labels: list[int], row: int, slot: int) -> None:
    """Pivot a condensed tableau on (row, slot): the slot's variable enters
    the basis in `row`, and the row's variable leaves into the slot.

    The leaving variable's new column is computed as the full tableau
    computes its unit column, 1/p in the pivot row and 0 - f_i (1/p)
    elsewhere; every other column sees the same operations as there."""
    m = len(T) - 1
    p = T[row, slot]
    factor = T[:, slot].copy()
    factor[row] = 0.0
    T[row] /= p
    T[:, slot] = 0.0
    T[row, slot] = 1.0 / p
    T -= factor[:, None] * T[row]
    labels[row], labels[m + slot] = labels[m + slot], labels[row]


def _run_simplex(
    T: np.ndarray, labels: list[int], budget: int, bland: bool = False
) -> tuple[str, int]:
    """Iterate to optimality by Dantzig's rule.  A basis seen before means the
    pivots are cycling, so from then on Bland's rule picks the entering column.

    Ties go to the lowest variable index, for the entering column as for the
    leaving row, whatever slot the variable sits in."""
    m, width = len(T) - 1, T.shape[1] - 1
    iters = 0
    seen = {tuple(labels[:m])}
    while iters < budget:
        red = T[-1, :width]
        if bland:
            slots = np.flatnonzero(red < -TOL_OPT).tolist()
            if not slots:
                return "optimal", iters
            enter = min(slots, key=lambda s: labels[m + s])
        else:
            enter = int(red.argmin())
            if red[enter] >= -TOL_OPT:
                return "optimal", iters
            values = red.tolist()
            low = values[enter]
            if values.count(low) > 1:
                slots = [s for s, v in enumerate(values) if v == low]
                enter = min(slots, key=lambda s: labels[m + s])
        colvals = T[:-1, enter]
        rows = (colvals > TOL_PIVOT * float(colvals.max(initial=1.0))).nonzero()[0]
        if rows.size == 0:
            return "unbounded", iters
        b, a = T[rows, -1], colvals[rows]
        ratios = b / a
        rmin = float(ratios.min())
        window = (ratios <= rmin + 1e-9 * (1.0 + abs(rmin))) & (b - rmin * a <= TIE_AFTER)
        ties = rows[window | (ratios == rmin)].tolist()
        # among ratio ties pick the smallest basis index (anti-cycling bias)
        leave = min(ties, key=labels.__getitem__)
        _pivot(T, labels, leave, enter)
        rhs = T[:-1, -1]
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        iters += 1
        if not bland:
            key = tuple(labels[:m])
            bland = key in seen
            seen.add(key)
    return "iteration_limit", iters


def _pivot_stack(T: np.ndarray, labels: np.ndarray, rows: np.ndarray, slots: np.ndarray) -> None:
    """`_pivot` on every tableau of the stack, tableau t at (rows[t], slots[t])."""
    at = np.arange(len(T))
    m = T.shape[1] - 1
    p = T[at, rows, slots]
    factor = T[at, :, slots]
    factor[at, rows] = 0.0
    prow = T[at, rows] / p[:, None]
    prow[at, slots] = 1.0 / p
    T[at, :, slots] = 0.0
    T[at, rows] = prow
    T -= factor[:, :, None] * prow[:, None, :]
    labels[at, rows], labels[at, m + slots] = labels[at, m + slots], labels[at, rows]


_STATUSES = ("optimal", "unbounded", "iteration_limit")


def _basis_keys(labels: np.ndarray, m: int) -> list[bytes]:
    """The basis of each tableau of the stack, `labels[:, :m]`, as bytes."""
    return np.ascontiguousarray(labels[:, :m]).view(f"V{m * labels.itemsize}").ravel().tolist()


def _run_lockstep(
    T: np.ndarray, labels: np.ndarray, budget: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Dantzig's rule on every tableau of the stack at once.

    Each step makes, on every tableau still running, the pivot that
    `_run_simplex` would make next, by the same floating-point operations.
    A tableau whose basis repeats leaves the stack and finishes under
    `_run_simplex`'s Bland rule.  The running tableaux are copied out of
    `T` once one of them finishes, and each is written back when it does.
    Each running tableau keeps the set of its bases so far, as bytes, so
    a step's repeat test does not grow with the steps taken.
    """
    m, width = T.shape[1] - 1, T.shape[2] - 1
    past = np.iinfo(labels.dtype).max  # ranks after every variable
    status = [""] * len(T)
    iters = np.zeros(len(T), dtype=int)
    live, Tw, lw = np.arange(len(T)), T, labels
    seen = [{key} for key in _basis_keys(labels, m)]

    def finish(done: np.ndarray) -> None:
        nonlocal live, Tw, lw, seen
        if Tw is not T:
            T[live[done]] = Tw[done]
            labels[live[done]] = lw[done]
        keep = ~done
        live, Tw, lw = live[keep], Tw[keep], lw[keep]
        seen = [bases for bases, kept in zip(seen, keep.tolist()) if kept]

    while live.size:
        red = Tw[:, -1, :width]
        low = red.min(axis=1)
        # among the lowest reduced costs pick the smallest variable index
        enter = np.where(red == low[:, None], lw[:, m:], past).argmin(axis=1)
        at = np.arange(live.size)
        col = Tw[at, :m, enter]
        pos = col > TOL_PIVOT * col.max(axis=1, initial=1.0)[:, None]
        # _run_simplex's tests in its order: the budget, optimality, a pivot row
        limit = iters[live] >= budget[live]
        optimal = low >= -TOL_OPT
        bounded = pos.any(axis=1)
        done = limit | optimal | ~bounded
        if done.any():
            code = np.where(limit, 2, np.where(optimal, 0, 1))
            for b, c in zip(live[done].tolist(), code[done].tolist()):
                status[b] = _STATUSES[c]
            enter, col, pos = enter[~done], col[~done], pos[~done]
            finish(done)
            if not live.size:
                break
        rhs = Tw[:, :m, -1]
        ratios = np.divide(rhs, col, out=np.full(col.shape, np.inf), where=pos)
        rmin = ratios.min(axis=1)
        ties = pos & (ratios <= (rmin + 1e-9 * (1.0 + np.abs(rmin)))[:, None])
        ties &= rhs - rmin[:, None] * col <= TIE_AFTER
        ties |= ratios == rmin[:, None]
        # among ratio ties pick the smallest basis index, as _run_simplex does
        leave = np.where(ties, lw[:, :m], past).argmin(axis=1)
        _pivot_stack(Tw, lw, leave, enter)
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        iters[live] += 1
        keys = _basis_keys(lw, m)
        repeated = np.array([key in bases for bases, key in zip(seen, keys)])
        for bases, key in zip(seen, keys):
            bases.add(key)
        if repeated.any():
            for j in np.flatnonzero(repeated).tolist():
                b = live[j]
                row_labels = lw[j].tolist()
                status[b], it = _run_simplex(
                    Tw[j], row_labels, int(budget[b] - iters[b]), bland=True
                )
                lw[j] = row_labels
                iters[b] += it
            finish(repeated)
    return status, iters


def _run(T: np.ndarray, labels: np.ndarray, budget: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Run a stack of tableaux in place; returns each one's status and pivot
    count.  A stack of one runs `_run_simplex`, on which lockstep would
    spend about 2.2x the time."""
    if len(T) > 1:
        return _run_lockstep(T, labels, budget)
    row_labels = labels[0].tolist()
    status, iters = _run_simplex(T[0], row_labels, int(budget[0]))
    labels[0] = row_labels
    return [status], np.array([iters])


@dataclass
class _Tableaux:
    """The LPs of a stack as condensed (Tucker) tableaux at the slack basis.

    A variable of the full tableau is one of its columns: the structural
    columns, one per variable >= 0 and two (+x, -x) per free variable, then
    one slack per row.  A condensed tableau keeps the rhs and only the
    nonbasic columns, each in a slot: `labels[b, :m]` names the basic
    variable of each row and `labels[b, m:]` the variable in each slot.
    Every tableau has at least one slot; an LP without variables gets a
    zero column labelled `nfull`, past every variable.
    """

    T: np.ndarray  # (B, m + 1, slots + 1): the rows, then the cost row
    labels: np.ndarray  # (B, m + slots): the basic variable of each row, then of each slot
    budget: np.ndarray  # (B,): each LP's pivot budget
    nfull: int  # structural and slack columns
    # Variable j is x[plus[j]] - x[minus[j]] over the column values x
    # followed by one slot holding -0.0: minus[j] names a free variable's
    # second column, or that slot, so a variable >= 0 reads x + 0.0.
    plus: np.ndarray
    minus: np.ndarray
    # Row r's dual is the final reduced cost of its slack times dual_sign.
    dual_sign: float


def _setup(lp: LinearProgram, max_iter: int | None) -> _Tableaux:
    """The tableaux of the stack `lp` at x = 0, every slack basic, and their
    costs (minimizing) in the cost row; a negative rhs is an input error,
    since that basis would not be feasible."""
    m = lp.num_constraints
    lhs, rhs = (lp.lhs, lp.rhs) if lp.lhs.ndim == 3 else (lp.lhs[None], lp.rhs[None])
    if (rhs < 0.0).any():
        raise InputError("an LP needs rhs >= 0, so that its slack basis is feasible")
    c0 = -lp.objective if lp.sense == "max" else lp.objective
    # Structural column -> source variable and the sign it carries.
    src: list[int] = []
    sign: list[float] = []
    plus: list[int] = []
    minus: list[int] = []
    for j, (lo, _) in enumerate(lp.bounds):
        plus.append(len(src))
        src.append(j)
        sign.append(1.0)
        if lo is None:
            minus.append(len(src))
            src.append(j)
            sign.append(-1.0)
        else:
            minus.append(-1)
    n_core = len(src)
    src_arr, sign_arr = np.array(src, dtype=int), np.array(sign)
    nfull = n_core + m
    budget = np.full(len(lhs), 1000 + 50 * (m + nfull) if max_iter is None else max_iter)

    width = max(1, n_core)
    T = np.zeros((len(lhs), m + 1, width + 1))
    T[:, :m, :n_core] = lhs[:, :, src_arr] * sign_arr
    T[:, :m, -1] = rhs
    T[:, -1, :n_core] = c0[src_arr] * sign_arr
    labels = np.full((len(lhs), m + width), nfull)
    labels[:, :m] = np.arange(n_core, nfull)
    labels[:, m : m + n_core] = np.arange(n_core)
    minus_arr = np.array(minus, dtype=int)
    minus_arr[minus_arr < 0] = nfull
    # the cost row is a `min` LP's, so a `min` LP's duals are its reduced costs negated
    return _Tableaux(T, labels, budget, nfull, np.array(plus), minus_arr,
                     1.0 if lp.sense == "max" else -1.0)


def _read_off(
    tab: _Tableaux, T: np.ndarray, labels: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The solutions and duals (see `_Tableaux.dual_sign`) of LPs whose
    tableaux ended optimal.  A basic variable's value is its row's rhs,
    and its reduced cost is zero."""
    m = T.shape[1] - 1
    at = np.arange(len(T))[:, None]
    x = np.zeros((len(T), tab.nfull + 1))
    x[:, tab.nfull] = -0.0
    x[at, labels[:, :m]] = T[:, :-1, -1]
    reduced = np.zeros((len(T), tab.nfull + 1))
    reduced[at, labels[:, m:]] = T[:, -1, :-1]
    duals = reduced[:, tab.nfull - m : tab.nfull] * tab.dual_sign
    # Each solution gets its own buffer: a dot product's rounding can
    # depend on where its operands start in memory.
    return [(row.copy(), y.copy()) for row, y in zip(x[:, tab.plus] - x[:, tab.minus], duals)]


def solve_batch(lp: LinearProgram, *, max_iter: int | None = None) -> list[LPOutcome]:
    """One outcome per LP of the stack `lp`, in stack order, each bit for
    bit what `solve_lp` gives that LP alone; a single LP is a stack of one.

    The tableaux pivot in `_run`: a stack of more than one LP in lockstep
    (`_run_lockstep`).  An error in any LP raises out of the whole stack.
    """
    tab = _setup(lp, max_iter)
    T, labels = tab.T, tab.labels
    status, iters = _run(T, labels, tab.budget)
    iters = iters.tolist()
    outcomes = [LPOutcome(st, None, None, it) for st, it in zip(status, iters)]
    ok = [b for b, st in enumerate(status) if st == "optimal"]
    if len(ok) < len(T):
        T, labels = T[ok], labels[ok]
    for b, (x, duals) in zip(ok, _read_off(tab, T, labels)):
        outcomes[b] = LPOutcome("optimal", float(lp.objective @ x), x, iters[b], duals)
    return outcomes


def solve_lp(lp: LinearProgram, *, max_iter: int | None = None) -> LPOutcome:
    """Solve the LP by dense simplex from its slack basis (see `_Tableaux`
    for the columns).  A stack of LPs is an input error: it goes to
    `solve_batch`."""
    if lp.lhs.ndim == 3:
        raise InputError("solve_lp takes one LP; solve a stack with solve_batch")
    return solve_batch(lp, max_iter=max_iter)[0]


def check_feasibility(lp: LinearProgram, *, max_iter: int | None = None) -> FeasibilityResult:
    """Whether the system `lhs x <= rhs`, with the LP's bounds, has a
    solution; the objective is ignored, and the rhs may have any sign.

    One level LP decides it: minimize z >= 0 subject to lhs x - z <= rhs.
    It starts at x = 0 and z0 = max(0, -min rhs), where every row holds,
    and runs in the free shift w = z - z0, with the row -w <= z0 for
    z >= 0, so that every rhs is >= 0.  The system counts as feasible
    when the least z stays within TOL_FEAS (1 + max |rhs|).
    """
    if lp.lhs.ndim == 3:
        raise InputError("check_feasibility takes one LP")
    m, n = lp.lhs.shape
    z0 = max(0.0, -float(lp.rhs.min(initial=0.0)))
    lhs = np.zeros((m + 1, n + 1))
    lhs[:m, :n] = lp.lhs
    lhs[:, n] = -1.0
    level = LinearProgram(
        objective=np.append(np.zeros(n), 1.0),
        lhs=lhs,
        rhs=np.append(lp.rhs + z0, z0),
        bounds=lp.bounds + ((None, None),),
    )
    out = solve_lp(level, max_iter=max_iter)
    if out.status != "optimal":
        raise NumericalError(f"feasibility probe ended with status {out.status!r}")
    if z0 + out.objective_value <= TOL_FEAS * (1.0 + float(np.abs(lp.rhs).max(initial=0.0))):
        return FeasibilityResult(True, out.solution[:n])
    return FeasibilityResult(False, None)
