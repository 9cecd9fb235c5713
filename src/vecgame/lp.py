"""Dense two-phase simplex solver for small linear programs.

Everything here is deliberately dense and explicit: the problems produced by
the rest of the package have tens of variables at most.  The tableau is
condensed (Tucker's layout): it stores the rhs and only the nonbasic
columns, since a basic column is a unit column that no pivot needs to
read, and labels each row with its basic variable and each column with
its nonbasic one.  A pivot swaps the two labels and reduces every row over
the kept columns, by the floating-point operations the full tableau would
make on them, so it gives the full tableau's outcome bit for bit at a
fraction of the cost: most improvement-LP columns are slacks.  The solver
reports four statuses: "optimal", "infeasible", "unbounded" and
"iteration_limit"; an exhausted pivot budget is never misreported as
infeasibility.

A `LinearProgram` is one LP, or a stack of B LPs that share their
objective, relations, bounds and sense and differ in `lhs` (B, m, n) and
`rhs` (B, m).  `solve_lp` solves one LP and `solve_batch` a stack, with
one outcome per LP that is bit for bit what `solve_lp` gives it alone.
`solve_batch` runs the two phases on a (B, rows + 1, slots + 1) stack of
tableaux, and `solve_lp` calls it on a stack of one, so both share the
set-up, the change of phase and the read-off.  Only the pivot loop
exists twice: a stack of one runs the scalar loop, and a larger stack
pivots in lockstep by Dantzig's rule, each step doing the floating-point
operations of the scalar loop (the layout of Gurung & Ray, "Simultaneous
solving of batched linear programs on a GPU", ICPE 2019).
A tableau whose basis repeats leaves the lockstep and finishes under the
scalar loop's Bland rule.  The scalar loop stays because lockstep costs
about 2.2x as much on a stack of one.

Three callers build stacks.  `equilibria` solves its strong-equilibrium
LPs as one stack per pair of facet counts: thousands of LPs with 5 or 6
rows, whose cost in `solve_lp` was mostly per call.  `solver` builds the
improvement LPs of a block of grid points and solves them as one stack
per constraint shape.  Each of them starts at its tested strategy, where
every rhs is >= 0 and the slack basis is feasible, so a stack of them
has no artificial and skips phase 1.  `poss.verify_gap` solves one
separation LP per optimal strategy; a player's LPs share one shape, so
they go in stacks of at most `solver.GRID_BLOCK`.  Benson's verification
and support LPs stay on `solve_lp`, because the loop needs each answer
before it builds the next LP, and so do the gap check's few fallback
LPs, through `check_feasibility`.  Benson's LPs start feasible as well:
`poss._mixed_strategy_lp` starts each at its cheapest pure strategy and
shifts the rest of the mixture and the level there, so that every row is
`<=` with rhs >= 0, and only the fallback LPs still run phase 1.

An optimal outcome also carries the duals of its rows, read off the
final phase-2 cost row in the pass that reads the solution.  Benson's
loop takes each cut from the duals of the verification LP that failed,
so the cut needs no LP of its own.
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
# A row is a pivot candidate when its entry in the entering column exceeds
# TOL_PIVOT times the column's largest entry, or TOL_PIVOT where that is below
# 1: a degenerate row with an entry of 1e-9, in a column reaching 400, must
# not win the ratio test, because pivoting on it wrecks the tableau.
TOL_PIVOT = 1e-9

Bound = tuple[float | None, float | None]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max objective @ x  subject to  lhs @ x (relations) rhs, bounds.

    `lhs` (m, n) and `rhs` (m,) give one LP; `lhs` (B, m, n) and `rhs`
    (B, m) give a stack of B >= 1 LPs that share the other fields, for
    `solve_batch`.  `bounds` gives per-variable (lower, upper) with None
    for unbounded; omitted bounds default to x >= 0 for every variable.
    Upper bounds are not supported: write them as constraint rows.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    sense: str = "min"
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self) -> None:
        rel = tuple(self.relations)
        try:
            obj = np.atleast_1d(np.array(self.objective, dtype=float))
            lhs = np.array(self.lhs, dtype=float)
            rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
            bounds = None if self.bounds is None else tuple(
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in self.bounds
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"LP coefficients and bounds must be numbers: {exc}") from exc
        if lhs.size == 0 and lhs.ndim < 3:
            lhs = np.zeros((len(rel), obj.size))
        lhs = np.atleast_2d(lhs)
        if self.sense not in ("min", "max"):
            raise InputError(f"unknown sense {self.sense!r}")
        for r in rel:
            if r not in RELATIONS:
                raise InputError(f"unknown relation {r!r}")
        if lhs.ndim > 3 or lhs.shape[-2:] != (len(rel), obj.size):
            raise InputError(
                f"lhs shape {lhs.shape} is not {len(rel)} constraints x {obj.size} "
                "variables, alone or stacked"
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
        elif any(hi is not None for _, hi in bounds):
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
        return len(self.relations)


@dataclass(frozen=True, eq=False)
class LPOutcome:
    """How an LP ended; value, solution and duals are None unless optimal.

    `duals` holds one shadow price per constraint row, d value / d rhs_r in
    the LP's own sense: a `<=` row's dual is <= 0 in a `min` LP and >= 0 in
    a `max` LP, and a `>=` row's the reverse.  An equality row's dual is
    NaN.  They are read off the final phase-2 tableau (see `_read_off`).
    """

    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective_value: float | None
    solution: np.ndarray | None
    iterations: int
    duals: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None


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
        ratios = T[rows, -1] / colvals[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))].tolist()
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
    """The LPs of a stack as condensed (Tucker) phase-1 tableaux.

    A variable of the full tableau is one of its columns: the structural
    columns, one per variable with a lower bound (shifted to zero) and two
    (+x, -x) per free variable, then one slack per inequality row, then LP
    b's artificials, one per row that no slack can start in the basis, as
    columns nfull .. nfull + nart[b] - 1.  A condensed tableau keeps the
    rhs and only the nonbasic columns, each in a slot: `labels[b, :m]`
    names the basic variable of each row and `labels[b, m:]` the variable
    in each slot.  A slot past LP b's last nonbasic variable is a zero
    column labelled `pad`, a label past every variable; every tableau has
    at least one slot.
    """

    T: np.ndarray  # (B, m + 1, slots + 1): the rows, then the phase-1 objective
    labels: np.ndarray  # (B, m + slots): the basic variable of each row, then of each slot
    budget: np.ndarray  # (B,): each LP's pivot budget
    cost: np.ndarray  # (pad + 1,): each variable's phase-2 cost (minimizing), zero from nfull on
    rhs_max: np.ndarray  # (B,): the largest rhs, which scales the infeasibility test
    nfull: int  # structural and slack columns
    pad: int
    # Variable j is x[plus[j]] - x[minus[j]] over the column values x
    # followed by one slot and then by -lo of each variable (-0.0 if free):
    # minus[j] names a free variable's second column, or the slot holding -lo.
    plus: np.ndarray
    minus: np.ndarray
    neg_lows: np.ndarray
    # Row r's dual is the final reduced cost of column slack_col[r] times
    # dual_sign[r]; an equality row has no slack and reads NaN.
    slack_col: np.ndarray
    dual_sign: np.ndarray


def _price_out(T: np.ndarray, mask: np.ndarray, coef: np.ndarray | None = None) -> None:
    """For each tableau t and each row i in turn where mask[t, i], subtract
    T[t, i], or coef[t, i] * T[t, i] when `coef` is given, from the last row.

    `np.subtract.accumulate` subtracts the terms one at a time in row
    order, as a loop over the rows would, and x - 0.0 is x, so a row left
    out of one tableau costs it nothing.
    """
    rows = np.flatnonzero(mask.any(axis=0))
    if not rows.size:
        return
    terms = T[:, rows] if coef is None else coef[:, rows, None] * T[:, rows]
    skip = ~mask[:, rows]
    if skip.any():
        terms[skip] = 0.0
    T[:, -1] = np.subtract.accumulate(np.concatenate([T[:, -1:], terms], axis=1), axis=1)[:, -1]


def _setup(lp: LinearProgram, max_iter: int | None) -> _Tableaux:
    m = lp.num_constraints
    lhs, rhs = (lp.lhs, lp.rhs) if lp.lhs.ndim == 3 else (lp.lhs[None], lp.rhs[None])
    c0 = -lp.objective if lp.sense == "max" else lp.objective
    # Structural column -> source variable and the sign it carries; a nonzero
    # lower bound is shifted into the rhs.
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
            if lo != 0.0:
                rhs = rhs - lhs[:, :, j] * lo
    n_core = len(src)
    src_arr, sign_arr = np.array(src, dtype=int), np.array(sign)
    flipped = rhs < 0
    rhs = np.abs(rhs)

    # Slack k enters row ineq[k] as +s ("<=") or -s (">=") and starts in the
    # basis unless the row was flipped against it; every other row starts
    # with an artificial.
    up = np.array([r == "<=" for r in lp.relations], dtype=bool)
    eq = np.array([r == "=" for r in lp.relations], dtype=bool)
    ineq = np.flatnonzero(~eq)
    nfull = n_core + ineq.size
    slack_col = np.full(m, -1)
    slack_col[ineq] = np.arange(n_core, nfull)
    art = eq | (up == flipped)
    nart = art.sum(axis=1)
    pad = nfull + int(nart.max())
    basis = np.where(art, np.cumsum(art, axis=1) + (nfull - 1), slack_col)
    if max_iter is None:
        budget = 1000 + 50 * (m + nfull + nart)
    else:
        budget = np.full(len(lhs), max_iter)

    # The slacks that cannot start basic take the slots after the structural
    # columns, in row order; each holds -1 in its row once the row's sign is fixed.
    lp_of, row_of = np.nonzero(art & ~eq)
    place = np.arange(lp_of.size) - np.searchsorted(lp_of, lp_of)
    width = max(1, n_core + int(np.bincount(lp_of).max(initial=0)))
    T = np.zeros((len(lhs), m + 1, width + 1))
    T[:, :m, :n_core] = lhs[:, :, src_arr] * sign_arr
    T[:, :m][flipped, :n_core] *= -1.0
    T[lp_of, row_of, n_core + place] = -1.0
    T[:, :m, -1] = rhs
    labels = np.full((len(lhs), m + width), pad)
    labels[:, :m] = basis
    labels[:, m : m + n_core] = np.arange(n_core)
    labels[lp_of, m + n_core + place] = slack_col[row_of]
    _price_out(T, art)

    cost = np.zeros(pad + 1)
    cost[:n_core] = c0[src_arr] * sign_arr
    minus_arr = np.array(minus, dtype=int)
    minus_arr[minus_arr < 0] = nfull + 1 + np.flatnonzero(minus_arr < 0)
    neg_lows = np.array([-0.0 if lo is None else -lo for lo, _ in lp.bounds])
    rhs_max = rhs.max(axis=1, initial=0.0)
    # A flipped row negates its slack column with it, so only the relation
    # and the sense set the sign; the tableau's costs are those of a `min`.
    sense_sign = 1.0 if lp.sense == "max" else -1.0
    dual_sign = np.where(eq, np.nan, np.where(up, sense_sign, -sense_sign))
    return _Tableaux(T, labels, budget, cost, rhs_max, nfull, pad, np.array(plus), minus_arr,
                     neg_lows, np.maximum(slack_col, 0), dual_sign)


def _pivot_out_artificials(T: np.ndarray, labels: np.ndarray, nfull: int) -> None:
    """Pivot the leftover artificials out of one feasible phase-1 tableau,
    each on the nonbasic column of lowest index that is nonzero in its row.
    A row whose only nonzeros lie in basic columns is redundant and keeps
    its artificial."""
    m = len(T) - 1
    row_labels = labels.tolist()
    for i in range(m):
        if row_labels[i] >= nfull:
            slots = [
                s for s in np.flatnonzero(np.abs(T[i, :-1]) > 1e-9).tolist()
                if row_labels[m + s] < nfull
            ]
            if slots:
                _pivot(T, row_labels, i, min(slots, key=lambda s: row_labels[m + s]))
    labels[:] = row_labels


def _phase2(tab: _Tableaux, T: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase-2 tableaux and labels that follow feasible phase-1 tableaux.

    The artificial columns are dropped: a slot that holds an artificial
    becomes a zero slot labelled `pad`.  A redundant row becomes a zero row
    whose basic variable is `nfull`, past the last column: it never passes
    a ratio test and every pivot leaves it zero.  The cost row is priced
    out by the rows with a basic cost, in row order.
    """
    m = T.shape[1] - 1
    art = labels[:, m:] >= tab.nfull
    if art.any():
        np.copyto(T[:, :, :-1], 0.0, where=art[:, None, :])
        labels[:, m:][art] = tab.pad
    T[:, -1, :-1] = tab.cost[labels[:, m:]]
    T[:, -1, -1] = 0.0
    redundant = labels[:, :m] >= tab.nfull
    if redundant.any():
        T[:, :-1][redundant] = 0.0
        labels[:, :m][redundant] = tab.nfull
    coef = tab.cost[labels[:, :m]]
    _price_out(T, coef != 0.0, coef)
    return T, labels


def _read_off(
    tab: _Tableaux, T2: np.ndarray, labels2: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The solutions and duals (see `_Tableaux.dual_sign`) of LPs whose
    phase-2 tableaux ended optimal.  A basic variable's value is its row's
    rhs, and its reduced cost is zero."""
    m = T2.shape[1] - 1
    at = np.arange(len(T2))[:, None]
    x = np.zeros((len(T2), tab.nfull + 1 + tab.neg_lows.size))
    x[:, tab.nfull + 1 :] = tab.neg_lows
    x[at, labels2[:, :m]] = T2[:, :-1, -1]
    reduced = np.zeros((len(T2), tab.pad + 1))
    reduced[at, labels2[:, m:]] = T2[:, -1, :-1]
    duals = reduced[:, tab.slack_col] * tab.dual_sign
    # Each solution gets its own buffer: a dot product's rounding can
    # depend on where its operands start in memory.
    return [(row.copy(), y.copy()) for row, y in zip(x[:, tab.plus] - x[:, tab.minus], duals)]


def solve_batch(lp: LinearProgram, *, max_iter: int | None = None) -> list[LPOutcome]:
    """One outcome per LP of the stack `lp`, in stack order, each bit for
    bit what `solve_lp` gives that LP alone; a single LP is a stack of one.

    Both phases pivot in `_run`: a stack of more than one LP in lockstep
    (`_run_lockstep`).  An error in any LP raises out of the whole stack.
    """
    tab = _setup(lp, max_iter)
    T, labels, budget = tab.T, tab.labels, tab.budget
    m = lp.num_constraints
    outcomes: list[LPOutcome | None] = [None] * len(T)
    go = list(range(len(T)))
    iters = np.zeros(len(T), dtype=int)
    if tab.pad > tab.nfull:  # some LP starts with an artificial
        status, iters = _run(T, labels, budget)
        if "unbounded" in status:
            raise NumericalError("phase-1 simplex reported unbounded")
        limits = (TOL_FEAS * (1.0 + tab.rhs_max)).tolist()
        for b, (st, value, limit) in enumerate(zip(status, (-T[:, -1, -1]).tolist(), limits)):
            if st != "optimal" or value > limit:
                st = "infeasible" if st == "optimal" else st
                outcomes[b] = LPOutcome(st, None, None, int(iters[b]))
        go = [b for b, out in enumerate(outcomes) if out is None]
        if len(go) < len(T):
            T, labels, budget, iters = T[go], labels[go], budget[go], iters[go]
        for b in np.flatnonzero((labels[:, :m] >= tab.nfull).any(axis=1)).tolist():
            _pivot_out_artificials(T[b], labels[b], tab.nfull)
    if not go:
        return outcomes
    T2, labels2 = _phase2(tab, T, labels)
    status, it2 = _run(T2, labels2, budget - iters)
    iters = (iters + it2).tolist()
    ok = [k for k, st in enumerate(status) if st == "optimal"]
    for b, st, it in zip(go, status, iters):
        if st != "optimal":
            outcomes[b] = LPOutcome(st, None, None, it)
    if len(ok) < len(go):
        T2, labels2 = T2[ok], labels2[ok]
    for k, (x, duals) in zip(ok, _read_off(tab, T2, labels2)):
        outcomes[go[k]] = LPOutcome("optimal", float(lp.objective @ x), x, iters[k], duals)
    return outcomes


def solve_lp(lp: LinearProgram, *, max_iter: int | None = None) -> LPOutcome:
    """Solve the LP by two-phase dense simplex (see `_Tableaux` for the columns).

    Phase 1 minimizes the sum of the artificials; an artificial still basic
    after it is pivoted out, or its row dropped as redundant.  A stack of
    LPs is an input error: it goes to `solve_batch`.
    """
    if lp.lhs.ndim == 3:
        raise InputError("solve_lp takes one LP; solve a stack with solve_batch")
    return solve_batch(lp, max_iter=max_iter)[0]


def check_feasibility(lp: LinearProgram, *, max_iter: int | None = None) -> FeasibilityResult:
    """Phase-one feasibility of the constraint system; objective is ignored."""
    probe = dataclasses.replace(lp, objective=np.zeros(lp.num_vars), sense="min")
    out = solve_lp(probe, max_iter=max_iter)
    if out.status == "optimal":
        return FeasibilityResult(True, out.solution)
    if out.status == "infeasible":
        return FeasibilityResult(False, None)
    raise NumericalError(f"feasibility probe ended with status {out.status!r}")
