"""The full-tableau simplex that `vecgame.lp` ran before its tableau was
condensed: a reference kernel for the tests.

Every tableau here keeps all of its columns, the basic ones as unit
columns, and each pivot reduces every row over every column.  The package
kernel stores only the nonbasic columns, and must give the same outcome
bit for bit: status, pivot count, value, solution and duals, the sign of
each zero included.  `solve_batch` takes a stack as `vecgame.lp.solve_batch`
does; `solve_lp` solves one LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vecgame.errors import NumericalError
from vecgame.lp import TOL_FEAS, TOL_OPT, TOL_PIVOT, LinearProgram, LPOutcome


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= factor[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(
    T: np.ndarray, basis: list[int], budget: int, bland: bool = False
) -> tuple[str, int]:
    """Iterate to optimality by Dantzig's rule.  A basis seen before means the
    pivots are cycling, so from then on Bland's rule picks the entering column."""
    ncols = T.shape[1] - 1
    iters = 0
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
            enter = int(red.argmin())
            if red[enter] >= -TOL_OPT:
                return "optimal", iters
        colvals = T[:-1, enter]
        rows = (colvals > TOL_PIVOT * float(colvals.max(initial=1.0))).nonzero()[0]
        if rows.size == 0:
            return "unbounded", iters
        ratios = T[rows, -1] / colvals[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))].tolist()
        # among ratio ties pick the smallest basis index (anti-cycling bias)
        leave = min(ties, key=basis.__getitem__)
        _pivot(T, basis, leave, enter)
        rhs = T[:-1, -1]
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        iters += 1
        if not bland:
            key = tuple(basis)
            bland = key in seen
            seen.add(key)
    return "iteration_limit", iters


def _pivot_stack(T: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """`_pivot` on every tableau of the stack, tableau t at (rows[t], cols[t])."""
    at = np.arange(len(T))
    T[at, rows] /= T[at, rows, cols][:, None]
    factor = T[at, :, cols]
    factor[at, rows] = 0.0
    T -= factor[:, :, None] * T[at, rows][:, None, :]
    T[at, :, cols] = 0.0
    T[at, rows, cols] = 1.0
    basis[at, rows] = cols


_STATUSES = ("optimal", "unbounded", "iteration_limit")


def _run_lockstep(
    T: np.ndarray, basis: np.ndarray, budget: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Dantzig's rule on every tableau of the stack at once.

    Each step makes, on every tableau still running, the pivot that
    `_run_simplex` would make next, by the same floating-point operations.
    A tableau whose basis repeats leaves the stack and finishes under
    `_run_simplex`'s Bland rule.  The running tableaux are copied out of
    `T` once one of them finishes, and each is written back when it does.
    """
    m, ncols = T.shape[1] - 1, T.shape[2] - 1
    status = [""] * len(T)
    iters = np.zeros(len(T), dtype=int)
    live, Tw, bw, seen = np.arange(len(T)), T, basis, basis[:, None, :].copy()

    def finish(done: np.ndarray) -> None:
        nonlocal live, Tw, bw, seen
        if Tw is not T:
            T[live[done]] = Tw[done]
            basis[live[done]] = bw[done]
        keep = ~done
        live, Tw, bw, seen = live[keep], Tw[keep], bw[keep], seen[keep]

    while live.size:
        red = Tw[:, -1, :ncols]
        enter = red.argmin(axis=1)
        at = np.arange(live.size)
        col = Tw[at, :m, enter]
        pos = col > TOL_PIVOT * col.max(axis=1, initial=1.0)[:, None]
        # An index into _STATUSES, tested in _run_simplex's order, or -1 to pivot.
        code = np.where(
            iters[live] >= budget[live],
            2,
            np.where(red[at, enter] >= -TOL_OPT, 0, np.where(pos.any(axis=1), -1, 1)),
        )
        done = code >= 0
        if done.any():
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
        leave = np.where(ties, bw, ncols).argmin(axis=1)
        _pivot_stack(Tw, bw, leave, enter)
        np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-11))
        iters[live] += 1
        repeated = (seen == bw[:, None, :]).all(axis=2).any(axis=1)
        seen = np.concatenate([seen, bw[:, None, :]], axis=1)
        if repeated.any():
            for j in np.flatnonzero(repeated).tolist():
                b = live[j]
                rows = bw[j].tolist()
                status[b], it = _run_simplex(Tw[j], rows, int(budget[b] - iters[b]), bland=True)
                bw[j] = rows
                iters[b] += it
            finish(repeated)
    return status, iters


def _run(T: np.ndarray, basis: np.ndarray, budget: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Run a stack of tableaux in place; returns each one's status and pivot
    count.  A stack of one runs `_run_simplex`, on which lockstep would
    spend about 2.2x the time."""
    if len(T) > 1:
        return _run_lockstep(T, basis, budget)
    rows = basis[0].tolist()
    status, iters = _run_simplex(T[0], rows, int(budget[0]))
    basis[0] = rows
    return [status], np.array([iters])


@dataclass
class _Tableaux:
    """The LPs of a stack as phase-1 tableaux.

    The columns are the structural columns, one per variable with a lower
    bound (shifted to zero) and two (+x, -x) per free variable, then one
    slack per inequality row, then one artificial per row that no slack
    can start in the basis.  LP b's artificials fill the first nart[b]
    slots after column `nfull`; the slots after them stay zero columns.
    """

    T: np.ndarray  # (B, m + 1, nfull + max nart + 1): the rows, then the phase-1 objective
    basis: np.ndarray  # (B, m): the basic column of each row
    budget: np.ndarray  # (B,): each LP's pivot budget
    cost: np.ndarray  # (nfull + 1,): each column's phase-2 cost (minimizing), then a zero
    rhs_max: np.ndarray  # (B,): the largest rhs, which scales the infeasibility test
    nfull: int  # structural and slack columns
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
    basis = np.where(art, np.cumsum(art, axis=1) + (nfull - 1), slack_col)
    if max_iter is None:
        budget = 1000 + 50 * (m + nfull + nart)
    else:
        budget = np.full(len(lhs), max_iter)

    width = nfull + int(nart.max())
    T = np.zeros((len(lhs), m + 1, width + 1))
    T[:, :m, :n_core] = lhs[:, :, src_arr] * sign_arr
    T[:, ineq, slack_col[ineq]] = np.where(up[ineq], 1.0, -1.0)
    T[:, :m][flipped, :nfull] *= -1.0
    T[:, :m, nfull:width] = basis[:, :, None] == np.arange(nfull, width)
    T[:, :m, -1] = rhs
    T[:, -1, nfull:width] = np.arange(nfull, width) < (nfull + nart)[:, None]
    _price_out(T, art)

    cost = np.zeros(nfull + 1)
    cost[:n_core] = c0[src_arr] * sign_arr
    minus_arr = np.array(minus, dtype=int)
    minus_arr[minus_arr < 0] = nfull + 1 + np.flatnonzero(minus_arr < 0)
    neg_lows = np.array([-0.0 if lo is None else -lo for lo, _ in lp.bounds])
    rhs_max = rhs.max(axis=1, initial=0.0)
    # A flipped row negates its slack column with it, so only the relation
    # and the sense set the sign; the tableau's costs are those of a `min`.
    sense_sign = 1.0 if lp.sense == "max" else -1.0
    dual_sign = np.where(eq, np.nan, np.where(up, sense_sign, -sense_sign))
    return _Tableaux(T, basis, budget, cost, rhs_max, nfull, np.array(plus), minus_arr, neg_lows,
                     np.maximum(slack_col, 0), dual_sign)


def _pivot_out_artificials(T: np.ndarray, basis: np.ndarray, nfull: int) -> None:
    """Pivot the leftover artificials out of one feasible phase-1 tableau.  A
    row whose only nonzeros lie in basic columns is redundant and keeps its
    artificial."""
    rows = basis.tolist()
    basic_set = set(rows)
    for i in range(len(rows)):
        if rows[i] >= nfull:
            row = T[i, :nfull]
            for c in np.nonzero(np.abs(row) > 1e-9)[0]:
                if int(c) not in basic_set:
                    basic_set.discard(rows[i])
                    _pivot(T, rows, i, int(c))
                    basic_set.add(int(c))
                    break
    basis[:] = rows


def _phase2(
    T: np.ndarray, basis: np.ndarray, cost: np.ndarray, nfull: int
) -> tuple[np.ndarray, np.ndarray]:
    """The phase-2 tableaux and bases that follow feasible phase-1 tableaux.

    The artificial columns are dropped.  A redundant row becomes a zero row
    whose basic column is `nfull`, a slot past the last column: it never
    passes a ratio test and every pivot leaves it zero.  The cost row is
    priced out by the rows with a basic cost, in row order.
    """
    T2 = np.concatenate([T[:, :, :nfull], T[:, :, -1:]], axis=2)
    T2[:, -1] = cost
    redundant = basis >= nfull
    if redundant.any():
        T2[:, :-1][redundant] = 0.0
        basis = np.where(redundant, nfull, basis)
    coef = cost[basis]
    _price_out(T2, coef != 0.0, coef)
    return T2, basis


def _read_off(
    tab: _Tableaux, T2: np.ndarray, basis2: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The solutions and duals (see `_Tableaux.dual_sign`) of LPs whose
    phase-2 tableaux ended optimal."""
    x = np.zeros((len(T2), tab.nfull + 1 + tab.neg_lows.size))
    x[:, tab.nfull + 1 :] = tab.neg_lows
    x[np.arange(len(T2))[:, None], basis2] = T2[:, :-1, -1]
    duals = T2[:, -1, tab.slack_col] * tab.dual_sign
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
    T, basis, budget = tab.T, tab.basis, tab.budget
    outcomes: list[LPOutcome | None] = [None] * len(T)
    go = list(range(len(T)))
    iters = np.zeros(len(T), dtype=int)
    if T.shape[2] > tab.nfull + 1:  # some LP starts with an artificial
        status, iters = _run(T, basis, budget)
        if "unbounded" in status:
            raise NumericalError("phase-1 simplex reported unbounded")
        limits = (TOL_FEAS * (1.0 + tab.rhs_max)).tolist()
        for b, (st, value, limit) in enumerate(zip(status, (-T[:, -1, -1]).tolist(), limits)):
            if st != "optimal" or value > limit:
                st = "infeasible" if st == "optimal" else st
                outcomes[b] = LPOutcome(st, None, None, int(iters[b]))
        go = [b for b, out in enumerate(outcomes) if out is None]
        if len(go) < len(T):
            T, basis, budget, iters = T[go], basis[go], budget[go], iters[go]
        for b in np.flatnonzero((basis >= tab.nfull).any(axis=1)).tolist():
            _pivot_out_artificials(T[b], basis[b], tab.nfull)
    if not go:
        return outcomes
    T2, basis2 = _phase2(T, basis, tab.cost, tab.nfull)
    status, it2 = _run(T2, basis2, budget - iters)
    iters = (iters + it2).tolist()
    ok = [k for k, st in enumerate(status) if st == "optimal"]
    for b, st, it in zip(go, status, iters):
        if st != "optimal":
            outcomes[b] = LPOutcome(st, None, None, it)
    if len(ok) < len(go):
        T2, basis2 = T2[ok], basis2[ok]
    for k, (x, duals) in zip(ok, _read_off(tab, T2, basis2)):
        outcomes[go[k]] = LPOutcome("optimal", float(lp.objective @ x), x, iters[k], duals)
    return outcomes


def solve_lp(lp: LinearProgram, *, max_iter: int | None = None) -> LPOutcome:
    """One LP through the full-tableau kernel, as a stack of one."""
    return solve_batch(lp, max_iter=max_iter)[0]
