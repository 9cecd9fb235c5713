"""The full-tableau simplex that `vecgame.lp` ran before its tableau was
condensed: a reference kernel for the tests.

Every tableau here keeps all of its columns, the basic ones as unit
columns, and each pivot reduces every row over every column.  The package
kernel stores only the nonbasic columns, and must give the same outcome
bit for bit: status, pivot count, value, solution and duals, the sign of
each zero included.  `solve_batch` takes a stack as `vecgame.lp.solve_batch`
does; `solve_lp` solves one LP.  Like the package, it takes only LPs
that start at their slack basis: `<=` rows with rhs >= 0, and variables
that are >= 0 or free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vecgame.lp import TOL_OPT, TOL_PIVOT, LinearProgram, LPOutcome


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
    """The LPs of a stack as tableaux at the slack basis.

    The columns are the structural columns, one per variable >= 0 and two
    (+x, -x) per free variable, then one slack per row.
    """

    T: np.ndarray  # (B, m + 1, nfull + 1): the rows, then the cost row (minimizing)
    basis: np.ndarray  # (B, m): the basic column of each row
    budget: np.ndarray  # (B,): each LP's pivot budget
    nfull: int  # structural and slack columns
    # Variable j is x[plus[j]] - x[minus[j]] over the column values x
    # followed by one slot holding -0.0: minus[j] names a free variable's
    # second column, or that slot.
    plus: np.ndarray
    minus: np.ndarray
    # Row r's dual is the final reduced cost of its slack times dual_sign.
    dual_sign: float


def _setup(lp: LinearProgram, max_iter: int | None) -> _Tableaux:
    m = lp.num_constraints
    lhs, rhs = (lp.lhs, lp.rhs) if lp.lhs.ndim == 3 else (lp.lhs[None], lp.rhs[None])
    assert (rhs >= 0.0).all()
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
    if max_iter is None:
        budget = np.full(len(lhs), 1000 + 50 * (m + nfull))
    else:
        budget = np.full(len(lhs), max_iter)

    T = np.zeros((len(lhs), m + 1, nfull + 1))
    T[:, :m, :n_core] = lhs[:, :, src_arr] * sign_arr
    T[:, np.arange(m), n_core + np.arange(m)] = 1.0
    T[:, :m, -1] = rhs
    T[:, -1, :n_core] = c0[src_arr] * sign_arr
    basis = np.tile(np.arange(n_core, nfull), (len(lhs), 1))
    minus_arr = np.array(minus, dtype=int)
    minus_arr[minus_arr < 0] = nfull
    return _Tableaux(T, basis, budget, nfull, np.array(plus), minus_arr,
                     1.0 if lp.sense == "max" else -1.0)


def _read_off(
    tab: _Tableaux, T: np.ndarray, basis: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The solutions and duals (see `_Tableaux.dual_sign`) of LPs whose
    tableaux ended optimal."""
    x = np.zeros((len(T), tab.nfull + 1))
    x[:, tab.nfull] = -0.0
    x[np.arange(len(T))[:, None], basis] = T[:, :-1, -1]
    m = basis.shape[1]
    duals = T[:, -1, tab.nfull - m : tab.nfull] * tab.dual_sign
    # Each solution gets its own buffer: a dot product's rounding can
    # depend on where its operands start in memory.
    return [(row.copy(), y.copy()) for row, y in zip(x[:, tab.plus] - x[:, tab.minus], duals)]


def solve_batch(lp: LinearProgram, *, max_iter: int | None = None) -> list[LPOutcome]:
    """One outcome per LP of the stack `lp`, in stack order, each bit for
    bit what `solve_lp` gives that LP alone; a single LP is a stack of one.

    The tableaux pivot in `_run`: a stack of more than one LP in lockstep
    (`_run_lockstep`).
    """
    tab = _setup(lp, max_iter)
    T, basis = tab.T, tab.basis
    status, iters = _run(T, basis, tab.budget)
    iters = iters.tolist()
    outcomes = [LPOutcome(st, None, None, it) for st, it in zip(status, iters)]
    ok = [b for b, st in enumerate(status) if st == "optimal"]
    if len(ok) < len(T):
        T, basis = T[ok], basis[ok]
    for b, (x, duals) in zip(ok, _read_off(tab, T, basis)):
        outcomes[b] = LPOutcome("optimal", float(lp.objective @ x), x, iters[b], duals)
    return outcomes


def solve_lp(lp: LinearProgram, *, max_iter: int | None = None) -> LPOutcome:
    """One LP through the full-tableau kernel, as a stack of one."""
    return solve_batch(lp, max_iter=max_iter)[0]
