"""Dense two-phase simplex for small linear programs.

Solves   max (or min)  c.x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
entirely in dense numpy tableaus.  Pivoting uses Dantzig's rule (most
negative reduced cost enters) with the lexicographic ratio test of Dantzig,
Orden & Wolfe, which rules out cycling on the degenerate programs that
equilibrium polytopes produce.

The ratio test takes the right-hand side first, with its ratios clipped at
0: a degenerate row whose right-hand side rounded below zero would otherwise
win it.  Only rows tied there meet the later keys (the starting basis
columns), gathered as one block; of those keys only the ones whose spread
over the tied rows exceeds the tolerance can split them, and only those are
walked.  A row may leave only on an entering-column entry above the
tolerance times max(1, the column's largest entry), so that near-zero pivots
cannot blow the tableau up.  Intended for desk-scale problems (tens of
variables), not as a general LP package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_MAX_PIVOTS = 20000


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None
    pivots: int  # every pivot made: phase one, driving artificials out, phase two


def _pivot(tableau, cost, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    cost -= cost[col] * tableau[row]
    basis[row] = col


def _leaving_row(tableau, column, rows, start):
    """The row that leaves under the lexicographic ratio test.

    `rows` are the candidates (entries of the entering `column` above the
    pivot floor).  The keys are the right-hand side, then the `start` basis
    columns, each divided by the entering column.  Per key, the rows within
    `_TOL` of the least ratio stay, until one row is left (else the first).
    The right-hand-side ratio is clipped at 0: a degenerate row whose
    right-hand side rounded below zero ties at 0 rather than winning.

    Later keys are taken as one block over the rows the right-hand side
    left tied.  A key whose spread over that block is within `_TOL` keeps
    every row of every subset, so it is skipped; the rest are walked with
    the same `min + _TOL` and `<=` arithmetic as a key-by-key walk.
    """
    ratios = np.maximum(tableau[rows, -1] / column[rows], 0.0)
    rows = rows[ratios <= ratios.min() + _TOL]
    if rows.size == 1:
        return rows[0]
    block = tableau[rows][:, start] / column[rows, None]
    split = block.max(axis=0) > block.min(axis=0) + _TOL
    tied = list(range(rows.size))
    for key in block[:, split].T.tolist():
        least = min(key[i] for i in tied) + _TOL
        tied = [i for i in tied if key[i] <= least]
        if len(tied) == 1:
            break
    return rows[tied[0]]


def _run_simplex(tableau, cost, basis, allowed, start):
    """Minimize cost over the tableau; returns (status, pivots made).

    `allowed` masks columns eligible to enter the basis (artificials are
    barred in phase two).  Dantzig's rule: the allowed column with the most
    negative reduced cost enters; `_leaving_row` picks the row that leaves,
    breaking ratio ties on the `start` basis columns.
    """
    for pivots in range(_MAX_PIVOTS):
        reduced = np.where(allowed, cost[:-1], np.inf)
        enter = int(np.argmin(reduced))
        if reduced[enter] >= -_TOL:
            return OPTIMAL, pivots
        column = tableau[:, enter]
        rows = np.flatnonzero(column > _TOL * max(1.0, column.max()))
        if rows.size == 0:
            return UNBOUNDED, pivots
        _pivot(tableau, cost, basis, _leaving_row(tableau, column, rows, start), enter)
    raise ArithmeticError("simplex failed to terminate within the pivot cap")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=False) -> LpResult:
    """Solve a small dense LP; see module docstring for the standard form.

    Raises ArithmeticError if the optimum it found misses the constraints.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    n_ub = 0
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
        rows.append(a_ub)
        rhs.append(b_ub)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        rows.append(a_eq)
        rhs.append(b_eq)
    if not rows:
        raise ValueError("an LP needs at least one constraint row")
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    m = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("constraint width does not match the objective length")

    # Equality form with slacks on the <= rows, rows flipped to b >= 0.  Rows
    # that kept a +1 slack start basic on it; the rest take artificials.
    flip = b < 0
    art_rows = np.flatnonzero(flip | (np.arange(m) >= n_ub))
    n_real = n + n_ub
    n_cols = n_real + art_rows.size
    row_sign = np.where(flip, -1.0, 1.0)[:, None]
    tableau = np.hstack(
        [a * row_sign, np.eye(m, n_ub) * row_sign, np.eye(m)[:, art_rows], b[:, None] * row_sign]
    )
    basis = n + np.arange(m)
    basis[art_rows] = n_real + np.arange(art_rows.size)
    start = basis.copy()
    allowed = np.ones(n_cols, dtype=bool)

    pivots = 0
    if art_rows.size:
        phase1 = np.zeros(n_cols + 1)
        phase1[n_real:-1] = 1.0
        phase1 -= tableau[art_rows].sum(axis=0)  # price out the artificial basis
        status, pivots = _run_simplex(tableau, phase1, basis, allowed, start)
        if status != OPTIMAL or -phase1[-1] > 1e-7:
            return LpResult(INFEASIBLE, None, None, pivots)
        # Drive any zero-level artificial out of the basis; a row with no
        # real pivot left is redundant and harmlessly keeps its artificial
        # pinned at zero (its column is barred from re-entering below).
        for r in np.flatnonzero(basis >= n_real):
            real = np.flatnonzero(np.abs(tableau[r, :n_real]) > _TOL)
            if real.size:
                _pivot(tableau, phase1, basis, r, real[0])
                pivots += 1
        allowed[n_real:] = False

    sign = -1.0 if maximize else 1.0
    cost = np.zeros(n_cols + 1)
    cost[:n] = sign * c
    for r in range(m):  # row by row, not through BLAS, so the summation order is fixed
        if cost[basis[r]] != 0.0:
            cost -= cost[basis[r]] * tableau[r]
    status, more = _run_simplex(tableau, cost, basis, allowed, start)
    pivots += more
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, pivots)

    x = np.zeros(n_cols)
    x[basis] = tableau[:, -1]
    x = x[:n]
    miss = a @ x - b
    miss[n_ub:] = np.abs(miss[n_ub:])
    worst = max(miss.max(initial=0.0), -x.min(initial=0.0))
    if worst > 1e-9 * (1.0 + np.abs(b).max(initial=0.0)):
        raise ArithmeticError(f"simplex optimum misses its constraints by {worst:.3g}")
    value = float(c @ x)
    return LpResult(OPTIMAL, x, value, pivots)
