"""Equilibrium computation on the continuous multi-user power control game.

The decision variable of each user is its per-bin transmit PSD under a total
power budget.  Three solution routes are provided:

* iterative water-filling: sequential best-response dynamics whose fixed
  points are Nash equilibria of the rate game;
* a leader-commitment search for two users, where the leader explores its
  candidate allocations while the follower always water-fills against the
  leader's interference (the bi-level structure of heterogeneous knowledge);
* a brute-force weighted rate-sum oracle over a budget-splitting grid, used
  as the Pareto reference for rate-region comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleScaleError
from .spectrum import (
    FrequencyGrid,
    ChannelSet,
    NoiseProfile,
    PowerAllocation,
    PowerBudget,
    _effective_noise_raw,
    _integer,
    _rates,
    _water_fill_row,
    _water_fill_rows,
)

__all__ = [
    "IwResult",
    "StackelbergResult",
    "RegionSample",
    "iterative_water_filling",
    "follower_response_rates",
    "stackelberg_leader_search",
    "pareto_sweep",
    "grid_dominance_margin",
]

# Joint grid pairs the oracle, or leader candidates the leader search, may
# price before refusing; covers two users, four bins, twenty levels.
MAX_ORACLE_EVALUATIONS = 4_000_000
# Joint pairs or leader candidates priced per numpy call (temporaries ~128 KB).
BLOCK_SIZE = 1 << 14


@dataclass(frozen=True, eq=False)
class IwResult:
    """Outcome of iterative water-filling.

    `residual` is the last sweep's max-norm PSD change.  `fixed_point_gap` is
    the largest max-norm distance of a user's row from its best response to
    the state after the last sweep that moved by at most tol (the final
    state when converged), and inf when no sweep did.
    """

    allocation: PowerAllocation
    rates: np.ndarray
    iterations: int
    converged: bool
    residual: float
    fixed_point_gap: float


@dataclass(frozen=True, eq=False)
class StackelbergResult:
    """Best leader commitment found, with the follower's water-fill response."""

    leader: int
    leader_allocation: np.ndarray
    follower_allocation: np.ndarray
    rates: np.ndarray
    candidates_evaluated: int
    nash: IwResult  # the iterative-water-filling outcome the search started from


@dataclass(frozen=True, eq=False)
class RegionSample:
    """One point of a rate-region sweep."""

    method: str
    params: tuple
    rates: np.ndarray


def _check_inputs(ch, noise, budgets, grid, users=2, leader=0, levels=None, min_levels=1,
                  weights=(), target=None):
    """Refuse mismatched or out-of-range input to a public entry point; users=None allows any count."""
    n, k = ch.user_count, ch.bin_count
    if grid.bin_count != k:
        raise ValueError(f"grid has {grid.bin_count} bins where ch has {k}")
    if noise.psd.shape != (n, k):
        raise ValueError(f"noise must be a {n}x{k} PSD table, not {noise.psd.shape}")
    if budgets.user_count != n:
        raise ValueError(f"budgets must hold {n} entries, not {budgets.user_count}")
    if users is not None and n != users:
        raise ValueError(f"ch must have {users} users, not {n}")
    if isinstance(leader, bool) or not isinstance(leader, (int, np.integer)) or leader not in (0, 1):
        raise ValueError("leader must be 0 or 1")
    if levels is not None:
        _integer(levels, "levels", min_levels)
    for w in map(np.array, weights):
        if len(w) != 2 or not (np.all(np.isfinite(w)) and np.all(w >= 0) and np.sum(w) > 0):
            raise ValueError(f"weights must be 2 finite nonnegative entries with positive sum, not {w!r}")
    if target is not None and (target.shape != (2,) or not np.all(np.isfinite(target))):
        raise ValueError(f"target_rates must be 2 finite rates, not {target!r}")


def _check_scale(count, what):
    """Refuse work over MAX_ORACLE_EVALUATIONS before it starts."""
    if count > MAX_ORACLE_EVALUATIONS:
        raise OracleScaleError(f"oracle scale exceeded: {count} {what} over cap {MAX_ORACLE_EVALUATIONS}")


def iterative_water_filling(
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> IwResult:
    """Sequential (Gauss-Seidel) water-filling until a Nash fixed point.

    Users update in index order; a sweep's residual is the max-norm PSD
    change.  Convergence is declared once a sweep moves by at most tol AND
    every user's row is within tol of its water-fill best response to the
    final state, which makes a converged result a certified fixed point.
    Non-convergence within max_iter is reported in the result, not raised:
    strong interference can cycle.  Each reply is sequential, so the loop
    runs on Python floats through the single-row water-fill kernel.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _integer(max_iter, "max_iter", 1)
    _check_inputs(ch, noise, budgets, grid, users=None)
    n_users, k = ch.user_count, ch.bin_count

    gain2, sigma, budget = ch.gain2.tolist(), noise.psd.tolist(), budgets.budget.tolist()
    psd = [[0.0] * k for _ in range(n_users)]

    def reply(n):
        # the floor of `_effective_noise_raw`, with the same operations in the same order
        floor = sigma[n]
        for j in range(n_users):
            if j != n:
                floor = [f + p * g for f, p, g in zip(floor, psd[j], gain2[j][n])]
        return _water_fill_row(gain2[n][n], floor, budget[n], grid.bin_width)

    def moved(n, row):
        return max(abs(a - b) for a, b in zip(row, psd[n]))

    converged = False
    residual = fixed_point_gap = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        change = 0.0
        for n in range(n_users):
            row = reply(n)
            change = max(change, moved(n, row))
            psd[n] = row
        residual = change
        if change <= tol:
            fixed_point_gap = max(moved(n, reply(n)) for n in range(n_users))
            if fixed_point_gap <= tol:
                converged = True
                break
    psd = np.array(psd)
    rates = _rates(psd, ch.gain2, noise.psd, grid.bin_width)
    return IwResult(PowerAllocation(psd), rates, sweeps, converged, residual, fixed_point_gap)


def _follower_replies(leader, leader_rows, ch, noise, budgets, grid):
    """Follower water-fill replies and joint rates for a batch of leader rows (B, K)."""
    follower = 1 - leader
    psd = np.zeros((len(leader_rows), 2, ch.bin_count))
    psd[:, leader] = leader_rows
    floors = _effective_noise_raw(follower, psd, ch.gain2, noise.psd)
    psd[:, follower] = _water_fill_rows(
        ch.gain2[follower, follower], floors, budgets.budget[follower], grid.bin_width
    )
    return psd[:, follower], _rates(psd, ch.gain2, noise.psd, grid.bin_width)


def follower_response_rates(
    leader: int,
    leader_alloc,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
):
    """Water-fill the follower against a fixed leader allocation.

    Two-user scenarios only.  Returns (follower PSD row, rate vector for
    both users at the resulting joint allocation).
    """
    _check_inputs(ch, noise, budgets, grid, leader=leader)
    rows = np.asarray(leader_alloc, dtype=float)[None]
    if rows.shape != (1, ch.bin_count):
        raise ValueError(f"leader_alloc must hold {ch.bin_count} entries, not shape {rows.shape[1:]}")
    replies, rates = _follower_replies(leader, rows, ch, noise, budgets, grid)
    return replies[0], rates[0]


def _budget_splits(levels: int, bins: int) -> np.ndarray:
    """Integer splits of the budget over bins, one row each, lexicographic.

    Any total up to `levels` is allowed, so staying (partly) silent is a
    candidate.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    for _ in range(bins):
        # each prefix once per next-bin value 0..(levels - prefix sum)
        room = levels + 1 - table.sum(axis=1)
        column = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        table = np.column_stack([np.repeat(table, room, axis=0), column])
    return table


def stackelberg_leader_search(
    leader: int,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
) -> StackelbergResult:
    """Sub-optimal global search for the best leader commitment.

    The follower always water-fills against the leader (the lower level of
    the bi-level program), so the leader only searches its own allocation.
    For up to four bins the leader enumerates a budget-splitting grid with
    `levels` steps; for wider grids it runs coordinate descent from the
    iterative-water-filling allocation, moving budget/levels of power
    between bin pairs until no such move strictly raises its rate (a local
    optimum of the descent) or no bin holds a full step.  The Nash
    allocation is always the first candidate, so leader 0 never finishes
    below its Nash rate (leader 1 can, within IW's tolerance).  A search
    over MAX_ORACLE_EVALUATIONS candidates is refused with OracleScaleError.
    The Nash point is iterative water-filling at its default settings;
    leader must be 0 or 1.
    """
    _check_inputs(ch, noise, budgets, grid, leader=leader, levels=levels, min_levels=2)
    bins = grid.bin_count
    _check_scale(math.comb(levels + bins, bins) if bins <= 4 else 0, "leader grid candidates")
    nash = iterative_water_filling(ch, noise, budgets, grid)
    ne_row = np.array(nash.allocation.psd[leader])
    # budget/levels of power in PSD units: the grid step and the descent move
    step = budgets.budget[leader] / (levels * grid.bin_width)
    evaluated = 0

    def best_of(rows):
        # priced in blocks of BLOCK_SIZE rows; ties keep the first row, as a
        # scan accepting only strict improvements would
        nonlocal evaluated
        evaluated += len(rows)
        best = None
        for start in range(0, len(rows), BLOCK_SIZE):
            replies, rates = _follower_replies(leader, rows[start:start + BLOCK_SIZE], ch, noise, budgets, grid)
            i = int(np.argmax(rates[:, leader]))
            if best is None or rates[i, leader] > best[2][leader]:
                best = rows[start + i], replies[i], rates[i]
        return best

    if bins <= 4:
        candidates = _budget_splits(levels, bins) * step
        best_row, best_reply, best_rates = best_of(np.vstack([ne_row, candidates]))
    else:
        best_row, best_reply, best_rates = best_of(ne_row[None])
        pairs = np.array([(src, dst) for src in range(bins) for dst in range(bins) if dst != src])
        # each accepted move strictly raises the leader's rate, so this ends
        while True:
            src, dst = pairs[best_row[pairs[:, 0]] >= step].T
            if not len(src):
                break
            _check_scale(evaluated + len(src), "leader descent candidates")
            trials = np.repeat(best_row[None], len(src), axis=0)
            trials[np.arange(len(src)), src] -= step
            trials[np.arange(len(src)), dst] += step
            move = best_of(trials)
            if move[2][leader] <= best_rates[leader]:
                break
            best_row, best_reply, best_rates = move

    return StackelbergResult(
        leader=leader,
        leader_allocation=np.array(best_row),
        follower_allocation=np.array(best_reply),
        rates=np.array(best_rates),
        candidates_evaluated=evaluated,
        nash=nash,
    )


def _joint_grid_rates(ch, noise, budgets, grid, levels):
    """Rate pairs over the joint budget-splitting grid, in bounded blocks.

    Every pair of splits (totals up to the budget, so silence is allowed) is
    priced from per-bin (K, L+1, L+1) tables of log2 terms, summed in bin
    order; each step yields both users' rates (B, M) for B user-1 splits by
    all M user-2 splits, lexicographic, with B*M about BLOCK_SIZE.  Grids
    over MAX_ORACLE_EVALUATIONS pairs are refused with OracleScaleError.
    """
    _check_scale(math.comb(levels + grid.bin_count, grid.bin_count) ** 2, "joint evaluations")
    splits = _budget_splits(levels, grid.bin_count)
    df = grid.bin_width
    p1, p2 = (np.arange(levels + 1) * (b / (levels * df)) for b in budgets.budget)
    g, sigma, p1 = ch.gain2[..., None, None], noise.psd[..., None, None], p1[:, None]
    # term[k, a, b] for bin k, user 1 at level a, user 2 at level b; each
    # bin's user-2 columns are gathered once, then rows per block
    terms = (np.log2(1.0 + p1 * g[0, 0] / (sigma[0] + p2 * g[1, 0])),
             np.log2(1.0 + p2 * g[1, 1] / (sigma[1] + p1 * g[0, 1])))
    columns = [[t[k][:, col] for k, col in enumerate(splits.T)] for t in terms]
    rows = max(1, BLOCK_SIZE // len(splits))
    for block in np.split(splits.T, range(rows, len(splits), rows), axis=1):
        rates = [cols[0][block[0]] for cols in columns]
        for r, cols in zip(rates, columns):
            for col, user1_levels in zip(cols[1:], block[1:]):
                r += col[user1_levels]
            r *= df
        yield rates


def _pareto_argmax(
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int,
    weight_list,
):
    """Exhaustive weighted-sum maximization on the joint allocation grid.

    Returns, per weight vector, the best value and rate pair.  Ties break
    toward the lexicographically first pair of splits (first maximum of a
    block, strict gains across blocks).  Shared across weights; capped at
    MAX_ORACLE_EVALUATIONS joint pairs.
    """
    weights = [np.asarray(w, dtype=float) for w in weight_list]
    best_val = [-np.inf] * len(weights)
    best_rates = [None] * len(weights)
    for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels):
        for wi, w in enumerate(weights):
            objective = w[0] * r1 + w[1] * r2
            j = int(np.argmax(objective))
            if objective.flat[j] > best_val[wi]:
                best_val[wi] = float(objective.flat[j])
                best_rates[wi] = np.array([r1.flat[j], r2.flat[j]])
    return best_val, best_rates


def grid_dominance_margin(
    target_rates,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
) -> float:
    """Best componentwise improvement over target_rates on the joint grid.

    Returns max over all grid allocation pairs of min_n (R_n - target_n); a
    nonnegative value certifies that the cooperative grid frontier weakly
    dominates the target point.  Same exhaustive oracle, bounded blocks
    and MAX_ORACLE_EVALUATIONS cap as the weighted-sum maximization,
    scanned with the max-min objective instead of a fixed weight.
    """
    target = np.asarray(target_rates, dtype=float)
    _check_inputs(ch, noise, budgets, grid, levels=levels, target=target)
    best = -np.inf
    for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels):
        margin = np.minimum(r1 - target[0], r2 - target[1]).max()
        if margin > best:
            best = float(margin)
    return best


def pareto_sweep(
    weight_list,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
) -> list:
    """Brute-force Pareto points: maximize w1*R1 + w2*R2 over the joint grid.

    One RegionSample per weight vector, with the grid priced once for all of
    them; no weights give no samples.  This is the certified desk-scale
    oracle for the cooperative frontier, not a scalable solver.
    """
    weights = [tuple(float(x) for x in w) for w in weight_list]
    _check_inputs(ch, noise, budgets, grid, levels=levels, weights=weights)
    if not weights:
        return []
    _, rate_list = _pareto_argmax(ch, noise, budgets, grid, levels, weights)
    return [RegionSample("pareto", w, r) for w, r in zip(weights, rate_list)]

