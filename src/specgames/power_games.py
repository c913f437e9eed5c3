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
    _rates,
    _water_fill_rows,
)

__all__ = [
    "IwResult",
    "StackelbergResult",
    "RegionSample",
    "iterative_water_filling",
    "follower_response_rates",
    "stackelberg_leader_search",
    "weighted_sum_optimize",
    "grid_dominance_margin",
    "rate_region_sweep",
]

# Joint grid evaluations allowed in the weighted-sum oracle before it
# refuses; covers two users, four bins, twenty levels.
MAX_ORACLE_EVALUATIONS = 4_000_000


@dataclass(frozen=True, eq=False)
class IwResult:
    """Outcome of iterative water-filling."""

    allocation: PowerAllocation
    rates: np.ndarray
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True, eq=False)
class StackelbergResult:
    """Best leader commitment found, with the follower's water-fill response."""

    leader: int
    leader_allocation: np.ndarray
    follower_allocation: np.ndarray
    rates: np.ndarray
    candidates_evaluated: int


@dataclass(frozen=True, eq=False)
class RegionSample:
    """One point of a rate-region sweep."""

    method: str
    params: tuple
    rates: np.ndarray
    leader: int | None = None


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
    strong interference can cycle.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n_users, k = ch.user_count, ch.bin_count
    if noise.psd.shape != (n_users, k) or budgets.user_count != n_users or grid.bin_count != k:
        raise ValueError("inconsistent scenario dimensions")

    psd = np.zeros((n_users, k))

    def reply(n):
        floor = _effective_noise_raw(n, psd, ch.gain2, noise.psd)
        return _water_fill_rows(ch.gain2[n, n], floor[None], budgets.budget[n], grid.bin_width)[0]

    converged = False
    residual = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        change = 0.0
        for n in range(n_users):
            row = reply(n)
            change = max(change, float(np.abs(row - psd[n]).max()))
            psd[n] = row
        residual = change
        if change <= tol:
            fixed_point_gap = max(float(np.abs(reply(n) - psd[n]).max()) for n in range(n_users))
            if fixed_point_gap <= tol:
                converged = True
                break
    allocation = PowerAllocation(psd)
    rates = _rates(psd, ch.gain2, noise.psd, grid.bin_width)
    return IwResult(allocation, rates, sweeps, converged, residual)


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
    if ch.user_count != 2:
        raise ValueError("follower response is defined for two-user scenarios")
    rows = np.asarray(leader_alloc, dtype=float)[None]
    replies, rates = _follower_replies(leader, rows, ch, noise, budgets, grid)
    return replies[0], rates[0]


def _budget_splits(levels: int, bins: int, full_only: bool = False):
    """Integer splits of the budget over bins, lexicographic.

    With full_only the splits sum to exactly `levels`; otherwise any total
    up to `levels` is allowed, so staying (partly) silent is a candidate.
    """

    def rec(remaining, parts):
        if parts == 1:
            if full_only:
                yield (remaining,)
            else:
                for v in range(remaining + 1):
                    yield (v,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    yield from rec(levels, bins)


def _candidate_rows(levels: int, grid: FrequencyGrid, budget: float, full_only=False) -> np.ndarray:
    unit = budget / (levels * grid.bin_width)
    splits = list(_budget_splits(levels, grid.bin_count, full_only=full_only))
    return np.asarray(splits, dtype=float) * unit


def stackelberg_leader_search(
    leader: int,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
    refine_rounds: int = 40,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> StackelbergResult:
    """Sub-optimal global search for the best leader commitment.

    The follower always water-fills against the leader (the lower level of
    the bi-level program), so the leader only searches its own allocation.
    For up to four bins the leader enumerates a budget-splitting grid with
    `levels` steps; for wider grids it runs coordinate descent from the
    iterative-water-filling allocation, moving budget/levels of power
    between bin pairs while any move helps.  The Nash allocation is always
    the first candidate, so the leader never finishes below its Nash rate.
    """
    if ch.user_count != 2:
        raise ValueError("the leader search is defined for two-user scenarios")
    if levels < 2:
        raise ValueError("levels must be at least 2")
    nash = iterative_water_filling(ch, noise, budgets, grid, tol=tol, max_iter=max_iter)
    ne_row = np.array(nash.allocation.psd[leader])
    evaluated = 0

    def best_of(rows):
        # every row priced in one batch; ties keep the first row, as a scan
        # accepting only strict improvements would
        nonlocal evaluated
        evaluated += len(rows)
        replies, rates = _follower_replies(leader, rows, ch, noise, budgets, grid)
        i = int(np.argmax(rates[:, leader]))
        return rows[i], replies[i], rates[i]

    if grid.bin_count <= 4:
        candidates = _candidate_rows(levels, grid, budgets.budget[leader])
        best_row, best_reply, best_rates = best_of(np.vstack([ne_row, candidates]))
    else:
        best_row, best_reply, best_rates = best_of(ne_row[None])
        # transfers are in PSD units so each move shifts budget/levels of power
        step = budgets.budget[leader] / (levels * grid.bin_width)
        bins = range(grid.bin_count)
        pairs = np.array([(src, dst) for src in bins for dst in bins if dst != src])
        current_row, current_reply, current_rates = best_row, best_reply, best_rates
        for _ in range(refine_rounds):
            src, dst = pairs[current_row[pairs[:, 0]] >= step].T
            if not len(src):
                break
            trials = np.repeat(current_row[None], len(src), axis=0)
            trials[np.arange(len(src)), src] -= step
            trials[np.arange(len(src)), dst] += step
            move = best_of(trials)
            if move[2][leader] <= current_rates[leader]:
                break
            current_row, current_reply, current_rates = move
        if current_rates[leader] > best_rates[leader]:
            best_row, best_reply, best_rates = current_row, current_reply, current_rates

    return StackelbergResult(
        leader=leader,
        leader_allocation=np.array(best_row),
        follower_allocation=np.array(best_reply),
        rates=np.array(best_rates),
        candidates_evaluated=evaluated,
    )


def _joint_grid_rates(ch, noise, budgets, grid, levels, max_evaluations):
    """Rate pairs over the joint budget-splitting grid, one user-1 split at a time.

    Every pair of splits (totals up to the budget, so silence is allowed) is
    priced; each step yields the rates of both users for one user-1 split
    against every user-2 split, in lexicographic order.
    """
    if ch.user_count != 2:
        raise ValueError("the grid oracle is defined for two-user scenarios")
    cands1 = _candidate_rows(levels, grid, budgets.budget[0])
    cands2 = _candidate_rows(levels, grid, budgets.budget[1])
    total = cands1.shape[0] * cands2.shape[0]
    if total > max_evaluations:
        raise OracleScaleError(
            f"oracle scale exceeded: {total} joint evaluations over cap {max_evaluations}"
        )
    df = grid.bin_width
    g11, g22 = ch.gain2[0, 0], ch.gain2[1, 1]
    g12, g21 = ch.gain2[0, 1], ch.gain2[1, 0]
    sigma1, sigma2 = noise.psd[0], noise.psd[1]
    for row1 in cands1:
        # user 1 suffers interference from every user-2 candidate at once
        r1 = (np.log2(1.0 + row1 * g11 / (sigma1 + cands2 * g21))).sum(axis=1) * df
        r2 = (np.log2(1.0 + cands2 * g22 / (sigma2 + row1 * g12))).sum(axis=1) * df
        yield r1, r2


def _pareto_argmax(
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int,
    weight_list,
    max_evaluations: int = MAX_ORACLE_EVALUATIONS,
):
    """Exhaustive weighted-sum maximization on the joint allocation grid.

    Returns, per weight vector, the best value and rate pair.  Ties break
    toward the lexicographically first pair of splits.  Shared across
    weights so a frontier sweep prices the grid once.
    """
    weights = [np.asarray(w, dtype=float) for w in weight_list]
    best_val = [-np.inf] * len(weights)
    best_rates = [None] * len(weights)
    for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels, max_evaluations):
        for wi, w in enumerate(weights):
            objective = w[0] * r1 + w[1] * r2
            j = int(np.argmax(objective))
            if objective[j] > best_val[wi]:
                best_val[wi] = float(objective[j])
                best_rates[wi] = np.array([r1[j], r2[j]])
    return best_val, best_rates


def grid_dominance_margin(
    target_rates,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
    max_evaluations: int = MAX_ORACLE_EVALUATIONS,
) -> float:
    """Best componentwise improvement over target_rates on the joint grid.

    Returns max over all grid allocation pairs of min_n (R_n - target_n); a
    nonnegative value certifies that the cooperative grid frontier weakly
    dominates the target point.  Same exhaustive oracle as the weighted-sum
    maximization, scanned with the max-min objective instead of a fixed
    weight.
    """
    target = np.asarray(target_rates, dtype=float)
    best = -np.inf
    for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels, max_evaluations):
        margin = np.minimum(r1 - target[0], r2 - target[1]).max()
        if margin > best:
            best = float(margin)
    return best


def weighted_sum_optimize(
    weights,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
) -> RegionSample:
    """Brute-force Pareto point: maximize w1*R1 + w2*R2 over the joint grid.

    This is the certified desk-scale oracle for the cooperative frontier,
    not a scalable solver.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    _, rates = _pareto_argmax(ch, noise, budgets, grid, levels, [weights])
    return RegionSample(method="pareto", params=tuple(float(w) for w in weights), rates=rates[0])


def rate_region_sweep(
    method: str,
    ch: ChannelSet,
    noise: NoiseProfile,
    grid: FrequencyGrid,
    budget_pairs=None,
    weights=None,
    budgets: PowerBudget | None = None,
    leader: int = 0,
    levels: int = 10,
    refine_rounds: int = 40,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> list:
    """One RegionSample per sweep point for a chosen solution method.

    iw and stackelberg sweep budget pairs; pareto sweeps weight vectors at
    fixed budgets.  Empty sweeps give empty output.
    """
    samples = []
    if method == "iw":
        for pair in budget_pairs or []:
            b = PowerBudget(np.asarray(pair, dtype=float))
            res = iterative_water_filling(ch, noise, b, grid, tol=tol, max_iter=max_iter)
            samples.append(RegionSample("iw", tuple(float(p) for p in pair), res.rates))
    elif method == "stackelberg":
        for pair in budget_pairs or []:
            b = PowerBudget(np.asarray(pair, dtype=float))
            res = stackelberg_leader_search(
                leader, ch, noise, b, grid, levels=levels, refine_rounds=refine_rounds,
                tol=tol, max_iter=max_iter,
            )
            samples.append(
                RegionSample("stackelberg", tuple(float(p) for p in pair), res.rates, leader=leader)
            )
    elif method == "pareto":
        weight_list = [np.asarray(w, dtype=float) for w in (weights or [])]
        if weight_list:
            if budgets is None:
                raise ValueError("pareto sweeps need fixed budgets")
            _, rate_list = _pareto_argmax(ch, noise, budgets, grid, levels, weight_list)
            for w, r in zip(weight_list, rate_list):
                samples.append(RegionSample("pareto", tuple(float(x) for x in w), r))
    else:
        raise ValueError(f"unknown sweep method {method!r}")
    return samples
