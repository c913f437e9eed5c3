"""Equilibrium computation on the continuous multi-user power control game.

The decision variable of each user is its per-bin transmit PSD under a total
power budget.  Three solution routes are provided:

* iterative water-filling: sequential best-response dynamics whose fixed
  points are Nash equilibria of the rate game;
* a leader-commitment search for two users, where the leader explores its
  candidate allocations while the follower always water-fills against the
  leader's interference (the bi-level structure of heterogeneous knowledge);
* an exact weighted rate-sum oracle over a budget-splitting grid, used as
  the Pareto reference for rate-region comparisons: a per-bin dynamic
  program bounds the grid, and the pairs the bound cannot rule out are
  priced as an exhaustive scan would price them; the same bounds prune a
  branch and bound for the grid's best componentwise improvement over a
  target point (the dominance margin).
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

# Joint grid pairs the oracles may range over, or leader candidates the
# leader search may price, before refusing; covers two users, four bins,
# twenty levels.
MAX_ORACLE_EVALUATIONS = 4_000_000
# Joint pairs, prefix bounds or leader candidates priced per numpy call
# (temporaries ~128 KB).
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
        if len(w) != 2 or not (np.all(np.isfinite(w)) and np.all(w >= 0) and np.any(w > 0)):
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

    def best_of(blocks):
        # ties keep the first row, as a scan accepting only strict
        # improvements would
        nonlocal evaluated
        best = None
        for rows in blocks:
            evaluated += len(rows)
            replies, rates = _follower_replies(leader, rows, ch, noise, budgets, grid)
            i = int(np.argmax(rates[:, leader]))
            if best is None or rates[i, leader] > best[2][leader]:
                best = rows[i], replies[i], rates[i]
        return best

    if bins <= 4:
        # blocks of BLOCK_SIZE rows, the Nash row first; a block's integer
        # splits are scaled only when it is priced
        splits = _budget_splits(levels, bins)
        best_row, best_reply, best_rates = best_of(
            np.vstack([ne_row, splits[:start + BLOCK_SIZE] * step]) if start < 0 else splits[start:start + BLOCK_SIZE] * step
            for start in range(-1, len(splits), BLOCK_SIZE)
        )
    else:
        best_row, best_reply, best_rates = best_of([ne_row[None]])
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
            move = best_of(trials[start:start + BLOCK_SIZE] for start in range(0, len(trials), BLOCK_SIZE))
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


def _term_tables(ch, noise, budgets, grid, levels):
    """Both users' per-bin log2 rate terms over the joint grid's levels.

    term[k, a, b] is bin k's term with user 1 at level a and user 2 at level
    b, on the rate kernel's floor for two users; a rate is df times the sum
    of its bins' terms.  Grids over MAX_ORACLE_EVALUATIONS joint pairs are
    refused with OracleScaleError before anything is built; a term that is
    not finite (budgets so large that a product overflows) raises
    ArithmeticError.
    """
    _check_scale(math.comb(levels + grid.bin_count, grid.bin_count) ** 2, "joint evaluations")
    df = grid.bin_width
    p1, p2 = (np.arange(levels + 1) * (b / (levels * df)) for b in budgets.budget)
    g, sigma, p1 = ch.gain2[..., None, None], noise.psd[..., None, None], p1[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (p1 * g[0, 0] / (sigma[0] + p2 * g[1, 0]), p2 * g[1, 1] / (sigma[1] + p1 * g[0, 1]))
        for t in terms:  # log2(1 + x) in place, one table-sized array per user
            t += 1.0
            np.log2(t, out=t)
    if not np.isfinite([t.max() for t in terms]).all():
        raise ArithmeticError("oracle rate terms are not finite")
    return terms


def _joint_grid_rates(ch, noise, budgets, grid, levels, terms=None):
    """Rate pairs over the joint budget-splitting grid, in bounded blocks.

    Every pair of splits (totals up to the budget, so silence is allowed) is
    priced from the `_term_tables` (built here unless given), summed in bin
    order; each step yields both users' rates (B, M) for B user-1 splits by
    all M user-2 splits, lexicographic, with B*M about BLOCK_SIZE.
    """
    terms = terms or _term_tables(ch, noise, budgets, grid, levels)
    splits = _budget_splits(levels, grid.bin_count)
    # each bin's user-2 columns are gathered once, then rows per block
    columns = [[t[k][:, col] for k, col in enumerate(splits.T)] for t in terms]
    rows = max(1, BLOCK_SIZE // len(splits))
    for block in np.split(splits.T, range(rows, len(splits), rows), axis=1):
        rates = [cols[0][block[0]] for cols in columns]
        for r, cols in zip(rates, columns):
            for col, user1_levels in zip(cols[1:], block[1:]):
                r += col[user1_levels]
            r *= grid.bin_width
        yield rates


def _pareto_bounds(t1, t2, w, df):
    """Dynamic-program bounds of the weighted rate sums for weight rows w (G, 2).

    Returns c[g, k, a, b] = w'[g, 0] t1[k, a, b] + w'[g, 1] t2[k, a, b], with
    w' = w 2**-e for one e per row so that no sum overflows; the suffix
    tables tails[k - 1] (flat), where [g, L - u, L - v + b] holds V_k[u, v - b],
    the best sum of c over bins k.. with at most u and v levels left (-inf
    past either budget); each root row's best bound, best_of_row[g, a] =
    max over b of c[g, 0, a, b] + V_1[L - a, L - b]; and per row the floor
    that no prefix of a pair the scan could return falls below.
    """
    count, (bins, n, _) = len(w), t1.shape
    e = np.frexp(w.max(axis=1))[1]
    scaled = np.ldexp(w, -e[:, None])
    c = scaled[:, 0, None, None, None] * t1
    for lo in range(0, t2.size, BLOCK_SIZE):  # without a second table-sized temporary
        c.reshape(count, -1)[:, lo:lo + BLOCK_SIZE] += scaled[:, 1, None] * t2.reshape(-1)[lo:lo + BLOCK_SIZE]
    tails = np.full((bins - 1, count, 2 * n - 1, 2 * n - 1), -np.inf)
    if bins > 1:
        # V_{K-1} is a 2-D running max, each earlier V one (max, +) step
        v = np.maximum.accumulate(np.maximum.accumulate(c[:, -1], axis=1), axis=2)
        level = np.arange(n)
        shift = np.where(level[:, None] >= level, level[:, None] - level, n)  # [v, b] -> v - b, or n
        for k in range(bins - 1, 0, -1):
            if k < bins - 1:
                ext = np.concatenate([v, np.full((count, n, 1), -np.inf)], axis=2)
                v = np.full_like(v, -np.inf)
                for a in range(n):  # rows u >= a, user 1 at level a in bin k
                    np.maximum(v[:, a:], (c[:, k, a, None, None] + ext[:, :n - a, shift]).max(axis=3), out=v[:, a:])
            tails[k - 1, :, :n, :n] = v[:, ::-1, ::-1]
        best_of_row = (c[:, 0] + v[:, ::-1, ::-1]).max(axis=2)
    else:
        best_of_row = c[:, 0].max(axis=2)
    opt = best_of_row.max(axis=1)
    # Rounding slack.  Terms lie in [0, 1024] (log2 of a finite float) and the
    # scaled weights are exact unless they underflow.  Against the exact
    # scaled term sum of a pair, its bounds, the optimum's path sum and the
    # scan's value (times 2**-e / df) each err by at most K + 2 roundings of
    # relative size 2**-53, plus underflow errors of at most 2**-1075 per
    # product: K*2*1025 in a bound, (2 + 2 * 2**-e) / df in the scan's value.
    # So a pair the scan could return keeps every prefix bound above
    # opt - 4(K+2) 2**-53 opt - 2(K*1025 + (1 + 2**-e) / df) 2**-1074; the
    # factors 5 and 3 in place of 4 and 2 absorb the second-order terms.
    tiny = math.ulp(0.0)
    slack = 5 * (bins + 2) * 2.0**-53 * opt + 3 * (bins * 1025 * tiny + (tiny + np.ldexp(tiny, -e)) / df)
    return c, tails.reshape(bins - 1, count * (2 * n - 1) ** 2), best_of_row, opt - slack


def _prefix_levels(rem1, rows):
    """A block's children as (prefix, user-1 level) rows, at most `rows` at a time.

    Each prefix i gives one row per level 0..rem1[i] left to user 1 (every
    user-2 level is a column), in order.
    """
    for first in range(0, len(rem1), rows):
        span = rem1[first:first + rows] + 1
        parent = np.repeat(np.arange(first, first + len(span)), span)
        own = np.arange(len(parent)) - np.repeat(np.cumsum(span) - span, span)
        for lo in range(0, len(parent), rows):
            yield parent[lo:lo + rows], own[lo:lo + rows]


def _pareto_walk(t1, t2, w, df, budget):
    """Each weight row's best (value, pair key, rates), walking the pairs' prefixes.

    The walk goes bin by bin and keeps the prefixes whose bound (partial sum
    of c plus the suffix table at the levels left, from `_pareto_bounds`)
    reaches their row's floor.  Each prefix carries both users' terms summed
    in bin order, so a whole pair is priced as the scan prices it; among
    equal values the lexicographically first (user-1 split, user-2 split)
    key wins.  Blocks hold at most BLOCK_SIZE // K prefixes, listed by
    weight row, and each step prices at most about BLOCK_SIZE bounds, so
    memory stays bounded even when every pair ties.  Returns (None, kept)
    as soon as more than `budget` prefixes are kept, else (best, kept).
    """
    c, tails, best_of_row, floor = _pareto_bounds(t1, t2, w, df)
    count, bins, n, _ = c.shape
    levels, wide, level = n - 1, 2 * n - 1, np.arange(n)
    size, rows = max(1, BLOCK_SIZE // bins), max(1, BLOCK_SIZE // n)

    def expand(block, j):
        # children through bin j that keep their bound, over rows (prefix,
        # user-1 level a) of every user-2 level b, `rows` rows at a time
        _, _, _, partial, sum1, sum2, rem1, rem2, wid = block
        for p, a in _prefix_levels(rem1, rows):
            if j == 0:  # the root's rows whose best bound misses the floor go at once
                kept = best_of_row[wid[p], a] >= floor[wid[p]]
                p, a = p[kept], a[kept]
            g = wid[p]
            head = partial[p, None] + c[g, j, a]
            if j + 1 < bins:
                at = ((g * wide + levels - rem1[p] + a) * wide + levels - rem2[p])[:, None] + level
                keep = head + tails[j][at] >= floor[g, None]
            else:
                keep = (head >= floor[g, None]) & (level <= rem2[p, None])
            r, b = np.nonzero(keep)
            for i in (slice(s, s + size) for s in range(0, len(b), size)):
                pi, ai, bi = p[r[i]], a[r[i]], b[i]
                yield (pi, ai, bi, head[r[i], bi], sum1[pi] + t1[j, ai, bi], sum2[pi] + t2[j, ai, bi],
                       rem1[pi] - ai, rem2[pi] - bi, wid[pi])

    def keys(block, which):
        # (user-1 split, user-2 split) of the block's rows `which`, recovered up the stack
        split1, split2 = (np.empty((len(which), bins), dtype=np.intp) for _ in range(2))
        p, split1[:, -1], split2[:, -1] = block[0][which], block[1][which], block[2][which]
        for k in range(bins - 2, -1, -1):
            up = stack[k + 1][0]
            split1[:, k], split2[:, k] = up[1][p], up[2][p]
            p = up[0][p]
        return np.hstack([split1, split2])

    # a block of prefixes: parent row in the block above, levels a and b of
    # its last bin, the bound's partial sum, the users' term sums, levels
    # left to users 1 and 2, weight row
    zero, full = np.zeros(count), np.full(count, levels)
    root = (None, None, None, zero, zero, zero, full, full, np.arange(count))
    best, kept, stack = [(-np.inf, None, None)] * count, 0, [(root, expand(root, 0))]
    while stack:
        block = next(stack[-1][1], None)
        if block is None:
            stack.pop()
            continue
        kept += len(block[8])
        if kept > budget:
            return None, kept
        if len(stack) < bins:
            stack.append((block, expand(block, len(stack))))
            continue
        g = block[8]
        with np.errstate(over="ignore"):
            r1, r2 = block[4] * df, block[5] * df
            objective = w[g, 0] * r1 + w[g, 1] * r2
        # each weight row's best value in the block, then its first pair
        starts = np.flatnonzero(np.diff(g, prepend=-1))
        tops = np.maximum.reduceat(objective, starts)
        tied = np.flatnonzero(objective == np.repeat(tops, np.diff(starts, append=len(g))))
        key = keys(block, tied)
        order = np.lexsort([*key.T[::-1], g[tied]])
        for i in order[np.flatnonzero(np.diff(g[tied[order]], prepend=-1))].tolist():
            top, row, pair = objective[tied[i]], g[tied[i]], tuple(key[i].tolist())
            value, first, _ = best[row]
            if top > value or (top == value and pair < first):
                best[row] = (top, pair, np.array([r1[tied[i]], r2[tied[i]]]))
    return best, kept


def _walk_budget(levels, bins):
    """Prefixes an oracle's walks may keep before one scan answers instead.

    -1 where the grid is at most BLOCK_SIZE pairs, since one block of the
    scan is cheaper than any walk; else max(2**14, pairs / 16), which only
    grids where most pairs tie reach.
    """
    pairs = math.comb(levels + bins, bins) ** 2
    return max(1 << 14, pairs >> 4) if pairs > BLOCK_SIZE else -1


def _pareto_argmax(
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int,
    weight_list,
):
    """Exact weighted-sum maximization on the joint allocation grid.

    Returns, per weight vector, the best value and rate pair, bit for bit
    those of a scan over every pair of splits: each user's terms summed in
    bin order, times df, then w[0]*r1 + w[1]*r2, with ties broken toward the
    lexicographically first (user-1 split, user-2 split) pair.

    The weighted sum separates by bin and only the two budget counters link
    the bins, so a dynamic program over (bin, levels left to user 1, levels
    left to user 2) bounds every completion of a prefix of bins
    (`_pareto_bounds`).  A walk over the prefixes drops those whose bound
    falls below the optimum by more than a rounding slack, and prices the
    surviving pairs in the scan's arithmetic (`_pareto_walk`).  Weights
    share one walk, as many as keep its tables within 2**18 entries.  A grid
    of at most BLOCK_SIZE pairs is one block of the scan, which is cheaper
    than the walk.  Ties (zero gains, bins with equal gains) can keep most
    of the grid; once the walks have kept max(2**14, pairs / 16) prefixes,
    one scan prices the remaining weights.  Refused, like the scan, over
    MAX_ORACLE_EVALUATIONS joint pairs; raises ArithmeticError when a term
    or a best weighted value is not finite.
    """
    t1, t2 = _term_tables(ch, noise, budgets, grid, levels)
    bins, n, df = grid.bin_count, levels + 1, grid.bin_width
    weights = np.array(weight_list, dtype=float).reshape(-1, 2)
    group = max(1, (1 << 18) // (5 * bins * n * n + (bins > 2) * n**3))
    budget, found = _walk_budget(levels, bins), []
    for w in (weights[i:i + group] for i in range(0, len(weights), group)):
        best, kept = _pareto_walk(t1, t2, w, df, budget) if budget >= 0 else (None, 0)
        budget -= kept
        found += best or [None] * len(w)
    rest = [i for i, f in enumerate(found) if f is None]
    if rest:
        # the scan: first maximum of each block, strict gains across blocks
        for i in rest:
            found[i] = (-np.inf, None, None)
        with np.errstate(over="ignore"):
            for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels, (t1, t2)):
                for i in rest:
                    objective = weights[i, 0] * r1 + weights[i, 1] * r2
                    j = int(np.argmax(objective))
                    if objective.flat[j] > found[i][0]:
                        found[i] = (objective.flat[j], None, np.array([r1.flat[j], r2.flat[j]]))
    for row, (value, _, _) in zip(weights.tolist(), found):
        if not math.isfinite(value):
            raise ArithmeticError(f"weighted rate sum for weights {tuple(row)} is not finite")
    return [float(value) for value, _, _ in found], [rates for _, _, rates in found]


def _margin_walk(t1, t2, target, df, budget):
    """The best margin min_n (R_n - target_n) over the joint grid, walking the pairs' prefixes.

    A pair whose margin reaches m has R_n >= target_n + m for each user, so
    w.R >= w.(target + m) for every w >= 0.  The per-bin dynamic-program
    bounds of `_pareto_bounds` for the rows (1, 0), (0, 1) and (1, 1) thus
    drop each prefix for which one row's partial sum plus its suffix table
    misses that row's floor at the incumbent m (less a rounding slack); the
    per-user rows alone leave many prefixes whose users would each need the
    other's best bins.  The kept children of a block are taken best margin
    bound first, in chunks of 32 tested again as they are taken, so that the
    incumbent rises early.  Leaves are priced as the scan prices them (each
    user's terms summed in bin order, times df, then the min), and every
    leaf whose margin reaches the incumbent is kept and raises it, so the
    result is the scan's bit for bit.  Children are built BLOCK_SIZE at a
    time, so memory stays bounded when every pair ties.  Returns (None,
    kept) as soon as more than `budget` prefixes and leaves are kept, else
    (best, kept).
    """
    bins, n, _ = t1.shape
    levels, wide, level = n - 1, 2 * n - 1, np.arange(n)
    rows = max(1, BLOCK_SIZE // n)
    tau1, tau2 = map(float, target)
    if bins > 1:
        # each row's largest weight is 1, so c = w t / 2
        c, tails, _, _ = _pareto_bounds(t1, t2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), df)
        tails = tails.reshape(bins - 1, 3, wide * wide)
    # Rounding slack.  Let u = 2**-53, A_n the exact sum of a pair's terms
    # and mag_n = |target_n| + |m| + 2 df (sum over bins of t_n's largest
    # term), which bounds |R_n - target_n| and df A_n.  If the pair's margin
    # is at least m, the scan's subtraction, its product by df and its K - 1
    # additions of nonnegative terms give df A_n >= target_n + m -
    # (K + 1.01) u mag_n - 2**-1074.  A bound of a prefix of the pair sums K
    # entries of c (one rounding each in row (1, 1), underflow of at most
    # 2**-1074 each) with K - 1 additions, so it is at least w.A/2 - K u
    # w.A/2 - K 2**-1074.  The floor w.(target + m)/(2 df), computed with at
    # most 4 roundings, less the slack, with one more, thus stays below the
    # bound if the slack is at least (1 + u) times (K + 3.01) u w.mag/df +
    # (K + 1 + 1/df) 2**-1074; K + 4 and the factor 3 absorb the slack's own
    # roundings.
    tiny, u = math.ulp(0.0), 2.0**-53
    top = [2 * df * float(t.max(axis=(1, 2)).sum()) for t in (t1, t2)]
    # a row's bound less its w.target / (2 df), over the row's weight sum,
    # bounds the margin / (2 df): the children's order
    half = [0.5 * x / df for x in (tau1, tau2, tau1 + tau2)]

    def floors(m):
        # per row, no prefix of a pair whose margin reaches m falls below it
        need, mag = [tau1 + m, tau2 + m], [abs(tau1) + abs(m) + top[0], abs(tau2) + abs(m) + top[1]]
        f = [0.5 * x / df - ((bins + 4) * u * y / df + 3 * ((bins + 1) * tiny + tiny / df))
             for x, y in zip(need + [need[0] + need[1]], mag + [mag[0] + mag[1]])]
        return [x if x == x else -math.inf for x in f]  # inf - inf only for targets near overflow

    def chunks(block, j):
        # children through bin j that reach every floor, best margin bound first
        part, s1, s2, rem1, rem2 = block
        for p, a in _prefix_levels(rem1, rows):
            head = part[:, p, None] + c[:, j, a]
            at = ((levels - rem1[p] + a) * wide + levels - rem2[p])[:, None] + level
            bound = head + tails[j][:, at]
            r, b = np.nonzero((bound >= floor[:, None, None]).all(axis=0) & (level <= rem2[p, None]))
            head, bound = head[:, r, b], bound[:, r, b]
            key = np.minimum(np.minimum(bound[0] - half[0], bound[1] - half[1]), 0.5 * (bound[2] - half[2]))
            order = np.argsort(-key)
            for start in range(0, len(order), 32):
                i = order[start:start + 32]
                i = i[(bound[:, i] >= floor[:, None]).all(axis=0)]
                if len(i):
                    pi, ai, bi = p[r[i]], a[r[i]], b[i]
                    yield head[:, i], s1[pi] + t1[j, ai, bi], s2[pi] + t2[j, ai, bi], rem1[pi] - ai, rem2[pi] - bi

    def price(block, j):
        # the leaves through the last bin, in the scan's arithmetic
        nonlocal best, kept
        _, s1, s2, rem1, rem2 = block
        for p, a in _prefix_levels(rem1, rows):
            r1, r2 = s1[p, None] + t1[j, a], s2[p, None] + t2[j, a]
            with np.errstate(over="ignore"):
                r1 *= df
                r2 *= df
                margin = np.minimum(r1 - tau1, r2 - tau2)
            keep = (margin >= best) & (level <= rem2[p, None])
            count = int(np.count_nonzero(keep))
            if count:
                kept += count
                best = max(best, float(margin[keep].max()))
                floor[:] = floors(best)
                if kept > budget:
                    return

    def expand(block, j):
        if j + 1 < bins:
            stack.append(chunks(block, j))
        else:
            price(block, j)

    # a block of prefixes: each row's partial bound, the users' term sums,
    # levels left to users 1 and 2
    best, kept, stack = -math.inf, 0, []
    floor = np.array(floors(best))
    zero, full = np.zeros(1), np.array([levels])
    expand((np.zeros((3, 1)), zero, zero, full, full), 0)
    while stack and kept <= budget:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
            continue
        kept += len(block[3])
        expand(block, len(stack))
    return (best if kept <= budget else None), kept


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
    dominates the target point.  The value is bit for bit that of a scan
    over every pair of splits (each user's terms summed in bin order, times
    df), found by a branch and bound over the pairs' prefixes with the
    weighted-sum oracle's per-bin bounds (`_margin_walk`).  A grid of at
    most BLOCK_SIZE pairs is one block of the scan; where ties keep more
    than max(2**14, pairs / 16) prefixes and leaves, the scan answers
    instead.  Refused over MAX_ORACLE_EVALUATIONS joint pairs; raises
    ArithmeticError when a term or the margin is not finite.
    """
    target = np.asarray(target_rates, dtype=float)
    _check_inputs(ch, noise, budgets, grid, levels=levels, target=target)
    terms = _term_tables(ch, noise, budgets, grid, levels)
    budget = _walk_budget(levels, grid.bin_count)
    best, _ = _margin_walk(*terms, target, grid.bin_width, budget) if budget >= 0 else (None, 0)
    if best is None:
        best = -np.inf
        with np.errstate(over="ignore"):
            for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels, terms):
                margin = np.minimum(r1 - target[0], r2 - target[1]).max()
                if margin > best:
                    best = float(margin)
    if not math.isfinite(best):
        raise ArithmeticError("dominance margin is not finite")
    return best


def pareto_sweep(
    weight_list,
    ch: ChannelSet,
    noise: NoiseProfile,
    budgets: PowerBudget,
    grid: FrequencyGrid,
    levels: int = 10,
) -> list:
    """Exact Pareto points: maximize w1*R1 + w2*R2 over the joint grid.

    One RegionSample per weight vector; no weights give no samples.  The
    values, rates and tie choices are those of a scan over every pair of
    splits, found by a per-bin dynamic-program bound that rules out all
    but a few pairs (`_pareto_argmax`).  Grids over MAX_ORACLE_EVALUATIONS
    joint pairs are refused with OracleScaleError, as for the dominance
    margin; a best weighted value that is not finite raises
    ArithmeticError.
    """
    weights = [tuple(float(x) for x in w) for w in weight_list]
    _check_inputs(ch, noise, budgets, grid, levels=levels, weights=weights)
    if not weights:
        return []
    _, rate_list = _pareto_argmax(ch, noise, budgets, grid, levels, weights)
    return [RegionSample("pareto", w, r) for w, r in zip(weights, rate_list)]

