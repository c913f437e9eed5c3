"""Equilibrium computation on the continuous multi-user power control game.

The decision variable of each user is its per-bin transmit PSD under a total
power budget.  Three solution routes are provided:

* iterative water-filling: sequential best-response dynamics whose fixed
  points are Nash equilibria of the rate game;
* a leader-commitment search for two users, where the leader explores its
  candidate allocations while the follower always water-fills against the
  leader's interference (the bi-level structure of heterogeneous knowledge);
* exact oracles over a budget-splitting grid of both users: the weighted
  rate-sum optimum, the Pareto reference for rate-region comparisons, and
  the best componentwise improvement over a target point (the dominance
  margin).  One walk over prefixes of bins, pruned by the bounds of a
  per-bin dynamic program, prices the pairs the bounds cannot rule out as
  an exhaustive scan would price them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf
from operator import sub

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
# leader search may price, before refusing: at four bins, the leader grid up
# to twenty levels (comb(24, 4) = 10,626 candidates) and the joint grid up to
# twelve (comb(16, 4)**2 = 3,312,400 pairs; 5,664,400 at thirteen).
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


def _level_step(budget, levels, df) -> float:
    """budget / (levels * df), the PSD of one of `levels` budget steps.

    ArithmeticError unless it is positive and finite: a product levels * df
    that overflows would otherwise zero every level without a word.
    """
    budget = float(budget)
    step = budget / (levels * df)
    if not 0.0 < step < math.inf:
        raise ArithmeticError(f"power step {budget!r} / ({levels} * {df!r}) is not positive and finite")
    return step


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
    runs on Python floats through the single-row water-fill kernel, on
    floors formed in the pass that adds the last interferer.  The last
    user of a sweep replied to its final state, so its gap is 0 and only
    the other users reply again.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _integer(max_iter, "max_iter", 1)
    _check_inputs(ch, noise, budgets, grid, users=None)
    n_users, k = ch.user_count, ch.bin_count

    gain2, sigma, budget = ch.gain2.tolist(), noise.psd.tolist(), budgets.budget.tolist()
    bin_width, users = grid.bin_width, range(n_users)
    psd = [[0.0] * k for _ in users]
    # each user's interferers in index order, with their gains into its receiver
    others = [[(j, gain2[j][n]) for j in users if j != n] for n in users]

    def reply(n):
        # the floors (sigma + sum of p g) / d of `_effective_noise_raw`, the same operations in
        # the same order, inf where the direct gain d is not positive; the last interferer's pass divides
        floor, direct = sigma[n], gain2[n][n]
        for j, cross in others[n][:-1]:
            floor = [f + p * g for f, p, g in zip(floor, psd[j], cross)]
        if others[n]:
            j, cross = others[n][-1]
            floors = [(f + p * g) / d if d > 0.0 else inf for f, p, g, d in zip(floor, psd[j], cross, direct)]
        else:  # a lone user
            floors = [f / d if d > 0.0 else inf for f, d in zip(floor, direct)]
        return _water_fill_row(floors, budget[n], bin_width)

    converged = False
    residual = fixed_point_gap = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        moves = []
        for n in users:
            row = reply(n)
            moves.append(max(map(abs, map(sub, row, psd[n]))))
            psd[n] = row
        residual = max(moves)
        if residual <= tol:
            # the last user replied to this very state, so its gap is exactly 0
            fixed_point_gap = max((max(map(abs, map(sub, reply(n), psd[n]))) for n in users[:-1]), default=0.0)
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

    Two-user scenarios only; the leader row must be finite and nonnegative.
    Returns (follower PSD row, rate vector for both users at the resulting
    joint allocation).
    """
    _check_inputs(ch, noise, budgets, grid, leader=leader)
    rows = np.asarray(leader_alloc, dtype=float)[None]
    if rows.shape != (1, ch.bin_count):
        raise ValueError(f"leader_alloc must hold {ch.bin_count} entries, not shape {rows.shape[1:]}")
    if not (np.isfinite(rows).all() and (rows >= 0.0).all()):
        raise ValueError(f"leader_alloc entries must be finite and >= 0, not {rows[0].tolist()!r}")
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
    over MAX_ORACLE_EVALUATIONS candidates is refused with OracleScaleError,
    and a step that is not positive and finite with ArithmeticError.
    The Nash point is iterative water-filling at its default settings;
    leader must be 0 or 1.
    """
    _check_inputs(ch, noise, budgets, grid, leader=leader, levels=levels, min_levels=2)
    bins = grid.bin_count
    _check_scale(math.comb(levels + bins, bins) if bins <= 4 else 0, "leader grid candidates")
    # budget/levels of power in PSD units: the grid step and the descent move
    step = _level_step(budgets.budget[leader], levels, grid.bin_width)
    nash = iterative_water_filling(ch, noise, budgets, grid)
    ne_row = np.array(nash.allocation.psd[leader])
    evaluated = 0

    def best_of(blocks):
        # the index over all blocks, follower reply and rates of the best row;
        # ties keep the first row, as a scan accepting only strict
        # improvements would
        nonlocal evaluated
        best, seen = None, 0
        for rows in blocks:
            replies, rates = _follower_replies(leader, rows, ch, noise, budgets, grid)
            i = int(np.argmax(rates[:, leader]))
            if best is None or rates[i, leader] > best[2][leader]:
                best = seen + i, replies[i], rates[i]
            seen += len(rows)
        evaluated += seen
        return best

    if bins <= 4:
        # blocks of BLOCK_SIZE rows, the Nash row first; a block's integer
        # splits are scaled only when it is priced
        splits = _budget_splits(levels, bins)
        i, best_reply, best_rates = best_of(
            np.vstack([ne_row, splits[:start + BLOCK_SIZE] * step]) if start < 0 else splits[start:start + BLOCK_SIZE] * step
            for start in range(-1, len(splits), BLOCK_SIZE)
        )
        best_row = splits[i - 1] * step if i else ne_row
    else:
        pairs = np.array([(src, dst) for src in range(bins) for dst in range(bins) if dst != src])
        # the first pass prices the Nash row as its row 0, ahead of its moves,
        # and ends the descent if that row wins; each accepted move strictly
        # raises the leader's rate, so this ends
        best_row, best_rates, head = ne_row, np.full(2, -np.inf), 1
        while True:
            src, dst = pairs[best_row[pairs[:, 0]] >= step].T
            if not head + len(src):
                break
            _check_scale(evaluated + head + len(src), "leader descent candidates")
            trials = np.repeat(best_row[None], head + len(src), axis=0)
            moves = np.arange(head, len(trials))
            trials[moves, src] -= step
            trials[moves, dst] += step
            i, reply, rates = best_of(trials[start:start + BLOCK_SIZE] for start in range(0, len(trials), BLOCK_SIZE))
            if rates[leader] <= best_rates[leader]:
                break
            best_row, best_reply, best_rates = trials[i], reply, rates
            if i < head:
                break
            head = 0

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
    refused with OracleScaleError before anything is built; a power step
    that is not positive and finite, or a term that is not finite (budgets
    so large that a product overflows), raises ArithmeticError.
    """
    _check_scale(math.comb(levels + grid.bin_count, grid.bin_count) ** 2, "joint evaluations")
    df = grid.bin_width
    p1, p2 = (np.arange(levels + 1) * _level_step(b, levels, df) for b in budgets.budget)
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
        # V_{K-1} is a 2-D running max, each earlier V one (max, +) step:
        # V_k[u, v] = max over a <= u, b <= v of c[k, a, b] + V_{k+1}[u - a, v - b]
        v = np.maximum.accumulate(np.maximum.accumulate(c[:, -1], axis=1), axis=2)
        if bins > 2:
            # V_{k+1} behind n - 1 columns of -inf, and a window of it with
            # shifted[b, g, u, v] = V_{k+1}[g, u, v - b] (-inf for v < b), no copy;
            # per level a, one buffer of the sums, reduced over its leading axis b
            padded = np.full((count, n, 2 * n - 1), -np.inf)
            shifted = np.lib.stride_tricks.sliding_window_view(padded, n, axis=2)[..., ::-1].transpose(3, 0, 1, 2)
            buffer = np.empty(n * count * n * n)
        for k in range(bins - 1, 0, -1):
            if k < bins - 1:
                padded[:, :, n - 1:] = v
                v = np.full_like(v, -np.inf)
                for a in range(n):  # rows u >= a, user 1 at level a in bin k
                    sums = buffer[:n * count * (n - a) * n].reshape(n, count, n - a, n)
                    np.add(shifted[:, :, :n - a], c[:, k, a].T[:, :, None, None], out=sums)
                    np.maximum(v[:, a:], sums.max(axis=0), out=v[:, a:])
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


def _prefix_walk(t1, t2, c, tails, bound_rows, floor, take, leaf, budget):
    """Walk the joint grid's pairs as prefixes of bins; return the prefixes and leaves kept.

    A block of prefixes holds, per prefix: its parent in the block above,
    the levels a and b of its last bin, its bound rows' partial sums of c,
    both users' terms summed in bin order, the levels left to users 1 and 2
    and its group (the root: one empty prefix per group).  Group g's bounds
    use the rows bound_rows[:, g] of c and `tails` (`_pareto_bounds`); a
    child is kept when each bound, its partial sum plus the suffix table at
    the levels left (-inf past a budget), reaches its row's finite `floor`.
    Children are built BLOCK_SIZE // (L + 1) rows (prefix, user-1 level) at
    a time, so memory stays bounded when every pair ties; `take(bound)`
    yields the kept children of each such step as index arrays, one block
    each.  Through the last bin, `leaf(path, p, a)` gets the steps instead
    (path: the blocks from the root), may raise `floor` in place and
    returns the leaves it keeps.  Stops once more than `budget` are kept.
    """
    bins, n, _ = t1.shape
    levels, wide, level = n - 1, 2 * n - 1, np.arange(n)
    step, kept = max(1, BLOCK_SIZE // n), 0

    def children(block, j):
        nonlocal kept
        _, _, _, part, s1, s2, rem1, rem2, group = block
        for p, a in _prefix_levels(rem1, step):
            if j + 1 == bins:
                kept += leaf(path, p, a)
                if kept > budget:
                    return
                continue
            r = bound_rows[:, group[p]]
            head = part[:, p, None] + c[r, j, a]
            at = ((r * wide + levels - rem1[p] + a) * wide + levels - rem2[p])[..., None] + level
            bound = head + tails[j][at]
            i, b = np.nonzero((bound >= floor[r, None]).all(axis=0))
            for k in take(bound[:, i, b]):
                pi, ai, bi = p[i[k]], a[i[k]], b[k]
                yield (pi, ai, bi, head[:, i[k], bi], s1[pi] + t1[j, ai, bi], s2[pi] + t2[j, ai, bi],
                       rem1[pi] - ai, rem2[pi] - bi, group[pi])

    groups = bound_rows.shape[1]
    zero, full = np.zeros(groups), np.full(groups, levels)
    path = [(None, None, None, np.zeros(bound_rows.shape), zero, zero, full, full, np.arange(groups))]
    stack = [children(path[0], 0)]
    while stack and kept <= budget:
        block = next(stack[-1], None)
        if block is None:
            del path[-1], stack[-1]
        else:
            kept += len(block[0])
            path.append(block)
            stack.append(children(block, len(stack)))
    return kept


def _pareto_walk(t1, t2, w, df, budget):
    """Each weight row's best (value, pair key, rates), walking the pairs' prefixes.

    Each weight row is a group of `_prefix_walk` with its own bound row and
    fixed floor (`_pareto_bounds`).  Children and leaves are taken in index
    order, BLOCK_SIZE // K at a time, and each leaf is priced as the scan
    prices it, from its users' terms summed in bin order; among equal
    values the lexicographically first (user-1 split, user-2 split) key
    wins.  Returns (None, kept) once more than `budget` prefixes and leaves
    are kept, else (best, kept).
    """
    c, tails, _, floor = _pareto_bounds(t1, t2, w, df)
    bins, n, _ = t1.shape
    size, level = max(1, BLOCK_SIZE // bins), np.arange(n)
    best = [(-np.inf, None, None)] * len(w)

    def take(bound):
        return (slice(s, s + size) for s in range(0, bound.shape[-1], size))

    def keys(path, p, a, b):
        # (user-1 split, user-2 split) of the leaves, recovered up the path
        split1, split2 = [a], [b]
        for up in path[:0:-1]:
            split1.append(up[1][p])
            split2.append(up[2][p])
            p = up[0][p]
        return np.column_stack(split1[::-1] + split2[::-1])

    def leaf(path, p, a):
        _, _, _, part, s1, s2, _, rem2, group = path[-1]
        g = group[p]
        r, b = np.nonzero((part[0, p, None] + c[g, -1, a] >= floor[g, None]) & (level <= rem2[p, None]))
        for i in take(b):
            pi, ai, bi = p[r[i]], a[r[i]], b[i]
            g = group[pi]
            with np.errstate(over="ignore"):
                r1, r2 = (s1[pi] + t1[-1, ai, bi]) * df, (s2[pi] + t2[-1, ai, bi]) * df
                objective = w[g, 0] * r1 + w[g, 1] * r2
            # each weight row's best value in the block (blocks list their
            # prefixes by weight row), then its first pair
            starts = np.flatnonzero(np.diff(g, prepend=-1))
            tops = np.maximum.reduceat(objective, starts)
            tied = np.flatnonzero(objective == np.repeat(tops, np.diff(starts, append=len(g))))
            key = keys(path, pi[tied], ai[tied], bi[tied])
            order = np.lexsort([*key.T[::-1], g[tied]])
            for j in order[np.flatnonzero(np.diff(g[tied[order]], prepend=-1))].tolist():
                top, row, pair = objective[tied[j]], g[tied[j]], tuple(key[j].tolist())
                value, first, _ = best[row]
                if top > value or (top == value and pair < first):
                    best[row] = (top, pair, np.array([r1[tied[j]], r2[tied[j]]]))
        return len(b)

    kept = _prefix_walk(t1, t2, c, tails, np.arange(len(w))[None], floor, take, leaf, budget)
    return (best if kept <= budget else None), kept


def _margin_walk(t1, t2, target, df, budget):
    """The best margin min_n (R_n - target_n) over the joint grid, walking the pairs' prefixes.

    A pair whose margin reaches m has R_n >= target_n + m for each user, so
    w.R >= w.(target + m) for every w >= 0.  So `_prefix_walk` keeps a
    prefix only if its `_pareto_bounds` bound for each of the rows (1, 0),
    (0, 1) and (1, 1) reaches that row's floor at the incumbent m, less a
    rounding slack; the per-user rows alone leave many prefixes whose users
    would each need the other's best bins.  Children are taken best margin
    bound first, 32 at a time, so that the incumbent rises early; whenever
    the floors have risen, the children not yet taken are tested again in
    one pass.  Leaves are priced as the scan prices them (each user's terms
    summed in bin order, times df, then the min), and every leaf whose
    margin reaches the incumbent is kept and raises it, so the result is
    the scan's bit for bit.  Returns (None, kept) once more than `budget`
    prefixes and leaves are kept, else (best, kept).
    """
    bins, n, _ = t1.shape
    level, (tau1, tau2) = np.arange(n), map(float, target)
    # each row's largest weight is 1, so c = w t / 2
    c, tails, _, _ = _pareto_bounds(t1, t2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), df)
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
        # bounds are nonnegative within the budgets and -inf past them, so a
        # floor of -1 keeps exactly the prefixes within budget; inf - inf
        # (NaN) only for targets near overflow
        return [x if x > -1.0 else -1.0 for x in f]

    best = -math.inf
    floor = np.array(floors(best))

    def take(bound):
        key = np.minimum(np.minimum(bound[0] - half[0], bound[1] - half[1]), 0.5 * (bound[2] - half[2]))
        order, tested = np.argsort(-key), floor.tolist()
        while len(order):
            yield order[:32]
            order = order[32:]
            if floor.tolist() != tested:
                tested = floor.tolist()
                order = order[(bound[:, order] >= floor[:, None]).all(axis=0)]

    def leaf(path, p, a):
        # the pairs through the last bin, in the scan's arithmetic
        nonlocal best
        _, _, _, _, s1, s2, _, rem2, _ = path[-1]
        with np.errstate(over="ignore"):
            r1, r2 = (s1[p, None] + t1[-1, a]) * df, (s2[p, None] + t2[-1, a]) * df
            margin = np.minimum(r1 - tau1, r2 - tau2)
        keep = (margin >= best) & (level <= rem2[p, None])
        count = int(np.count_nonzero(keep))
        if count:
            best = max(best, float(margin[keep].max()))
            floor[:] = floors(best)
        return count

    kept = _prefix_walk(t1, t2, c, tails, np.array([[0], [1], [2]]), floor, take, leaf, budget)
    return (best if kept <= budget else None), kept


def _walk_else_scan(ch, noise, budgets, grid, levels, walk, items, group, score):
    """Each item's best (value, tie key, rates) on the joint grid: walked, else scanned.

    `walk(t1, t2, items, df, budget)` answers up to `group` items at a time
    from the `_term_tables`, or gives (None, kept) once it has kept more
    than `budget` prefixes and leaves.  The walks share one budget: none,
    where the grid is at most BLOCK_SIZE pairs, since one block of the scan
    is cheaper than any walk, and where both users' terms are all zero,
    since every pair then ties at rate 0 and a walk would keep them all;
    else max(2**14, pairs / 16), which only grids where most pairs tie
    reach.  The items left are priced by one scan over every pair of splits
    (`_joint_grid_rates`): score(item, r1, r2), the first maximum of each
    block, strict gains across blocks, and no tie key.
    """
    t1, t2 = _term_tables(ch, noise, budgets, grid, levels)
    pairs = math.comb(levels + grid.bin_count, grid.bin_count) ** 2
    budget = max(1 << 14, pairs >> 4) if pairs > BLOCK_SIZE and (t1.any() or t2.any()) else -1
    found = []
    for lot in (items[i:i + group] for i in range(0, len(items), group)):
        best, kept = walk(t1, t2, lot, grid.bin_width, budget) if budget >= 0 else (None, 0)
        budget -= kept
        found += best or [None] * len(lot)
    rest = [i for i, f in enumerate(found) if f is None]
    found = [f or (-np.inf, None, None) for f in found]
    if rest:
        with np.errstate(over="ignore"):
            for r1, r2 in _joint_grid_rates(ch, noise, budgets, grid, levels, (t1, t2)):
                for i in rest:
                    objective = score(items[i], r1, r2)
                    j = int(np.argmax(objective))
                    if objective.flat[j] > found[i][0]:
                        found[i] = (objective.flat[j], None, np.array([r1.flat[j], r2.flat[j]]))
    return found


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
    (`_pareto_bounds`).  The walk over the prefixes drops those whose bound
    falls below the optimum by more than a rounding slack, and prices the
    pairs left in the scan's arithmetic (`_pareto_walk`).  Weights share
    one walk, as many as keep its tables within 2**18 entries.  Small,
    all-zero and tie-heavy grids are scanned (`_walk_else_scan`).  Refused,
    like the scan, over MAX_ORACLE_EVALUATIONS joint pairs; raises
    ArithmeticError when a term or a best weighted value is not finite.
    """
    bins, n = grid.bin_count, levels + 1
    weights = np.array(weight_list, dtype=float).reshape(-1, 2)
    group = max(1, (1 << 18) // (5 * bins * n * n + (bins > 2) * n**3))
    found = _walk_else_scan(ch, noise, budgets, grid, levels, _pareto_walk, weights, group,
                            lambda w, r1, r2: w[0] * r1 + w[1] * r2)
    for row, (value, _, _) in zip(weights.tolist(), found):
        if not math.isfinite(value):
            raise ArithmeticError(f"weighted rate sum for weights {tuple(row)} is not finite")
    return [float(value) for value, _, _ in found], [rates for _, _, rates in found]


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
    weighted-sum oracle's per-bin bounds (`_margin_walk`); small, all-zero
    and tie-heavy grids are scanned (`_walk_else_scan`).  Refused over
    MAX_ORACLE_EVALUATIONS joint pairs; raises ArithmeticError when a term
    or the margin is not finite.
    """
    target = np.asarray(target_rates, dtype=float)
    _check_inputs(ch, noise, budgets, grid, levels=levels, target=target)

    def walk(t1, t2, lot, df, budget):
        best, kept = _margin_walk(t1, t2, lot[0], df, budget)
        return best if best is None else [(best, None, None)], kept

    [(best, _, _)] = _walk_else_scan(ch, noise, budgets, grid, levels, walk, [target], 1,
                                     lambda t, r1, r2: np.minimum(r1 - t[0], r2 - t[1]))
    if not math.isfinite(best):
        raise ArithmeticError("dominance margin is not finite")
    return float(best)


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

