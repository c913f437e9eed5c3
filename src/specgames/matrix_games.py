"""Finite normal-form games: construction, equilibria, and correlated play.

Games are stored as a dense payoff tensor of shape (*action_counts, N) so a
joint action profile indexes directly to the utility vector.  Alongside the
classical solution concepts (best responses, dominance, pure and 2x2 mixed
Nash, leader-commitment equilibrium) this module certifies and optimizes
over correlated equilibria: a distribution mu over joint profiles is a CE
when no player who is recommended an action can gain in expectation by
deviating to any other action.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import DegenerateGameError, NoPureNashError, OracleScaleError
from .power_games import _budget_splits, _check_scale, _level_step
from .spectrum import PowerScenario, _check_leader, _finite_array, _integer, _rates, two_channel_scenario

__all__ = [
    "NormalFormGame",
    "MixedStrategy",
    "JointDistribution",
    "build_power_game_2x2",
    "build_contention_game",
    "concentrate_spread_game",
    "discretize_power_game",
    "best_response",
    "strictly_dominant_action",
    "pure_nash",
    "best_response_dynamics",
    "mixed_nash_2x2",
    "stackelberg_finite",
    "is_correlated_equilibrium",
    "optimize_ce",
]

# optimize_ce builds a dense LP over all joint profiles; keep it desk-scale.
MAX_CE_PROFILES = 64


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Finite game: payoffs[a_1, ..., a_N] is the length-N utility vector."""

    payoffs: np.ndarray
    action_labels: tuple | None = None

    def __post_init__(self):
        p = np.array(self.payoffs, dtype=float)
        if p.ndim < 2:
            raise ValueError("payoff tensor must map profiles to utility vectors")
        if p.shape[-1] != p.ndim - 1:
            raise ValueError("last payoff axis must hold one utility per player")
        if 0 in p.shape[:-1]:
            raise ValueError("every player needs at least one action")
        if not np.all(np.isfinite(p)):
            raise ValueError("payoffs must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "payoffs", p)
        if self.action_labels is not None:
            labels = tuple(tuple(str(a) for a in acts) for acts in self.action_labels)
            if tuple(len(acts) for acts in labels) != self.action_counts:
                raise ValueError("action labels do not match the payoff tensor shape")
            object.__setattr__(self, "action_labels", labels)

    @property
    def player_count(self) -> int:
        return self.payoffs.shape[-1]

    @property
    def action_counts(self) -> tuple:
        return self.payoffs.shape[:-1]

    def payoff_vector(self, profile) -> np.ndarray:
        return self.payoffs[tuple(profile)]

    def utility(self, player: int, profile) -> float:
        return float(self.payoffs[tuple(profile) + (player,)])

    def payoff_span(self) -> float:
        return float(self.payoffs.max() - self.payoffs.min())

    def profiles(self):
        return itertools.product(*(range(a) for a in self.action_counts))

    def label(self, profile) -> str:
        if self.action_labels is None:
            return "/".join(str(a) for a in profile)
        return "/".join(self.action_labels[p][a] for p, a in enumerate(profile))


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability vector over one player's actions."""

    probs: np.ndarray

    def __post_init__(self):
        p = _finite_array(self.probs, "mixed strategy", 1)
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("mixed strategy must sum to 1")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass over joint action profiles (shape = action_counts)."""

    probs: np.ndarray

    def __post_init__(self):
        p = _finite_array(self.probs, "joint distribution")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("joint distribution must sum to 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_flat(cls, values, action_counts) -> "JointDistribution":
        arr = np.asarray(values, dtype=float).reshape(tuple(action_counts))
        return cls(arr)

    def marginal(self, player: int) -> np.ndarray:
        _integer(player, "player", 0, self.probs.ndim - 1)
        axes = tuple(i for i in range(self.probs.ndim) if i != player)
        return self.probs.sum(axis=axes)

    def expected_utilities(self, game: NormalFormGame) -> np.ndarray:
        flat = self.probs.reshape(-1)
        u = game.payoffs.reshape(-1, game.player_count)
        return flat @ u


def build_power_game_from_allocations(scen: PowerScenario, actions, labels) -> NormalFormGame:
    """Finite game whose actions are fixed PSD rows evaluated on a scenario.

    `actions[n]` lists the candidate rows of user n; the payoff tensor holds
    the rate vector of every joint choice, all priced in one rate-kernel call.
    """
    counts = tuple(len(a) for a in actions)
    psd = np.empty(counts + (scen.user_count, scen.grid.bin_count))
    for n, rows in enumerate(actions):
        shape = [1] * len(counts) + [scen.grid.bin_count]
        shape[n] = counts[n]  # user n's rows vary along profile axis n only
        psd[..., n, :] = np.reshape(rows, shape)
    payoffs = _rates(psd, scen.channels.gain2, scen.noise.psd, scen.grid.bin_width)
    return NormalFormGame(payoffs, action_labels=labels)


def concentrate_spread_game(scen: PowerScenario) -> NormalFormGame:
    """Two-action abstraction of a two-user, two-channel scenario.

    Concentrate puts the user's whole budget in its own channel (channel 1
    for user 1, channel 2 for user 2); Spread splits it 50/50.  Payoffs are
    computed from the channel parameters, never hard-coded.
    """
    if scen.user_count != 2 or scen.grid.bin_count != 2:
        raise ValueError("the Concentrate/Spread abstraction needs two users on two channels")
    df = scen.grid.bin_width
    p1, p2 = scen.budgets.budget
    actions = (
        [np.array([p1 / df, 0.0]), np.array([p1 / (2 * df), p1 / (2 * df)])],
        [np.array([0.0, p2 / df]), np.array([p2 / (2 * df), p2 / (2 * df)])],
    )
    labels = (("Concentrate", "Spread"), ("Concentrate", "Spread"))
    return build_power_game_from_allocations(scen, actions, labels)


def build_power_game_2x2(
    direct_gain: float = 1.0,
    cross_12=(0.8, 0.4),
    cross_21=(0.4, 0.4),
    noise_level: float = 1.0,
    budgets=(10.0, 10.0),
) -> NormalFormGame:
    """Concentrate/Spread game on a flat two-channel interference setting."""
    return concentrate_spread_game(
        two_channel_scenario(direct_gain, cross_12, cross_21, noise_level, budgets)
    )


def build_contention_game() -> NormalFormGame:
    """Two users contending for a shared medium: Aggress or Backoff."""
    payoffs = np.array(
        [
            [[0.0, 0.0], [7.0, 2.0]],
            [[2.0, 7.0], [6.0, 6.0]],
        ]
    )
    return NormalFormGame(payoffs, action_labels=(("Aggress", "Backoff"), ("Aggress", "Backoff")))


def discretize_power_game(scen: PowerScenario, levels: int = 10) -> NormalFormGame:
    """Finite abstraction of a power scenario on a budget-splitting grid.

    Each user's action set holds every split of its full budget over the K
    bins in steps of budget/levels; payoffs are the achievable rates.  More
    than MAX_ORACLE_EVALUATIONS joint profiles raise OracleScaleError.
    """
    _integer(levels, "levels", 1)
    bins = scen.grid.bin_count
    _check_scale(math.comb(levels + bins - 1, bins - 1) ** scen.user_count, "joint profiles")
    head = _budget_splits(levels, bins - 1)
    splits = np.column_stack([head, levels - head.sum(axis=1)])  # the last bin takes the rest
    actions = [splits * _level_step(b, levels, scen.grid.bin_width) for b in scen.budgets.budget]
    labels = tuple("-".join(map(str, m)) for m in splits.tolist())
    return build_power_game_from_allocations(scen, actions, (labels,) * scen.user_count)


def _own_payoffs(game: NormalFormGame, player: int) -> np.ndarray:
    """The player's payoff table: its own action on axis 0, then the opponents' in index order.

    A view of `game.payoffs`, so `table[(slice(None), *opponent_actions)]`
    holds the player's utility of each own action against fixed opponents.
    """
    return np.moveaxis(game.payoffs[..., player], player, 0)


def best_response(game: NormalFormGame, player: int, opponent_actions) -> list:
    """All payoff-maximizing actions of one player, sorted by action index."""
    if isinstance(opponent_actions, (int, np.integer)):
        opponent_actions = (opponent_actions,)
    opponent_actions = tuple(int(a) for a in opponent_actions)
    if len(opponent_actions) != game.player_count - 1:
        raise ValueError("need one action per opponent")
    u = _own_payoffs(game, player)[(slice(None), *opponent_actions)]
    return [int(a) for a in np.flatnonzero(u == u.max())]


def strictly_dominant_action(game: NormalFormGame, player: int):
    """The action strictly better than all others against every opponent profile, if any.

    That is the only maximum of every column of the player's (own action x
    opponent profile) payoff table.
    """
    u = _own_payoffs(game, player).reshape(game.action_counts[player], -1)
    top = u == u.max(axis=0)
    winners = np.flatnonzero(top.all(axis=1))
    if len(winners) == 1 and top.sum() == top.shape[1]:
        return int(winners[0])
    return None


def pure_nash(game: NormalFormGame) -> list:
    """All profiles where every player plays a best response, lexicographic.

    Each player's payoff must be the maximum along its own action axis.
    """
    stable = np.ones(game.action_counts, dtype=bool)
    for n in range(game.player_count):
        u = game.payoffs[..., n]
        stable &= u == u.max(axis=n, keepdims=True)
    return [tuple(p) for p in np.argwhere(stable).tolist()]


def best_response_dynamics(game: NormalFormGame, start_profile=None) -> tuple:
    """Sequential best-reply updates until a pure Nash equilibrium is reached.

    Players revise in index order, each moving to its lowest-index best
    response.  start_profile (default all zeros) needs one action index per
    player, each below its action count, else ValueError.  Raises
    NoPureNashError (listing the cycle) if no stable profile appears within
    4x the number of joint profiles.
    """
    if start_profile is None:
        start_profile = (0,) * game.player_count
    profile = tuple(int(a) for a in start_profile)
    if len(profile) != game.player_count or not all(
        0 <= a < k for a, k in zip(profile, game.action_counts)
    ):
        raise ValueError("start_profile needs one action per player, each below its action count")
    cap = 4 * int(np.prod(game.action_counts))
    visited = [profile]
    for _ in range(cap):
        updated = list(profile)
        changed = False
        for p in range(game.player_count):
            others = tuple(a for q, a in enumerate(updated) if q != p)
            replies = best_response(game, p, others)
            if updated[p] not in replies:
                updated[p] = replies[0]
                changed = True
        profile = tuple(updated)
        if not changed:
            return profile
        visited.append(profile)
    raise NoPureNashError(f"no pure NE reached; dynamics visited {visited[-6:]}")


def mixed_nash_2x2(game: NormalFormGame):
    """Interior mixed equilibrium of a 2x2 game via the indifference conditions.

    Returns (strategy_1, strategy_2, expected_utilities).  Raises
    DegenerateGameError when no fully-mixed equilibrium exists, e.g. when a
    player has a dominant action; pure_nash covers those games.
    """
    if game.player_count != 2 or game.action_counts != (2, 2):
        raise ValueError("mixed_nash_2x2 requires two players with two actions each")
    a = game.payoffs[..., 0]
    b = game.payoffs[..., 1]
    den_q = a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]
    den_p = b[0, 0] - b[1, 0] - b[0, 1] + b[1, 1]
    if den_q == 0.0 or den_p == 0.0:
        raise DegenerateGameError("indifference system is singular")
    q = (a[1, 1] - a[0, 1]) / den_q  # player 2's weight on action 0
    p = (b[1, 1] - b[1, 0]) / den_p  # player 1's weight on action 0
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise DegenerateGameError("no interior mixed equilibrium (probabilities leave (0,1))")
    s1 = np.array([p, 1.0 - p])
    s2 = np.array([q, 1.0 - q])
    utilities = np.array([s1 @ a @ s2, s1 @ b @ s2])
    return MixedStrategy(s1), MixedStrategy(s2), utilities


def stackelberg_finite(game: NormalFormGame, leader: int):
    """Leader-commitment outcome of a two-player game.

    For each leader action the follower best-responds; follower ties break
    in the leader's favor, lowest reply index among equals.  Returns
    (profile, utilities) maximizing the leader's payoff, lowest leader
    action on ties.  The leader is player 0 or 1.
    """
    if game.player_count != 2:
        raise ValueError("stackelberg_finite supports exactly two players")
    _check_leader(leader)
    # (leader action, follower action) tables of both players' payoffs
    lead, follow = _own_payoffs(game, leader), _own_payoffs(game, 1 - leader).T
    # the leader's payoff where the follower best-replies, -inf elsewhere
    value = np.where(follow == follow.max(axis=1, keepdims=True), lead, -np.inf)
    a = int(np.argmax(value.max(axis=1)))
    reply = int(np.argmax(value[a]))
    profile = (a, reply) if leader == 0 else (reply, a)
    return profile, game.payoff_vector(profile)


def is_correlated_equilibrium(game: NormalFormGame, dist: JointDistribution, tol: float = 1e-9):
    """Check the CE inequalities; returns (holds, max_violation).

    For every player and recommended action, the expected payoff of obeying
    must be at least that of any fixed deviation, weighted by the
    distribution restricted to that recommendation.  max_violation is the
    largest deviation gain found, floored at zero; all deviations from one
    recommendation are priced in one pass over the payoff table.
    """
    if dist.probs.shape != game.action_counts:
        raise ValueError("distribution shape does not match the game")
    worst = 0.0
    for n, k in enumerate(game.action_counts):
        mu = np.moveaxis(dist.probs, n, 0)
        u = _own_payoffs(game, n)
        for a in range(k):
            # expected payoff of every action a2 under the recommendation a;
            # a C-ordered product keeps each row's summation order fixed
            values = np.multiply(mu[a], u, order="C").reshape(k, -1).sum(axis=1)
            worst = max(worst, float((values - values[a]).max()))
    return worst <= tol, worst


def _ce_constraint_rows(game: NormalFormGame):
    profiles = game.payoffs[..., 0].size
    rows = []
    for n, k in enumerate(game.action_counts):
        u = _own_payoffs(game, n)
        a, a2 = np.nonzero(~np.eye(k, dtype=bool))  # each a, then each a2 != a
        block = np.zeros((a.size,) + u.shape)
        block[np.arange(a.size), a] = u[a2] - u[a]  # deviation gain coefficients
        rows.append(np.moveaxis(block, 1, n + 1).reshape(a.size, profiles))
    return np.concatenate(rows)


def optimize_ce(game: NormalFormGame, weights=None):
    """Maximize a weighted sum of expected utilities over the CE polytope.

    Solved as a dense LP over the joint-profile simplex; the polytope is
    never empty for a finite game, so an infeasible report is an internal
    error, as are weights under which a profile's objective overflows.
    Returns (JointDistribution, value).
    """
    m = int(np.prod(game.action_counts))
    if m > MAX_CE_PROFILES:
        raise OracleScaleError(f"{m} joint profiles exceed the desk-scale LP cap {MAX_CE_PROFILES}")
    if weights is None:
        weights = np.ones(game.player_count)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (game.player_count,) or not np.all(np.isfinite(weights)):
        raise ValueError(f"weights must hold one finite objective weight per player, not {weights!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        c = game.payoffs.reshape(-1, game.player_count) @ weights
    if not np.all(np.isfinite(c)):
        raise ArithmeticError(f"CE objective for weights {tuple(weights.tolist())} is not finite")
    a_ub = _ce_constraint_rows(game)
    result = simplex.solve_lp(
        c,
        a_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        a_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
        maximize=True,
    )
    if result.status != simplex.OPTIMAL:
        raise ArithmeticError(f"CE program reported {result.status}; the polytope cannot be empty")
    probs = np.maximum(result.x, 0.0)
    probs /= probs.sum()
    dist = JointDistribution.from_flat(probs, game.action_counts)
    ok, violation = is_correlated_equilibrium(game, dist, tol=1e-9)
    if not ok:
        raise ArithmeticError(f"LP solution violates the CE inequalities by {violation}")
    value = float(c @ probs)
    return dist, value
