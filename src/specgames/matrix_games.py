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
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import DegenerateGameError, NoPureNashError, OracleScaleError
from .power_games import _budget_splits
from .spectrum import PowerAllocation, PowerScenario, all_rates, two_channel_scenario

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
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("mixed strategy must be a probability vector summing to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass over joint action profiles (shape = action_counts)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("joint distribution must be nonnegative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_flat(cls, values, action_counts) -> "JointDistribution":
        arr = np.asarray(values, dtype=float).reshape(tuple(action_counts))
        return cls(arr)

    def marginal(self, player: int) -> np.ndarray:
        axes = tuple(i for i in range(self.probs.ndim) if i != player)
        return self.probs.sum(axis=axes)

    def expected_utilities(self, game: NormalFormGame) -> np.ndarray:
        flat = self.probs.reshape(-1)
        u = game.payoffs.reshape(-1, game.player_count)
        return flat @ u


def build_power_game_from_allocations(scen: PowerScenario, actions, labels) -> NormalFormGame:
    """Finite game whose actions are fixed PSD rows evaluated on a scenario.

    `actions[n]` lists the candidate rows of user n; the payoff tensor holds
    the rate vector of every joint choice.
    """
    counts = tuple(len(a) for a in actions)
    payoffs = np.zeros(counts + (scen.user_count,))
    for profile in itertools.product(*(range(c) for c in counts)):
        psd = np.vstack([actions[n][profile[n]] for n in range(scen.user_count)])
        payoffs[profile] = all_rates(PowerAllocation(psd), scen)
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
    bins in steps of budget/levels; payoffs are the achievable rates.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    df = scen.grid.bin_width
    k = scen.grid.bin_count
    splits = list(_budget_splits(levels, k, full_only=True))
    actions = []
    labels = []
    for n in range(scen.user_count):
        unit = scen.budgets.budget[n] / (levels * df)
        actions.append([np.asarray(m, dtype=float) * unit for m in splits])
        labels.append(tuple("-".join(str(v) for v in m) for m in splits))
    return build_power_game_from_allocations(scen, actions, tuple(labels))


def _others(game: NormalFormGame, player: int):
    return [p for p in range(game.player_count) if p != player]


def _own_payoffs(game: NormalFormGame, player: int, opponent_actions) -> np.ndarray:
    """Utility of `player` for each own action, opponents' actions fixed."""
    if isinstance(opponent_actions, (int, np.integer)):
        opponent_actions = (int(opponent_actions),)
    opponent_actions = tuple(int(a) for a in opponent_actions)
    if len(opponent_actions) != game.player_count - 1:
        raise ValueError("need one action per opponent")
    index = []
    it = iter(opponent_actions)
    for p in range(game.player_count):
        index.append(slice(None) if p == player else next(it))
    return game.payoffs[tuple(index) + (player,)]


def best_response(game: NormalFormGame, player: int, opponent_actions) -> list:
    """All payoff-maximizing actions of one player, sorted by action index."""
    u = _own_payoffs(game, player, opponent_actions)
    best = u.max()
    return [int(a) for a in np.flatnonzero(u == best)]


def strictly_dominant_action(game: NormalFormGame, player: int):
    """The action strictly better than all others against every opponent profile, if any."""
    counts = game.action_counts
    if counts[player] == 1:
        return 0
    u = np.moveaxis(game.payoffs[..., player], player, 0).reshape(counts[player], -1)
    for a in range(counts[player]):
        rivals = np.delete(u, a, axis=0)
        if np.all(u[a] > rivals):
            return a
    return None


def pure_nash(game: NormalFormGame) -> list:
    """All profiles where every player plays a best response, lexicographic."""
    out = []
    for profile in game.profiles():
        if all(
            profile[p] in best_response(game, p, tuple(a for q, a in enumerate(profile) if q != p))
            for p in range(game.player_count)
        ):
            out.append(profile)
    return out


def best_response_dynamics(game: NormalFormGame, start_profile=None) -> tuple:
    """Sequential best-reply updates until a pure Nash equilibrium is reached.

    Players revise in index order, each moving to its lowest-index best
    response.  Raises NoPureNashError (listing the cycle) if no stable
    profile appears within 4x the number of joint profiles.
    """
    if start_profile is None:
        start_profile = (0,) * game.player_count
    profile = tuple(int(a) for a in start_profile)
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
    in the leader's favor.  Returns (profile, utilities) maximizing the
    leader's payoff, lowest leader action on ties.
    """
    if game.player_count != 2:
        raise ValueError("stackelberg_finite supports exactly two players")
    follower = 1 - leader
    best = None
    for a in range(game.action_counts[leader]):
        replies = best_response(game, follower, (a,))
        profile = [0, 0]
        profile[leader] = a
        # optimistic tie-break: follower picks the reply the leader prefers
        reply = max(replies, key=lambda r: game.utility(leader, _with(profile, follower, r)))
        profile[follower] = reply
        value = game.utility(leader, profile)
        if best is None or value > best[0]:
            best = (value, tuple(profile))
    profile = best[1]
    return profile, game.payoff_vector(profile)


def _with(profile, player, action):
    out = list(profile)
    out[player] = action
    return tuple(out)


def is_correlated_equilibrium(game: NormalFormGame, dist: JointDistribution, tol: float = 1e-9):
    """Check the CE inequalities; returns (holds, max_violation).

    For every player and recommended action, the expected payoff of obeying
    must be at least that of any fixed deviation, weighted by the
    distribution restricted to that recommendation.  max_violation is the
    largest deviation gain found, floored at zero.
    """
    if dist.probs.shape != game.action_counts:
        raise ValueError("distribution shape does not match the game")
    worst = 0.0
    for n in range(game.player_count):
        mu = np.moveaxis(dist.probs, n, 0)
        u = np.moveaxis(game.payoffs[..., n], n, 0)
        for a in range(game.action_counts[n]):
            obey = float((mu[a] * u[a]).sum())
            for a2 in range(game.action_counts[n]):
                if a2 == a:
                    continue
                gain = float((mu[a] * u[a2]).sum()) - obey
                if gain > worst:
                    worst = gain
    return worst <= tol, worst


def _ce_constraint_rows(game: NormalFormGame):
    rows = []
    for n in range(game.player_count):
        u = np.moveaxis(game.payoffs[..., n], n, 0)
        for a in range(game.action_counts[n]):
            for a2 in range(game.action_counts[n]):
                if a2 == a:
                    continue
                block = np.zeros(game.action_counts)
                moved = np.moveaxis(block, n, 0)
                moved[a] = u[a2] - u[a]  # deviation gain coefficients
                rows.append(block.reshape(-1))
    if not rows:
        return None
    return np.array(rows)


def optimize_ce(game: NormalFormGame, weights=None):
    """Maximize a weighted sum of expected utilities over the CE polytope.

    Solved as a dense LP over the joint-profile simplex; the polytope is
    never empty for a finite game, so an infeasible report is an internal
    error.  Returns (JointDistribution, value).
    """
    m = int(np.prod(game.action_counts))
    if m > MAX_CE_PROFILES:
        raise OracleScaleError(f"{m} joint profiles exceed the desk-scale LP cap {MAX_CE_PROFILES}")
    if weights is None:
        weights = np.ones(game.player_count)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (game.player_count,):
        raise ValueError("need one objective weight per player")

    c = game.payoffs.reshape(-1, game.player_count) @ weights
    a_ub = _ce_constraint_rows(game)
    result = simplex.solve_lp(
        c,
        a_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(a_ub.shape[0]),
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
