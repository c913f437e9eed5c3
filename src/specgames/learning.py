"""Repeated-game engine with per-player adaptive learners.

Every round each learner maps its internal state to an action, the joint
profile is priced on the game, and each learner updates from what it is
allowed to observe.  Regret-matching and fictitious-play learners observe
the full joint action; reinforcement learners observe only their own
realized payoff, which is what makes them deployable without any protocol
for reading opponents.  A trace stores the game and the action record; the
utilities and every player's regrets are read off it on first access, so
traces carry regrets even for learners that could not compute them.

Regret of player n at time t for action a', relative to its realized play:

    r_t(a') = max(0, (1/t) * sum_{t'<=t} [u_n(a', a_-n^{t'}) - u_n(a_n^{t'}, a_-n^{t'})])

computed for all t at once as a running sum over the action record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_games import JointDistribution, NormalFormGame, _own_payoffs

__all__ = [
    "LEARNER_KINDS",
    "LearnerState",
    "LearningTrace",
    "make_learner",
    "regret_vector",
    "regret_matching_probabilities",
    "fictitious_play_step",
    "reinforcement_step",
    "reinforcement_update",
    "run_repeated_game",
    "empirical_joint_distribution",
    "value_of_learning",
]

LEARNER_KINDS = (
    "regret_matching",
    "fictitious_play",
    "reinforcement",
    "best_response_myopic",
    "fixed",
)


@dataclass
class LearnerState:
    """Mutable per-player learner state; only the fields of its kind are live."""

    kind: str
    player: int
    action_count: int
    # regret matching
    regret_sums: np.ndarray | None = None
    inertia: float | None = None
    # fictitious play: one count vector per opponent, keyed by player index
    opponent_counts: dict | None = None
    # reinforcement
    propensities: np.ndarray | None = None
    payoff_shift: float | None = None
    # best_response_myopic / fixed
    fixed_action: int | None = None
    start_action: int | None = None
    last_opponent_profile: tuple | None = None
    # shared bookkeeping
    last_action: int | None = None
    rounds_seen: int = 0
    rng: np.random.Generator | None = None


def make_learner(kind, game: NormalFormGame, player: int, fixed_action=None, start_action=0) -> LearnerState:
    """Create a fresh learner of one of the supported kinds."""
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}")
    if not 0 <= player < game.player_count:
        raise ValueError("player index out of range")
    state = LearnerState(kind=kind, player=player, action_count=game.action_counts[player])
    if kind == "best_response_myopic":
        if not 0 <= start_action < state.action_count:
            raise ValueError("start_action out of range")
        state.start_action = int(start_action)
    elif kind == "fixed":
        if fixed_action is None or not 0 <= fixed_action < state.action_count:
            raise ValueError("a fixed learner needs a valid fixed_action")
        state.fixed_action = int(fixed_action)
    _start(state, game)
    return state


def _start(state: LearnerState, game: NormalFormGame):
    """Set the game-derived constants and fresh accumulators, keeping the kind's arguments."""
    span = game.payoff_span()
    if state.kind == "regret_matching":
        state.regret_sums = np.zeros(state.action_count)
        state.inertia = 2.0 * (max(game.action_counts) - 1) * span
    elif state.kind == "fictitious_play":
        state.opponent_counts = {
            j: np.zeros(game.action_counts[j]) for j in range(game.player_count) if j != state.player
        }
    elif state.kind == "reinforcement":
        # payoffs are shifted to be nonnegative inside the learner; the
        # uniform initial propensity is the exploration floor
        state.payoff_shift = -float(game.payoffs.min())
        state.propensities = np.full(state.action_count, span)
    state.last_opponent_profile = None
    state.last_action = None
    state.rounds_seen = 0


def _sample(probs, rng) -> int:
    draw = rng.random()
    acc = 0.0
    for a, p in enumerate(probs):
        acc += p
        if draw < acc:
            return a
    return len(probs) - 1


def regret_matching_probabilities(state: LearnerState) -> np.ndarray:
    """Play probabilities implied by the current regrets.

    Switching to a different action gets probability regret/inertia and the
    leftover mass stays on the previous action; with no positive regrets the
    previous action repeats.  The inertia constant 2*(max|A|-1)*payoff_span
    keeps total switch mass at most one half.
    """
    if state.kind != "regret_matching":
        raise ValueError("state is not a regret-matching learner")
    if state.rounds_seen == 0 or state.last_action is None:
        return np.full(state.action_count, 1.0 / state.action_count)
    probs = np.zeros(state.action_count)
    if state.inertia > 0.0:
        regrets = np.maximum(0.0, state.regret_sums / state.rounds_seen)
        probs = regrets / state.inertia
    probs[state.last_action] = 0.0
    probs[state.last_action] = 1.0 - probs.sum()
    return probs


def fictitious_play_step(state: LearnerState, game: NormalFormGame) -> int:
    """Best response to the empirical frequencies of every opponent's play.

    Opponents are modeled independently; an empty history means a uniform
    belief.  Ties break to the lowest action index, with a 1e-12 relative
    tolerance so that an exact indifference point is not split by rounding.
    """
    if state.kind != "fictitious_play":
        raise ValueError("state is not a fictitious-play learner")
    player = state.player
    expected = np.moveaxis(game.payoffs[..., player], player, 0)
    opponents = [j for j in range(game.player_count) if j != player]
    for j in reversed(opponents):
        counts = state.opponent_counts[j]
        total = counts.sum()
        belief = counts / total if total > 0 else np.full(counts.size, 1.0 / counts.size)
        expected = expected @ belief
    best = expected.max()
    slack = 1e-12 * max(1.0, abs(best))
    return int(np.flatnonzero(expected >= best - slack)[0])


def reinforcement_step(state: LearnerState, rng) -> int:
    """Sample an action with probability proportional to its propensity."""
    if state.kind != "reinforcement":
        raise ValueError("state is not a reinforcement learner")
    total = state.propensities.sum()
    if total <= 0.0:
        return int(rng.integers(state.action_count))
    return _sample(state.propensities / total, rng)


def reinforcement_update(state: LearnerState, action: int, payoff: float):
    """Grow the played action's propensity by the (shifted) payoff received.

    This is the entire update: it reads nothing but the learner's own action
    and realized payoff.
    """
    state.propensities[action] += payoff + state.payoff_shift
    state.last_action = int(action)
    state.rounds_seen += 1


def _select(state: LearnerState, game: NormalFormGame):
    if state.kind == "fixed":
        return state.fixed_action
    if state.kind == "best_response_myopic":
        if state.last_opponent_profile is None:
            return state.start_action
        return int(np.argmax(_own_payoffs(game, state.player, state.last_opponent_profile)))
    if state.kind == "fictitious_play":
        return fictitious_play_step(state, game)
    if state.kind == "regret_matching":
        return _sample(regret_matching_probabilities(state), state.rng)
    return reinforcement_step(state, state.rng)


def _observe(state: LearnerState, game: NormalFormGame, profile, payoff: float):
    """Update a learner from the round's outcome, per its observation rights."""
    if state.kind == "reinforcement":
        reinforcement_update(state, profile[state.player], payoff)
        return
    own = profile[state.player]
    opponents = profile[:state.player] + profile[state.player + 1:]
    if state.kind == "regret_matching":
        alternatives = _own_payoffs(game, state.player, opponents)
        state.regret_sums += alternatives - alternatives[own]
    elif state.kind == "fictitious_play":
        for j, counts in state.opponent_counts.items():
            counts[profile[j]] += 1
    elif state.kind == "best_response_myopic":
        state.last_opponent_profile = opponents
    state.last_action = own
    state.rounds_seen += 1


@dataclass(frozen=True, eq=False)
class LearningTrace:
    """Recorded repeated-game run: the game and each round's joint action."""

    game: NormalFormGame
    actions: np.ndarray

    def __post_init__(self):
        a = self.actions
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu" and a.shape[1:] == (self.game.player_count,)
                and len(a) >= 1 and a.min() >= 0 and np.all(a.max(axis=0) < self.game.action_counts)):
            raise ValueError("actions must be an integer (rounds >= 1, player_count) array of valid actions")

    @property
    def rounds(self) -> int:
        return len(self.actions)

    @property
    def action_counts(self) -> tuple:
        return self.game.action_counts

    @cached_property
    def utilities(self) -> np.ndarray:
        """Every player's utility per round, shape (rounds, player_count)."""
        return self.game.payoffs[tuple(self.actions.T)]

    @cached_property
    def regrets(self) -> tuple:
        """Each player's regret vector after each round, shape (rounds, |A_n|)."""
        return tuple(_regret_history(self.game, self.actions, p) for p in range(self.game.player_count))


def run_repeated_game(
    game: NormalFormGame,
    learners,
    rounds: int,
    seed: int,
) -> LearningTrace:
    """Play `rounds` rounds and record the joint actions; deterministic per seed.

    Learner states are restarted on entry and each player draws from its own rng
    stream derived from (seed, player index), so identical inputs give
    identical traces.
    """
    n = game.player_count
    if len(learners) != n:
        raise ValueError("need exactly one learner per player")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    for p, state in enumerate(learners):
        if state.player != p:
            raise ValueError(f"learner {p} was built for player {state.player}")
        _start(state, game)
        state.rng = np.random.default_rng([int(seed), p])

    actions = np.zeros((rounds, n), dtype=int)
    for t in range(rounds):
        profile = tuple(_select(state, game) for state in learners)
        payoff = game.payoff_vector(profile)
        actions[t] = profile
        for p, state in enumerate(learners):
            _observe(state, game, profile, float(payoff[p]))
    return LearningTrace(game, actions)


def _regret_history(game: NormalFormGame, actions: np.ndarray, player: int) -> np.ndarray:
    """Regret vector of one player after each recorded round, shape (rounds, |A_n|).

    The running sum adds the rounds' payoff differences left to right, so
    row t equals an accumulator updated once per round.
    """
    rounds = len(actions)
    opponents = [actions[:, q, None] for q in range(game.player_count) if q != player]
    history = _own_payoffs(game, player, opponents)
    history -= history[np.arange(rounds), actions[:, player], None]
    np.cumsum(history, axis=0, out=history)
    history /= np.arange(1, rounds + 1)[:, None]
    return np.maximum(0.0, history, out=history)


def regret_vector(trace: LearningTrace, player: int, t: int) -> np.ndarray:
    """Recompute the time-t regret vector of one player straight from a trace."""
    if not 1 <= t <= trace.rounds:
        raise ValueError("t must lie in [1, rounds]")
    return _regret_history(trace.game, trace.actions[:t], player)[-1]


def empirical_joint_distribution(trace: LearningTrace) -> JointDistribution:
    """Frequency of each joint profile over the whole trace."""
    flat = np.ravel_multi_index(trace.actions.T, trace.action_counts)
    counts = np.bincount(flat, minlength=int(np.prod(trace.action_counts)))
    return JointDistribution.from_flat(counts / trace.rounds, trace.action_counts)


def value_of_learning(trace: LearningTrace, window) -> np.ndarray:
    """Per-player average utility over the half-open round window [start, stop)."""
    start, stop = int(window[0]), int(window[1])
    if not 0 <= start < stop <= trace.rounds:
        raise ValueError("window must be a nonempty range inside the trace")
    return trace.utilities[start:stop].mean(axis=0)
