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

The round loop is plain Python over lists.  Each player reads its payoffs
from a list of own-action rows, one per opponent profile, and keeps its
accumulators as Python floats; its uniforms come from its own rng in blocks
of at most _DRAW_BLOCK rounds, the same stream as one `random()` per round.
Elementwise float arithmetic is the same IEEE operation in Python and numpy,
and the one reduction, `1 - probs.sum()`, goes through `_np_sum`, which pins
numpy's summation order in code; so traces do not depend on how numpy sums.
Fictitious play is the exception: its belief-weighted payoffs go through a
numpy matrix product every round, whose summation order is BLAS's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .matrix_games import JointDistribution, NormalFormGame, _own_payoffs
from .spectrum import _np_sum

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

_DRAW_BLOCK = 4096  # rounds of uniform draws a player holds at once

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


def make_learner(kind, game: NormalFormGame, player: int, fixed_action=None, start_action=None) -> LearnerState:
    """Create a fresh learner of one of the supported kinds.

    `fixed_action` belongs to fixed learners and `start_action` (default 0)
    to myopic best responders; any other kind refuses them.
    """
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}")
    if not 0 <= player < game.player_count:
        raise ValueError("player index out of range")
    if fixed_action is not None and kind != "fixed":
        raise ValueError(f"fixed_action applies to fixed learners, not {kind!r}")
    if start_action is not None and kind != "best_response_myopic":
        raise ValueError(f"start_action applies to best_response_myopic learners, not {kind!r}")
    state = LearnerState(kind=kind, player=player, action_count=game.action_counts[player])
    if kind == "best_response_myopic":
        state.start_action = 0 if start_action is None else int(start_action)
    elif kind == "fixed":
        if fixed_action is None:
            raise ValueError("a fixed learner needs a fixed_action")
        state.fixed_action = int(fixed_action)
    _check(state, game)
    _start(state, game)
    return state


def _check(state: LearnerState, game: NormalFormGame):
    """Refuse a learner whose actions do not fit its player in `game`."""
    p = state.player
    count = game.action_counts[p]
    if state.action_count != count:
        raise ValueError(f"learner {p} has {state.action_count} actions; player {p} of this game has {count}")
    for name in ("fixed_action", "start_action"):
        action = getattr(state, name)
        if action is not None and not 0 <= action < count:
            raise ValueError(f"learner {p}: {name} {action} is outside 0..{count - 1}")


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


def _sample(probs, draw: float) -> int:
    """First action whose cumulative probability exceeds the uniform draw, else the last."""
    acc = 0.0
    for a, p in enumerate(probs):
        acc += p
        if draw < acc:
            return a
    return len(probs) - 1


def _regret_matching_probs(sums, seen: int, last, inertia: float) -> list:
    k = len(sums)
    if seen == 0 or last is None:
        return [1.0 / k] * k
    if inertia > 0.0:
        # max(0, s / seen) / inertia: a positive sum stays positive or underflows to 0
        probs = [s / seen / inertia if s > 0.0 else 0.0 for s in sums]
    else:
        probs = [0.0] * k
    probs[last] = 0.0
    probs[last] = 1.0 - _np_sum(probs)
    return probs


def regret_matching_probabilities(state: LearnerState) -> np.ndarray:
    """Play probabilities implied by the current regrets.

    Switching to a different action gets probability regret/inertia and the
    leftover mass stays on the previous action; with no positive regrets the
    previous action repeats.  The inertia constant 2*(max|A|-1)*payoff_span
    keeps total switch mass at most one half.
    """
    if state.kind != "regret_matching":
        raise ValueError("state is not a regret-matching learner")
    return np.array(_regret_matching_probs(
        state.regret_sums.tolist(), state.rounds_seen, state.last_action, state.inertia))


def fictitious_play_step(state: LearnerState, game: NormalFormGame) -> int:
    """Best response to the empirical frequencies of every opponent's play.

    Opponents are modeled independently; an empty history means a uniform
    belief.  Ties break to the lowest action index, with a 1e-12 relative
    tolerance so that an exact indifference point is not split by rounding.
    """
    if state.kind != "fictitious_play":
        raise ValueError("state is not a fictitious-play learner")
    player = state.player
    return _fictitious_play_pick(np.moveaxis(game.payoffs[..., player], player, 0), state.opponent_counts)


def _fictitious_play_pick(table: np.ndarray, opponent_counts: dict) -> int:
    """Best response to the beliefs, given the payoff table with the player's own action first."""
    expected = table
    for j in sorted(opponent_counts, reverse=True):
        counts = opponent_counts[j]
        total = counts.sum()
        belief = counts / total if total > 0 else np.full(counts.size, 1.0 / counts.size)
        expected = expected @ belief
    best = expected.max()
    slack = 1e-12 * max(1.0, abs(best))
    return int(np.flatnonzero(expected >= best - slack)[0])


def _reinforcement_pick(props, rng, draw=None) -> int:
    """Sample proportionally to the propensities, uniformly while they are all zero.

    `draw` is the round's uniform if the caller drew it ahead, else it is
    drawn from `rng` here.
    """
    total = _np_sum(props)
    if total <= 0.0:
        return int(rng.integers(len(props)))
    return _sample([w / total for w in props], rng.random() if draw is None else draw)


def reinforcement_step(state: LearnerState, rng) -> int:
    """Sample an action with probability proportional to its propensity."""
    if state.kind != "reinforcement":
        raise ValueError("state is not a reinforcement learner")
    return _reinforcement_pick(state.propensities.tolist(), rng)


def _reinforce(props, action: int, payoff: float, shift: float):
    props[action] += payoff + shift


def reinforcement_update(state: LearnerState, action: int, payoff: float):
    """Grow the played action's propensity by the (shifted) payoff received.

    This is the entire update: it reads nothing but the learner's own action
    and realized payoff.
    """
    _reinforce(state.propensities, action, payoff, state.payoff_shift)
    state.last_action = int(action)
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
    identical traces.  The final accumulators are written back to the states.
    """
    n = game.player_count
    if len(learners) != n:
        raise ValueError("need exactly one learner per player")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    for p, state in enumerate(learners):
        if state.player != p:
            raise ValueError(f"learner {p} was built for player {state.player}")
        _check(state, game)
        _start(state, game)
        state.rng = np.random.default_rng([int(seed), p])
    drawers, choosers, observers, finishers = zip(*(_player(state, game) for state in learners))
    observers = [observe for observe in observers if observe is not None]

    actions = np.empty((rounds, n), dtype=int)
    for start in range(0, rounds, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, rounds)
        block = []
        for drawn in zip(*(draws(stop - start) for draws in drawers)):
            profile = [choose(draw) for choose, draw in zip(choosers, drawn)]
            for observe in observers:
                observe(profile)
            block.append(profile)
        actions[start:stop] = block

    for p, (state, finish) in enumerate(zip(learners, finishers)):
        state.last_action = profile[p]
        state.rounds_seen = rounds
        if finish is not None:
            finish(profile)
    return LearningTrace(game, actions)


def _player(state: LearnerState, game: NormalFormGame):
    """One learner as plain-Python closures over list state.

    Returns (draws, choose, observe, finish): `draws(m)` gives the player's
    next m uniforms (or m Nones for a player that draws none ahead),
    `choose(draw)` picks the round's action, `observe(profile)` updates from
    the joint action and `finish(profile)` writes the accumulators back into
    `state` after the last round; `observe` and `finish` may be None.
    """
    p, kind, rng = state.player, state.kind, state.rng

    def ahead(m):
        return rng.random(m).tolist()  # the same stream as one random() per round

    def none_ahead(m):
        return itertools.repeat(None, m)

    if kind == "fixed":
        action = state.fixed_action
        return none_ahead, lambda draw: action, None, None

    if kind == "fictitious_play":
        counts = state.opponent_counts
        table = np.moveaxis(game.payoffs[..., p], p, 0)  # built once per run

        def observe(profile):
            for j, c in counts.items():
                c[profile[j]] += 1
        return none_ahead, lambda draw: _fictitious_play_pick(table, counts), observe, None

    rows, opponents = _own_rows(game, p)
    if kind == "best_response_myopic":
        last_row = None

        def choose(draw):
            if last_row is None:
                return state.start_action
            return last_row.index(max(last_row))  # the first maximum, as np.argmax

        def observe(profile):
            nonlocal last_row
            last_row = rows[opponents(profile)]

        def finish(profile):
            state.last_opponent_profile = tuple(profile[:p] + profile[p + 1:])
        return none_ahead, choose, observe, finish

    if kind == "reinforcement":
        props = state.propensities.tolist()
        shift = state.payoff_shift

        def observe(profile):
            own = profile[p]
            _reinforce(props, own, rows[opponents(profile)][own], shift)

        def finish(profile):
            state.propensities = np.array(props)
        # a zero-span game keeps every propensity at zero, so every round
        # draws through rng.integers, which cannot be drawn ahead
        draws = ahead if _np_sum(props) > 0.0 else none_ahead
        return draws, lambda draw: _reinforcement_pick(props, rng, draw), observe, finish

    sums = state.regret_sums.tolist()
    seen, last, inertia = 0, None, state.inertia

    def choose(draw):
        return _sample(_regret_matching_probs(sums, seen, last, inertia), draw)

    def observe(profile):
        nonlocal sums, seen, last
        row = rows[opponents(profile)]
        last = profile[p]
        u = row[last]
        sums = [s + (x - u) for s, x in zip(sums, row)]
        seen += 1

    def finish(profile):
        state.regret_sums = np.array(sums)
    return ahead, choose, observe, finish


def _own_rows(game: NormalFormGame, player: int):
    """The player's own-action payoff rows and a map from a profile to its row's key.

    There is one row per opponent profile: a list indexed by the opponent's
    action in a two-player game, else a dict keyed by the opponents' tuple.
    """
    k = game.action_counts[player]
    rows = np.moveaxis(game.payoffs[..., player], player, -1).reshape(-1, k).tolist()
    others = [q for q in range(game.player_count) if q != player]
    if len(others) == 1:
        return rows, itemgetter(others[0])
    keys = itertools.product(*(range(game.action_counts[q]) for q in others))
    return dict(zip(keys, rows)), (itemgetter(*others) if others else lambda profile: ())


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
