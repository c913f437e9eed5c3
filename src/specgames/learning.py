"""Repeated-game engine with per-player adaptive learners.

A learner is a frozen spec (`make_learner`): its kind, player, action count
and the kind's fixed or start action.  `run_repeated_game` owns all learner
state for one run.  Every round each learner maps its state to an action,
the joint profile is priced on the game, and each learner updates from what
it is allowed to observe.  Regret-matching and fictitious-play learners
observe the full joint action; reinforcement learners observe only their
own realized payoff, which is what makes them deployable without any
protocol for reading opponents.  A trace stores the game and the action
record; the utilities and every player's regrets are read off it on first
access, so traces carry regrets even for learners that could not compute
them.

Regret of player n at time t for action a', relative to its realized play:

    r_t(a') = max(0, (1/t) * sum_{t'<=t} [u_n(a', a_-n^{t'}) - u_n(a_n^{t'}, a_-n^{t'})])

computed for all t at once as a running sum over the action record.

The round loop is plain Python over lists.  Each player reads its payoffs
from a list of own-action rows, one per opponent profile, and keeps its
accumulators as Python floats; its uniforms come from its own rng in blocks
of at most _DRAW_BLOCK rounds, the same stream as one `random()` per round.
Elementwise float arithmetic is the same IEEE operation in Python and numpy,
and the two sums (the switch mass and the propensity total) add in index
order, one entry after another; so traces do not depend on how numpy sums.
Fictitious play is the exception: its belief-weighted payoffs go through a
numpy matrix product every round, whose summation order is BLAS's.

Learned play mostly repeats itself, so after a round whose joint action
repeats the one before, each player is asked how many of the next rounds it
would replay its action if every other player did too, and the smallest
answer is committed at once; the round in which someone switches then goes
through the per-round step, so every round is decided exactly once.  Fixed
learners always replay, and myopic best responders replay when their best
reply to the repeated row is their own action.  Regret matching prices a
window of rounds in numpy: over a repeated profile the payoff differences
are constant, so the sums before each round are one running sum
(`np.add.accumulate`, which adds in order).  The rule of
`_regret_matching_probs` is applied to every round with the same
elementwise operations in the same order, the switch mass is added column by
column in index order, and `_sample`'s choice is read off the same running
totals; no reduction could reorder a sum, so fast-forwarded traces are
bit-identical to the per-round loop.  The window starts at _FIRST_WINDOW rounds, doubles while every round
in it repeats, stays inside the current draw block and keeps its temporaries
to about _FAST_ENTRIES entries.  Reinforcement and fictitious play never
look ahead, and a run with either learner keeps the per-round step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, itemgetter

import numpy as np

from .matrix_games import JointDistribution, NormalFormGame, _own_payoffs
from .spectrum import _allocated, _integer

__all__ = [
    "LEARNER_KINDS",
    "Learner",
    "LearningTrace",
    "make_learner",
    "regret_vector",
    "run_repeated_game",
    "empirical_joint_distribution",
    "value_of_learning",
]

_DRAW_BLOCK = 4096  # rounds of uniform draws a player holds at once
_FIRST_WINDOW = 16  # rounds a look-ahead covers after a switch; it doubles while they all repeat
_FAST_ENTRIES = 1 << 16  # cap on the entries of one look-ahead's temporaries

LEARNER_KINDS = (
    "regret_matching",
    "fictitious_play",
    "reinforcement",
    "best_response_myopic",
    "fixed",
)


@dataclass(frozen=True)
class Learner:
    """One player's learner: its kind and the kind's arguments.

    A spec holds no state; `run_repeated_game` keeps every accumulator.
    `fixed_action` belongs to fixed learners and `start_action` to myopic
    best responders.
    """

    kind: str
    player: int
    action_count: int
    fixed_action: int | None = None
    start_action: int | None = None

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        for name, kind in (("fixed_action", "fixed"), ("start_action", "best_response_myopic")):
            action = getattr(self, name)
            if action is not None:
                if self.kind != kind:
                    raise ValueError(f"{name} applies to {kind} learners, not {self.kind!r}")
                _integer(action, name)
        if self.kind == "fixed" and self.fixed_action is None:
            raise ValueError("a fixed learner needs a fixed_action")


def make_learner(kind, game: NormalFormGame, player: int, fixed_action=None, start_action=None) -> Learner:
    """The spec of a learner for one player of `game`.

    A myopic best responder starts from action 0 unless `start_action` says
    otherwise.
    """
    _check_player(player, game)
    if start_action is None and kind == "best_response_myopic":
        start_action = 0
    learner = Learner(kind, player, game.action_counts[player], fixed_action, start_action)
    _check(learner, game)
    return learner


def _check_player(player, game: NormalFormGame):
    _integer(player, "player", 0, game.player_count - 1)


def _check(learner: Learner, game: NormalFormGame):
    """Refuse a learner whose actions do not fit its player in `game`."""
    p = learner.player
    count = game.action_counts[p]
    for name in ("fixed_action", "start_action"):
        action = getattr(learner, name)
        if action is not None and not 0 <= action < count:
            raise ValueError(f"learner {p}: {name} {action} is outside 0..{count - 1}")
    if learner.action_count != count:
        raise ValueError(f"learner {p} has {learner.action_count} actions; player {p} of this game has {count}")


def _sample(probs, draw: float) -> int:
    """First action whose cumulative probability exceeds the uniform draw, else the last."""
    acc = 0.0
    for a, p in enumerate(probs):
        acc += p
        if draw < acc:
            return a
    return len(probs) - 1


def _regret_matching_probs(sums, seen: int, last, inertia: float) -> list:
    """Play probabilities implied by the regret sums after `seen` rounds.

    Switching to a different action gets probability regret/inertia and the
    leftover mass stays on the previous action; with no positive regrets the
    previous action repeats.  The inertia constant 2*(max|A|-1)*payoff_span
    keeps total switch mass at most one half.
    """
    k = len(sums)
    if seen == 0 or last is None:
        return [1.0 / k] * k
    if inertia > 0.0:
        # max(0, s / seen) / inertia: a positive sum stays positive or underflows to 0
        probs = [s / seen / inertia if s > 0.0 else 0.0 for s in sums]
    else:
        probs = [0.0] * k
    probs[last] = 0.0
    probs[last] = 1.0 - reduce(add, probs, 0.0)
    return probs


def _fictitious_play_pick(table: np.ndarray, opponent_counts: dict) -> int:
    """Best response to the empirical frequencies of every opponent's play.

    `table` is the player's payoff table with its own action first and
    `opponent_counts` maps each opponent's index to its action counts.
    Opponents are modeled independently; an empty history means a uniform
    belief.  Ties break to the lowest action index, with a 1e-12 relative
    tolerance so that an exact indifference point is not split by rounding.
    """
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
    total = reduce(add, props, 0.0)
    if total <= 0.0:
        return int(rng.integers(len(props)))
    return _sample([w / total for w in props], rng.random() if draw is None else draw)


def _reinforce(props, action: int, payoff: float, shift: float):
    """Grow the played action's propensity by the shifted payoff received.

    This is the entire update: it reads nothing but the learner's own action
    and realized payoff.
    """
    props[action] += payoff + shift


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

    Every run starts each learner afresh from its spec and each player draws
    from its own rng stream derived from (seed, player index), so identical
    inputs give identical traces.
    """
    n = game.player_count
    if len(learners) != n:
        raise ValueError("need exactly one learner per player")
    _integer(rounds, "rounds", 1)
    _integer(seed, "seed", 0)
    for p, learner in enumerate(learners):
        if learner.player != p:
            raise ValueError(f"learner {p} was built for player {learner.player}")
        _check(learner, game)
    drawers, choosers, observers, repeaters = zip(*(
        _player(learner, game, np.random.default_rng([int(seed), p])) for p, learner in enumerate(learners)))
    observers = [observe for observe in observers if observe is not None]
    fast = None not in repeaters
    if fast:
        replays, advances = zip(*repeaters)
        advances = [advance for advance in advances if advance is not None]
    widest = max(1, _FAST_ENTRIES // (max(game.action_counts) + 1))

    actions = _allocated(np.empty, (rounds, n), dtype=int)
    previous, window = None, _FIRST_WINDOW
    for start in range(0, rounds, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, rounds)
        ahead = [draws(stop - start) for draws in drawers]
        steps = enumerate(zip(*([None] * (stop - start) if a is None else a.tolist() for a in ahead)), start + 1)
        block, filled = [], start  # block holds the rows from filled on
        for t, drawn in steps:  # t rounds are decided once this one is
            profile = [choose(draw) for choose, draw in zip(choosers, drawn)]
            for observe in observers:
                observe(profile)
            block.append(profile)
            if fast and profile == previous and t < stop:
                w = min(window, stop - t)
                m = min(replay(profile, a, t - start, w) for replay, a in zip(replays, ahead))
                if m:
                    for advance in advances:
                        advance(m)
                    actions[filled:t] = block  # never empty: it ends with this round
                    actions[t:t + m] = profile
                    block, filled = [], t + m
                    next(itertools.islice(steps, m - 1, None))  # those m rounds are decided
                window = min(2 * window, widest) if m == w else _FIRST_WINDOW
            previous = profile
        if block:
            actions[filled:stop] = block
    return LearningTrace(game, actions)


def _player(learner: Learner, game: NormalFormGame, rng):
    """One learner's run as plain-Python closures over list state.

    Returns (draws, choose, observe, repeat): `draws(m)` gives the player's
    next m uniforms as an array (None for a player that draws none ahead),
    `choose(draw)` picks the round's action and `observe(profile)` updates
    from the joint action; `observe` is None for a learner that never
    updates.  `repeat` is None for a learner that cannot look ahead, else a
    pair (replays, advance).  Called right after `profile` was observed,
    `replays(profile, draws, i, w)` counts how many of the next w rounds the
    player would replay its action if every other player replayed theirs,
    `draws[i:i + w]` being its uniforms for them; `advance(m)` then updates
    as if m of those rounds were observed (None if that changes nothing).
    """
    p, kind, k = learner.player, learner.kind, learner.action_count

    def ahead(m):
        return rng.random(m)  # the same stream as one random() per round

    def none_ahead(m):
        return None

    if kind == "fixed":
        action = learner.fixed_action
        return none_ahead, lambda draw: action, None, (lambda profile, draws, i, w: w, None)

    if kind == "fictitious_play":
        counts = {j: np.zeros(game.action_counts[j]) for j in range(game.player_count) if j != p}
        table = _own_payoffs(game, p)  # built once per run

        def observe(profile):
            for j, c in counts.items():
                c[profile[j]] += 1
        return none_ahead, lambda draw: _fictitious_play_pick(table, counts), observe, None

    rows, opponents = _own_rows(game, p)
    if kind == "best_response_myopic":
        last_row = None

        def choose(draw):
            if last_row is None:
                return learner.start_action
            return last_row.index(max(last_row))  # the first maximum, as np.argmax

        def observe(profile):
            nonlocal last_row
            last_row = rows[opponents(profile)]

        def replays(profile, draws, i, w):
            # the best reply to a repeated row is the same every round
            return w if choose(None) == profile[p] else 0
        return none_ahead, choose, observe, (replays, None)

    span = game.payoff_span()
    if kind == "reinforcement":
        # payoffs are shifted to be nonnegative inside the learner; the
        # uniform initial propensity is the exploration floor
        props, shift = [span] * k, -float(game.payoffs.min())

        def observe(profile):
            own = profile[p]
            _reinforce(props, own, rows[opponents(profile)][own], shift)
        # a zero-span game keeps every propensity at zero, so every round
        # draws through rng.integers, which cannot be drawn ahead
        draws = ahead if span > 0.0 else none_ahead
        return draws, lambda draw: _reinforcement_pick(props, rng, draw), observe, None

    sums = [0.0] * k
    seen, last, inertia = 0, None, 2.0 * (max(game.action_counts) - 1) * span
    run = None  # the sums before each round of the last look-ahead, and after it

    def choose(draw):
        return _sample(_regret_matching_probs(sums, seen, last, inertia), draw)

    def observe(profile):
        nonlocal sums, seen, last
        row = rows[opponents(profile)]
        last = profile[p]
        u = row[last]
        sums = [s + (x - u) for s, x in zip(sums, row)]
        seen += 1

    def replays(profile, draws, i, w):
        # A repeated profile adds the same differences every round, so the
        # sums before each round are one running sum per action.  The rule
        # of _regret_matching_probs then prices all w rounds at once with
        # the same elementwise operations in the same order.  Every switch
        # probability is >= 0, so _sample's running total never falls:
        # it picks `last` exactly when the draw is at least the total before
        # `last` and below the total through it, or `last` is the final action.
        nonlocal run
        row = rows[opponents(profile)]
        u = row[last]
        run = np.empty((k, w + 1))
        run[:, 0] = sums
        run[:, 1:] = np.array([x - u for x in row])[:, None]
        np.add.accumulate(run, axis=1, out=run)
        if inertia <= 0.0:
            return w  # no switch mass: the last action repeats
        before = run[:, :w]
        probs = np.where(before > 0.0, before / np.arange(seen, seen + w) / inertia, 0.0)
        probs[last] = 0.0
        total = np.zeros(w)
        for b, column in enumerate(probs):  # index order, as reduce(add, probs, 0.0)
            if b == last:
                low = total
            total = total + column
        stays = draws[i:i + w] >= low
        if last < k - 1:
            stays &= draws[i:i + w] < low + (1.0 - total)
        return w if stays.all() else int(stays.argmin())

    def advance(m):
        nonlocal sums, seen
        sums = run[:, m].tolist()
        seen += m
    return ahead, choose, observe, (replays, advance)


def _own_rows(game: NormalFormGame, player: int):
    """The player's own-action payoff rows and a map from a profile to its row's key.

    There is one row per opponent profile: a list indexed by the opponent's
    action in a two-player game, else a dict keyed by the opponents' tuple.
    """
    rows = _own_payoffs(game, player).reshape(game.action_counts[player], -1).T.tolist()
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
    history = _own_payoffs(game, player)[(np.arange(game.action_counts[player]), *opponents)]
    history -= history[np.arange(rounds), actions[:, player], None]
    np.cumsum(history, axis=0, out=history)
    history /= np.arange(1, rounds + 1)[:, None]
    return np.maximum(0.0, history, out=history)


def regret_vector(trace: LearningTrace, player: int, t: int) -> np.ndarray:
    """Recompute the time-t regret vector of one player straight from a trace."""
    _check_player(player, trace.game)
    _integer(t, "t", 1, trace.rounds)
    return _regret_history(trace.game, trace.actions[:t], player)[-1]


def empirical_joint_distribution(trace: LearningTrace) -> JointDistribution:
    """Frequency of each joint profile over the whole trace."""
    flat = np.ravel_multi_index(trace.actions.T, trace.action_counts)
    counts = np.bincount(flat, minlength=int(np.prod(trace.action_counts)))
    return JointDistribution.from_flat(counts / trace.rounds, trace.action_counts)


def value_of_learning(trace: LearningTrace, window) -> np.ndarray:
    """Per-player average utility over the half-open round window [start, stop)."""
    start, stop = window
    for bound in window:
        _integer(bound, "window")
    if not 0 <= start < stop <= trace.rounds:
        raise ValueError("window must be a nonempty range inside the trace")
    return trace.utilities[start:stop].mean(axis=0)
