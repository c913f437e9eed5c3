import dataclasses
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgames as sg
from specgames import learning
from specgames.learning import (
    LEARNER_KINDS,
    Learner,
    _fictitious_play_pick,
    _regret_matching_probs,
    _reinforce,
    _reinforcement_pick,
    make_learner,
)
from specgames.matrix_games import _own_payoffs


# Reference engine: the numpy per-round loop that the list-based loop of
# run_repeated_game replaces, kept here to pin its traces bit for bit.  It
# keeps its own mutable state per learner spec.

def reference_state(learner, game, seed):
    """Fresh state for one learner spec, with the fields of every kind."""
    p, k, span = learner.player, learner.action_count, game.payoff_span()
    return SimpleNamespace(
        kind=learner.kind, player=p, action_count=k,
        fixed_action=learner.fixed_action, start_action=learner.start_action,
        regret_sums=np.zeros(k), inertia=2.0 * (max(game.action_counts) - 1) * span,
        opponent_counts={j: np.zeros(game.action_counts[j]) for j in range(game.player_count) if j != p},
        propensities=np.full(k, span), payoff_shift=-float(game.payoffs.min()),
        last_opponent_profile=None, last_action=None, rounds_seen=0,
        rng=np.random.default_rng([int(seed), p]),
    )


def _sample(probs, rng) -> int:
    draw = rng.random()
    acc = 0.0
    for a, p in enumerate(probs):
        acc += p
        if draw < acc:
            return a
    return len(probs) - 1


def _regret_matching_probabilities(state):
    if state.rounds_seen == 0 or state.last_action is None:
        return np.full(state.action_count, 1.0 / state.action_count)
    probs = np.zeros(state.action_count)
    if state.inertia > 0.0:
        regrets = np.maximum(0.0, state.regret_sums / state.rounds_seen)
        probs = regrets / state.inertia
    probs[state.last_action] = 0.0
    probs[state.last_action] = 1.0 - probs.sum()
    return probs


def _select(state, game):
    if state.kind == "fixed":
        return state.fixed_action
    if state.kind == "best_response_myopic":
        if state.last_opponent_profile is None:
            return state.start_action
        return int(np.argmax(_own_payoffs(game, state.player)[(slice(None), *state.last_opponent_profile)]))
    if state.kind == "fictitious_play":
        table = np.moveaxis(game.payoffs[..., state.player], state.player, 0)
        return _fictitious_play_pick(table, state.opponent_counts)
    if state.kind == "regret_matching":
        return _sample(_regret_matching_probabilities(state), state.rng)
    total = state.propensities.sum()
    if total <= 0.0:
        return int(state.rng.integers(state.action_count))
    return _sample(state.propensities / total, state.rng)


def _observe(state, game, profile, payoff):
    own = profile[state.player]
    if state.kind == "reinforcement":
        state.propensities[own] += payoff + state.payoff_shift
        state.last_action = int(own)
        state.rounds_seen += 1
        return
    opponents = profile[:state.player] + profile[state.player + 1:]
    if state.kind == "regret_matching":
        alternatives = _own_payoffs(game, state.player)[(slice(None), *opponents)]
        state.regret_sums += alternatives - alternatives[own]
    elif state.kind == "fictitious_play":
        for j, counts in state.opponent_counts.items():
            counts[profile[j]] += 1
    elif state.kind == "best_response_myopic":
        state.last_opponent_profile = opponents
    state.last_action = own
    state.rounds_seen += 1


def reference_run(game, learners, rounds, seed):
    states = [reference_state(learner, game, seed) for learner in learners]
    actions = np.zeros((rounds, game.player_count), dtype=int)
    for t in range(rounds):
        profile = tuple(_select(state, game) for state in states)
        payoff = game.payoff_vector(profile)
        actions[t] = profile
        for p, state in enumerate(states):
            _observe(state, game, profile, float(payoff[p]))
    return actions


def fixed_pair(game, actions):
    return [make_learner("fixed", game, p, fixed_action=a) for p, a in enumerate(actions)]


def referee_regrets(game, actions):
    """Reference regrets: one accumulator per player, updated once per round."""
    rounds, n = actions.shape
    records = tuple(np.zeros((rounds, game.action_counts[p])) for p in range(n))
    referee = [np.zeros(game.action_counts[p]) for p in range(n)]
    for t in range(rounds):
        profile = tuple(int(a) for a in actions[t])
        for p in range(n):
            index = tuple(slice(None) if q == p else profile[q] for q in range(n))
            alternatives = game.payoffs[index + (p,)]
            referee[p] += alternatives - alternatives[profile[p]]
            np.maximum(0.0, referee[p] / (t + 1), out=records[p][t])
    return records


def three_player_game():
    rng = np.random.default_rng(404)
    return sg.NormalFormGame(rng.uniform(-3.0, 5.0, size=(4, 2, 3, 3)))


def learners_of(kind, game):
    if kind == "fixed":
        return [make_learner(kind, game, p, fixed_action=c - 1)
                for p, c in enumerate(game.action_counts)]
    return [make_learner(kind, game, p) for p in range(game.player_count)]


def test_make_learner_kind_fields(contention):
    assert make_learner("reinforcement", contention, 1) == Learner("reinforcement", 1, 2)
    assert make_learner("fixed", contention, 0, fixed_action=1) == Learner("fixed", 0, 2, fixed_action=1)
    myopic = Learner("best_response_myopic", 1, 2, start_action=0)
    assert make_learner("best_response_myopic", contention, 1) == myopic
    with pytest.raises(ValueError):
        make_learner("gradient", contention, 0)
    with pytest.raises(ValueError):
        make_learner("fixed", contention, 0)  # needs fixed_action


def test_regret_vector_single_round(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (0, 0)), 1, seed=0)
    r = sg.regret_vector(trace, 0, 1)
    assert r == pytest.approx([0.0, 2.0])  # switching to Backoff would have earned 2


def test_regret_vector_two_rounds(contention):
    # opponent plays Aggress then Backoff while player 1 holds Aggress
    learners = [
        make_learner("fixed", contention, 0, fixed_action=0),
        make_learner("best_response_myopic", contention, 1, start_action=0),
    ]
    trace = sg.run_repeated_game(contention, learners, 2, seed=0)
    assert trace.actions[:, 1].tolist() == [0, 1]
    r = sg.regret_vector(trace, 0, 2)
    assert r == pytest.approx([0.0, 0.5])  # ((2-0) + (6-7)) / 2


def test_regret_vector_zero_for_constant_best_response(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (0, 1)), 50, seed=0)
    # player 1 always played Aggress against Backoff, its unique best response
    assert sg.regret_vector(trace, 0, 50) == pytest.approx([0.0, 0.0])


def test_regret_vector_three_players():
    game = three_player_game()
    trace = sg.run_repeated_game(game, learners_of("regret_matching", game), 300, seed=3)
    reference = referee_regrets(game, trace.actions)
    for player in range(3):
        for t in (1, 2, 50, 300):
            direct = sg.regret_vector(trace, player, t)
            assert np.array_equal(direct, reference[player][t - 1])
    # a constant profile leaves the one-shot deviation gains as the regrets
    trace = sg.run_repeated_game(game, learners_of("fixed", game), 4, seed=0)
    gains = game.payoffs[:, 1, 2, 0] - game.payoffs[3, 1, 2, 0]
    assert sg.regret_vector(trace, 0, 4) == pytest.approx(np.maximum(0.0, gains), abs=1e-12)


def test_recorded_regrets_match_direct_recomputation(contention):
    learners = [make_learner("regret_matching", contention, p) for p in range(2)]
    trace = sg.run_repeated_game(contention, learners, 500, seed=11)
    reference = referee_regrets(contention, trace.actions)
    for player in range(2):
        for t in (1, 7, 123, 500):
            direct = sg.regret_vector(trace, player, t)
            assert np.array_equal(direct, reference[player][t - 1])
            assert np.array_equal(trace.regrets[player][t - 1], reference[player][t - 1])


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_recorded_regrets_equal_per_round_referee(kind, contention, two_channel):
    grid_game = sg.discretize_power_game(two_channel, levels=7)
    assert grid_game.action_counts == (8, 8)
    wide_game = sg.discretize_power_game(two_channel, levels=10)
    assert wide_game.action_counts == (11, 11)
    for game in (contention, grid_game, wide_game, three_player_game()):
        trace = sg.run_repeated_game(game, learners_of(kind, game), 400, seed=13)
        utilities = np.array([game.payoff_vector(profile) for profile in trace.actions])
        assert np.array_equal(trace.utilities, utilities)
        reference = referee_regrets(game, trace.actions)
        regrets = trace.regrets
        assert trace.regrets is regrets  # derived once, then kept
        for player in range(game.player_count):
            assert np.array_equal(regrets[player], reference[player])
            for t in (1, 37, 400):
                assert np.array_equal(sg.regret_vector(trace, player, t), regrets[player][t - 1])


def test_trace_refuses_malformed_record(contention):
    for actions in (
        np.zeros((5, 3), dtype=int),  # one column too many
        np.array([[0, 1], [2, 0]]),  # player 1 has no action 2
        np.array([[0, -1]]),
        np.zeros((0, 2), dtype=int),  # no rounds
        np.zeros((5, 2)),  # float record
    ):
        with pytest.raises(ValueError):
            sg.LearningTrace(contention, actions)


def regret_matching_probs(state):
    sums = state.regret_sums.tolist()
    return _regret_matching_probs(sums, state.rounds_seen, state.last_action, state.inertia)


def test_regret_matching_probabilities_rule(contention):
    state = reference_state(make_learner("regret_matching", contention, 0), contention, seed=0)
    _observe(state, contention, (0, 0), 0.0)
    probs = regret_matching_probs(state)
    # regret(Backoff)=2, span=7, inertia=2*1*7=14 -> switch with prob 1/7
    assert probs == pytest.approx([6.0 / 7.0, 1.0 / 7.0])


def test_regret_matching_zero_regret_repeats(contention):
    state = reference_state(make_learner("regret_matching", contention, 0), contention, seed=0)
    _observe(state, contention, (0, 1), 7.0)  # (Aggress, Backoff): no regret
    probs = regret_matching_probs(state)
    assert probs == pytest.approx([1.0, 0.0])


def test_regret_matching_first_round_uniform(contention):
    state = reference_state(make_learner("regret_matching", contention, 0), contention, seed=0)
    probs = regret_matching_probs(state)
    assert probs == pytest.approx([0.5, 0.5])


def test_fictitious_play_steps(contention):
    table, counts = contention.payoffs[..., 0], {1: np.zeros(2)}  # player 0's own action is first
    # empty history: uniform belief -> (0+7)/2 vs (2+6)/2 -> Backoff
    assert _fictitious_play_pick(table, counts) == 1
    counts[1][:] = [10, 0]
    assert _fictitious_play_pick(table, counts) == 1
    counts[1][:] = [1, 2]  # exact indifference point
    assert _fictitious_play_pick(table, counts) == 0


def test_fictitious_play_frequencies_approach_mixed_nash(contention):
    # symmetric fictitious play miscoordinates in lockstep here, but the
    # empirical frequency of Aggress converges to the mixed-equilibrium 1/3
    learners = [make_learner("fictitious_play", contention, p) for p in range(2)]
    trace = sg.run_repeated_game(contention, learners, 3000, seed=0)
    for player in range(2):
        share = np.mean(trace.actions[:, player] == 0)
        assert share == pytest.approx(1.0 / 3.0, abs=0.02)


def test_fictitious_play_exploits_fixed_opponent(contention):
    learners = [
        make_learner("fictitious_play", contention, 0),
        make_learner("fixed", contention, 1, fixed_action=0),
    ]
    trace = sg.run_repeated_game(contention, learners, 50, seed=0)
    # after observing a committed aggressor, the learner settles on Backoff
    assert np.all(trace.actions[2:, 0] == 1)


def test_reinforcement_uniform_when_equal():
    rng = np.random.default_rng(3)
    draws = [_reinforcement_pick([7.0, 7.0], rng) for _ in range(2000)]
    share = np.mean(np.array(draws) == 0)
    assert 0.45 <= share <= 0.55


def test_reinforcement_concentrates_on_rewarded_action():
    props = [7.0, 7.0]
    for _ in range(300):
        _reinforce(props, 1, 7.0, 0.0)  # only Backoff pays
        _reinforce(props, 0, 0.0, 0.0)
    assert props[1] / sum(props) > 0.95
    history = []
    probe = [7.0, 7.0]
    for k in range(100):
        _reinforce(probe, 1, 7.0, 0.0)
        history.append(probe[1] / sum(probe))
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_reinforcement_update_reads_only_own_payoff(contention):
    # the update cannot see opponents: replaying the own action/payoff
    # stream on the player's rng stream reproduces its action column
    learners = [
        make_learner("reinforcement", contention, 0),
        make_learner("regret_matching", contention, 1),
    ]
    trace = sg.run_repeated_game(contention, learners, 400, seed=9)
    rng = np.random.default_rng([9, 0])
    props, shift = [7.0, 7.0], 0.0  # exploration floor = payoff span; payoffs are already nonnegative
    picks = []
    for action, payoff in zip(trace.actions[:, 0].tolist(), trace.utilities[:, 0].tolist()):
        picks.append(_reinforcement_pick(props, rng))
        _reinforce(props, action, payoff, shift)
    assert picks == trace.actions[:, 0].tolist()


def test_run_fixed_learners_constant_trace(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (1, 1)), 10, seed=0)
    assert np.all(trace.actions == 1)
    assert np.all(trace.utilities == 6.0)
    # the standing regret of deviating to Aggress is 7-6=1 per round
    assert trace.regrets[0][-1] == pytest.approx([1.0, 0.0])


def test_run_best_response_dynamics_settles(two_channel_game):
    learners = [make_learner("best_response_myopic", two_channel_game, p, start_action=0)
                for p in range(2)]
    trace = sg.run_repeated_game(two_channel_game, learners, 8, seed=0)
    assert tuple(trace.actions[0]) == (0, 0)
    assert tuple(trace.actions[1]) == (1, 0)  # user 1 defects to Spread first
    assert tuple(trace.actions[2]) == (1, 1)
    assert np.all(trace.actions[2:] == 1)


def test_run_determinism(contention):
    learners = [make_learner("regret_matching", contention, p) for p in range(2)]
    a = sg.run_repeated_game(contention, learners, 2000, seed=21)
    b = sg.run_repeated_game(contention, learners, 2000, seed=21)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.utilities, b.utilities)
    c = sg.run_repeated_game(contention, learners, 2000, seed=22)
    assert not np.array_equal(a.actions, c.actions)


def test_empirical_joint_distribution(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (0, 1)), 25, seed=0)
    dist = sg.empirical_joint_distribution(trace)
    assert dist.probs[0, 1] == 1.0
    learners = [
        make_learner("best_response_myopic", contention, 0, start_action=0),
        make_learner("best_response_myopic", contention, 1, start_action=1),
    ]
    trace = sg.run_repeated_game(contention, learners, 10, seed=0)
    dist = sg.empirical_joint_distribution(trace)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_alternating_profile_distribution(contention):
    actions = np.array([[0, 1], [1, 0]] * 8)
    trace = sg.LearningTrace(contention, actions)
    dist = sg.empirical_joint_distribution(trace)
    assert dist.probs.reshape(-1) == pytest.approx([0.0, 0.5, 0.5, 0.0])


def test_value_of_learning_windows(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (1, 1)), 20, seed=0)
    assert sg.value_of_learning(trace, (0, 20)) == pytest.approx([6.0, 6.0])
    assert sg.value_of_learning(trace, (19, 20)) == pytest.approx([6.0, 6.0])
    with pytest.raises(ValueError):
        sg.value_of_learning(trace, (5, 5))
    with pytest.raises(ValueError):
        sg.value_of_learning(trace, (0, 21))


def test_value_of_learning_mixed_nash_play(contention):
    # i.i.d. play at the mixed equilibrium: sample mean near 14/3
    rng = np.random.default_rng(17)
    rounds = 100_000
    acts = rng.choice(2, size=(rounds, 2), p=[1.0 / 3.0, 2.0 / 3.0])
    trace = sg.LearningTrace(contention, acts)
    avg = sg.value_of_learning(trace, (0, rounds))
    sigma = np.std(trace.utilities, axis=0) / np.sqrt(rounds)
    for n in range(2):
        assert abs(avg[n] - 14.0 / 3.0) <= 3.0 * sigma[n]


def test_no_regret_on_random_2x2_games():
    # average regret decays on arbitrary payoffs, not just the shipped games
    for idx in range(3):
        rng = np.random.default_rng([321, idx])
        game = sg.NormalFormGame(rng.uniform(0.0, 5.0, size=(2, 2, 2)))
        learners = [make_learner("regret_matching", game, p) for p in range(2)]
        trace = sg.run_repeated_game(game, learners, 50_000, seed=idx)
        peak = max(float(trace.regrets[p][-1].max()) for p in range(2))
        assert peak <= 0.05, (idx, peak)


def test_learner_player_mismatch(contention):
    learners = [make_learner("fixed", contention, 1, fixed_action=0),
                make_learner("fixed", contention, 0, fixed_action=0)]
    with pytest.raises(ValueError):
        sg.run_repeated_game(contention, learners, 5, seed=0)


def test_make_learner_refuses_options_of_other_kinds(contention):
    for kind in LEARNER_KINDS:
        if kind != "fixed":
            with pytest.raises(ValueError, match="fixed_action"):
                make_learner(kind, contention, 0, fixed_action=1)
        if kind != "best_response_myopic":
            options = {"fixed_action": 1} if kind == "fixed" else {}
            with pytest.raises(ValueError, match="start_action"):
                make_learner(kind, contention, 0, start_action=1, **options)
    assert make_learner("best_response_myopic", contention, 0).start_action == 0
    assert make_learner("best_response_myopic", contention, 0, start_action=1).start_action == 1
    for options, message in (
        ({"kind": "best_response_myopic", "start_action": 2}, "outside"),
        ({"kind": "fixed", "fixed_action": -1}, "outside"),
        ({"kind": "fixed", "fixed_action": 1.7}, "fixed_action must be an integer"),
        ({"kind": "best_response_myopic", "start_action": 0.9}, "start_action must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            make_learner(game=contention, player=0, **options)


def test_learner_spec_is_frozen(contention):
    learner = make_learner("fixed", contention, 0, fixed_action=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        learner.fixed_action = 0


def test_learning_api_refuses_non_integer_arguments(contention):
    learners = fixed_pair(contention, (0, 1))
    trace = sg.run_repeated_game(contention, learners, 20, seed=0)
    for call, name in (
        (lambda: sg.run_repeated_game(contention, learners, 2.5, seed=0), "rounds"),
        (lambda: sg.run_repeated_game(contention, learners, 5, seed=1.9), "seed"),
        (lambda: sg.run_repeated_game(contention, learners, 5, seed="3"), "seed"),
        (lambda: sg.regret_vector(trace, 0, 2.5), "t"),
        (lambda: sg.regret_vector(trace, 0, 10.0), "t"),
        (lambda: sg.value_of_learning(trace, (0.5, 3)), "window"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_run_refuses_a_bad_seed(seed, contention):
    with pytest.raises(ValueError, match="^seed must be"):
        sg.run_repeated_game(contention, fixed_pair(contention, (0, 1)), 5, seed)


def test_learning_api_refuses_bad_player(contention):
    trace = sg.run_repeated_game(contention, fixed_pair(contention, (0, 1)), 20, seed=0)
    for player in (0.5, 1.0, "1", None, True):
        with pytest.raises(ValueError, match="^player must be an integer"):
            make_learner("fixed", contention, player, fixed_action=1)
        with pytest.raises(ValueError, match="^player must be an integer"):
            sg.regret_vector(trace, player, 1)
    for player in (2, -1):
        with pytest.raises(ValueError, match=r"^player must be in 0\.\.1"):
            make_learner("fixed", contention, player, fixed_action=1)
        with pytest.raises(ValueError, match=r"^player must be in 0\.\.1"):
            sg.regret_vector(trace, player, 1)


def test_run_refuses_learners_built_for_another_game(contention, two_channel):
    grid_game = sg.discretize_power_game(two_channel, levels=7)
    for kind in LEARNER_KINDS:
        with pytest.raises(ValueError, match="learner 0 has 2 actions"):
            sg.run_repeated_game(grid_game, learners_of(kind, contention), 5, seed=0)
    fixed = [make_learner("fixed", contention, 0, fixed_action=0),
             make_learner("fixed", grid_game, 1, fixed_action=2)]
    myopic = [make_learner("best_response_myopic", grid_game, 0, start_action=5),
              make_learner("best_response_myopic", contention, 1)]
    for learners, message in ((fixed, "learner 1: fixed_action 2"), (myopic, "learner 0: start_action 5")):
        with pytest.raises(ValueError, match=message):
            sg.run_repeated_game(contention, learners, 5, seed=0)


ENGINE_GAMES = ("2x2", "8x8", "11x11", "4x2x3", "zero-span")
# one learner kind per player, cycled over the players of the game
MIXES = [(kind,) for kind in LEARNER_KINDS] + [
    ("fictitious_play", "regret_matching"),
    ("reinforcement", "best_response_myopic"),
    ("fixed", "regret_matching"),
    ("regret_matching", "reinforcement", "fictitious_play"),
    ("best_response_myopic", "regret_matching"),
]


@pytest.fixture(scope="module")
def engine_games(contention, two_channel):
    return {
        "2x2": contention,
        "8x8": sg.discretize_power_game(two_channel, levels=7),
        "11x11": sg.discretize_power_game(two_channel, levels=10),
        "4x2x3": three_player_game(),
        # every payoff equal: reinforcement draws through rng.integers
        "zero-span": sg.NormalFormGame(np.full((3, 2, 2), 1.5)),
    }


def mixed_learners(game, mix):
    learners = []
    for p in range(game.player_count):
        kind, last = mix[p % len(mix)], game.action_counts[p] - 1
        options = {"fixed": {"fixed_action": last}, "best_response_myopic": {"start_action": last}}
        learners.append(make_learner(kind, game, p, **options.get(kind, {})))
    return learners


def assert_matches_reference(game, mix, rounds, seed):
    learners = mixed_learners(game, mix)
    trace = sg.run_repeated_game(game, learners, rounds, seed)
    expected = reference_run(game, learners, rounds, seed)
    assert trace.actions.dtype == expected.dtype and trace.actions.tobytes() == expected.tobytes()
    return trace


@pytest.mark.parametrize("mix", MIXES, ids="+".join)
@pytest.mark.parametrize("name", ENGINE_GAMES)
def test_engine_matches_reference_loop(name, mix, engine_games, monkeypatch):
    monkeypatch.setattr(learning, "_DRAW_BLOCK", 64)  # many draw blocks in a short run
    for seed in (0, 1, 2):
        assert_matches_reference(engine_games[name], mix, 200, seed)


@pytest.mark.parametrize("mix", [("regret_matching",), ("reinforcement", "fictitious_play")], ids="+".join)
def test_engine_matches_reference_across_draw_blocks(mix, contention):
    assert_matches_reference(contention, mix, 2 * learning._DRAW_BLOCK + 5, seed=4)


def test_zero_span_reinforcement_plays_uniformly(engine_games):
    trace = assert_matches_reference(engine_games["zero-span"], ("reinforcement",), 300, seed=5)
    for p, count in enumerate(trace.action_counts):
        share = np.bincount(trace.actions[:, p], minlength=count) / trace.rounds
        assert share == pytest.approx(np.full(count, 1.0 / count), abs=0.1)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_engine_matches_reference_property(data):
    counts = tuple(data.draw(st.lists(st.integers(2, 8), min_size=2, max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    payoffs = rng.uniform(-3.0, 5.0, size=counts + (len(counts),))
    # coarse rounding forces ties; a zero scale gives a zero-span game
    scale = data.draw(st.sampled_from([0.0, 1.0, 4.0]))
    game = sg.NormalFormGame(np.round(payoffs * scale) + 1.5)
    mix = data.draw(st.sampled_from(MIXES))
    rounds, seed = data.draw(st.integers(1, 400)), data.draw(st.integers(0, 2**16))
    with pytest.MonkeyPatch.context() as patch:
        # small draw blocks cut look-aheads at block edges
        patch.setattr(learning, "_DRAW_BLOCK", data.draw(st.integers(1, 80)))
        assert_matches_reference(game, mix, rounds, seed)


def test_repeated_rounds_skip_the_per_round_step(contention, monkeypatch):
    steps = 0

    def counted(*args):
        nonlocal steps
        steps += 1
        return _regret_matching_probs(*args)
    monkeypatch.setattr(learning, "_regret_matching_probs", counted)
    trace = assert_matches_reference(contention, ("regret_matching",), 5000, seed=7)
    assert np.mean(np.all(trace.actions[1:] == trace.actions[:-1], axis=1)) > 0.99
    assert steps <= 2 * 40  # two players, each stepping through at most 40 of the 5,000 rounds


def repeat_edges(probs, last):
    """The lowest and the highest draw for which `_sample` picks `last`."""
    low = reduce(add, probs[:last], 0.0)  # _sample's running total before `last`
    high = low + probs[last] if last < len(probs) - 1 else 1.0
    return low, float(np.nextafter(high, 0.0))


@pytest.mark.parametrize("name", ["2x2", "8x8", "4x2x3"])
def test_look_ahead_replays_exactly_as_the_per_round_rule(name, engine_games):
    # Each round's draw sits on an edge of the interval that repeats the last
    # action, so pricing any round with other sums moves a decision.
    game, window = engine_games[name], 40
    for seed in range(10):
        rng = np.random.default_rng(seed)
        profiles = [tuple(int(rng.integers(c)) for c in game.action_counts) for _ in range(5)]
        learner = make_learner("regret_matching", game, 0)
        state = reference_state(learner, game, seed)
        _, _, observe, (replays, _) = learning._player(learner, game, rng)
        for profile in profiles:  # the last profile then repeats
            observe(list(profile))
            _observe(state, game, profile, 0.0)
        edges = []
        for _ in range(window):
            edges.append(repeat_edges(regret_matching_probs(state), state.last_action))
            _observe(state, game, profiles[-1], 0.0)
        draws = np.array([edge[j % 2] for j, edge in enumerate(edges)])
        assert replays(list(profiles[-1]), draws, 0, window) == window
        for j, (low, high) in enumerate(edges):
            if low > 0.0 or high < np.nextafter(1.0, 0.0):
                switch = draws.copy()
                switch[j] = np.nextafter(low, -1.0) if low > 0.0 else np.nextafter(high, 1.0)
                assert replays(list(profiles[-1]), switch, 0, window) == j
