import numpy as np
import pytest

import specgames as sg
from specgames import learning
from specgames.learning import (
    LEARNER_KINDS,
    _np_sum,
    _start,
    make_learner,
    regret_matching_probabilities,
    reinforcement_update,
)
from specgames.matrix_games import _own_payoffs


# Reference engine: the numpy per-round loop that the list-based loop of
# run_repeated_game replaces, kept here to pin its traces bit for bit.

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
        return int(np.argmax(_own_payoffs(game, state.player, state.last_opponent_profile)))
    if state.kind == "fictitious_play":
        return sg.fictitious_play_step(state, game)
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
        alternatives = _own_payoffs(game, state.player, opponents)
        state.regret_sums += alternatives - alternatives[own]
    elif state.kind == "fictitious_play":
        for j, counts in state.opponent_counts.items():
            counts[profile[j]] += 1
    elif state.kind == "best_response_myopic":
        state.last_opponent_profile = opponents
    state.last_action = own
    state.rounds_seen += 1


def reference_run(game, learners, rounds, seed):
    for p, state in enumerate(learners):
        _start(state, game)
        state.rng = np.random.default_rng([int(seed), p])
    actions = np.zeros((rounds, game.player_count), dtype=int)
    for t in range(rounds):
        profile = tuple(_select(state, game) for state in learners)
        payoff = game.payoff_vector(profile)
        actions[t] = profile
        for p, state in enumerate(learners):
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
    rm = make_learner("regret_matching", contention, 0)
    assert rm.regret_sums is not None and rm.propensities is None
    fp = make_learner("fictitious_play", contention, 0)
    assert fp.opponent_counts is not None and fp.regret_sums is None
    rl = make_learner("reinforcement", contention, 1)
    assert rl.propensities is not None and rl.opponent_counts is None
    assert rl.propensities == pytest.approx([7.0, 7.0])  # exploration floor = payoff span
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


def test_regret_matching_probabilities_rule(contention):
    state = make_learner("regret_matching", contention, 0)
    state.rng = np.random.default_rng(0)
    _observe(state, contention, (0, 0), 0.0)
    probs = regret_matching_probabilities(state)
    # regret(Backoff)=2, span=7, inertia=2*1*7=14 -> switch with prob 1/7
    assert probs == pytest.approx([6.0 / 7.0, 1.0 / 7.0])


def test_regret_matching_zero_regret_repeats(contention):
    state = make_learner("regret_matching", contention, 0)
    _observe(state, contention, (0, 1), 7.0)  # (Aggress, Backoff): no regret
    probs = regret_matching_probabilities(state)
    assert probs == pytest.approx([1.0, 0.0])


def test_regret_matching_first_round_uniform(contention):
    state = make_learner("regret_matching", contention, 0)
    probs = regret_matching_probabilities(state)
    assert probs == pytest.approx([0.5, 0.5])


def test_fictitious_play_steps(contention):
    state = make_learner("fictitious_play", contention, 0)
    # empty history: uniform belief -> (0+7)/2 vs (2+6)/2 -> Backoff
    assert sg.fictitious_play_step(state, contention) == 1
    state.opponent_counts[1][:] = [10, 0]
    assert sg.fictitious_play_step(state, contention) == 1
    state.opponent_counts[1][:] = [1, 2]  # exact indifference point
    assert sg.fictitious_play_step(state, contention) == 0


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


def test_reinforcement_uniform_when_equal(contention):
    state = make_learner("reinforcement", contention, 0)
    rng = np.random.default_rng(3)
    draws = [sg.reinforcement_step(state, rng) for _ in range(2000)]
    share = np.mean(np.array(draws) == 0)
    assert 0.45 <= share <= 0.55


def test_reinforcement_concentrates_on_rewarded_action(contention):
    state = make_learner("reinforcement", contention, 0)
    for _ in range(300):
        reinforcement_update(state, 1, 7.0)  # only Backoff pays
        reinforcement_update(state, 0, 0.0)
    total = state.propensities.sum()
    assert state.propensities[1] / total > 0.95
    history = []
    probe = make_learner("reinforcement", contention, 0)
    for k in range(100):
        reinforcement_update(probe, 1, 7.0)
        history.append(probe.propensities[1] / probe.propensities.sum())
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_reinforcement_update_reads_only_own_payoff(contention):
    # the update signature cannot see opponents: replaying the own
    # action/payoff stream reproduces the state exactly
    learners = [
        make_learner("reinforcement", contention, 0),
        make_learner("regret_matching", contention, 1),
    ]
    trace = sg.run_repeated_game(contention, learners, 400, seed=9)
    replay = make_learner("reinforcement", contention, 0)
    for t in range(trace.rounds):
        reinforcement_update(replay, int(trace.actions[t, 0]), float(trace.utilities[t, 0]))
    assert replay.propensities == pytest.approx(learners[0].propensities, abs=1e-12)


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
    for options in ({"kind": "best_response_myopic", "start_action": 2}, {"kind": "fixed", "fixed_action": -1}):
        with pytest.raises(ValueError, match="outside"):
            make_learner(game=contention, player=0, **options)


def test_run_refuses_learners_built_for_another_game(contention, two_channel):
    grid_game = sg.discretize_power_game(two_channel, levels=7)
    for kind in LEARNER_KINDS:
        with pytest.raises(ValueError, match="learner 0 has 2 actions"):
            sg.run_repeated_game(grid_game, learners_of(kind, contention), 5, seed=0)
    fixed = fixed_pair(contention, (0, 1))
    fixed[1].fixed_action = 2
    myopic = [make_learner("best_response_myopic", contention, p) for p in range(2)]
    myopic[0].start_action = 5
    for learners, message in ((fixed, "learner 1: fixed_action 2"), (myopic, "learner 0: start_action 5")):
        with pytest.raises(ValueError, match=message):
            sg.run_repeated_game(contention, learners, 5, seed=0)


def test_np_sum_matches_numpy_summation_order():
    # sequential below 8 entries, 8 accumulators up to 128, pairwise above
    rng = np.random.default_rng(2024)
    for n in range(1, 301):
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-12, 13, n)
            x[rng.random(n) < 0.1] = -0.0
            assert np.float64(_np_sum(x.tolist())).tobytes() == np.add.reduce(x).tobytes(), n


ENGINE_GAMES = ("2x2", "8x8", "11x11", "4x2x3", "zero-span")
# one learner kind per player, cycled over the players of the game
MIXES = [(kind,) for kind in LEARNER_KINDS] + [
    ("fictitious_play", "regret_matching"),
    ("reinforcement", "best_response_myopic"),
    ("fixed", "regret_matching"),
    ("regret_matching", "reinforcement", "fictitious_play"),
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


def assert_same_states(ours, reference):
    for a, b in zip(ours, reference):
        for name in ("kind", "player", "action_count", "inertia", "payoff_shift", "fixed_action",
                     "start_action", "last_opponent_profile", "last_action", "rounds_seen"):
            assert getattr(a, name) == getattr(b, name), name
        for name in ("regret_sums", "propensities"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or (x.dtype == y.dtype and x.tobytes() == y.tobytes()), name
        if b.opponent_counts is not None:
            assert a.opponent_counts.keys() == b.opponent_counts.keys()
            for j, counts in b.opponent_counts.items():
                assert a.opponent_counts[j].tobytes() == counts.tobytes()
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def assert_matches_reference(game, mix, rounds, seed):
    ours, reference = mixed_learners(game, mix), mixed_learners(game, mix)
    trace = sg.run_repeated_game(game, ours, rounds, seed)
    expected = reference_run(game, reference, rounds, seed)
    assert trace.actions.dtype == expected.dtype and trace.actions.tobytes() == expected.tobytes()
    assert_same_states(ours, reference)
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
