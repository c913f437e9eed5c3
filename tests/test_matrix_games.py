import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgames as sg
from specgames import matrix_games, power_games
from specgames.errors import DegenerateGameError, NoPureNashError, OracleScaleError
from specgames.power_games import _budget_splits
from specgames.scenario import parse_scenario
from specgames.spectrum import _rates

FIG_PAYOFFS = {
    (0, 1): (2.12, 3.22),  # (Concentrate, Spread)
    (0, 0): (3.46, 3.46),
    (1, 1): (2.83, 2.42),
    (1, 0): (3.59, 2.12),
}


def test_two_channel_game_payoffs(two_channel_game):
    for profile, expected in FIG_PAYOFFS.items():
        got = two_channel_game.payoff_vector(profile)
        assert got == pytest.approx(expected, abs=0.01)
    # exact values from the defining formulas
    assert two_channel_game.utility(0, (0, 1)) == pytest.approx(
        math.log2(1.0 + 10.0 / (1.0 + 0.4 * 5.0)), abs=1e-12
    )
    assert two_channel_game.utility(0, (0, 0)) == pytest.approx(math.log2(11.0), abs=1e-12)


def test_two_channel_game_zero_cross():
    game = sg.build_power_game_2x2(cross_12=(0.0, 0.0), cross_21=(0.0, 0.0))
    for player in range(2):
        u = game.payoffs[..., player]
        # payoffs independent of the opponent's action
        if player == 0:
            assert np.allclose(u[:, 0], u[:, 1], atol=1e-12)
        else:
            assert np.allclose(u[0, :], u[1, :], atol=1e-12)


def test_two_channel_game_symmetric_cross():
    game = sg.build_power_game_2x2(cross_12=(0.4, 0.4), cross_21=(0.4, 0.4))
    for a, b in itertools.product(range(2), range(2)):
        assert game.utility(0, (a, b)) == pytest.approx(game.utility(1, (b, a)), abs=1e-12)


def test_contention_game_matrix(contention):
    assert contention.payoff_vector((0, 1)) == pytest.approx((7.0, 2.0))
    assert contention.payoff_vector((1, 1)) == pytest.approx((6.0, 6.0))
    assert contention.payoff_vector((0, 0)) == pytest.approx((0.0, 0.0))
    assert contention.payoff_vector((1, 0)) == pytest.approx((2.0, 7.0))
    for a, b in itertools.product(range(2), range(2)):
        assert contention.utility(0, (a, b)) == contention.utility(1, (b, a))


def test_game_needs_an_action_per_player():
    with pytest.raises(ValueError, match="at least one action"):
        sg.NormalFormGame(np.zeros((0, 2, 2)))


def test_best_response(contention):
    assert sg.best_response(contention, 0, (0,)) == [1]  # vs Aggress -> Backoff
    assert sg.best_response(contention, 0, (1,)) == [0]  # vs Backoff -> Aggress
    flat = sg.NormalFormGame(np.ones((2, 2, 2)))
    assert sg.best_response(flat, 0, (0,)) == [0, 1]


def test_strictly_dominant(two_channel_game, contention):
    assert sg.strictly_dominant_action(two_channel_game, 0) == 1  # Spread
    assert sg.strictly_dominant_action(two_channel_game, 1) is None
    assert sg.strictly_dominant_action(contention, 0) is None
    assert sg.strictly_dominant_action(contention, 1) is None
    one_action = sg.NormalFormGame(np.zeros((1, 2, 2)))
    assert sg.strictly_dominant_action(one_action, 0) == 0


def test_pure_nash(two_channel_game, contention):
    assert sg.pure_nash(two_channel_game) == [(1, 1)]
    assert two_channel_game.payoff_vector((1, 1)) == pytest.approx((2.83, 2.42), abs=0.005)
    assert sg.pure_nash(contention) == [(0, 1), (1, 0)]
    decoupled = sg.build_power_game_2x2(cross_12=(0.0, 0.0), cross_21=(0.0, 0.0))
    spots = sg.pure_nash(decoupled)
    # each user simply plays its dominant action; Spread maximizes own rate
    assert (1, 1) in spots


def test_best_response_dynamics(two_channel_game, contention):
    assert sg.best_response_dynamics(two_channel_game, (0, 0)) == (1, 1)
    assert sg.best_response_dynamics(contention, (0, 0)) in {(0, 1), (1, 0)}
    cycle = sg.NormalFormGame(
        np.array([[[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
    )  # matching pennies has no pure NE
    with pytest.raises(NoPureNashError):
        sg.best_response_dynamics(cycle, (0, 0))


@pytest.mark.parametrize("start", [(0, -1), (0, 5), (0,), (0, 0, 0)])
def test_best_response_dynamics_rejects_bad_start(contention, start):
    with pytest.raises(ValueError, match="start_profile"):
        sg.best_response_dynamics(contention, start)


def test_mixed_nash_contention(contention):
    s1, s2, utilities = sg.mixed_nash_2x2(contention)
    assert s1.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert s2.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert utilities == pytest.approx([14.0 / 3.0, 14.0 / 3.0], abs=1e-12)
    # exact indifference between own actions at the equilibrium mix
    a = contention.payoffs[..., 0]
    u_rows = a @ s2.probs
    assert abs(u_rows[0] - u_rows[1]) <= 1e-12


def test_mixed_nash_matching_pennies():
    pennies = sg.NormalFormGame(
        np.array([[[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
    )
    s1, s2, utilities = sg.mixed_nash_2x2(pennies)
    assert s1.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert s2.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert utilities == pytest.approx([0.0, 0.0], abs=1e-12)


def test_mixed_nash_degenerate(two_channel_game):
    with pytest.raises(DegenerateGameError):
        sg.mixed_nash_2x2(two_channel_game)


def test_stackelberg_finite(two_channel_game, contention):
    profile, utilities = sg.stackelberg_finite(two_channel_game, 0)
    assert profile == (0, 0)  # (Concentrate, Concentrate)
    assert utilities == pytest.approx((3.46, 3.46), abs=0.005)
    profile, utilities = sg.stackelberg_finite(contention, 0)
    assert profile == (0, 1)
    assert utilities == pytest.approx((7.0, 2.0))
    decoupled = sg.build_power_game_2x2(cross_12=(0.0, 0.0), cross_21=(0.0, 0.0))
    profile, _ = sg.stackelberg_finite(decoupled, 0)
    assert profile in sg.pure_nash(decoupled)


def test_stackelberg_leader_beats_pure_nash():
    for idx in range(25):
        rng = np.random.default_rng([91, idx])
        game = sg.NormalFormGame(rng.normal(size=(3, 3, 2)))
        nash = sg.pure_nash(game)
        _, utilities = sg.stackelberg_finite(game, 0)
        for profile in nash:
            if len(sg.best_response(game, 1, (profile[0],))) == 1:
                assert utilities[0] >= game.utility(0, profile) - 1e-12


def test_ce_uniform_over_three(contention):
    dist = sg.JointDistribution.from_flat([0.0, 1 / 3, 1 / 3, 1 / 3], (2, 2))
    ok, violation = sg.is_correlated_equilibrium(contention, dist, tol=1e-9)
    assert ok and violation == 0.0
    assert dist.expected_utilities(contention) == pytest.approx([5.0, 5.0], abs=1e-12)


def test_ce_pure_nash_point_mass(contention, two_channel_game):
    for game in (contention, two_channel_game):
        for profile in sg.pure_nash(game):
            probs = np.zeros(game.action_counts)
            probs[profile] = 1.0
            ok, violation = sg.is_correlated_equilibrium(game, sg.JointDistribution(probs), 1e-12)
            assert ok and violation <= 1e-12


def test_ce_backoff_backoff_fails(contention):
    dist = sg.JointDistribution.from_flat([0.0, 0.0, 0.0, 1.0], (2, 2))
    ok, violation = sg.is_correlated_equilibrium(contention, dist, tol=1e-9)
    assert not ok
    assert violation == pytest.approx(1.0, abs=1e-12)


def test_ce_convex_hull_of_equilibria(contention):
    # mixtures of NE point masses and the independent mixed NE stay in the CE set
    s1, s2, _ = sg.mixed_nash_2x2(contention)
    product = np.outer(s1.probs, s2.probs)
    corners = []
    for profile in sg.pure_nash(contention):
        mass = np.zeros((2, 2))
        mass[profile] = 1.0
        corners.append(mass)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(corners) + 1))
        mix = w[0] * product + sum(wi * c for wi, c in zip(w[1:], corners))
        ok, violation = sg.is_correlated_equilibrium(contention, sg.JointDistribution(mix), 1e-9)
        assert ok, violation


def test_optimize_ce_contention(contention):
    dist, value = sg.optimize_ce(contention, [1.0, 1.0])
    assert value == pytest.approx(10.5, abs=1e-9)
    assert dist.probs.reshape(-1) == pytest.approx([0.0, 0.25, 0.25, 0.5], abs=1e-9)
    ok, _ = sg.is_correlated_equilibrium(contention, dist, tol=1e-9)
    assert ok


def test_optimize_ce_single_weight(contention):
    dist, value = sg.optimize_ce(contention, [1.0, 0.0])
    assert value == pytest.approx(7.0, abs=1e-9)
    assert dist.probs[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_optimize_ce_single_action_game():
    game = sg.NormalFormGame(np.array([[[2.0, 3.0]]]))
    dist, value = sg.optimize_ce(game, [1.0, 1.0])
    assert dist.probs.reshape(-1) == pytest.approx([1.0])
    assert value == pytest.approx(5.0, abs=1e-12)


def test_optimize_ce_beats_best_nash(contention):
    weights = np.array([1.0, 1.0])
    _, value = sg.optimize_ce(contention, weights)
    best_nash = max(float(weights @ contention.payoff_vector(p)) for p in sg.pure_nash(contention))
    s1, s2, mixed_utilities = sg.mixed_nash_2x2(contention)
    best_nash = max(best_nash, float(weights @ mixed_utilities))
    assert value >= best_nash - 1e-9


def test_optimize_ce_random_games_certified():
    for idx in range(15):
        rng = np.random.default_rng([77, idx])
        game = sg.NormalFormGame(rng.uniform(0.0, 5.0, size=(3, 2, 2)))
        dist, value = sg.optimize_ce(game, rng.uniform(0.0, 1.0, size=2) + 0.1)
        ok, violation = sg.is_correlated_equilibrium(game, dist, tol=1e-9)
        assert ok, violation


def test_optimize_ce_scale_cap():
    game = sg.NormalFormGame(np.zeros((9, 9, 2)))
    with pytest.raises(OracleScaleError):
        sg.optimize_ce(game)


def test_discretize_power_game(two_channel):
    game = sg.discretize_power_game(two_channel, levels=10)
    assert game.action_counts == (11, 11)
    # the all-in-own-channel profile reproduces the Concentrate/Concentrate cell
    c1 = game.action_labels[0].index("10-0")
    c2 = game.action_labels[1].index("0-10")
    assert game.payoff_vector((c1, c2)) == pytest.approx([math.log2(11.0)] * 2, abs=1e-12)


def test_discretize_power_game_refuses_over_the_cap_before_any_table(two_channel, monkeypatch):
    def no_table(*args):
        raise AssertionError("split table built")

    monkeypatch.setattr(matrix_games, "_budget_splits", no_table)
    # two users on two bins: (levels + 1)**2 profiles, 4,000,000 at 1,999 levels
    assert (1999 + 1) ** 2 == power_games.MAX_ORACLE_EVALUATIONS
    with pytest.raises(AssertionError, match="split table built"):
        sg.discretize_power_game(two_channel, levels=1999)
    for levels in (2000, 10**6, 10**30):
        with pytest.raises(OracleScaleError, match=f"^oracle scale exceeded: {(levels + 1) ** 2} joint profiles"):
            sg.discretize_power_game(two_channel, levels=levels)


def test_discretize_power_game_refuses_a_step_that_is_not_positive(two_channel):
    scen = sg.PowerScenario(two_channel.grid, two_channel.channels, two_channel.noise,
                            sg.PowerBudget([5e-324, 10.0]))
    with pytest.raises(ArithmeticError, match=r"^power step 5e-324 / \(10 \* 1.0\) is not positive and finite"):
        sg.discretize_power_game(scen, levels=10)


def looped_power_payoffs(scen, levels):
    """Reference payoffs: every joint profile priced as its own allocation."""
    head = _budget_splits(levels, scen.grid.bin_count - 1)
    splits = list(np.column_stack([head, levels - head.sum(axis=1)]))
    rows = [
        [np.asarray(m, dtype=float) * (b / (levels * scen.grid.bin_width)) for m in splits]
        for b in scen.budgets.budget
    ]
    counts = tuple(len(r) for r in rows)
    payoffs = np.zeros(counts + (scen.user_count,))
    for profile in itertools.product(*(range(c) for c in counts)):
        psd = np.vstack([rows[n][profile[n]] for n in range(scen.user_count)])
        payoffs[profile] = _rates(psd, scen.channels.gain2, scen.noise.psd, scen.grid.bin_width)
    return payoffs


def multipath_scenario(bins, users, seed):
    grid = sg.FrequencyGrid(bins, float(bins))
    return sg.PowerScenario(
        grid=grid,
        channels=sg.generate_multipath_channels(seed, grid, 3, user_count=users),
        noise=sg.NoiseProfile.flat(0.5, users, bins),
        budgets=sg.PowerBudget(np.linspace(8.0, 12.0, users)),
    )


def test_discretized_payoffs_equal_per_profile_pricing(two_channel):
    cases = [
        (two_channel, 7),
        (two_channel, 10),
        (multipath_scenario(2, 2, seed=1), 7),
        (multipath_scenario(2, 2, seed=2), 10),
        (multipath_scenario(4, 2, seed=3), 5),
        (multipath_scenario(2, 3, seed=4), 3),
    ]
    for scen, levels in cases:
        game = sg.discretize_power_game(scen, levels=levels)
        assert np.array_equal(game.payoffs, looped_power_payoffs(scen, levels))


def test_joint_distribution_marginals(contention):
    dist = sg.JointDistribution.from_flat([0.1, 0.2, 0.3, 0.4], (2, 2))
    assert dist.marginal(0) == pytest.approx([0.3, 0.7])
    assert dist.marginal(1) == pytest.approx([0.4, 0.6])
    with pytest.raises(ValueError):
        sg.JointDistribution.from_flat([0.5, 0.2, 0.2, 0.2], (2, 2))


@pytest.mark.parametrize("player", [2, -1, True, 0.5])
def test_marginal_refuses_a_player_out_of_range(player):
    dist = sg.JointDistribution.from_flat([0.1, 0.2, 0.3, 0.4], (2, 2))
    with pytest.raises(ValueError, match="^player must"):
        dist.marginal(player)


def test_non_finite_distributions_are_refused(contention):
    # a NaN entry slips past the sign and sum checks, and would certify as a CE
    for probs in ([np.nan, 0.5, 0.5, 0.0], [np.nan] * 4):
        with pytest.raises(ValueError, match="finite"):
            sg.JointDistribution.from_flat(probs, contention.action_counts)
    for probs in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            sg.MixedStrategy(np.array(probs))


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0]])
def test_optimize_ce_refuses_non_finite_weights(contention, weights):
    with pytest.raises(ValueError, match="^weights"):
        sg.optimize_ce(contention, weights=weights)


def test_optimize_ce_refuses_an_overflowing_objective(contention):
    # contention's payoffs reach 7, so 1e308 overflows and 1e307 does not
    with pytest.raises(ArithmeticError, match=r"^CE objective for weights \(1e\+308, 1e\+308\) is not finite$"):
        sg.optimize_ce(contention, weights=[1e308, 1e308])
    _, value = sg.optimize_ce(contention, weights=[1e307, 1e307])
    assert value == pytest.approx(10.5e307)


@pytest.mark.parametrize("levels", [2.5, True, "3"])
def test_discretize_refuses_non_integer_levels(two_channel, levels):
    with pytest.raises(ValueError, match="^levels must be an integer"):
        sg.discretize_power_game(two_channel, levels=levels)


# Per-profile loop definitions of the solution concepts; the array forms in
# matrix_games and the complete-knowledge branch of value_of_knowledge must
# reproduce them exactly, ties and summation order included.


def reference_pure_nash(game):
    out = []
    for profile in game.profiles():
        if all(
            profile[p] in sg.best_response(game, p, profile[:p] + profile[p + 1:])
            for p in range(game.player_count)
        ):
            out.append(profile)
    return out


def reference_strictly_dominant_action(game, player):
    counts = game.action_counts
    if counts[player] == 1:
        return 0
    u = np.moveaxis(game.payoffs[..., player], player, 0).reshape(counts[player], -1)
    for a in range(counts[player]):
        if np.all(u[a] > np.delete(u, a, axis=0)):
            return a
    return None


def reference_stackelberg_finite(game, leader):
    best = None
    for a in range(game.action_counts[leader]):
        def with_reply(r):
            return (a, r) if leader == 0 else (r, a)

        replies = sg.best_response(game, 1 - leader, (a,))
        reply = max(replies, key=lambda r: game.utility(leader, with_reply(r)))
        value = game.utility(leader, with_reply(reply))
        if best is None or value > best[0]:
            best = (value, with_reply(reply))
    return best[1], game.payoff_vector(best[1])


def reference_ce_violation(game, dist):
    worst = 0.0
    for n in range(game.player_count):
        mu = np.moveaxis(dist.probs, n, 0)
        u = np.moveaxis(game.payoffs[..., n], n, 0)
        for a in range(game.action_counts[n]):
            obey = float((mu[a] * u[a]).sum())
            for a2 in range(game.action_counts[n]):
                if a2 != a:
                    worst = max(worst, float((mu[a] * u[a2]).sum()) - obey)
    return worst


def reference_welfare_profile(game):
    w = np.ones(game.player_count)
    return max(
        game.profiles(),
        key=lambda pr: (float(w @ game.payoff_vector(pr)), tuple(-a for a in pr)),
    )


def assert_concepts_match_references(game, dists):
    nash = sg.pure_nash(game)
    assert nash == reference_pure_nash(game)
    assert all(type(a) is int for profile in nash for a in profile)
    for player in range(game.player_count):
        action = sg.strictly_dominant_action(game, player)
        assert action == reference_strictly_dominant_action(game, player)
        assert action is None or type(action) is int
    if game.player_count == 2:
        for leader in (0, 1):
            profile, utilities = sg.stackelberg_finite(game, leader)
            ref_profile, ref_utilities = reference_stackelberg_finite(game, leader)
            assert profile == ref_profile and all(type(a) is int for a in profile)
            assert np.array_equal(utilities, ref_utilities)
    complete = sg.KnowledgeProfile(("complete",) * game.player_count)
    welfare = sg.value_of_knowledge(game, complete)
    assert np.array_equal(welfare, game.payoff_vector(reference_welfare_profile(game)))
    for dist in dists:
        _, violation = sg.is_correlated_equilibrium(game, dist)
        assert violation == reference_ce_violation(game, dist)


def sweep_game(rng, kind):
    counts = tuple(int(k) for k in rng.integers(1, 6, size=rng.integers(2, 4)))
    shape = counts + (len(counts),)
    if kind == "tied":
        return sg.NormalFormGame(rng.integers(0, 3, size=shape).astype(float))
    payoffs = rng.uniform(-5.0, 5.0, size=shape)
    if kind == "dominant":
        # lift one action of one player above everything else; on odd draws
        # only up to the column maxima, a weak (tied) dominance
        n = int(rng.integers(len(counts)))
        u = np.moveaxis(payoffs[..., n], n, 0)
        a = int(rng.integers(counts[n]))
        u[a] = u.max(axis=0) + (1.0 if rng.integers(2) else 0.0)
    return sg.NormalFormGame(payoffs)


def sweep_distributions(game, rng):
    counts = game.action_counts
    size = int(np.prod(counts))
    point = np.zeros(size)
    point[rng.integers(size)] = 1.0
    sparse = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.5)
    sparse = sparse / sparse.sum() if sparse.sum() > 0 else point
    return [
        sg.JointDistribution.from_flat(p, counts)
        for p in (rng.dirichlet(np.ones(size)), point, sparse, np.full(size, 1.0 / size))
    ]


@pytest.mark.parametrize("kind", ["tied", "uniform", "dominant"])
def test_concepts_equal_reference_loops_on_seeded_sweep(kind):
    dominant = 0
    for idx in range(400):
        rng = np.random.default_rng([41, idx])
        game = sweep_game(rng, kind)
        assert_concepts_match_references(game, sweep_distributions(game, rng))
        dominant += any(
            sg.strictly_dominant_action(game, n) is not None for n in range(game.player_count)
        )
    assert dominant > 0


def test_concepts_equal_reference_loops_on_286_action_game():
    # the 4-bin, levels-10 budget-splitting abstraction of a drawn channel
    doc = parse_scenario({
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 4, "band": 4.0},
        "channels": {"seed": 7, "taps": 4},
        "noise": 1.0,
        "budgets": [10.0, 10.0],
        "actions": {"type": "simplex_grid", "levels": 10},
    })
    game = doc.finite_game()
    assert game.action_counts == (286, 286)
    rng = np.random.default_rng(286)
    dist = sg.JointDistribution(rng.dirichlet(np.ones(game.payoffs[..., 0].size)).reshape(286, 286))
    assert_concepts_match_references(game, [dist])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_concepts_equal_reference_loops_property(data):
    counts = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))
    shape = counts + (len(counts),)
    size = int(np.prod(counts))
    if data.draw(st.booleans()):
        values = st.integers(0, 2).map(float)  # small integers force ties
    else:
        values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    payoffs = data.draw(st.lists(values, min_size=size * len(counts), max_size=size * len(counts)))
    game = sg.NormalFormGame(np.reshape(payoffs, shape))
    mass = np.array(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), float)
    if mass.sum() == 0:
        mass[0] = 1.0
    assert_concepts_match_references(game, [sg.JointDistribution.from_flat(mass / mass.sum(), counts)])
