import numpy as np
import pytest

import specgames as sg
from specgames import experiments, power_games
from specgames.errors import EnsembleUnstableError, NoPureNashError, SpectrumGameError


def test_knowledge_profile_validation():
    sg.KnowledgeProfile(("private", "private"))
    sg.KnowledgeProfile(("heterogeneous_leader", "private"))
    sg.KnowledgeProfile(("complete", "complete"))
    with pytest.raises(ValueError):
        sg.KnowledgeProfile(("heterogeneous_leader", "heterogeneous_leader"))
    with pytest.raises(ValueError):
        sg.KnowledgeProfile(("complete", "private"))
    with pytest.raises(ValueError):
        sg.KnowledgeProfile(("omniscient", "private"))


def test_vok_two_channel_game(two_channel_game):
    private = sg.value_of_knowledge(two_channel_game, sg.KnowledgeProfile(("private", "private")),
                                    start_profile=(0, 0))
    assert private == pytest.approx((2.83, 2.42), abs=0.01)
    leader = sg.value_of_knowledge(two_channel_game,
                                   sg.KnowledgeProfile(("heterogeneous_leader", "private")))
    assert leader == pytest.approx((3.46, 3.46), abs=0.01)
    # the informed leader lifts both users above the all-private play
    assert np.all(leader > private)


def test_vok_contention_complete(contention):
    out = sg.value_of_knowledge(contention, sg.KnowledgeProfile(("complete", "complete")))
    assert out == pytest.approx((6.0, 6.0))


def test_vok_no_pure_nash_reported():
    pennies = sg.NormalFormGame(
        np.array([[[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
    )
    with pytest.raises(NoPureNashError):
        sg.value_of_knowledge(pennies, sg.KnowledgeProfile(("private", "private")))


def test_vok_refuses_a_start_profile_on_a_power_scenario(two_channel):
    # a start profile indexes finite actions; a power scenario has none
    with pytest.raises(ValueError, match="^start_profile"):
        sg.value_of_knowledge(two_channel, sg.KnowledgeProfile(("private", "private")), start_profile=(0, 0))


def test_vok_continuous_matches_solvers(two_channel):
    nash = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                      two_channel.budgets, two_channel.grid)
    out = sg.value_of_knowledge(two_channel, sg.KnowledgeProfile(("private", "private")))
    assert out == pytest.approx(nash.rates, abs=1e-12)
    led = sg.value_of_knowledge(two_channel,
                                sg.KnowledgeProfile(("private", "heterogeneous_leader")))
    ref = sg.stackelberg_leader_search(1, two_channel.channels, two_channel.noise,
                                       two_channel.budgets, two_channel.grid)
    assert out is not None and led == pytest.approx(ref.rates, abs=1e-12)
    comp = sg.value_of_knowledge(two_channel, sg.KnowledgeProfile(("complete", "complete")))
    ref = sg.pareto_sweep([[1.0, 1.0]], two_channel.channels, two_channel.noise,
                          two_channel.budgets, two_channel.grid)[0]
    assert comp == pytest.approx(ref.rates, abs=1e-12)


def test_vok_leader_advantage_over_private(two_channel):
    private = sg.value_of_knowledge(two_channel, sg.KnowledgeProfile(("private", "private")))
    led = sg.value_of_knowledge(two_channel,
                                sg.KnowledgeProfile(("heterogeneous_leader", "private")))
    assert led[0] >= private[0] - 1e-9


def test_ensemble_decoupled_ratios_are_one():
    grid = sg.FrequencyGrid(4, 4.0)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    report = sg.channel_ensemble_study(1, seed=3, grid=grid, budgets=budgets,
                                       tap_count=3, cross_power=0.0)
    assert report.ratios[0] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_ensemble_leader_never_loses():
    grid = sg.FrequencyGrid(8, 8.0)
    budgets = sg.PowerBudget(np.array([100.0, 100.0]))
    report = sg.channel_ensemble_study(15, seed=42, grid=grid, budgets=budgets, tap_count=4)
    assert np.all(report.ratios[:, 0] >= 1.0 - 1e-9)
    assert np.all(report.ratios > 0.0)


@pytest.mark.parametrize("bins", [2, 4, 8])
def test_ensemble_leader_zero_never_below_nash_exactly(bins):
    # Gauss-Seidel order leaves user 1's final row as its reply to user 0's
    # final row, so the follower answers leader 0's Nash row with its Nash row
    grid = sg.FrequencyGrid(bins, float(bins))
    for budget in (10.0, 100.0):
        budgets = sg.PowerBudget(np.array([budget, budget]))
        report = sg.channel_ensemble_study(200, 7, grid, budgets, leader=0)
        assert np.all(report.ratios[:, 0] >= 1.0)


@pytest.mark.parametrize("realizations", [2.5, True, "3"])
def test_ensemble_refuses_a_non_integer_count(realizations):
    grid = sg.FrequencyGrid(2, 2.0)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    with pytest.raises(ValueError, match="^realizations must be an integer"):
        sg.channel_ensemble_study(realizations, 7, grid, budgets)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_ensemble_refuses_a_bad_seed(seed):
    grid = sg.FrequencyGrid(2, 2.0)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    with pytest.raises(ValueError, match="^seed must be"):
        sg.channel_ensemble_study(2, seed, grid, budgets)


def test_ensemble_report_shape_and_determinism():
    grid = sg.FrequencyGrid(8, 8.0)
    budgets = sg.PowerBudget(np.array([100.0, 100.0]))
    a = sg.channel_ensemble_study(10, seed=5, grid=grid, budgets=budgets, tap_count=4)
    b = sg.channel_ensemble_study(10, seed=5, grid=grid, budgets=budgets, tap_count=4)
    assert np.array_equal(a.ratios, b.ratios)
    assert a.realizations == 10
    for n in range(2):
        assert a.means[n] == pytest.approx(a.ratios[:, n].mean())


def test_ensemble_unstable_error(monkeypatch):
    import specgames.experiments as exp

    class FakeNash:
        converged = False
        rates = np.ones(2)

    class FakeResult:
        nash = FakeNash()
        rates = np.ones(2)

    monkeypatch.setattr(exp, "stackelberg_leader_search", lambda *a, **k: FakeResult())
    grid = sg.FrequencyGrid(4, 4.0)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    with pytest.raises(EnsembleUnstableError):
        sg.channel_ensemble_study(3, seed=0, grid=grid, budgets=budgets, tap_count=2)


def test_region_comparison_zero_cross_methods_coincide():
    # flat decoupled channels: water-filling spreads evenly, which sits on
    # the grid, so all three methods hit the same point for interior weights
    gain2 = np.zeros((2, 2, 2))
    gain2[0, 0] = gain2[1, 1] = 1.0
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(2, 2.0),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile.flat(1.0, 2, 2),
        budgets=sg.PowerBudget(np.array([10.0, 10.0])),
    )
    table = sg.region_comparison(scen, [[10.0, 10.0]], [[0.5, 0.5]], levels=10)
    rates = {s.method: s.rates for s in table}
    assert rates["iw"] == pytest.approx(rates["stackelberg"], abs=1e-9)
    assert rates["iw"] == pytest.approx(rates["pareto"], abs=1e-9)


def test_region_comparison_leader_dominates_iw(two_channel):
    table = sg.region_comparison(two_channel, [[10.0, 10.0]], [[0.5, 0.5]], levels=10)
    by_method = {s.method: s for s in table}
    assert np.all(by_method["stackelberg"].rates >= by_method["iw"].rates - 1e-9)


def test_region_comparison_contains_corners(two_channel):
    table = sg.region_comparison(two_channel, [], [[1.0, 0.0], [0.0, 1.0]], levels=10)
    pareto = [s for s in table if s.method == "pareto"]
    assert pareto[0].rates[1] == 0.0
    assert pareto[1].rates[0] == 0.0


def test_region_comparison_rows(two_channel):
    pairs = [[10.0, 10.0], [5.0, 20.0]]
    table = sg.region_comparison(two_channel, pairs, [[0.5, 0.5]], levels=6)
    assert [s.method for s in table] == ["iw", "iw", "stackelberg", "stackelberg", "pareto"]
    assert [s.params for s in table[:4]] == [(10.0, 10.0), (5.0, 20.0)] * 2


def unsettled_scenario():
    """Draw 361 of the benchmark's ensemble workload at benchmark seed 41: K=8, 4 taps, cross power
    0.5, budgets (100, 100), where iterative water-filling stops at 500 sweeps, unconverged."""
    grid = sg.FrequencyGrid(8, 8.0)
    stream = np.random.SeedSequence(entropy=1213781198, spawn_key=(0,))
    return sg.PowerScenario(
        grid=grid,
        channels=sg.generate_multipath_channels(stream, grid, 4),
        noise=sg.NoiseProfile.flat(1.0, 2, 8),
        budgets=sg.PowerBudget(np.array([100.0, 100.0])),
    )


def test_region_comparison_refuses_an_unconverged_nash_point():
    scen = unsettled_scenario()
    res = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    assert (res.converged, res.iterations) == (False, 500)
    with pytest.raises(SpectrumGameError, match=r"^iterative water-filling did not converge at budget pair "
                                                r"\(100\.0, 100\.0\)$"):
        sg.region_comparison(scen, [(50.0, 50.0), (100, 100)], [], levels=10)


def test_region_comparison_nash_rows_are_one_iw_run_per_pair(two_channel, monkeypatch):
    pairs = [[10.0, 10.0], [20.0, 5.0], [5.0, 20.0]]
    direct = [
        sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                   sg.PowerBudget(np.array(pair)), two_channel.grid).rates
        for pair in pairs
    ]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sg.iterative_water_filling(*args, **kwargs)

    monkeypatch.setattr(power_games, "iterative_water_filling", counted)
    monkeypatch.setattr(experiments, "iterative_water_filling", counted)
    table = sg.region_comparison(two_channel, pairs, [[0.5, 0.5]], levels=10)
    assert len(calls) == len(pairs)
    nash_rows = [s for s in table if s.method == "iw"]
    assert len(nash_rows) == len(pairs)
    for row, rates in zip(nash_rows, direct):
        assert np.array_equal(row.rates, rates)
