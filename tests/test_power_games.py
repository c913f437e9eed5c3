import math

import numpy as np
import pytest

import specgames as sg
from specgames.errors import OracleScaleError
from specgames.power_games import _budget_splits, _candidate_rows
from specgames.scenario import load_scenario
from specgames.spectrum import _effective_noise_raw, all_rates

from conftest import SCENARIOS, ensemble_channels


def flat_symmetric_scenario():
    gain2 = np.empty((2, 2, 2))
    gain2[0, 0] = gain2[1, 1] = 1.0
    gain2[0, 1] = gain2[1, 0] = 0.25
    return sg.PowerScenario(
        grid=sg.FrequencyGrid(2, 2.0),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile.flat(1.0, 2, 2),
        budgets=sg.PowerBudget(np.array([10.0, 10.0])),
    )


def test_iw_single_user():
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(2, 2.0),
        channels=sg.ChannelSet(np.ones((1, 1, 2))),
        noise=sg.NoiseProfile(np.array([[9.0, 1.0]])),
        budgets=sg.PowerBudget(np.array([10.0])),
    )
    res = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    assert res.converged
    direct = sg.water_fill([1.0, 1.0], [9.0, 1.0], 10.0, scen.grid)
    assert res.allocation.psd[0] == pytest.approx(direct, abs=1e-12)


def test_iw_symmetric_flat_channel():
    scen = flat_symmetric_scenario()
    res = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    assert res.converged
    # flat interference keeps the best response flat, so (5,5) is the fixed point
    assert res.allocation.psd == pytest.approx(np.full((2, 2), 5.0), abs=1e-7)


def test_iw_two_channel_fixed_point(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)
    assert res.converged
    assert res.residual <= 1e-8
    # interior equilibrium solved from the two stationarity conditions:
    # p1(1)-p1(2) = floor gap of user 1, p2(1)-p2(2) = floor gap of user 2
    a = np.array([[2.0, 0.8], [1.2, 2.0]])
    b = np.array([14.0, 14.0])
    x, y = np.linalg.solve(a, b)
    expect = np.array([[x, 10.0 - x], [y, 10.0 - y]])
    assert res.allocation.psd == pytest.approx(expect, abs=1e-6)
    # user 1 keeps power in both channels at the equilibrium
    assert np.all(res.allocation.psd[0] > 0.1)
    for n in range(2):
        assert res.rates[n] == pytest.approx(
            sg.achievable_rate(n, res.allocation, two_channel.channels,
                               two_channel.noise, two_channel.grid), abs=1e-12)


def test_iw_fixed_point_property(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid, tol=1e-8)
    for n in range(2):
        floor = _effective_noise_raw(n, res.allocation.psd, two_channel.channels.gain2,
                                     two_channel.noise.psd)
        reply = sg.water_fill(two_channel.channels.gain2[n, n], floor,
                              two_channel.budgets.budget[n], two_channel.grid)
        assert np.abs(reply - res.allocation.psd[n]).max() <= 1e-8


def test_iw_budget_feasible(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)
    res.allocation.check_budget(two_channel.grid, two_channel.budgets)


def test_iw_non_convergence_is_data(two_channel):
    # a capped run that cannot settle must report converged=False, not raise
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid,
                                     tol=1e-12, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.residual > 1e-12
    res.allocation.check_budget(two_channel.grid, two_channel.budgets)


def test_follower_response_silent_leader(two_channel):
    row, rates = sg.follower_response_rates(0, [0.0, 0.0], two_channel.channels,
                                            two_channel.noise, two_channel.budgets,
                                            two_channel.grid)
    solo = sg.water_fill([1.0, 1.0], [1.0, 1.0], 10.0, two_channel.grid)
    assert row == pytest.approx(solo, abs=1e-12)
    assert rates[0] == 0.0


def test_follower_response_to_concentrate(two_channel):
    row, rates = sg.follower_response_rates(0, [10.0, 0.0], two_channel.channels,
                                            two_channel.noise, two_channel.budgets,
                                            two_channel.grid)
    assert row == pytest.approx([1.0, 9.0], abs=1e-9)
    assert rates[0] == pytest.approx(math.log2(1.0 + 10.0 / (1.0 + 0.4 * 1.0)), abs=1e-9)
    assert rates[1] == pytest.approx(math.log2(1.0 + 1.0 / 9.0) + math.log2(10.0), abs=1e-9)


def test_follower_response_at_nash(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)
    assert res.converged
    row, _ = sg.follower_response_rates(0, res.allocation.psd[0], two_channel.channels,
                                        two_channel.noise, two_channel.budgets,
                                        two_channel.grid)
    assert row == pytest.approx(res.allocation.psd[1], abs=1e-7)


def test_leader_search_two_channel(two_channel):
    res = sg.stackelberg_leader_search(0, two_channel.channels, two_channel.noise,
                                       two_channel.budgets, two_channel.grid, levels=2)
    # concentrating in channel 1 beats spreading once the follower re-fills
    assert res.leader_allocation == pytest.approx([10.0, 0.0], abs=1e-9)
    assert res.follower_allocation == pytest.approx([1.0, 9.0], abs=1e-9)
    assert res.rates[0] == pytest.approx(math.log2(1.0 + 10.0 / 1.4), abs=1e-9)
    assert res.rates[1] == pytest.approx(math.log2(10.0 / 9.0) + math.log2(10.0), abs=1e-9)
    assert res.candidates_evaluated >= 3


def test_leader_restricted_candidates_prefer_concentrate(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    _, conc = sg.follower_response_rates(0, [10.0, 0.0], *args)
    _, spread = sg.follower_response_rates(0, [5.0, 5.0], *args)
    assert conc[0] > spread[0]


def test_leader_search_decoupled_equals_nash():
    gain2 = np.zeros((2, 2, 2))
    gain2[0, 0] = gain2[1, 1] = np.array([1.0, 0.5])
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(2, 2.0),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile.flat(1.0, 2, 2),
        budgets=sg.PowerBudget(np.array([10.0, 10.0])),
    )
    nash = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    led = sg.stackelberg_leader_search(0, scen.channels, scen.noise, scen.budgets,
                                       scen.grid, levels=10)
    assert led.rates == pytest.approx(nash.rates, abs=1e-9)
    assert led.leader_allocation == pytest.approx(nash.allocation.psd[0], abs=1e-9)


def test_leader_search_follower_is_exact_best_response(two_channel):
    res = sg.stackelberg_leader_search(0, two_channel.channels, two_channel.noise,
                                       two_channel.budgets, two_channel.grid, levels=10)
    psd = np.zeros((2, 2))
    psd[0] = res.leader_allocation
    floor = _effective_noise_raw(1, psd, two_channel.channels.gain2, two_channel.noise.psd)
    reply = sg.water_fill(two_channel.channels.gain2[1, 1], floor,
                          two_channel.budgets.budget[1], two_channel.grid)
    assert np.abs(reply - res.follower_allocation).max() <= 1e-9


@pytest.mark.parametrize("bins", [2, 8])
def test_leader_never_below_nash(bins):
    grid = sg.FrequencyGrid(bins, float(bins))
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    noise = sg.NoiseProfile.flat(1.0, 2, bins)
    for idx in range(10):
        ch = ensemble_channels(606, idx, grid)
        nash = sg.iterative_water_filling(ch, noise, budgets, grid)
        if not nash.converged:
            continue
        led = sg.stackelberg_leader_search(0, ch, noise, budgets, grid, levels=10)
        assert led.rates[0] >= nash.rates[0] - 1e-9


def test_budget_splits_order_and_silence():
    splits = list(_budget_splits(2, 2))
    assert splits == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    full = list(_budget_splits(2, 2, full_only=True))
    assert full == [(0, 2), (1, 1), (2, 0)]


def test_weighted_sum_single_user_corners(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    solo = 2.0 * math.log2(6.0)  # flat direct channel water-fills evenly
    s = sg.weighted_sum_optimize([1.0, 0.0], *args, levels=10)
    assert s.rates[0] == pytest.approx(solo, abs=1e-9)
    assert s.rates[1] == 0.0
    s = sg.weighted_sum_optimize([0.0, 1.0], *args, levels=10)
    assert s.rates[1] == pytest.approx(solo, abs=1e-9)
    assert s.rates[0] == 0.0


def test_weighted_sum_covers_concentrate_pair(two_channel):
    s = sg.weighted_sum_optimize([1.0, 1.0], two_channel.channels, two_channel.noise,
                                 two_channel.budgets, two_channel.grid, levels=10)
    # the fully segregated profile is on the grid, so it bounds the optimum below
    assert s.rates.sum() >= 2.0 * math.log2(11.0) - 1e-9


def test_weighted_sum_validation(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    with pytest.raises(ValueError):
        sg.weighted_sum_optimize([0.0, 0.0], *args)
    with pytest.raises(ValueError):
        sg.weighted_sum_optimize([-1.0, 1.0], *args)


def test_weighted_sum_scale_cap():
    grid = sg.FrequencyGrid(4, 4.0)
    scen_channels = sg.ChannelSet(np.ones((2, 2, 4)))
    noise = sg.NoiseProfile.flat(1.0, 2, 4)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    with pytest.raises(OracleScaleError):
        sg.weighted_sum_optimize([1.0, 1.0], scen_channels, noise, budgets, grid, levels=80)


def test_rate_region_sweep_empty(two_channel):
    assert sg.rate_region_sweep("iw", two_channel.channels, two_channel.noise,
                                two_channel.grid, budget_pairs=[]) == []
    assert sg.rate_region_sweep("pareto", two_channel.channels, two_channel.noise,
                                two_channel.grid, weights=[], budgets=two_channel.budgets) == []


def test_rate_region_sweep_corners(two_channel):
    samples = sg.rate_region_sweep("pareto", two_channel.channels, two_channel.noise,
                                   two_channel.grid, weights=[[1.0, 0.0], [0.0, 1.0]],
                                   budgets=two_channel.budgets, levels=10)
    assert len(samples) == 2
    assert samples[0].rates[1] == 0.0
    assert samples[1].rates[0] == 0.0


def test_rate_region_sweep_methods(two_channel):
    pairs = [[10.0, 10.0], [5.0, 20.0]]
    iw = sg.rate_region_sweep("iw", two_channel.channels, two_channel.noise,
                              two_channel.grid, budget_pairs=pairs)
    led = sg.rate_region_sweep("stackelberg", two_channel.channels, two_channel.noise,
                               two_channel.grid, budget_pairs=pairs, levels=6)
    assert [s.method for s in iw] == ["iw", "iw"]
    assert [s.params for s in iw] == [(10.0, 10.0), (5.0, 20.0)]
    assert all(s.leader == 0 for s in led)
    with pytest.raises(ValueError):
        sg.rate_region_sweep("newton", two_channel.channels, two_channel.noise,
                             two_channel.grid)


def test_grid_frontier_dominates_iw(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)
    assert res.converged
    margin = sg.grid_dominance_margin(res.rates, two_channel.channels, two_channel.noise,
                                      two_channel.budgets, two_channel.grid, levels=10)
    assert margin >= -1e-9


def test_determinism(two_channel):
    a = sg.stackelberg_leader_search(0, two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid, levels=10)
    b = sg.stackelberg_leader_search(0, two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid, levels=10)
    assert np.array_equal(a.leader_allocation, b.leader_allocation)
    assert np.array_equal(a.rates, b.rates)


def scalar_leader_search(leader, scen, levels=10, refine_rounds=40):
    """Reference: price one leader candidate at a time, keep strict improvements."""
    ch, noise, budgets, grid = scen.channels, scen.noise, scen.budgets, scen.grid
    follower = 1 - leader
    evaluated = 0

    def assess(row):
        nonlocal evaluated
        evaluated += 1
        psd = np.zeros((2, grid.bin_count))
        psd[leader] = row
        floor = _effective_noise_raw(follower, psd, ch.gain2, noise.psd)
        psd[follower] = sg.water_fill(ch.gain2[follower, follower], floor,
                                      budgets.budget[follower], grid)
        return psd[follower], all_rates(sg.PowerAllocation(psd), scen)

    nash = sg.iterative_water_filling(ch, noise, budgets, grid)
    best_row = np.array(nash.allocation.psd[leader])
    best_reply, best_rates = assess(best_row)
    if grid.bin_count <= 4:
        for row in _candidate_rows(levels, grid, budgets.budget[leader]):
            reply, rates = assess(row)
            if rates[leader] > best_rates[leader]:
                best_row, best_reply, best_rates = row, reply, rates
        return best_row, best_reply, best_rates, evaluated
    step = budgets.budget[leader] / (levels * grid.bin_width)
    current = (best_row, best_reply, best_rates)
    for _ in range(refine_rounds):
        move = None
        for src in range(grid.bin_count):
            if current[0][src] < step:
                continue
            for dst in range(grid.bin_count):
                if dst != src:
                    trial = np.array(current[0])
                    trial[src] -= step
                    trial[dst] += step
                    reply, rates = assess(trial)
                    if move is None or rates[leader] > move[2][leader]:
                        move = (trial, reply, rates)
        if move is None or move[2][leader] <= current[2][leader]:
            break
        current = move
    if current[2][leader] > best_rates[leader]:
        best_row, best_reply, best_rates = current
    return best_row, best_reply, best_rates, evaluated


def descent_scenario(index):
    grid = sg.FrequencyGrid(8, 8.0)
    return sg.PowerScenario(
        grid=grid,
        channels=ensemble_channels(2718, index, grid),
        noise=sg.NoiseProfile.flat(1.0, 2, 8),
        budgets=sg.PowerBudget(np.array([100.0, 100.0])),
    )


@pytest.mark.parametrize("draw,leader", [
    ("fig6", 0), ("fig6", 1), ("mirror", 0), (0, 0), (4, 0), (5, 0), (5, 1),
])
def test_batched_leader_search_matches_scalar_loop(draw, leader):
    # fig6 runs the grid branch; in the mirror-symmetric scenario the best
    # leader rows tie exactly; the K=8 draws all run several descent rounds
    if draw == "fig6":
        scen = load_scenario(SCENARIOS / "fig6.json").power_scenario()
    elif draw == "mirror":
        scen = sg.two_channel_scenario(cross_12=(0.8, 0.8), cross_21=(0.8, 0.8))
    else:
        scen = descent_scenario(draw)
    res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                       scen.grid, levels=10)
    row, reply, rates, evaluated = scalar_leader_search(leader, scen, levels=10)
    assert np.array_equal(res.leader_allocation, row)
    assert np.array_equal(res.follower_allocation, reply)
    assert np.array_equal(res.rates, rates)
    assert res.candidates_evaluated == evaluated
    if draw == "mirror":
        mirrored = sg.follower_response_rates(leader, row[::-1], scen.channels, scen.noise,
                                              scen.budgets, scen.grid)[1]
        assert mirrored[leader] == rates[leader] and not np.array_equal(row, row[::-1])
    elif draw != "fig6":
        nash = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
        assert not np.array_equal(row, nash.allocation.psd[leader])
