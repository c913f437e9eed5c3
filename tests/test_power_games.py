import dataclasses
import hashlib
import json
import math
import operator
import re
import warnings
from functools import partial, reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specgames as sg
from specgames import cli, power_games
from specgames.errors import NoUsableSpectrumError, OracleScaleError
from specgames.power_games import (
    _budget_splits, _joint_grid_rates, _margin_walk, _pareto_argmax, _pareto_walk, _term_tables,
)
from specgames.scenario import MAX_PEAK_SNR, load_scenario
from specgames.spectrum import BUDGET_RTOL, _effective_noise_raw, _rates, _water_fill_rows

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


@pytest.mark.parametrize("options", [
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": float("inf")}, {"max_iter": "5"}, {"max_iter": True},
])
def test_iw_refuses_bad_tolerance_and_sweep_cap(options, two_channel):
    name = next(iter(options))
    with pytest.raises(ValueError, match=f"^{name} must"):
        sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                   two_channel.budgets, two_channel.grid, **options)


def support_solve(psd, ch, noise, budgets, grid):
    return power_games._support_solve(np.asarray(psd).tolist(), ch.gain2.tolist(), noise.psd.tolist(),
                                      budgets.budget.tolist(), grid.bin_width)


def jump_point(before, psd, residual, tol, sweeps, max_iter, tried, ch, noise, budgets, grid, solve=None):
    """The two-user jump rule, restated on numpy arrays: the solved point to sweep on from, else None.

    It fires after a sweep, not the last, that moves by more than tol and leaves
    both wet patterns as the sweep before left them, once per pattern (`tried`
    collects them); the caller stops jumping after the first solved point.
    `solve` defaults to `power_games._support_solve`.
    """
    wet = np.asarray(psd) > 0.0
    if (ch.user_count != 2 or residual <= tol or sweeps == max_iter
            or not np.array_equal(np.asarray(before) > 0.0, wet) or wet.tobytes() in tried):
        return None
    tried.add(wet.tobytes())
    return (solve or support_solve)(psd, ch, noise, budgets, grid)


def reference_iw(ch, noise, budgets, grid, tol=1e-8, max_iter=500, jump=True, solve=None):
    """The numpy Gauss-Seidel loop that iterative_water_filling must reproduce bit for bit.

    Two users jump until the first solved point (`jump_point`, with `solve`);
    jump=False gives the plain loop, `plain_iw`, the reference for the
    equilibrium itself.
    """
    n_users, k = ch.user_count, ch.bin_count
    psd = np.zeros((n_users, k))
    tried = set()

    def reply(n):
        floor = _effective_noise_raw(n, psd, ch.gain2, noise.psd)
        return _water_fill_rows(ch.gain2[n, n], floor[None], budgets.budget[n], grid.bin_width)[0]

    converged = False
    residual = gap = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        change, before = 0.0, psd.copy()
        for n in range(n_users):
            row = reply(n)
            change = max(change, float(np.abs(row - psd[n]).max()))
            psd[n] = row
        residual = change
        if change <= tol:
            gap = max(float(np.abs(reply(n) - psd[n]).max()) for n in range(n_users))
            if gap <= tol:
                converged = True
                break
        elif jump and (point := jump_point(before, psd, change, tol, sweeps, max_iter, tried, ch, noise, budgets,
                                           grid, solve)) is not None:
            jump = False
            psd[:] = point
    return psd, _rates(psd, ch.gain2, noise.psd, grid.bin_width), sweeps, converged, residual, gap


def plain_iw(ch, noise, budgets, grid, **kwargs):
    return reference_iw(ch, noise, budgets, grid, jump=False, **kwargs)


def assert_iw_matches_reference(ch, noise, budgets, grid, **kwargs):
    res = sg.iterative_water_filling(ch, noise, budgets, grid, **kwargs)
    psd, rates, sweeps, converged, residual, gap = reference_iw(ch, noise, budgets, grid, **kwargs)
    assert res.allocation.psd.tobytes() == psd.tobytes()
    assert res.rates.tobytes() == rates.tobytes()
    assert (res.iterations, res.converged) == (sweeps, converged)
    assert np.float64(res.residual).tobytes() == np.float64(residual).tobytes()
    assert np.float64(res.fixed_point_gap).tobytes() == np.float64(gap).tobytes()
    return res


@pytest.mark.parametrize("bins", [1, 2, 4, 8, 16, 64])
def test_iw_matches_reference_loop(bins):
    grid = sg.FrequencyGrid(bins, float(bins))
    noise = sg.NoiseProfile.flat(1.0, 2, bins)
    outcomes = set()
    for idx in range(30):
        ch = ensemble_channels(9090, idx, grid, cross_power=[0.5, 2.0][idx % 2])
        budgets = sg.PowerBudget(np.array([100.0, [100.0, 10.0, 1000.0][idx % 3]]))
        max_iter = (1, 3, 500, 500)[idx % 4]  # some runs stop short
        res = assert_iw_matches_reference(ch, noise, budgets, grid, max_iter=max_iter)
        outcomes.add(res.converged)
    assert outcomes == {True, False}


@pytest.mark.parametrize("users, bins", [(3, 8), (9, 1), (9, 2)])
def test_iw_matches_reference_loop_many_users(users, bins):
    # many users: each floor adds every interferer, one at a time in index order
    grid = sg.FrequencyGrid(bins, float(bins))
    noise = sg.NoiseProfile(np.random.default_rng([9191, users, bins]).uniform(0.5, 2.0, (users, bins)))
    budgets = sg.PowerBudget(np.linspace(10.0, 100.0, users))
    for idx in range(10):
        ch = ensemble_channels(9191, idx, grid, taps=3, user_count=users, cross_power=0.05)
        assert_iw_matches_reference(ch, noise, budgets, grid, max_iter=50)


def test_iw_non_convergence_matches_reference_loop(two_channel):
    res = assert_iw_matches_reference(two_channel.channels, two_channel.noise, two_channel.budgets,
                                      two_channel.grid, tol=1e-12, max_iter=1)
    assert not res.converged
    assert res.fixed_point_gap == np.inf


def test_iw_reports_its_fixed_point_gap(two_channel):
    res = sg.iterative_water_filling(two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)
    assert res.converged
    assert 0.0 <= res.fixed_point_gap <= 1e-8


def gain_noise_fill_row(gain, noise, budget, bin_width):
    """A single-row water-fill that forms the floors noise/gain itself and scans
    the support and its ties in one loop, with a running total and max() clip."""
    target = budget / bin_width
    floors = [s / g if g > 0.0 else math.inf for s, g in zip(noise, gain)]
    ordered = sorted(floors)
    if ordered[0] == math.inf:
        raise NoUsableSpectrumError("no usable spectrum: every channel gain is zero or too small")
    line = ordered[0]
    total, count, support = 0.0, 0, True
    for m, s in enumerate(ordered, 1):
        running = total + s
        support = support and s < (target + running) / m
        if support:
            line = s
        elif s > line:
            break
        total, count = running, m
    level = (target + total) / count
    filled = [max(level - f, 0.0) if f <= line else 0.0 for f in floors]
    spent = reduce(operator.add, filled, 0.0) * bin_width
    if abs(spent - budget) > BUDGET_RTOL * budget:
        raise ArithmeticError(f"water-filling failed: spent {spent!r} of {float(budget)!r}")
    return filled


def every_gap_iw(ch, noise, budgets, grid, tol=1e-8, max_iter=500):
    """Python-float Gauss-Seidel IW that replies for every user, the last one
    included, when it measures the fixed-point gap; two users jump as in
    `reference_iw`."""
    n_users, k, args = ch.user_count, ch.bin_count, (ch, noise, budgets, grid)
    gain2, sigma, budget = ch.gain2.tolist(), noise.psd.tolist(), budgets.budget.tolist()
    psd = [[0.0] * k for _ in range(n_users)]

    def reply(n):
        floor = sigma[n]
        for j in range(n_users):
            if j != n:
                floor = [f + p * g for f, p, g in zip(floor, psd[j], gain2[j][n])]
        return gain_noise_fill_row(gain2[n][n], floor, budget[n], grid.bin_width)

    def moved(n, row):
        return max(abs(a - b) for a, b in zip(row, psd[n]))

    converged = False
    residual = gap = np.inf
    sweeps = 0
    jump, tried = True, set()
    for sweeps in range(1, max_iter + 1):
        change, before = 0.0, [row[:] for row in psd]
        for n in range(n_users):
            row = reply(n)
            change = max(change, moved(n, row))
            psd[n] = row
        residual = change
        if change <= tol:
            gap = max(moved(n, reply(n)) for n in range(n_users))
            if gap <= tol:
                converged = True
                break
        elif jump and (point := jump_point(before, psd, change, tol, sweeps, max_iter, tried, *args)) is not None:
            jump = False
            psd = [list(row) for row in point]
    psd = np.array(psd)
    return psd, _rates(psd, ch.gain2, noise.psd, grid.bin_width), sweeps, converged, residual, gap


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_iw_matches_the_every_gap_loop(data):
    # 1-3 users; zero and vanishing direct gains give infinite floors (a user
    # with none usable raises); strong cross gains, tiny tolerances and short
    # sweep caps leave runs unconverged
    users, bins = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gain2 = rng.uniform(0.05, 2.0, (users, users, bins)) * data.draw(st.sampled_from([0.05, 0.5, 2.0]))
    for n in range(users):
        gain2[n, n] = rng.uniform(0.1, 2.0, bins)
        dead = rng.random(bins) < data.draw(st.sampled_from([0.0, 0.2, 0.6]))
        gain2[n, n, dead] = rng.choice([0.0, 5e-324, 1e-310, 1e-305, 1e-300], dead.sum())
    args = (sg.ChannelSet(gain2), sg.NoiseProfile(rng.uniform(0.1, 3.0, (users, bins))),
            sg.PowerBudget(rng.uniform(0.5, 200.0, users)), sg.FrequencyGrid(bins, float(bins)))
    kwargs = {"tol": data.draw(st.sampled_from([1e-300, 1e-14, 1e-8, 1e-3])),
              "max_iter": data.draw(st.integers(1, 40))}
    try:
        psd, rates, sweeps, converged, residual, gap = every_gap_iw(*args, **kwargs)
    except (NoUsableSpectrumError, ArithmeticError) as exc:
        # no usable bin, or a budget lost against floors hundreds of decades up
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as info:
            sg.iterative_water_filling(*args, **kwargs)
        assert type(info.value) is type(exc)
        return
    res = sg.iterative_water_filling(*args, **kwargs)
    assert res.allocation.psd.tobytes() == psd.tobytes()
    assert res.rates.tobytes() == rates.tobytes()
    assert (res.iterations, res.converged) == (sweeps, converged)
    assert np.float64(res.residual).tobytes() == np.float64(residual).tobytes()
    assert np.float64(res.fixed_point_gap).tobytes() == np.float64(gap).tobytes()


def kkt_solve(psd, ch, noise, budgets, grid):
    """np.linalg.solve of both users' stationarity and budget equations on the wet supports of psd.

    The unknowns are P_0 on its support, P_1 on its support, mu_0 and mu_1;
    a wet bin k of user n gives g_nn P_n + g_mn P_m - g_nn mu_n = -sigma_n
    (P_m only where bin k is wet for user m too), and each user's budget
    sum P_n = budget_n / bin_width.  Returns the PSD table, zero off the supports.
    """
    g, sigma, wet = ch.gain2, noise.psd, np.asarray(psd) > 0.0
    column = np.cumsum(wet.ravel()).reshape(wet.shape) - 1  # unknown of each wet (user, bin)
    size = int(wet.sum()) + 2
    a, b = np.zeros((size, size)), np.zeros(size)
    for row, (n, k) in enumerate(zip(*np.nonzero(wet))):
        a[row, column[n, k]], a[row, size - 2 + n], b[row] = g[n, n, k], -g[n, n, k], -sigma[n, k]
        if wet[1 - n, k]:
            a[row, column[1 - n, k]] = g[1 - n, n, k]
    for n in (0, 1):
        a[size - 2 + n, column[n][wet[n]]] = 1.0
        b[size - 2 + n] = budgets.budget[n] / grid.bin_width
    table = np.zeros(wet.shape)
    table[wet] = np.linalg.solve(a, b)[:-2]
    return table


def coupled(g, wet):
    """Whether some bin wet for both users has c_0 c_1 = (g_10 / g_00) (g_01 / g_11) >= 1."""
    both = wet[0] & wet[1]
    return bool(np.any(g[1, 0][both] / g[0, 0][both] * (g[0, 1][both] / g[1, 1][both]) >= 1.0))


def support_draw(data, bins):
    """Two-user gains (zero cross gains and dead direct bins included), noise, budgets and grid."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gain2 = rng.uniform(0.05, 2.0, (2, 2, bins)) * data.draw(st.sampled_from([0.0, 0.05, 0.5, 2.0]))
    for n in range(2):
        gain2[n, n] = rng.uniform(0.1, 2.0, bins)
        gain2[n, n, rng.random(bins) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return rng, (sg.ChannelSet(gain2), sg.NoiseProfile(rng.uniform(0.1, 3.0, (2, bins))),
                 sg.PowerBudget(rng.uniform(0.5, 200.0, 2)), sg.FrequencyGrid(bins, float(bins)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_support_solve_matches_the_kkt_system(data):
    # any supports on the live bins, so the solved point need not be an equilibrium
    bins = data.draw(st.integers(1, 8))
    rng, args = support_draw(data, bins)
    g = args[0].gain2
    live = np.array([g[0, 0] > 0.0, g[1, 1] > 0.0])
    wet = live & (rng.random((2, bins)) < data.draw(st.sampled_from([0.5, 1.0])))
    for n in range(2):
        if live[n].any() and not wet[n].any():
            wet[n, rng.choice(np.flatnonzero(live[n]))] = True
    if not wet.any(axis=1).all():
        return  # a user without a live bin has no support
    psd = np.where(wet, rng.uniform(0.1, 10.0, (2, bins)), 0.0)
    solved = support_solve(psd, *args)
    if coupled(g, wet):
        assert solved is None  # a bin wet for both with 1 - c_0 c_1 <= 0
        return
    expect = kkt_solve(psd, *args)
    scale = np.abs(expect).max()
    if expect[wet].min() > 1e-9 * scale:
        assert solved is not None
        assert np.abs(np.array(solved) - expect).max() <= 1e-12 * scale
        assert np.array_equal(np.array(solved) > 0.0, wet)
    elif expect[wet].min() < -1e-9 * scale:
        assert solved is None


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_support_solve_on_converged_supports_is_a_water_fill_fixed_point(data):
    _, args = support_draw(data, data.draw(st.integers(1, 8)))
    ch, noise, budgets, grid = args
    try:
        psd, _, _, converged, _, _ = plain_iw(*args)
    except NoUsableSpectrumError:
        return
    solved = support_solve(psd, *args)
    if not converged or coupled(ch.gain2, psd > 0.0) or (solved is None and psd[psd > 0.0].min() < 1e-6):
        return  # no settled supports, a refused coupling, or an entry at the edge of its support
    assert solved is not None
    solved = np.array(solved)
    for n in (0, 1):
        floor = noise.psd[n] + solved[1 - n] * ch.gain2[1 - n, n]
        reply = sg.water_fill(ch.gain2[n, n], floor, budgets.budget[n], grid)
        assert np.abs(reply - solved[n]).max() <= 1e-9


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_support_solve_reads_only_the_wet_pattern(data):
    # why IW tries each wet pattern once: two states wet on the same live bins, with
    # different positive values, are solved to the same bits or refused alike
    bins = data.draw(st.integers(1, 8))
    rng, args = support_draw(data, bins)
    g = args[0].gain2
    wet = np.array([g[0, 0] > 0.0, g[1, 1] > 0.0]) & (rng.random((2, bins)) < data.draw(st.sampled_from([0.5, 1.0])))
    small, large = (np.where(wet, rng.uniform(lo, hi, (2, bins)), 0.0) for lo, hi in ((1e-300, 1e-3), (1.0, 1e300)))
    first, second = (None if s is None else np.array(s).tobytes() for s in (
        support_solve(psd, *args) for psd in (small, large)))
    assert first == second


def two_bin_case(direct, cross, noise, budgets, psd):
    """A two-user case whose gains are [[direct_0, cross_0], [cross_1, direct_1]] per bin."""
    gain2 = np.array([[direct[0], cross[0]], [cross[1], direct[1]]], dtype=float)
    bins = gain2.shape[-1]
    return np.array(psd, dtype=float), (sg.ChannelSet(gain2), sg.NoiseProfile(np.array(noise, dtype=float)),
                                        sg.PowerBudget(np.array(budgets)), sg.FrequencyGrid(bins, float(bins)))


@pytest.mark.parametrize("case", [
    # one bin wet for both with c_0 c_1 = 1, then 2
    two_bin_case([[1.0], [1.0]], [[1.0], [1.0]], [[1.0], [1.0]], [1.0, 1.0], [[1.0], [1.0]]),
    two_bin_case([[1.0], [1.0]], [[1.0], [2.0]], [[1.0], [1.0]], [1.0, 1.0], [[1.0], [1.0]]),
    # decoupled: user 0's level 5.55 sits below its floor 10 in bin 1, then exactly on its floor 3
    two_bin_case([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.1, 10.0], [1.0, 1.0]],
                 [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
    two_bin_case([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 3.0], [1.0, 1.0]],
                 [2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]]),
    # c = (2, 0) in bin 0 and (0, 2) in bin 1: the level system is [[2, -2], [-2, 2]]
    two_bin_case([[1.0, 1.0], [1.0, 1.0]], [[0.0, 2.0], [2.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                 [10.0, 10.0], [[1.0, 1.0], [1.0, 1.0]]),
], ids=["det-zero", "det-negative", "negative-entry", "zero-entry", "singular-levels"])
def test_support_solve_refuses(case):
    psd, args = case
    assert support_solve(psd, *args) is None


def ensemble_draw(seed, draw):
    """(ch, noise, budgets, grid) of draw `draw` of the benchmark's ensemble workload at benchmark seed `seed`."""
    study_seed = int(np.random.SeedSequence([seed, *f"ensemble.{draw}".encode()]).generate_state(1)[0])
    grid = sg.FrequencyGrid(8, 8.0)
    ch = sg.generate_multipath_channels(np.random.SeedSequence(entropy=study_seed, spawn_key=(0,)), grid, 4)
    return ch, sg.NoiseProfile.flat(1.0, 2, 8), sg.PowerBudget(np.array([100.0, 100.0])), grid


def kkt_jump(psd, ch, noise, budgets, grid):
    """`kkt_solve` as a jump target: the support fixed point without the 1 - c_0 c_1 <= 0 refusal."""
    solved = kkt_solve(psd, ch, noise, budgets, grid)
    return solved if solved[np.asarray(psd) > 0.0].min() > 0.0 else None


def test_jump_needs_the_coupling_refusal():
    # the benchmark's seed-7 ensemble draw 18: the first supports that repeat are both wet
    # in bin 3, where c_0 c_1 = 1.55, so the solve refuses them and IW jumps on the next
    args = ensemble_draw(7, 18)
    res = sg.iterative_water_filling(*args)
    psd, _, sweeps, converged, _, _ = plain_iw(*args)
    assert (res.iterations, res.converged) == (6, True) and (sweeps, converged) == (10, True)
    assert np.array_equal(res.allocation.psd > 0.0, psd > 0.0)
    assert np.abs(res.allocation.psd - psd).max() <= 1e-6
    # solved there anyway, the jump lands on another equilibrium
    other, _, _, other_converged, _, _ = reference_iw(*args, solve=kkt_jump)
    assert other_converged
    assert np.abs(other - psd).max() > 13.0


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_jump_keeps_the_plain_loops_equilibrium_on_random_draws(data):
    args = support_draw(data, data.draw(st.integers(1, 8)))[1]
    try:
        psd, _, _, converged, _, _ = plain_iw(*args)
    except NoUsableSpectrumError:
        return
    res = sg.iterative_water_filling(*args)
    assert res.converged == converged
    assert np.array_equal(res.allocation.psd > 0.0, psd > 0.0)
    assert np.abs(res.allocation.psd - psd).max() <= 1e-6


def test_jumping_ends_at_the_first_solved_point():
    # the benchmark's seed-7 ensemble draw 27 settles on new supports after its jump;
    # jumping again there would end in 8 sweeps instead of 71
    assert assert_iw_matches_reference(*ensemble_draw(7, 27)).iterations == 71


def test_support_solve_sums_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12 and later add floats in the builtin sum with compensation;
    # the solve adds its coefficient sums left to right, as the water-fill
    # kernels do, so a compensated `sum` in the module changes no solve
    solve = power_games._support_solve

    def run():
        solves = []

        def recorded(*args):
            rows = solve(*args)
            solves.append(None if rows is None else np.array(rows).tobytes())
            return rows

        monkeypatch.setattr(power_games, "_support_solve", recorded)
        results = [sg.iterative_water_filling(*ensemble_draw(7, draw)) for draw in range(100)]
        return solves, [(r.allocation.psd.tobytes(), r.rates.tobytes(), r.iterations) for r in results]

    plain = run()
    monkeypatch.setattr(power_games, "sum", math.fsum, raising=False)
    compensated = run()
    assert len(plain[0]) == 115
    assert compensated == plain


def two_pass_support_solve(psd, gain2, sigma, budget, bin_width):
    """Reference: the support solve that built every bin's forms, then added each sum with reduce(add, ..., 0.0)."""
    forms = []
    for k, (p0, p1) in enumerate(zip(*psd)):
        wet0, wet1 = p0 > 0.0, p1 > 0.0
        a0 = sigma[0][k] / gain2[0][0][k] if wet0 else 0.0
        a1 = sigma[1][k] / gain2[1][1][k] if wet1 else 0.0
        if wet0 and wet1:
            c0, c1 = gain2[1][0][k] / gain2[0][0][k], gain2[0][1][k] / gain2[1][1][k]
            d = 1.0 - c0 * c1
            if not d > 0.0:
                return None
            forms.append(((1.0 / d, -c0 / d, (c0 * a1 - a0) / d), (-c1 / d, 1.0 / d, (c1 * a0 - a1) / d)))
        else:
            forms.append(((1.0, 0.0, -a0) if wet0 else None, (0.0, 1.0, -a1) if wet1 else None))
    (a00, a01, b0), (a10, a11, b1) = (
        [reduce(operator.add, (f[n][i] for f in forms if f[n]), 0.0) for i in range(3)] for n in (0, 1))
    b0, b1 = budget[0] / bin_width - b0, budget[1] / bin_width - b1
    det = a00 * a11 - a01 * a10
    if det == 0.0 or not math.isfinite(det):
        return None
    mu0, mu1 = (b0 * a11 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det
    rows = [[f[n][0] * mu0 + f[n][1] * mu1 + f[n][2] if f[n] else 0.0 for f in forms] for n in (0, 1)]
    if not all(0.0 < p < math.inf for row, was in zip(rows, psd) for p, w in zip(row, was) if w > 0.0):
        return None
    return rows


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_pass_support_solve_equals_the_two_pass_reference_by_bytes(data):
    # bins wet for both (c_0 c_1 >= 1 among them when the cross gains are large),
    # bins wet for one user, and users wet nowhere
    bins = data.draw(st.integers(1, 12))
    rng, args = support_draw(data, bins)
    g = args[0].gain2
    share = [data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])) for _ in range(2)]
    wet = np.array([g[n, n] > 0.0 for n in range(2)]) & (rng.random((2, bins)) < np.array(share)[:, None])
    psd = np.where(wet, rng.uniform(0.1, 10.0, (2, bins)), 0.0)
    lists = (psd.tolist(), g.tolist(), args[1].psd.tolist(), args[2].budget.tolist(), args[3].bin_width)
    expect, solved = two_pass_support_solve(*lists), power_games._support_solve(*lists)
    assert (solved is None) == (expect is None)
    if expect is not None:
        assert np.array(solved).tobytes() == np.array(expect).tobytes()


@pytest.mark.slow
def test_jump_keeps_the_plain_loops_equilibrium_on_ensemble_draws():
    sweeps = plain_sweeps = 0
    for seed in (7, 23, 41):
        for draw in range(700):
            args = ensemble_draw(seed, draw)
            res = sg.iterative_water_filling(*args)
            psd, _, plain, converged, _, _ = plain_iw(*args)
            assert res.converged == converged
            assert np.array_equal(res.allocation.psd > 0.0, psd > 0.0)
            assert np.abs(res.allocation.psd - psd).max() <= 1e-6
            sweeps, plain_sweeps = sweeps + res.iterations, plain_sweeps + plain
    assert sweeps < plain_sweeps
    assert sweeps <= 7_459 + 6_605 + 6_968  # the jump that waited for a sweep to move by 1e-4 budget/df


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


@pytest.mark.parametrize("row", [[np.nan, 1.0], [-5.0, 1.0], [np.inf, 1.0]])
def test_follower_response_refuses_a_bad_leader_row(two_channel, row):
    with pytest.raises(ValueError, match=r"^leader_alloc entries must be finite and >= 0"):
        sg.follower_response_rates(0, row, two_channel.channels, two_channel.noise,
                                   two_channel.budgets, two_channel.grid)


@pytest.mark.parametrize("leader", [2, -1, True, 1.0])
def test_leader_outside_two_players_rejected(two_channel, two_channel_game, leader, monkeypatch):
    with pytest.raises(ValueError, match="leader must be 0 or 1"):
        sg.stackelberg_finite(two_channel_game, leader)

    def no_iw(*args, **kwargs):
        raise AssertionError("iterative water-filling ran before the leader was checked")

    monkeypatch.setattr(power_games, "iterative_water_filling", no_iw)
    with pytest.raises(ValueError, match="leader must be 0 or 1"):
        sg.stackelberg_leader_search(leader, two_channel.channels, two_channel.noise,
                                     two_channel.budgets, two_channel.grid)


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
        led = sg.stackelberg_leader_search(0, ch, noise, budgets, grid, levels=10)
        # the search reports the very Nash outcome it started from
        assert np.array_equal(led.nash.allocation.psd, nash.allocation.psd)
        assert np.array_equal(led.nash.rates, nash.rates)
        assert (led.nash.iterations, led.nash.converged) == (nash.iterations, nash.converged)
        if not nash.converged:
            continue
        assert led.rates[0] >= nash.rates[0] - 1e-9


def test_budget_splits_order_and_silence():
    splits = _budget_splits(2, 2).tolist()
    assert splits == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]
    full = full_budget_splits(2, 2).tolist()
    assert full == [[0, 2], [1, 1], [2, 0]]


def full_budget_splits(levels, bins):
    """Splits that spend the whole budget, built as discretize_power_game does."""
    head = _budget_splits(levels, bins - 1)
    return np.column_stack([head, levels - head.sum(axis=1)])


def reference_budget_splits(levels, bins, full_only=False):
    """Reference: the recursive generator of splits, one tuple at a time."""

    def rec(remaining, parts):
        if parts == 1:
            if full_only:
                yield (remaining,)
            else:
                for v in range(remaining + 1):
                    yield (v,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    yield from rec(levels, bins)


def reference_candidate_rows(levels, grid, budget):
    unit = budget / (levels * grid.bin_width)
    return np.asarray(list(reference_budget_splits(levels, grid.bin_count)), dtype=float) * unit


@pytest.mark.parametrize("full_only", [False, True])
def test_budget_split_table_matches_recursive_generator(full_only):
    for levels in range(13):
        for bins in range(1, 7):
            table = (full_budget_splits if full_only else _budget_splits)(levels, bins)
            expect = list(reference_budget_splits(levels, bins, full_only=full_only))
            assert table.dtype.kind == "i"
            assert table.shape == (len(expect), bins)
            assert table.tolist() == [list(row) for row in expect]


def test_weighted_sum_single_user_corners(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    solo = 2.0 * math.log2(6.0)  # flat direct channel water-fills evenly
    s = sg.pareto_sweep([[1.0, 0.0]], *args, levels=10)[0]
    assert s.rates[0] == pytest.approx(solo, abs=1e-9)
    assert s.rates[1] == 0.0
    s = sg.pareto_sweep([[0.0, 1.0]], *args, levels=10)[0]
    assert s.rates[1] == pytest.approx(solo, abs=1e-9)
    assert s.rates[0] == 0.0


def test_weighted_sum_covers_concentrate_pair(two_channel):
    s = sg.pareto_sweep([[1.0, 1.0]], two_channel.channels, two_channel.noise,
                        two_channel.budgets, two_channel.grid, levels=10)[0]
    # the fully segregated profile is on the grid, so it bounds the optimum below
    assert s.rates.sum() >= 2.0 * math.log2(11.0) - 1e-9


def test_weighted_sum_validation(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    for bad in ([0.0, 0.0], [-1.0, 1.0]):
        with pytest.raises(ValueError):
            sg.pareto_sweep([bad], *args)
        with pytest.raises(ValueError):
            sg.pareto_sweep([[1.0, 1.0], bad], *args)
        with pytest.raises(ValueError):
            sg.region_comparison(two_channel, [], [bad])


def test_weighted_sum_scale_cap():
    grid = sg.FrequencyGrid(4, 4.0)
    scen_channels = sg.ChannelSet(np.ones((2, 2, 4)))
    noise = sg.NoiseProfile.flat(1.0, 2, 4)
    budgets = sg.PowerBudget(np.array([10.0, 10.0]))
    with pytest.raises(OracleScaleError):
        sg.pareto_sweep([[1.0, 1.0]], scen_channels, noise, budgets, grid, levels=80)


def test_pareto_sweep_empty(two_channel):
    args = (two_channel.channels, two_channel.noise, two_channel.budgets, two_channel.grid)
    assert sg.pareto_sweep([], *args) == []
    assert sg.region_comparison(two_channel, [], []) == []


def test_pareto_sweep_corners(two_channel):
    samples = sg.pareto_sweep([[1.0, 0.0], [0.0, 1.0]], two_channel.channels, two_channel.noise,
                              two_channel.budgets, two_channel.grid, levels=10)
    assert len(samples) == 2
    assert [s.params for s in samples] == [(1.0, 0.0), (0.0, 1.0)]
    assert samples[0].rates[1] == 0.0
    assert samples[1].rates[0] == 0.0


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


def descent_pick(rows, leader):
    """The first of a descent pass's (row, reply, rates) within DESCENT_TIE of its best leader rate."""
    top = max(rates[leader] for _, _, rates in rows)
    return next(i for i, (_, _, rates) in enumerate(rows) if rates[leader] >= top * (1.0 - power_games.DESCENT_TIE))


def scalar_leader_search(leader, scen, levels=10):
    """Reference: price one leader candidate at a time, keep strict improvements.

    The descent weighs the Nash row as row 0 of its first pass and moves while
    the pass's first near-best row (`descent_pick`) beats the current rate by
    more than DESCENT_TIE.
    """
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
        return psd[follower], _rates(psd, ch.gain2, noise.psd, grid.bin_width)

    nash = sg.iterative_water_filling(ch, noise, budgets, grid)
    best_row = np.array(nash.allocation.psd[leader])
    best_reply, best_rates = assess(best_row)
    if grid.bin_count <= 4:
        for row in reference_candidate_rows(levels, grid, budgets.budget[leader]):
            reply, rates = assess(row)
            if rates[leader] > best_rates[leader]:
                best_row, best_reply, best_rates = row, reply, rates
        return best_row, best_reply, best_rates, evaluated
    step = budgets.budget[leader] / (levels * grid.bin_width)
    current = (best_row, best_reply, best_rates)
    rows = [current]  # the first pass: the Nash row, then its moves
    while True:
        row = current[0]
        for src in range(grid.bin_count):
            if row[src] < step:
                continue
            for dst in range(grid.bin_count):
                if dst != src:
                    trial = np.array(row)
                    trial[src] -= step
                    trial[dst] += step
                    rows.append((trial, *assess(trial)))
        move = rows[descent_pick(rows, leader)]
        if not move[2][leader] > current[2][leader] * (1.0 + power_games.DESCENT_TIE):
            break
        current, rows = move, []
    return (*current, evaluated)


def exhaustive_leader_grid(leader, scen, levels):
    """Reference: price the Nash row and every grid split at once; the first best wins.

    Each row's joint PSD is priced as `nash_alone_descent` prices it.
    Returns the row, the follower's reply, both rates and the row count.
    """
    ch, noise, budgets, grid = scen.channels, scen.noise, scen.budgets, scen.grid
    follower = 1 - leader
    nash = sg.iterative_water_filling(ch, noise, budgets, grid)
    rows = np.vstack([nash.allocation.psd[leader], reference_candidate_rows(levels, grid, budgets.budget[leader])])
    psd = np.zeros((len(rows), 2, grid.bin_count))
    psd[:, leader] = rows
    floors = _effective_noise_raw(follower, psd, ch.gain2, noise.psd)
    psd[:, follower] = _water_fill_rows(ch.gain2[follower, follower], floors, budgets.budget[follower], grid.bin_width)
    rates = _rates(psd, ch.gain2, noise.psd, grid.bin_width)
    i = int(np.argmax(rates[:, leader]))
    return rows[i], psd[i, follower], rates[i], len(rows)


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
        scen = mirror_scenario()
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


def nash_alone_descent(leader, scen, levels):
    """K > 4 leader descent that prices the Nash row in a batch of its own
    before its first pass; returns the row, reply, rates, candidates and batches."""
    ch, noise, budgets, grid = scen.channels, scen.noise, scen.budgets, scen.grid
    nash = sg.iterative_water_filling(ch, noise, budgets, grid)
    step = budgets.budget[leader] / (levels * grid.bin_width)
    batches = []

    def price(rows):
        # the follower's replies and both users' rates, from the joint PSD of each row
        batches.append(len(rows))
        follower = 1 - leader
        psd = np.zeros((len(rows), 2, grid.bin_count))
        psd[:, leader] = rows
        floors = _effective_noise_raw(follower, psd, ch.gain2, noise.psd)
        psd[:, follower] = _water_fill_rows(ch.gain2[follower, follower], floors,
                                            budgets.budget[follower], grid.bin_width)
        return psd[:, follower], _rates(psd, ch.gain2, noise.psd, grid.bin_width)

    row = np.array(nash.allocation.psd[leader])
    replies, rates = price(row[None])
    current = (row, replies[0], rates[0])
    head = [current]  # weighed as row 0 of the first pass
    bins = grid.bin_count
    pairs = np.array([(src, dst) for src in range(bins) for dst in range(bins) if dst != src])
    while True:
        src, dst = pairs[current[0][pairs[:, 0]] >= step].T
        if not len(src):
            break
        trials = np.repeat(current[0][None], len(src), axis=0)
        trials[np.arange(len(src)), src] -= step
        trials[np.arange(len(src)), dst] += step
        replies, rates = price(trials)  # at most 56 moves: one block
        rows = head + list(zip(trials, replies, rates))
        move = rows[descent_pick(rows, leader)]
        if not move[2][leader] > current[2][leader] * (1.0 + power_games.DESCENT_TIE):
            break
        current, head = move, []
    return (*current, sum(batches), batches)


def count_priced_blocks(monkeypatch):
    """Hook the leader search's block pricer; returns the list of block sizes it will fill."""
    seen = []
    price = power_games._leader_rates

    def counted(leader, received, *rest):
        seen.append(len(received))
        return price(leader, received, *rest)

    monkeypatch.setattr(power_games, "_leader_rates", counted)
    return seen


def assert_descent_matches_nash_alone(monkeypatch, leader, scen, levels=10):
    expect_row, expect_reply, expect_rates, evaluated, batches = nash_alone_descent(leader, scen, levels)
    seen = count_priced_blocks(monkeypatch)
    res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                       scen.grid, levels=levels)
    monkeypatch.undo()
    assert res.leader_allocation.tobytes() == np.asarray(expect_row).tobytes()
    assert res.follower_allocation.tobytes() == expect_reply.tobytes()
    assert res.rates.tobytes() == expect_rates.tobytes()
    assert res.candidates_evaluated == evaluated
    # the Nash row is row 0 of the first pass, not a batch of its own
    assert seen == ([1 + batches[1]] + batches[2:] if len(batches) > 1 else [1])
    assert res.descent_passes == len(seen)
    return res


@pytest.mark.parametrize("bins", [5, 6, 7, 8])
def test_descent_matches_pricing_the_nash_row_alone(monkeypatch, bins):
    grid = sg.FrequencyGrid(bins, float(bins))
    for idx in range(6):
        scen = sg.PowerScenario(grid=grid, channels=ensemble_channels(3141, idx, grid),
                                noise=sg.NoiseProfile.flat(1.0, 2, bins),
                                budgets=sg.PowerBudget(np.array([100.0, [100.0, 30.0][idx % 2]])))
        for leader in (0, 1):
            assert_descent_matches_nash_alone(monkeypatch, leader, scen)


def test_descent_keeps_a_nash_row_that_is_its_own_local_optimum(monkeypatch):
    # K=8 draw 0 with leader 1: no single move beats the Nash row
    scen = descent_scenario(0)
    res = assert_descent_matches_nash_alone(monkeypatch, 1, scen)
    assert np.array_equal(res.leader_allocation, res.nash.allocation.psd[1])
    # the Nash row plus every move out of a bin that holds a full step
    assert res.candidates_evaluated == 1 + 7 * int((res.leader_allocation >= scen.budgets.budget[1] / 10).sum())


def test_descent_with_no_full_step_prices_only_the_nash_row(monkeypatch):
    # at 2 levels a step is half the budget, which no K=8 Nash bin holds
    scen = descent_scenario(0)
    for leader in (0, 1):
        res = assert_descent_matches_nash_alone(monkeypatch, leader, scen, levels=2)
        assert res.candidates_evaluated == 1
        assert np.array_equal(res.leader_allocation, res.nash.allocation.psd[leader])


@pytest.mark.parametrize("block", [None, 5, 1])
def test_descent_does_not_split_a_tie_by_the_nash_rows_last_bits(monkeypatch, block):
    # the benchmark's seed-5 ensemble draw 638: from plain IW's Nash row, first-pass
    # moves 3, 18 and 25 give the same leader rate to the bit; from the jumped Nash
    # row (2e-9 away) move 3 reads one ulp lower, and an exact argmax took move 18
    # and climbed for two more passes, to 17.3778.  Small blocks put the tied rows
    # in different blocks of a pass
    if block is not None:
        monkeypatch.setattr(power_games, "BLOCK_SIZE", block)
    args = ensemble_draw(5, 638)
    jumped = sg.stackelberg_leader_search(0, *args)
    psd, rates, sweeps, converged, residual, gap = plain_iw(*args)
    plain_nash = sg.IwResult(sg.PowerAllocation(psd), rates, sweeps, converged, residual, gap)
    monkeypatch.setattr(power_games, "iterative_water_filling", lambda *a, **k: plain_nash)
    plain = sg.stackelberg_leader_search(0, *args)
    assert not np.array_equal(jumped.nash.allocation.psd, psd)
    assert np.abs(jumped.nash.allocation.psd - psd).max() < 1e-8
    for res in (jumped, plain):
        assert res.descent_passes == 2
        assert res.rates[0] == pytest.approx(17.2326682, abs=1e-7)
    assert np.abs(jumped.leader_allocation - plain.leader_allocation).max() < 1e-8


def grid_scenario(bins, seed):
    grid = sg.FrequencyGrid(bins, 1.5 * bins)
    return sg.PowerScenario(
        grid=grid,
        channels=ensemble_channels(seed, bins, grid),
        noise=sg.NoiseProfile(np.random.default_rng(seed).uniform(0.3, 2.0, (2, bins))),
        budgets=sg.PowerBudget(np.array([7.0, 12.5])),
    )


def mirror_scenario():
    # symmetric across users and bins, so weighted optima tie exactly
    return sg.two_channel_scenario(cross_12=(0.8, 0.8), cross_21=(0.8, 0.8))


@pytest.mark.parametrize("block", [None, 64, 1])
@pytest.mark.parametrize("draw,leader", [("fig6", 0), ("fig6", 1), ("mirror", 0), (0, 0), (1, 1)])
def test_blocked_leader_grid_matches_scalar_loop(monkeypatch, draw, leader, block):
    # the K=4 draws price 1,002 rows: one block by default, 16 or 1,002 here
    if block is not None:
        monkeypatch.setattr(power_games, "BLOCK_SIZE", block)
    if draw == "fig6":
        scen = load_scenario(SCENARIOS / "fig6.json").power_scenario()
    elif draw == "mirror":
        scen = mirror_scenario()
    else:
        scen = grid_scenario(4, 4040 + draw)
    res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                       scen.grid, levels=10)
    row, reply, rates, evaluated = scalar_leader_search(leader, scen, levels=10)
    assert np.array_equal(res.leader_allocation, row)
    assert np.array_equal(res.follower_allocation, reply)
    assert np.array_equal(res.rates, rates)
    assert res.candidates_evaluated == evaluated


def test_leader_grid_prices_bounded_blocks(monkeypatch):
    # 135,752 candidates are ranked; the Nash row and the 35,958 splits the bound cannot rule out are
    # priced in several blocks
    scen = frontier_scenario(0)
    args = (0, scen.channels, scen.noise, scen.budgets, scen.grid)
    seen = count_priced_blocks(monkeypatch)
    res = sg.stackelberg_leader_search(*args, levels=40)
    assert res.candidates_evaluated == math.comb(44, 4) + 1
    assert sum(seen) <= res.candidates_evaluated
    assert max(seen) <= power_games.BLOCK_SIZE and len(seen) > 1
    row, reply, rates, evaluated = exhaustive_leader_grid(0, scen, levels=40)
    assert res.leader_allocation.tobytes() == row.tobytes()
    assert res.follower_allocation.tobytes() == reply.tobytes()
    assert res.rates.tobytes() == rates.tobytes()
    assert res.candidates_evaluated == evaluated
    # one unbounded call picks the same leader row
    monkeypatch.setattr(power_games, "BLOCK_SIZE", res.candidates_evaluated)
    whole = sg.stackelberg_leader_search(*args, levels=40)
    assert np.array_equal(whole.leader_allocation, res.leader_allocation)
    assert np.array_equal(whole.follower_allocation, res.follower_allocation)
    assert np.array_equal(whole.rates, res.rates)
    assert whole.candidates_evaluated == res.candidates_evaluated


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_table_priced_leader_grid_matches_scalar_loop(data):
    # up to four bins run the grid; zero direct gains leave bins unusable and
    # zero cross gains (some bins or all) make the follower ignore the leader
    bins, levels = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 12))
    leader, block = data.draw(st.sampled_from([0, 1])), data.draw(st.sampled_from([None, 64, 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gain2 = rng.uniform(0.05, 2.0, (2, 2, bins))
    for n in range(2):
        dead = rng.random(bins) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))
        dead[rng.integers(bins)] = False
        gain2[n, n, dead] = 0.0
        gain2[n, 1 - n, rng.random(bins) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(bins, bins * data.draw(st.sampled_from([0.5, 1.0, 3.0]))),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile(rng.uniform(0.1, 3.0, (2, bins))),
        budgets=sg.PowerBudget(rng.uniform(0.5, 200.0, 2)),
    )
    with mock.patch.object(power_games, "BLOCK_SIZE", block or power_games.BLOCK_SIZE):
        res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                           scen.grid, levels=levels)
    row, reply, rates, evaluated = scalar_leader_search(leader, scen, levels=levels)
    assert np.array_equal(res.leader_allocation, row)
    assert np.array_equal(res.follower_allocation, reply)
    assert np.array_equal(res.rates, rates)
    assert res.candidates_evaluated == evaluated


def leader_bound_sums(leader, scen, levels, nash_row):
    """Each grid split's bound, then the Nash row's: its bins' `_leader_bounds` terms summed in bin order."""
    bins = scen.grid.bin_count
    step = scen.budgets.budget[leader] / (levels * scen.grid.bin_width)
    psd = np.repeat(np.arange(levels + 2)[:, None] * step, bins, axis=1)
    psd[-1] = nash_row
    terms = power_games._leader_bounds(leader, psd, scen.channels, scen.noise, scen.budgets, scen.grid)
    at = np.vstack([_budget_splits(levels, bins), np.full(bins, levels + 1)])
    return reduce(operator.add, (terms[at[:, k], k] for k in range(bins)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_leader_grid_bounds_cover_every_priced_row(data):
    # every split and the Nash row priced one by one: each row's bound reaches
    # the floor of its own rate, so the search never rules out a row that
    # reaches the cut.  Zero cross gains into the leader make the bound exact;
    # zero direct gains leave bins unusable; gains and noise near 1e-300 or
    # 1e300 scale together, within the loader's SNR cap
    bins, levels = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 12))
    leader = data.draw(st.sampled_from([0, 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gain2 = rng.uniform(0.05, 2.0, (2, 2, bins))
    cross = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    for n in range(2):
        dead = rng.random(bins) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))
        dead[rng.integers(bins)] = False
        gain2[n, n, dead] = 0.0
        gain2[n, 1 - n, rng.random(bins) < cross] = 0.0
    scale = data.draw(st.sampled_from([1.0, 1e-300, 1e300]))
    gain2 *= scale
    gain2[[0, 1], [1, 0]] *= data.draw(st.sampled_from([1.0, 1e-3, 1e3]))
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(bins, bins * data.draw(st.sampled_from([0.5, 1.0, 3.0]))),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile(rng.uniform(0.1, 3.0, (2, bins)) * scale),
        budgets=sg.PowerBudget(rng.uniform(0.5, 200.0, 2)),
    )
    df = scen.grid.bin_width
    snr = scen.budgets.budget[:, None] / df * np.diagonal(gain2).T / scen.noise.psd
    assume(snr.max() <= MAX_PEAK_SNR)
    ch, noise, budgets, grid = scen.channels, scen.noise, scen.budgets, scen.grid
    follower = 1 - leader
    nash = sg.iterative_water_filling(ch, noise, budgets, grid)
    rows = np.vstack([reference_candidate_rows(levels, grid, budgets.budget[leader]), nash.allocation.psd[leader]])
    rates = []
    for row in rows:
        psd = np.zeros((2, bins))
        psd[leader] = row
        psd[follower] = sg.water_fill(gain2[follower, follower], _effective_noise_raw(follower, psd, gain2, noise.psd),
                                      budgets.budget[follower], grid)
        rates.append(_rates(psd, gain2, noise.psd, df)[leader])
    bounds = leader_bound_sums(leader, scen, levels, nash.allocation.psd[leader])
    floors = [power_games._leader_floor(r, bins, df) for r in rates]
    assert all(b >= f for b, f in zip(bounds.tolist(), floors))
    if not gain2[follower, leader].any():
        assert (bounds * df).tolist() == rates
    res = sg.stackelberg_leader_search(leader, ch, noise, budgets, grid, levels=levels)
    row, reply, best, evaluated = scalar_leader_search(leader, scen, levels=levels)
    assert res.leader_allocation.tobytes() == row.tobytes()
    assert res.follower_allocation.tobytes() == reply.tobytes()
    assert res.rates.tobytes() == best.tobytes()
    assert res.candidates_evaluated == evaluated == len(rows)


@pytest.mark.parametrize("lift", ["far", "near"])
@pytest.mark.parametrize("draw,leader", [("fig6", 0), ("fig6", 1), ("mirror", 0), (0, 0), (1, 1), ("deaf", 1)])
def test_leader_grid_prices_the_ruled_out_splits_when_nothing_reaches_the_cut(monkeypatch, draw, leader, lift):
    # IW reports a leader rate far above every grid rate, or just above the
    # best: no row priced reaches the cut, so the splits ruled out whose
    # bound reaches the best rate priced are priced too, and the result is
    # still the exhaustive one, bit for bit
    if draw == "fig6":
        scen = load_scenario(SCENARIOS / "fig6.json").power_scenario()
    elif draw == "mirror":
        scen = mirror_scenario()
    elif draw == "deaf":  # no cross gains: the bound is exact
        scen = grid_scenario(4, 4040)
        scen = sg.PowerScenario(grid=scen.grid, channels=sg.ChannelSet(scen.channels.gain2 * np.eye(2)[..., None]),
                                noise=scen.noise, budgets=scen.budgets)
    else:
        scen = grid_scenario(4, 4040 + draw)
    row, reply, rates, evaluated = scalar_leader_search(leader, scen, levels=10)
    real = power_games.iterative_water_filling

    def lifted(*args, **kwargs):
        nash = real(*args, **kwargs)
        reported = nash.rates.copy()
        reported[leader] = 1e6 if lift == "far" else rates[leader] * (1.0 + 2.0**-20)
        return dataclasses.replace(nash, rates=reported)

    monkeypatch.setattr(power_games, "iterative_water_filling", lifted)
    seen = count_priced_blocks(monkeypatch)
    res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets, scen.grid, levels=10)
    assert sum(seen) <= res.candidates_evaluated and max(seen) <= power_games.BLOCK_SIZE
    if lift == "far":
        assert seen[0] == 1  # the Nash row alone, then the splits whose bound reaches its rate
    assert res.leader_allocation.tobytes() == row.tobytes()
    assert res.follower_allocation.tobytes() == reply.tobytes()
    assert res.rates.tobytes() == rates.tobytes()
    assert res.candidates_evaluated == evaluated


def test_leader_grid_tie_across_the_two_pricings_keeps_the_first_split(monkeypatch):
    # the mirror scenario's best split x ties its mirror image y, which comes
    # later.  Bound terms raised at y's first level keep y (and stay upper
    # bounds), and a reported IW rate above x's bound rules x out: y is
    # priced first, x only once nothing reaches the cut, and x still wins
    scen = mirror_scenario()
    row, reply, rates, evaluated = scalar_leader_search(0, scen, levels=10)
    x = np.rint(row / (scen.budgets.budget[0] / (10 * scen.grid.bin_width))).astype(int)
    assert x[0] < x[1]  # y = x[::-1] comes later
    nash = sg.iterative_water_filling(scen.channels, scen.noise, scen.budgets, scen.grid)
    bound_x = leader_bound_sums(0, scen, 10, nash.allocation.psd[0])[_budget_splits(10, 2).tolist().index(x.tolist())]
    real_bounds, real_iw = power_games._leader_bounds, power_games.iterative_water_filling

    def raised(*args):
        terms = real_bounds(*args)
        terms[x[1], 0] += 1e3
        return terms

    def reported(*args, **kwargs):
        res = real_iw(*args, **kwargs)
        return dataclasses.replace(res, rates=np.array([4 * bound_x * scen.grid.bin_width, res.rates[1]]))

    monkeypatch.setattr(power_games, "_leader_bounds", raised)
    monkeypatch.setattr(power_games, "iterative_water_filling", reported)
    seen = count_priced_blocks(monkeypatch)
    res = sg.stackelberg_leader_search(0, scen.channels, scen.noise, scen.budgets, scen.grid, levels=10)
    assert len(seen) == 2 and sum(seen) <= evaluated
    assert res.leader_allocation.tobytes() == row.tobytes()
    assert res.follower_allocation.tobytes() == reply.tobytes()
    assert res.rates.tobytes() == rates.tobytes()


def test_leader_grid_prices_fewer_rows_on_the_frontier_draws(monkeypatch):
    # every search of the pinned frontier draws ranks 1,002 candidates at 10
    # levels and prices fewer, one block each
    seen = count_priced_blocks(monkeypatch)
    priced = {0: [], 1: []}
    for leader in (0, 1):
        for index in range(8):
            scen = frontier_scenario(index)
            for pair in FRONTIER_PAIRS:
                seen.clear()
                res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, sg.PowerBudget(np.array(pair)),
                                                   scen.grid, levels=10)
                assert res.candidates_evaluated == 1002 and len(seen) == 1 and seen[0] < 1002
                priced[leader].append(seen[0])
    assert np.median(priced[0]) == 119.5 and np.median(priced[1]) == 157.5


def test_budget_split_table_is_built_once_and_read_only():
    table = _budget_splits(10, 4)
    assert _budget_splits(10, 4) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    # one table is kept: another (levels, bins) replaces it
    assert not _budget_splits(3, 2).flags.writeable
    again = _budget_splits(10, 4)
    assert again is not table and np.array_equal(again, table)


def test_descent_moves_are_the_row_major_bin_pairs():
    for bins in range(5, 13):
        loop = [[src, dst] for src in range(bins) for dst in range(bins) if dst != src]
        moves = power_games._descent_moves(bins)
        (src, dst), eye = moves
        assert np.column_stack([src, dst]).tolist() == [[0, 0], *loop]  # the Nash head, then the moves
        assert np.array_equal(eye, np.eye(bins))
        assert power_games._descent_moves(bins) is moves
        for table in moves:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1


def repeat_then_update_trials(row, step, head):
    """Reference: the descent pass's rows as the row repeated, then each move's src lowered and dst raised in place."""
    src, dst = np.argwhere(~np.eye(len(row), dtype=bool)).T
    able = row[src] >= step
    src, dst = src[able], dst[able]
    trials = np.repeat(row[None], head + len(src), axis=0)
    moves = np.arange(head, len(trials))
    trials[moves, src] -= step
    trials[moves, dst] += step
    return trials


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_descent_trials_equal_the_repeat_then_update_rows_by_bytes(data):
    # entries on the step grid, off it, just below one step, subnormal and exactly zero;
    # the bytes compare signed zeros too
    bins = data.draw(st.integers(5, 12))
    step = data.draw(st.floats(1e-3, 1e3))
    entry = st.one_of(st.just(0.0), st.integers(1, 5).map(lambda k: k * step), st.floats(0.0, 6.0 * step),
                      st.just(float(np.nextafter(step, 0.0))), st.just(5e-324))
    row = np.array(data.draw(st.lists(entry, min_size=bins, max_size=bins)))
    head = data.draw(st.booleans())
    trials, expect = power_games._descent_trials(row, step, head), repeat_then_update_trials(row, step, int(head))
    assert trials.shape == expect.shape and trials.tobytes() == expect.tobytes()
    assert not np.signbit(trials).any()  # no descent row holds -0.0 (or a negative entry)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_no_descent_row_holds_a_negative_zero(data):
    # a trial adds +0.0 to every entry its move leaves, which keeps x only for
    # x >= +0.0: so no row the descent prices, Nash row included, may hold -0.0
    blocks = []
    priced = power_games._leader_rates

    def spy(leader, rows, *rest):
        blocks.append(np.array(rows))
        return priced(leader, rows, *rest)

    bins = data.draw(st.integers(5, 12))
    args = support_draw(data, bins)[1]
    leader, levels = data.draw(st.sampled_from([0, 1])), data.draw(st.integers(2, 12))
    with mock.patch.object(power_games, "_leader_rates", spy):
        try:
            res = sg.stackelberg_leader_search(leader, *args, levels=levels)
        except NoUsableSpectrumError:
            return
    assert len(blocks) == res.descent_passes
    assert not any(np.signbit(rows).any() for rows in blocks)


def draw_23_scenario():
    grid = sg.FrequencyGrid(5, 5.0)
    return sg.PowerScenario(
        grid=grid,
        channels=ensemble_channels(7, 23, grid),
        noise=sg.NoiseProfile.flat(1.0, 2, 5),
        budgets=sg.PowerBudget(np.array([100.0, 100.0])),
    )


@pytest.mark.parametrize("draw,levels", [(23, 100), (0, 10), (4, 10), (5, 10)])
def test_descent_stops_at_a_local_optimum(draw, levels):
    # draw 23 needs 42 descent passes at 100 levels; the K=8 draws a few
    scen = draw_23_scenario() if draw == 23 else descent_scenario(draw)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid)
    res = sg.stackelberg_leader_search(0, *args, levels=levels)
    step = scen.budgets.budget[0] / (levels * scen.grid.bin_width)
    row = res.leader_allocation
    for src in np.flatnonzero(row >= step):
        for dst in range(scen.grid.bin_count):
            if dst != src:
                trial = row.copy()
                trial[src] -= step
                trial[dst] += step
                assert sg.follower_response_rates(0, trial, *args)[1][0] <= res.rates[0], (src, dst)
    if draw == 23:
        assert res.candidates_evaluated == 637
        assert res.rates[0] == pytest.approx(11.95517, abs=1e-5)
        ref_row, ref_reply, ref_rates, evaluated = scalar_leader_search(0, scen, levels=levels)
        assert np.array_equal(res.leader_allocation, ref_row)
        assert np.array_equal(res.rates, ref_rates)
        assert res.candidates_evaluated == evaluated


@pytest.mark.parametrize("draw,levels", [("fig6", 10), (23, 100), (0, 10), (1, 10), (4, 10), (5, 10)])
def test_descent_passes_count_the_priced_batches(monkeypatch, draw, levels):
    # a descent pass is at most 57 rows, one block; the grid reports none
    if draw == "fig6":
        scen = load_scenario(SCENARIOS / "fig6.json").power_scenario()
    else:
        scen = draw_23_scenario() if draw == 23 else descent_scenario(draw)
    seen = count_priced_blocks(monkeypatch)
    for leader in (0, 1):
        seen.clear()
        res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                           scen.grid, levels=levels)
        if draw == "fig6":
            # the grid ranks every candidate but prices only those its bound cannot rule out
            assert sum(seen) <= res.candidates_evaluated and max(seen) <= power_games.BLOCK_SIZE
            row, reply, rates, evaluated = scalar_leader_search(leader, scen, levels=levels)
            assert res.leader_allocation.tobytes() == row.tobytes()
            assert res.follower_allocation.tobytes() == reply.tobytes()
            assert res.rates.tobytes() == rates.tobytes()
            assert res.candidates_evaluated == evaluated
        else:
            assert sum(seen) == res.candidates_evaluated
        assert res.descent_passes == (0 if draw == "fig6" else len(seen))
        if draw == 23 and leader == 0:
            assert res.descent_passes == 42  # 41 accepted moves and the pass that finds none


def test_leader_grid_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    scen = flat_symmetric_scenario()
    args = (0, scen.channels, scen.noise, scen.budgets, scen.grid)
    # 2,826 levels on two bins are comb(2828, 2) = 3,997,378 candidates, 2,827 are 4,000,206
    assert math.comb(2828, 2) <= power_games.MAX_ORACLE_EVALUATIONS < math.comb(2829, 2)

    def no_work(*args, **kwargs):
        raise AssertionError("the leader search did work before refusing")

    monkeypatch.setattr(power_games, "_budget_splits", no_work)
    monkeypatch.setattr(power_games, "iterative_water_filling", no_work)
    with pytest.raises(OracleScaleError, match="4000206 leader grid candidates"):
        sg.stackelberg_leader_search(*args, levels=2827)
    monkeypatch.undo()
    # at a lowered cap, the grid of exactly the cap's size still runs
    res = sg.stackelberg_leader_search(*args, levels=10)
    monkeypatch.setattr(power_games, "MAX_ORACLE_EVALUATIONS", math.comb(12, 2))
    assert sg.stackelberg_leader_search(*args, levels=10).candidates_evaluated == res.candidates_evaluated
    monkeypatch.setattr(power_games, "MAX_ORACLE_EVALUATIONS", math.comb(12, 2) - 1)
    with pytest.raises(OracleScaleError):
        sg.stackelberg_leader_search(*args, levels=10)


def test_joint_grid_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    scen = flat_symmetric_scenario()
    args = (scen.channels, scen.noise, scen.budgets, scen.grid)
    # 61 levels on two bins are 1,953^2 = 3,814,209 joint pairs, 62 are 2,016^2 = 4,064,256
    assert math.comb(63, 2) ** 2 <= power_games.MAX_ORACLE_EVALUATIONS < math.comb(64, 2) ** 2

    def no_work(*args, **kwargs):
        raise AssertionError("the oracle built its grid before refusing")

    monkeypatch.setattr(power_games, "_budget_splits", no_work)
    with pytest.raises(OracleScaleError, match="^oracle scale exceeded: 4064256 joint evaluations over cap 4000000$"):
        sg.pareto_sweep([[1.0, 1.0]], *args, levels=62)
    with pytest.raises(OracleScaleError, match="4064256 joint evaluations"):
        sg.grid_dominance_margin([1.0, 1.0], *args, levels=62)


def test_leader_descent_over_the_cap_is_refused(monkeypatch):
    scen = draw_23_scenario()
    args = (0, scen.channels, scen.noise, scen.budgets, scen.grid)
    res = sg.stackelberg_leader_search(*args, levels=100)
    monkeypatch.setattr(power_games, "MAX_ORACLE_EVALUATIONS", res.candidates_evaluated)
    again = sg.stackelberg_leader_search(*args, levels=100)
    assert np.array_equal(again.leader_allocation, res.leader_allocation)
    assert again.candidates_evaluated == res.candidates_evaluated
    seen = count_priced_blocks(monkeypatch)
    monkeypatch.setattr(power_games, "MAX_ORACLE_EVALUATIONS", res.candidates_evaluated - 1)
    with pytest.raises(OracleScaleError, match="leader descent candidates over cap"):
        sg.stackelberg_leader_search(*args, levels=100)
    # the last pass was refused before it was priced, not truncated
    assert sum(seen) < res.candidates_evaluated


FRONTIER_PAIRS = [(100.0, 100.0), (150.0, 50.0), (50.0, 150.0)]
FRONTIER_WEIGHTS = [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0)]


def frontier_scenario(index):
    grid = sg.FrequencyGrid(4, 4.0)
    return sg.PowerScenario(
        grid=grid,
        channels=ensemble_channels(2424, index, grid),
        noise=sg.NoiseProfile.flat(1.0, 2, 4),
        budgets=sg.PowerBudget(np.array([100.0, 100.0])),
    )


def frontier_digest():
    """sha256 over 8 K=4 draws of the region table (method, params, rate bytes) and the margin."""
    h = hashlib.sha256()
    for index in range(8):
        scen = frontier_scenario(index)
        table = sg.region_comparison(scen, FRONTIER_PAIRS, FRONTIER_WEIGHTS, leader=0, levels=10)
        for sample in table:
            h.update(repr((sample.method, sample.params)).encode())
            h.update(np.asarray(sample.rates, dtype=float).tobytes())
        margin = sg.grid_dominance_margin(table[0].rates, scen.channels, scen.noise, scen.budgets,
                                          scen.grid, levels=10)
        h.update(np.float64(margin).tobytes())
    return h.hexdigest()


def descent_digest():
    """sha256 of both leaders' searches on four K=8 descent draws."""
    h = hashlib.sha256()
    for draw in range(4):
        scen = descent_scenario(draw)
        for leader in (0, 1):
            res = sg.stackelberg_leader_search(leader, scen.channels, scen.noise, scen.budgets,
                                               scen.grid, levels=10)
            for array in (res.leader_allocation, res.follower_allocation, res.rates):
                h.update(array.tobytes())
            h.update(str(res.candidates_evaluated).encode())
    return h.hexdigest()


# sha256 of the region tables, margins and leader searches, captured from the
# search that priced every candidate's joint rates and re-recorded when the
# two-user IW gained its jump to the support fixed point; any change of bits shows
PINNED_FRONTIER = "af2e874adf5068f61684408d5c6d19f788ae4c2adf6c9bde01647f8fa900d0ec"
PINNED_DESCENT = "886ea1e2378635aa090f8315283ff40844793efce971b0fc705be02161a2949e"


def test_leader_search_outputs_are_pinned():
    assert frontier_digest() == PINNED_FRONTIER
    assert descent_digest() == PINNED_DESCENT


# The benchmark's seed-7 ensemble draws 0-59 (draw 27 jumps, then sweeps on
# to 71 sweeps), 94 and 548 (their one support solve is refused at
# c_0 c_1 >= 1, and they sweep 98 and 400 times).
ENSEMBLE_DRAWS = [*range(60), 94, 548]


def ensemble_search_digest():
    """sha256 of both leaders' full searches on ENSEMBLE_DRAWS, IW's result included."""
    h = hashlib.sha256()
    for draw in ENSEMBLE_DRAWS:
        for leader in (0, 1):
            res = sg.stackelberg_leader_search(leader, *ensemble_draw(7, draw))
            nash = res.nash
            for array in (res.leader_allocation, res.follower_allocation, res.rates, nash.allocation.psd, nash.rates):
                h.update(array.tobytes())
            h.update(repr((res.candidates_evaluated, res.descent_passes, nash.iterations, nash.converged,
                           float(nash.residual).hex(), float(nash.fixed_point_gap).hex())).encode())
    return h.hexdigest()


# captured before the support solve summed in one pass, the rate kernel priced
# without copies and the descent built its rows from one cached move table
PINNED_ENSEMBLE = "11c11abb295521cfccdb2b01ef6e89c80f6464207923d673d894ed7ea456c468"


def test_ensemble_leader_searches_are_pinned(monkeypatch):
    solves = []
    solve = power_games._support_solve

    def recorded(psd, gain2, *rest):
        solves.append((solve(psd, gain2, *rest) is None, coupled(np.array(gain2), np.array(psd) > 0.0)))
        return solve(psd, gain2, *rest)

    monkeypatch.setattr(power_games, "_support_solve", recorded)
    sweeps = [sg.iterative_water_filling(*ensemble_draw(7, draw)).iterations for draw in (27, 94, 548)]
    assert sweeps == [71, 98, 400]
    assert solves == [(False, False), (True, True), (True, True)]  # (refused, some c_0 c_1 >= 1)
    monkeypatch.undo()
    assert ensemble_search_digest() == PINNED_ENSEMBLE


def joint_rates(leader, row, reply, scen):
    """`_rates` of the joint PSD with the leader on `row` and the follower on `reply`."""
    psd = np.zeros((2, scen.grid.bin_count))
    psd[leader], psd[1 - leader] = row, reply
    return _rates(psd, scen.channels.gain2, scen.noise.psd, scen.grid.bin_width)


def assert_reported_rates_are_the_rate_kernels(leader, scen, levels, rng):
    # the search reports the leader's rate as its batch priced it and prices
    # the follower's alone: both equal `_rates` of the reported pair, bit for bit
    args = (scen.channels, scen.noise, scen.budgets, scen.grid)
    res = sg.stackelberg_leader_search(leader, *args, levels=levels)
    assert res.rates.dtype == np.float64 and res.rates.shape == (2,)
    assert res.rates.tobytes() == joint_rates(leader, res.leader_allocation, res.follower_allocation, scen).tobytes()
    budget = scen.budgets.budget[leader] / scen.grid.bin_width
    spread = rng.dirichlet(np.ones(scen.grid.bin_count)) * budget
    for row in (res.leader_allocation, res.nash.allocation.psd[leader], spread, np.zeros(scen.grid.bin_count)):
        reply, rates = sg.follower_response_rates(leader, row, *args)
        assert rates.dtype == np.float64 and rates.shape == (2,)
        assert rates.tobytes() == joint_rates(leader, row, reply, scen).tobytes()
    return res


@pytest.mark.parametrize("leader", [0, 1])
def test_reported_rates_are_the_rate_kernels_on_frontier_and_descent_draws(leader):
    rng = np.random.default_rng(leader)
    for index in range(8):
        res = assert_reported_rates_are_the_rate_kernels(leader, frontier_scenario(index), 10, rng)
        assert res.descent_passes == 0
    for index in range(6):
        res = assert_reported_rates_are_the_rate_kernels(leader, descent_scenario(index), 10, rng)
        assert res.descent_passes >= 1


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_reported_rates_are_the_rate_kernels(data):
    # the grid (K 1-4) and the descent (K 5-12), with zero cross gains and
    # zero direct gains (bins a user cannot use)
    bins = data.draw(st.integers(1, 12))
    levels = data.draw(st.integers(2, 6 if bins <= 4 else 12))
    leader = data.draw(st.sampled_from([0, 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gain2 = rng.uniform(0.05, 2.0, (2, 2, bins))
    cross = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    for n in range(2):
        dead = rng.random(bins) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))
        dead[rng.integers(bins)] = False
        gain2[n, n, dead] = 0.0
        gain2[n, 1 - n, rng.random(bins) < cross] = 0.0
    scen = sg.PowerScenario(
        grid=sg.FrequencyGrid(bins, bins * data.draw(st.sampled_from([0.5, 1.0, 3.0]))),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile(rng.uniform(0.1, 3.0, (2, bins))),
        budgets=sg.PowerBudget(rng.uniform(0.5, 200.0, 2)),
    )
    res = assert_reported_rates_are_the_rate_kernels(leader, scen, levels, rng)
    assert (res.descent_passes == 0) == (bins <= 4)


def power_input_case(scen, entry, lead, swap, kwargs):
    parts = {"ch": scen.channels, "noise": scen.noise, "budgets": scen.budgets, "grid": scen.grid}
    parts.update(swap)
    return lambda: getattr(sg, entry)(*lead, *parts.values(), **kwargs)


NARROW_NOISE = sg.NoiseProfile(np.ones((2, 1)))
THREE_USERS = {"ch": sg.ChannelSet(np.ones((3, 3, 4))), "noise": sg.NoiseProfile.flat(1.0, 3, 4),
               "budgets": sg.PowerBudget(np.ones(3))}


@pytest.mark.parametrize("entry,lead,swap,kwargs,field", [
    ("pareto_sweep", ([[1.0, 1.0]],), {"noise": NARROW_NOISE}, {}, "noise"),
    ("grid_dominance_margin", ([1.0, 1.0],), {"noise": NARROW_NOISE}, {}, "noise"),
    ("follower_response_rates", (0, [2.5] * 4), {"noise": NARROW_NOISE}, {}, "noise"),
    ("iterative_water_filling", (), {"grid": sg.FrequencyGrid(3, 3.0)}, {}, "grid"),
    ("stackelberg_leader_search", (0,), {"budgets": sg.PowerBudget(np.ones(3))}, {}, "budgets"),
    ("stackelberg_leader_search", (0,), THREE_USERS, {}, "ch"),
    ("follower_response_rates", (0, [2.5]), {}, {}, "leader_alloc"),
    ("follower_response_rates", (2, [2.5] * 4), {}, {}, "leader must be 0 or 1"),
    ("follower_response_rates", (-1, [2.5] * 4), {}, {}, "leader must be 0 or 1"),
    ("pareto_sweep", ([[1.0, 1.0]],), {}, {"levels": 0}, "levels"),
    ("pareto_sweep", ([[1.0, 1.0]],), {}, {"levels": -1}, "levels"),
    ("pareto_sweep", ([[1.0, 1.0]],), {}, {"levels": 2.5}, "levels"),
    ("grid_dominance_margin", ([1.0, 1.0],), {}, {"levels": 0}, "levels"),
    ("stackelberg_leader_search", (0,), {}, {"levels": 2.5}, "levels"),
    ("pareto_sweep", ([[1.0, np.nan]],), {}, {}, "weights"),
    ("pareto_sweep", ([[1.0, 1.0, 1.0]],), {}, {}, "weights"),
    ("grid_dominance_margin", ([1.0, 1.0, 1.0],), {}, {}, "target_rates"),
    ("pareto_sweep", ([[1.0, 1.0]],), {}, {"levels": True}, "levels"),
    ("follower_response_rates", (True, [2.5] * 4), {}, {}, "leader must be 0 or 1"),
])
def test_power_game_entry_points_refuse_bad_input(entry, lead, swap, kwargs, field):
    call = power_input_case(grid_scenario(4, 4343), entry, lead, swap, kwargs)
    with pytest.raises(ValueError, match=f"^{field}"):
        call()


# Every entry point that checks that its inputs agree with the channels ch
# (2 users, 4 bins): which of the noise table, the budgets, the grid and the
# allocation it takes, and how to call it on them.
ALLOC = sg.PowerAllocation(np.ones((2, 4)))
AGREEMENT_ENTRIES = {
    "PowerScenario": (("noise", "budgets", "grid"),
                      lambda ch, noise, budgets, grid: sg.PowerScenario(grid, ch, noise, budgets)),
    "effective_noise": (("noise", "alloc"),
                        lambda ch, noise, budgets, grid, alloc=ALLOC: sg.effective_noise(0, alloc, ch, noise)),
    "achievable_rate": (("noise", "grid", "alloc"),
                        lambda ch, noise, budgets, grid, alloc=ALLOC: sg.achievable_rate(1, alloc, ch, noise, grid)),
    "iterative_water_filling": (("noise", "budgets", "grid"), sg.iterative_water_filling),
    "follower_response_rates": (("noise", "budgets", "grid"),
                                partial(sg.follower_response_rates, 0, [2.5] * 4)),
    "stackelberg_leader_search": (("noise", "budgets", "grid"),
                                  partial(sg.stackelberg_leader_search, 1)),
    "pareto_sweep": (("noise", "budgets", "grid"), partial(sg.pareto_sweep, [[1.0, 1.0]])),
    "grid_dominance_margin": (("noise", "budgets", "grid"),
                              partial(sg.grid_dominance_margin, [1.0, 1.0])),
}
MISMATCHES = {
    "noise": (NARROW_NOISE, "noise must be a 2x4 PSD table, not (2, 1)"),
    "budgets": (sg.PowerBudget(np.ones(3)), "budgets must hold 2 entries, not 3"),
    "grid": (sg.FrequencyGrid(3, 3.0), "grid has 3 bins where the channel gains have 4"),
    "alloc": (sg.PowerAllocation(np.ones((2, 3))), "alloc must be a 2x4 PSD table, not (2, 3)"),
}


@pytest.mark.parametrize("entry,part", [
    (entry, part) for entry, (parts, _) in AGREEMENT_ENTRIES.items() for part in parts
])
def test_every_entry_point_refuses_a_mismatched_argument_with_its_one_message(entry, part):
    scen = grid_scenario(4, 4343)
    parts = {"ch": scen.channels, "noise": scen.noise, "budgets": scen.budgets, "grid": scen.grid}
    call = AGREEMENT_ENTRIES[entry][1]
    call(**parts)  # the matching inputs pass
    bad, message = MISMATCHES[part]
    with pytest.raises(ValueError) as raised:
        call(**{**parts, part: bad})
    assert str(raised.value) == message


def reference_joint_grid_rates(scen, levels):
    """Reference: one user-1 split at a time, every bin term recomputed."""
    ch, noise, budgets, grid = scen.channels, scen.noise, scen.budgets, scen.grid
    cands1 = reference_candidate_rows(levels, grid, budgets.budget[0])
    cands2 = reference_candidate_rows(levels, grid, budgets.budget[1])
    df = grid.bin_width
    g11, g22 = ch.gain2[0, 0], ch.gain2[1, 1]
    g12, g21 = ch.gain2[0, 1], ch.gain2[1, 0]
    sigma1, sigma2 = noise.psd[0], noise.psd[1]
    for row1 in cands1:
        r1 = (np.log2(1.0 + row1 * g11 / (sigma1 + cands2 * g21))).sum(axis=1) * df
        r2 = (np.log2(1.0 + cands2 * g22 / (sigma2 + row1 * g12))).sum(axis=1) * df
        yield r1, r2


@pytest.mark.parametrize("bins", [1, 2, 3, 4])
def test_joint_grid_rates_equal_the_rate_kernel(bins):
    # the term tables use the rate kernel's floor, and under 8 bins numpy sums
    # a row's log terms in bin order, as the oracle does
    levels = 6
    grid = sg.FrequencyGrid(bins, float(bins))
    noise = sg.NoiseProfile(np.random.default_rng([4242, bins]).uniform(0.5, 2.0, (2, bins)))
    budgets = sg.PowerBudget(np.array([100.0, 10.0]))
    splits = _budget_splits(levels, bins)
    psd = np.empty((len(splits), len(splits), 2, bins))
    psd[:, :, 0] = (splits * (budgets.budget[0] / (levels * grid.bin_width)))[:, None]
    psd[:, :, 1] = (splits * (budgets.budget[1] / (levels * grid.bin_width)))[None, :]
    for idx in range(5):
        ch = ensemble_channels(4242, idx, grid)
        expected = _rates(psd, ch.gain2, noise.psd, grid.bin_width)
        blocks = list(_joint_grid_rates(ch, noise, budgets, grid, levels))
        for user in range(2):
            oracle = np.concatenate([block[user] for block in blocks])
            assert oracle.tobytes() == expected[..., user].tobytes()


def reference_pareto_argmax(scen, levels, weight_list, rows=None):
    """Reference: row-at-a-time argmax, strict improvements across rows."""
    weights = [np.asarray(w, dtype=float) for w in weight_list]
    best_val = [-np.inf] * len(weights)
    best_rates = [None] * len(weights)
    for r1, r2 in rows or reference_joint_grid_rates(scen, levels):
        for wi, w in enumerate(weights):
            objective = w[0] * r1 + w[1] * r2
            j = int(np.argmax(objective))
            if objective[j] > best_val[wi]:
                best_val[wi] = float(objective[j])
                best_rates[wi] = np.array([r1[j], r2[j]])
    return best_val, best_rates


def reference_dominance_margin(target, scen, levels, rows=None):
    best = -np.inf
    for r1, r2 in rows or reference_joint_grid_rates(scen, levels):
        margin = np.minimum(r1 - target[0], r2 - target[1]).max()
        if margin > best:
            best = float(margin)
    return best


ORACLE_WEIGHTS = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.75, 0.25]]


def assert_oracle_matches_reference(scen, levels, target):
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, levels)
    blocks = list(_joint_grid_rates(*args))
    rows = list(reference_joint_grid_rates(scen, levels))
    for user in range(2):
        assert np.array_equal(np.vstack([b[user] for b in blocks]),
                              np.vstack([r[user] for r in rows]))
    assert all(b[0].size <= max(power_games.BLOCK_SIZE, len(rows)) for b in blocks)
    values, rates = _pareto_argmax(*args, ORACLE_WEIGHTS)
    ref_values, ref_rates = reference_pareto_argmax(scen, levels, ORACLE_WEIGHTS)
    assert values == ref_values
    assert all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))
    assert sg.grid_dominance_margin(target, *args) == reference_dominance_margin(target, scen, levels)


@pytest.mark.parametrize("bins", [1, 2, 3, 4])
def test_blocked_oracle_matches_row_loop(bins):
    for levels in range(2, 11):
        assert_oracle_matches_reference(grid_scenario(bins, 900 + levels), levels, [0.8, 1.3])


def test_blocked_oracle_ties_across_blocks(monkeypatch):
    # one user-1 split per block, so tied optima in different rows straddle
    # a block boundary and the strict cross-block test must keep the first
    monkeypatch.setattr(power_games, "BLOCK_SIZE", 1)
    scen = mirror_scenario()
    for levels in (4, 10):
        # the sum rate peaks at a pair and at its user-swapped mirror
        objective = np.vstack([r1 + r2 for r1, r2 in reference_joint_grid_rates(scen, levels)])
        tied = np.argwhere(objective == objective.max())
        assert len(tied) == 2 and tied[0, 0] != tied[1, 0]
        assert_oracle_matches_reference(scen, levels, [1.5, 1.5])


@pytest.mark.parametrize("bins,levels", [(8, 2), (8, 3), (11, 2)])
def test_blocked_oracle_many_bins_within_rounding(bins, levels):
    # numpy sums eight or more terms pairwise, the blocks add them in bin
    # order, so the last bit of a rate may differ
    scen = grid_scenario(bins, 77)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, levels)
    blocks = list(_joint_grid_rates(*args))
    rows = list(reference_joint_grid_rates(scen, levels))
    for user in range(2):
        np.testing.assert_allclose(np.vstack([b[user] for b in blocks]),
                                   np.vstack([r[user] for r in rows]), rtol=1e-12, atol=0)
    values, rates = _pareto_argmax(*args, ORACLE_WEIGHTS)
    ref_values, ref_rates = reference_pareto_argmax(scen, levels, ORACLE_WEIGHTS)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=1e-12)
    target = [0.8, 1.3]
    assert sg.grid_dominance_margin(target, *args) == pytest.approx(
        reference_dominance_margin(target, scen, levels), rel=1e-12, abs=1e-12)


WALK_WEIGHTS = ORACLE_WEIGHTS + [[2.0, 0.0], [5e-324, 0.0], [3e-323, 1e-323], [1e300, 1e-300]]


def seeded_oracle_draw(draw):
    rng = np.random.default_rng([2024, draw])
    bins, levels = int(rng.integers(1, 5)), int(rng.integers(2, 11))
    grid = sg.FrequencyGrid(bins, float(rng.uniform(0.5, 3.0)) * bins)
    scen = sg.PowerScenario(
        grid=grid,
        channels=ensemble_channels(2024, draw, grid),
        noise=sg.NoiseProfile(rng.uniform(0.3, 2.0, (2, bins))),
        budgets=sg.PowerBudget(rng.uniform(1.0, 100.0, 2)),
    )
    return scen, levels


def assert_walk_matches_row_loop(scen, levels, rows):
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, levels)
    ref_values, ref_rates = reference_pareto_argmax(scen, levels, WALK_WEIGHTS, rows)
    values, rates = _pareto_argmax(*args, WALK_WEIGHTS)
    assert values == ref_values
    assert all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))
    # the walk alone, without the scan that heavily tied grids are handed to
    best, _ = _pareto_walk(*_term_tables(*args), np.array(WALK_WEIGHTS), scen.grid.bin_width, math.inf)
    assert [b[0] for b in best] == ref_values
    assert all(np.array_equal(b[2], r) for b, r in zip(best, ref_rates))


def reference_pareto_bounds(t1, t2, w, df):
    """Reference: the DP tables with one gathered (max, +) step per user-1 level, reduced over b last."""
    count, (bins, n, _) = len(w), t1.shape
    e = np.frexp(w.max(axis=1))[1]
    scaled = np.ldexp(w, -e[:, None])
    c = scaled[:, 0, None, None, None] * t1 + scaled[:, 1, None, None, None] * t2
    tails = np.full((bins - 1, count, 2 * n - 1, 2 * n - 1), -np.inf)
    if bins > 1:
        v = np.maximum.accumulate(np.maximum.accumulate(c[:, -1], axis=1), axis=2)
        level = np.arange(n)
        shift = np.where(level[:, None] >= level, level[:, None] - level, n)  # [v, b] -> v - b, or n
        for k in range(bins - 1, 0, -1):
            if k < bins - 1:
                ext = np.concatenate([v, np.full((count, n, 1), -np.inf)], axis=2)
                v = np.full_like(v, -np.inf)
                for a in range(n):
                    np.maximum(v[:, a:], (c[:, k, a, None, None] + ext[:, :n - a, shift]).max(axis=3), out=v[:, a:])
            tails[k - 1, :, :n, :n] = v[:, ::-1, ::-1]
        best_of_row = (c[:, 0] + v[:, ::-1, ::-1]).max(axis=2)
    else:
        best_of_row = c[:, 0].max(axis=2)
    opt = best_of_row.max(axis=1)
    tiny = math.ulp(0.0)
    slack = 5 * (bins + 2) * 2.0**-53 * opt + 3 * (bins * 1025 * tiny + (tiny + np.ldexp(tiny, -e)) / df)
    return c, tails.reshape(bins - 1, count * (2 * n - 1) ** 2), best_of_row, opt - slack


@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5])
def test_pareto_bounds_match_the_per_level_loop(bins):
    # every table bit for bit, with the -inf entries past either budget;
    # the weights include the subnormal rows
    w = np.array(WALK_WEIGHTS)
    for levels in range(2, 9):
        scen = grid_scenario(bins, 3100 + levels)
        tables = _term_tables(scen.channels, scen.noise, scen.budgets, scen.grid, levels)
        got = power_games._pareto_bounds(*tables, w, scen.grid.bin_width)
        expected = reference_pareto_bounds(*tables, w, scen.grid.bin_width)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, expected))
        assert bins == 1 or np.isneginf(got[1]).any() and np.isfinite(got[1]).any()
        # each row depends on its weight row alone: rows a joint-grid context
        # holds and rows it builds stack into the same tables
        joint = power_games._JointGrid(None, tables)
        for part in (w[::3], w[1::2], w):
            power_games._pareto_bounds(*tables, part, scen.grid.bin_width, joint)
            got = power_games._pareto_bounds(*tables, w, scen.grid.bin_width, joint)
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, expected))


def zero_gain_scenario(bins, user2_gain=0.0):
    # no direct gain for user 1, so every pair of splits prices its rate at
    # 0, and user 2's too unless it is given a gain
    gain2 = np.zeros((2, 2, bins))
    gain2[0, 1] = gain2[1, 0] = 0.5
    gain2[1, 1] = user2_gain
    return sg.PowerScenario(
        grid=sg.FrequencyGrid(bins, float(bins)),
        channels=sg.ChannelSet(gain2),
        noise=sg.NoiseProfile.flat(1.0, 2, bins),
        budgets=sg.PowerBudget(np.array([4.0, 6.0])),
    )


def scan_calls(monkeypatch):
    scans = []
    scan = power_games._joint_grid_rates
    monkeypatch.setattr(power_games, "_joint_grid_rates", lambda *a: scans.append(a) or scan(*a))
    return scans


def test_pareto_walk_streams_a_grid_where_every_pair_ties(monkeypatch):
    scen = zero_gain_scenario(2)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, 4)
    silent = (0.0, (0, 0, 0, 0), [0.0, 0.0])
    # one prefix per block: all 25 one-bin prefixes and 225 pairs of each
    # weight survive, and the first pair among the ties is the silent one
    monkeypatch.setattr(power_games, "BLOCK_SIZE", 1)
    best, kept = _pareto_walk(*_term_tables(*args), np.array(ORACLE_WEIGHTS), scen.grid.bin_width, math.inf)
    assert kept == len(ORACLE_WEIGHTS) * (25 + 225)
    assert all(b[:2] == silent[:2] and np.array_equal(b[2], silent[2]) for b in best)
    assert _pareto_argmax(*args, ORACLE_WEIGHTS)[0] == [0.0] * len(ORACLE_WEIGHTS)
    monkeypatch.undo()
    # where the walk keeps too much of the grid, one scan prices the weights:
    # only user 2 has a direct gain, so the weight (1, 0) ties every pair
    scans = scan_calls(monkeypatch)
    scen = zero_gain_scenario(4, user2_gain=1.0)
    values, rates = _pareto_argmax(scen.channels, scen.noise, scen.budgets, scen.grid, 10, ORACLE_WEIGHTS)
    ref_values, ref_rates = reference_pareto_argmax(scen, 10, ORACLE_WEIGHTS)
    assert len(scans) == 1 and values == ref_values and values[1] == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))
    # with gains, the walk alone answers
    scen = grid_scenario(4, 4646)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, 10)
    values, rates = _pareto_argmax(*args, ORACLE_WEIGHTS)
    ref_values, ref_rates = reference_pareto_argmax(scen, 10, ORACLE_WEIGHTS)
    assert values == ref_values and all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))
    assert len(scans) == 1


def assert_margin_walk_matches_row_loop(scen, levels, rows):
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, levels)
    above = [max(r[user].max() for r in rows) + 1.0 for user in range(2)]
    for target in ([0.0, 0.0], sg.iterative_water_filling(*args[:4]).rates, above):
        expected = reference_dominance_margin(np.asarray(target), scen, levels, rows)
        assert sg.grid_dominance_margin(target, *args) == expected
        # the walk alone, also where the scan answers the public call
        best, _ = _margin_walk(*_term_tables(*args), np.asarray(target, dtype=float), scen.grid.bin_width, math.inf)
        assert best == expected
    assert expected < 0.0


def walk_cases():
    # K = 1..4 and levels 2..10 drawn per seed, then the mirror and flat
    # scenarios at levels 2..10, each with its reference grid
    cases = [seeded_oracle_draw(draw) for draw in range(200)]
    cases += [(scen(), levels) for levels in range(2, 11) for scen in (mirror_scenario, flat_symmetric_scenario)]
    for scen, levels in cases:
        yield scen, levels, list(reference_joint_grid_rates(scen, levels))


@pytest.mark.slow
def test_pareto_walk_matches_row_loop_on_seeded_draws():
    # the weights add a doubled corner, subnormal weights that tie most
    # pairs, and a 1e600 ratio
    for scen, levels, rows in walk_cases():
        assert_walk_matches_row_loop(scen, levels, rows)


@pytest.mark.slow
def test_margin_walk_matches_row_loop_on_seeded_draws():
    # targets at no rate, at the Nash rates and above every pair of the grid
    for scen, levels, rows in walk_cases():
        assert_margin_walk_matches_row_loop(scen, levels, rows)


# Each walk's kept prefixes and leaves, (Pareto walk over WALK_WEIGHTS,
# margin walk at the Nash rates), on seeded draws 0..19 and then the mirror
# and flat scenarios at 10 levels.  A change to the bounds, the floors, the
# child order or the leaf rule moves them even where the answers hold.
WALK_KEPT = [
    (61, 81), (209, 151), (107, 463), (83, 100), (71, 81), (14, 49), (31, 36), (17, 100), (28, 45), (23, 36),
    (31419, 313), (13281, 280), (24246, 238), (700, 305), (36, 36), (45, 49), (2010, 369), (2190, 599),
    (722, 232), (780, 1638), (1923, 1386), (3621, 964),
]


def test_walks_keep_the_pinned_prefixes():
    cases = [seeded_oracle_draw(draw) for draw in range(20)] + [(mirror_scenario(), 10), (flat_symmetric_scenario(), 10)]
    for (scen, levels), expected in zip(cases, WALK_KEPT, strict=True):
        args = (scen.channels, scen.noise, scen.budgets, scen.grid, levels)
        tables, df = _term_tables(*args), scen.grid.bin_width
        walks = [(_pareto_walk, np.array(WALK_WEIGHTS)), (_margin_walk, sg.iterative_water_filling(*args[:4]).rates)]
        assert tuple(walk(*tables, x, df, math.inf)[1] for walk, x in walks) == expected
        # a budget of exactly the kept count suffices; one fewer gives up
        for (walk, x), kept in zip(walks, expected):
            assert walk(*tables, x, df, kept)[0] is not None and walk(*tables, x, df, kept - 1)[0] is None


def test_margin_walk_prunes_with_each_users_bound(monkeypatch):
    # a target near one user's best rate leaves few prefixes that each
    # user's own bound keeps, and many that the sum bound alone would keep
    scen = grid_scenario(4, 4646)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, 10)
    rows = list(reference_joint_grid_rates(scen, 10))
    corners, _ = _pareto_argmax(*args, [[1.0, 0.0], [0.0, 1.0]])
    scans = scan_calls(monkeypatch)
    for target in ([0.9 * corners[0], 0.0], [0.0, 0.9 * corners[1]], sg.iterative_water_filling(*args[:4]).rates):
        assert sg.grid_dominance_margin(target, *args) == reference_dominance_margin(np.asarray(target), scen, 10, rows)
    assert not scans


def test_margin_walk_on_ties(monkeypatch):
    # mirrored pairs reach the best margin together; one (prefix, level)
    # row per step, and the walk answers without the scan
    scans = scan_calls(monkeypatch)
    monkeypatch.setattr(power_games, "BLOCK_SIZE", 1)
    scen = mirror_scenario()
    for levels in (4, 10):
        rows = list(reference_joint_grid_rates(scen, levels))
        total = np.vstack([r1 + r2 for r1, r2 in rows])
        i = np.unravel_index(np.argmax(total), total.shape)
        target = np.full(2, min(rows[i[0]][0][i[1]], rows[i[0]][1][i[1]]))
        margins = np.vstack([np.minimum(r1 - target[0], r2 - target[1]) for r1, r2 in rows])
        assert np.count_nonzero(margins == margins.max()) == 2
        assert sg.grid_dominance_margin(target, scen.channels, scen.noise, scen.budgets, scen.grid,
                                        levels=levels) == reference_dominance_margin(target, scen, levels, rows)
    assert not scans
    # with no direct gain every pair ties at margin 0, so every prefix and
    # every leaf reaches the incumbent: 25 one-bin prefixes, 225 pairs
    scen = zero_gain_scenario(2)
    tables = _term_tables(scen.channels, scen.noise, scen.budgets, scen.grid, 4)
    assert _margin_walk(*tables, np.zeros(2), scen.grid.bin_width, math.inf) == (0.0, 25 + 225)
    monkeypatch.undo()
    # where the walk keeps too much of the grid, one scan answers: only user
    # 2 has a direct gain and its target is far below, so every pair ties
    scans = scan_calls(monkeypatch)
    scen = zero_gain_scenario(4, user2_gain=1.0)
    assert sg.grid_dominance_margin([0.5, -1e3], scen.channels, scen.noise, scen.budgets, scen.grid) == -0.5
    assert len(scans) == 1


def test_zero_gain_grids_go_straight_to_the_scan(monkeypatch):
    # every term is 0, so every pair ties at rate 0 and neither walk runs
    def no_walk(*args):
        raise AssertionError("walked a grid whose terms are all zero")

    monkeypatch.setattr(power_games, "_pareto_walk", no_walk)
    monkeypatch.setattr(power_games, "_margin_walk", no_walk)
    scans = scan_calls(monkeypatch)
    scen = zero_gain_scenario(4)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, 10)
    rows = list(reference_joint_grid_rates(scen, 10))
    values, rates = _pareto_argmax(*args, WALK_WEIGHTS)
    assert len(scans) == 1
    ref_values, ref_rates = reference_pareto_argmax(scen, 10, WALK_WEIGHTS)
    assert values == ref_values and all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))
    target = np.array([0.5, -0.25])
    assert sg.grid_dominance_margin(target, *args) == reference_dominance_margin(target, scen, 10, rows) == -0.5
    assert len(scans) == 2


def test_margin_walk_slack_covers_the_order_of_summation(monkeypatch):
    # hand-made terms: user 1's depend on its own level only, user 2's are 0
    # and its target is far below, so the margin is user 1's rate.  The pair
    # (1, 0, 0) is best, one ulp above the best pair silent in bin 0; its
    # bound at bin 0 adds bins 1 and 2 first, which rounds two ulps lower.
    # Bin 0's levels go one row at a time, so the silent ones come first.
    u = 2.0**-53
    x = np.array([[3 * u, 5 * u], [1.0 + 2 * u, 1.0], [0.5 + 3 * u, 0.5 + 6 * u]])
    t1 = np.repeat(x[:, :, None], 2, axis=2)
    rates = [sum(x[k, a] for k, a in enumerate(split)) for split in _budget_splits(1, 3).tolist()]
    assert rates[-1] == max(rates) > max(rates[:-1]) > x[0, 1] + (x[1, 0] + x[2, 0])
    monkeypatch.setattr(power_games, "BLOCK_SIZE", 1)
    assert _margin_walk(t1, np.zeros_like(t1), np.array([0.0, -1e3]), 1.0, math.inf)[0] == max(rates)


# a few shared values, so that ties and gaps of one ulp are common
ULP = 2.0**-53
TIE_TERMS = [0.0, 3 * ULP, 5 * ULP, 0.25, 0.5, 0.5 + 3 * ULP, 0.5 + 6 * ULP, 1.0, 1.0 + 2 * ULP, 3.0]


def brute_force_pairs(t1, t2, df):
    """Every pair's rates in the scan's arithmetic, (user-1 split, user-2 split) lexicographic."""
    bins, n, _ = t1.shape
    splits = np.array(list(reference_budget_splits(n - 1, bins)))
    r1, r2 = (t[0][np.ix_(splits[:, 0], splits[:, 0])] for t in (t1, t2))
    for k in range(1, bins):
        r1 += t1[k][np.ix_(splits[:, k], splits[:, k])]
        r2 += t2[k][np.ix_(splits[:, k], splits[:, k])]
    return splits, r1 * df, r2 * df


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_walks_match_a_brute_force_scan_on_tied_tables(data):
    bins, levels = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    shape = (bins, levels + 1, levels + 1)
    t1, t2 = (np.array(data.draw(st.lists(st.sampled_from(TIE_TERMS), min_size=math.prod(shape),
                                          max_size=math.prod(shape)))).reshape(shape) for _ in range(2))
    df = data.draw(st.sampled_from([1.0, 0.1, 0.75, 3.0]))
    splits, r1, r2 = brute_force_pairs(t1, t2, df)
    best, _ = _pareto_walk(t1, t2, np.array(WALK_WEIGHTS), df, math.inf)
    for (value, pair, rates), (w1, w2) in zip(best, WALK_WEIGHTS):
        objective = w1 * r1 + w2 * r2
        i, j = np.unravel_index(np.argmax(objective), objective.shape)
        assert value == objective[i, j]
        assert pair == (*splits[i].tolist(), *splits[j].tolist())
        assert np.array_equal(rates, [r1[i, j], r2[i, j]])
    target = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0 + 2 * ULP, 2.5, 7.0]),
                                         min_size=2, max_size=2)))
    assert _margin_walk(t1, t2, target, df, math.inf)[0] == np.minimum(r1 - target[0], r2 - target[1]).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_terms_are_an_arithmetic_error():
    # budgets of 1e308 overflow p * g; the margin used to skip the NaN terms
    grid = sg.FrequencyGrid(2, 2.0)
    ch = sg.generate_multipath_channels(np.random.SeedSequence(3), grid, 2)
    args = (ch, sg.NoiseProfile.flat(1.0, 2, 2), sg.PowerBudget(np.array([1e308, 1e308])), grid)
    with pytest.raises(ArithmeticError, match="^oracle rate terms are not finite$"):
        sg.grid_dominance_margin([1.0, 1.0], *args, levels=4)
    with pytest.raises(ArithmeticError, match="^oracle rate terms are not finite$"):
        sg.pareto_sweep([[1.0, 1.0]], *args, levels=4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [None, 1])
def test_overflowing_margin_is_an_arithmetic_error(monkeypatch, block):
    # df = 1e307: rates near 4e307 overflow against targets of -1.7e308,
    # in the scan and (one row per block) in the walk
    if block is not None:
        monkeypatch.setattr(power_games, "BLOCK_SIZE", block)
    grid = sg.FrequencyGrid(2, 2e307)
    ch = sg.generate_multipath_channels(np.random.SeedSequence(3), grid, 2)
    args = (ch, sg.NoiseProfile.flat(1.0, 2, 2), sg.PowerBudget(np.array([1e308, 1e308])), grid)
    assert sg.grid_dominance_margin([0.0, 0.0], *args, levels=4) > 1e307
    with pytest.raises(ArithmeticError, match="^dominance margin is not finite$"):
        sg.grid_dominance_margin([-1.7e308, -1.7e308], *args, levels=4)


def overflowing_step_args():
    # df = 8.5e307: levels * df overflows, so budget / (levels * df) is 0
    gain2 = np.empty((2, 2, 2))
    gain2[0, 0] = gain2[1, 1] = 3.0
    gain2[0, 1] = gain2[1, 0] = 1.0
    grid = sg.FrequencyGrid(2, 1.7e308)
    return sg.ChannelSet(gain2), sg.NoiseProfile.flat(1.0, 2, 2), sg.PowerBudget(np.array([1.7e308, 1e300])), grid


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_power_step_is_an_arithmetic_error():
    # these used to return rates [0, 0], a margin of 0.0 and an inf leader rate
    args = overflowing_step_args()
    step = re.escape("power step 1.7e+308 / (10 * 8.5e+307) is not positive and finite")
    with pytest.raises(ArithmeticError, match=f"^{step}$"):
        sg.pareto_sweep([[1.0, 0.0]], *args, levels=10)
    with pytest.raises(ArithmeticError, match=f"^{step}$"):
        sg.grid_dominance_margin([0.0, 0.0], *args, levels=10)
    with pytest.raises(ArithmeticError, match=f"^{step}$"):
        sg.stackelberg_leader_search(0, *args, levels=10)
    with pytest.raises(ArithmeticError, match=r"^power step 1e\+300 / \(10 \* 8\.5e\+307\) is not positive"):
        sg.stackelberg_leader_search(1, *args, levels=10)
    assert power_games._level_step(1e300, 10, 1.0) == 1e299
    with pytest.raises(ArithmeticError, match="^power step 1e\\+300 / \\(10 \\* 5e-324\\) is not"):
        power_games._level_step(1e300, 10, 5e-324)  # the step itself overflows to inf


def test_overflowing_weighted_sum_is_an_arithmetic_error():
    scen = load_scenario(SCENARIOS / "fig6.json").power_scenario()
    args = (scen.channels, scen.noise, scen.budgets, scen.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"^weighted rate sum for weights \(1e\+308, 1e\+308\) is not finite$"):
            sg.pareto_sweep([[1.0, 1.0], [1e308, 1e308]], *args)
        # the same direction at a finite scale
        assert sg.pareto_sweep([[1.0, 1.0]], *args)[0].rates == pytest.approx([3.459, 3.459], abs=1e-3)


def test_large_weights_match_the_row_loop():
    # df = 0.1: 1e308 times a one-bin term overflows where 1e308 times a rate
    # does not, so the bounds use the weights scaled by a power of two
    grid = sg.FrequencyGrid(2, 0.2)
    scen = sg.PowerScenario(grid=grid, channels=ensemble_channels(5, 0, grid),
                            noise=sg.NoiseProfile.flat(1.0, 2, 2), budgets=sg.PowerBudget(np.array([1.0, 1.0])))
    args = (scen.channels, scen.noise, scen.budgets, scen.grid, 6)
    assert max(t.max() for t in _term_tables(*args)) > 2.0
    weights = [[1e308, 0.0], [1e308, 1e307], [0.0, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, rates = _pareto_argmax(*args, weights)
        ref_values, ref_rates = reference_pareto_argmax(scen, 6, weights)
    assert values == ref_values and all(map(math.isfinite, values))
    assert all(np.array_equal(a, b) for a, b in zip(rates, ref_rates))


def held_entries(joint):
    """Entries a joint-grid context holds: its term tables, its DP group and 2 per rate pair."""
    return sum(a.size for a in (*joint.terms, *joint.group)) + 2 * len(joint.pairs)


def held_tables(joint):
    return [*joint.terms, *joint.group]


def one_bin_fig6(tmp_path, levels):
    doc = json.loads((SCENARIOS / "fig6.json").read_text())
    doc["grid"] = {"bins": 1, "band": 1.0}
    doc["channels"]["gains"] = [[gains[:1] for gains in user] for user in doc["channels"]["gains"]]
    doc["sweeps"]["levels"] = levels
    path = tmp_path / f"fig6_1bin_{levels}.json"
    path.write_text(json.dumps(doc))
    return path


def test_joint_grid_context_holds_nothing_over_the_group_budget(tmp_path):
    # one bin at 1,999 levels: 8M term entries, 4M per DP row, none held; at
    # 299 levels the term tables fit (180,000 entries) and no DP group does
    for levels, held in ((1999, False), (299, True)):
        path = one_bin_fig6(tmp_path, levels)
        for command in ("pareto", "region"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
            joint = power_games._joint
            assert (joint is not None) == held
    assert not joint.group and joint.pairs
    assert held_entries(joint) <= power_games.GROUP_ENTRIES
    # the frontier grid holds the sweep's group and pairs, within the budget
    scen = frontier_scenario(0)
    sg.pareto_sweep(FRONTIER_WEIGHTS, scen.channels, scen.noise, scen.budgets, scen.grid)
    joint = power_games._joint
    assert len(joint.group[0]) == len(FRONTIER_WEIGHTS) and len(joint.pairs) == len(FRONTIER_WEIGHTS)
    assert held_entries(joint) <= power_games.GROUP_ENTRIES


def test_joint_grid_tables_are_built_once_and_read_only(monkeypatch):
    scen = frontier_scenario(3)
    args = (scen.channels, scen.noise, scen.budgets, scen.grid)
    values = sg.pareto_sweep(FRONTIER_WEIGHTS, *args)
    joint = power_games._joint
    assert power_games._joint_grid(*args, 10) is joint
    tables = held_tables(joint)
    assert len(tables) == 2 + 4 and not any(t.flags.writeable for t in tables)
    with pytest.raises(ValueError, match="read-only"):
        joint.terms[0][0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        joint.group[2][...] = 0.0
    # the margin's rows (1, 0), (0, 1) and (1, 1) are rows of the sweep's
    # scaled group, so neither its terms nor its DP are built again
    def no_work(*args, **kwargs):
        raise AssertionError("the margin built tables the context holds")

    monkeypatch.setattr(power_games, "_term_tables", no_work)
    monkeypatch.setattr(power_games, "_bound_tables", no_work)
    target = values[2].rates * 0.9
    assert sg.grid_dominance_margin(target, *args) == reference_dominance_margin(target, scen, 10)
    again = sg.pareto_sweep(FRONTIER_WEIGHTS[::-1], *args)
    assert all(np.array_equal(a.rates, b.rates) for a, b in zip(again[::-1], values))
    monkeypatch.undo()
    # another grid replaces the context; asking again builds equal tables anew
    sg.pareto_sweep([[1.0, 1.0]], *args, levels=6)
    again = power_games._joint_grid(*args, 10)
    assert again is not joint and all(np.array_equal(a, b) for a, b in zip(again.terms, joint.terms))


def joint_grid_cases():
    # draws 1, 2 and 1 again, then draw 0 as it is, alternating with its
    # ChannelSet under other budgets, another noise table and other levels
    base = frontier_scenario(0)
    parts = {"grid": base.grid, "channels": base.channels, "noise": base.noise, "budgets": base.budgets}
    budgets = sg.PowerScenario(**{**parts, "budgets": sg.PowerBudget(np.array([150.0, 50.0]))})
    noise = sg.PowerScenario(**{**parts, "noise": sg.NoiseProfile(np.random.default_rng(5).uniform(0.5, 2.0, (2, 4)))})
    cases = [(frontier_scenario(i), 10) for i in (1, 2, 1)]
    return cases + [(base, 10), (budgets, 10), (base, 10), (noise, 10), (base, 10), (base, 6), (base, 8), (base, 10)]


def result_bytes(result):
    if isinstance(result, float):
        return np.float64(result).tobytes()
    return [(r.method, r.params, r.rates.tobytes()) for r in result]


def test_joint_grid_context_answers_only_for_its_own_grid():
    # the three entry points interleaved, in a different order per case;
    # margins against the row loop, Pareto points and tables against calls
    # made with no context held
    def cleared(call, *args, **kwargs):
        power_games._joint = None
        return call(*args, **kwargs)

    for i, (scen, levels) in enumerate(joint_grid_cases()):
        args = (scen.channels, scen.noise, scen.budgets, scen.grid)
        target = sg.iterative_water_filling(*args).rates
        calls = [
            ("pareto", lambda: sg.pareto_sweep(FRONTIER_WEIGHTS, *args, levels=levels)),
            ("margin", lambda: sg.grid_dominance_margin(target, *args, levels=levels)),
            ("region", lambda: sg.region_comparison(scen, FRONTIER_PAIRS, FRONTIER_WEIGHTS, levels=levels)),
        ]
        got = {name: call() for name, call in calls[i % 3:] + calls[:i % 3]}
        assert got["margin"] == reference_dominance_margin(target, scen, levels)
        assert got["margin"] == cleared(sg.grid_dominance_margin, target, *args, levels=levels)
        for name in ("pareto", "region"):
            assert result_bytes(got[name]) == result_bytes(cleared(dict(calls)[name]))


JOINT_SEQUENCE_DRAWS = [frontier_scenario(i) for i in (4, 5)]
JOINT_SEQUENCE_TARGETS = [sg.iterative_water_filling(s.channels, s.noise, s.budgets, s.grid).rates
                          for s in JOINT_SEQUENCE_DRAWS]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_joint_grid_context_keeps_every_call_sequence_exact(data):
    # sweeps of any weights in any order, margins and region tables on two
    # grids, margins before sweeps included: each result equals, by bytes,
    # the same call made with no context held, and the context stays within
    # its budget and read-only after every call.  Besides the default
    # budget: 6,430 entries hold the terms (968) and the margin's 3-row
    # group (5,460) with at most one pair, but no 5-row group; 975 hold the
    # terms and at most 3 pairs
    power_games._joint = None
    entries = data.draw(st.sampled_from([power_games.GROUP_ENTRIES, 6_430, 975]))
    with mock.patch.object(power_games, "GROUP_ENTRIES", entries):
        for _ in range(data.draw(st.integers(1, 6))):
            draw = data.draw(st.integers(0, 1))
            scen, target = JOINT_SEQUENCE_DRAWS[draw], JOINT_SEQUENCE_TARGETS[draw]
            args = (scen.channels, scen.noise, scen.budgets, scen.grid)
            kind = data.draw(st.sampled_from(["pareto", "margin", "region"]))
            if kind == "pareto":
                weights = data.draw(st.lists(st.sampled_from(FRONTIER_WEIGHTS), unique=True))
                call = partial(sg.pareto_sweep, weights, *args)
            elif kind == "margin":
                shifted = target * data.draw(st.sampled_from([0.5, 1.0, 1.5]))
                call = partial(sg.grid_dominance_margin, shifted, *args)
            else:
                call = partial(sg.region_comparison, scen, FRONTIER_PAIRS, FRONTIER_WEIGHTS)
            got = call()
            joint = power_games._joint
            # no weights leave the context untouched, none if it is the first call
            if joint is not None:
                assert held_entries(joint) <= entries
                assert not any(t.flags.writeable for t in held_tables(joint))
            power_games._joint = None
            assert result_bytes(got) == result_bytes(call())
            power_games._joint = joint


ZERO_CROSS = "zero cross gains"


def seeded_walk_scenario(kind, draw):
    if kind == "mirror":
        return mirror_scenario()
    if kind == "flat":
        return flat_symmetric_scenario()
    scen, _ = seeded_oracle_draw(draw)
    if kind == ZERO_CROSS:
        gain2 = scen.channels.gain2.copy()
        gain2[0, 1] = gain2[1, 0] = 0.0
        scen = sg.PowerScenario(grid=scen.grid, channels=sg.ChannelSet(gain2), noise=scen.noise, budgets=scen.budgets)
    return scen


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_seeded_margin_walk_finds_the_unseeded_margin(data):
    # seeds at the exact margin (a tie at the incumbent), at the margin of
    # a grid pair drawn at random and far below it all give the scan's margin
    kind = data.draw(st.sampled_from(["draw", "mirror", "flat", ZERO_CROSS]))
    scen = seeded_walk_scenario(kind, data.draw(st.integers(0, 199)))
    levels, df = data.draw(st.integers(1, 6)), scen.grid.bin_width
    t1, t2 = _term_tables(scen.channels, scen.noise, scen.budgets, scen.grid, levels)
    _, r1, r2 = brute_force_pairs(t1, t2, df)
    corner = [r1.max(), r2.max()]
    target = np.array([data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.1])) * x for x in corner])
    margins = np.minimum(r1 - target[0], r2 - target[1])
    exact, kept = _margin_walk(t1, t2, target, df, math.inf)
    assert exact == margins.max()
    pair = margins.flat[data.draw(st.integers(0, margins.size - 1))]
    for seed in (exact, pair, exact - 1e6, -math.inf):
        best, seeded = _margin_walk(t1, t2, target, df, math.inf, seed)
        assert best == exact
        assert seed != -math.inf or seeded == kept


# The margin walk's kept prefixes and leaves on the `frontier_digest` draws,
# (seeded by the region table's Pareto pairs, unseeded); on draws 1, 4, 5
# and 6 a Pareto pair reaches the margin, so the walk starts at its answer.
FRONTIER_MARGIN_KEPT = [(63, 515), (28, 408), (1877, 2174), (398, 668), (132, 646), (45, 372), (8, 490), (306, 690)]


def test_frontier_margins_are_seeded_by_the_region_tables_pareto_pairs(monkeypatch):
    seen = []
    walk = power_games._margin_walk
    monkeypatch.setattr(power_games, "_margin_walk", lambda *a: seen.append((a[5], walk(*a))) or seen[-1][1])
    for index, expected in enumerate(FRONTIER_MARGIN_KEPT):
        scen = frontier_scenario(index)
        args = (scen.channels, scen.noise, scen.budgets, scen.grid)
        table = sg.region_comparison(scen, FRONTIER_PAIRS, FRONTIER_WEIGHTS, leader=0, levels=10)
        margin = sg.grid_dominance_margin(table[0].rates, *args, levels=10)
        seed, (best, kept) = seen[-1]
        pareto = [s.rates for s in table if s.method == "pareto"]
        assert seed == max(min(r[0] - table[0].rates[0], r[1] - table[0].rates[1]) for r in pareto)
        assert best == margin and seed <= margin
        unseeded = walk(*_term_tables(*args, 10), table[0].rates, scen.grid.bin_width, math.inf)
        assert unseeded == (margin, expected[1]) and kept == expected[0]
