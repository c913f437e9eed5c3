import math
import warnings

import numpy as np
import pytest

import specgames as sg
from specgames.errors import NoUsableSpectrumError
from specgames.spectrum import _rates, _water_fill_rows, all_rates

from conftest import random_instance


def test_grid_invariants():
    grid = sg.FrequencyGrid(4, 2.0)
    assert grid.bin_width == 0.5
    assert abs(grid.bin_width * grid.bin_count - grid.total_band) <= 1e-12 * grid.total_band
    with pytest.raises(ValueError):
        sg.FrequencyGrid(0, 1.0)
    with pytest.raises(ValueError):
        sg.FrequencyGrid(4, -1.0)


def test_type_validation():
    with pytest.raises(ValueError):
        sg.ChannelSet(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        sg.ChannelSet(-np.ones((2, 2, 4)))
    with pytest.raises(ValueError):
        sg.NoiseProfile(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        sg.PowerBudget(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sg.PowerAllocation(-np.ones((1, 4)))


def test_arrays_are_frozen(two_channel):
    with pytest.raises(ValueError):
        two_channel.channels.gain2[0, 0, 0] = 5.0


def test_effective_noise_single_user():
    grid = sg.FrequencyGrid(3, 3.0)
    ch = sg.ChannelSet(np.ones((1, 1, 3)))
    noise = sg.NoiseProfile.flat(1.0, 1, 3)
    alloc = sg.PowerAllocation(np.ones((1, 3)))
    out = sg.effective_noise(0, alloc, ch, noise)
    assert np.array_equal(out, np.ones(3))
    assert grid.bin_count == 3


def test_effective_noise_two_channel(two_channel):
    # user 2's floor when user 1 concentrates 10 in bin 1
    alloc = sg.PowerAllocation(np.array([[10.0, 0.0], [0.0, 0.0]]))
    out = sg.effective_noise(1, alloc, two_channel.channels, two_channel.noise)
    assert out[0] == pytest.approx(1.0 + 0.8 * 10.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_effective_noise_zero_cross_gains():
    gain2 = np.zeros((2, 2, 2))
    gain2[0, 0] = gain2[1, 1] = 1.0
    ch = sg.ChannelSet(gain2)
    noise = sg.NoiseProfile(np.array([[1.0, 2.0], [3.0, 4.0]]))
    alloc = sg.PowerAllocation(np.full((2, 2), 5.0))
    assert np.array_equal(sg.effective_noise(0, alloc, ch, noise), noise.psd[0])
    assert np.array_equal(sg.effective_noise(1, alloc, ch, noise), noise.psd[1])


def test_effective_noise_dimension_mismatch(two_channel):
    bad = sg.PowerAllocation(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sg.effective_noise(0, bad, two_channel.channels, two_channel.noise)
    good = sg.PowerAllocation(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sg.effective_noise(5, good, two_channel.channels, two_channel.noise)


def test_rate_concentrate_spread(two_channel):
    alloc = sg.PowerAllocation(np.array([[10.0, 0.0], [5.0, 5.0]]))
    r1 = sg.achievable_rate(0, alloc, two_channel.channels, two_channel.noise, two_channel.grid)
    assert r1 == pytest.approx(math.log2(1.0 + 10.0 / (1.0 + 0.4 * 5.0)), abs=1e-12)
    assert r1 == pytest.approx(2.12, abs=0.005)
    r2 = sg.achievable_rate(1, alloc, two_channel.channels, two_channel.noise, two_channel.grid)
    assert r2 == pytest.approx(math.log2(1.0 + 5.0 / (1.0 + 0.8 * 10.0)) + math.log2(6.0), abs=1e-12)
    assert r2 == pytest.approx(3.22, abs=0.005)


def test_rate_concentrate_concentrate(two_channel):
    alloc = sg.PowerAllocation(np.array([[10.0, 0.0], [0.0, 10.0]]))
    for user in range(2):
        r = sg.achievable_rate(user, alloc, two_channel.channels, two_channel.noise, two_channel.grid)
        assert r == pytest.approx(math.log2(11.0), abs=1e-12)
        assert r == pytest.approx(3.46, abs=0.005)


def test_rate_zero_allocation(two_channel):
    alloc = sg.PowerAllocation(np.zeros((2, 2)))
    assert sg.achievable_rate(0, alloc, two_channel.channels, two_channel.noise, two_channel.grid) == 0.0


def test_rate_monotonicity(two_channel):
    rng = np.random.default_rng(11)
    psd = rng.uniform(0.5, 5.0, size=(2, 2))
    base = sg.achievable_rate(0, sg.PowerAllocation(psd), two_channel.channels,
                              two_channel.noise, two_channel.grid)
    for k in range(2):
        up = psd.copy()
        up[0, k] += 1e-6
        r = sg.achievable_rate(0, sg.PowerAllocation(up), two_channel.channels,
                               two_channel.noise, two_channel.grid)
        assert r >= base
        down = psd.copy()
        down[1, k] += 1e-6
        r = sg.achievable_rate(0, sg.PowerAllocation(down), two_channel.channels,
                               two_channel.noise, two_channel.grid)
        assert r <= base


def test_water_fill_symmetric():
    grid = sg.FrequencyGrid(2, 2.0)
    row = sg.water_fill([1.0, 1.0], [1.0, 1.0], 10.0, grid)
    assert row == pytest.approx([5.0, 5.0], abs=1e-9)


def test_water_fill_uneven_floors():
    # floors (9, 1); level solves 2*mu - 10 = 10 exactly
    grid = sg.FrequencyGrid(2, 2.0)
    row = sg.water_fill([1.0, 1.0], [9.0, 1.0], 10.0, grid)
    assert row == pytest.approx([1.0, 9.0], abs=1e-9)
    level = row + np.array([9.0, 1.0])
    assert level == pytest.approx([10.0, 10.0], abs=1e-9)


def test_water_fill_dead_bin():
    grid = sg.FrequencyGrid(2, 2.0)
    row = sg.water_fill([0.0, 1.0], [1.0, 1.0], 4.0, grid)
    assert row == pytest.approx([0.0, 4.0], abs=1e-12)


def test_water_fill_no_usable_spectrum():
    grid = sg.FrequencyGrid(2, 2.0)
    with pytest.raises(NoUsableSpectrumError):
        sg.water_fill([0.0, 0.0], [1.0, 1.0], 4.0, grid)


def test_water_fill_validation():
    grid = sg.FrequencyGrid(2, 2.0)
    with pytest.raises(ValueError):
        sg.water_fill([1.0, 1.0], [1.0, 0.0], 4.0, grid)
    with pytest.raises(ValueError):
        sg.water_fill([1.0, 1.0], [1.0, 1.0], 0.0, grid)
    with pytest.raises(ValueError):
        sg.water_fill([1.0], [1.0, 1.0], 4.0, grid)


@pytest.mark.parametrize("bins", [2, 8, 64])
def test_water_fill_budget_and_kkt(bins):
    grid = sg.FrequencyGrid(bins, float(bins))
    df = grid.bin_width
    for idx in range(30):
        rng = np.random.default_rng([1000, bins, idx])
        gain, noise, budget = random_instance(rng, bins)
        row = sg.water_fill(gain, noise, budget, grid)
        assert abs(row.sum() * df - budget) <= 1e-9 * budget
        usable = gain > 0
        floors = np.full(bins, np.inf)
        floors[usable] = noise[usable] / gain[usable]
        active = row > 1e-12
        if active.any():
            levels = row[active] + floors[active]
            mu = levels.mean()
            assert np.all(np.abs(levels - mu) <= 1e-6)
            assert np.all(floors[~active] >= mu - 1e-6)
        assert np.all(row[~usable] == 0.0)


def test_water_fill_beats_random_allocations():
    grid = sg.FrequencyGrid(8, 8.0)
    df = grid.bin_width
    for idx in range(20):
        rng = np.random.default_rng([2000, idx])
        gain, noise, budget = random_instance(rng, 8)
        row = sg.water_fill(gain, noise, budget, grid)
        best = (df * np.log2(1.0 + row * gain / noise)).sum()
        rivals = rng.dirichlet(np.ones(8), size=200) * (budget / df)
        values = (df * np.log2(1.0 + rivals * gain / noise)).sum(axis=1)
        assert best >= values.max() - 1e-9


def test_generator_flat_single_tap():
    grid = sg.FrequencyGrid(8, 8.0)
    ch = sg.generate_multipath_channels(3, grid, tap_count=1)
    for n in range(2):
        assert np.allclose(ch.gain2[n, n], 1.0, atol=1e-12)


def test_generator_tap_power_normalization():
    # total tap power equals the per-link normalization; by Parseval the
    # mean squared response across bins equals the total tap power
    grid = sg.FrequencyGrid(16, 16.0)
    for seed in (0, 1, 99):
        ch = sg.generate_multipath_channels(seed, grid, tap_count=4)
        for i in range(2):
            for j in range(2):
                target = 1.0 if i == j else 0.5
                assert ch.gain2[i, j].mean() == pytest.approx(target, abs=1e-12)


def test_generator_determinism():
    grid = sg.FrequencyGrid(8, 8.0)
    a = sg.generate_multipath_channels(7, grid, tap_count=4)
    b = sg.generate_multipath_channels(7, grid, tap_count=4)
    assert np.array_equal(a.gain2, b.gain2)
    c = sg.generate_multipath_channels(8, grid, tap_count=4)
    assert not np.array_equal(a.gain2, c.gain2)


def test_generator_zero_cross_power():
    grid = sg.FrequencyGrid(4, 4.0)
    ch = sg.generate_multipath_channels(5, grid, tap_count=3, cross_power=0.0)
    assert np.all(ch.gain2[0, 1] == 0.0)
    assert np.all(ch.gain2[1, 0] == 0.0)


def test_generator_more_taps_than_bins():
    grid = sg.FrequencyGrid(2, 2.0)
    ch = sg.generate_multipath_channels(5, grid, tap_count=6)
    assert ch.gain2.shape == (2, 2, 2)
    assert np.all(np.isfinite(ch.gain2))


def test_budget_check(two_channel):
    ok = sg.PowerAllocation(np.array([[5.0, 5.0], [0.0, 10.0]]))
    ok.check_budget(two_channel.grid, two_channel.budgets)
    over = sg.PowerAllocation(np.array([[5.0, 5.1], [0.0, 10.0]]))
    with pytest.raises(ValueError):
        over.check_budget(two_channel.grid, two_channel.budgets)


def test_all_rates_matches_per_user(two_channel):
    alloc = sg.PowerAllocation(np.array([[4.0, 6.0], [2.0, 8.0]]))
    vec = all_rates(alloc, two_channel)
    for n in range(2):
        assert vec[n] == sg.achievable_rate(n, alloc, two_channel.channels,
                                            two_channel.noise, two_channel.grid)


def bisection_water_fill(gain, noise_psd, budget, grid):
    """Reference: water level by bisection, then repaired on the found support."""
    usable = gain > 0
    df = grid.bin_width
    floors = noise_psd[usable] / gain[usable]
    target = budget / df
    lo = floors.min()
    hi = lo + budget / (df * floors.size) + floors.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        spent = np.maximum(0.0, mid - floors).sum()
        if abs(spent - target) * df <= 1e-12:
            lo = hi = mid
            break
        if spent > target:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    wet = level > floors
    if not wet.any():
        wet = floors == floors.min()
    while True:
        level = (target + floors[wet].sum()) / wet.sum()
        flooded = wet & (floors > level)
        if not flooded.any():
            break
        wet &= ~flooded
    filled = np.zeros_like(floors)
    filled[wet] = level - floors[wet]
    row = np.zeros_like(gain)
    row[usable] = filled
    return row


def kernel_instance(rng, bins):
    """Random instance with dead bins and, often, runs of tied floors."""
    gain, noise, budget = random_instance(rng, bins)
    if bins > 1 and rng.random() < 0.5:
        tied = rng.random(bins) < 0.4
        gain[tied & (gain > 0)] = 1.0
        noise[tied] = noise[0]
    return gain, noise, budget


def test_water_fill_matches_bisection_reference():
    checked = identical = 0
    for bins in (1, 2, 3, 5, 8, 13, 64, 257, 1024):
        count = 60 if bins > 64 else 150
        for idx in range(count):
            rng = np.random.default_rng([4040, bins, idx])
            gain, noise, budget = kernel_instance(rng, bins)
            grid = sg.FrequencyGrid(bins, float(bins) * rng.choice([0.5, 1.0, 3.0]))
            row = sg.water_fill(gain, noise, budget, grid)
            ref = bisection_water_fill(gain, noise, budget, grid)
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max(), (bins, idx)
            checked += 1
            identical += np.array_equal(row, ref)
    assert checked >= 1000
    # same support and the same summation order give the same bits
    assert identical == checked


@pytest.mark.parametrize("bins", [1, 3, 8, 17, 64])
def test_water_fill_rows_equal_per_row_calls(bins):
    rng = np.random.default_rng([5050, bins])
    grid = sg.FrequencyGrid(bins, float(bins))
    gain, _, budget = kernel_instance(rng, bins)
    # floors spread over decades so the rows have different support sizes
    noise_rows = rng.uniform(0.5, 2.0, (40, bins)) * 10.0 ** rng.uniform(-1, 2, (40, bins))
    noise_rows[::7] = noise_rows[0]
    rows = _water_fill_rows(gain, noise_rows, budget, grid.bin_width)
    for b in range(len(noise_rows)):
        assert np.array_equal(rows[b], sg.water_fill(gain, noise_rows[b], budget, grid))


def test_water_fill_tiny_gain_is_unusable():
    grid = sg.FrequencyGrid(3, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = sg.water_fill([1e-320, 1.0, 0.0], [1.0, 1.0, 1.0], 6.0, grid)
        assert np.array_equal(row, [0.0, 6.0, 0.0])
        with pytest.raises(NoUsableSpectrumError):
            sg.water_fill([1e-320, 0.0, 5e-324], [1.0, 1.0, 1.0], 6.0, grid)
        with pytest.raises(NoUsableSpectrumError):
            _water_fill_rows(np.array([1e-300, 1.0]), np.array([[1.0, 1.0], [1e10, np.inf]]),
                             1.0, 1.0)


def test_rate_kernel_broadcasts_over_allocations():
    rng = np.random.default_rng(6060)
    for users in (1, 2, 3):
        grid = sg.FrequencyGrid(5, 5.0)
        scen = sg.PowerScenario(
            grid=grid,
            channels=sg.ChannelSet(rng.uniform(0.0, 2.0, (users, users, 5))),
            noise=sg.NoiseProfile(rng.uniform(0.5, 2.0, (users, 5))),
            budgets=sg.PowerBudget(np.full(users, 100.0)),
        )
        psd = rng.uniform(0.0, 4.0, (3, 7, users, 5))
        rates = _rates(psd, scen.channels.gain2, scen.noise.psd, grid.bin_width)
        assert rates.shape == (3, 7, users)
        for i in range(3):
            for j in range(7):
                alloc = sg.PowerAllocation(psd[i, j])
                assert np.array_equal(rates[i, j], all_rates(alloc, scen))
                for n in range(users):
                    assert rates[i, j, n] == sg.achievable_rate(
                        n, alloc, scen.channels, scen.noise, grid)
