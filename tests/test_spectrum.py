import math
import re
import warnings
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgames as sg
from specgames.errors import NoUsableSpectrumError
from specgames.spectrum import _rates, _water_fill_row, _water_fill_rows

from conftest import random_instance


def fill_row(gain, noise, budget, width):
    """The single-row kernel on the floors noise/gain, formed as `water_fill` forms them."""
    return _water_fill_row([s / g if g > 0.0 else inf for s, g in zip(noise, gain)], budget, width)


def test_grid_invariants():
    grid = sg.FrequencyGrid(4, 2.0)
    assert grid.bin_width == 0.5
    assert abs(grid.bin_width * grid.bin_count - grid.total_band) <= 1e-12 * grid.total_band
    with pytest.raises(ValueError):
        sg.FrequencyGrid(0, 1.0)
    with pytest.raises(ValueError):
        sg.FrequencyGrid(True, 1.0)
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


@pytest.mark.parametrize("user", [2, -1, True, 1.0])
def test_rate_functions_refuse_a_bad_user(two_channel, user):
    alloc = sg.PowerAllocation(np.zeros((2, 2)))
    args = (alloc, two_channel.channels, two_channel.noise)
    with pytest.raises(ValueError, match="^user must be"):
        sg.effective_noise(user, *args)
    with pytest.raises(ValueError, match="^user must be"):
        sg.achievable_rate(user, *args, two_channel.grid)


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


def test_water_fill_diagnostic_shows_plain_floats():
    # a numpy-scalar budget, as a scenario's budget vector hands it over;
    # bins 5e299 wide leave a budget of 10 nothing to spend
    grid = sg.FrequencyGrid(2, 1e300)
    with pytest.raises(ArithmeticError) as info:
        sg.water_fill([1.0, 1.0], [1.0, 1.0], np.float64(10.0), grid)
    assert str(info.value) == "water-filling failed: spent 0.0 of 10.0"


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


@pytest.mark.parametrize("options", [
    {"tap_count": 2.5}, {"tap_count": True}, {"tap_count": 0}, {"user_count": 1.5}, {"user_count": False},
])
def test_generator_refuses_non_integer_counts(options):
    name = next(iter(options))
    kwargs = {"tap_count": 3, **options}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sg.generate_multipath_channels(0, sg.FrequencyGrid(4, 4.0), **kwargs)


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


def loop_multipath_gains(seed, grid, tap_count, user_count, direct_power, cross_power):
    """gain2 drawn one link at a time, as `generate_multipath_channels` did before it drew in one batch."""
    rng = np.random.default_rng(seed)
    k = grid.bin_count
    gain2 = np.zeros((user_count, user_count, k))
    for i in range(user_count):
        for j in range(user_count):
            taps = (rng.standard_normal(tap_count) + 1j * rng.standard_normal(tap_count)) / np.sqrt(2.0)
            power = direct_power if i == j else cross_power
            if power == 0.0:
                continue
            taps *= np.sqrt(power / np.abs(taps).dot(np.abs(taps)))
            padded = np.zeros(k, dtype=complex)
            for delay, tap in enumerate(taps):
                padded[delay % k] += tap
            gain2[i, j] = np.abs(np.fft.fft(padded)) ** 2
    return gain2


POWERS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 3.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bins=st.integers(1, 16), taps=st.integers(1, 20),
       users=st.integers(1, 3), direct=POWERS, cross=POWERS)
def test_batched_channel_draw_matches_link_loop(seed, bins, taps, users, direct, cross):
    grid = sg.FrequencyGrid(bins, float(bins))
    ch = sg.generate_multipath_channels(seed, grid, taps, users, direct, cross)
    assert ch.gain2.tobytes() == loop_multipath_gains(seed, grid, taps, users, direct, cross).tobytes()


def test_batched_channel_draw_matches_link_loop_on_bench_draws():
    grid = sg.FrequencyGrid(8, 8.0)
    for seed in range(200):
        ch = sg.generate_multipath_channels(seed, grid, 4)
        assert ch.gain2.tobytes() == loop_multipath_gains(seed, grid, 4, 2, 1.0, 0.5).tobytes()


def per_link_multipath_gains(seed, grid, tap_count, user_count, direct_power, cross_power):
    """gain2 from the batch draw with each link normalized in place, one link at a time.

    This is how `generate_multipath_channels` scaled its taps before it took
    every magnitude at once and scaled all links with one multiply.
    """
    draws = np.random.default_rng(seed).standard_normal((user_count, user_count, 2, tap_count))
    taps = (draws[:, :, 0] + 1j * draws[:, :, 1]) / np.sqrt(2.0)
    for i, j in np.ndindex(user_count, user_count):
        power = direct_power if i == j else cross_power
        if power == 0.0:
            taps[i, j] = 0.0
        else:
            taps[i, j] *= np.sqrt(power / np.abs(taps[i, j]).dot(np.abs(taps[i, j])))
    k = grid.bin_count
    padded = np.zeros((user_count, user_count, k), dtype=complex)
    for start in range(0, tap_count, k):
        block = taps[..., start:start + k]
        padded[..., :block.shape[-1]] += block
    return sg.ChannelSet(np.abs(np.fft.fft(padded, axis=-1)) ** 2).gain2


@pytest.mark.parametrize("bins", [1, 3, 8])
@pytest.mark.parametrize("users", [1, 2, 3])
def test_channel_draw_matches_the_per_link_normalization(bins, users):
    # tap counts 1, 3, K and 2K + 3 (taps beyond the grid alias); zero direct
    # or zero cross power leaves those links silent
    grid = sg.FrequencyGrid(bins, float(bins))
    for seed in [0, 1, 7, 2**32 - 1, np.random.SeedSequence(entropy=7, spawn_key=(3,))]:
        for taps in sorted({1, 3, bins, 2 * bins + 3}):
            for direct, cross in [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (2.5, 0.0), (0.0, 0.25)]:
                ch = sg.generate_multipath_channels(seed, grid, taps, users, direct, cross)
                expect = per_link_multipath_gains(seed, grid, taps, users, direct, cross)
                assert ch.gain2.tobytes() == expect.tobytes()


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
    vec = _rates(alloc.psd, two_channel.channels.gain2, two_channel.noise.psd, two_channel.grid.bin_width)
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
        # the wet floors summed in sorted order, one after another
        level = (target + np.sort(floors[wet]).cumsum()[-1]) / wet.sum()
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


def assert_row_kernel_matches_batch(gain, noise, budget, width):
    """The single-row kernel equals row 0 of the batch kernel bit for bit, or raises as it does."""
    try:
        with np.errstate(invalid="ignore"):  # an infinite level minus infinite dry floors
            expect = _water_fill_rows(np.array(gain), np.array([noise]), budget, width)[0]
    except (NoUsableSpectrumError, ArithmeticError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as info:
            fill_row(gain, noise, budget, width)
        assert type(info.value) is type(exc)
        return type(exc)
    row = fill_row(gain, noise, budget, width)
    assert np.array(row).tobytes() == expect.tobytes(), (gain, noise, budget, width)
    return None


def test_single_row_kernel_matches_batch_kernel():
    # every support size from 1 to 300 bins, overflowing floors included
    for bins in range(1, 301):
        for idx in range(3):
            rng = np.random.default_rng([7070, bins, idx])
            gain, noise, budget = kernel_instance(rng, bins)
            noise *= 10.0 ** rng.uniform(-3.0, 3.0, bins)  # support sizes over the whole range
            gain[rng.random(bins) < 0.05] = rng.choice([1e-300, 1e-320, 5e-324])  # floors overflow
            width = float(rng.choice([0.25, 1.0, 3.0]))
            assert assert_row_kernel_matches_batch(gain.tolist(), noise.tolist(), budget, width) is None


def closed_form_fill(gain, noise, budget, width):
    """The level (target + s_1 + ... + s_c) / c over the sorted floors, summed in sorted order.

    c counts the floors at or below the highest floor of the support (the
    longest prefix with s_m < (target + s_1 + ... + s_m) / m, else the lowest
    floor), ties included.
    """
    target = budget / width
    with np.errstate(divide="ignore"):
        floors = noise / gain
    ordered = np.sort(floors)
    sums = np.cumsum(ordered)
    below = ordered < (target + sums) / np.arange(1, len(floors) + 1)
    support = len(floors) if below.all() else max(1, int(np.argmin(below)))
    wet = floors <= ordered[support - 1]
    count = int(wet.sum())
    level = (target + sums[count - 1]) / count
    return np.where(wet, np.maximum(level - floors, 0.0), 0.0)


@pytest.mark.parametrize("bins", [3, 8, 9, 64, 257])
def test_kernels_read_the_level_off_the_sorted_running_sum(bins):
    for idx in range(200):
        rng = np.random.default_rng([8080, bins, idx])
        gain, noise, budget = kernel_instance(rng, bins)
        noise *= 10.0 ** rng.uniform(-1.0, 1.0, bins)  # support sizes over the whole range
        if idx % 2:
            noise[rng.random(bins) < 0.3] = noise[int(rng.integers(bins))]  # tied runs
        width = float(rng.choice([0.5, 1.0, 3.0]))
        expect = closed_form_fill(gain, noise, budget, width).tobytes()
        assert np.array(fill_row(gain.tolist(), noise.tolist(), budget, width)).tobytes() == expect, idx
        assert _water_fill_rows(gain, noise[None], budget, width)[0].tobytes() == expect, idx
    # past about 128 tied floors (target + running) / m rounds onto the tie and
    # the support test fails, yet every floor tied with the line is wet
    gain, noise, budget = np.ones(bins), np.r_[0.5, np.ones(bins - 1)], 0.5 + 1e-14
    expect = closed_form_fill(gain, noise, budget, 1.0)
    assert np.array(fill_row(gain.tolist(), noise.tolist(), budget, 1.0)).tobytes() == expect.tobytes()
    assert _water_fill_rows(gain, noise[None], budget, 1.0)[0].tobytes() == expect.tobytes()


def test_single_row_kernel_ties_at_the_water_line():
    # runs of tied floors and a budget that puts the level on a floor, up to
    # rounding, which can leave a wet floor just above the level
    rng = np.random.default_rng(7171)
    for idx in range(400):
        bins = int(rng.integers(2, 20))
        noise = rng.uniform(0.5, 2.0, bins)
        noise[rng.random(bins) < 0.5] = noise.max()
        if idx % 2:
            noise = np.round(noise * 4.0)  # integer floors: the level is exact
        width = float(rng.choice([0.5, 1.0, 2.0]))
        line = noise.max() if idx % 4 == 0 else rng.choice(noise)
        budget = float(np.maximum(line - noise, 0.0).sum()) * width or width
        gain = np.where(rng.random(bins) < 0.1, 0.0, 1.0)
        gain[0] = 1.0
        assert assert_row_kernel_matches_batch(gain.tolist(), noise.tolist(), budget, width) is None


def test_single_row_kernel_raises_as_batch_kernel():
    cases = [
        ([0.0, 0.0], [1.0, 1.0], 4.0, 1.0, NoUsableSpectrumError),
        ([1e-320, 0.0, 5e-324], [1.0, 1.0, 1.0], 6.0, 1.0, NoUsableSpectrumError),
        # the budget is lost against floors 20 decades higher
        ([1.0, 1.0], [1e20, 3e20], 1.0, 1.0, ArithmeticError),
        # the level overflows and the spend is infinite
        ([1.0, 2.0, 0.0], [1.0, 1.0, 1.0], 1e308, 1e-10, ArithmeticError),
    ]
    for gain, noise, budget, width, kind in cases:
        assert assert_row_kernel_matches_batch(gain, noise, budget, width) is kind
    # budgets missed by about 1e-5 against floors 10 decades higher, over 8 to 300 bins
    rng = np.random.default_rng(7272)
    for idx in range(40):
        bins = int(rng.integers(8, 300))
        noise = 1e8 + rng.uniform(0.0, 1e-3, bins)
        budget = float(rng.uniform(0.01, 0.1))
        assert assert_row_kernel_matches_batch([1.0] * bins, noise.tolist(), budget, 1.0) is ArithmeticError


def test_negative_zero_gain_is_a_zero_gain():
    grid = sg.FrequencyGrid(2, 2.0)
    assert np.array_equal(sg.water_fill([-0.0, 1.0], [1.0, 1.0], 4.0, grid), [0.0, 4.0])
    gain2 = np.full((1, 1, 2), -0.0)
    gain2[0, 0, 1] = 1.0
    assert np.signbit(sg.ChannelSet(gain2).gain2).sum() == 0


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
                one = _rates(psd[i, j], scen.channels.gain2, scen.noise.psd, grid.bin_width)
                assert np.array_equal(rates[i, j], one)
                for n in range(users):
                    assert rates[i, j, n] == sg.achievable_rate(
                        n, alloc, scen.channels, scen.noise, grid)


def stacked_rates(psd, gain2, noise_psd, bin_width):
    """Reference: one rate array per user, each floor added onto a copy of the noise row, stacked."""
    def rate(user):
        floor = noise_psd[user].copy()
        for j in range(psd.shape[-2]):
            if j != user:
                floor = floor + psd[..., j, :] * gain2[j, user]
        return bin_width * np.log2(1.0 + psd[..., user, :] * gain2[user, user] / floor).sum(axis=-1)

    return np.stack([rate(n) for n in range(psd.shape[-2])], axis=-1)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(users=st.integers(1, 3), bins=st.integers(1, 9), lead=st.sampled_from([(), (4,), (3, 5)]),
       dead=st.sampled_from(["none", "direct", "cross", "both"]), seed=st.integers(0, 2**32 - 1))
def test_rate_kernel_equals_the_stacked_reference_by_bytes(users, bins, lead, dead, seed):
    rng = np.random.default_rng(seed)
    gain2 = rng.uniform(0.0, 2.0, (users, users, bins))
    direct = np.eye(users, dtype=bool)[:, :, None]
    zero = {"none": False, "direct": direct, "cross": ~direct, "both": True}[dead]
    gain2[zero & (rng.random(gain2.shape) < 0.5)] = 0.0
    psd = rng.uniform(0.0, 4.0, (*lead, users, bins))
    psd[rng.random(psd.shape) < 0.3] = 0.0
    args = (psd, gain2, rng.uniform(0.1, 3.0, (users, bins)), float(rng.choice([0.5, 1.0, 3.0])))
    rates, expect = _rates(*args), stacked_rates(*args)
    assert rates.dtype == expect.dtype and rates.shape == expect.shape == (*lead, users)
    assert rates.tobytes() == expect.tobytes()


@pytest.mark.parametrize("users", [1, 2, 3])
def test_effective_noise_is_a_fresh_writeable_array(users):
    ch = sg.ChannelSet(np.ones((users, users, 3)))
    noise = sg.NoiseProfile(np.arange(1.0, 1.0 + 3 * users).reshape(users, 3))
    alloc = sg.PowerAllocation(np.zeros((users, 3)))
    out = sg.effective_noise(0, alloc, ch, noise)
    assert np.array_equal(out, noise.psd[0])
    assert out.flags.writeable
    assert not np.shares_memory(out, noise.psd) and not np.shares_memory(out, alloc.psd)
