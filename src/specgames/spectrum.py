"""Discretized frequency-selective interference channel model.

The band [0, F_s] is split into K uniform bins of width df = F_s / K, so
every integral over frequency becomes a Riemann sum weighted by df.  A
scenario is described by squared channel gains |H_ij(f_k)|^2 for every
transmitter/receiver pair, a noise PSD per receiver and bin, and a total
transmit-power budget per user.  Rates are Shannon rates with interference
treated as noise, in bits/s (log base 2):

    R_n = sum_k df * log2(1 + P_n(k) g_nn(k) / (sigma_n(k) + sum_{j!=n} P_j(k) g_jn(k)))

The floor starts from sigma_n(k) and adds each P_j(k) g_jn(k), j != n, in
index order, with the same operations on arrays (`_effective_noise_raw`) and
on lists (iterative water-filling), so the two agree bit for bit.

Single-user water-filling against a fixed noise-and-interference floor is
solved exactly in finitely many steps: sort the per-bin floors; the wet
support is the longest prefix with s_m < (target + s_1 + ... + s_m) / m,
and the water level is that quantity at the support size (Palomar &
Fonollosa, IEEE TSP 2005).  One running sum of the sorted floors gives
both.  Two kernels share that algorithm and its arithmetic bit for bit:

* `_water_fill_rows` fills a whole batch of floor rows (B, K) in numpy; the
  follower replies, the leader's candidate grid and the descent trials use
  it, as their rows are independent;
* `_water_fill_row` fills one row of floors on Python floats; the public
  `water_fill` (which forms the floors noise/gain) and iterative
  water-filling (which divides each floor sum by the direct gain as it adds
  the last interferer) use it, where each reply waits on the last and
  numpy's per-call overhead would cost more than the arithmetic.

Every sum in the two water-fill kernels adds in a fixed order, one entry
after another, so neither depends on how numpy sums.  One broadcast rate
kernel, `_rates`, prices a batch of joint allocations psd[..., N, K].
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import inf
from operator import add

import numpy as np

from .errors import NoUsableSpectrumError

__all__ = [
    "FrequencyGrid",
    "ChannelSet",
    "NoiseProfile",
    "PowerBudget",
    "PowerAllocation",
    "PowerScenario",
    "effective_noise",
    "achievable_rate",
    "water_fill",
    "generate_multipath_channels",
    "two_channel_scenario",
]

# Relative slack allowed on the per-user power budget of any allocation.
BUDGET_RTOL = 1e-9


def _integer(value, name: str, least=None, most=None):
    """Refuse a value that is not an integer (a bool is not) or lies outside least..most."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must be in {least}..{most}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _allocated(make, shape, **kwargs) -> np.ndarray:
    """make(shape, **kwargs), with a shape past numpy's index range raised as MemoryError, like one too big to hold."""
    try:
        return make(shape, **kwargs)
    except ValueError as exc:  # "Maximum allowed dimension exceeded" or "array is too big; ..."
        raise MemoryError(f"cannot make an array of shape {shape}: {exc}") from exc


def _finite_array(values, name: str, ndim=None, positive=False) -> np.ndarray:
    """A read-only float copy of `values` with -0.0 made 0.0 (whose floor is +inf).

    Refuses a copy without `ndim` axes (any count when None), or with an
    entry that is not finite and >= 0 (> 0 when `positive`).
    """
    a = np.array(values, dtype=float)
    a += 0.0
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, not shape {a.shape}")
    if not np.isfinite(a).all() or (a <= 0.0 if positive else a < 0.0).any():
        raise ValueError(f"{name} entries must be finite and {'> 0' if positive else '>= 0'}")
    a.setflags(write=False)
    return a


def _check_leader(leader):
    """Refuse a leader index that is not 0 or 1 (a bool is not)."""
    if isinstance(leader, bool) or not isinstance(leader, (int, np.integer)) or leader not in (0, 1):
        raise ValueError("leader must be 0 or 1")


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform discretization of the band [0, total_band] into bin_count bins."""

    bin_count: int
    total_band: float

    def __post_init__(self):
        _integer(self.bin_count, "bin_count", 1)
        if not np.isfinite(self.total_band) or self.total_band <= 0:
            raise ValueError("total_band must be a positive real")
        if abs(self.bin_width * self.bin_count - self.total_band) > 1e-12 * self.total_band:
            raise ValueError("bin_width * bin_count must reproduce total_band")

    @property
    def bin_width(self) -> float:
        return self.total_band / self.bin_count


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Squared channel gains gain2[i, j, k] = |H_ij(f_k)|^2.

    Index i is the transmitter, j the receiver, k the frequency bin.  Gains
    are dimensionless power gains and multiply powers directly.  A user whose
    direct gains are zero in some bins simply earns no rate there; no
    operation divides by a channel gain outside the support.
    """

    gain2: np.ndarray

    def __post_init__(self):
        g = _finite_array(self.gain2, "gain2", 3)
        if g.shape[0] != g.shape[1]:
            raise ValueError("gain2 must have shape (N, N, K)")
        object.__setattr__(self, "gain2", g)

    @property
    def user_count(self) -> int:
        return self.gain2.shape[0]

    @property
    def bin_count(self) -> int:
        return self.gain2.shape[2]


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Receiver noise PSD, psd[n, k] > 0."""

    psd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psd", _finite_array(self.psd, "noise psd", 2, positive=True))

    @classmethod
    def flat(cls, level: float, user_count: int, bin_count: int) -> "NoiseProfile":
        return cls(np.full((user_count, bin_count), float(level)))


@dataclass(frozen=True, eq=False)
class PowerBudget:
    """Total transmit power P_n available to each user."""

    budget: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "budget", _finite_array(self.budget, "budget", 1, positive=True))

    @property
    def user_count(self) -> int:
        return self.budget.shape[0]


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user, per-bin transmit PSD, psd[n, k] >= 0."""

    psd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psd", _finite_array(self.psd, "allocation psd", 2))

    def check_budget(self, grid: FrequencyGrid, budgets: PowerBudget) -> None:
        """Raise if any user exceeds its power budget beyond the shared slack."""
        used = self.psd.sum(axis=1) * grid.bin_width
        limit = budgets.budget * (1.0 + BUDGET_RTOL)
        if (used > limit).any():
            worst = int(np.argmax(used - limit))
            raise ValueError(
                f"user {worst} spends {used[worst]!r} against budget {budgets.budget[worst]!r}"
            )


@dataclass(frozen=True, eq=False)
class PowerScenario:
    """A complete continuous power-control setting: grid, gains, noise, budgets."""

    grid: FrequencyGrid
    channels: ChannelSet
    noise: NoiseProfile
    budgets: PowerBudget

    def __post_init__(self):
        _check_agreement(self.channels, self.noise, self.budgets, self.grid)

    @property
    def user_count(self) -> int:
        return self.channels.user_count


def _check_agreement(ch, noise, budgets=None, grid=None):
    """Refuse a noise table, budget vector or grid that does not match the channels ch."""
    n, k = ch.user_count, ch.bin_count
    if grid is not None and grid.bin_count != k:
        raise ValueError(f"grid has {grid.bin_count} bins where the channel gains have {k}")
    if noise.psd.shape != (n, k):
        raise ValueError(f"noise must be a {n}x{k} PSD table, not {noise.psd.shape}")
    if budgets is not None and budgets.user_count != n:
        raise ValueError(f"budgets must hold {n} entries, not {budgets.user_count}")


def _check_consistent(user, alloc, channels, noise, grid=None):
    _check_agreement(channels, noise, grid=grid)
    n, k = channels.user_count, channels.bin_count
    if alloc.psd.shape != (n, k):
        raise ValueError(f"alloc must be a {n}x{k} PSD table, not {alloc.psd.shape}")
    _integer(user, "user", 0, n - 1)


def _effective_noise_raw(user: int, psd: np.ndarray, gain2: np.ndarray, noise_psd: np.ndarray) -> np.ndarray:
    """Noise plus interference at one receiver for psd[..., N, K], per bin, in index order; a new array."""
    floor = noise = noise_psd[user]
    for j in range(psd.shape[-2]):
        if j != user:
            floor = floor + psd[..., j, :] * gain2[j, user]
    return noise.copy() if floor is noise else floor


def effective_noise(user: int, alloc: PowerAllocation, channels: ChannelSet, noise: NoiseProfile) -> np.ndarray:
    """Noise-plus-interference PSD seen by one receiver, per bin.

    out[k] = sigma_user(k) + sum over transmitters j != user of
    psd[j, k] * gain2[j, user, k].  Every entry is strictly positive because
    the noise floor is.
    """
    _check_consistent(user, alloc, channels, noise)
    return _effective_noise_raw(user, alloc.psd, channels.gain2, noise.psd)


def _rate_of(received, floor, bin_width) -> np.ndarray:
    """Rate df * sum over bins of log2(1 + received / floor), the one rate expression."""
    return bin_width * np.log2(1.0 + received / floor).sum(axis=-1)


def _rates(psd, gain2, noise_psd, bin_width) -> np.ndarray:
    """Rate of every user for joint allocations psd[..., N, K]; shape [..., N], priced user by user."""
    rates = np.empty(psd.shape[:-1])
    for n in range(psd.shape[-2]):
        floor = _effective_noise_raw(n, psd, gain2, noise_psd)
        rates[..., n] = _rate_of(psd[..., n, :] * gain2[n, n], floor, bin_width)
    return rates


def achievable_rate(
    user: int,
    alloc: PowerAllocation,
    channels: ChannelSet,
    noise: NoiseProfile,
    grid: FrequencyGrid,
) -> float:
    """Shannon rate of one user with interference treated as noise, bits/s."""
    _check_consistent(user, alloc, channels, noise, grid)
    return float(_rates(alloc.psd, channels.gain2, noise.psd, grid.bin_width)[user])


def _water_fill_rows(gain: np.ndarray, noise_rows: np.ndarray, budget: float, bin_width: float) -> np.ndarray:
    """Water-fill every row of noise_rows (B, K) against one gain row.

    A bin is usable when its floor noise/gain is finite, so zero and
    vanishingly small gains get no power.  With the floors of a row sorted,
    s_1 <= ... <= s_K, the wet support is the longest prefix with
    s_m < (target + s_1 + ... + s_m) / m, and the level is that quantity at
    the support size, read off the same running sum.  Floors tied with the
    highest floor of the support are wet too.  The budget check sums each
    filled row in bin order, one entry after another.
    """
    target = budget / bin_width  # total PSD mass to spend
    with np.errstate(divide="ignore", over="ignore"):
        floors = noise_rows / gain
    ordered = np.sort(floors, axis=-1)
    if ordered[:, 0].max() == np.inf:
        raise NoUsableSpectrumError("no usable spectrum: every channel gain is zero or too small")
    running = ordered.cumsum(axis=-1)
    below = ordered < (target + running) / np.arange(1, floors.shape[-1] + 1)
    # the highest support floor sits just before the first False; an argmin of
    # 0 means all qualify (index -1) or none (index 0, the lowest): below[:, 0] tells
    rows = np.arange(len(floors))
    line = ordered[rows, below.argmin(axis=-1) - below[:, 0]]
    wet = floors <= line[:, None]
    count = wet.sum(axis=-1)
    # the wet floors are the first `count` sorted floors, ties at the line included
    level = (target + running[rows, count - 1]) / count

    # a wet floor tied at the water line can round to just above the level
    filled = np.subtract(level[:, None], floors)
    np.maximum(filled, 0.0, out=filled)
    filled[~wet] = 0.0
    spent = filled.cumsum(axis=-1)[:, -1] * bin_width
    miss = np.abs(spent - budget)
    if miss.max() > BUDGET_RTOL * budget:
        worst = int(np.argmax(miss))
        raise ArithmeticError(f"water-filling failed: spent {float(spent[worst])!r} of {float(budget)!r}")
    return filled


def _water_fill_row(floors, budget: float, bin_width: float) -> list:
    """Water-fill one row of floors noise/gain, a list of floats (inf where unusable).

    One row of `_water_fill_rows` on Python floats, with the same arithmetic
    in the same order (one running sum over the sorted floors sets both the
    support and the level, the budget check adds in bin order), so the two
    agree bit for bit.
    """
    target = budget / bin_width
    ordered = sorted(floors)
    if ordered[0] == inf:
        raise NoUsableSpectrumError("no usable spectrum: every channel gain is zero or too small")
    running = list(accumulate(ordered))
    # the highest floor of the support, or the lowest floor if none qualifies
    line, m = ordered[0], 0
    for s, total in zip(ordered, running):
        m += 1
        if not s < (target + total) / m:
            break
        line = s
    # the floors tied with it are wet too
    count = bisect_right(ordered, line)
    level = (target + running[count - 1]) / count
    # a wet floor tied at the water line can round to just above the level;
    # the clip gives what np.maximum(d, 0.0) gives, NaN and -0.0 included
    filled = [(0.0 if (d := level - f) < 0.0 else d) if f <= line else 0.0 for f in floors]
    spent = reduce(add, filled, 0.0) * bin_width
    if abs(spent - budget) > BUDGET_RTOL * budget:
        raise ArithmeticError(f"water-filling failed: spent {spent!r} of {float(budget)!r}")
    return filled


def water_fill(gain, noise_psd, budget: float, grid: FrequencyGrid) -> np.ndarray:
    """Single-user water-filling against a fixed per-bin noise floor.

    Returns the PSD row maximizing sum_k df*log(1 + gain[k] P[k] / noise[k])
    subject to sum_k P[k]*df == budget and P >= 0.  Bins whose floor
    noise/gain is not finite (zero or vanishingly small gain) get zero power
    and are excluded from the water-level computation.  The wet support is
    found in closed form from the sorted floors and the level is solved
    exactly on it, so the budget is met to machine precision.
    """
    gain = _finite_array(gain, "gain", 1)
    noise_psd = _finite_array(noise_psd, "noise_psd", 1, positive=True)
    if gain.shape != noise_psd.shape or gain.shape[0] != grid.bin_count:
        raise ValueError("gain and noise_psd must be length-K vectors matching the grid")
    if not np.isfinite(budget) or budget <= 0:
        raise ValueError("budget must be a positive real")
    floors = [s / g if g > 0.0 else inf for s, g in zip(noise_psd.tolist(), gain.tolist())]
    return np.array(_water_fill_row(floors, float(budget), grid.bin_width))


def generate_multipath_channels(
    seed,
    grid: FrequencyGrid,
    tap_count: int,
    user_count: int = 2,
    direct_power: float = 1.0,
    cross_power: float = 0.5,
) -> ChannelSet:
    """Random frequency-selective channels from normalized multipath taps.

    For every transmitter/receiver pair, tap_count complex taps are drawn
    with independent circular-symmetric Gaussian components and rescaled so
    the total tap power sum |h|^2 equals direct_power on direct links and
    cross_power on cross links exactly.  The stored gains are the squared
    magnitudes of the K-point discrete frequency response.  Deterministic
    for a fixed seed.
    """
    _integer(tap_count, "tap_count", 1)
    _integer(user_count, "user_count", 1)
    if direct_power < 0 or cross_power < 0:
        raise ValueError("tap powers must be nonnegative")

    # one draw in the order of a link at a time: links row-major, each
    # link's real parts and then its imaginary parts
    draws = _allocated(np.random.default_rng(seed).standard_normal, (user_count, user_count, 2, tap_count))
    taps = (draws[:, :, 0] + 1j * draws[:, :, 1]) / np.sqrt(2.0)
    # each link's scale sqrt(power / sum |h|^2), 0 on a link of zero power
    magnitudes = np.abs(taps)
    scale = np.zeros((user_count, user_count, 1))
    for i, j in np.ndindex(user_count, user_count):
        power = direct_power if i == j else cross_power
        if power != 0.0:
            scale[i, j] = np.sqrt(power / magnitudes[i, j].dot(magnitudes[i, j]))
    taps *= scale
    # K-point response of each impulse response; taps beyond the grid fold
    # back (alias) onto it, added in delay order
    k = grid.bin_count
    padded = _allocated(np.zeros, (user_count, user_count, k), dtype=complex)
    for start in range(0, tap_count, k):
        block = taps[..., start:start + k]
        padded[..., :block.shape[-1]] += block
    return ChannelSet(np.abs(np.fft.fft(padded, axis=-1)) ** 2)


def two_channel_scenario(
    direct_gain: float = 1.0,
    cross_12=(0.8, 0.4),
    cross_21=(0.4, 0.4),
    noise_level: float = 1.0,
    budgets=(10.0, 10.0),
) -> PowerScenario:
    """Two users sharing two unit-width channels with flat direct gains.

    The default parameters give the canonical asymmetric-interference game
    where concentrating rather than spreading power can help both users.
    """
    cross_12 = np.asarray(cross_12, dtype=float)
    cross_21 = np.asarray(cross_21, dtype=float)
    if cross_12.shape != (2,) or cross_21.shape != (2,):
        raise ValueError("cross gains must give one value per channel")
    grid = FrequencyGrid(bin_count=2, total_band=2.0)
    gain2 = np.array(
        [
            [[direct_gain, direct_gain], list(cross_12)],
            [list(cross_21), [direct_gain, direct_gain]],
        ]
    )
    return PowerScenario(
        grid=grid,
        channels=ChannelSet(gain2),
        noise=NoiseProfile.flat(noise_level, 2, 2),
        budgets=PowerBudget(np.asarray(budgets, dtype=float)),
    )
