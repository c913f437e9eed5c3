"""Discretized frequency-selective interference channel model.

The band [0, F_s] is split into K uniform bins of width df = F_s / K, so
every integral over frequency becomes a Riemann sum weighted by df.  A
scenario is described by squared channel gains |H_ij(f_k)|^2 for every
transmitter/receiver pair, a noise PSD per receiver and bin, and a total
transmit-power budget per user.  Rates are Shannon rates with interference
treated as noise, in bits/s (log base 2):

    R_n = sum_k df * log2(1 + P_n(k) g_nn(k) / (sigma_n(k) + sum_{j!=n} P_j(k) g_jn(k)))

Single-user water-filling against a fixed noise-and-interference floor is
solved exactly in finitely many steps: sort the per-bin floors, read the
wet support off their cumulative sums, then solve the water level on that
support (Palomar & Fonollosa, IEEE TSP 2005).  The same kernel fills a
whole batch of floor rows at once, and one broadcast rate kernel prices a
batch of joint allocations psd[..., N, K].
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform discretization of the band [0, total_band] into bin_count bins."""

    bin_count: int
    total_band: float

    def __post_init__(self):
        if not isinstance(self.bin_count, (int, np.integer)) or self.bin_count < 1:
            raise ValueError("bin_count must be a positive integer")
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
        g = np.array(self.gain2, dtype=float)
        if g.ndim != 3 or g.shape[0] != g.shape[1]:
            raise ValueError("gain2 must have shape (N, N, K)")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("gain2 entries must be finite and nonnegative")
        g.setflags(write=False)
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
        p = np.array(self.psd, dtype=float)
        if p.ndim != 2:
            raise ValueError("noise psd must have shape (N, K)")
        if not np.all(np.isfinite(p)) or np.any(p <= 0):
            raise ValueError("noise psd entries must be finite and strictly positive")
        p.setflags(write=False)
        object.__setattr__(self, "psd", p)

    @classmethod
    def flat(cls, level: float, user_count: int, bin_count: int) -> "NoiseProfile":
        return cls(np.full((user_count, bin_count), float(level)))


@dataclass(frozen=True, eq=False)
class PowerBudget:
    """Total transmit power P_n available to each user."""

    budget: np.ndarray

    def __post_init__(self):
        b = np.array(self.budget, dtype=float)
        if b.ndim != 1:
            raise ValueError("budget must be a length-N vector")
        if not np.all(np.isfinite(b)) or np.any(b <= 0):
            raise ValueError("budgets must be finite and strictly positive")
        b.setflags(write=False)
        object.__setattr__(self, "budget", b)

    @property
    def user_count(self) -> int:
        return self.budget.shape[0]


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user, per-bin transmit PSD, psd[n, k] >= 0."""

    psd: np.ndarray

    def __post_init__(self):
        p = np.array(self.psd, dtype=float)
        if p.ndim != 2:
            raise ValueError("allocation psd must have shape (N, K)")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("allocation psd entries must be finite and nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "psd", p)

    def check_budget(self, grid: FrequencyGrid, budgets: PowerBudget) -> None:
        """Raise if any user exceeds its power budget beyond the shared slack."""
        used = self.psd.sum(axis=1) * grid.bin_width
        limit = budgets.budget * (1.0 + BUDGET_RTOL)
        if np.any(used > limit):
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
        n, k = self.channels.user_count, self.channels.bin_count
        if self.grid.bin_count != k:
            raise ValueError("grid bin count does not match channel bin count")
        if self.noise.psd.shape != (n, k):
            raise ValueError("noise shape does not match channels")
        if self.budgets.user_count != n:
            raise ValueError("budget length does not match user count")

    @property
    def user_count(self) -> int:
        return self.channels.user_count


def _check_consistent(user, alloc, channels, noise):
    n, k = channels.user_count, channels.bin_count
    if alloc.psd.shape != (n, k):
        raise ValueError(f"allocation shape {alloc.psd.shape} does not match channels ({n}, {k})")
    if noise.psd.shape != (n, k):
        raise ValueError(f"noise shape {noise.psd.shape} does not match channels ({n}, {k})")
    if not 0 <= user < n:
        raise ValueError(f"user index {user} out of range for {n} users")


def _effective_noise_raw(user: int, psd: np.ndarray, gain2: np.ndarray, noise_psd: np.ndarray) -> np.ndarray:
    """Noise plus interference at one receiver for psd[..., N, K], per bin."""
    received = psd * gain2[:, user, :]
    return noise_psd[user] + received.sum(axis=-2) - received[..., user, :]


def effective_noise(user: int, alloc: PowerAllocation, channels: ChannelSet, noise: NoiseProfile) -> np.ndarray:
    """Noise-plus-interference PSD seen by one receiver, per bin.

    out[k] = sigma_user(k) + sum over transmitters j != user of
    psd[j, k] * gain2[j, user, k].  Every entry is strictly positive because
    the noise floor is.
    """
    _check_consistent(user, alloc, channels, noise)
    return _effective_noise_raw(user, alloc.psd, channels.gain2, noise.psd)


def _rate_raw(user, psd, gain2, noise_psd, bin_width) -> np.ndarray:
    floor = _effective_noise_raw(user, psd, gain2, noise_psd)
    snr = psd[..., user, :] * gain2[user, user] / floor
    return bin_width * np.log2(1.0 + snr).sum(axis=-1)


def _rates(psd, gain2, noise_psd, bin_width) -> np.ndarray:
    """Rate of every user for joint allocations psd[..., N, K]; shape [..., N]."""
    users = range(psd.shape[-2])
    return np.stack([_rate_raw(n, psd, gain2, noise_psd, bin_width) for n in users], axis=-1)


def achievable_rate(
    user: int,
    alloc: PowerAllocation,
    channels: ChannelSet,
    noise: NoiseProfile,
    grid: FrequencyGrid,
) -> float:
    """Shannon rate of one user with interference treated as noise, bits/s."""
    _check_consistent(user, alloc, channels, noise)
    if grid.bin_count != channels.bin_count:
        raise ValueError("grid bin count does not match channels")
    return float(_rate_raw(user, alloc.psd, channels.gain2, noise.psd, grid.bin_width))


def all_rates(alloc: PowerAllocation, scen: PowerScenario) -> np.ndarray:
    """Rate vector for every user of a scenario under one allocation."""
    return _rates(alloc.psd, scen.channels.gain2, scen.noise.psd, scen.grid.bin_width)


def _water_fill_rows(gain: np.ndarray, noise_rows: np.ndarray, budget: float, bin_width: float) -> np.ndarray:
    """Water-fill every row of noise_rows (B, K) against one gain row.

    A bin is usable when its floor noise/gain is finite, so zero and
    vanishingly small gains get no power.  With the floors of a row sorted,
    s_1 <= ... <= s_K, the wet support is the longest prefix with
    s_m < (target + s_1 + ... + s_m) / m; the level is then solved exactly
    on that support, summing the wet floors in bin order.
    """
    target = budget / bin_width  # total PSD mass to spend
    with np.errstate(divide="ignore", over="ignore"):
        floors = noise_rows / gain
    ordered = np.sort(floors, axis=-1)
    if ordered[:, 0].max() == np.inf:
        raise NoUsableSpectrumError("no usable spectrum: every channel gain is zero or too small")
    below = ordered < (target + ordered.cumsum(axis=-1)) / np.arange(1, floors.shape[-1] + 1)
    # the highest floor of the support, or the lowest floor if none qualifies
    prefix = np.logical_and.accumulate(below, axis=-1)
    wet = floors <= np.where(prefix, ordered, ordered[:, :1]).max(axis=-1, keepdims=True)
    count = wet.sum(axis=-1)

    # Each sum runs over one row's wet floors alone, in bin order, exactly as
    # a one-dimensional sum of that support; rows are grouped by its size.
    sizes = set(count.tolist())
    wet_sum = np.empty(len(floors))
    for size in sizes:
        rows = count == size if len(sizes) > 1 else slice(None)
        wet_sum[rows] = floors[rows][wet[rows]].reshape(-1, size).sum(axis=-1)
    level = (target + wet_sum) / count

    # a wet floor tied at the water line can round to just above the level
    filled = np.where(wet, np.maximum(level[:, None] - floors, 0.0), 0.0)
    spent = filled.sum(axis=-1) * bin_width
    miss = np.abs(spent - budget)
    if miss.max() > BUDGET_RTOL * budget:
        worst = int(np.argmax(miss))
        raise ArithmeticError(f"water-filling failed: spent {float(spent[worst])!r} of {float(budget)!r}")
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
    gain = np.asarray(gain, dtype=float)
    noise_psd = np.asarray(noise_psd, dtype=float)
    if gain.ndim != 1 or gain.shape != noise_psd.shape or gain.shape[0] != grid.bin_count:
        raise ValueError("gain and noise_psd must be length-K vectors matching the grid")
    if not np.all(np.isfinite(gain)) or np.any(gain < 0):
        raise ValueError("gains must be finite and nonnegative")
    if not np.all(np.isfinite(noise_psd)) or np.any(noise_psd <= 0):
        raise ValueError("noise floor must be finite and strictly positive")
    if not np.isfinite(budget) or budget <= 0:
        raise ValueError("budget must be a positive real")
    return _water_fill_rows(gain, noise_psd[None], budget, grid.bin_width)[0]


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
    if tap_count < 1:
        raise ValueError("tap_count must be at least 1")
    if user_count < 1:
        raise ValueError("user_count must be at least 1")
    if direct_power < 0 or cross_power < 0:
        raise ValueError("tap powers must be nonnegative")

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
            # K-point response of the impulse response; taps beyond the grid
            # fold back (alias) onto it.
            padded = np.zeros(k, dtype=complex)
            for delay, tap in enumerate(taps):
                padded[delay % k] += tap
            response = np.fft.fft(padded)
            gain2[i, j] = np.abs(response) ** 2
    return ChannelSet(gain2)


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
