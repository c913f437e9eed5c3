"""The machine-speed reference that the benchmark's times are calibrated by.

The machines the benchmark runs on are shared, and their speed drifts by
up to 2x over tens of seconds as other tenants load the caches and memory.
A run therefore times, between the package calls, a fixed kernel written
here and independent of the package: small-array numpy work of the kind
the package does (seeded random draws, FFTs, sorts, cumulative sums,
logarithms, a small linear solve and a JSON dump).  A call's calibrated
time is its measured time scaled by ``REFERENCE_S`` over the kernel's
median time around the call, i.e. the time the call would have taken had
the kernel run in ``REFERENCE_S``.  A change to the package does not
change the kernel, so it moves calibrated times as it moves measured ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# The kernel's nominal time: about its median on the 2-core machine the
# baseline was measured on.  Fixed, so that calibrated times of different
# runs and commits compare.
REFERENCE_S = 0.0065
INTERVAL_S = 0.25  # least time between two kernel samples within a pass
WINDOW_S = 1.0  # kernel samples this close to a call calibrate it


def kernel(seed: int = 1) -> float:
    """A fixed piece of small-array numpy work; about 6.5 ms."""
    rng = np.random.default_rng(seed)
    acc = 0.0
    ranks = np.arange(1, 9)
    for _ in range(12):
        taps = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        gain = np.abs(np.fft.fft(taps, 8, axis=-1)) ** 2 + 0.01
        for n in range(2):
            for _ in range(8):
                floor = 1.0 + gain[1 - n, n] * 0.5
                inv = np.sort(floor / gain[n, n])
                level = (100.0 + np.cumsum(inv)) / ranks
                j = int(np.flatnonzero(level > inv)[-1])
                psd = np.maximum(level[j] - floor / gain[n, n], 0.0)
                acc += float(np.log2(1.0 + psd * gain[n, n] / floor).sum())
        a = rng.random((6, 6)) + 6.0 * np.eye(6)
        acc += float(np.linalg.solve(a, np.ones(6)).sum())
        acc += len(json.dumps({"psd": [float(x) for x in psd]}))
    return acc


class Speed:
    """Kernel samples taken over a run, as (time taken at, seconds)."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self):
        """Time the kernel once, or up to four times after a long gap."""
        gap = time.perf_counter() - self.at[-1] if self.at else INTERVAL_S
        for _ in range(min(4, max(1, round(gap / INTERVAL_S)))):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.at.append(end)
            self.seconds.append(end - start)

    def due(self):
        return not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S

    def around(self, start, end):
        """The median kernel time within WINDOW_S of [start, end], else of the nearest samples."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 2:
            near = bisect.bisect_left(self.at, start)
            lo, hi = max(0, near - 1), min(len(self.at), near + 1)
        return statistics.median(self.seconds[lo:hi])

    def calibrate(self, start, end):
        """The calibrated duration of an interval measured as [start, end]."""
        return (end - start) * REFERENCE_S / self.around(start, end)
