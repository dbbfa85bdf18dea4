"""A fixed reference kernel that gauges how fast this machine runs right now.

The benchmark's time metrics are reported at a nominal machine speed: each
measured time is multiplied by ``NOMINAL_S`` over the time the reference
kernel took next to it.  On a shared host the speed of a vCPU swings by tens
of percent over seconds, and a whole run can land in a slow spell; the
kernel slows down with it, so the ratio stays put.  A change to ditsim
cannot change the kernel, which uses only the standard library and numpy.

The kernel mixes the two kinds of work the workloads do: formatting floats
into CSV rows in pure Python, and an elementwise complex numpy expression.
"""

from __future__ import annotations

import csv
import io
import statistics
from time import perf_counter

import numpy as np

# the kernel's duration at the nominal speed (about its unhindered time on
# the 2-vCPU Xeon guest where the benchmark was built)
NOMINAL_S = 0.5e-3


class Speedometer:
    """Times the reference kernel; the inputs are fixed, so every call does the same work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._rows = rng.normal(size=(60, 5)).tolist()
        self._z = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        self.sample()  # the first call pays for lazy imports and caches

    def _kernel(self) -> None:
        writer = csv.writer(io.StringIO())
        for row in self._rows:
            writer.writerow([repr(v) for v in row])
        np.abs(1.0 / (1.0 + 1j * self._z)) ** 2

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0

    def median(self, runs: int) -> float:
        return statistics.median(self.sample() for _ in range(runs))


def at_nominal_speed(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took ``kernel_s``, rescaled to the nominal speed."""
    return seconds * NOMINAL_S / kernel_s
