"""Host-speed probe: scales timings to a fixed reference speed.

A shared host runs the same code up to twice as slowly for seconds at a
time while other tenants are busy.  The benchmark therefore runs a fixed
probe -- a NumPy sort and gather, no code of the program under test --
before and after each block of timed operations, and multiplies the
block's times by ``NOMINAL_S`` over the probe time measured around it.  A
change to the program moves its own times and never the probe's, so the
scaling removes the host's swings and keeps the program's.  (A probe with
an interpreter loop in it tracked the host worse, on interpreter-bound
workloads too.)  The raw, unscaled figures are printed beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on a quiet 2-core x86-64 container (Python 3.11, NumPy 2.4);
#: scaled times read as that host's times.
NOMINAL_S = 0.5e-3


class HostSpeed:
    """Times the fixed probe; turns probe times into scale factors."""

    passes = 3

    def __init__(self) -> None:
        generator = np.random.default_rng(0)
        self._keys = generator.random(32_768)
        self._index = generator.integers(0, self._keys.size, self._keys.size)

    def probe(self) -> float:
        """Median seconds of a few probe passes."""
        clock = time.perf_counter
        times = []
        for _ in range(self.passes):
            started = clock()
            np.argsort(self._keys)
            self._keys.take(self._index)
            times.append(clock() - started)
        return statistics.median(times)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale factor for times taken between two probes."""
        return NOMINAL_S / ((before + after) / 2.0)
