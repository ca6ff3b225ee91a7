"""Machine speed measured between operations, to scale times to a fixed
reference speed.

The CPU this benchmark runs on is shared: over minutes, other tenants
change how fast interpreter-bound code runs by a factor of two, which moves
a 30-second median by more than any bound worth setting. So each run times
a fixed reference burst (mostly interpreter work, plus numpy calls on tiny
arrays, the mix the workloads run) every ``INTERVAL_S`` seconds between
operations, and every time the benchmark reports is multiplied by
``NOMINAL_S`` over the median burst time around it. A change to
``promptmt`` cannot move the burst, which calls none of it; a slower or
busier machine moves both, and the scaling cancels what they share. Raw
times are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# A burst time picked near the typical one on the shared 2 GHz Xeon vCPU
# the baseline was measured on (runs there read from 0.74 to 1.7 times
# it); scaled times read as seconds at that speed.
NOMINAL_S = 0.0016
INTERVAL_S = 0.2    # between bursts, about 3% of a run

_rng = np.random.default_rng(0)
_W = (_rng.standard_normal((64, 64)) / 8).astype(np.float32)
_X = _rng.standard_normal((24, 64)).astype(np.float32)
_SMALL = np.ones(8, dtype=np.float32)


def _burst():
    """Mostly interpreter work, as in the autodiff graph and the BPE merge
    loop (tuple keys, dict updates, list building and sorting), then
    numpy calls on tiny arrays, as on a graph node, and a few small
    matrix products."""
    acc = 0
    table: dict = {}
    rows = []
    for i in range(2400):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
        if i % 8 == 0:
            rows.append([acc, key])
    rows.sort(key=lambda r: (-r[0], r[1]))
    x = _SMALL
    for _ in range(150):
        x = np.maximum(x * 0.5 + _SMALL, 0)
    y = _X
    for _ in range(10):
        y = np.tanh(y @ _W)
    return acc + len(rows) + float(x.sum()) + float(y[0, 0])


class SpeedProbe:
    """Reference bursts timed during one run, and the slow-down they show
    at any moment of it."""

    def __init__(self):
        self.times: list[float] = []      # burst midpoints, ascending
        self.bursts: list[float] = []     # timed burst durations
        self.occupied: list[float] = []   # warm-up plus timed burst
        self._last = float("-inf")

    def burst(self):
        start = time.perf_counter()
        # an untimed run first: the operation before left the caches cold,
        # and the burst should not measure the program's footprint
        _burst()
        t0 = time.perf_counter()
        _burst()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.bursts.append(t1 - t0)
        self.occupied.append(t1 - start)
        self._last = t1

    def tick(self):
        """Run a burst if ``INTERVAL_S`` passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.burst()

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against the nominal speed over ``[t0, t1]``: the median
        of the bursts inside it and the two on either side of it."""
        if not self.bursts:
            raise RuntimeError("no speed burst recorded")
        lo = max(bisect.bisect_left(self.times, t0) - 2, 0)
        hi = bisect.bisect_right(self.times, t1) + 2
        return statistics.median(self.bursts[lo:hi]) / NOMINAL_S

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds / self.factor(t0, t1)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe took inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return sum(self.occupied[lo:hi])

    def overall(self) -> float:
        return statistics.median(self.bursts) / NOMINAL_S
