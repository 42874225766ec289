"""Machine-speed gauge: scales measured times to one fixed reference speed.

The benchmark runs on a shared host whose execution speed drifts by up to a
third between half-minute windows, in CPU time as well as in wall time. A
time measured in a slow window would read as a regression of the program.

The gauge times a fixed piece of reference work, a "tick", right before
and right after each timed interval. The tick uses nothing from
fractalssm, so a change to the program cannot change it. A tick sums
parts, and each part is the median of three timings, so a single
interruption does not move it. Each workload names the parts that track
the kind of work it does:

- `numpy`, in every tick: a pure-Python loop, small SVDs, and numpy
  arithmetic on an array that fits in cache and on one that does not. Each
  kind alone tracked some workloads' drift and not others'; the mix
  tracked all of them.
- `longdouble`: elementwise `np.longdouble` arithmetic on cache-sized
  arrays, the x87 work of the quadrature's Newton sweeps. Across ten
  separate processes timing `construct` rounds, it cut the spread the
  `numpy` part left from 5.5% to 3.5% (coefficient of variation).
- `spawn`: starting `python -c "import numpy"`. Interpreter starts slow
  down more than in-process work does when the host is busy: in one
  window they took 36% longer while the `numpy` part took 10% longer.

An interval scaled by the reference tick over the mean of its two ticks is
the time it would have taken on a machine that runs the tick in the
reference time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# median seconds of each part on a 2-core Intel Xeon host, pinned to one
# CPU, with one OpenBLAS thread; fixed constants, so scaled times of two
# commits compare directly
REFERENCE_S = {"numpy": 0.0233, "longdouble": 0.0250, "spawn": 0.130}


class SpeedGauge:
    """Times the reference work and scales intervals by the speed it shows."""

    def __init__(self, parts=("numpy",)):
        self.parts = tuple(parts)
        self.reference = sum(REFERENCE_S[part] for part in self.parts)
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((96, 96))
        self.small = rng.standard_normal(200_000)
        # 16 MB in and 16 MB out, reused, so a tick allocates no large array;
        # the gauge adds about 35 MB to the benchmark process's peak RSS
        self.large = rng.standard_normal(2_000_000)
        self.large_out = np.empty_like(self.large)
        self.extended = rng.standard_normal((130, 128)).astype(np.longdouble)
        self.timers = {"numpy": self._timed_numpy, "longdouble": self._timed_longdouble,
                       "spawn": self._timed_spawn}
        self.ticks: list[float] = []
        # the first calls pay for LAPACK workspace queries and page faults
        for _ in range(2):
            self._timed_numpy()
            self._timed_longdouble()

    def _timed_numpy(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        for _ in range(3):
            np.linalg.svd(self.matrix)
            np.cumsum(np.exp(self.small))
        np.exp(self.large, out=self.large_out)
        np.cumsum(self.large_out, out=self.large_out)
        return time.perf_counter() - start

    def _timed_longdouble(self) -> float:
        start = time.perf_counter()
        for _ in range(150):
            (self.extended * 1.0001 + self.extended).sum()
        return time.perf_counter() - start

    @staticmethod
    def _timed_spawn() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
        return time.perf_counter() - start

    def tick(self) -> float:
        """Time each part three times and return the sum of their medians."""
        seconds = sum(sorted(self.timers[part]() for _ in range(3))[1]
                      for part in self.parts)
        self.ticks.append(seconds)
        return seconds

    def scale(self, seconds: float) -> float:
        """Scale an interval that began right after the last `tick()`.

        Ticks once more to close the interval; that tick also opens the next.
        """
        before = self.ticks[-1]
        after = self.tick()
        return seconds * self.reference * 2.0 / (before + after)
