"""Machine speed, measured alongside the program.

The benchmark was written on a shared 2-core machine whose speed changed
by up to a factor of two within a minute, for all work on it alike: the
ratio of the program's run time to that of a fixed Python computation
stayed within a few percent while each moved by 100%. So a fixed
reference computation, Python complex arithmetic and small numpy
operations (the two kinds of work the program does), is timed between
operations, at most every PERIOD_S, and during long calls from an
interval timer. Times measured over an interval are scaled by the mean of
REFERENCE_S / (reference time) over the samples in it: the samples are
spread evenly in time, so that is the machine's average speed over the
interval. REFERENCE_S only sets the scale: on that machine the reference
took 1.4 to 1.6 ms in quiet spells and up to 3.2 ms in busy ones.

Work that is mostly process start, imports and page-ins (set-up, CLI
children) is scaled instead by a bare start: a fresh interpreter that
imports numpy, timed before and after. On that machine the set-up time
scaled by the arithmetic reference still spread by 18% between runs,
while its ratio to the bare start moved by 5%. BARE_START_S only sets
the scale: the bare start took 0.15 s there in quiet spells.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.002
PERIOD_S = 0.1
BARE_START_S = 0.15


def bare_start(cwd, env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True)
    return time.perf_counter() - t0


def reference_work():
    z, acc = 0.5 + 0.5j, 0j
    for k in range(1, 6000):
        acc += z * z / k
    x = np.ones(3)
    for _ in range(600):
        x = x + 0.001 * (x * x)
    return acc, x


class Speedometer:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0  # seconds spent on samples, to leave out of timed calls
        self._last = -float("inf")
        self._sampling = False

    def tick(self) -> None:
        """Time the reference if PERIOD_S has passed since the last sample."""
        if not self._sampling and time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def sample(self) -> None:
        self._sampling = True
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self._last = time.perf_counter()
        self.busy += self._last - t0
        self._sampling = False

    @contextmanager
    def timer(self):
        """Also sample from SIGALRM every PERIOD_S, inside calls that last longer."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self._sampling or self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_S / reference time over [t0, t1], or the 3 nearest samples."""
        at, took = np.array(self.at), np.array(self.took)
        inside = (at >= t0) & (at <= t1)
        if inside.sum() < 3:
            inside = np.argsort(np.abs(at - 0.5 * (t0 + t1)))[:3]
        return float(np.mean(REFERENCE_S / took[inside]))
