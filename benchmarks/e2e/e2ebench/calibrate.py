"""Machine-speed calibration: a yardstick timed around every operation.

This box is a two-vCPU guest.  Each vCPU flips, second by second, between a
fast mode and one about 1.4x slower (a neighbour on the sibling hardware
thread; ``/proc/stat`` shows no steal).  The share of a run spent in the
slow mode differs from run to run, so raw medians of unchanged code differ
by up to 25 % and no regression bound could be enforced (README, "Why times
are calibrated").

The yardstick is a fixed pure-Python loop: no code of this repository, no
memory traffic, about 1 ms.  Workloads run a burst of it between
operations, while nothing else of theirs is running.  An operation's
*machine factor* is how much slower than nominal the yardstick ran in the
bursts right before and right after it; the operation's time is divided by
it, which states the time on a machine in its nominal mode.  A change to
the repository cannot move the yardstick, so it cannot hide or fake a gain.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: The yardstick's time on this box in its fast mode, in seconds.  It only
#: anchors the scale: a different machine shifts every metric by one factor.
NOMINAL_S = 1.15e-3


def _python_loop() -> int:
    total = 0
    for value in range(20000):
        total += value * value
    return total


class Calibrator:
    """Yardstick bursts over one phase of a run, in time order."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._seconds: List[List[float]] = []

    def burst(self, repeats: int = 3) -> None:
        """``repeats`` yardstick timings; call it between operations."""
        seconds = []
        self._starts.append(time.perf_counter())
        for _ in range(repeats):
            started = time.perf_counter()
            _python_loop()
            seconds.append(time.perf_counter() - started)
        self._ends.append(time.perf_counter())
        self._seconds.append(seconds)

    def factor_around(self, start: float, end: float) -> float:
        """The machine factor of an operation that ran from ``start`` to ``end``
        (``perf_counter`` readings): the median yardstick time of the last
        burst that ended before it and the first that began after it."""
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._starts, end)
        pooled = []
        if before >= 0:
            pooled += self._seconds[before]
        if after < len(self._seconds):
            pooled += self._seconds[after]
        if not pooled:
            raise RuntimeError("no calibration burst around the operation")
        return statistics.median(pooled) / NOMINAL_S

    def factor(self) -> float:
        """The machine factor of the whole phase (1.0 = nominal)."""
        pooled = [seconds for burst in self._seconds for seconds in burst]
        if not pooled:
            raise RuntimeError("no calibration burst was run")
        return statistics.median(pooled) / NOMINAL_S
