"""Counters and timers for the serving layer.

One :class:`Metrics` instance aggregates everything a service does:
cache hits/misses, per-pass compile time (``compile.normalize``,
``compile.deps``, ``compile.fusion``, ``compile.scalarize``,
``compile.codegen``), per-backend execution time
(``execute.codegen_np`` etc.), and the autotuner's ``tune.*`` timers.
Timer snapshots carry tail percentiles (``p50_s``/``p95_s``/``p99_s``,
from a bounded reservoir) so tuned and default plans can be compared on
tail latency, not just means.  Snapshots are plain JSON-serializable dicts,
printed by ``repro serve --stats`` and exportable with ``--stats-json``.

All mutation is lock-protected so ``Service.submit_many`` can record
from worker-pool threads.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

#: Bound on the per-timer sample reservoir the percentiles are computed
#: from.  256 float samples keep the p95 of a steady-state latency
#: distribution within a few percent while costing 2 KB per timer.
RESERVOIR_SIZE = 256

#: Histogram bucket upper bounds (seconds) every timer accumulates into,
#: exported as cumulative Prometheus ``le`` buckets (plus ``+Inf``).
#: Log-spaced from 100 us to 10 s — compile passes sit in the low
#: buckets, executions and tuner measurements in the upper ones.
HISTOGRAM_BUCKETS_S = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)


class TimerStat:
    """Aggregate of one named timer: count / total / min / max seconds,
    a bounded reservoir for tail percentiles (p50/p95), and fixed
    histogram buckets for Prometheus exposition.

    The reservoir holds a uniform sample of all observations (classic
    reservoir sampling with a fixed-seed generator, so snapshots are
    reproducible given the same observation sequence); percentiles over
    it approximate the true distribution without unbounded memory."""

    __slots__ = ("count", "total", "min", "max", "samples", "buckets", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.samples: List[float] = []
        #: Non-cumulative per-bucket counts; the last slot is overflow
        #: (observations above every bound in HISTOGRAM_BUCKETS_S).
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BUCKETS_S) + 1)
        self._rng = random.Random(0x5EED)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)
        for index, bound in enumerate(HISTOGRAM_BUCKETS_S):
            if seconds <= bound:
                self.buckets[index] += 1
                break
        else:
            self.buckets[-1] += 1
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(seconds)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self.samples[slot] = seconds

    def merge(self, other: "TimerStat") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.buckets = [
            mine + theirs for mine, theirs in zip(self.buckets, other.buckets)
        ]
        combined = self.samples + other.samples
        if len(combined) > RESERVOIR_SIZE:
            combined = self._rng.sample(combined, RESERVOIR_SIZE)
        self.samples = combined

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative counts keyed by Prometheus ``le`` bound strings."""
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(HISTOGRAM_BUCKETS_S, self.buckets):
            running += count
            cumulative["%g" % bound] = running
        cumulative["+Inf"] = running + self.buckets[-1]
        return cumulative

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the sample reservoir."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count if self.count else 0.0,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "buckets": self.bucket_counts(),
        }


class Metrics:
    """A thread-safe registry of named counters and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStat] = {}

    # -- recording ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def register(self, names: Iterable[str]) -> None:
        """Pre-seed counters at zero so they are visible before first use.

        A registered-but-never-incremented counter (an unused backend,
        a shed path that never fired) must still appear in ``/metrics``
        and ``repro stats`` output — scrape-twin dashboards break when a
        series vanishes instead of reading 0.  Existing counts are left
        untouched.
        """
        with self._lock:
            for name in names:
                self._counters.setdefault(name, 0)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a block: ``with metrics.time("compile.normalize"): ...``"""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counts into this one."""
        with other._lock:
            counters = dict(other._counters)
            timers = {name: stat for name, stat in other._timers.items()}
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] = self._counters.get(name, 0) + amount
            for name, stat in timers.items():
                mine = self._timers.get(name)
                if mine is None:
                    mine = self._timers[name] = TimerStat()
                mine.merge(stat)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def timer(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            stat = self._timers.get(name)
            return stat.snapshot() if stat else None

    def snapshot(self) -> Dict[str, object]:
        """All counters and timers as one JSON-serializable dict."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "timers": {
                    name: stat.snapshot()
                    for name, stat in sorted(self._timers.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()
