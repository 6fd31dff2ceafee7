"""What every workload module hands back to the runner.

A workload module defines ``setup(ctx)``, ``measure(ctx, state, seconds)``,
``layers(ctx, state, measured)``, ``teardown(ctx, state)`` and
``verify(ctx, state, measured)``; the runner in ``run.py`` calls them in
that order (``layers`` only in the traced run, ``verify`` last so that
reference computations cannot raise the measured peak memory).
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from e2ebench.stats import Samples

#: When an operation ran, for one that was not timed inside a span.
Interval = collections.namedtuple("Interval", "start end")


class Measured:
    """The timed phase of one run."""

    def __init__(self, clients: int = 1) -> None:
        #: class -> cell -> seconds of each timed operation, as timed.
        self.samples: Samples = {}
        #: The same at nominal machine speed; filled in by ``settle``.
        self.nominal: Samples = {}
        #: How many callers issued the operations concurrently, each sending
        #: its next when the previous one returned.
        self.clients = clients
        self.attempted = 0
        #: One message per operation that raised, was refused or was wrong.
        self.problems: List[str] = []
        #: Whatever ``verify`` and ``layers`` need from the timed phase.
        self.kept: Dict[str, object] = {}
        # Per sample, (start, end, machine factor or None until settled).
        self._when: Dict[str, Dict[str, list]] = {}

    def add(self, klass: str, cell: str, span, factor: Optional[float] = None) -> None:
        """Record one operation; ``span`` carries its ``start`` and ``end``.

        ``factor`` is given only for an operation another process timed
        against a yardstick of its own.
        """
        self.samples.setdefault(klass, {}).setdefault(cell, []).append(span.end - span.start)
        self._when.setdefault(klass, {}).setdefault(cell, []).append(
            (span.start, span.end, factor)
        )
        self.attempted += 1

    def settle(self, calibrator) -> None:
        """State every sample at nominal machine speed (see calibrate.py)."""
        self.nominal = {
            klass: {
                cell: [
                    (end - start) / (factor or calibrator.factor_around(start, end))
                    for start, end, factor in when
                ]
                for cell, when in cells.items()
            }
            for klass, cells in self._when.items()
        }

    @property
    def operations(self) -> int:
        return sum(len(t) for cells in self.samples.values() for t in cells.values())

    @staticmethod
    def _busy(samples: Samples, clients: int) -> float:
        return sum(sum(t) for cells in samples.values() for t in cells.values()) / clients

    @property
    def busy_s(self) -> float:
        """Wall seconds the operations took, as timed: each client is inside
        an operation all the time, so it is their summed time per client."""
        return self._busy(self.samples, self.clients)

    @property
    def nominal_busy_s(self) -> float:
        return self._busy(self.nominal, self.clients)


@contextmanager
def timed(ctx, measured: Measured, klass: str, cell: str, name: str, request=None) -> Iterator:
    """One timed operation: a yardstick burst, then the call inside a span.

    The burst before the next operation is the one after this; the workload
    runs one more when its last operation is done.
    """
    ctx.calibrator.burst()
    with ctx.spans.span(name, request) as span:
        yield span
    measured.add(klass, cell, span)


def rounds_until(deadline: float, minimum: int):
    """Yield round numbers until ``deadline`` (perf_counter), at least ``minimum``."""
    number = 0
    while number < minimum or time.perf_counter() < deadline:
        yield number
        number += 1
