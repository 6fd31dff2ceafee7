"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded only by the benchmark's own files: a span wraps one
call into a layer's public function.  They stay in memory until the run
ends and are then written as one JSON file.  A recorder that is switched
off still times the call (workloads need the duration either way) but
stores nothing, so the untraced run and the traced run execute the same
statements around every operation.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "ident")

    def __init__(self, name: str, parent: Optional[int], request, ident: int) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.request = request
        self.ident = ident

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans with a per-thread parent stack."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    @contextmanager
    def span(self, name: str, request=None) -> Iterator[Span]:
        """Time one call; the yielded span carries ``seconds`` afterwards."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            self._next += 1
            ident = self._next
        span = Span(name, parent.ident if parent else None, request, ident)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self.enabled:
                with self._lock:
                    self.spans.append(span)

    @staticmethod
    def cost_per_span(samples: int = 5000) -> float:
        """Seconds that keeping one span costs beyond timing the call."""
        totals = []
        for enabled in (True, False):
            recorder = SpanRecorder(enabled)
            started = time.perf_counter()
            for _ in range(samples):
                with recorder.span("calibrate"):
                    pass
            totals.append(time.perf_counter() - started)
        return max(0.0, totals[0] - totals[1]) / samples

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the part children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - covered.get(span.ident, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        rows = [
            {
                "id": span.ident,
                "name": span.name,
                "start_us": (span.start - origin) * 1e6,
                "end_us": (span.end - origin) * 1e6,
                "parent": span.parent,
                "request": span.request,
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as handle:
            json.dump(
                {"spans": rows, "self_seconds": self.self_seconds()},
                handle,
                indent=1,
            )
